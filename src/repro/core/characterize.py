"""Longitudinal characterization of the aggressive hitters (paper §5).

* :func:`temporal_trends` — Figure 3: daily/active AH counts and the AH
  share of all darknet packets per day.
* :func:`origins` — Table 5: top origin networks by unique /32s, with
  /24 aggregation, packet volumes and acknowledged-scanner counts.
* :func:`top_ports` — Figure 4: top targeted services with the
  ZMap/Masscan/Other fingerprint split.
* :func:`zipf_contribution` — Figure 6 (right): cumulative AH traffic
  share by ranked source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.core.detection import DetectionResult
from repro.fingerprint import Tool, classify_columns
from repro.net.addr import distinct_slash24s
from repro.net.asn import ASRegistry
from repro.packet import Protocol
from repro.sortkeys import distinct_counts, run_starts
from repro.telescope.capture import DarknetCapture


@dataclass(frozen=True)
class TrendPoint:
    """One day of the Figure 3 time series."""

    day: int
    daily_new_ah: int
    active_ah: int
    all_daily_sources: int
    ah_packets: int
    total_packets: int

    @property
    def ah_packet_share(self) -> float:
        """Daily-AH share of the day's darknet packets."""
        if self.total_packets <= 0:
            return 0.0
        return self.ah_packets / self.total_packets


def temporal_trends(
    events: "EventTable",
    detection: DetectionResult,
    days: Sequence[int],
    day_seconds: float,
) -> list:
    """Figure 3 series: AH counts and packet shares per day.

    Statistics are computed at *event* granularity, attributing each
    event's full packet count to the day the event started — the paper
    notes that the darknet-events data format only supports packet
    accounting this way, and only for the *daily* scanners (those whose
    first qualifying activity started that day).
    """
    from repro.core.events import EventTable  # local import: cycle guard

    assert isinstance(events, EventTable)
    start_day = events.start_day(day_seconds)
    points = []
    for day in days:
        in_day = start_day == day
        total = int(events.packets[in_day].sum())
        all_sources = int(len(np.unique(events.src[in_day]))) if total else 0
        new = detection.new_on(day)
        active = detection.active_on(day)
        if new and total:
            wanted = np.asarray(sorted(new), dtype=np.uint32)
            ah_mask = in_day & np.isin(events.src, wanted)
            ah_packets = int(events.packets[ah_mask].sum())
        else:
            ah_packets = 0
        points.append(
            TrendPoint(
                day=int(day),
                daily_new_ah=len(new),
                active_ah=len(active),
                all_daily_sources=all_sources,
                ah_packets=ah_packets,
                total_packets=total,
            )
        )
    return points


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OriginRow:
    """One origin network of Table 5."""

    label: str
    org: str
    asn: int
    unique_ips: int
    acked_ips: int
    unique_slash24: int
    acked_slash24: int
    packets: int


def origins(
    ah_sources: Iterable[int],
    registry: ASRegistry,
    capture: Optional[DarknetCapture] = None,
    acked_sources: Optional[set] = None,
    top_n: int = 10,
) -> tuple:
    """Table 5: top origin ASes of the AH population.

    Args:
        ah_sources: the AH list.
        registry: AS registry for origin lookups.
        capture: darknet capture for per-AS packet volumes.
        acked_sources: AH matched to acknowledged orgs (parenthesized
            counts in the paper's table).
        top_n: number of rows.

    Returns:
        ``(rows, totals)`` where rows are :class:`OriginRow` sorted by
        unique IPs and totals summarize the top rows' share of the whole
        AH population: ``{"ips": (count, share), "slash24": ...,
        "packets": ...}``.
    """
    sources = np.unique(np.fromiter((int(a) for a in ah_sources), dtype=np.uint32))
    acked_sources = acked_sources or set()
    if len(sources) == 0:
        return [], {"ips": (0, 0.0), "slash24": (0, 0.0), "packets": (0, 0.0)}
    idx = registry.lookup_index(sources)

    packets_by_src: Dict[int, int] = {}
    total_ah_packets = 0
    if capture is not None:
        seen, counts = capture.source_packets(sources)
        packets_by_src = dict(zip(seen.tolist(), counts.tolist()))
        total_ah_packets = int(counts.sum())

    by_as: Dict[int, dict] = {}
    for source, as_idx in zip(sources, idx):
        if as_idx < 0:
            continue
        entry = by_as.setdefault(
            int(as_idx),
            {"ips": set(), "acked": set(), "packets": 0},
        )
        entry["ips"].add(int(source))
        if int(source) in acked_sources:
            entry["acked"].add(int(source))
        entry["packets"] += packets_by_src.get(int(source), 0)

    rows = []
    for as_idx, entry in by_as.items():
        system = registry.systems[as_idx]
        ips = entry["ips"]
        acked = entry["acked"]
        rows.append(
            OriginRow(
                label=system.label(),
                org=system.org,
                asn=system.asn,
                unique_ips=len(ips),
                acked_ips=len(acked),
                unique_slash24=distinct_slash24s(ips),
                acked_slash24=distinct_slash24s(acked),
                packets=entry["packets"],
            )
        )
    rows.sort(key=lambda r: r.unique_ips, reverse=True)
    top = rows[:top_n]

    all_ips = len(sources)
    all_slash24 = distinct_slash24s(sources)
    top_ips = sum(r.unique_ips for r in top)
    top_slash24 = sum(r.unique_slash24 for r in top)
    top_packets = sum(r.packets for r in top)
    totals = {
        "ips": (top_ips, top_ips / all_ips if all_ips else 0.0),
        "slash24": (top_slash24, top_slash24 / all_slash24 if all_slash24 else 0.0),
        "packets": (
            top_packets,
            top_packets / total_ah_packets if total_ah_packets else 0.0,
        ),
    }
    return top, totals


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PortRow:
    """One service of the Figure 4 ranking."""

    port: int
    proto: int
    packets: int
    zmap_packets: int
    masscan_packets: int
    other_packets: int

    @property
    def protocol(self) -> Protocol:
        """The row's protocol as an enum."""
        return Protocol(self.proto)


def top_ports(
    capture: DarknetCapture,
    ah_sources: Iterable[int],
    top_n: int = 25,
) -> list:
    """Figure 4: top services targeted by AH with tool fingerprints."""
    rows = capture.rows_from(set(ah_sources))
    packets = capture.packets
    dport = packets.dport[rows]
    if len(dport) == 0:
        return []
    # One sort of packed (port·proto, tool) words: tool codes take the
    # low two bits, so runs of one service are adjacent.
    words = (dport.astype(np.uint32) << np.uint32(10)) | (
        packets.proto[rows].astype(np.uint32) << np.uint32(2)
    )
    words |= classify_columns(packets.ipid[rows], packets.dst[rows], dport)
    words, counts = distinct_counts(words)
    service = words >> np.uint32(2)
    first = run_starts(service)
    per_tool = np.zeros((int(first.sum()), len(Tool)), dtype=np.int64)
    per_tool[np.cumsum(first) - 1, words & np.uint32(3)] = counts
    service = service[first]
    totals = per_tool.sum(axis=1)
    ranked = np.argsort(-totals, kind="stable")[:top_n]
    return [
        PortRow(
            port=int(service[i]) >> 8,
            proto=int(service[i]) & 0xFF,
            packets=int(totals[i]),
            zmap_packets=int(per_tool[i, Tool.ZMAP]),
            masscan_packets=int(per_tool[i, Tool.MASSCAN]),
            other_packets=int(per_tool[i, Tool.OTHER]),
        )
        for i in ranked
    ]


def port_overlap(rows_a: Sequence[PortRow], rows_b: Sequence[PortRow]) -> int:
    """How many services two rankings share (the paper: 20 of top 25)."""
    keys_a = {(r.port, r.proto) for r in rows_a}
    keys_b = {(r.port, r.proto) for r in rows_b}
    return len(keys_a & keys_b)


# ----------------------------------------------------------------------
def zipf_contribution(
    capture: DarknetCapture,
    ah_sources: Iterable[int],
) -> np.ndarray:
    """Figure 6 (right): cumulative AH traffic share by ranked source.

    Returns the cumulative fraction array ``c`` where ``c[k-1]`` is the
    share of all AH packets contributed by the top-k sources.
    """
    _, counts = capture.source_packets(ah_sources)
    if len(counts) == 0:
        return np.empty(0, dtype=np.float64)
    counts = np.sort(counts)[::-1].astype(np.float64)
    return np.cumsum(counts) / counts.sum()


def top_fraction_share(cumulative: np.ndarray, top_fraction: float) -> float:
    """Share contributed by the top ``top_fraction`` of ranked sources.

    The paper: the top 1% of AH contribute more than 25% of AH traffic
    on a typical day.
    """
    if len(cumulative) == 0:
        return 0.0
    if not 0 < top_fraction <= 1:
        raise ValueError("top_fraction must be in (0, 1]")
    k = max(int(np.ceil(top_fraction * len(cumulative))), 1)
    return float(cumulative[k - 1])
