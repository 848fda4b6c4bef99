"""Darknet events — the "logical scans" of the paper's §2.

A darknet event summarizes the activity of one source IP toward one
destination port and traffic type.  An event ends when the source has
been silent on that (port, type) pair for longer than a timeout derived
from the telescope's aperture (about 10 minutes for ORION; the rule is
in :func:`repro.config.event_timeout_seconds`).  For every event we
record start/end timestamps, total packets and the number of unique
dark destinations contacted — the raw material for all three
aggressive-hitter definitions.

The builder is fully vectorized: packets are put in (flow key,
timestamp) order by the packed-key kernels of :mod:`repro.sortkeys`,
event boundaries are gap/key transitions, and per-event
unique-destination counts come from one sort of packed
``event << 32 | dst`` words — so multi-million-packet captures build in
seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.packet import PacketBatch, SCANNING_PROTOCOLS
from repro.sortkeys import order_by_flow, order_by_time, run_starts

#: per protocol code: whether the paper counts it as a scanning packet.
_SCANNING = np.zeros(256, dtype=bool)
_SCANNING[[p.value for p in SCANNING_PROTOCOLS]] = True


@dataclass
class EventTable:
    """Column-oriented darknet events.

    Columns (aligned arrays):
        src: source address (uint32).
        dport: destination port (uint16).
        proto: protocol code (uint8).
        start / end: first and last packet timestamps (float64).
        packets: total packets in the event (int64).
        unique_dsts: distinct dark destinations contacted (int64).
    """

    src: np.ndarray
    dport: np.ndarray
    proto: np.ndarray
    start: np.ndarray
    end: np.ndarray
    packets: np.ndarray
    unique_dsts: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.src)
        for column in (
            self.dport,
            self.proto,
            self.start,
            self.end,
            self.packets,
            self.unique_dsts,
        ):
            if len(column) != n:
                raise ValueError("EventTable columns must share one length")

    def __len__(self) -> int:
        return len(self.src)

    @classmethod
    def empty(cls) -> "EventTable":
        """A table with zero events."""
        return cls(
            src=np.empty(0, dtype=np.uint32),
            dport=np.empty(0, dtype=np.uint16),
            proto=np.empty(0, dtype=np.uint8),
            start=np.empty(0, dtype=np.float64),
            end=np.empty(0, dtype=np.float64),
            packets=np.empty(0, dtype=np.int64),
            unique_dsts=np.empty(0, dtype=np.int64),
        )

    @classmethod
    def concat(cls, tables: Sequence["EventTable"]) -> "EventTable":
        """Concatenate tables (row order preserved, no sorting)."""
        tables = [t for t in tables if len(t)]
        if not tables:
            return cls.empty()
        if len(tables) == 1:
            return tables[0]
        return cls(
            src=np.concatenate([t.src for t in tables]),
            dport=np.concatenate([t.dport for t in tables]),
            proto=np.concatenate([t.proto for t in tables]),
            start=np.concatenate([t.start for t in tables]),
            end=np.concatenate([t.end for t in tables]),
            packets=np.concatenate([t.packets for t in tables]),
            unique_dsts=np.concatenate([t.unique_dsts for t in tables]),
        )

    def sorted_canonical(self) -> "EventTable":
        """Rows ordered by (src, dport, proto, start).

        This is exactly the order :func:`build_events` emits (its flow
        key preserves the (src, dport, proto) lexicographic order), so a
        canonically sorted streaming table compares array-equal to the
        batch builder's output.
        """
        order = np.lexsort((self.start, self.proto, self.dport, self.src))
        return self.select(order)

    def select(self, mask: np.ndarray) -> "EventTable":
        """Row subset."""
        return EventTable(
            src=self.src[mask],
            dport=self.dport[mask],
            proto=self.proto[mask],
            start=self.start[mask],
            end=self.end[mask],
            packets=self.packets[mask],
            unique_dsts=self.unique_dsts[mask],
        )

    # ------------------------------------------------------------------
    def start_day(self, day_seconds: float) -> np.ndarray:
        """Day index in which each event began."""
        return np.floor(self.start / day_seconds).astype(np.int64)

    def sources_of(self, mask: Optional[np.ndarray] = None) -> set:
        """Distinct sources of (a subset of) events."""
        src = self.src if mask is None else self.src[mask]
        return {int(a) for a in np.unique(src)}

    def events_for(self, sources) -> "EventTable":
        """Events whose source is in the given set."""
        wanted = np.asarray(sorted(int(a) for a in sources), dtype=np.uint32)
        if len(wanted) == 0:
            return self.select(np.zeros(len(self), dtype=bool))
        return self.select(np.isin(self.src, wanted))

    def _expand_event_days(self, day_seconds: float) -> tuple:
        """One row per (event, overlapped day).

        Returns ``(event_index, day)`` arrays; an event spanning k days
        contributes k rows.  Fully vectorized — the expansion is the
        inner loop of both Definition 3 and the daily activity sets.
        """
        first = np.floor(self.start / day_seconds).astype(np.int64)
        last = np.floor(
            np.maximum(self.end - 1e-9, self.start) / day_seconds
        ).astype(np.int64)
        spans = last - first + 1
        total = int(spans.sum())
        event_index = np.repeat(np.arange(len(self), dtype=np.int64), spans)
        # Per-row offset within its event's day span.
        starts = np.concatenate([[0], np.cumsum(spans)[:-1]])
        offsets = np.arange(total, dtype=np.int64) - np.repeat(starts, spans)
        day = np.repeat(first, spans) + offsets
        return event_index, day

    def daily_port_triples(self, day_seconds: float) -> tuple:
        """Unique (src, day, port·proto) triples over the day expansion.

        An event contributes its (port, proto) pair to every day it
        overlaps.  Returns three aligned arrays ``(src, day, port_proto)``
        sorted lexicographically with duplicates removed — the raw
        material of Definition 3, in a form the streaming detector can
        merge across chunks (set union of triples is associative).
        """
        if len(self) == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        event_index, day = self._expand_event_days(day_seconds)
        src = self.src.astype(np.int64)[event_index]
        port_proto = (
            (self.dport.astype(np.int64) << 8) | self.proto.astype(np.int64)
        )[event_index]
        order = np.lexsort((port_proto, day, src))
        src, day, port_proto = src[order], day[order], port_proto[order]
        first = np.empty(len(src), dtype=bool)
        first[0] = True
        first[1:] = (
            (src[1:] != src[:-1])
            | (day[1:] != day[:-1])
            | (port_proto[1:] != port_proto[:-1])
        )
        return src[first], day[first], port_proto[first]

    def daily_port_counts(self, day_seconds: float) -> dict:
        """Distinct (port, proto) pairs contacted per (src, day).

        Approximates the per-day distinct-port measure of Definition 3
        at event granularity: an event contributes its port to every day
        it overlaps.  Returns ``{(src, day): port_count}``.
        """
        return port_counts_from_triples(*self.daily_port_triples(day_seconds))

    def validate_invariants(self) -> None:
        """Raise when structural invariants are violated."""
        if np.any(self.end < self.start):
            raise ValueError("event end precedes start")
        if np.any(self.packets < 1):
            raise ValueError("event with no packets")
        if np.any(self.unique_dsts < 1):
            raise ValueError("event with no destinations")
        if np.any(self.unique_dsts > self.packets):
            raise ValueError("more unique destinations than packets")


def port_counts_from_triples(
    src: np.ndarray, day: np.ndarray, port_proto: np.ndarray
) -> dict:
    """Group (src, day, port·proto) triples into per-(src, day)
    distinct-port counts, ``{(src, day): count}``.

    Duplicate triples are tolerated and counted once — the streaming
    detector hands in a concatenation of per-chunk runs, where a flow
    active in several chunks repeats its triple.
    """
    if len(src) == 0:
        return {}
    order = np.lexsort((port_proto, day, src))
    src, day, port_proto = src[order], day[order], port_proto[order]
    fresh = np.empty(len(src), dtype=bool)
    fresh[0] = True
    fresh[1:] = (
        (src[1:] != src[:-1])
        | (day[1:] != day[:-1])
        | (port_proto[1:] != port_proto[:-1])
    )
    src, day = src[fresh], day[fresh]
    boundary = np.empty(len(src), dtype=bool)
    boundary[0] = True
    boundary[1:] = (src[1:] != src[:-1]) | (day[1:] != day[:-1])
    starts = np.flatnonzero(boundary)
    counts = np.diff(np.concatenate([starts, [len(src)]]))
    return {
        (int(src[i]), int(day[i])): int(c) for i, c in zip(starts, counts)
    }


def segment_events(batch: PacketBatch, timeout: float) -> tuple:
    """Cut a batch's scanning packets into events.

    Returns ``(events, keys, dsts)``: the :class:`EventTable` ordered by
    (flow key, start time), each event's composite
    ``src << 24 | dport << 8 | proto`` flow key (uint64), and every
    event's distinct destinations, event after event, ascending within
    one (uint32; ``events.unique_dsts`` are the run lengths).

    Only the paper's three scanning packet types form events; DDoS
    backscatter (SYN-ACK / RST toward spoofed victims) also reaches the
    telescope but must never contribute to scanner detection, so its
    rows are dropped from the sort permutation — the first of the
    paper's false-positive guards.  Rows need not be time-sorted; NaN or
    infinite timestamps raise ``ValueError``.
    """
    ts = batch.ts
    if not bool(np.isfinite(ts).all()):
        raise ValueError("packet timestamps must be finite")
    port_proto = (batch.dport.astype(np.uint32) << np.uint32(8)) | batch.proto
    if bool((ts[1:] >= ts[:-1]).all()):
        # Time-sorted rows: the row index is the timestamp tie-break.
        order = order_by_flow(batch.src, port_proto)
    else:
        by_time = order_by_time(ts)
        order = by_time[order_by_flow(batch.src[by_time], port_proto[by_time])]
        del by_time
    keep = _SCANNING[batch.proto]
    if not bool(keep.all()):
        order = order[keep[order]]
    n = len(order)
    if n == 0:
        return (
            EventTable.empty(),
            np.empty(0, dtype=np.uint64),
            np.empty(0, dtype=np.uint32),
        )

    keys = batch.src[order].astype(np.uint64)
    keys <<= np.uint64(24)
    keys |= port_proto[order]
    ts = ts[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    starts[1:] |= (ts[1:] - ts[:-1]) > timeout
    start_idx = np.flatnonzero(starts)
    end_idx = np.append(start_idx[1:], n) - 1
    n_events = len(start_idx)
    keys = keys[start_idx]

    # Distinct (event, dst) pairs: one sort of ``event << 32 | dst``.
    pairs = np.cumsum(starts, dtype=np.int64).view(np.uint64)
    del starts
    pairs -= np.uint64(1)
    pairs <<= np.uint64(32)
    pairs |= batch.dst[order]
    del order
    pairs.sort()
    pairs = pairs[run_starts(pairs)]
    unique_dsts = np.bincount(
        (pairs >> np.uint64(32)).view(np.int64), minlength=n_events
    )
    events = EventTable(
        src=(keys >> np.uint64(24)).astype(np.uint32),
        dport=(keys >> np.uint64(8)).astype(np.uint16),
        proto=keys.astype(np.uint8),
        start=ts[start_idx],
        end=ts[end_idx],
        packets=np.diff(start_idx, append=n),
        unique_dsts=unique_dsts,
    )
    return events, keys, pairs.astype(np.uint32)


def build_events(batch: PacketBatch, timeout: float) -> EventTable:
    """Aggregate a packet capture into darknet events.

    Args:
        batch: darknet packets (any order; sorted internally).
        timeout: silence gap, in seconds, that expires an event.

    Returns:
        The :class:`EventTable`, ordered by (flow key, start time).
    """
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    return segment_events(batch, timeout)[0]
