"""IPv6 telescope and aggressive-hitter detection.

An IPv6 telescope cannot announce "all unused space"; it observes the
probes sent to *stale hitlist entries* — addresses that were once
responsive but whose prefixes have since gone dark.  Captured probes
are converted into the v4 pipeline's :class:`~repro.packet.PacketBatch`
via 32-bit address interning, so the event builder, the ECDF machinery
and the detection definitions are reused unchanged.

Definition 1 adapts naturally: instead of "10% of the dark IPv4 space",
a source is aggressive when one of its events covers 10% of the *dark
hitlist entries* — the only enumerable notion of coverage in IPv6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.config import DetectionConfig
from repro.core.detection import DetectionResult, detect_all
from repro.core.events import EventTable, build_events
from repro.ipv6.hitlist import Hitlist
from repro.ipv6.scanner import Ipv6Scanner
from repro.packet import PacketBatch


class AddressInterner:
    """Bijective mapping from 128-bit addresses to dense 32-bit ids."""

    def __init__(self) -> None:
        self._forward: Dict[int, int] = {}
        self._reverse: list = []

    def intern(self, address: int) -> int:
        """Return the id for an address, assigning one if new."""
        address = int(address)
        existing = self._forward.get(address)
        if existing is not None:
            return existing
        new_id = len(self._reverse)
        if new_id >= 2**32:
            raise OverflowError("interner exhausted the 32-bit id space")
        self._forward[address] = new_id
        self._reverse.append(address)
        return new_id

    def resolve(self, interned: int) -> int:
        """Original address for an id."""
        return self._reverse[int(interned)]

    def __len__(self) -> int:
        return len(self._reverse)


@dataclass
class Ipv6Capture:
    """Probes observed at the dark hitlist entries, in v4-pipeline form."""

    packets: PacketBatch
    sources: AddressInterner
    targets: AddressInterner


@dataclass
class Ipv6Telescope:
    """Observes traffic to the hitlist's dark entries."""

    hitlist: Hitlist

    @property
    def dark_size(self) -> int:
        """Observable (dark) hitlist entry count."""
        return self.hitlist.dark_size

    def capture(self, scanners: Sequence[Ipv6Scanner]) -> Ipv6Capture:
        """Collect the scanners' probes landing on dark entries."""
        sources = AddressInterner()
        targets = AddressInterner()
        dark = self.hitlist.dark
        ts: list = []
        src: list = []
        dst: list = []
        dport: list = []
        proto: list = []
        for scanner in scanners:
            for probe in scanner.emit(self.hitlist):
                if not dark[probe.target_index]:
                    continue
                ts.append(probe.ts)
                src.append(sources.intern(probe.src))
                dst.append(targets.intern(self.hitlist.addresses[probe.target_index]))
                dport.append(probe.dport)
                proto.append(probe.proto.value)
        n = len(ts)
        batch = PacketBatch(
            ts=np.array(ts, dtype=np.float64),
            src=np.array(src, dtype=np.uint32),
            dst=np.array(dst, dtype=np.uint32),
            dport=np.array(dport, dtype=np.uint16),
            proto=np.array(proto, dtype=np.uint8),
            ipid=np.zeros(n, dtype=np.uint16),
        ).sorted_by_time()
        return Ipv6Capture(packets=batch, sources=sources, targets=targets)


@dataclass
class Ipv6Detection:
    """Detection output translated back to IPv6 addresses."""

    results: Dict[int, DetectionResult]
    capture: Ipv6Capture
    events: EventTable

    def hitters(self, definition: int = 1) -> set:
        """AH source addresses (128-bit ints) for one definition."""
        return {
            self.capture.sources.resolve(i)
            for i in self.results[definition].sources
        }


def detect_ipv6_hitters(
    telescope: Ipv6Telescope,
    scanners: Sequence[Ipv6Scanner],
    *,
    timeout: float = 3_600.0,
    config: Optional[DetectionConfig] = None,
    day_seconds: float = 86_400.0,
) -> Ipv6Detection:
    """End-to-end IPv6 AH detection.

    Args:
        telescope: the dark-hitlist observer.
        scanners: the IPv6 scanner population.
        timeout: event expiration (hitlist probing is sparse, so the
            default is a flat hour rather than the v4 aperture rule).
        config: detection thresholds (scaled alpha recommended).
        day_seconds: day length for the daily breakdowns.

    Returns:
        The capture, events and per-definition results.
    """
    capture = telescope.capture(scanners)
    events = build_events(capture.packets, timeout)
    results = detect_all(
        events,
        telescope.dark_size,
        config or DetectionConfig(alpha=5e-3),
        day_seconds,
    )
    return Ipv6Detection(results=results, capture=capture, events=events)
