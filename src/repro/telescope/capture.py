"""Captured darknet traffic and its summary statistics.

The capture is the raw material every analysis starts from: the event
builder consumes it to form logical scans, and the characterization
modules compute port rankings and fingerprints straight from it.
Every source-set question (packets from a set, its rows, per-source
volumes) is answered from one cached per-source index, not by a
membership pass over the whole capture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.packet import PacketBatch
from repro.sortkeys import distinct_inverse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telescope.darknet import Telescope


@dataclass
class DarknetCapture:
    """Time-sorted packets recorded by a telescope."""

    packets: PacketBatch
    telescope: "Telescope"
    _index: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.packets) > 1 and not bool(
            np.all(np.diff(self.packets.ts) >= 0)
        ):
            self.packets = self.packets.sorted_by_time()

    def __len__(self) -> int:
        return len(self.packets)

    # ------------------------------------------------------------------
    def day_slice(self, day: int, day_seconds: float) -> PacketBatch:
        """Packets of one simulated day (binary search on sorted ts)."""
        lo = float(day * day_seconds)
        hi = float((day + 1) * day_seconds)
        i0 = int(np.searchsorted(self.packets.ts, lo, side="left"))
        i1 = int(np.searchsorted(self.packets.ts, hi, side="left"))
        return self.packets.select(slice(i0, i1))

    def source_index(self) -> tuple:
        """``(sources, counts, inverse)`` of the capture's source column.

        Sorted distinct sources, packets per source, and each packet's
        position in ``sources`` (int32) — one packed-key sort
        (:func:`repro.sortkeys.distinct_inverse`), built on first use.
        Capture packets are immutable after :meth:`Telescope.capture`;
        the index is cached against the batch it was built from, so
        assigning a new ``packets`` batch rebuilds it.
        """
        if self._index is None or self._index[0] is not self.packets:
            uniq, inverse, counts = distinct_inverse(self.packets.src)
            self._index = (self.packets, (uniq, counts, inverse.astype(np.int32)))
        return self._index[1]

    def _hits(self, sources) -> np.ndarray:
        """Mask over the index's sources: those in ``sources``."""
        uniq = self.source_index()[0]
        wanted = np.fromiter((int(a) for a in sources), dtype=np.uint32)
        pos = np.searchsorted(uniq, wanted)
        found = pos < len(uniq)
        found[found] = uniq[pos[found]] == wanted[found]
        hits = np.zeros(len(uniq), dtype=bool)
        hits[pos[found]] = True  # a repeated address sets one flag
        return hits

    def source_count(self) -> int:
        """Number of distinct source IPs observed."""
        return len(self.source_index()[0])

    def destination_count(self) -> int:
        """Number of distinct dark IPs contacted."""
        return len(self.packets.unique_destinations())

    def source_packets(self, sources) -> tuple:
        """``(sources, packets)``: the set's sorted distinct sources seen
        in the capture and the packets each sent."""
        uniq, counts, _ = self.source_index()
        hits = self._hits(sources)
        return uniq[hits], counts[hits]

    def packets_from(self, sources) -> int:
        """Total packets originating from the given source set."""
        return int(self.source_packets(sources)[1].sum())

    def rows_from(self, sources) -> np.ndarray:
        """Mask over the capture's packets: those from the source set."""
        return self._hits(sources)[self.source_index()[2]]

    def select_sources(self, sources) -> PacketBatch:
        """Packets originating from the given source set, in time order."""
        return self.packets.select(self.rows_from(sources))

    def summary(self) -> dict:
        """Table-1-style dataset description."""
        return {
            "packets": len(self.packets),
            "source_ips": self.source_count(),
            "dest_ips": self.destination_count(),
            "dark_size": self.telescope.size,
        }
