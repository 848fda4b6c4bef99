"""The unit of the streaming pipeline: one window of captured packets.

A real telescope does not hand the analysis a year of packets at once —
capture arrives as hourly pcaps (ORION rotates files on the hour) or as
bounded batches off a queue.  A :class:`CaptureChunk` is one such
window.  Chunks come from a packet source
(:mod:`repro.parallel`): generated window by window from the scanner
population (:func:`repro.scanners.lazy.emit_chunks`) or read one archive
at a time from a digest-checked chunk directory
(:class:`repro.parallel.DirectorySource`).  Downstream, each chunk
feeds :class:`repro.core.streaming.StreamingDetector`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.packet import PacketBatch


@dataclass(frozen=True)
class CaptureChunk:
    """One time window of captured packets."""

    index: int
    #: half-open window [start, end) in capture time.
    start: float
    end: float
    packets: PacketBatch

    def __len__(self) -> int:
        return len(self.packets)
