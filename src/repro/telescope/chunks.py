"""Chunked capture sources for the streaming pipeline.

A real telescope does not hand the analysis a year of packets at once —
capture arrives as hourly pcaps (ORION rotates files on the hour) or as
bounded batches off a queue.  ``ChunkedCaptureSource`` models that
boundary: it yields :class:`CaptureChunk` windows in time order, either
by slicing an in-memory capture (simulation runs) or by loading one
archive at a time from a chunk directory written by
:func:`repro.io.packetlog.save_packets_chunked` (replay runs, bounded
memory end to end).

Downstream, each chunk feeds
:class:`repro.core.streaming.StreamingDetector` — the source is the
first stage of the streaming pipeline and the only one that ever sees
raw packets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

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


class ChunkedCaptureSource:
    """Yields a capture as time-ordered :class:`CaptureChunk` windows.

    Construct with :meth:`from_capture` (slice an in-memory capture
    into epoch-aligned windows) or :meth:`from_directory` (stream
    archives written by ``save_packets_chunked`` one file at a time).
    Iterating yields only non-empty chunks; quiet windows are skipped
    but window edges stay calendar-aligned.
    """

    def __init__(self, chunks: Iterator[CaptureChunk], chunk_seconds: float):
        if chunk_seconds <= 0:
            raise ValueError("chunk_seconds must be positive")
        self._chunks = chunks
        self._consumed = False
        self.chunk_seconds = float(chunk_seconds)

    def __iter__(self) -> Iterator[CaptureChunk]:
        """Start the single pass over the chunks.

        Sources are generator-backed and strictly single-pass: a second
        iteration would silently yield nothing, so it raises instead.
        Construct a fresh source to replay a capture.
        """
        if self._consumed:
            raise RuntimeError(
                "ChunkedCaptureSource is single-pass and has already been "
                "iterated; construct a new source to read the capture again"
            )
        self._consumed = True
        return self._chunks

    # ------------------------------------------------------------------
    @classmethod
    def from_capture(
        cls, capture, chunk_seconds: float
    ) -> "ChunkedCaptureSource":
        """Chunk an in-memory capture (or bare :class:`PacketBatch`).

        Windows are epoch-aligned (``floor(first_ts / chunk_seconds)``
        starts the grid), matching how hourly pcap rotation would cut
        the same traffic.
        """
        batch = getattr(capture, "packets", capture)

        def generate() -> Iterator[CaptureChunk]:
            index = 0
            for start, end, chunk in batch.iter_time_chunks(
                chunk_seconds, align_to_epoch=True
            ):
                if len(chunk) == 0:
                    continue
                yield CaptureChunk(
                    index=index, start=start, end=end, packets=chunk
                )
                index += 1

        return cls(generate(), chunk_seconds)

    @classmethod
    def from_directory(
        cls, directory: Union[str, Path], chunk_seconds: float
    ) -> "ChunkedCaptureSource":
        """Stream a chunk directory written by ``save_packets_chunked``.

        Loads one archive at a time, digest-checked against the
        directory's manifest (:func:`~repro.io.packetlog.iter_packets_verified`):
        a damaged archive raises
        :class:`~repro.core.faults.ChunkCorruptionError` when the stream
        reaches it.  Window edges are derived from each chunk's own
        timestamps on the epoch-aligned grid.  The directory is
        validated up front — a missing directory, an empty one, a gap in
        the ``chunk-*.npz`` sequence, or a missing or damaged manifest
        raise immediately with a clear message instead of surfacing
        mid-stream.
        """
        from repro.io.packetlog import (
            chunk_paths,
            iter_packets_verified,
            load_manifest,
        )

        if chunk_seconds <= 0:
            raise ValueError("chunk_seconds must be positive")
        chunk_paths(directory)
        load_manifest(directory)

        def generate() -> Iterator[CaptureChunk]:
            for index, (_, batch) in enumerate(
                iter_packets_verified(directory)
            ):
                first = float(batch.ts.min())
                start = math.floor(first / chunk_seconds) * chunk_seconds
                yield CaptureChunk(
                    index=index,
                    start=start,
                    end=start + chunk_seconds,
                    packets=batch,
                )

        return cls(generate(), chunk_seconds)


class LazyCaptureSource(ChunkedCaptureSource):
    """A chunked source that *generates* its capture window by window.

    Instead of slicing a materialized capture, each chunk is emitted on
    demand by :class:`repro.scanners.lazy.PopulationEmitter`: only the
    scanners with sessions overlapping the window do any work, and the
    sequence of chunks is bit-identical to
    ``from_capture(telescope.capture(scanners, window), chunk_seconds)``
    — same windows, same indices, same packets — without ever holding
    more than ~one window (plus open generation spans) in memory.
    """

    @classmethod
    def from_population(
        cls,
        scanners,
        view,
        chunk_seconds: float,
        window=None,
    ) -> "LazyCaptureSource":
        """Lazily chunk the capture ``scanners`` send into ``view``.

        Args:
            scanners: population in emission order (the order is part of
                the equal-timestamp tie-breaking contract).
            view: monitored address region.
            chunk_seconds: window length, epoch-aligned.
            window: optional overall [start, end) clip (the scenario
                window in simulation runs).
        """
        from repro.scanners.lazy import PopulationEmitter

        emitter = PopulationEmitter(
            scanners, view, chunk_seconds, window=window
        )

        def generate() -> Iterator[CaptureChunk]:
            index = 0
            for start, end, batch in emitter:
                if len(batch) == 0:
                    continue
                yield CaptureChunk(
                    index=index, start=start, end=end, packets=batch
                )
                index += 1

        source = cls(generate(), chunk_seconds)
        source._emitter = emitter
        return source

    @property
    def spans_derived(self) -> int:
        """RNG span streams the emitter has keyed so far (pre-dedup).

        Telemetry for the batched span derivation: read after the
        source is drained for the shard total.  Always >=
        :attr:`spans_emitted`.
        """
        return self._emitter.spans_derived

    @property
    def spans_emitted(self) -> int:
        """Derived spans that actually produced packets."""
        return self._emitter.spans_emitted
