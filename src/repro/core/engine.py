"""The long-lived detection engine behind every run path.

``DetectionEngine`` owns what used to live inline in
:func:`repro.sim.runner.run_scenario`'s streaming loop and the
:mod:`repro.parallel` drivers' merge step: a pool of source-sharded
:class:`~repro.core.streaming.StreamingDetector`\\ s, chunk routing into
that pool, checkpoint/snapshot scheduling, and the telemetry/RunHealth
accounting around them.  The batch drivers construct one, feed it, and
finish it — and the always-on service layer (:mod:`repro.serve`) keeps
one alive per tenant indefinitely, querying and snapshotting it while
chunks keep arriving.

The engine never changes *what* is computed: for any worker count and
any chunking, ``finish()`` emits the same event table and AH sets as
``detect_all(build_events(capture))`` over the concatenated capture
(pinned by golden and property tests).  Its additions are lifecycle
ones:

* ``ingest(chunk)`` — shard a chunk by source address and fold it in.
* ``query()`` — detections *now*, from merged read-only views of the
  shard states; the live state keeps accepting chunks afterwards.
* ``snapshot()`` / ``restore()`` — a versioned, digest-friendly byte
  serialization of the whole engine, scheduled periodically through a
  :class:`~repro.core.faults.CheckpointStore` so a killed process can
  resume from the last snapshot.
"""

from __future__ import annotations

import math
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import DetectionConfig
from repro.core.detection import DetectionResult
from repro.core.events import EventTable
from repro.core.faults import CheckpointStore
from repro.core.streaming import ChunkReport, StreamingDetector
from repro.core.telemetry import PipelineTelemetry
from repro.io.packetlog import packets_from_npz_bytes
from repro.io.shm import resolve_batch, share_batches, want_shared_memory
from repro.packet import PacketBatch

#: Versioned header for engine snapshots.  Bump on any change to the
#: payload layout; ``restore`` refuses a mismatched header so a stale
#: snapshot is discarded (and the tenant re-fed), never half-loaded.
ENGINE_STATE_MAGIC = b"repro-engine-state-v2\n"

#: Checkpoint kind under which engine snapshots are stored.
ENGINE_CKPT_KIND = "engine"


@dataclass(frozen=True)
class IngestReport:
    """What one (possibly coalesced) ingest call folded in.

    The micro-batch analogue of
    :class:`~repro.core.streaming.ChunkReport`: one report per
    :meth:`DetectionEngine.ingest_payloads` call, covering every wire
    chunk it coalesced.  ``chunks`` counts the chunks actually folded;
    chunks that failed to decode (or arrived out of order) are dropped
    individually and surface in ``errors`` without poisoning the rest
    of the fold — matching what per-chunk ingestion would have rejected.
    """

    packets: int
    events_finalized: int
    open_flows: int
    watermark: Optional[float]
    chunks: int
    errors: Tuple[str, ...]
    seconds: float


@dataclass
class _ShardGauge:
    """Parent-side mirror of one pooled shard's cumulative gauges.

    While a :class:`~repro.serve.foldpool.FoldPool` is attached the
    live detector state lives in the worker processes; each
    :class:`~repro.serve.foldpool.FoldReply` refreshes this mirror so
    the engine's gauge properties stay O(1) — no pipe round-trip.
    """

    packets_seen: int = 0
    events_finalized: int = 0
    open_flows: int = 0
    peak_open_flows: int = 0
    watermark: Optional[float] = field(default=None)


@dataclass(frozen=True)
class EngineQuery:
    """One consistent answer from the merged shard state."""

    #: per-definition detections over everything ingested so far.
    detections: Dict[int, DetectionResult]
    #: events in the (hypothetical) final table if the stream ended now.
    events: int
    #: packets folded in so far.
    packets: int
    #: events finalized by the live builders (flows already timed out).
    events_finalized: int
    #: flows still open across all shards.
    open_flows: int
    #: newest packet timestamp folded in, across shards.
    watermark: Optional[float]
    #: chunks ingested so far.
    chunks: int
    #: True once any volume ECDF was compacted past its sample budget
    #: (Definition 2 thresholds are approximate from then on).
    degraded: bool

    def ah_sources(self, definition: int = 1) -> set:
        """The current AH set for one definition."""
        return self.detections[definition].sources


def gate_time_order(
    batches: Sequence[PacketBatch],
    watermark: Optional[float],
    errors: List[str],
) -> List[PacketBatch]:
    """Drop batches per-chunk ingestion would reject as out of order.

    Coalescing folds several wire chunks as one concatenated batch, so
    the per-chunk ordering check the streaming builder performs
    (each chunk's first timestamp at or past the watermark) has to be
    re-applied *before* concatenation — otherwise one stale chunk would
    either poison the whole fold or, worse, silently slip into it.
    Empty batches are dropped silently; violators append a message to
    ``errors``.  Returns the batches that fold.
    """
    kept = []
    mark = -math.inf if watermark is None else watermark
    for batch in batches:
        if len(batch) == 0:
            continue
        first = float(batch.ts.min())
        if first < mark:
            errors.append(
                f"chunk out of order: first ts {first:.6f} precedes "
                f"watermark {mark:.6f}"
            )
            continue
        mark = max(mark, float(batch.ts.max()))
        kept.append(batch)
    return kept


class DetectionEngine:
    """A sharded detector pool with a service-shaped lifecycle.

    Args:
        timeout: flow idle timeout (seconds) for event building.
        dark_size: number of dark addresses the telescope observes.
        config: detection thresholds; defaults to the paper's.
        day_seconds: scenario calendar day length.
        workers: detector shards to route sources across.  Results are
            identical for any value; >1 only changes memory layout and
            (in the offline pool path) parallelism.
        telemetry: optional :class:`PipelineTelemetry` to account into;
            the engine records the detect stage, per-chunk gauges, and
            the finish-time flush/merge exactly as the pre-engine run
            paths did.
        store: optional :class:`CheckpointStore` for snapshots.
        snapshot_every_chunks: write a snapshot to ``store`` every N
            ingested chunks (``None`` disables scheduling; explicit
            :meth:`save_snapshot` calls still work).
        max_ecdf_samples: per-engine memory budget for the Definition-2
            volume ECDF.  Past it, each shard's sample degrades to that
            many evenly spaced order statistics
            (:func:`repro.core.sketch.compact_ecdf_sample`) — bounded
            memory, approximate tail thresholds, flagged via
            ``degraded``.  ``None`` keeps the exact unbounded sample.
    """

    def __init__(
        self,
        timeout: float,
        dark_size: int,
        config: Optional[DetectionConfig] = None,
        day_seconds: float = 86_400.0,
        *,
        workers: int = 1,
        telemetry: Optional[PipelineTelemetry] = None,
        store: Optional[CheckpointStore] = None,
        snapshot_every_chunks: Optional[int] = None,
        max_ecdf_samples: Optional[int] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if snapshot_every_chunks is not None and snapshot_every_chunks < 1:
            raise ValueError("snapshot_every_chunks must be >= 1")
        if max_ecdf_samples is not None and max_ecdf_samples < 2:
            raise ValueError("max_ecdf_samples must be >= 2")
        self.timeout = float(timeout)
        self.dark_size = int(dark_size)
        self.config = config or DetectionConfig()
        self.day_seconds = float(day_seconds)
        self.workers = int(workers)
        self.telemetry = telemetry
        self.store = store
        self.snapshot_every_chunks = snapshot_every_chunks
        self.max_ecdf_samples = max_ecdf_samples
        self._detectors: List[StreamingDetector] = [
            self._new_detector() for _ in range(self.workers)
        ]
        #: set only by :meth:`from_shards` — switches :meth:`finish`
        #: into the pool path's telemetry accounting.
        self._worker_reports: Optional[list] = None
        self._chunks_ingested = 0
        self._chunks_since_snapshot = 0
        #: newest journal sequence number folded in (0 = none); set by
        #: the serve layer via ``ingest_payloads(last_seq=...)`` and
        #: recorded in snapshots so boot-time journal replay knows
        #: exactly which suffix the last snapshot does *not* cover.
        self._last_seq = 0
        #: ``_last_seq`` as of the most recent persisted snapshot —
        #: journal segments at or below it are safe to truncate.
        self._snapshot_seq = 0
        self._degraded = False
        self._finished = False
        #: fold-pool attachment (serve path); while set, detector
        #: state lives in the pool's workers and ``_detectors`` is
        #: empty — ``_gauges`` mirrors the shard counters.
        self._pool = None
        self._pool_key = None
        self._gauges: List[_ShardGauge] = []
        self._shard_spec_cache = None

    def _new_detector(self) -> StreamingDetector:
        return StreamingDetector(
            self.timeout, self.dark_size, self.config, self.day_seconds
        )

    # ------------------------------------------------------------------
    # Construction from already-run shard states (the offline pool path)
    # ------------------------------------------------------------------
    @classmethod
    def from_shards(
        cls,
        shard_results: Sequence[tuple],
        telemetry: Optional[PipelineTelemetry] = None,
    ) -> "DetectionEngine":
        """Adopt ``(detector, report)`` pairs produced by a worker pool.

        The pairs must be in shard-index order (``run_sharded``
        guarantees it); :meth:`finish` then merges them in that order
        and records the pool's worker telemetry, keeping pool runs
        bit-identical to serial ones.
        """
        if not shard_results:
            raise ValueError("need at least one shard result to adopt")
        detectors = [detector for detector, _ in shard_results]
        first = detectors[0]
        engine = cls(
            first.builder.timeout,
            first.dark_size,
            first.config,
            first.day_seconds,
            workers=len(detectors),
            telemetry=telemetry,
        )
        engine._detectors = detectors
        engine._worker_reports = [report for _, report in shard_results]
        return engine

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------
    @property
    def packets_seen(self) -> int:
        if self._pool is not None:
            return sum(g.packets_seen for g in self._gauges)
        return sum(d.packets_seen for d in self._detectors)

    @property
    def events_finalized(self) -> int:
        if self._pool is not None:
            return sum(g.events_finalized for g in self._gauges)
        return sum(d.events_finalized for d in self._detectors)

    @property
    def open_flows(self) -> int:
        if self._pool is not None:
            return sum(g.open_flows for g in self._gauges)
        return sum(d.open_flows for d in self._detectors)

    @property
    def peak_open_flows(self) -> int:
        if self._pool is not None:
            return sum(g.peak_open_flows for g in self._gauges)
        return sum(d.peak_open_flows for d in self._detectors)

    @property
    def watermark(self) -> Optional[float]:
        if self._pool is not None:
            marks = [
                g.watermark for g in self._gauges if g.watermark is not None
            ]
        else:
            marks = [
                d.watermark
                for d in self._detectors
                if d.watermark is not None
            ]
        return max(marks) if marks else None

    @property
    def pooled(self) -> bool:
        """True while a fold pool owns this engine's detector state."""
        return self._pool is not None

    @property
    def chunks_ingested(self) -> int:
        return self._chunks_ingested

    @property
    def degraded(self) -> bool:
        return self._degraded

    @property
    def last_seq(self) -> int:
        """Newest journal sequence folded in (0 = none tracked)."""
        return self._last_seq

    @property
    def snapshot_seq(self) -> int:
        """Journal sequence covered by the last persisted snapshot."""
        return self._snapshot_seq

    def advance_seq(self, seq: int) -> None:
        """Record that journal records through ``seq`` are folded in.

        Monotone: a stale (lower) value never rewinds the watermark.
        Rejected chunks advance it too — a chunk the engine dropped as
        undecodable or out of order must not be replayed after a crash,
        since live ingestion already refused it.
        """
        if seq > self._last_seq:
            self._last_seq = int(seq)

    @property
    def finished(self) -> bool:
        return self._finished

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def shard_batch(self, batch) -> list:
        """Partition a batch across this engine's detector shards.

        The engine's own routing hook: one sub-batch per shard, by the
        same source hash every parallel entry point uses
        (:func:`repro.parallel.shard_of`), so an engine-fed run lands
        packets exactly where a pool run would.
        """
        from repro.parallel import shard_batch

        return shard_batch(batch, self.workers)

    # ------------------------------------------------------------------
    # Fold-pool attachment (the serve path's off-loop parallel folds)
    # ------------------------------------------------------------------
    def _shard_spec(self):
        if self._shard_spec_cache is None:
            from repro.serve.foldpool import ShardSpec

            self._shard_spec_cache = ShardSpec(
                self.timeout,
                self.dark_size,
                self.config,
                self.day_seconds,
                self.max_ecdf_samples,
            )
        return self._shard_spec_cache

    def attach_pool(self, pool, key) -> None:
        """Move this engine's detector state into a fold pool.

        ``pool`` is a :class:`~repro.serve.foldpool.FoldPool`; ``key``
        namespaces this engine's shards inside it (the serve layer uses
        the tenant id).  Each shard's serialized state is installed in
        its affine worker; from then on folds run off-process and the
        engine only mirrors the gauges.  Snapshots and ``finish`` pull
        the serialized state back over the pipe (``collect``) and
        queries pull read-only views (``views``), so their answers are
        identical to the unpooled engine's.
        """
        if self._finished:
            raise RuntimeError("cannot attach a pool to a finished engine")
        if self._pool is not None:
            raise RuntimeError("a fold pool is already attached")
        gauges = []
        for index, detector in enumerate(self._detectors):
            pool.load(
                (key, index),
                detector.to_bytes() if detector.packets_seen else None,
            )
            gauges.append(
                _ShardGauge(
                    packets_seen=detector.packets_seen,
                    events_finalized=detector.events_finalized,
                    open_flows=detector.open_flows,
                    peak_open_flows=detector.peak_open_flows,
                    watermark=detector.watermark,
                )
            )
        self._pool = pool
        self._pool_key = key
        self._gauges = gauges
        self._detectors = []

    def detach_pool(self) -> None:
        """Pull detector state back out of the pool (no-op if unpooled).

        After this the engine folds locally again; the pool forgets the
        engine's shards.
        """
        if self._pool is None:
            return
        pool, key = self._pool, self._pool_key
        blobs = [pool.collect((key, i)) for i in range(self.workers)]
        self._detectors = [
            StreamingDetector.from_bytes(blob)
            if blob is not None
            else self._new_detector()
            for blob in blobs
        ]
        self._pool = None
        self._pool_key = None
        self._gauges = []
        pool.drop(key)

    def abandon_pool(self) -> None:
        """Forget pooled state without pulling it back.

        The tenant-removal path: the state is being discarded anyway,
        so skip the collect round-trip and just clear the workers.  The
        engine is left empty (as if freshly built).
        """
        if self._pool is None:
            return
        pool, key = self._pool, self._pool_key
        self._pool = None
        self._pool_key = None
        self._gauges = []
        self._detectors = [
            self._new_detector() for _ in range(self.workers)
        ]
        pool.drop(key)

    def _apply_reply(self, index: int, reply) -> None:
        gauge = self._gauges[index]
        gauge.packets_seen = reply.packets_seen
        gauge.events_finalized = reply.events_total
        gauge.open_flows = reply.open_flows
        gauge.peak_open_flows = reply.peak_open_flows
        gauge.watermark = reply.watermark
        if reply.degraded:
            self._degraded = True

    def _fold_pooled(self, batch, errors: List[str]) -> Tuple[int, int]:
        """Fold one coalesced batch through the attached pool."""
        spec = self._shard_spec()
        lease = None
        if self.workers == 1:
            live = [0]
            requests = [
                (
                    (self._pool_key, 0),
                    spec,
                    self._gauges[0].packets_seen,
                    ("batch", batch),
                )
            ]
        else:
            subs = self.shard_batch(batch)
            live = [i for i, sub in enumerate(subs) if len(sub)]
            nbytes = sum(subs[i].nbytes for i in live)
            if want_shared_memory(self._pool.shm, True, nbytes):
                handles, lease = share_batches(
                    [subs[i] for i in live], "fold"
                )
                payloads = [("shm", handle) for handle in handles]
            else:
                payloads = [("batch", subs[i]) for i in live]
            requests = [
                (
                    (self._pool_key, i),
                    spec,
                    self._gauges[i].packets_seen,
                    payload,
                )
                for i, payload in zip(live, payloads)
            ]
        try:
            replies = self._pool.fold_many(requests)
        finally:
            if lease is not None:
                lease.close()
        packets = finalized = 0
        for index, reply in zip(live, replies):
            self._apply_reply(index, reply)
            errors.extend(reply.errors)
            packets += reply.packets
            finalized += reply.events_finalized
        return packets, finalized

    def _fold_coalesced(
        self, kept: List[PacketBatch], errors: List[str]
    ) -> Tuple[int, int]:
        """Fold already-gated batches as one concatenated pass."""
        if not kept:
            return 0, 0
        batch = kept[0] if len(kept) == 1 else PacketBatch.concat(kept)
        if self._pool is not None:
            return self._fold_pooled(batch, errors)
        packets = finalized = 0
        if self.workers == 1:
            try:
                report = self._detectors[0].add_batch(batch)
                packets = report.packets
                finalized = report.events_finalized
            except Exception as exc:  # noqa: BLE001 — surface, don't die
                errors.append(str(exc))
        else:
            for detector, sub in zip(
                self._detectors, self.shard_batch(batch)
            ):
                if len(sub) == 0:
                    continue
                try:
                    report = detector.add_batch(sub)
                    packets += report.packets
                    finalized += report.events_finalized
                except Exception as exc:  # noqa: BLE001
                    errors.append(str(exc))
        if self.max_ecdf_samples is not None:
            for detector in self._detectors:
                if detector.bound_volume_samples(self.max_ecdf_samples):
                    self._degraded = True
        return packets, finalized

    def _account_fold(
        self,
        packets: int,
        finalized: int,
        chunks: int,
        errors: List[str],
        t0: float,
        window_end: Optional[float],
    ) -> IngestReport:
        """Telemetry + chunk/snapshot bookkeeping for one fold pass."""
        seconds = time.perf_counter() - t0
        open_flows = self.open_flows
        watermark = self.watermark
        if self.telemetry is not None:
            self.telemetry.stage("detect").add(packets, finalized, seconds)
            self.telemetry.record_chunk(
                packets=packets,
                events_finalized=finalized,
                open_flows=open_flows,
                window_end=(
                    window_end
                    if window_end is not None
                    else (watermark if watermark is not None else 0.0)
                ),
                watermark=watermark,
            )
        self._chunks_ingested += chunks
        self._chunks_since_snapshot += chunks
        if (
            self.store is not None
            and self.snapshot_every_chunks is not None
            and self._chunks_since_snapshot >= self.snapshot_every_chunks
        ):
            self.save_snapshot()
        return IngestReport(
            packets=packets,
            events_finalized=finalized,
            open_flows=open_flows,
            watermark=watermark,
            chunks=chunks,
            errors=tuple(errors),
            seconds=seconds,
        )

    def ingest_payloads(
        self,
        blobs: Sequence[bytes],
        *,
        window_end: Optional[float] = None,
        last_seq: Optional[int] = None,
    ) -> IngestReport:
        """Decode and fold a micro-batch of npz wire chunks in one pass.

        The serve layer's coalesced entry point: ``blobs`` are raw npz
        payloads in arrival order.  Undecodable or out-of-order chunks
        are dropped individually — each contributes an error string and
        is excluded from the ``chunks`` count, exactly as per-chunk
        ingestion would have rejected it — while the rest concatenate
        into one fold, amortizing decode and the builder's lexsort.
        With a single-shard engine attached to a fold pool, the raw
        bytes ship to the shard's worker and decode entirely
        off-process; sharded pooled engines decode here, split by
        source, and hand sub-batches over (through shared memory once
        past the auto threshold).

        Cumulative results are identical to folding the same chunks one
        at a time: streaming event building is chunking-invariant.
        """
        if self._finished:
            raise RuntimeError("engine already finished")
        t0 = time.perf_counter()
        errors: List[str] = []
        if self._pool is not None and self.workers == 1:
            reply = self._pool.fold_many(
                [
                    (
                        (self._pool_key, 0),
                        self._shard_spec(),
                        self._gauges[0].packets_seen,
                        ("npz", list(blobs)),
                    )
                ]
            )[0]
            self._apply_reply(0, reply)
            errors.extend(reply.errors)
            packets, finalized = reply.packets, reply.events_finalized
        else:
            batches = []
            for blob in blobs:
                try:
                    batches.append(
                        packets_from_npz_bytes(blob, label="chunk")
                    )
                except Exception as exc:  # noqa: BLE001 — isolate chunk
                    errors.append(str(exc))
            kept = gate_time_order(batches, self.watermark, errors)
            packets, finalized = self._fold_coalesced(kept, errors)
        chunks = max(0, len(blobs) - len(errors))
        if last_seq is not None:
            # Advance *before* accounting so a snapshot scheduled by
            # this very fold records coverage of these chunks.
            self.advance_seq(last_seq)
        return self._account_fold(
            packets, finalized, chunks, errors, t0, window_end
        )

    def ingest(self, chunk) -> ChunkReport:
        """Fold one time-ordered capture chunk into the shard pool.

        ``chunk`` is a :class:`~repro.packet.PacketBatch` or anything
        with ``.packets`` (and optionally ``.end``, the chunk's window
        edge — used for watermark-lag accounting), e.g. the
        :class:`~repro.telescope.capture.CaptureChunk` objects that
        :meth:`Telescope.stream` yields.  A
        :class:`~repro.io.shm.ShmBatch` handle (bare or under
        ``.packets``) is resolved to read-only views of its
        shared-memory segment — the zero-copy ingest path; the handle's
        segment must stay leased by its producer until this call
        returns.
        """
        if self._finished:
            raise RuntimeError("engine already finished")
        batch = resolve_batch(getattr(chunk, "packets", chunk))
        if self._pool is not None:
            t0 = time.perf_counter()
            errors: List[str] = []
            kept = gate_time_order([batch], self.watermark, errors)
            packets, finalized = self._fold_coalesced(kept, errors)
            if errors:
                raise ValueError("; ".join(errors))
            report = self._account_fold(
                packets, finalized, 1, errors, t0,
                getattr(chunk, "end", None),
            )
            return ChunkReport(
                packets=report.packets,
                events_finalized=report.events_finalized,
                open_flows=report.open_flows,
                watermark=report.watermark,
            )
        t0 = time.perf_counter()
        if self.workers == 1:
            report = self._detectors[0].add_batch(batch)
            packets = report.packets
            finalized = report.events_finalized
            open_flows = report.open_flows
            watermark = report.watermark
        else:
            finalized = 0
            for detector, sub in zip(
                self._detectors, self.shard_batch(batch)
            ):
                if len(sub):
                    finalized += detector.add_batch(sub).events_finalized
            packets = len(batch)
            open_flows = self.open_flows
            watermark = self.watermark
        if self.max_ecdf_samples is not None:
            for detector in self._detectors:
                if detector.bound_volume_samples(self.max_ecdf_samples):
                    self._degraded = True
        seconds = time.perf_counter() - t0
        if self.telemetry is not None:
            self.telemetry.stage("detect").add(packets, finalized, seconds)
            window_end = getattr(chunk, "end", None)
            self.telemetry.record_chunk(
                packets=packets,
                events_finalized=finalized,
                open_flows=open_flows,
                window_end=(
                    window_end
                    if window_end is not None
                    else (watermark if watermark is not None else 0.0)
                ),
                watermark=watermark,
            )
        self._chunks_ingested += 1
        self._chunks_since_snapshot += 1
        if (
            self.store is not None
            and self.snapshot_every_chunks is not None
            and self._chunks_since_snapshot >= self.snapshot_every_chunks
        ):
            self.save_snapshot()
        return ChunkReport(
            packets=packets,
            events_finalized=finalized,
            open_flows=open_flows,
            watermark=watermark,
        )

    # ------------------------------------------------------------------
    # Query (live) and finish (terminal)
    # ------------------------------------------------------------------
    def _merged_view(self) -> StreamingDetector:
        """The shard states merged into one finish-ready detector.

        Built from each shard's :meth:`StreamingDetector.query_view`, so
        the live shards are untouched and nothing is deep-copied.  With
        a fold pool attached the views come over the worker pipes
        (``views``); a shard a worker has no state for is empty.
        """
        if self._pool is not None:
            views = [
                view if view is not None else self._new_detector()
                for view in self._pool.views(
                    [(self._pool_key, i) for i in range(self.workers)]
                )
            ]
        else:
            views = [d.query_view() for d in self._detectors]
        merged = views[0]
        for other in views[1:]:
            merged.merge(other)
        return merged

    def query(self) -> EngineQuery:
        """Detections over everything ingested so far, without ending
        the stream: open flows are flushed and thresholds derived on a
        merged *view* of the shard states, exactly as :meth:`finish`
        would — the answer equals an offline run over the traffic seen
        so far — and the live state keeps accepting chunks."""
        packets = self.packets_seen
        finalized = self.events_finalized
        open_flows = self.open_flows
        watermark = self.watermark
        events, detections = self._merged_view().finish()
        return EngineQuery(
            detections=detections,
            events=len(events),
            packets=packets,
            events_finalized=finalized,
            open_flows=open_flows,
            watermark=watermark,
            chunks=self._chunks_ingested,
            degraded=self._degraded,
        )

    def status(self) -> dict:
        """Cheap counters for health endpoints (no merge, no flush)."""
        return {
            "packets": self.packets_seen,
            "events_finalized": self.events_finalized,
            "open_flows": self.open_flows,
            "peak_open_flows": self.peak_open_flows,
            "watermark": self.watermark,
            "chunks": self._chunks_ingested,
            "workers": self.workers,
            "degraded": self._degraded,
            "finished": self._finished,
            "pooled": self._pool is not None,
            "last_seq": self._last_seq,
            "snapshot_seq": self._snapshot_seq,
        }

    def finish(self) -> Tuple[EventTable, Dict[int, DetectionResult]]:
        """Flush all shards, merge in shard order, detect once.

        Terminal: the engine accepts no further chunks.  Telemetry
        accounting reproduces the pre-engine run paths exactly — the
        pool path (``from_shards``) records worker stats and a merge
        stage; the local path records the flush into the detect stage.
        """
        if self._finished:
            raise RuntimeError("engine already finished")
        self.detach_pool()
        t0 = time.perf_counter()
        merged = self._detectors[0]
        for other in self._detectors[1:]:
            merged.merge(other)
        events, detections = merged.finish()
        merge_seconds = time.perf_counter() - t0
        self._detectors = [merged]
        self._finished = True
        telemetry = self.telemetry
        if telemetry is not None:
            if self._worker_reports is not None:
                reports = self._worker_reports
                for report in reports:
                    telemetry.record_worker(
                        shard=report.shard,
                        packets=report.packets,
                        events=report.events_finalized,
                        peak_open_flows=report.peak_open_flows,
                        seconds=report.seconds,
                        generate_seconds=report.generate_seconds,
                        spans_derived=getattr(report, "spans_derived", 0),
                        spans_emitted=getattr(report, "spans_emitted", 0),
                        planned_cost=getattr(report, "planned_cost", 0.0),
                        tasks=getattr(report, "tasks", 1),
                        stolen_tasks=getattr(report, "stolen_tasks", 0),
                    )
                total_packets = sum(r.packets for r in reports)
                # Assigned, not accumulated: an in-memory run already
                # counted its chunks while sharding them.
                telemetry.total_packets = total_packets
                generate_seconds = sum(r.generate_seconds for r in reports)
                if generate_seconds > 0.0:
                    telemetry.stage("generate").add(
                        total_packets, total_packets, generate_seconds
                    )
                telemetry.stage("merge").add(
                    sum(r.events_finalized for r in reports),
                    len(events),
                    merge_seconds,
                )
                telemetry.total_events = len(events)
                telemetry.final_open_flows = merged.open_flows
                if merged.watermark is not None:
                    telemetry.watermark = merged.watermark
            else:
                flush_events = len(events) - telemetry.total_events
                telemetry.stage("detect").add(0, flush_events, merge_seconds)
                telemetry.total_events = len(events)
                telemetry.peak_open_flows = max(
                    telemetry.peak_open_flows, merged.peak_open_flows
                )
                telemetry.final_open_flows = merged.open_flows
        return events, detections

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Serialize the whole live engine (config + all shard states).

        The payload is a versioned header plus a pickle whose detector
        states are themselves ``StreamingDetector.to_bytes`` blobs —
        restoring re-validates each shard's own version header too.
        """
        if self._finished:
            raise RuntimeError("cannot snapshot a finished engine")
        if self._pool is not None:
            blobs = []
            for index in range(self.workers):
                blob = self._pool.collect((self._pool_key, index))
                if blob is None:
                    blob = self._new_detector().to_bytes()
                blobs.append(blob)
        else:
            blobs = [d.to_bytes() for d in self._detectors]
        payload = {
            "timeout": self.timeout,
            "dark_size": self.dark_size,
            "config": self.config,
            "day_seconds": self.day_seconds,
            "workers": self.workers,
            "chunks": self._chunks_ingested,
            "degraded": self._degraded,
            "max_ecdf_samples": self.max_ecdf_samples,
            # Read back with .get() so pre-journal v2 snapshots stay
            # loadable (they replay the whole journal, which dedups).
            "last_seq": self._last_seq,
            "detectors": blobs,
        }
        return ENGINE_STATE_MAGIC + pickle.dumps(payload, protocol=4)

    @classmethod
    def restore(
        cls,
        data: bytes,
        *,
        telemetry: Optional[PipelineTelemetry] = None,
        store: Optional[CheckpointStore] = None,
        snapshot_every_chunks: Optional[int] = None,
    ) -> "DetectionEngine":
        """Rebuild an engine serialized by :meth:`snapshot`.

        Raises ``ValueError`` on a missing or mismatched version header
        — a snapshot from a different state version must be discarded,
        never half-loaded.
        """
        if not data.startswith(ENGINE_STATE_MAGIC):
            raise ValueError(
                "not a serialized DetectionEngine snapshot (missing or "
                f"mismatched header; expected {ENGINE_STATE_MAGIC!r})"
            )
        payload = pickle.loads(data[len(ENGINE_STATE_MAGIC):])
        engine = cls(
            payload["timeout"],
            payload["dark_size"],
            payload["config"],
            payload["day_seconds"],
            workers=payload["workers"],
            telemetry=telemetry,
            store=store,
            snapshot_every_chunks=snapshot_every_chunks,
            max_ecdf_samples=payload["max_ecdf_samples"],
        )
        engine._detectors = [
            StreamingDetector.from_bytes(blob)
            for blob in payload["detectors"]
        ]
        engine._chunks_ingested = int(payload["chunks"])
        engine._degraded = bool(payload["degraded"])
        engine._last_seq = int(payload.get("last_seq", 0))
        engine._snapshot_seq = engine._last_seq
        return engine

    def save_snapshot(self) -> Path:
        """Write a snapshot through the attached checkpoint store."""
        if self.store is None:
            raise RuntimeError("engine has no checkpoint store attached")
        covered = self._last_seq
        path = self.store.save(ENGINE_CKPT_KIND, 0, self.snapshot())
        self._chunks_since_snapshot = 0
        # Only after store.save returns is the snapshot durable — and
        # only then may journal segments through ``covered`` go away.
        self._snapshot_seq = max(self._snapshot_seq, covered)
        return path

    @classmethod
    def from_store(
        cls,
        store: CheckpointStore,
        *,
        telemetry: Optional[PipelineTelemetry] = None,
        snapshot_every_chunks: Optional[int] = None,
    ) -> Optional["DetectionEngine"]:
        """Restore the last snapshot in ``store``, or ``None`` if there
        is none (or it is damaged — accounted on the store's health)."""
        payload = store.load(ENGINE_CKPT_KIND, 0)
        if payload is None:
            return None
        return cls.restore(
            payload,
            telemetry=telemetry,
            store=store,
            snapshot_every_chunks=snapshot_every_chunks,
        )
