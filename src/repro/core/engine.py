"""The long-lived detection engine behind every run path.

``DetectionEngine`` owns a pool of source-sharded
:class:`~repro.core.streaming.StreamingDetector`\\ s, chunk routing into
that pool, checkpoint/snapshot scheduling, and the telemetry accounting
around them.  The offline shard driver (:mod:`repro.parallel`) hands it
the detectors its workers folded and finishes it once; the always-on
service layer (:mod:`repro.serve`) keeps one alive per tenant
indefinitely, querying and snapshotting it while chunks keep
arriving.

The shard states themselves live in a *shard host*: by default the
engine's own inline :class:`ShardHost`, called directly; once a
:class:`~repro.serve.foldpool.FoldPool` is attached, the pool, whose
worker processes each run one ``ShardHost`` behind a pipe.  Either way
the engine folds, queries and snapshots through the same six host
operations, so an in-process engine and a pooled one accept, reject and
answer identically.

The engine never changes *what* is computed: for any worker count and
any chunking, ``finish()`` emits the same event table and AH sets as
``detect_all(build_events(capture))`` over the concatenated capture
(pinned by golden and property tests).  Its additions are lifecycle
ones:

* ``ingest_payloads(blobs)`` — fold a micro-batch of npz wire chunks:
  every shard's host decodes the same bytes, refuses whole chunks that
  fail to decode or start before the engine's watermark, and folds the
  rows whose source hashes to it.
* ``query()`` — AH sources and thresholds *now*, from one small
  summary per shard; the live state keeps accepting chunks afterwards.
  The answer is kept until something changes what it reads, so
  repeated queries of one state cost one fan-out.
* ``save_snapshot()`` / ``from_store()`` — periodic snapshots into a
  :class:`~repro.core.faults.CheckpointStore`'s directory, so a killed
  process resumes from the last one.  Whoever holds a shard writes it:
  each host writes its shards' v4 state files (``shard-<generation>-
  <index>.state``), and the engine then commits one small manifest,
  ``engine-manifest.json``, naming each file with its length and
  header digest.  No shard blob passes through the engine.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import DetectionConfig
from repro.core import statefile
from repro.core.detection import DetectionResult
from repro.core.events import EventTable
from repro.core.faults import (
    CheckpointStore,
    atomic_write_bytes,
    atomic_write_json,
    fsync_directory,
)
from repro.core.streaming import (
    DetectorSummary,
    StreamingDetector,
    detections_from_summaries,
)
from repro.core.telemetry import PipelineTelemetry
from repro.io.packetlog import packets_from_npz_bytes
from repro.packet import PacketBatch, shard_of

#: The snapshot manifest in a store directory; its rename commits a
#: snapshot (:meth:`DetectionEngine.save_snapshot`).
MANIFEST_NAME = "engine-manifest.json"
_MANIFEST_MAGIC = "repro-engine-manifest-v1"

#: The single-file engine snapshot that predates the manifest; a
#: directory holding only this is refused by name.
LEGACY_SNAPSHOT_NAME = "engine-00000.ckpt"


class SnapshotError(ValueError):
    """A committed snapshot cannot be loaded, and nothing of it was.

    Raised by :meth:`DetectionEngine.from_store` for an unreadable
    manifest, a shard file it names that is missing, short or does not
    match its digest, or a directory that holds only a pre-manifest
    snapshot.  There is no older snapshot to fall back to: journal
    segments were truncated through the committed one.
    """


def _shard_file(generation: int, index: int) -> str:
    return f"shard-{generation:08d}-{index:03d}.state"


def _read_manifest(directory: Path) -> Optional[dict]:
    """The committed manifest in ``directory`` (None if there is none)."""
    path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_bytes())
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"unreadable snapshot manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("magic") != (
        _MANIFEST_MAGIC
    ):
        raise SnapshotError(
            f"{path.name} is not a {_MANIFEST_MAGIC} snapshot manifest"
        )
    return manifest


def _load_shard(directory: Path, entry: dict) -> StreamingDetector:
    """The shard file a manifest entry names, checked and loaded.

    Length and header digest are checked against the entry; the header
    lists every array's digest, which ``from_bytes`` then verifies.
    """
    name = entry["name"]
    try:
        data = (directory / name).read_bytes()
    except OSError as exc:
        raise SnapshotError(f"snapshot shard file {name}: {exc}") from exc
    if len(data) != entry["bytes"]:
        raise SnapshotError(
            f"snapshot shard file {name} holds {len(data)} bytes, its "
            f"manifest says {entry['bytes']}"
        )
    try:
        digest = statefile.header_digest(data, "detector")
        if digest == entry["header_sha256"]:
            return StreamingDetector.from_bytes(data)
    except ValueError as exc:
        raise SnapshotError(f"snapshot shard file {name}: {exc}") from exc
    raise SnapshotError(
        f"snapshot shard file {name} does not match its manifest digest"
    )


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
    #: the ``OSError`` of a snapshot this call scheduled and that failed,
    #: as a message (None if none failed).  The chunks are folded
    #: either way; the snapshot is simply not committed.
    snapshot_error: Optional[str]


@dataclass(frozen=True)
class EngineQuery:
    """One consistent answer from the merged shard summaries.

    Read-only: :meth:`DetectionEngine.query` hands the same object to
    every caller until the state changes, so ``detections`` is a
    read-only mapping and each result's ``sources`` a ``frozenset``.
    """

    #: per-definition AH sources and threshold over everything ingested
    #: so far (no daily breakdowns: only :meth:`DetectionEngine.finish`
    #: derives those).
    detections: Mapping[int, DetectionResult]
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

    def ah_sources(self, definition: int = 1) -> frozenset:
        """The current AH set for one definition."""
        return self.detections[definition].sources


class ShardStateError(RuntimeError):
    """A host's state for a shard disagrees with its engine's count.

    Raised by every :class:`ShardHost` operation that reads or changes
    a shard (fold, summary, collect, write) — e.g. a respawned fold
    worker that lost its shards — instead of silently restarting the
    shard from empty or answering for it as if it were empty.
    """


@dataclass(frozen=True)
class ShardSpec:
    """Constructor arguments for a host-side detector shard."""

    timeout: float
    dark_size: int
    config: object
    day_seconds: float

    def new_detector(self) -> StreamingDetector:
        return StreamingDetector(
            self.timeout, self.dark_size, self.config, self.day_seconds
        )


@dataclass(frozen=True)
class FoldReply:
    """What one fold did, plus the shard's cumulative gauges after it.

    :meth:`ShardHost.load` answers with one too (no work, the installed
    shard's gauges), so the engine mirrors every shard's gauges from
    replies alone and gauge reads never touch the host.
    """

    #: packets folded by this call.
    packets: int
    #: events finalized by this call.
    events_finalized: int
    #: the shard's fold errors, as message strings (its share of the
    #: payload is then not folded).
    errors: Tuple[str, ...]
    #: payload chunks refused whole, undecodable or out of order, as
    #: message strings; every shard of one payload refuses the same
    #: ones, so the engine reports one shard's.
    rejected: Tuple[str, ...]
    #: cumulative shard gauges after the call.
    packets_seen: int
    events_total: int
    open_flows: int
    peak_open_flows: int
    watermark: Optional[float]


_EMPTY_SHARD = FoldReply(0, 0, (), (), 0, 0, 0, 0, None)


def _reply(
    detector: StreamingDetector,
    packets: int = 0,
    finalized: int = 0,
    errors: Sequence[str] = (),
    rejected: Sequence[str] = (),
) -> FoldReply:
    return FoldReply(
        packets=packets,
        events_finalized=finalized,
        errors=tuple(errors),
        rejected=tuple(rejected),
        packets_seen=detector.packets_seen,
        events_total=detector.events_finalized,
        open_flows=detector.open_flows,
        peak_open_flows=detector.peak_open_flows,
        watermark=detector.watermark,
    )


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


def decode_chunks(
    blobs: Sequence[bytes], watermark: Optional[float]
) -> Tuple[Optional[PacketBatch], List[str]]:
    """The chunks of one payload that fold, as one batch, and one
    message per chunk refused.

    Each npz blob decodes on its own, so one bad chunk only costs
    itself; the decoded chunks are then gated against ``watermark``
    (:func:`gate_time_order`) and concatenated in arrival order.  The
    batch is None when no chunk folds.
    """
    batches, rejected = [], []
    for blob in blobs:
        try:
            batches.append(packets_from_npz_bytes(blob, label="chunk"))
        except Exception as exc:  # noqa: BLE001 — per-chunk isolation
            rejected.append(str(exc))
    kept = gate_time_order(batches, watermark, rejected)
    del batches
    if not kept:
        return None, rejected
    return (kept[0] if len(kept) == 1 else PacketBatch.concat(kept)), rejected


class ShardHost:
    """Detector shards by ``(key, index)``, in this process.

    Answers the six shard operations — fold_many, summary, collect, write,
    load, drop — that :class:`DetectionEngine` routes through whichever host
    it holds: its own inline ``ShardHost``, called directly with no
    pickling, or an attached :class:`~repro.serve.foldpool.FoldPool`,
    each of whose worker processes serves one ``ShardHost`` over a pipe
    (:meth:`handle`).  ``key`` namespaces one engine's shards; the
    serve layer uses the tenant id.
    """

    _OPS = ("fold_many", "summary", "collect", "write", "load", "drop")

    def __init__(self) -> None:
        self._detectors: Dict[tuple, StreamingDetector] = {}

    def _synced(self, key, expect_packets: int) -> Optional[StreamingDetector]:
        """Shard ``key``'s detector (None if it has none), provided the
        host has folded the ``expect_packets`` the engine believes it
        has; :class:`ShardStateError` otherwise."""
        detector = self._detectors.get(key)
        have = 0 if detector is None else detector.packets_seen
        if have != expect_packets:
            raise ShardStateError(
                f"shard {key!r} state out of sync: host has {have} "
                f"folded packets, engine expects {expect_packets} "
                "(a respawned fold worker has no state)"
            )
        return detector

    def fold_many(self, requests: Sequence[tuple]) -> List[FoldReply]:
        """Fold each ``(key, spec, expect_packets, payload)`` request.

        ``payload`` is ``(blobs, shards, watermark)``: one engine's npz
        wire chunks, its shard count and its watermark, the same for
        each of its shards.  Each distinct payload is decoded and gated
        once (:func:`decode_chunks`) against the *engine's* watermark,
        so a chunk folds into every shard it touches or into none; the
        shard ``key = (engine key, index)`` then folds the rows with
        ``shard_of(src, shards) == index``.

        ``expect_packets`` is the packet count the engine believes the
        shard has folded; if any shard disagrees the host raises
        :class:`ShardStateError` and folds nothing, rather than fold
        onto the wrong state.
        """
        detectors = [
            self._synced(key, expect) for key, _, expect, _ in requests
        ]
        decoded: Dict[int, tuple] = {}
        replies = []
        for detector, (key, spec, _, payload) in zip(detectors, requests):
            if detector is None:
                detector = self._detectors[key] = spec.new_detector()
            if id(payload) not in decoded:
                blobs, shards, watermark = payload
                batch, rejected = decode_chunks(blobs, watermark)
                owner = None
                if batch is not None and shards > 1:
                    owner = shard_of(batch.src, shards)
                decoded[id(payload)] = batch, owner, rejected
            batch, owner, rejected = decoded[id(payload)]
            if owner is not None:
                batch = batch.select(owner == key[1])
            packets = finalized = 0
            errors = []
            if batch is not None and len(batch):
                try:
                    report = detector.add_batch(batch)
                    packets = report.packets
                    finalized = report.events_finalized
                except Exception as exc:  # noqa: BLE001 — surface, don't die
                    errors.append(str(exc))
            replies.append(
                _reply(detector, packets, finalized, errors, rejected)
            )
        return replies

    def summary(
        self, requests: Sequence[tuple]
    ) -> List[Optional[DetectorSummary]]:
        """Each ``(key, expect_packets)`` shard's
        :meth:`StreamingDetector.summary` (None for a shard that has
        folded nothing).  A shard out of sync raises
        :class:`ShardStateError`, as :meth:`fold_many` does, so a lost shard
        is never answered for as an empty one."""
        detectors = [self._synced(*request) for request in requests]
        return [
            None if detector is None else detector.summary()
            for detector in detectors
        ]

    def collect(self, requests: Sequence[tuple]) -> List[Optional[bytes]]:
        """Each ``(key, expect_packets)`` shard's serialized state (None
        for a shard that has folded nothing), checked as
        :meth:`summary` checks it."""
        detectors = [self._synced(*request) for request in requests]
        return [
            None if detector is None else detector.to_bytes()
            for detector in detectors
        ]

    def write(self, requests: Sequence[tuple]) -> list:
        """Write each ``(key, spec, expect_packets, path)`` shard's file.

        The file at ``path`` holds the shard's
        :meth:`StreamingDetector.to_bytes` (an empty detector built from
        ``spec`` for a shard with no state), written to a tmp file,
        fsynced and renamed.  ``expect_packets`` is checked first, as
        :meth:`fold_many` checks it, so a respawned worker that lost its
        shards raises :class:`ShardStateError` and writes nothing rather
        than empty shards a manifest would then commit.

        Returns per request ``(name, length, header digest)``
        (:func:`repro.core.statefile.header_digest`: the header lists
        every array's digest, so no byte is hashed twice), or the
        ``OSError`` its write raised.  The error is returned, not
        raised, so the engine raises it itself whichever host wrote: an
        error a pool worker raises reaches the engine as a fold-pool
        error, which the server heals as a lost worker.
        """
        detectors = [
            self._synced(key, expect_packets)
            for key, _, expect_packets, _ in requests
        ]
        written = []
        for detector, (_, spec, _, path) in zip(detectors, requests):
            if detector is None:
                detector = spec.new_detector()
            data = detector.to_bytes()
            try:
                atomic_write_bytes(path, data)
            except OSError as exc:
                written.append(exc)
                continue
            digest = statefile.header_digest(data, "detector")
            written.append((Path(path).name, len(data), digest))
        return written

    def load(self, key, state) -> FoldReply:
        """Install a shard's state; ``None`` drops it.

        ``state`` is a :meth:`StreamingDetector.to_bytes` blob or, in
        process, the detector itself (adopted, not copied).
        """
        if state is None:
            self._detectors.pop(key, None)
            return _EMPTY_SHARD
        if isinstance(state, bytes):
            state = StreamingDetector.from_bytes(state)
        self._detectors[key] = state
        return _reply(state)

    def take(self, key) -> Optional[StreamingDetector]:
        """Remove and return the shard's live detector (or None)."""
        return self._detectors.pop(key, None)

    def drop(self, tenant) -> None:
        """Forget every shard whose key belongs to ``tenant``."""
        for key in [k for k in self._detectors if k[0] == tenant]:
            del self._detectors[key]

    def handle(self, message: tuple):
        """Answer one ``(op, *args)`` message; ``ping``/``close`` answer
        None (closing is the pipe loop's business)."""
        op, *args = message
        if op in ("ping", "close"):
            return None
        if op not in self._OPS:
            raise ValueError(f"unknown fold-pool op: {op!r}")
        return getattr(self, op)(*args)


class DetectionEngine:
    """A sharded detector pool with a service-shaped lifecycle.

    Args:
        timeout: flow idle timeout (seconds) for event building.
        dark_size: number of dark addresses the telescope observes.
        config: detection thresholds; defaults to the paper's.
        day_seconds: scenario calendar day length.
        workers: detector shards to route sources across.  Results are
            identical for any value; >1 only changes memory layout and
            (with a fold pool attached) parallelism.
        telemetry: optional :class:`PipelineTelemetry` to account into;
            the engine records the detect stage, per-chunk gauges, and
            the finish-time flush.
        store: optional :class:`CheckpointStore` for snapshots.
        snapshot_every_chunks: write a snapshot to ``store`` every N
            ingested chunks (``None`` disables scheduling; explicit
            :meth:`save_snapshot` calls still work).
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
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if snapshot_every_chunks is not None and snapshot_every_chunks < 1:
            raise ValueError("snapshot_every_chunks must be >= 1")
        self.timeout = float(timeout)
        self.dark_size = int(dark_size)
        self.config = config or DetectionConfig()
        self.day_seconds = float(day_seconds)
        self.workers = int(workers)
        self.telemetry = telemetry
        self.store = store
        self.snapshot_every_chunks = snapshot_every_chunks
        self._spec = ShardSpec(
            self.timeout, self.dark_size, self.config, self.day_seconds
        )
        #: where the shard states live: the engine's own inline
        #: :class:`ShardHost`, or an attached fold pool.
        self._host = ShardHost()
        #: this engine's namespace in the host (the pool key, or None).
        self._key = None
        #: newest reply per shard; its cumulative gauges mirror the
        #: shard, so gauge reads are O(1) and never touch the host.
        self._gauges: List[FoldReply] = [_EMPTY_SHARD] * self.workers
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
        self._finished = False
        #: the last :meth:`query` answer, kept until something changes
        #: what it read; every such path sets it back to None.
        self._query: Optional[EngineQuery] = None
        self._queries = 0
        self._query_memo_hits = 0

    def _shard_keys(self) -> List[tuple]:
        return [(self._key, index) for index in range(self.workers)]

    def _shard_reads(self) -> List[tuple]:
        """``(key, expect_packets)`` per shard, for the host's
        ``summary``/``collect``, which check each count."""
        return [
            (key, gauge.packets_seen)
            for key, gauge in zip(self._shard_keys(), self._gauges)
        ]

    def _load_shards(self, states: Sequence) -> None:
        """Install one state per shard in the host, mirroring gauges."""
        self._query = None
        self._gauges = [
            self._host.load(key, state)
            for key, state in zip(self._shard_keys(), states)
        ]

    # ------------------------------------------------------------------
    # Construction from already-folded shard states (the offline driver)
    # ------------------------------------------------------------------
    @classmethod
    def from_shards(
        cls, detectors: Sequence[StreamingDetector]
    ) -> "DetectionEngine":
        """Adopt detectors folded by the offline shard driver.

        The detectors must be in shard-index order (``run_sharded``
        guarantees it); :meth:`finish` then merges them in that order,
        so a sharded run is bit-identical to a one-shard one.  The
        driver accounts its own telemetry
        (:func:`repro.parallel._detect`).
        """
        if not detectors:
            raise ValueError("need at least one shard detector to adopt")
        first = detectors[0]
        engine = cls(
            first.builder.timeout,
            first.dark_size,
            first.config,
            first.day_seconds,
            workers=len(detectors),
        )
        engine._load_shards(detectors)
        return engine

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------
    @property
    def packets_seen(self) -> int:
        return sum(g.packets_seen for g in self._gauges)

    @property
    def events_finalized(self) -> int:
        return sum(g.events_total for g in self._gauges)

    @property
    def open_flows(self) -> int:
        return sum(g.open_flows for g in self._gauges)

    @property
    def peak_open_flows(self) -> int:
        return sum(g.peak_open_flows for g in self._gauges)

    @property
    def watermark(self) -> Optional[float]:
        marks = [g.watermark for g in self._gauges if g.watermark is not None]
        return max(marks) if marks else None

    @property
    def pooled(self) -> bool:
        """True while a fold pool owns this engine's detector state."""
        return not isinstance(self._host, ShardHost)

    @property
    def chunks_ingested(self) -> int:
        return self._chunks_ingested

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
    # Fold-pool attachment (the serve path's off-loop parallel folds)
    # ------------------------------------------------------------------
    def attach_pool(self, pool, key) -> None:
        """Move this engine's detector state into a fold pool.

        ``pool`` is a :class:`~repro.serve.foldpool.FoldPool`; ``key``
        namespaces this engine's shards inside it (the serve layer uses
        the tenant id).  Each shard's serialized state is installed in
        its affine worker; from then on the engine folds, queries and
        snapshots through the pool instead of its inline host, with
        identical answers.
        """
        if self._finished:
            raise RuntimeError("cannot attach a pool to a finished engine")
        if self.pooled:
            raise RuntimeError("a fold pool is already attached")
        blobs = self._host.collect(self._shard_reads())
        for index, blob in enumerate(blobs):
            pool.load((key, index), blob)
        self._host, self._key = pool, key

    def detach_pool(self) -> None:
        """Pull detector state back out of the pool (no-op if unpooled).

        After this the engine folds through an inline host again; the
        pool forgets the engine's shards.
        """
        if not self.pooled:
            return
        pool, key = self._host, self._key
        blobs = pool.collect(self._shard_reads())
        self._host, self._key = ShardHost(), None
        self._load_shards(blobs)
        pool.drop(key)

    def abandon_pool(self) -> None:
        """Forget pooled state without pulling it back.

        The tenant-removal path: the state is being discarded anyway,
        so skip the collect round-trip and just clear the workers.  The
        engine is left empty (as if freshly built).
        """
        if not self.pooled:
            return
        pool, key = self._host, self._key
        self._host, self._key = ShardHost(), None
        self._gauges = [_EMPTY_SHARD] * self.workers
        self._query = None
        pool.drop(key)

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def _fold(self, payload: tuple, errors: List[str]) -> Tuple[int, int]:
        """Fold one payload into every shard through the host.

        Each chunk the hosts refused is reported once (every shard
        refuses the same ones); fold errors are reported per shard.
        """
        # Dropped before the host call, so a fold that fails part-way
        # (some shards folded, or a worker lost) cannot leave it.
        self._query = None
        replies = self._host.fold_many(
            [
                (key, self._spec, gauge.packets_seen, payload)
                for key, gauge in zip(self._shard_keys(), self._gauges)
            ]
        )
        errors.extend(replies[0].rejected)
        packets = finalized = 0
        for index, reply in enumerate(replies):
            self._gauges[index] = reply
            errors.extend(reply.errors)
            packets += reply.packets
            finalized += reply.events_finalized
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
        """Telemetry + chunk/snapshot bookkeeping for one fold pass.

        A scheduled snapshot that fails on I/O does not fail the call:
        the chunks are folded, so its error rides on the report
        (``snapshot_error``) and ``snapshot_seq`` stays where it was.
        An explicit :meth:`save_snapshot` still raises.
        """
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
        self._query = None  # the chunk count is part of the answer
        snapshot_error = None
        if (
            self.store is not None
            and self.snapshot_every_chunks is not None
            and self._chunks_since_snapshot >= self.snapshot_every_chunks
        ):
            try:
                self.save_snapshot()
            except OSError as exc:
                snapshot_error = str(exc)
        return IngestReport(
            packets=packets,
            events_finalized=finalized,
            open_flows=open_flows,
            watermark=watermark,
            chunks=chunks,
            errors=tuple(errors),
            seconds=seconds,
            snapshot_error=snapshot_error,
        )

    def ingest_payloads(
        self,
        blobs: Sequence[bytes],
        *,
        window_end: Optional[float] = None,
        last_seq: Optional[int] = None,
    ) -> IngestReport:
        """Fold a micro-batch of npz wire chunks in one pass.

        The engine's one ingest path: ``blobs`` are raw npz payloads in
        arrival order.  Every shard's host gets the same payload, the
        bytes plus the shard count and the engine's watermark, and
        decodes it itself (off-process, with a fold pool attached).
        Undecodable or out-of-order chunks are dropped individually —
        each contributes one error string and is excluded from the
        ``chunks`` count, exactly as per-chunk ingestion would have
        rejected it — while the rest concatenate into one fold,
        amortizing decode and the builder's sort.

        Cumulative results are identical to folding the same chunks one
        at a time: streaming event building is chunking-invariant.
        """
        if self._finished:
            raise RuntimeError("engine already finished")
        t0 = time.perf_counter()
        errors: List[str] = []
        blobs = list(blobs)
        packets, finalized = self._fold(
            (blobs, self.workers, self.watermark), errors
        )
        chunks = max(0, len(blobs) - len(errors))
        if last_seq is not None:
            # Advance *before* accounting so a snapshot scheduled by
            # this very fold records coverage of these chunks.
            self.advance_seq(last_seq)
        return self._account_fold(
            packets, finalized, chunks, errors, t0, window_end
        )

    # ------------------------------------------------------------------
    # Query (live) and finish (terminal)
    # ------------------------------------------------------------------
    def _merged(
        self, shards: Sequence[Optional[StreamingDetector]]
    ) -> StreamingDetector:
        """Shard states merged in shard order (None = an empty shard)."""
        shards = [
            s if s is not None else self._spec.new_detector() for s in shards
        ]
        for other in shards[1:]:
            shards[0].merge(other)
        return shards[0]

    def query(self) -> EngineQuery:
        """AH sources and thresholds over everything ingested so far,
        without ending the stream.

        One fan-out fetches every shard's
        :class:`~repro.core.streaming.DetectorSummary` — histograms,
        per-source peaks, dispersion sources and daily port counts, with
        open flows counted as if they closed now — and the summaries
        merge in shard order.  Sources, thresholds and the event count
        equal what :meth:`finish` would return now, i.e. an offline run
        over the traffic seen so far; the shards are left untouched and
        keep accepting chunks.

        The answer is memoized: until a fold, a chunk count change or a
        shard (re)load, every call returns the same read-only
        :class:`EngineQuery` without touching the host, which is exactly
        what a fresh fan-out over the same state would build.  A shard
        its host lost raises :class:`ShardStateError` (a fold-pool error
        through the pool) rather than being answered for as empty.
        Raises ``RuntimeError`` once the engine is finished.
        """
        if self._finished:
            raise RuntimeError("engine already finished")
        self._queries += 1
        if self._query is not None:
            self._query_memo_hits += 1
            return self._query
        summaries = self._host.summary(self._shard_reads())
        events, detections = detections_from_summaries(
            [s for s in summaries if s is not None],
            self.dark_size,
            self.config,
        )
        self._query = EngineQuery(
            detections=MappingProxyType(detections),
            events=events,
            packets=self.packets_seen,
            events_finalized=self.events_finalized,
            open_flows=self.open_flows,
            watermark=self.watermark,
            chunks=self._chunks_ingested,
        )
        return self._query

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
            "finished": self._finished,
            "pooled": self.pooled,
            "last_seq": self._last_seq,
            "snapshot_seq": self._snapshot_seq,
            "queries": self._queries,
            "query_memo_hits": self._query_memo_hits,
        }

    def finish(self) -> Tuple[EventTable, Dict[int, DetectionResult]]:
        """Flush all shards, merge in shard order, detect once.

        Terminal: the engine accepts no further chunks.  The flush is
        accounted into the detect stage.
        """
        if self._finished:
            raise RuntimeError("engine already finished")
        self.detach_pool()
        self._query = None
        t0 = time.perf_counter()
        merged = self._merged(
            [self._host.take(key) for key in self._shard_keys()]
        )
        events, detections = merged.finish()
        merge_seconds = time.perf_counter() - t0
        self._gauges = [_reply(merged)]
        self._finished = True
        telemetry = self.telemetry
        if telemetry is not None:
            flush_events = len(events) - telemetry.total_events
            telemetry.stage("detect").add(0, flush_events, merge_seconds)
            telemetry.total_events = len(events)
            telemetry.peak_open_flows = max(
                telemetry.peak_open_flows, merged.peak_open_flows
            )
            telemetry.final_open_flows = merged.open_flows
        return events, detections

    # ------------------------------------------------------------------
    # Snapshots: shard files written by their hosts, one manifest commit
    # ------------------------------------------------------------------
    def reload_shards(self) -> None:
        """Round-trip every shard through its host's ``collect`` and
        ``load`` — the same ``to_bytes``/``from_bytes`` as the snapshot
        shard files — leaving fresh detectors with identical state.  A
        shard its host lost raises :class:`ShardStateError` (a fold-pool
        error through the pool) and nothing is reloaded."""
        self._load_shards(self._host.collect(self._shard_reads()))

    def _committed_generation(self) -> int:
        """Generation of the manifest committed in the store (0 = none).

        Read from disk at every snapshot, not cached: a commit whose
        manifest rename landed but whose directory fsync then failed has
        still claimed its generation's file names.
        """
        try:
            manifest = _read_manifest(self.store.run_dir) or {}
            return int(manifest.get("generation", 0))
        except (TypeError, ValueError):
            # An unloadable manifest protects no shard file.
            return 0

    def save_snapshot(self) -> Path:
        """Commit a snapshot to the attached store's directory.

        Each shard's host writes its state file (tmp, fsync, rename)
        under a name of the next generation, so no name the committed
        manifest points at is ever reused.  The engine then writes the
        manifest — configuration, chunk count, journal ``last_seq``,
        generation, and each shard file's name, length and header
        digest — atomically, and fsyncs the directory.  That rename is
        the commit.  Only after it are earlier generations' shard files
        (and any a failed commit left) deleted, and only then may journal
        segments through the covered sequence be truncated.  Returns the
        manifest path.

        A shard write that fails raises its ``OSError`` here, inline or
        pooled alike, and nothing is committed; the live state is kept.
        A pool worker that lost the shard's state refuses to write it
        (:class:`ShardStateError`, raised as a fold-pool error), so an
        emptied shard is never committed under the real ``last_seq``.
        """
        if self.store is None:
            raise RuntimeError("engine has no checkpoint store attached")
        if self._finished:
            raise RuntimeError("cannot snapshot a finished engine")
        directory = self.store.run_dir
        generation = self._committed_generation() + 1
        covered = self._last_seq
        shards = self._host.write(
            [
                (
                    key,
                    self._spec,
                    self._gauges[i].packets_seen,
                    str(directory / _shard_file(generation, i)),
                )
                for i, key in enumerate(self._shard_keys())
            ]
        )
        for entry in shards:
            if isinstance(entry, OSError):
                raise entry
        path = directory / MANIFEST_NAME
        atomic_write_json(
            path,
            {
                "magic": _MANIFEST_MAGIC,
                "generation": generation,
                "timeout": self.timeout,
                "dark_size": self.dark_size,
                "config": asdict(self.config),
                "day_seconds": self.day_seconds,
                "chunks": self._chunks_ingested,
                "last_seq": covered,
                "shards": [
                    {"name": name, "bytes": length, "header_sha256": digest}
                    for name, length, digest in shards
                ],
            },
        )
        fsync_directory(directory)
        self._chunks_since_snapshot = 0
        live = {name for name, _, _ in shards}
        for stale in directory.glob("shard-*.state"):
            if stale.name not in live:
                stale.unlink(missing_ok=True)
        if self.store.health is not None:
            self.store.health.checkpoint_writes += 1
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
        """Load the snapshot committed in ``store``'s directory, or
        ``None`` if there is none.

        Every shard file the manifest names is read, checked against its
        length and header digest and loaded before the engine is built,
        so a snapshot loads whole or not at all.  Anything else raises
        :class:`SnapshotError`, counted as a corrupt checkpoint on the
        store's health: an unreadable manifest, a missing, short or
        mismatched shard file, or only a pre-manifest
        ``engine-00000.ckpt``.  Nothing is unpickled.
        """
        directory = store.run_dir
        try:
            manifest = _read_manifest(directory)
            if manifest is None:
                if (directory / LEGACY_SNAPSHOT_NAME).exists():
                    raise SnapshotError(
                        f"{LEGACY_SNAPSHOT_NAME} is a single-file engine "
                        "snapshot from before snapshot manifests and is no "
                        "longer readable; discard it and rebuild the state "
                        "from its input"
                    )
                return None
            detectors = [
                _load_shard(directory, entry) for entry in manifest["shards"]
            ]
            engine = cls(
                manifest["timeout"],
                manifest["dark_size"],
                DetectionConfig(**manifest["config"]),
                manifest["day_seconds"],
                workers=len(detectors),
                telemetry=telemetry,
                store=store,
                snapshot_every_chunks=snapshot_every_chunks,
            )
            engine._chunks_ingested = int(manifest["chunks"])
            engine._last_seq = int(manifest["last_seq"])
        except (KeyError, TypeError, ValueError) as exc:
            if store.health is not None:
                store.health.checkpoint_corrupt += 1
            if isinstance(exc, SnapshotError):
                raise
            raise SnapshotError(f"corrupt snapshot manifest: {exc!r}") from exc
        engine._load_shards(detectors)
        engine._snapshot_seq = engine._last_seq
        return engine
