"""Tenant isolation: one detection engine per telescope.

A *tenant* is one telescope feeding the service — its own detector
state, its own telemetry/health, its own snapshot directory, its own
memory budget.  Nothing is shared between tenants except the process:
a tenant whose chunks are corrupt or whose engine is recycled never
perturbs another tenant's results.

The registry persists tenant configurations to ``tenants.json``
(written atomically) next to the per-tenant snapshot directories, so a
restarted server rebuilds every tenant — engine state included, from
each tenant's last engine snapshot — before accepting traffic.  With
journaling on (the default when a snapshot dir exists), each tenant
also owns a write-ahead chunk journal
(:mod:`repro.serve.journal`): every acked chunk is on disk before its
202, and :meth:`TenantRegistry.restore_all` replays the journal suffix
the last snapshot misses — so a crash loses nothing that was acked.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.config import DetectionConfig
from repro.core.engine import (
    DetectionEngine,
    EngineQuery,
    IngestReport,
    SnapshotError,
)
from repro.core.faults import CheckpointStore, atomic_write_json
from repro.core.telemetry import PipelineTelemetry, ServeStats
from repro.serve.journal import (
    JOURNAL_DIR_NAME,
    ChunkJournal,
    JournalError,
    chunk_digest,
)

#: Registry filename under the snapshot root.
REGISTRY_NAME = "tenants.json"
_REGISTRY_MAGIC = "repro-tenant-registry-v1"


@dataclass(frozen=True)
class TenantConfig:
    """Everything needed to (re)build one tenant's engine.

    Mirrors the :class:`DetectionEngine` constructor; the service keeps
    it JSON-serializable so a restarted server can rebuild tenants from
    the registry file alone.
    """

    #: flow idle timeout (seconds) for event building.
    timeout: float
    #: dark addresses the tenant's telescope observes.
    dark_size: int
    #: scenario/calendar day length (thresholds are per-day).
    day_seconds: float = 86_400.0
    #: detector shards inside the tenant's engine.
    workers: int = 1
    #: detection thresholds; ``None`` uses the paper's defaults.
    detection: Optional[DetectionConfig] = None
    #: snapshot cadence, in ingested chunks (``None`` = only explicit).
    snapshot_every_chunks: Optional[int] = 16
    #: bounded ingest-queue depth before the server answers 429.
    queue_depth: int = 8
    #: micro-batching budget: at most this many queued chunks coalesce
    #: into one fold (1 = per-chunk, the pre-coalescing behavior).
    coalesce_chunks: int = 32
    #: micro-batching budget: stop coalescing once the queued wire
    #: bytes drained so far reach this many.
    coalesce_bytes: int = 8 * 2**20

    def as_dict(self) -> dict:
        d = asdict(self)
        if self.detection is not None:
            d["detection"] = asdict(self.detection)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TenantConfig":
        d = dict(d)
        if "max_ecdf_samples" in d:
            raise ValueError(
                "max_ecdf_samples is no longer supported: Definition 2 "
                "always uses the exact volume ECDF"
            )
        if d.get("detection") is not None:
            d["detection"] = DetectionConfig(**d["detection"])
        return cls(**d)

    def build_engine(
        self,
        telemetry: PipelineTelemetry,
        store: Optional[CheckpointStore],
    ) -> DetectionEngine:
        """A fresh, empty engine for this tenant."""
        return DetectionEngine(
            self.timeout,
            self.dark_size,
            self.detection,
            self.day_seconds,
            workers=self.workers,
            telemetry=telemetry,
            store=store,
            snapshot_every_chunks=self.snapshot_every_chunks,
        )


@dataclass
class Tenant:
    """One tenant: an engine plus its telemetry and snapshot store."""

    tenant_id: str
    config: TenantConfig
    engine: DetectionEngine
    telemetry: PipelineTelemetry
    store: Optional[CheckpointStore] = None
    #: ingest failures (message strings), newest last; capped.
    errors: List[str] = field(default_factory=list)
    #: shard reloads (graceful recycling) and rebuilds from snapshot.
    recycles: int = 0
    #: serve-path ingest telemetry (queue wait, coalescing, folds).
    serve_stats: ServeStats = field(default_factory=ServeStats)
    #: fold pool this tenant's engine routes through (``None`` = local
    #: in-process folds); set via :meth:`attach_pool`, never persisted.
    fold_pool: Optional[object] = field(default=None, repr=False)
    #: write-ahead chunk journal (``None`` = ingest is not durable).
    journal: Optional[ChunkJournal] = field(default=None, repr=False)
    #: LRU of recently admitted chunk digests — a client retransmitting
    #: after a lost ack gets 202 again without re-journaling or
    #: double-folding.  Bounded; the watermark gate backstops evictions.
    admitted: "OrderedDict[bytes, int]" = field(
        default_factory=OrderedDict, repr=False
    )

    _MAX_ERRORS = 32
    _DEDUP_CAPACITY = 512

    def ingest_payloads(
        self, blobs: List[bytes], last_seq: Optional[int] = None
    ) -> IngestReport:
        """Fold a coalesced micro-batch of npz wire chunks.

        Individual bad chunks are recorded on the tenant's error list
        (and excluded from the folded-chunk count) without failing the
        rest of the batch.  ``last_seq`` — the journal sequence of the
        newest blob in the batch — advances the engine's durability
        watermark so snapshots record exactly which journal suffix
        still needs boot-time replay.
        """
        report = self.engine.ingest_payloads(blobs, last_seq=last_seq)
        for message in report.errors:
            self.record_error(f"chunk rejected: {message}")
        self.maybe_truncate_journal()
        return report

    # ------------------------------------------------------------------
    # Durable admission (the write-ahead journal path)
    # ------------------------------------------------------------------
    def _remember(self, digest: bytes, seq: Optional[int]) -> None:
        self.admitted[digest] = seq
        self.admitted.move_to_end(digest)
        while len(self.admitted) > self._DEDUP_CAPACITY:
            self.admitted.popitem(last=False)

    def accept_chunk(self, payload: bytes) -> Tuple[Optional[int], bool]:
        """Admit one wire chunk durably; ``(seq, duplicate)``.

        The ack contract lives here: the chunk's bytes are appended to
        the journal (per its fsync policy) *before* this returns, so a
        202 sent afterwards promises the chunk survives a crash.  A
        digest already admitted returns ``(its seq, True)`` without a
        second journal record — the retransmit-after-lost-ack path.
        :class:`~repro.serve.journal.JournalError` propagates (the
        server answers 429); the chunk is then *not* admitted.
        """
        digest = chunk_digest(payload)
        if digest in self.admitted:
            self.admitted.move_to_end(digest)
            self.serve_stats.record_duplicate()
            return self.admitted[digest], True
        seq = None
        if self.journal is not None:
            bytes_before = self.journal.bytes_appended
            fsyncs_before = self.journal.fsyncs
            try:
                seq = self.journal.append(payload, digest)
            except JournalError as exc:
                self.serve_stats.record_journal_failure()
                self.record_error(f"journal: {exc}")
                raise
            self.serve_stats.record_journal_append(
                self.journal.bytes_appended - bytes_before,
                self.journal.fsyncs - fsyncs_before,
            )
        self._remember(digest, seq)
        return seq, False

    def forget_payload(self, payload: bytes) -> None:
        """Drop a payload's digest from the dedup LRU.

        The defensive un-admit for the (lock-prevented) case where a
        journaled chunk could not be queued: forgetting the digest
        makes the client's retry re-admit it instead of getting a
        duplicate-202 for a chunk that never reached the fold path.
        The orphan journal record is harmless — replay dedups it.
        """
        self.admitted.pop(chunk_digest(payload), None)

    def replay_journal(self) -> int:
        """Re-fold the journal suffix the last snapshot doesn't cover.

        The boot/heal-time completion of the ack contract: every intact
        journal record with a sequence past the restored engine's
        ``last_seq`` goes back through the normal fold path, in journal
        order.  Idempotent — a digest already replayed in this pass
        only advances the sequence watermark (the retransmit-dedup
        case: same chunk journaled twice folds once, exactly as it
        would have live).  Records at or below ``last_seq`` only seed
        the dedup LRU.  Returns the number of chunks re-folded.

        Records fold in micro-batches under the tenant's
        ``coalesce_chunks``/``coalesce_bytes`` budgets, as live ingest
        drains its queue; a batch is flushed before every duplicate, so
        the sequence watermark still advances in journal order.
        """
        if self.journal is None:
            return 0
        covered = self.engine.last_seq
        seen = set()
        replayed = 0
        pending: List[Tuple[bytes, int]] = []

        def flush() -> None:
            if pending:
                report = self.engine.ingest_payloads(
                    [payload for payload, _ in pending],
                    last_seq=pending[-1][1],
                )
                if report.snapshot_error is not None:
                    self.record_error(f"snapshot: {report.snapshot_error}")
                pending.clear()

        for record in self.journal.replay():
            if record.seq <= covered:
                self._remember(record.digest, record.seq)
                continue
            if record.digest in seen:
                flush()
                self.engine.advance_seq(record.seq)
                continue
            seen.add(record.digest)
            self._remember(record.digest, record.seq)
            pending.append((record.payload, record.seq))
            replayed += 1
            if (
                len(pending) >= self.config.coalesce_chunks
                or sum(len(p) for p, _ in pending)
                >= self.config.coalesce_bytes
            ):
                flush()
        flush()
        # New appends must continue past everything the engine has
        # already folded, even when truncation emptied the journal.
        self.journal.ensure_next_seq(self.engine.last_seq + 1)
        if replayed:
            self.serve_stats.record_replay(replayed)
            if self.store is not None:
                self.engine.save_snapshot()
        self.maybe_truncate_journal()
        return replayed

    def maybe_truncate_journal(self) -> None:
        """Drop journal segments the last persisted snapshot covers."""
        if self.journal is not None and self.engine.snapshot_seq > 0:
            self.journal.truncate_through(self.engine.snapshot_seq)

    def close_journal(self) -> None:
        """Flush and close the journal file (graceful shutdown)."""
        if self.journal is not None:
            self.journal.close()

    def attach_pool(self, pool) -> None:
        """Route this tenant's folds through a fold pool."""
        self.fold_pool = pool
        if pool is not None and not self.engine.pooled:
            self.engine.attach_pool(pool, self.tenant_id)

    def detach_pool(self) -> None:
        """Pull detector state back in-process (no-op if unpooled)."""
        self.engine.detach_pool()
        self.fold_pool = None

    def abandon_pool(self) -> None:
        """Drop pooled state without collecting it (tenant removal)."""
        self.engine.abandon_pool()
        self.fold_pool = None

    def query(self) -> EngineQuery:
        return self.engine.query()

    def status(self) -> dict:
        status = self.engine.status()
        status.update(
            tenant=self.tenant_id,
            recycles=self.recycles,
            errors=list(self.errors),
            health=self.telemetry.health.as_dict(),
            serve=self.serve_stats.as_dict(),
        )
        if self.journal is not None:
            status["journal"] = self.journal.stats()
        return status

    def record_error(self, message: str) -> None:
        self.errors.append(message)
        del self.errors[: -self._MAX_ERRORS]

    def save_snapshot(self) -> Optional[str]:
        """Commit a snapshot now, then truncate the journal it covers;
        returns the manifest path."""
        if self.store is None:
            return None
        path = str(self.engine.save_snapshot())
        self.maybe_truncate_journal()
        return path

    def recycle(self) -> None:
        """Reload every shard of the engine from its own serialized state.

        The graceful worker-recycling hook: each shard goes through its
        host's ``collect``/``load`` — the same ``to_bytes``/``from_bytes``
        its snapshot shard file holds, so recycling doubles as a
        continuous restore test — and any Python-level garbage the old
        detectors accumulated is dropped.  Nothing is written: the
        snapshot directory (manifest plus one generation of shard files)
        and the journal's truncation point are untouched.  State,
        results, and telemetry accounting are unaffected — pinned by
        tests.
        """
        self.engine.reload_shards()
        self.recycles += 1

    def restore_snapshot(self) -> None:
        """Replace the engine with the snapshot committed in the store.

        Empty when there is none.  A refused snapshot
        (:class:`~repro.core.engine.SnapshotError`, already counted on
        the tenant's health) goes on the error list, and the engine
        starts empty too; the caller then replays the journal.
        """
        engine = None
        if self.store is not None:
            try:
                engine = DetectionEngine.from_store(
                    self.store,
                    telemetry=self.telemetry,
                    snapshot_every_chunks=self.config.snapshot_every_chunks,
                )
            except SnapshotError as exc:
                self.record_error(f"snapshot refused: {exc}")
        if engine is None:
            engine = self.config.build_engine(self.telemetry, self.store)
        self.engine = engine

    def restore_from_store(self) -> None:
        """Rebuild the engine from its last *persisted* snapshot.

        The fold-pool failure path: when a worker process dies its
        unsnapshotted shard state is gone, so the live engine cannot be
        trusted — rebuild from the newest snapshot on disk (empty if
        none survives) and re-attach the pool, overwriting whatever
        stale shard state the surviving workers still hold.
        """
        self.restore_snapshot()
        self.recycles += 1
        if self.fold_pool is not None:
            self.engine.attach_pool(self.fold_pool, self.tenant_id)
        # The journal still holds every acked chunk past that snapshot:
        # replaying it makes even a fold-worker death lossless.
        self.replay_journal()


class TenantRegistry:
    """Creates, restores, and looks up tenants.

    With ``snapshot_dir`` set, the registry is durable: tenant configs
    live in ``<snapshot_dir>/tenants.json`` and each tenant's engine
    snapshots under ``<snapshot_dir>/<tenant_id>/``; :meth:`restore_all`
    rebuilds the whole fleet after a restart, resuming every engine
    from its last verified snapshot (a missing or corrupt snapshot
    restarts that tenant empty — and counts on its health).
    """

    def __init__(
        self,
        snapshot_dir: Optional[str] = None,
        *,
        journal: bool = True,
        journal_fsync: str = "batch",
        journal_segment_bytes: Optional[int] = None,
    ):
        self.snapshot_dir = (
            Path(snapshot_dir) if snapshot_dir is not None else None
        )
        #: write-ahead journal toggle + fsync policy for every tenant
        #: (journals need a snapshot dir; without one ingest is
        #: memory-only and nothing is durable to begin with).
        self.journal_enabled = bool(journal)
        self.journal_fsync = journal_fsync
        self.journal_segment_bytes = journal_segment_bytes
        self._tenants: Dict[str, Tenant] = {}
        #: fold pool every current and future tenant routes through
        #: (``None`` = in-process folds); set via :meth:`attach_pool`.
        self.fold_pool = None
        if self.snapshot_dir is not None:
            self.snapshot_dir.mkdir(parents=True, exist_ok=True)

    def attach_pool(self, pool) -> None:
        """Route every current and future tenant through ``pool``."""
        self.fold_pool = pool
        for tenant in self._tenants.values():
            tenant.attach_pool(pool)

    def detach_pool(self) -> None:
        """Pull every tenant's state back in-process (e.g. shutdown)."""
        self.fold_pool = None
        for tenant in self._tenants.values():
            tenant.detach_pool()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._tenants

    def ids(self) -> List[str]:
        return sorted(self._tenants)

    def get(self, tenant_id: str) -> Optional[Tenant]:
        return self._tenants.get(tenant_id)

    # ------------------------------------------------------------------
    def create(self, tenant_id: str, config: TenantConfig) -> Tenant:
        """Create (or idempotently re-create) a tenant.

        Re-creating an existing tenant with the *same* config returns
        it unchanged — the natural retry after a dropped connection;
        with a different config it raises, because detector state under
        one configuration cannot continue under another.
        """
        if not tenant_id or "/" in tenant_id or tenant_id.startswith("."):
            raise ValueError(f"invalid tenant id: {tenant_id!r}")
        existing = self._tenants.get(tenant_id)
        if existing is not None:
            if existing.config != config:
                raise ValueError(
                    f"tenant {tenant_id!r} already exists with a "
                    "different configuration"
                )
            return existing
        tenant = self._build(tenant_id, config, restore=False)
        self._tenants[tenant_id] = tenant
        self._persist()
        return tenant

    def remove(self, tenant_id: str) -> bool:
        """Forget a tenant (its snapshot files are left on disk)."""
        tenant = self._tenants.pop(tenant_id, None)
        if tenant is None:
            return False
        tenant.abandon_pool()
        tenant.close_journal()
        self._persist()
        return True

    # ------------------------------------------------------------------
    def _store_for(
        self, tenant_id: str, telemetry: PipelineTelemetry
    ) -> Optional[CheckpointStore]:
        if self.snapshot_dir is None:
            return None
        return CheckpointStore(
            self.snapshot_dir / tenant_id, health=telemetry.health
        )

    def _build(
        self, tenant_id: str, config: TenantConfig, restore: bool
    ) -> Tenant:
        telemetry = PipelineTelemetry()
        store = self._store_for(tenant_id, telemetry)
        journal = None
        if self.snapshot_dir is not None and self.journal_enabled:
            kwargs = {}
            if self.journal_segment_bytes is not None:
                kwargs["segment_bytes"] = self.journal_segment_bytes
            journal = ChunkJournal(
                self.snapshot_dir / tenant_id / JOURNAL_DIR_NAME,
                fsync=self.journal_fsync,
                health=telemetry.health,
                **kwargs,
            )
            if not restore:
                # A *fresh* tenant must not inherit segments left by an
                # earlier same-named tenant: its engine starts empty.
                journal.reset()
        tenant = Tenant(
            tenant_id=tenant_id,
            config=config,
            engine=config.build_engine(telemetry, store),
            telemetry=telemetry,
            store=store,
            journal=journal,
        )
        if restore:
            tenant.restore_snapshot()
        if self.fold_pool is not None:
            tenant.attach_pool(self.fold_pool)
        return tenant

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def registry_path(self) -> Optional[Path]:
        if self.snapshot_dir is None:
            return None
        return self.snapshot_dir / REGISTRY_NAME

    def _persist(self) -> None:
        path = self.registry_path()
        if path is None:
            return
        atomic_write_json(
            path,
            {
                "magic": _REGISTRY_MAGIC,
                "tenants": {
                    tenant_id: tenant.config.as_dict()
                    for tenant_id, tenant in sorted(self._tenants.items())
                },
            },
        )

    def restore_all(self) -> List[str]:
        """Rebuild every registered tenant from disk (boot path).

        Returns the restored tenant ids.  Unknown or mis-tagged
        registry files are ignored (empty fleet) rather than guessed
        at; individual tenants whose snapshot is missing or corrupt
        come back empty, with the corruption accounted on their health.
        """
        path = self.registry_path()
        if path is None or not path.exists():
            return []
        try:
            payload = json.loads(path.read_text())
        except ValueError:
            return []
        if payload.get("magic") != _REGISTRY_MAGIC:
            return []
        restored = []
        for tenant_id, config_dict in payload.get("tenants", {}).items():
            config = TenantConfig.from_dict(config_dict)
            tenant = self._build(tenant_id, config, restore=True)
            # Reconcile the snapshot's sequence watermark against the
            # journal tail: every acked chunk the snapshot missed is
            # re-folded here, before the tenant takes traffic.  One
            # tenant's damaged journal (torn tails are quarantined on
            # its own health) never blocks its siblings.
            tenant.replay_journal()
            self._tenants[tenant_id] = tenant
            restored.append(tenant_id)
        return restored

    def snapshot_all(self) -> Dict[str, Optional[str]]:
        """Force a snapshot of every tenant; returns id -> path."""
        return {
            tenant_id: tenant.save_snapshot()
            for tenant_id, tenant in sorted(self._tenants.items())
        }

    def close_journals(self) -> None:
        """Flush and close every tenant's journal (graceful stop)."""
        for tenant in self._tenants.values():
            tenant.close_journal()
