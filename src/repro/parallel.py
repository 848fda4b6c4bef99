"""Shard-parallel streaming detection (``repro.parallel``).

The three aggressive-hitter definitions are all keyed per *source*
address: events group packets by (src, dport, proto), the dispersion
and volume rules judge per-source events, and the port rule counts
per-(src, day) distinct ports.  Detection is therefore embarrassingly
parallel across sources — hash-partition the capture by source address
and every flow, every event, and every per-source statistic lands
wholly inside one shard.

This module exploits that: it shards the capture by source, folds each
shard into one independent
:class:`~repro.core.streaming.StreamingDetector` (in worker processes
once there is more than one shard), folds the shard states back
together through the explicit ``merge()`` methods on the detector and
its per-definition structures, and calls
:meth:`~repro.core.streaming.StreamingDetector.finish` once on the
merged state.  Because thresholds (the volume and port ECDF tails) are
only derived *after* the merge — over exactly the sample a one-shard
run would have accumulated — the events, thresholds and AH sets are
**identical for any shard count**, and identical to the batch path.  A
hypothesis property test pins this invariant.

Every offline streaming run — one worker included — takes the same
steps in :func:`_detect`: one task per worker, shard ``i`` holding the
sources with ``shard_of(src, workers) == i``; fold each shard's chunks
into its own detector (:func:`fold`), merge in shard order, finish
once.  Runs differ only in where a shard's chunks come from, its
:class:`PacketSource`:

* :class:`DirectorySource` — :func:`parallel_detect_directory` points
  the workers at a ``chunk-*.npz`` directory written by
  :func:`repro.io.packetlog.save_packets_chunked`; each worker reads
  every archive itself and keeps only its shard's packets, so no packet
  ever crosses a process pipe and parent memory stays at one chunk.
* :class:`LazySource` — :func:`parallel_generate_detect` ships each
  shard its *scanners* and the worker generates their capture locally.

The per-chunk gauges (packets, window end, watermark) travel back in
each :class:`WorkerReport`; the parent sums them per chunk, so every
worker count reports the same chunk count, peak chunk and watermark
lag.

Every entry point executes through the fault-tolerant layer
(:mod:`repro.core.faults`): failed shards are retried with backoff, a
dead worker process respawns the pool and re-runs only the unfinished
shards, and — with ``checkpoint_dir`` set — each finished shard's state
is persisted atomically under a content digest so an interrupted run
resumes by re-executing exactly the missing shards
(:func:`resume_run`).  Because retry and resume re-run whole shards
from their inputs and the merge is always performed in shard-index
order, a faulted or resumed run is bit-identical to a fault-free one.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.config import DetectionConfig
from repro.core.detection import DetectionResult
from repro.core.events import EventTable
from repro.core.faults import (
    CheckpointStore,
    FaultPlan,
    RetryPolicy,
    run_sharded,
    sha256_hex,
)
from repro.core.engine import DetectionEngine
from repro.core.streaming import StreamingDetector
from repro.core.telemetry import PipelineTelemetry, RunHealth
from repro.packet import shard_of
from repro.scanners.lazy import emit_chunks
from repro.telescope.chunks import CaptureChunk

@dataclass(frozen=True)
class WorkerReport:
    """What one shard worker processed (telemetry, not results)."""

    shard: int
    packets: int
    events_finalized: int
    open_flows: int
    peak_open_flows: int
    #: wall-clock seconds spent inside the worker's loop (producing the
    #: chunks plus detecting).
    seconds: float
    watermark: Optional[float]
    #: wall-clock seconds of ``seconds`` spent producing this shard's
    #: chunks: generating them, or reading and verifying archives.
    generate_seconds: float = 0.0
    #: RNG span streams derived during lazy generation (pre-dedup
    #: derivation units; 0 when packets were shipped).
    spans_derived: int = 0
    #: derived spans that actually produced packets (<= spans_derived).
    spans_emitted: int = 0
    #: chunk archives this worker skipped as corrupt (degraded-mode
    #: directory reads only; every worker sees the same archives, so
    #: the parent deduplicates when folding into ``RunHealth``).
    quarantined: Tuple[str, ...] = ()
    #: one ``(index, window_end, packets, watermark)`` row per chunk the
    #: source yielded: ``index`` names the chunk in the whole capture
    #: (the same in every shard), ``packets`` counts this shard's share
    #: and ``watermark`` is the shard detector's after folding it.
    chunk_gauges: Tuple[tuple, ...] = ()


@dataclass
class ParallelResult:
    """Output of a shard-parallel detection run."""

    events: EventTable
    detections: Dict[int, DetectionResult]
    worker_reports: List[WorkerReport]

    @property
    def workers(self) -> int:
        return len(self.worker_reports)


class PacketSource(Protocol):
    """Where one shard's packets come from.

    Implementations are picklable (they cross into pool workers) and
    yield time-ordered :class:`~repro.telescope.chunks.CaptureChunk`\\ es
    whose ``index`` is the chunk's position in the whole capture — the
    same in every shard, so the parent can sum per-chunk gauges across
    shards.  Once exhausted, a source may add its own
    :class:`WorkerReport` fields to ``report`` (quarantined archives,
    span counters...).
    """

    def chunks(self, report: dict) -> Iterator[CaptureChunk]:
        ...


@dataclass(frozen=True)
class DirectorySource:
    """A ``save_packets_chunked`` directory, read one archive at a time.

    Archives are verified against the directory's digest manifest; a
    damaged one raises (strict) or is skipped and reported back
    (``on_corrupt="quarantine"``) — every task skips the *same*
    archives, so degraded-mode results stay deterministic across shard
    counts.  A chunk's index is its archive number; its window is the
    epoch-aligned ``chunk_seconds`` window the manifest records, or its
    own first and last timestamps when the manifest records none.
    """

    directory: str
    on_corrupt: str = "raise"

    def chunks(self, report: dict) -> Iterator[CaptureChunk]:
        from repro.io.packetlog import iter_packets_verified, load_manifest

        chunk_seconds = load_manifest(self.directory).get("chunk_seconds")
        quarantined: List[str] = []
        for index, (path, batch) in enumerate(
            iter_packets_verified(self.directory, self.on_corrupt)
        ):
            if batch is None:
                quarantined.append(str(path))
                continue
            if not len(batch):
                continue
            start, end = float(batch.ts.min()), float(batch.ts.max())
            if chunk_seconds:
                start = math.floor(start / chunk_seconds) * chunk_seconds
                end = start + chunk_seconds
            yield CaptureChunk(index, start, end, batch)
        report["quarantined"] = tuple(quarantined)


@dataclass(frozen=True)
class LazySource:
    """A population slice whose capture the worker generates itself.

    The shard carries its *scanners* (a compact description of behavior,
    kilobytes) instead of their packets (gigabytes at scale) and streams
    their capture with :func:`~repro.scanners.lazy.emit_chunks` — raw
    packets never cross a process boundary, and no process ever
    materializes a full capture.  A chunk's index is its window's position on the
    epoch-aligned ``chunk_seconds`` grid; quiet windows are skipped.
    """

    scanners: list
    view: object
    chunk_seconds: float
    window: Optional[tuple] = None

    def chunks(self, report: dict) -> Iterator[CaptureChunk]:
        yield from emit_chunks(
            self.scanners, self.view, self.chunk_seconds, self.window, report
        )


def fold(
    shard: int,
    source: PacketSource,
    shard_filter: Optional[Tuple[int, int]],
    timeout: float,
    dark_size: int,
    config: Optional[DetectionConfig],
    day_seconds: float,
) -> Tuple[StreamingDetector, WorkerReport]:
    """The shard worker: fold one shard's packets into a fresh detector.

    Top-level (not a closure) so it pickles under any multiprocessing
    start method.  ``shard_filter`` is ``None`` when the source holds
    only this shard's sources, else ``(n_shards, shard)``: keep the
    packets with ``shard_of(src, n_shards) == shard``.  Records one
    gauge row per chunk (:attr:`WorkerReport.chunk_gauges`) and the
    seconds spent waiting on the source.  Returns the *unfinished*
    detector — thresholds must only be derived after the merge.
    """
    t0 = t_prev = time.perf_counter()
    detector = StreamingDetector(timeout, dark_size, config, day_seconds)
    extra: dict = {}
    gauges = []
    source_seconds = 0.0
    for chunk in source.chunks(extra):
        source_seconds += time.perf_counter() - t_prev
        batch = chunk.packets
        if shard_filter is not None:
            n_shards, keep = shard_filter
            batch = batch.select(shard_of(batch.src, n_shards) == keep)
        if len(batch):
            detector.add_batch(batch)
        gauges.append((chunk.index, chunk.end, len(batch), detector.watermark))
        t_prev = time.perf_counter()
    report = WorkerReport(
        shard=shard,
        packets=detector.packets_seen,
        events_finalized=detector.events_finalized,
        open_flows=detector.open_flows,
        peak_open_flows=detector.peak_open_flows,
        seconds=time.perf_counter() - t0,
        watermark=detector.watermark,
        generate_seconds=source_seconds,
        chunk_gauges=tuple(gauges),
        **extra,
    )
    return detector, report


# ----------------------------------------------------------------------
# Fault-tolerance plumbing shared by the entry points
# ----------------------------------------------------------------------


def _resolve_health(telemetry: Optional[PipelineTelemetry]) -> RunHealth:
    """The RunHealth sink faults are accounted on (discarded if no
    telemetry was requested)."""
    return telemetry.health if telemetry is not None else RunHealth()


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError("workers must be >= 1")


def _population_sources(scanners: Sequence) -> np.ndarray:
    """Every scanner's source address, in population order."""
    return np.array([int(s.src) for s in scanners], dtype=np.uint64)


def _config_meta(config: Optional[DetectionConfig]) -> Optional[dict]:
    return None if config is None else dataclasses.asdict(config)


def _window_meta(window: Optional[tuple]) -> Optional[list]:
    # JSON round-trips tuples as lists; normalize so a resumed run's
    # metadata compares equal to the recorded one.
    return None if window is None else [float(edge) for edge in window]


def _checkpoint_store(
    checkpoint_dir, health: RunHealth, meta: dict
) -> Optional[CheckpointStore]:
    """Open (or adopt) a run's checkpoint directory; ``None`` disables
    checkpointing.  Mismatched run parameters raise — see
    :meth:`~repro.core.faults.CheckpointStore.require_meta`."""
    if checkpoint_dir is None:
        return None
    store = CheckpointStore(checkpoint_dir, health)
    store.require_meta(meta)
    return store


def _dump_detect_state(result: tuple) -> bytes:
    detector, report = result
    return detector.to_bytes(report=dataclasses.asdict(report))


def _load_detect_state(payload: bytes) -> tuple:
    """A detect checkpoint's detector and its worker report, rebuilt
    from the JSON header: ``ValueError`` when either is unreadable."""
    detector, header = StreamingDetector._read(payload)
    try:
        report = dict(header["report"])
        if "quarantined" in report:
            report["quarantined"] = tuple(report["quarantined"])
        if "chunk_gauges" in report:
            report["chunk_gauges"] = tuple(map(tuple, report["chunk_gauges"]))
        return detector, WorkerReport(**report)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"checkpoint worker report unreadable: {exc!r}"
        ) from exc


def _record_run(
    telemetry: PipelineTelemetry,
    reports: Sequence[WorkerReport],
    engine: DetectionEngine,
    events: int,
    merge_seconds: float,
) -> None:
    """Fold the worker reports of a finished run into ``telemetry``.

    Per-chunk gauges are summed across shards chunk by chunk, so the
    chunk count, peak chunk and watermark lag do not depend on the
    worker count; the run watermark after chunk ``i`` is the newest
    shard watermark so far.  Stages: ``generate`` (producing chunks),
    ``detect`` (folding them) and ``merge`` (merge plus finish).
    """
    rows = sorted(
        (row for report in reports for row in report.chunk_gauges),
        key=lambda row: row[0],
    )
    watermark = None
    for _, group in groupby(rows, key=lambda row: row[0]):
        group = list(group)
        marks = [mark for *_, mark in group if mark is not None]
        if watermark is not None:
            marks.append(watermark)
        watermark = max(marks) if marks else None
        telemetry.record_chunk(
            packets=sum(row[2] for row in group),
            events_finalized=0,
            open_flows=0,
            window_end=group[0][1],
            watermark=watermark,
        )
    for report in reports:
        telemetry.record_worker(
            shard=report.shard,
            packets=report.packets,
            events=report.events_finalized,
            peak_open_flows=report.peak_open_flows,
            seconds=report.seconds,
            generate_seconds=report.generate_seconds,
            spans_derived=report.spans_derived,
            spans_emitted=report.spans_emitted,
        )
    packets = sum(r.packets for r in reports)
    finalized = sum(r.events_finalized for r in reports)
    telemetry.stage("generate").add(
        packets, packets, sum(r.generate_seconds for r in reports)
    )
    telemetry.stage("detect").add(
        packets,
        finalized,
        sum(r.seconds - r.generate_seconds for r in reports),
    )
    telemetry.stage("merge").add(finalized, events, merge_seconds)
    telemetry.total_events = events
    telemetry.final_open_flows = engine.open_flows
    if engine.watermark is not None:
        telemetry.watermark = engine.watermark


def _detect(
    inputs: Sequence[Tuple[PacketSource, Optional[Tuple[int, int]]]],
    detector_args: tuple,
    meta: dict,
    *,
    use_processes: bool,
    telemetry: Optional[PipelineTelemetry],
    retry: Optional[RetryPolicy],
    fault_plan: Optional[FaultPlan],
    checkpoint_dir: Union[str, Path, None],
) -> ParallelResult:
    """Run a sharded detection: fold every shard, merge, finish once.

    The one offline streaming detection driver, behind every entry
    point and every worker count; a single shard folds in-process.
    ``inputs`` holds one ``(source, shard_filter)`` pair per shard;
    ``detector_args`` is ``(timeout, dark_size, config, day_seconds)``;
    ``meta`` names the entry point and its inputs for ``run.json``.
    The engine merges the shard states in shard order before deriving
    thresholds once; the worker reports are folded into ``telemetry``
    here (:func:`_record_run`).
    """
    timeout, dark_size, config, day_seconds = detector_args
    workers = len(inputs)
    health = _resolve_health(telemetry)
    store = _checkpoint_store(
        checkpoint_dir,
        health,
        {
            **meta,
            "workers": workers,
            "timeout": float(timeout),
            "dark_size": int(dark_size),
            "day_seconds": float(day_seconds),
            "config": _config_meta(config),
        },
    )
    shard_results = run_sharded(
        fold,
        [
            (shard, source, shard_filter, *detector_args)
            for shard, (source, shard_filter) in enumerate(inputs)
        ],
        policy=retry,
        plan=fault_plan,
        use_processes=use_processes and workers > 1,
        health=health,
        store=store,
        kind="detect",
        dumps=_dump_detect_state,
        loads=_load_detect_state,
    )
    reports = [report for _, report in shard_results]
    # every shard reads the same archives: dedup, in order
    for path in dict.fromkeys(
        path for report in reports for path in report.quarantined
    ):
        health.record_quarantine(path)
    t0 = time.perf_counter()
    engine = DetectionEngine.from_shards(
        [detector for detector, _ in shard_results]
    )
    events, detections = engine.finish()
    if telemetry is not None:
        _record_run(
            telemetry, reports, engine, len(events), time.perf_counter() - t0
        )
    return ParallelResult(
        events=events, detections=detections, worker_reports=reports
    )


def parallel_detect_directory(
    directory: Union[str, Path],
    timeout: float,
    dark_size: int,
    config: Optional[DetectionConfig] = None,
    day_seconds: float = 86_400.0,
    *,
    workers: int,
    use_processes: bool = True,
    telemetry: Optional[PipelineTelemetry] = None,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint_dir: Union[str, Path, None] = None,
    on_corrupt: str = "raise",
) -> ParallelResult:
    """Shard-parallel detection over a ``save_packets_chunked`` directory.

    Each worker streams the archive sequence itself and keeps the
    packets of its own ``shard_of(src, workers)`` shard, so raw packets
    never cross a process boundary; only the (much smaller) merged
    detector states travel back.  The directory is validated up front —
    a missing directory, no ``chunk-*.npz`` archives, a gap in the
    chunk sequence, or a missing or damaged manifest raise immediately
    with a clear message rather than failing mid-run.

    Chunk archives are digest-verified against the directory manifest.
    ``on_corrupt="raise"`` (default) surfaces the first damaged archive
    as a :class:`~repro.core.faults.ChunkCorruptionError` naming its
    path; ``"quarantine"`` skips damaged archives, accounts them on
    ``telemetry.health``, and detects over the survivors.

    With ``checkpoint_dir`` set, finished shard states persist there and
    a rerun — or :func:`resume_run` on the directory — re-executes only
    the missing shards; the run's parameters are recorded in
    ``run.json`` and a mismatched resume raises instead of merging
    incompatible states.
    """
    from repro.io.packetlog import CORRUPT_MODES, chunk_paths, load_manifest

    _check_workers(workers)
    if on_corrupt not in CORRUPT_MODES:
        raise ValueError(
            f"on_corrupt must be one of {CORRUPT_MODES}, got {on_corrupt!r}"
        )
    # validate eagerly, before any process spawns
    chunk_paths(directory)
    load_manifest(directory)
    # Absolute, so a resume from another working directory reads the
    # same archives (run.json records it).
    directory = str(Path(directory).resolve())
    source = DirectorySource(directory, on_corrupt)
    return _detect(
        [
            (source, None if workers == 1 else (workers, shard))
            for shard in range(workers)
        ],
        (timeout, dark_size, config, day_seconds),
        {"kind": "directory", "directory": directory},
        use_processes=use_processes,
        telemetry=telemetry,
        retry=retry,
        fault_plan=fault_plan,
        checkpoint_dir=checkpoint_dir,
    )


def resume_run(
    run_dir: Union[str, Path],
    *,
    use_processes: bool = True,
    telemetry: Optional[PipelineTelemetry] = None,
    retry: Optional[RetryPolicy] = None,
    on_corrupt: str = "raise",
) -> ParallelResult:
    """Resume a checkpointed :func:`parallel_detect_directory` run.

    Reads the run parameters recorded in ``<run_dir>/run.json``,
    reloads every shard state whose checkpoint verifies, and re-executes
    only the shards that are missing or damaged — the merged result is
    bit-identical to a fault-free run.  Lazy generate+detect runs,
    whose inputs are not file-addressable, resume by re-invoking their
    entry point with the same ``checkpoint_dir`` instead.
    """
    store = CheckpointStore(run_dir)
    meta = store.load_meta()
    if meta is None:
        raise FileNotFoundError(
            f"no run.json under {run_dir} — not a checkpointed run "
            "directory"
        )
    if meta.get("kind") != "directory":
        raise ValueError(
            f"run {run_dir} was checkpointed by a "
            f"{meta.get('kind')!r} entry point, which does not record "
            "its inputs on disk; resume it by re-invoking that entry "
            "point with the same checkpoint_dir"
        )
    config = (
        None if meta["config"] is None else DetectionConfig(**meta["config"])
    )
    return parallel_detect_directory(
        meta["directory"],
        meta["timeout"],
        meta["dark_size"],
        config,
        meta["day_seconds"],
        workers=meta["workers"],
        use_processes=use_processes,
        telemetry=telemetry,
        retry=retry,
        checkpoint_dir=run_dir,
        on_corrupt=on_corrupt,
    )


def shard_scanners(scanners: Sequence, n_shards: int) -> List[list]:
    """Partition a scanner population by source-address shard.

    Uses the same Fibonacci hash as :func:`shard_of`, so generating a
    shard's scanners locally produces exactly the packets that sharding
    the materialized capture would have routed to that worker (every
    packet carries its scanner's source).  Scanners with the spoofed
    sentinel source 0 land in ``shard_of(0)``'s worker; their forged
    per-packet sources would scatter under packet sharding, but
    detection is per-source and each forged source contributes one
    packet, so results are unaffected.  Population order is preserved
    within each shard (part of the tie-breaking contract).
    """
    shards: List[list] = [[] for _ in range(n_shards)]
    for scanner, shard in zip(
        scanners, shard_of(_population_sources(scanners), n_shards)
    ):
        shards[shard].append(scanner)
    return shards


def parallel_generate_detect(
    scanners: Sequence,
    view,
    chunk_seconds: float,
    timeout: float,
    dark_size: int,
    config: Optional[DetectionConfig] = None,
    day_seconds: float = 86_400.0,
    *,
    workers: int,
    window: Optional[tuple] = None,
    use_processes: bool = True,
    telemetry: Optional[PipelineTelemetry] = None,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint_dir: Union[str, Path, None] = None,
) -> ParallelResult:
    """Shard-parallel detection with shard-local lazy generation.

    The synthetic-capture twin of :func:`parallel_detect_directory`:
    instead of sharding packets, the parent shards the *population* by
    source address (:func:`shard_scanners`) and each worker lazily
    generates its own shard's capture
    (:func:`~repro.scanners.lazy.emit_chunks`) while
    detecting.  Raw packets never cross a process pipe and no process —
    parent or worker — ever materializes a capture, so peak memory per
    worker is one chunk plus open generation spans and open flows.

    Results are identical to the batch path for any worker
    count: sharding scanners by source is equivalent to sharding their
    packets (every packet carries its scanner's source), and thresholds
    are derived once, after the merge.

    Args:
        scanners: the full population, in emission order.
        view: the monitored address region (the telescope's view).
        chunk_seconds: generation window length (epoch-aligned).
        timeout: event inactivity timeout.
        dark_size: telescope aperture (threshold normalization).
        config: detection thresholds configuration.
        day_seconds: day length for per-day statistics.
        workers: number of source shards / worker processes.
        window: overall [start, end) restriction (the scenario window).
        use_processes: ``False`` runs shards serially in-process (same
            code path; useful for tests).
        telemetry: optional gauge sink; per-worker generate/detect
            throughput is recorded after the join.
    """
    _check_workers(workers)
    scanners = list(scanners)
    return _detect(
        [
            (LazySource(shard, view, chunk_seconds, window), None)
            for shard in shard_scanners(scanners, workers)
        ],
        (timeout, dark_size, config, day_seconds),
        {
            "kind": "generate",
            "chunk_seconds": float(chunk_seconds),
            "window": _window_meta(window),
            "n_scanners": len(scanners),
            "population": sha256_hex(_population_sources(scanners).tobytes()),
        },
        use_processes=use_processes,
        telemetry=telemetry,
        retry=retry,
        fault_plan=fault_plan,
        checkpoint_dir=checkpoint_dir,
    )
