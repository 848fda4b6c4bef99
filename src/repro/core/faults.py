"""Fault-tolerant shard execution (``repro.core.faults``).

The parallel entry points in :mod:`repro.parallel` split a run into
per-shard units whose states merge deterministically — which makes a
shard the natural unit of *recovery* too.  This module supplies the
machinery every one of those entry points now routes through:

* :func:`run_sharded` — a resilient map over shard worker functions:
  per-shard submission with bounded retry and exponential backoff, a
  watchdog that treats a stalled pool as a failure, and
  ``BrokenProcessPool`` recovery that respawns the pool and re-runs
  only the shards that had not finished.
* :class:`CheckpointStore` — crash-safe persistence of finished shard
  states: payloads are written atomically (tmp + fsync + rename) under
  a content digest, and a corrupted or truncated checkpoint is
  discarded (and counted) rather than trusted, so a resumed run
  re-executes exactly the missing or damaged shards.
* :class:`FaultPlan` — deterministic, seed-derived fault injection
  (kill / hard-abort / delay of specific shard attempts) that the test
  suite and the CI fault matrix use to exercise every recovery path.

Everything here is mechanism, not policy: results of a faulted run are
bit-identical to a fault-free run because retry and resume re-execute
whole shards from their inputs — shard workers are pure functions of
``(shard args, derived RNG streams)`` — and the merge order never
depends on completion order.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union


class FaultError(RuntimeError):
    """Base class of the fault-layer errors."""


class ChunkCorruptionError(FaultError, ValueError):
    """A packet-chunk archive is truncated, altered, or unreadable.

    Raised by the chunk readers in :mod:`repro.io.packetlog` with the
    offending path in the message.  Not retryable: re-reading corrupt
    bytes cannot succeed, so :func:`run_sharded` surfaces it immediately
    instead of burning retries.
    """


class ChunkManifestError(ChunkCorruptionError):
    """A chunk directory's digest manifest is missing or unreadable.

    No chunk of such a directory can be verified, so quarantine mode
    refuses it too.
    """


class NonFiniteTimestampError(ChunkCorruptionError):
    """A packet chunk decodes but carries a NaN or infinite timestamp.

    No event or time order is defined for such a packet, so the chunk
    is refused whole, like any other undecodable chunk.
    """


class InjectedFault(FaultError):
    """A :class:`FaultPlan` killed this shard attempt (tests only)."""


class WatchdogTimeout(FaultError):
    """No shard made progress within the watchdog window."""


class ShardFailedError(FaultError):
    """A shard exhausted its retry budget.

    Carries the shard index and the last underlying exception (also
    chained as ``__cause__``).
    """

    def __init__(self, shard: int, attempts: int, cause: BaseException):
        super().__init__(
            f"shard {shard} failed after {attempts} attempt(s): "
            f"{type(cause).__name__}: {cause}"
        )
        self.shard = shard
        self.attempts = attempts
        self.cause = cause


#: Exception types that retrying cannot fix — surfaced immediately.
NON_RETRYABLE = (ChunkCorruptionError, KeyboardInterrupt, SystemExit)


def retryable(exc: BaseException) -> bool:
    """Whether a shard failure is worth re-running the shard for."""
    return not isinstance(exc, NON_RETRYABLE)


# ----------------------------------------------------------------------
# Atomic bytes + digests
# ----------------------------------------------------------------------


def sha256_hex(data: bytes) -> str:
    """Content digest used by checkpoints and the chunk manifest."""
    return hashlib.sha256(data).hexdigest()


def atomic_write_bytes(path: Union[str, Path], *parts: bytes) -> None:
    """Write ``parts``, end to end, to ``path`` crash-safely.

    The bytes land in a temporary file in the *same directory* (so the
    final rename cannot cross filesystems), are flushed and fsynced,
    and only then renamed over ``path``.  A crash at any point leaves
    either the old file or the new file — never a truncated hybrid —
    and the stray ``.tmp`` is ignored by every reader.  Nothing is
    hashed here: a caller that needs a digest hashes its own bytes.
    The rename itself is durable only once the directory is fsynced
    (:func:`fsync_directory`).
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            for part in parts:
                handle.write(part)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_json(path: Union[str, Path], obj) -> None:
    """Crash-safe JSON write (sorted keys, indented).

    Used for small files that must never be observed half-written —
    e.g. the tenant registry the :mod:`repro.serve` service re-reads on
    boot to restore its tenants, and engine snapshot manifests.
    """
    data = json.dumps(obj, indent=2, sort_keys=True).encode()
    atomic_write_bytes(path, data)


def fsync_directory(path: Union[str, Path]) -> None:
    """Make the renames and unlinks done in directory ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How hard :func:`run_sharded` fights for each shard.

    Attributes:
        max_retries: re-runs allowed per shard beyond the first attempt.
        backoff_seconds: sleep before the first retry.
        backoff_factor: multiplier applied per further retry.
        max_backoff_seconds: cap on any single backoff sleep.
        watchdog_seconds: if no shard completes within this window the
            pool is presumed wedged — it is torn down, unfinished shards
            are charged one attempt, and a fresh pool retries them.
            ``None`` disables the watchdog.
    """

    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 2.0
    watchdog_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.watchdog_seconds is not None and self.watchdog_seconds <= 0:
            raise ValueError("watchdog_seconds must be positive")

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        raw = self.backoff_seconds * self.backoff_factor ** (attempt - 1)
        return min(raw, self.max_backoff_seconds)


# ----------------------------------------------------------------------
# Deterministic fault injection
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected shard failures.

    Keys are shard indices; a value of ``k`` fails that shard's first
    ``k`` attempts (attempt numbers are 0-based), after which the shard
    runs clean — so a plan with ``k <= max_retries`` always converges.

    Attributes:
        kill: shards whose attempts raise :class:`InjectedFault` — the
            well-behaved failure (an exception crossing the future).
        abort: shards whose attempts hard-exit the worker process
            (``os._exit``), producing a real ``BrokenProcessPool`` in
            the parent.  Downgraded to a :class:`InjectedFault` raise
            when the shard runs in-process, where a hard exit would
            kill the caller.
        delay: shards whose *first* attempt sleeps this many seconds
            before working (watchdog fodder).

    The plan is an ordinary frozen dataclass of dicts: picklable, so it
    travels to worker processes, and trivially deterministic.
    :meth:`from_seed` derives a plan from an integer seed for
    property-style tests.
    """

    kill: Mapping[int, int] = field(default_factory=dict)
    abort: Mapping[int, int] = field(default_factory=dict)
    delay: Mapping[int, float] = field(default_factory=dict)

    @classmethod
    def from_seed(
        cls, seed: int, n_shards: int, *, kills: int = 1, mode: str = "kill"
    ) -> "FaultPlan":
        """Derive a plan killing ``kills`` distinct shards once each.

        The victim set is a pure function of ``(seed, n_shards, kills)``
        — numpy's seeded choice — so two runs with the same seed inject
        exactly the same faults.
        """
        import numpy as np

        if mode not in ("kill", "abort"):
            raise ValueError(f"unknown fault mode: {mode!r}")
        if not 0 <= kills <= n_shards:
            raise ValueError("kills must be in [0, n_shards]")
        rng = np.random.default_rng(seed)
        victims = rng.choice(n_shards, size=kills, replace=False)
        schedule = {int(shard): 1 for shard in victims}
        if mode == "abort":
            return cls(abort=schedule)
        return cls(kill=schedule)

    def apply(self, shard: int, attempt: int, in_process: bool) -> None:
        """Inject this shard attempt's scheduled fault, if any."""
        delay = self.delay.get(shard)
        if delay is not None and attempt == 0:
            time.sleep(delay)
        if attempt < self.abort.get(shard, 0):
            if in_process:
                raise InjectedFault(
                    f"injected abort (in-process) of shard {shard} "
                    f"attempt {attempt}"
                )
            os._exit(1)
        if attempt < self.kill.get(shard, 0):
            raise InjectedFault(
                f"injected kill of shard {shard} attempt {attempt}"
            )


def _invoke(worker, shard, attempt, plan, args, in_process):
    """Top-level worker trampoline (picklable): inject, then run."""
    if plan is not None:
        plan.apply(shard, attempt, in_process)
    return worker(*args)


# ----------------------------------------------------------------------
# Crash-safe checkpoint store
# ----------------------------------------------------------------------

_CKPT_MAGIC = b"repro-checkpoint-v1"


class CheckpointStore:
    """Digest-verified per-shard state files under one run directory.

    Layout: ``<run_dir>/<kind>-<shard>.ckpt`` holding a small header
    (magic, payload sha256) followed by the payload, each file written
    atomically.  ``<run_dir>/run.json`` records the run's parameters so
    a resume with mismatched configuration fails loudly instead of
    merging incompatible shard states.

    A checkpoint that is missing, truncated, or whose digest does not
    match is treated as *absent* — :meth:`load` returns ``None``, the
    damage is counted on the attached :class:`~repro.core.telemetry.RunHealth`,
    and the shard simply re-executes.  Corruption can therefore delay a
    resume but never poison its result.
    """

    def __init__(self, run_dir: Union[str, Path], health=None):
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.health = health

    # ------------------------------------------------------------------
    def path_for(self, kind: str, shard: int) -> Path:
        return self.run_dir / f"{kind}-{shard:05d}.ckpt"

    def save(self, kind: str, shard: int, payload: bytes) -> Path:
        """Persist one shard's serialized state atomically."""
        header = b"%s\n%s\n" % (_CKPT_MAGIC, sha256_hex(payload).encode())
        path = self.path_for(kind, shard)
        atomic_write_bytes(path, header, payload)
        if self.health is not None:
            self.health.checkpoint_writes += 1
        return path

    def load(self, kind: str, shard: int) -> Optional[bytes]:
        """The verified payload, or ``None`` if absent or damaged."""
        path = self.path_for(kind, shard)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        magic, _, rest = raw.partition(b"\n")
        digest, _, payload = rest.partition(b"\n")
        if magic != _CKPT_MAGIC or sha256_hex(payload) != digest.decode(
            "ascii", errors="replace"
        ):
            if self.health is not None:
                self.health.checkpoint_corrupt += 1
            return None
        return payload

    # ------------------------------------------------------------------
    def meta_path(self) -> Path:
        return self.run_dir / "run.json"

    def write_meta(self, meta: dict) -> None:
        """Record the run's parameters (atomic; idempotent)."""
        atomic_write_json(self.meta_path(), meta)

    def load_meta(self) -> Optional[dict]:
        try:
            return json.loads(self.meta_path().read_text())
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            return None

    def require_meta(self, meta: dict) -> None:
        """Adopt ``meta`` on first use; refuse a mismatched resume.

        Shard states are only mergeable when the run configuration
        (worker count, thresholds, inputs...) is identical, so resuming
        into a directory recorded under different parameters raises.
        """
        existing = self.load_meta()
        if existing is None:
            self.write_meta(meta)
            return
        if existing != meta:
            changed = sorted(
                key
                for key in set(existing) | set(meta)
                if existing.get(key) != meta.get(key)
            )
            raise ValueError(
                f"checkpoint directory {self.run_dir} was written by a "
                f"different run configuration (mismatched: {changed}); "
                "refusing to merge incompatible shard states"
            )


# ----------------------------------------------------------------------
# Resilient shard execution
# ----------------------------------------------------------------------


def run_sharded(
    worker: Callable,
    shard_args: Sequence[tuple],
    *,
    policy: Optional[RetryPolicy] = None,
    plan: Optional[FaultPlan] = None,
    use_processes: bool = True,
    health=None,
    store: Optional[CheckpointStore] = None,
    kind: str = "shard",
    dumps: Callable = lambda result: json.dumps(result).encode(),
    loads: Callable = json.loads,
    sleep: Callable = time.sleep,
) -> List:
    """Run ``worker(*shard_args[i])`` for every shard, resiliently.

    Returns the per-shard results in shard-index order — completion
    order never leaks into the output, which is what keeps faulted runs
    bit-identical to fault-free ones.

    Failure handling, per shard:

    * An exception from the worker is retried up to
      ``policy.max_retries`` times with exponential backoff; exhaustion
      raises :class:`ShardFailedError` (remaining futures are cancelled
      — the first failure surfaces immediately, not after earlier
      submissions drain).
    * Non-retryable exceptions (:data:`NON_RETRYABLE`, e.g. a corrupt
      chunk) propagate immediately, untouched.
    * A broken pool (worker OOM-killed, hard exit) tears the executor
      down, charges every unfinished shard one attempt, respawns a
      fresh pool and re-submits *only* the unfinished shards.
    * A watchdog timeout (no completion within
      ``policy.watchdog_seconds``) is handled like a broken pool.

    With ``store`` set, each finished shard's result is serialized via
    ``dumps`` (JSON by default: checkpoint files are never unpickled)
    and checkpointed; on entry, verified checkpoints are loaded via
    ``loads`` and those shards are not re-run — this is the
    resume path, and it composes with every failure mode above.

    The pool runs one process per shard.  Retry, checkpointing and
    fault injection are all keyed by shard index, so execution order
    never reaches the output.

    ``use_processes=False`` runs shards serially in-process through the
    same retry/checkpoint logic (fault plans downgrade hard aborts to
    exceptions there).
    """
    policy = policy or RetryPolicy()
    n = len(shard_args)
    results: Dict[int, object] = {}
    attempts = [0] * n

    if store is not None:
        for shard in range(n):
            payload = store.load(kind, shard)
            if payload is None:
                continue
            try:
                results[shard] = loads(payload)
            except Exception:
                # An intact file holding an incompatible state (e.g. a
                # version bump) is as useless as a damaged one: drop it
                # and re-run the shard.
                if health is not None:
                    health.checkpoint_corrupt += 1
                continue
            if health is not None:
                health.checkpoint_hits += 1

    def record(shard: int, result) -> None:
        results[shard] = result
        if store is not None:
            store.save(kind, shard, dumps(result))

    def charge(shard: int, exc: BaseException) -> None:
        """Count one failed attempt; raise when the budget is gone."""
        if not retryable(exc):
            raise exc
        attempts[shard] += 1
        if attempts[shard] > policy.max_retries:
            raise ShardFailedError(shard, attempts[shard], exc) from exc
        if health is not None:
            health.retries += 1

    if not use_processes:
        for shard in range(n):
            while shard not in results:
                try:
                    record(
                        shard,
                        _invoke(
                            worker,
                            shard,
                            attempts[shard],
                            plan,
                            shard_args[shard],
                            True,
                        ),
                    )
                except Exception as exc:
                    charge(shard, exc)
                    sleep(policy.backoff(attempts[shard]))
        return [results[shard] for shard in range(n)]

    pool: Optional[ProcessPoolExecutor] = None
    try:
        while len(results) < n:
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=n)
            futures = {
                pool.submit(
                    _invoke,
                    worker,
                    shard,
                    attempts[shard],
                    plan,
                    shard_args[shard],
                    False,
                ): shard
                for shard in range(n)
                if shard not in results
            }
            try:
                while futures:
                    done, _ = wait(
                        list(futures),
                        timeout=policy.watchdog_seconds,
                        return_when=FIRST_COMPLETED,
                    )
                    if not done:
                        raise WatchdogTimeout(
                            f"no shard completed within "
                            f"{policy.watchdog_seconds}s; presuming the "
                            "pool is wedged"
                        )
                    for future in done:
                        shard = futures.pop(future)
                        exc = future.exception()
                        if exc is None:
                            record(shard, future.result())
                            continue
                        if isinstance(exc, BrokenProcessPool):
                            raise exc
                        charge(shard, exc)
                        sleep(policy.backoff(attempts[shard]))
                        futures[
                            pool.submit(
                                _invoke,
                                worker,
                                shard,
                                attempts[shard],
                                plan,
                                shard_args[shard],
                                False,
                            )
                        ] = shard
            except (BrokenProcessPool, WatchdogTimeout) as exc:
                # Every unfinished shard is suspect: the dead worker is
                # not identifiable from the parent, so all of them are
                # charged one attempt and re-run on a fresh pool.
                if health is not None:
                    if isinstance(exc, WatchdogTimeout):
                        health.watchdog_timeouts += 1
                    else:
                        health.respawns += 1
                _shutdown(pool)
                pool = None
                unfinished = [s for s in range(n) if s not in results]
                for shard in unfinished:
                    charge(shard, exc)
                if unfinished:
                    sleep(
                        policy.backoff(max(attempts[s] for s in unfinished))
                    )
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
    finally:
        if pool is not None:
            _shutdown(pool)
    return [results[shard] for shard in range(n)]


def _shutdown(pool: ProcessPoolExecutor) -> None:
    """Tear a (possibly wedged) pool down without waiting on workers."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except TypeError:  # pragma: no cover - cancel_futures needs 3.9+
        pool.shutdown(wait=False)
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        if process.is_alive():
            process.terminate()
