"""Process-pool detector folds for the always-on serve layer.

The ingestion server's CPU-bound work — npz decode plus the
:class:`~repro.core.streaming.StreamingDetector` fold — used to run on
an in-process thread pool, where every tenant's folds serialized on the
GIL.  A :class:`FoldPool` moves that work into a small fleet of
long-lived worker *processes*: each worker runs one
:class:`~repro.core.engine.ShardHost` — the same handler an unpooled
engine calls in-process — holding the live detector state for the
``(tenant, shard)`` keys hashed to it, so many tenants fold
concurrently on real cores while the asyncio loop and its ingest
threads only shuttle requests.

Design points:

* **Shard affinity.**  A ``(tenant, shard)`` key always maps to the
  same worker (stable hash), and each worker processes its pipe in
  order — so the per-shard fold order the detectors require is
  preserved without any cross-process locking.  The hash does not
  spread one tenant's shards: with two workers ``("t0", 0)`` and
  ``("t0", 1)`` both land on worker 0.  Spreading them cost 10–12%
  more peak RSS for 4–10% less wall time on a single 2-shard tenant's
  ingest (two workers, 2-vCPU host), so placement stays.
* **State lives in the worker.**  Detector state grows with the stream
  (finalized event columns accumulate), so shipping it back and forth
  per fold would cost O(history) each time.  Instead only small
  :class:`FoldReply` gauge structs cross the pipe per fold.  A query
  pulls each shard's :class:`~repro.core.streaming.DetectorSummary`
  (``summary``: histograms, per-source peaks, dispersion sources and
  daily port counts — no event table or destination segment), and
  only when the engine's memoized answer is stale: repeated queries of
  one state cost one fan-out.  Snapshots never pull state across the
  pipe: each worker writes its shards' state files into the tenant's
  snapshot directory itself (``write``) and answers only ``(name,
  length, header digest)``, from which the engine commits its
  manifest.  Only detach and recycling pull the full serialized state
  (``collect``).
* **Fan-out.**  Requests that touch several workers (``fold_many``,
  ``summary``, ``collect``, ``write``) are all sent before any reply is
  read, so distinct workers serve them concurrently.
* **Hosts decode the wire.**  A fold ships the tenant's raw npz wire
  chunks, with its shard count and watermark, to every shard; each
  worker decodes them off-loop and keeps its shards' rows by source
  hash.  ``fold_many`` sends one message per worker, so a payload
  shared by shards on one worker is pickled and decoded once.  The
  trade-off: shards of one tenant on distinct workers each decode the
  chunks, in parallel, as the offline directory workers each read
  every archive.  Placement does not change for it: the single-tenant
  case timed above keeps both shards on worker 0.
* **Desync detection.**  Every request that reads or changes a shard
  (fold, summary, collect, write) carries the packet count the engine
  believes the shard has folded; a mismatch (a respawned worker that
  lost state, or an affinity bug) fails the request loudly instead of
  silently restarting the shard from empty, answering a query or a
  reload as if it were empty, or committing an empty shard file.  The
  server heals a tenant that hits this by recycling it from its last
  snapshot.

The pool is shared by every tenant of one server; per-tenant ordering
still comes from the server's per-tenant command queue, which never
lets two folds for the same tenant be in flight at once.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import statefile
from repro.core.engine import FoldReply, ShardHost
from repro.core.streaming import DetectorSummary

#: Upper bound the auto policy puts on the fold-worker count.
AUTO_MAX_PROCESSES = 4


def auto_processes() -> int:
    """The default fold-worker count: one per core, capped."""
    return max(1, min(AUTO_MAX_PROCESSES, os.cpu_count() or 1))


class FoldPoolError(RuntimeError):
    """A fold-pool worker failed or lost state; see the message."""


def _worker_main(conn) -> None:
    """One fold worker: a pipe loop around one :class:`ShardHost`.

    Serves requests until ``close`` or EOF.  A failing request answers
    ``("err", message)`` and leaves the worker (and its other shards)
    alive.
    """
    host = ShardHost()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        try:
            conn.send(("ok", host.handle(message)))
        except Exception as exc:  # noqa: BLE001 — keep the worker alive
            try:
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                return
        if message[0] == "close":
            return


class _Worker:
    """Parent-side handle to one fold process: pipe + dispatch lock."""

    def __init__(self, ctx, index: int):
        self.index = index
        self.lock = threading.Lock()
        self._spawn(ctx)

    def _spawn(self, ctx) -> None:
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child,),
            name=f"repro-fold-{self.index}",
            daemon=True,
        )
        self.process.start()
        child.close()


class FoldPool:
    """A fleet of long-lived detector fold processes.

    Args:
        processes: worker-process count (>= 1); see
            :func:`auto_processes` for the serve default.
        start_method: multiprocessing start method.  ``spawn`` (the
            default) is safe to call from threaded parents — the serve
            test harness runs the event loop on a background thread.
    """

    def __init__(
        self,
        processes: int,
        *,
        start_method: str = "spawn",
    ):
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = int(processes)
        self._ctx = multiprocessing.get_context(start_method)
        self._workers = [
            _Worker(self._ctx, index) for index in range(self.processes)
        ]
        self._closed = False

    # ------------------------------------------------------------------
    def worker_index(self, key) -> int:
        """The worker that owns ``key`` (stable across calls)."""
        digest = hashlib.blake2b(
            repr(key).encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") % self.processes

    def _fan_out(self, routed: Sequence[Tuple[int, tuple]]) -> list:
        """Send every message, then read every reply; values in order.

        ``routed`` pairs each message with its worker index.  The locks
        of the workers involved are taken in index order, so concurrent
        callers cannot deadlock on them.  Every request is written
        before the first reply is read, so distinct workers serve their
        requests concurrently; one worker serves its own in order.

        Writing everything first cannot deadlock on the pipes, because
        no message kind is large both ways.  Fold and load requests may
        be large, but their replies are small gauge structs or acks
        that fit in the pipe buffer, so a worker never blocks sending
        one and is always back reading the next request.  Write requests
        and their replies are both small.  Summary and collect requests
        carry just one key and count, which fits in the buffer even
        while the worker is blocked writing a large reply; that worker
        only waits for the read loop below to reach it.  So a detach
        may fan out every shard's ``collect`` at once: small requests,
        large replies.
        """
        if self._closed:
            raise FoldPoolError("fold pool is closed")
        by_worker: Dict[int, List[int]] = {}
        for position, (index, _) in enumerate(routed):
            by_worker.setdefault(index, []).append(position)
        indexes = sorted(by_worker)
        replies: list = [None] * len(routed)
        dead: Dict[int, Exception] = {}
        for index in indexes:
            self._workers[index].lock.acquire()
        try:
            for index in indexes:
                conn = self._workers[index].conn
                try:
                    for position in by_worker[index]:
                        conn.send(routed[position][1])
                except (EOFError, OSError) as exc:
                    dead[index] = exc
            for index in indexes:
                if index in dead:
                    continue
                conn = self._workers[index].conn
                try:
                    for position in by_worker[index]:
                        replies[position] = conn.recv()
                except (EOFError, OSError) as exc:
                    dead[index] = exc
            for index in dead:
                self._respawn(self._workers[index])
        finally:
            for index in indexes:
                self._workers[index].lock.release()
        if dead:
            index, exc = next(iter(dead.items()))
            raise FoldPoolError(
                f"fold worker {index} died mid-request; its "
                "unsnapshotted shard state is lost — recycle affected "
                "tenants to restore from their last snapshot"
            ) from exc
        for status, value in replies:
            if status != "ok":
                raise FoldPoolError(value)
        return [value for _, value in replies]

    def _respawn(self, worker: _Worker) -> None:
        """Replace a dead worker with a fresh (state-less) process."""
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5)
        worker._spawn(self._ctx)

    def _call(self, worker: _Worker, message: tuple):
        return self._fan_out([(worker.index, message)])[0]

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def fold_many(
        self, requests: Sequence[tuple]
    ) -> List[Optional[FoldReply]]:
        """Dispatch fold requests, overlapping across workers.

        ``requests`` is a sequence of ``(key, spec, expect_packets,
        payload)`` tuples, as :meth:`ShardHost.fold_many` takes.  Each
        worker gets one message holding its requests, so a payload
        shared by several of them is pickled and decoded once; workers
        fold concurrently (one fan-out: send everything, then collect).
        Returns one :class:`FoldReply` per request, in request order.
        """
        by_worker: Dict[int, List[int]] = {}
        for position, request in enumerate(requests):
            index = self.worker_index(request[0])
            by_worker.setdefault(index, []).append(position)
        replies = self._fan_out(
            [
                (index, ("fold_many", [requests[p] for p in positions]))
                for index, positions in by_worker.items()
            ]
        )
        folded: List[Optional[FoldReply]] = [None] * len(requests)
        for positions, worker_replies in zip(by_worker.values(), replies):
            for position, reply in zip(positions, worker_replies):
                folded[position] = reply
        return folded

    def _read(self, op: str, requests: Sequence[tuple]) -> list:
        """One fan-out of ``op`` per ``(key, expect_packets)`` request."""
        replies = self._fan_out(
            [
                (self.worker_index(request[0]), (op, [request]))
                for request in requests
            ]
        )
        return [values[0] for values in replies]

    def summary(
        self, requests: Sequence[tuple]
    ) -> List[Optional[DetectorSummary]]:
        """Query summaries of shard states, one per request.

        ``requests`` are ``(key, expect_packets)`` pairs, as
        :meth:`ShardHost.summary` takes.  Each answer is the live
        shard's :meth:`~repro.core.streaming.StreamingDetector.summary`
        (``None`` for a shard that has folded nothing).  A worker whose
        shard is out of sync (respawned, empty) raises
        :class:`FoldPoolError` instead of answering for it as empty.
        One fan-out, so shards on distinct workers summarize
        concurrently.
        """
        return self._read("summary", requests)

    def collect(self, requests: Sequence[tuple]) -> List[Optional[bytes]]:
        """Shard states serialized, one per ``(key, expect_packets)``
        request (None for a shard that has folded nothing), checked as
        :meth:`summary` checks them.

        One fan-out, like :meth:`summary`: every shard on a distinct
        worker serializes its state concurrently.
        """
        return self._read("collect", requests)

    def write(self, requests: Sequence[tuple]) -> list:
        """Have each shard's worker write its state file.

        ``requests`` are ``(key, spec, expect_packets, path)`` tuples,
        as :meth:`ShardHost.write` takes; one fan-out, so shards on
        distinct workers write concurrently.  Returns, in request order,
        ``(name, length, header digest)`` or the ``OSError`` the write
        raised, per request: a failed write is the caller's I/O error,
        not a lost worker.  A worker whose shard state is out of sync
        (respawned, empty) writes nothing and raises
        :class:`FoldPoolError`, as a fold would.
        """
        replies = self._fan_out(
            [
                (self.worker_index(request[0]), ("write", [request]))
                for request in requests
            ]
        )
        return [written[0] for written in replies]

    def load(self, key, blob: Optional[bytes]) -> FoldReply:
        """Install (or, with ``None``, drop) one shard's state.

        A blob that is not current detector state raises ``ValueError``
        here, before it reaches a worker.
        """
        if blob is not None:
            statefile.check_magic(blob, "detector")
        worker = self._workers[self.worker_index(key)]
        return self._call(worker, ("load", key, blob))

    def drop(self, tenant) -> None:
        """Forget every shard state belonging to one tenant."""
        for worker in self._workers:
            self._call(worker, ("drop", tenant))

    def ping(self) -> bool:
        """Round-trip every worker (used by health checks and tests)."""
        for worker in self._workers:
            self._call(worker, ("ping",))
        return True

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            with worker.lock:
                try:
                    worker.conn.send(("close",))
                    worker.conn.recv()
                except (EOFError, OSError, ValueError):
                    pass
                try:
                    worker.conn.close()
                except OSError:
                    pass
            worker.process.join(timeout=10)
            if worker.process.is_alive():  # pragma: no cover - stuck child
                worker.process.terminate()
                worker.process.join(timeout=5)

    def __enter__(self) -> "FoldPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
