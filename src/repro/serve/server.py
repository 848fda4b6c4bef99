"""The always-on ingestion server.

A small asyncio HTTP/1.1 server (stdlib only — ``asyncio.start_server``
plus a hand-rolled request loop, no web framework) that keeps one
:class:`~repro.serve.tenants.Tenant` per telescope alive and answers
AH queries from live detector state.

Concurrency model — one bounded queue and one worker task per tenant:

* The HTTP handlers never touch detector state.  ``POST .../chunks``
  appends the raw npz bytes to the tenant's write-ahead journal
  (:mod:`repro.serve.journal`) and enqueues them — in that order,
  under a per-tenant admission lock, so a **202 means the chunk is
  durable** and journal sequence order equals fold order.  When the
  tenant's queue is full the server answers **429** with a
  ``Retry-After`` hint instead of buffering unboundedly —
  back-pressure reaches the client, memory stays bounded.  A journal
  append that fails (disk full, EIO) also answers 429 and flags the
  tenant ``journal_degraded`` on ``/health`` until a write succeeds:
  the server never acks what it could not persist.  Retransmits of an
  already-admitted chunk (a client that lost its ack) are detected by
  content digest and re-acked without a second journal record or
  fold.
* The tenant worker drains its queue in order — and *adaptively
  micro-batches*: on wake-up it dequeues every already-queued chunk up
  to the tenant's ``coalesce_chunks``/``coalesce_bytes`` budgets and
  folds them as one coalesced pass, amortizing npz decode and the
  streaming builder's sort across the burst.  Queries, snapshots,
  recycles, and sync barriers travel *through the same queue* and cut
  a coalescing run short, so they observe exactly the chunks accepted
  before them and never race an ingest on the same engine.
* AH queries are cheap when the state has not moved: the engine keeps
  its last :class:`~repro.core.engine.EngineQuery` (read-only: sources
  are frozensets) and returns it until a fold, a chunk-count change, a
  shard reload, a pool detach or ``finish`` drops it, so a hit is the
  exact answer a fresh shard fan-out would build.  The query still
  waits its turn in the queue: the memo makes a query of an unchanged
  state free, and the barrier decides *which* state it reads — every
  chunk accepted before it, none after.  ``/health`` and ``/status``
  count ``queries`` and ``query_memo_hits`` per engine.
* Folds run **off-process** by default: the server owns one
  :class:`~repro.serve.foldpool.FoldPool` (``fold_processes`` workers,
  auto-sized to the machine) shared by all tenants, each tenant's
  engine shipping its coalesced batches to shard-affine worker
  processes — many tenants fold concurrently on real cores instead of
  serializing on the GIL, and sub-batches past the shared-memory auto
  threshold hand off zero-copy.  ``fold_processes=0`` folds on the
  ingest threads instead, through each engine's inline shard host.
  A fold-worker death surfaces as a
  :class:`~repro.serve.foldpool.FoldPoolError`, on the fold that met
  the dead worker or on any later fold, query, snapshot or reload that
  reaches a shard the respawned worker lost; the server heals the
  tenant by rebuilding it from its last persisted snapshot.
* Periodic snapshots ride on the engine's own chunk-count scheduling
  (:class:`~repro.core.faults.CheckpointStore` underneath); a killed
  server restarts from the last verified snapshot via
  :meth:`TenantRegistry.restore_all`.  A scheduled snapshot that fails
  on I/O does not undo its fold: the fold is recorded and the failure
  goes on the tenant's errors as ``snapshot: ...``, while the journal
  keeps every chunk past the last committed snapshot.

Endpoints (all JSON except the chunk body, which is the npz wire
format of :func:`repro.io.packetlog.packets_to_npz_bytes`):

==========================================  =================================
``GET  /health``                            service + per-tenant health
``PUT  /tenants/<id>``                      create tenant (TenantConfig JSON)
``DELETE /tenants/<id>``                    forget tenant
``POST /tenants/<id>/chunks``               ingest one npz chunk (202/429)
``GET  /tenants/<id>/ah[?definition=N]``    AH sets from merged shard state
``GET  /tenants/<id>/status``               cheap counters (no merge)
``POST /tenants/<id>/snapshot``             force a snapshot, return path
``POST /tenants/<id>/sync``                 barrier: drain queued chunks
``POST /tenants/<id>/recycle``              rebuild engine from snapshot
==========================================  =================================
"""

from __future__ import annotations

import asyncio
import functools
import json
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.serve.foldpool import FoldPool, FoldPoolError, auto_processes
from repro.serve.journal import JournalError
from repro.serve.tenants import Tenant, TenantConfig, TenantRegistry

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

#: Retry-After hint (seconds) sent with 429 responses.
RETRY_AFTER_SECONDS = 0.05

#: Hard cap on a single request body (64 MiB) — a malformed
#: Content-Length must not make the server allocate unboundedly.
MAX_BODY_BYTES = 64 * 1024 * 1024


def _detections_payload(query, definition: Optional[int]) -> dict:
    """JSON-shape an EngineQuery (sources as sorted ints)."""
    wanted = (
        [definition] if definition is not None else sorted(query.detections)
    )
    detections = {}
    for d in wanted:
        result = query.detections[d]
        detections[str(d)] = {
            "definition": d,
            "count": len(result.sources),
            "threshold": result.threshold,
            "sources": sorted(int(s) for s in result.sources),
        }
    return {
        "detections": detections,
        "events": query.events,
        "packets": query.packets,
        "open_flows": query.open_flows,
        "watermark": query.watermark,
        "chunks": query.chunks,
    }


class ScannerServer:
    """One server instance bound to a registry.

    Use :meth:`start`/:meth:`stop` from an asyncio context, or the
    :class:`ServerThread` wrapper (tests) / :func:`run_server` (CLI).
    """

    def __init__(
        self,
        registry: TenantRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        unix_socket: Optional[str] = None,
        ingest_threads: int = 2,
        fold_processes: Optional[int] = None,
        restore: bool = True,
    ):
        self.registry = registry
        self.host = host
        self.port = port
        self.unix_socket = unix_socket
        self.restore = restore
        #: ``None`` = auto-size to the machine, ``0`` = fold in-process
        #: on the thread pool, ``N >= 1`` = that many fold workers.
        self.fold_processes = fold_processes
        self._fold_pool: Optional[FoldPool] = None
        self._executor = ThreadPoolExecutor(
            max_workers=ingest_threads, thread_name_prefix="repro-ingest"
        )
        self._queues: Dict[str, asyncio.Queue] = {}
        self._workers: Dict[str, asyncio.Task] = {}
        #: per-tenant admission locks: the queue-full check, the
        #: journal append, and the enqueue must be one atomic step so
        #: journal sequence order always equals queue (= fold) order.
        self._ingest_locks: Dict[str, asyncio.Lock] = {}
        #: tenants whose last journal append failed (disk full, EIO):
        #: they answer 429 and flag ``/health`` until a write succeeds.
        self._journal_degraded: Dict[str, str] = {}
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        if self.fold_processes != 0:
            processes = self.fold_processes or auto_processes()

            def _boot_pool():
                pool = FoldPool(processes)
                # Pre-existing tenants move their state into the
                # workers here; tenants built later (create/restore)
                # attach as the registry builds them.
                self.registry.attach_pool(pool)
                return pool

            # Worker spawn + state hand-off block; keep them off the
            # event loop.
            self._fold_pool = await loop.run_in_executor(
                self._executor, _boot_pool
            )
        if self.restore:
            # Snapshot loading is blocking I/O + unpickling; keep it
            # off the event loop.
            await loop.run_in_executor(
                self._executor, self.registry.restore_all
            )
        for tenant_id in self.registry.ids():
            self._ensure_worker(tenant_id)
        if self.unix_socket is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self.unix_socket
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_client, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, snapshot: bool = True) -> None:
        """Graceful shutdown: drain queues, snapshot, close."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for queue in self._queues.values():
            await queue.join()
        for task in self._workers.values():
            task.cancel()
        for task in self._workers.values():
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers.clear()
        loop = asyncio.get_running_loop()
        if self._fold_pool is not None:
            # Pull every tenant's detector state back in-process while
            # the workers are still alive, then retire them.
            await loop.run_in_executor(
                self._executor, self.registry.detach_pool
            )
            await loop.run_in_executor(
                self._executor, self._fold_pool.close
            )
            self._fold_pool = None
        if snapshot:
            await loop.run_in_executor(
                self._executor, self.registry.snapshot_all
            )
        # Snapshots (if taken) just covered — and truncated — the
        # journals; close whatever segments remain either way.
        await loop.run_in_executor(
            self._executor, self.registry.close_journals
        )
        self._executor.shutdown(wait=True)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Per-tenant queue + worker
    # ------------------------------------------------------------------
    def _ensure_worker(self, tenant_id: str) -> asyncio.Queue:
        if tenant_id not in self._queues:
            tenant = self.registry.get(tenant_id)
            depth = tenant.config.queue_depth if tenant else 8
            self._queues[tenant_id] = asyncio.Queue(maxsize=depth)
            self._workers[tenant_id] = asyncio.get_running_loop().create_task(
                self._tenant_worker(tenant_id)
            )
        return self._queues[tenant_id]

    def _drop_worker(self, tenant_id: str) -> None:
        self._queues.pop(tenant_id, None)
        self._ingest_locks.pop(tenant_id, None)
        self._journal_degraded.pop(tenant_id, None)
        task = self._workers.pop(tenant_id, None)
        if task is not None:
            task.cancel()

    async def _tenant_worker(self, tenant_id: str) -> None:
        """Drain one tenant's queue in order, forever.

        Chunk items coalesce: one wake-up folds every chunk already
        queued, up to the tenant's micro-batching budgets.  Command
        items (query/snapshot/sync/recycle) are barriers — they end a
        coalescing run and execute strictly after the chunks queued
        before them.
        """
        queue = self._queues[tenant_id]
        loop = asyncio.get_running_loop()
        while True:
            item = await queue.get()
            if item[0] == "chunk":
                tenant = self.registry.get(tenant_id)
                if tenant is None:
                    queue.task_done()
                    continue
                await self._drain_chunks(loop, queue, tenant, item)
            else:
                await self._run_command(loop, queue, tenant_id, item)

    async def _drain_chunks(
        self, loop, queue: asyncio.Queue, tenant: Tenant, first: tuple
    ) -> None:
        """Coalesce queued chunks up to the budgets, fold them once."""
        max_chunks = max(1, tenant.config.coalesce_chunks)
        max_bytes = tenant.config.coalesce_bytes
        items = [first]
        n_bytes = len(first[1])
        trailing = None
        while len(items) < max_chunks and n_bytes < max_bytes:
            try:
                nxt = queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if nxt[0] != "chunk":
                # A barrier command: stop coalescing, run it after the
                # fold (it was queued after these chunks).
                trailing = nxt
                break
            items.append(nxt)
            n_bytes += len(nxt[1])
        blobs = [item[1] for item in items]
        # The newest journal sequence in the batch — queue order equals
        # sequence order (admission lock), so the last chunk's seq
        # covers the whole batch once folded.
        last_seq = next(
            (
                item[4]
                for item in reversed(items)
                if len(item) > 4 and item[4] is not None
            ),
            None,
        )
        # FIFO: the first item waited longest.
        queue_wait = (
            loop.time() - first[3] if first[3] is not None else 0.0
        )
        try:
            report = await loop.run_in_executor(
                self._executor,
                functools.partial(
                    tenant.ingest_payloads, blobs, last_seq=last_seq
                ),
            )
            tenant.serve_stats.record_fold(
                chunks=len(blobs),
                packets=report.packets,
                seconds=report.seconds,
                queue_wait=queue_wait,
            )
            if report.snapshot_error is not None:
                # The chunks folded; only the scheduled snapshot failed
                # (ENOSPC, EIO).  The journal keeps every chunk past the
                # last committed snapshot, so nothing acked is at risk.
                tenant.record_error(f"snapshot: {report.snapshot_error}")
        except FoldPoolError as exc:
            tenant.record_error(f"fold pool: {exc}")
            # The dead worker's unsnapshotted state is gone; rebuild
            # the tenant from its last persisted snapshot.
            await loop.run_in_executor(
                self._executor, tenant.restore_from_store
            )
        except Exception as exc:  # noqa: BLE001 — fault isolation
            tenant.record_error(f"chunk: {exc}")
        finally:
            for _ in items:
                queue.task_done()
        if trailing is not None:
            await self._run_command(loop, queue, tenant.tenant_id, trailing)

    async def _run_command(
        self, loop, queue: asyncio.Queue, tenant_id: str, item: tuple
    ) -> None:
        """Execute one barrier command dequeued from a tenant queue."""
        kind, future = item[0], item[2]
        tenant = self.registry.get(tenant_id)
        try:
            if tenant is None:
                raise RuntimeError(f"tenant {tenant_id!r} was removed")
            result = None
            if kind == "query":
                result = await loop.run_in_executor(
                    self._executor, tenant.query
                )
            elif kind == "snapshot":
                result = await loop.run_in_executor(
                    self._executor, tenant.save_snapshot
                )
            elif kind == "recycle":
                await loop.run_in_executor(self._executor, tenant.recycle)
            # "sync" needs no work: reaching it proves every prior
            # item in the queue was processed.
            if future is not None and not future.cancelled():
                future.set_result(result)
        except asyncio.CancelledError:
            raise
        except FoldPoolError as exc:
            if tenant is not None:
                tenant.record_error(f"{kind}: fold pool: {exc}")
                await loop.run_in_executor(
                    self._executor, tenant.restore_from_store
                )
            if future is not None and not future.cancelled():
                future.set_exception(exc)
        except Exception as exc:  # noqa: BLE001 — fault isolation
            if tenant is not None:
                tenant.record_error(f"{kind}: {exc}")
            if future is not None and not future.cancelled():
                future.set_exception(exc)
        finally:
            queue.task_done()

    async def _submit(self, tenant_id: str, kind: str):
        """Queue a command and wait for the worker to reach it."""
        queue = self._ensure_worker(tenant_id)
        future = asyncio.get_running_loop().create_future()
        await queue.put((kind, None, future, None))
        return await future

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                try:
                    method, target, _ = (
                        request_line.decode("latin-1").split(None, 2)
                    )
                except ValueError:
                    break
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0"))
                except ValueError:
                    length = -1
                if not 0 <= length <= MAX_BODY_BYTES:
                    self._write_response(
                        writer, 400, {"error": "bad content-length"}
                    )
                    await writer.drain()
                    break
                body = await reader.readexactly(length) if length else b""
                try:
                    status, payload, extra = await self._route(
                        method.upper(), target, body
                    )
                except Exception as exc:  # noqa: BLE001 — keep serving
                    status, payload, extra = (
                        500,
                        {"error": f"{type(exc).__name__}: {exc}"},
                        {},
                    )
                self._write_response(writer, status, payload, extra)
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    def _write_response(
        writer, status: int, payload: dict, extra: Optional[dict] = None
    ) -> None:
        data = json.dumps(payload).encode()
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(data)),
        }
        if extra:
            headers.update(extra)
        head = f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        head += "".join(f"{k}: {v}\r\n" for k, v in headers.items())
        writer.write(head.encode("latin-1") + b"\r\n" + data)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, dict, dict]:
        parts = urlsplit(target)
        path = [p for p in parts.path.split("/") if p]
        params = parse_qs(parts.query)

        if path == ["health"]:
            if method != "GET":
                return 405, {"error": "GET only"}, {}
            return 200, self._health_payload(), {}

        if not path or path[0] != "tenants":
            return 404, {"error": f"no such route: {parts.path}"}, {}
        if len(path) < 2:
            if method == "GET":
                return 200, {"tenants": self.registry.ids()}, {}
            return 405, {"error": "GET only"}, {}

        tenant_id = path[1]
        action = path[2] if len(path) > 2 else None

        if action is None:
            return await self._route_tenant(method, tenant_id, body)

        tenant = self.registry.get(tenant_id)
        if tenant is None:
            return 404, {"error": f"unknown tenant: {tenant_id}"}, {}

        if action == "chunks" and method == "POST":
            return await self._enqueue_chunk(tenant, body)
        if action == "ah" and method == "GET":
            definition = None
            if "definition" in params:
                try:
                    definition = int(params["definition"][0])
                except ValueError:
                    return 400, {"error": "definition must be an int"}, {}
                if definition not in (1, 2, 3):
                    return 400, {"error": "definition must be 1, 2 or 3"}, {}
            query = await self._submit(tenant.tenant_id, "query")
            return 200, _detections_payload(query, definition), {}
        if action == "status" and method == "GET":
            status = tenant.status()
            queue = self._queues.get(tenant_id)
            status["queued"] = queue.qsize() if queue is not None else 0
            return 200, status, {}
        if action == "snapshot" and method == "POST":
            path_str = await self._submit(tenant.tenant_id, "snapshot")
            if path_str is None:
                return 409, {"error": "tenant has no snapshot store"}, {}
            return 200, {"snapshot": path_str}, {}
        if action == "sync" and method == "POST":
            await self._submit(tenant.tenant_id, "sync")
            return 200, {"synced": True}, {}
        if action == "recycle" and method == "POST":
            await self._submit(tenant.tenant_id, "recycle")
            return 200, {"recycles": tenant.recycles}, {}
        return 404, {"error": f"no such action: {action}"}, {}

    async def _route_tenant(
        self, method: str, tenant_id: str, body: bytes
    ) -> Tuple[int, dict, dict]:
        if method == "PUT":
            try:
                config = TenantConfig.from_dict(
                    json.loads(body.decode() or "{}")
                )
            except (ValueError, TypeError) as exc:
                return 400, {"error": f"bad tenant config: {exc}"}, {}
            created = tenant_id not in self.registry
            try:
                tenant = self.registry.create(tenant_id, config)
            except ValueError as exc:
                return 409, {"error": str(exc)}, {}
            self._ensure_worker(tenant_id)
            return (
                201 if created else 200,
                {"tenant": tenant_id, "config": tenant.config.as_dict()},
                {},
            )
        if method == "GET":
            tenant = self.registry.get(tenant_id)
            if tenant is None:
                return 404, {"error": f"unknown tenant: {tenant_id}"}, {}
            return (
                200,
                {"tenant": tenant_id, "config": tenant.config.as_dict()},
                {},
            )
        if method == "DELETE":
            if not self.registry.remove(tenant_id):
                return 404, {"error": f"unknown tenant: {tenant_id}"}, {}
            self._drop_worker(tenant_id)
            return 200, {"removed": tenant_id}, {}
        return 405, {"error": "PUT, GET or DELETE"}, {}

    @staticmethod
    def _backpressure(message: str) -> Tuple[int, dict, dict]:
        return (
            429,
            {"error": message, "retry_after": RETRY_AFTER_SECONDS},
            {"Retry-After": str(RETRY_AFTER_SECONDS)},
        )

    async def _enqueue_chunk(
        self, tenant: Tenant, body: bytes
    ) -> Tuple[int, dict, dict]:
        """Admit one chunk: journal it durably, then queue it, then 202.

        The whole admission runs under the tenant's ingest lock so the
        journal's sequence order is exactly the queue's fold order —
        two concurrent POSTs can never journal in one order and fold
        in the other (which would let a snapshot's sequence watermark
        claim coverage of a chunk that was still queued when the
        process died).  The journal append itself (disk I/O, possibly
        an fsync) runs on the ingest executor, off the event loop.
        """
        if not body:
            return 400, {"error": "empty chunk body"}, {}
        queue = self._ensure_worker(tenant.tenant_id)
        loop = asyncio.get_running_loop()
        lock = self._ingest_locks.setdefault(
            tenant.tenant_id, asyncio.Lock()
        )
        async with lock:
            if queue.full():
                return self._backpressure("ingest queue full")
            try:
                seq, duplicate = await loop.run_in_executor(
                    self._executor, tenant.accept_chunk, body
                )
            except JournalError as exc:
                # Could not make the chunk durable — refusing with 429
                # (so the client retries) beats acking a chunk a crash
                # would lose.  Flagged on /health until a write lands.
                self._journal_degraded[tenant.tenant_id] = str(exc)
                return self._backpressure(f"journal unavailable: {exc}")
            self._journal_degraded.pop(tenant.tenant_id, None)
            if duplicate:
                # Retransmit after a lost ack: already durable, already
                # queued or folded — ack again without doing it twice.
                return 202, {"queued": queue.qsize(), "duplicate": True}, {}
            try:
                queue.put_nowait(("chunk", body, None, loop.time(), seq))
            except asyncio.QueueFull:  # pragma: no cover — lock-prevented
                tenant.forget_payload(body)
                return self._backpressure("ingest queue full")
        tenant.serve_stats.record_enqueued(len(body))
        return 202, {"queued": queue.qsize()}, {}

    def _health_payload(self) -> dict:
        tenants = {}
        for tenant_id in self.registry.ids():
            tenant = self.registry.get(tenant_id)
            queue = self._queues.get(tenant_id)
            engine = tenant.engine.status()
            tenants[tenant_id] = {
                "chunks": engine["chunks"],
                "packets": engine["packets"],
                "queries": engine["queries"],
                "query_memo_hits": engine["query_memo_hits"],
                "queued": queue.qsize() if queue is not None else 0,
                "queue_depth": tenant.config.queue_depth,
                "errors": len(tenant.errors),
                "journal_degraded": tenant_id in self._journal_degraded,
                "journal": (
                    tenant.journal.stats()
                    if tenant.journal is not None
                    else None
                ),
                "recycles": tenant.recycles,
                "health": tenant.telemetry.health.as_dict(),
                "serve": tenant.serve_stats.as_dict(),
            }
        return {
            "ok": not self._journal_degraded,
            "journal_degraded": sorted(self._journal_degraded),
            "fold_processes": (
                self._fold_pool.processes
                if self._fold_pool is not None
                else 0
            ),
            "tenants": tenants,
        }


# ----------------------------------------------------------------------
# Blocking entry points
# ----------------------------------------------------------------------


def run_server(
    snapshot_dir: Optional[str] = None,
    host: str = "127.0.0.1",
    port: int = 8377,
    *,
    unix_socket: Optional[str] = None,
    ingest_threads: int = 2,
    fold_processes: Optional[int] = None,
    journal: bool = True,
    journal_fsync: str = "batch",
    ready: Optional[callable] = None,
) -> None:
    """Run a server until interrupted (the ``repro serve`` CLI path).

    ``ready`` (if given) is called with the bound ``(host, port)`` once
    the socket is listening — the serve-smoke driver uses it to print a
    parseable readiness line.  SIGTERM and SIGINT both trigger the
    graceful path: stop accepting, drain every queue, snapshot, close
    the journals — so a production ``kill`` (or ctrl-C) is
    indistinguishable from a planned shutdown.  Only SIGKILL skips it,
    and the journal exists for exactly that case.
    """

    async def _main():
        registry = TenantRegistry(
            snapshot_dir, journal=journal, journal_fsync=journal_fsync
        )
        server = ScannerServer(
            registry,
            host,
            port,
            unix_socket=unix_socket,
            ingest_threads=ingest_threads,
            fold_processes=fold_processes,
        )
        loop = asyncio.get_running_loop()
        shutdown = asyncio.Event()
        hooked = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, shutdown.set)
                hooked.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or unsupported platform
        await server.start()
        if ready is not None:
            ready((server.host, server.port))
        serving = asyncio.ensure_future(server.serve_forever())
        stopping = asyncio.ensure_future(shutdown.wait())
        try:
            await asyncio.wait(
                {serving, stopping}, return_when=asyncio.FIRST_COMPLETED
            )
        except asyncio.CancelledError:
            pass
        finally:
            for task in (serving, stopping):
                task.cancel()
            for signum in hooked:
                loop.remove_signal_handler(signum)
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


class ServerThread:
    """A server on a background thread (tests and in-process drivers).

    ``start`` returns the bound ``(host, port)``; ``stop`` shuts the
    server down gracefully (drain + snapshot) and joins the thread.
    """

    def __init__(self, registry: TenantRegistry, **kwargs):
        self.registry = registry
        self.kwargs = kwargs
        self.server: Optional[ScannerServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    def start(self) -> Tuple[str, int]:
        self._loop = asyncio.new_event_loop()

        def _run():
            asyncio.set_event_loop(self._loop)
            self.server = ScannerServer(self.registry, **self.kwargs)
            self._loop.run_until_complete(self.server.start())
            self._started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=_run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        return self.server.host, self.server.port

    def stop(self, snapshot: bool = True) -> None:
        if self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(snapshot=snapshot), self._loop
        )
        future.result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()
        self._loop = None
