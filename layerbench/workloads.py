"""The three workloads: the offline study and two serve traffic mixes.

Every workload fills a :class:`Run`: timing samples behind each
end-to-end metric, the operations it attempted and how many failed,
each output check with its outcome, and (traced runs) the per-layer
ledger.  Inputs and the oracle are built before any timed region.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from inputs import build_inputs, from_serve
from procs import TreeWatch, shm_segments, wait_exited
from spans import direct_children_s, ledger

from repro.serve.client import ServeClient
from repro.serve.tenants import TenantRegistry

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TMP_ROOT = ROOT / ".layerbench-tmp"

#: repetitions (study processes, or server passes) per untraced run.
#: A serve-query pass boots over a journal and needs 40 queries, so one
#: pass fills a run.
REPS = {"study-batch": 2, "serve-ingest": 2, "serve-query": 1}
#: extra set-up-only processes (study) or server boots (serve)
#: per untraced run, for the set-up median; serve-query's set-up boot
#: recovers the same journal its pass does.
SETUP_ONLY = {"study-batch": 2, "serve-ingest": 1, "serve-query": 1}
#: serve-ingest sends the capture's first day in 5-minute wire chunks,
#: closed-loop, on each of its two passes.
INGEST_DAYS = 1.0
INGEST_CHUNK_S = 300.0
#: serve-query wire chunk.  Each AH query is a barrier on the tenant
#: queue, so 5-minute chunks back up behind back-to-back queries; 30
#: minutes keeps the trickle on schedule at the rate below.
QUERY_CHUNK_S = 1_800.0
#: serve-query journals day 1, then trickles the first 6 hours of day 2
#: open-loop while the queries run.  A query's cost follows the state it
#: reads, and a slower host reaches each query later, when the trickle
#: has added more: trickling all of day 2 (doubling the state) amplified
#: host noise until work_s spread by 0.31 over five seeds on a two-core
#: host.  Growing the state by a quarter keeps the writes beside the
#: reads and the amplification small.
QUERY_JOURNAL_DAYS = 1.0
QUERY_DAYS = 1.25
#: open-loop trickle rate, per scenario, so the trickle lasts about as
#: long as the 40 queries.  The tiny scenario's chunks are ~50 times
#: smaller; its rate keeps a chunk interval (~0.1 s) longer than one
#: 429 back-off.
TRICKLE_PKT_PER_S = {"stream-72h": 15_000.0, "tiny": 10_000.0}
#: serve-query keeps querying until this many answers are in, so p75
#: has at least ten samples beyond it.
MIN_QUERIES = 40
TENANT = "t0"
BOOT_TIMEOUT_S = 90.0
CHILD_TIMEOUT_S = 170.0


class Run:
    """Samples, failure base and checks of one benchmark run."""

    def __init__(self):
        self.samples: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: List[dict] = []
        self.base: Dict[str, int] = {}
        self.layers: Dict[str, float] = {}
        self.ledger: Dict[str, dict] = {}
        self.detail: Dict[str, object] = {}

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def count(self, name: str, n: int = 1) -> None:
        self.base[name] = self.base.get(name, 0) + int(n)

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        self.ops(1, 0 if ok else 1)
        return ok


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _diff(got: dict, want: dict) -> str:
    bad = []
    for d in sorted(set(got) | set(want)):
        g, w = got.get(d), want.get(d)
        if g != w:
            if g is None or w is None:
                bad.append(f"def {d} missing")
            else:
                bad.append(
                    f"def {d}: {len(g['sources'])} vs {len(w['sources'])} AH, "
                    f"threshold {g['threshold']} vs {w['threshold']}"
                )
    return "; ".join(bad)


def check_detections(run: Run, name: str, got: dict, want: dict) -> bool:
    return run.check(name, got == want, _diff(got, want))


def _tree_peak_mb(hwm_kb: Dict[int, int], root_kb: Optional[int] = None,
                  root: Optional[int] = None) -> float:
    total = sum(kb for pid, kb in hwm_kb.items() if pid != root)
    total += root_kb if root_kb is not None else hwm_kb.get(root, 0)
    return total / 1024.0


# ----------------------------------------------------------------------
# Study workload
# ----------------------------------------------------------------------


def _child(args: List[str], tmp: Path) -> tuple:
    """Run study_child.py once; returns (result dict, pid -> hwm KiB)."""
    out = tmp / f"child-{time.monotonic_ns()}.json"
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "study_child.py"), *args, "--out", str(out)],
        cwd=ROOT, env=_env(), stdout=sys.stderr,
    )
    watch = TreeWatch(proc.pid).start()
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        hwm = watch.stop()
    if code != 0:
        raise RuntimeError(f"study child exited with {code}: {args}")
    result = json.loads(out.read_text())
    out.unlink()
    return result, hwm, proc.pid


def study(run: Run, scenario: str, seed: int, trace: bool, tmp: Path) -> None:
    """The CLI ``report`` path, serially, one fresh process per repetition.

    A traced run makes one untraced and one traced batch repetition, then
    one traced sharded study (``mode="streaming"``, two shard workers)
    for the ``parallel.*`` layers, whose report text must equal the
    batch text byte for byte.
    """
    inputs = build_inputs(scenario, seed)
    oracle = inputs.oracle
    run.detail["events"] = inputs.events
    run.detail["packets"] = len(inputs.packets)
    del inputs
    gc.collect()

    common = ["--scenario", scenario, "--seed", str(seed)]
    for _ in range(0 if trace else SETUP_ONLY["study-batch"]):
        result, _, _ = _child([*common, "--mode", "setup"], tmp)
        run.sample("setup_s", result["setup_s"])

    if trace:
        plan = [("batch", False), ("batch", True), ("sharded", True)]
    else:
        plan = [("batch", False)] * REPS["study-batch"]
    shm_before = shm_segments()
    reports: Dict[str, List[str]] = {}
    traced: Dict[str, dict] = {}
    for rep, (mode, traced_rep) in enumerate(plan, 1):
        result, hwm, pid = _child(
            [*common, "--mode", mode, "--trace", "1" if traced_rep else "0"], tmp
        )
        run.ops(1)
        run.count("studies")
        check_detections(
            run, f"rep{rep} ({mode}): AH sets/thresholds == serial oracle",
            result["detections"], oracle,
        )
        left = wait_exited(hwm)
        run.check(f"rep{rep} ({mode}): study processes exited", not left,
                  f"alive: {sorted(left)}" if left else "")
        reports.setdefault(mode, []).append(result["report"])
        peak_mb = _tree_peak_mb(hwm, result["hwm_kb"], pid)
        if traced_rep:
            traced[mode] = result
            run.detail[f"traced {mode}"] = {
                "study_s": result["study_s"], "peak_rss_mb": peak_mb,
            }
        else:
            run.sample("setup_s", result["setup_s"])
            run.sample("work_s", result["study_s"])
            run.sample("peak_rss_mb", peak_mb)

    batch = reports["batch"]
    run.check("batch report text identical across repetitions",
              all(text == batch[0] for text in batch))
    if "sharded" in reports:
        run.check("sharded report text byte-identical to batch",
                  reports["sharded"][0] == batch[0])
    leaked = shm_segments() - shm_before
    run.check("no /dev/shm/repro-* segment left", not leaked, ", ".join(sorted(leaked)))
    if trace:
        _study_layers(run, traced["batch"], traced["sharded"])


def _study_layers(run: Run, batch: dict, sharded: dict) -> None:
    spans = batch["spans"]
    rows = ledger(spans)
    run.ledger = rows
    run.detail["sharded ledger"] = ledger(sharded["spans"])

    def self_s(name, table=rows):
        return table.get(name, {}).get("self_s", 0.0)

    layers = {
        "net.build_internet_s": self_s("net.build_internet"),
        "scanners.build_population_s": self_s("scanners.build_population"),
        "flows.build_isp_s": self_s("flows.build_isp"),
        "telescope.capture_s": self_s("telescope.capture"),
        "telescope.capture_pkts": rows.get("telescope.capture", {}).get("items", 0),
        "core.events.build_events_s": self_s("core.events.build_events"),
        "core.detection.detect_all_s": self_s("core.detection.detect_all"),
        "parallel.generate_detect_s": self_s(
            "parallel.generate_detect", run.detail["sharded ledger"]),
        "parallel.worker_busy_max_s": max(sharded["worker_busy_s"], default=0.0),
        "parallel.worker_busy_min_s": min(sharded["worker_busy_s"], default=0.0),
    }
    # The report validates ACKed lists through acked_match (its Table 6
    # block never calls acked_validation_table).
    for method in ("dataset_summary", "top_ports", "origins_table",
                   "acked_match", "greynoise_tags_table",
                   "temporal_trends", "stream_series"):
        layers[f"report.{method}_s"] = self_s(f"report.{method}")
    study_span = next(s for s in spans if s["name"] == "study")
    layers["study.unattributed_s"] = (
        study_span["end"] - study_span["start"]
        - direct_children_s(spans, study_span["id"])
    )
    untraced = statistics.median(run.samples["work_s"])
    layers["trace.overhead_ratio"] = batch["study_s"] / untraced
    run.layers.update(layers)


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess and the tree watch on it."""

    def __init__(self, snapshot_dir: Path, spans: Optional[Path] = None):
        args = ["serve", "--port", "0", "--snapshot-dir", str(snapshot_dir)]
        if spans is None:
            cmd = [sys.executable, "-m", "repro.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH / "serve_launcher.py"),
                   "--spans", str(spans), "--", *args]
        self.t_start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True
        )
        self.watch = TreeWatch(self.proc.pid).start()
        address = []
        ready = threading.Event()

        def _read():
            for line in self.proc.stdout:
                if not address and line.startswith("repro-serve listening on "):
                    host, _, port = line.split()[-1].rpartition(":")
                    address.append((host, int(port)))
                    ready.set()
            ready.set()

        threading.Thread(target=_read, daemon=True).start()
        if not ready.wait(BOOT_TIMEOUT_S) or not address:
            self.kill()
            raise RuntimeError("server never announced its port")
        self.ready_s = time.perf_counter() - self.t_start
        self.host, self.port = address[0]
        self.hwm: Dict[int, int] = {}

    def client(self) -> ServeClient:
        return ServeClient(self.host, self.port, timeout=120.0)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.watch.stop()

    def stop(self, run: Run, label: str) -> None:
        """Graceful SIGTERM stop; checks the whole tree has exited."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            code = None
        self.hwm = self.watch.stop()
        run.check(f"{label}: server exited cleanly", code == 0, f"exit code {code}")
        left = wait_exited(self.hwm)
        run.check(f"{label}: server and fold workers exited", not left,
                  f"alive: {sorted(left)}" if left else "")

    def peak_rss_mb(self) -> float:
        return _tree_peak_mb(self.hwm, root=self.proc.pid)


def _serve_dir(tmp: Path, name: str, source: Optional[Path] = None) -> Path:
    path = tmp / name
    if source is not None:
        shutil.copytree(source, path)
    else:
        path.mkdir()
    return path


def _health_layers(run: Run, health: dict) -> None:
    if not health:  # the final query failed; already counted
        return
    tenant = health["tenants"][TENANT]
    serve = tenant["serve"]
    run.layers["serve.journal.fsyncs"] = (tenant.get("journal") or {}).get("fsyncs", 0)
    run.layers["serve.server.queue_wait_s"] = serve["queue_wait_seconds"]
    run.detail["serve_health"] = {
        k: serve[k] for k in ("folds", "mean_coalesced_chunks",
                              "max_queue_wait_seconds", "replayed_chunks")
    }


def _serve_span_layers(run: Run, spans_path: Path, until: float) -> None:
    # Spans use the shared monotonic clock; shutdown work is dropped.
    spans = [s for s in json.loads(spans_path.read_text()) if s["start"] <= until]
    rows = ledger(spans)
    run.ledger = rows

    def self_s(name):
        return rows.get(name, {}).get("self_s", 0.0)

    ingest = rows.get("core.engine.ingest_payloads", {})
    run.layers.update({
        "serve.tenants.accept_chunk_s": self_s("serve.tenants.accept_chunk"),
        "serve.journal.append_s": self_s("serve.journal.append"),
        "io.packetlog.decode_s": self_s("io.packetlog.decode"),
        "serve.foldpool.fold_many_s": self_s("serve.foldpool.fold_many"),
        "core.engine.ingest_payloads_s": self_s("core.engine.ingest_payloads"),
        "core.engine.chunks_per_fold": (
            ingest["items"] / ingest["calls"] if ingest.get("calls") else 0.0
        ),
        "core.engine.save_snapshot_s": self_s("core.engine.save_snapshot"),
        "core.engine.snapshots": rows.get("core.engine.save_snapshot", {}).get("calls", 0),
        "core.engine.query_s": self_s("core.engine.query"),
        "serve.foldpool.collect_s": self_s("serve.foldpool.collect"),
        # Inclusive: replay does its work through the fold layers above.
        "serve.tenants.replay_journal_s": rows.get(
            "serve.tenants.replay_journal", {}).get("total_s", 0.0),
        "serve.tenants.replayed_chunks": rows.get(
            "serve.tenants.replay_journal", {}).get("items", 0),
    })


def _final_check(run: Run, client: ServeClient, oracle: dict, label: str) -> dict:
    """The served AH answer against the oracle; returns ``/health``."""
    run.count("queries_attempted")
    try:
        payload = client.query_ah(TENANT)
        health = client.health()
    except Exception as exc:  # noqa: BLE001 — counted as failed
        run.check(f"{label}: final AH query answered", False, str(exc))
        return {}
    run.count("queries_answered")
    check_detections(run, f"{label}: served AH sets/thresholds == serial oracle",
                     from_serve(payload), oracle)
    return health


class Sent:
    """What :func:`send_chunks` saw: acks, lateness, retries, failures."""

    def __init__(self):
        self.packets = 0
        self.acked = 0
        self.retries = 0
        self.ack_s: List[float] = []
        self.late_s: List[float] = []
        self.errors: List[str] = []
        self.seconds = 0.0


def send_chunks(run: Run, client: ServeClient, chunks, rate: Optional[float] = None) -> Sent:
    """Send every chunk in order on one connection, then ``sync``.

    Closed-loop (the next chunk goes once the last is acked) without
    ``rate``; open-loop with it, each chunk due at its packet-proportional
    time from the start, its lateness and ack time taken from that due
    time.  A chunk that is never acked, or a failed ``sync``, counts as a
    failed operation and the rest are still sent.
    """
    sent = Sent()
    start = time.perf_counter()
    offered = 0
    for _, n, blob in chunks:
        if rate is None:
            due = time.perf_counter()
        else:
            due = start + offered / rate
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            sent.late_s.append(time.perf_counter() - due)
        offered += n
        try:
            sent.retries += client.ingest_blocking(TENANT, blob)
        except Exception as exc:  # noqa: BLE001 — counted as failed
            sent.errors.append(f"chunk: {exc}")
            continue
        sent.ack_s.append(time.perf_counter() - due)
        sent.acked += 1
        sent.packets += n
    try:
        client.sync(TENANT)
    except Exception as exc:  # noqa: BLE001 — counted as failed
        sent.errors.append(f"sync: {exc}")
    sent.seconds = time.perf_counter() - start
    run.detail.setdefault("send_errors", []).extend(sent.errors)
    run.count("chunks_attempted", len(chunks))
    run.count("chunks_acked", sent.acked)
    run.ops(len(chunks) + 1, len(sent.errors))
    return sent


def serve_ingest(run: Run, inputs, chunks, tmp: Path, label: str,
                 traced: bool) -> Dict[str, float]:
    """One closed-loop ingest pass on a fresh server; returns its figures."""
    snap = _serve_dir(tmp, f"ingest-{time.monotonic_ns()}")
    spans = tmp / "ingest-spans.json" if traced else None
    server = Server(snap, spans)
    try:
        with server.client() as client:
            client.create_tenant(TENANT, inputs.tenant_config())
            setup_s = time.perf_counter() - server.t_start
            sent = send_chunks(run, client, chunks)
            work_end = time.perf_counter()
            health = _final_check(run, client, inputs.oracle, label)
    except BaseException:
        server.kill()
        raise
    server.stop(run, label)
    figures = {
        "setup_s": setup_s,
        "work_s": sent.seconds,
        "pkt_per_s": sent.packets / sent.seconds,
        "peak_rss_mb": server.peak_rss_mb(),
        "retries": sent.retries,
    }
    if traced:
        _serve_span_layers(run, spans, work_end)
        _health_layers(run, health)
        run.layers["serve.client.retries_per_chunk"] = sent.retries / len(chunks)
        run.layers["serve.client.ack_p50_ms"] = 1e3 * statistics.median(sent.ack_s)
    return figures


def serve_query(run: Run, inputs, first, rest, rate: float, pristine: Path,
                tmp: Path, label: str, traced: bool) -> Dict[str, float]:
    """Recover the journal, then trickle the rest beside queries."""
    snap = _serve_dir(tmp, f"query-{time.monotonic_ns()}", pristine)
    spans = tmp / "query-spans.json" if traced else None
    server = Server(snap, spans)
    try:
        client, querier = server.client(), server.client()
        setup_s = server.ready_s
        recovered = client.health()["tenants"][TENANT]["chunks"]
        run.check(f"{label}: journal recovery folded every journaled chunk",
                  recovered == len(first), f"{recovered} of {len(first)}")

        latencies: List[float] = []
        errors: List[str] = []
        trickle_done = threading.Event()
        marks = {}

        def query_loop():
            i = 0
            deadline = time.perf_counter() + CHILD_TIMEOUT_S / 2
            while not (trickle_done.is_set() and len(latencies) >= MIN_QUERIES):
                if time.perf_counter() > deadline or len(errors) > 5:
                    break
                t = time.perf_counter()
                try:
                    querier.query_ah(TENANT, 1 + i % 3)
                    latencies.append(time.perf_counter() - t)
                    if len(latencies) == MIN_QUERIES:
                        marks["queries_done"] = time.perf_counter()
                except Exception as exc:  # noqa: BLE001 — counted as failed
                    errors.append(str(exc))
                i += 1

        start = time.perf_counter()
        thread = threading.Thread(target=query_loop)
        thread.start()
        sent = send_chunks(run, client, rest, rate)
        trickle_done.set()
        thread.join()
        work_end = time.perf_counter()
        run.count("queries_attempted", len(latencies) + len(errors))
        run.count("queries_answered", len(latencies))
        run.ops(len(latencies) + len(errors), len(errors))
        run.check(f"{label}: at least {MIN_QUERIES} queries answered",
                  len(latencies) >= MIN_QUERIES, f"{len(latencies)} answered")
        # Open-loop validity: a generator that falls a whole chunk
        # interval behind is pacing itself on the server's acks.
        interval = statistics.median(n for _, n, _ in rest) / rate
        late_max = max(sent.late_s, default=0.0)
        run.check(f"{label}: trickle never a chunk interval late",
                  late_max <= interval,
                  f"late_max {1e3 * late_max:.1f} ms, interval {1e3 * interval:.1f} ms")
        health = _final_check(run, client, inputs.oracle, label)
        client.close()
        querier.close()
    except BaseException:
        server.kill()
        raise
    server.stop(run, label)
    quartiles = statistics.quantiles(latencies, n=4) if len(latencies) > 1 else [0, 0, 0]
    figures = {
        "setup_s": setup_s,
        "work_s": marks.get("queries_done", work_end) - start,
        "pkt_per_s": sent.packets / (work_end - start),
        "peak_rss_mb": server.peak_rss_mb(),
        "query_p50_ms": 1e3 * statistics.median(latencies) if latencies else 0.0,
        "query_p75_ms": 1e3 * quartiles[2],
        "queries": len(latencies),
        "late_max_ms": 1e3 * late_max,
        "retries": sent.retries,
    }
    if traced:
        _serve_span_layers(run, spans, work_end)
        _health_layers(run, health)
        run.layers["serve.client.retries_per_chunk"] = sent.retries / len(rest)
        run.layers["serve.client.ack_p50_ms"] = 1e3 * statistics.median(sent.ack_s)
        run.layers["loadgen.late_max_ms"] = figures["late_max_ms"]
        run.layers["serve.query_p50_ms"] = figures["query_p50_ms"]
        run.layers["serve.query_p75_ms"] = figures["query_p75_ms"]
    return figures


def _setup_only_boot(run: Run, tmp: Path, i: int, inputs,
                     pristine: Optional[Path]) -> float:
    """Boot, set up as a pass would, stop: one more set-up sample.

    Over ``pristine`` the set-up is the journal recovery; without it, an
    empty server plus creating the tenant.
    """
    snap = _serve_dir(tmp, f"setup-{i}", pristine)
    server = Server(snap)
    try:
        with server.client() as client:
            if pristine is None:
                client.create_tenant(TENANT, inputs.tenant_config())
        setup_s = time.perf_counter() - server.t_start
        if pristine is not None:
            setup_s = server.ready_s
    except BaseException:
        server.kill()
        raise
    server.stop(run, f"setup boot {i}")
    shutil.rmtree(snap)
    return setup_s


def serve(run: Run, workload: str, scenario: str, seed: int, trace: bool,
          tmp: Path) -> None:
    ingest = workload == "serve-ingest"
    inputs = build_inputs(scenario, seed, INGEST_DAYS if ingest else QUERY_DAYS,
                          relabel=True)
    run.detail["events"] = inputs.events
    run.detail["packets"] = len(inputs.packets)
    shm_before = shm_segments()
    pristine = None
    if ingest:
        chunks = inputs.chunks(INGEST_CHUNK_S)

        def one_pass(label, traced):
            return serve_ingest(run, inputs, chunks, tmp, label, traced)
    else:
        split = QUERY_JOURNAL_DAYS * inputs.scenario.clock.seconds_per_day
        chunks = inputs.chunks(QUERY_CHUNK_S)
        first = [c for c in chunks if c[0] < split]
        rest = [c for c in chunks if c[0] >= split]
        # Day 1 goes into a journal through the server's own registry,
        # so booting over it is a crash recovery.
        pristine = _serve_dir(tmp, "pristine")
        registry = TenantRegistry(str(pristine))
        tenant = registry.create(TENANT, inputs.tenant_config())
        for _, _, blob in first:
            tenant.accept_chunk(blob)
        registry.close_journals()

        def one_pass(label, traced):
            return serve_query(run, inputs, first, rest, TRICKLE_PKT_PER_S[scenario],
                               pristine, tmp, label, traced)
    gc.collect()

    for i in range(0 if trace else SETUP_ONLY[workload]):
        run.sample("setup_s", _setup_only_boot(run, tmp, i, inputs, pristine))
    # A traced run pairs one untraced pass with a traced one.
    for i in range(1 if trace else REPS[workload]):
        figures = one_pass(f"pass {i + 1}", False)
        for name in ("setup_s", "work_s", "peak_rss_mb"):
            run.sample(name, figures[name])
        run.detail[f"pass {i + 1}"] = figures
    if trace:
        traced = one_pass("traced pass", True)
        run.detail["traced pass"] = traced
        # Time-like primary metric: traced over untraced.
        run.layers["trace.overhead_ratio"] = traced["work_s"] / figures["work_s"]
    leaked = shm_segments() - shm_before
    run.check("no /dev/shm/repro-* segment left", not leaked, ", ".join(sorted(leaked)))


def run_workload(run: Run, workload: str, scenario: str, seed: int,
                 trace: bool) -> None:
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT))
    try:
        if workload == "study-batch":
            study(run, scenario, seed, trace, tmp)
        else:
            serve(run, workload, scenario, seed, trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    run.check("temporary snapshot dirs removed", not tmp.exists())
