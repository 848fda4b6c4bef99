"""Smoke tests of the benchmark on the tiny scenario.

Every workload runs untraced and traced; each must emit every metric
``BENCHMARK.json`` names, with its unit, and pass its output checks.
Run from the repository root::

    python3 -m pytest layerbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: per-layer metrics each workload must measure as non-zero.
EXERCISED = {
    "study-batch": [
        "net.build_internet_s", "scanners.build_population_s",
        "flows.build_isp_s", "telescope.capture_s", "telescope.capture_pkts",
        "core.events.build_events_s", "core.detection.detect_all_s",
        "report.dataset_summary_s", "report.top_ports_s",
        "report.stream_series_s", "report.origins_table_s",
        "study.unattributed_s", "trace.overhead_ratio",
        "parallel.generate_detect_s", "parallel.worker_busy_max_s",
        "parallel.worker_busy_min_s",
    ],
    "serve-ingest": [
        "serve.tenants.accept_chunk_s", "serve.journal.append_s",
        "serve.journal.fsyncs", "io.packetlog.decode_s",
        "serve.foldpool.fold_many_s", "core.engine.ingest_payloads_s",
        "core.engine.chunks_per_fold", "serve.client.ack_p50_ms",
        "trace.overhead_ratio",
    ],
    "serve-query": [
        "core.engine.query_s", "serve.foldpool.collect_s",
        "serve.tenants.replay_journal_s", "serve.tenants.replayed_chunks",
        "serve.query_p50_ms", "serve.query_p75_ms", "loadgen.late_max_ms",
        "trace.overhead_ratio",
    ],
}


def bench(workload: str, seed: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scenario", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def assert_result(detail: dict, result: dict, wanted: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    failed = [c for c in detail["checks"] if not c["ok"]]
    assert result["correct"] and result["failed"] == 0, failed
    assert result["attempted"] >= 1
    assert detail["failed_share"] == 0.0
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    detail, result = bench(workload, 1, 0)
    assert_result(detail, result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    manifest = detail["manifest"]
    for key in ("workload", "seed", "scenario", "git_revision",
                "source_digest", "cpu_count", "python", "numpy"):
        assert key in manifest
    assert all(len(detail["samples"][m["name"]]) >= 1 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics(workload):
    detail, result = bench(workload, 1, 1)
    assert_result(detail, result, SPEC["per_layer"])
    for name in EXERCISED[workload]:
        assert result["metrics"][name]["value"] > 0, name
    assert detail["ledger"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_hold_on_a_second_seed(workload):
    detail, result = bench(workload, 5, 0)
    assert_result(detail, result, SPEC["end_to_end"])


def test_traced_study_checks_sharded_report_against_batch():
    detail, result = bench("study-batch", 5, 1)
    assert_result(detail, result, SPEC["per_layer"])
    names = {c["check"] for c in detail["checks"]}
    assert "sharded report text byte-identical to batch" in names


def test_relabel_is_a_seeded_bijection():
    sys.path.insert(0, str(ROOT / "layerbench"))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from inputs import relabel_sources
    from repro.packet import PacketBatch

    src = np.arange(0, 2**32, 2**16 + 7, dtype=np.uint32)
    n = len(src)
    batch = PacketBatch(
        ts=np.zeros(n), src=src, dst=np.zeros(n), dport=np.zeros(n),
        proto=np.zeros(n), ipid=np.zeros(n),
    )
    one, again, two = (relabel_sources(batch, s).src for s in (1, 1, 2))
    assert len(np.unique(one)) == n
    assert np.array_equal(one, again)
    assert not np.array_equal(one, two)
