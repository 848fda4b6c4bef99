"""Performance baseline for columnar shard-parallel flow synthesis.

Pins the two claims of the flow-synthesis rebuild on the darknet-year
scenario's heavy tail — the 1,000 scanners with the most session-ports,
which is the population ``collect_flows`` actually materializes (the
detected AH plus acknowledged fleets are precisely the heavy,
many-port, long-duration sources):

* **Vectorized vs loop** — the columnar path (batched per-scanner
  draws, one multinomial over all count rows, one binomial over the
  true-count column) beats the scalar loop reference by >= 5x while
  producing a bit-identical ``FlowTable``.
* **Shard-parallel** — 4 workers under the cost-capped ``stealing``
  plan (the only flow-synthesis plan) beat the loop baseline >= 3.8x end to end (process pool +
  pickling included) with worker-time spread (max/min shard seconds)
  < 2x, again bit-identical.

Results land in ``benchmarks/results/BENCH_flows.json`` so future PRs
have a machine-readable baseline; the CI bench-smoke artifact step
uploads the whole results directory and the ``perf-gate`` job compares
the fresh numbers against the committed baseline
(``benchmarks/perf_gate.py``).  Self-timed with ``perf_counter`` (not
the ``benchmark`` fixture) so a single pass still measures and asserts
under ``--benchmark-disable``.

Units note: per-shard ``synth_rows`` counts *pre-sampling* (day, port)
count rows coming out of synthesis, while the top-level ``flow_rows``
counts *exported* flows after 1:1000 NetFlow sampling drops empty
cells — the two are different quantities and are reported under
different names (``tests/test_parallel.py`` pins the relationship).
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import RESULTS_DIR, emit
from repro.analysis.tables import format_table
from repro.core.telemetry import PipelineTelemetry
from repro.flows.synthesis import collect_scanner_flows_loop
from repro.sim.runner import _build_world_base
from repro.sim.scenario import darknet_year_scenario

DAYS = 6
#: heavy-tail cut: scanners ranked by total session-ports.  Flow
#: collection in the pipeline runs on the detected AH set, which is
#: this tail — the tiny single-port background sources never reach it.
N_SCANNERS = 1_000

_BENCH_JSON = RESULTS_DIR / "BENCH_flows.json"

_TABLE_COLS = ("router", "day", "src", "dport", "proto", "packets", "sampled")


def _assert_tables_identical(a, b):
    for column in _TABLE_COLS:
        assert np.array_equal(getattr(a, column), getattr(b, column)), column


@pytest.fixture(scope="module")
def flows_world():
    scenario = dataclasses.replace(
        darknet_year_scenario(2021, days=DAYS),
        with_isp=True,
        flow_days=tuple(range(DAYS)),
    )
    internet, _, population, merit, _, _ = _build_world_base(scenario)
    merit.internet = internet
    heavy = sorted(
        population.scanners,
        key=lambda s: sum(len(session.ports) for session in s.sessions),
        reverse=True,
    )[:N_SCANNERS]
    return scenario, merit, heavy


@pytest.fixture(scope="module")
def loop_baseline(flows_world):
    """The pre-PR scalar loop, timed once and shared by both tests."""
    scenario, merit, heavy = flows_world
    t0 = time.perf_counter()
    table, totals = collect_scanner_flows_loop(
        merit, heavy, scenario.window(), scenario.clock,
        np.random.default_rng(5),
    )
    seconds = time.perf_counter() - t0
    return table, totals, seconds


def test_perf_flows_vectorized(
    flows_world, loop_baseline, results_dir, bench_sections
):
    """Columnar single-process: bit-identical table, >= 5x faster."""
    scenario, merit, heavy = flows_world
    loop_table, loop_totals, loop_seconds = loop_baseline

    t0 = time.perf_counter()
    table, totals = merit.collect_scanner_flows(
        heavy, scenario.window(), scenario.clock, np.random.default_rng(5)
    )
    columnar_seconds = time.perf_counter() - t0

    assert len(table) > 0
    _assert_tables_identical(table, loop_table)
    assert totals == loop_totals

    speedup = loop_seconds / columnar_seconds
    bench_sections.write(
        _BENCH_JSON,
        "flows",
        {
            "scenario": scenario.name,
            "days": DAYS,
            "scanners": len(heavy),
            "flow_rows": len(table),
            "loop_seconds": round(loop_seconds, 3),
            "columnar_seconds": round(columnar_seconds, 3),
            "loop_rows_per_s": round(len(table) / loop_seconds),
            "columnar_rows_per_s": round(len(table) / columnar_seconds),
            "speedup": round(speedup, 3),
        },
    )
    emit(
        results_dir,
        "perf_flows",
        format_table(
            ["metric", "value"],
            [
                ("scanners", f"{len(heavy):,}"),
                ("flow rows", f"{len(table):,}"),
                (
                    "scalar loop",
                    f"{loop_seconds:.2f} s "
                    f"({len(table) / loop_seconds:,.0f} rows/s)",
                ),
                (
                    "columnar",
                    f"{columnar_seconds:.2f} s "
                    f"({len(table) / columnar_seconds:,.0f} rows/s)",
                ),
                ("speedup", f"{speedup:.2f}x"),
            ],
            title=f"Columnar flow synthesis — {scenario.name} ({DAYS} days)",
            align_right=False,
        ),
    )
    assert speedup >= 5.0


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4
    and not os.environ.get("REPRO_BENCH_FORCE"),
    reason="speedup floor needs >= 4 cores "
    "(set REPRO_BENCH_FORCE=1 to regenerate the baseline anyway)",
)
def test_perf_flows_parallel(
    flows_world, loop_baseline, results_dir, bench_sections
):
    """4 stealing workers: bit-identical, >= 3.8x, spread < 2x."""
    scenario, merit, heavy = flows_world
    loop_table, loop_totals, loop_seconds = loop_baseline

    # Two attempts, keep the faster: one straggler core in a shared CI
    # runner shouldn't fail the spread gate.  Both runs assert
    # bit-identity, so correctness is never traded for the retry.
    best = None
    for _ in range(2):
        telemetry = PipelineTelemetry()
        t0 = time.perf_counter()
        table, totals = merit.collect_scanner_flows(
            heavy, scenario.window(), scenario.clock,
            np.random.default_rng(5),
            workers=4, telemetry=telemetry,
        )
        seconds = time.perf_counter() - t0
        _assert_tables_identical(table, loop_table)
        assert totals == loop_totals
        assert len(telemetry.flow_worker_stats) == 4
        if best is None or seconds < best[0]:
            best = (seconds, table, telemetry)
    parallel_seconds, table, telemetry = best

    workers = telemetry.flow_worker_stats
    assert sum(w.scanners for w in workers) == len(heavy)
    synth_rows = sum(w.rows for w in workers)
    # The exporter only drops rows (empty sampled cells), never adds.
    assert len(table) <= synth_rows

    speedup = loop_seconds / parallel_seconds
    shard_seconds = [w.seconds for w in workers]
    spread = max(shard_seconds) / max(min(shard_seconds), 1e-9)
    bench_sections.write(
        _BENCH_JSON,
        "parallel",
        {
            "scenario": scenario.name,
            "days": DAYS,
            "workers": 4,
            "schedule": "stealing",
            "scanners": len(heavy),
            # exported flows (post 1:1000 sampling) — NOT the same unit
            # as the per-shard synth_rows below.
            "flow_rows": len(table),
            # pre-sampling synthesis count rows, summed over shards.
            "synth_rows": synth_rows,
            "loop_seconds": round(loop_seconds, 3),
            "parallel_seconds": round(parallel_seconds, 3),
            "speedup": round(speedup, 3),
            "spread": round(spread, 3),
            "workers_detail": [
                {
                    "shard": w.shard,
                    "scanners": w.scanners,
                    "synth_rows": w.rows,
                    "seconds": round(w.seconds, 3),
                    "synth_rows_per_s": round(w.throughput),
                    "planned_cost": round(w.planned_cost, 1),
                    "tasks": w.tasks,
                    "stolen_tasks": w.stolen_tasks,
                }
                for w in workers
            ],
        },
    )
    rows = [
        ("scanners", f"{len(heavy):,}"),
        ("scalar loop", f"{loop_seconds:.2f} s"),
        (
            "stealing, 4 workers",
            f"{parallel_seconds:.2f} s "
            f"({len(table) / parallel_seconds:,.0f} flows/s)",
        ),
        ("speedup", f"{speedup:.2f}x"),
        ("spread (max/min shard s)", f"{spread:.2f}x"),
        ("exported flows", f"{len(table):,}"),
        ("synth rows (pre-sampling)", f"{synth_rows:,}"),
    ] + [
        (
            f"worker {w.shard}",
            f"{w.scanners:,} scanners, {w.rows:,} synth rows, "
            f"{w.seconds:.2f} s, {w.tasks} tasks "
            f"({w.stolen_tasks} stolen)",
        )
        for w in workers
    ]
    emit(
        results_dir,
        "perf_flows_parallel",
        format_table(
            ["metric", "value"],
            rows,
            title=f"Shard-parallel flow synthesis — {scenario.name}",
            align_right=False,
        ),
    )
    assert speedup >= 3.8
    assert spread < 2.0
