"""Performance baseline for columnar flow synthesis.

Pins the claim of the flow-synthesis rebuild on the darknet-year
scenario's heavy tail — the 1,000 scanners with the most session-ports,
which is the population ``collect_flows`` actually materializes (the
detected AH plus acknowledged fleets are precisely the heavy,
many-port, long-duration sources): the columnar path (batched
per-scanner draws, one multinomial over all count rows, one binomial
over the true-count column) beats the scalar loop reference
(``tests/flow_oracle.py``) by >= 5x while producing a bit-identical
``FlowTable``.

Results land in ``benchmarks/results/BENCH_flows.json`` so future PRs
have a machine-readable baseline; the CI bench-smoke artifact step
uploads the whole results directory and the ``perf-gate`` job compares
the fresh numbers against the committed baseline
(``benchmarks/perf_gate.py``).  Self-timed with ``perf_counter`` (not
the ``benchmark`` fixture) so a single pass still measures and asserts
under ``--benchmark-disable``.  ``flow_rows`` counts *exported* flows,
after 1:1000 NetFlow sampling drops empty cells.
"""

import dataclasses
import time

import numpy as np
import pytest

from benchmarks.conftest import RESULTS_DIR, emit
from repro.analysis.tables import format_table
from repro.sim.runner import _build_world_base
from repro.sim.scenario import darknet_year_scenario
from tests.flow_oracle import collect_scanner_flows_loop

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
    """The scalar loop reference, timed once."""
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
