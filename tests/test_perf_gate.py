"""The perf gate reports only numbers this run measured.

``benchmarks/perf_gate.py`` compares a fresh ``BENCH_*.json`` set with
the committed baselines; the bench modules write their sections through
``benchmarks.conftest.BenchSections``.  A section whose bench
skipped must be absent from the fresh file, and the gate must then show
the metric as "n/a" rather than passing a committed number against
itself.
"""

import json

from benchmarks.conftest import BenchSections
from benchmarks.perf_gate import build_rows

BASELINE = {
    "BENCH_flows.json": {
        "flows": {"speedup": 6.0},
        "parallel": {"speedup": 4.361, "spread": 1.212},
    },
}


def _rows(fresh):
    rows = build_rows(
        BASELINE, fresh, tolerance=0.15, spread_max=2.0, speedup_floor=3.8
    )
    return {row.metric: row for row in rows}


def test_fresh_file_without_parallel_section_is_not_gated():
    rows = _rows({"BENCH_flows.json": {"flows": {"speedup": 6.1}}})
    for metric in (
        "flows: 4-worker speedup vs loop",
        "flows: worker-time spread (max/min)",
    ):
        row = rows[metric]
        assert row.fresh is None
        assert row.threshold == "n/a"
        assert not row.gated
    assert rows["flows: columnar speedup vs loop"].gated


def test_measured_parallel_section_is_gated():
    fresh = {
        "BENCH_flows.json": {
            "flows": {"speedup": 6.1},
            "parallel": {"speedup": 2.0, "spread": 1.1},
        }
    }
    row = _rows(fresh)["flows: 4-worker speedup vs loop"]
    assert row.gated and not row.passed


def test_bench_file_keeps_only_sections_written_this_session(tmp_path):
    path = tmp_path / "BENCH_flows.json"
    path.write_text(json.dumps(BASELINE["BENCH_flows.json"]))
    sections = BenchSections()
    sections.write(path, "flows", {"speedup": 6.1})
    assert json.loads(path.read_text()) == {"flows": {"speedup": 6.1}}
    sections.write(path, "parallel", {"speedup": 4.0})
    assert set(json.loads(path.read_text())) == {"flows", "parallel"}
