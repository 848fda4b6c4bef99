"""The perf gate reports only numbers this run measured.

``benchmarks/perf_gate.py`` compares a fresh ``BENCH_*.json`` set with
the committed baselines; the bench modules write their sections through
``benchmarks.conftest.BenchSections``.  A section whose bench
skipped (the emit path's 4-worker ``parallel`` section on a host with
fewer than 4 cores) must be absent from the fresh file, and the gate
must then show the metric as "n/a" rather than passing a committed
number against itself.
"""

import json

from benchmarks.conftest import BenchSections
from benchmarks.perf_gate import build_rows

BASELINE = {
    "BENCH_flows.json": {"flows": {"speedup": 6.0}},
    "BENCH_emit.json": {
        "emit": {"time_ratio": 0.9, "peak_ratio": 0.1},
        "parallel": {"speedup": 3.0},
    },
}

_PARALLEL = "emit: 4-worker lazy speedup"


def _rows(fresh):
    rows = build_rows(BASELINE, fresh, tolerance=0.15)
    return {row.metric: row for row in rows}


def test_fresh_file_without_parallel_section_is_not_gated():
    rows = _rows(
        {
            "BENCH_flows.json": {"flows": {"speedup": 6.1}},
            "BENCH_emit.json": {"emit": {"time_ratio": 0.9}},
        }
    )
    row = rows[_PARALLEL]
    assert row.fresh is None
    assert row.threshold == "n/a"
    assert not row.gated
    assert rows["flows: columnar speedup vs loop"].gated


def test_measured_parallel_section_is_gated():
    fresh = {"BENCH_emit.json": {"parallel": {"speedup": 2.0}}}
    row = _rows(fresh)[_PARALLEL]
    assert row.gated and not row.passed


def test_bench_file_keeps_only_sections_written_this_session(tmp_path):
    path = tmp_path / "BENCH_emit.json"
    path.write_text(json.dumps(BASELINE["BENCH_emit.json"]))
    sections = BenchSections()
    sections.write(path, "emit", {"time_ratio": 0.8})
    assert json.loads(path.read_text()) == {"emit": {"time_ratio": 0.8}}
    sections.write(path, "parallel", {"speedup": 4.0})
    assert set(json.loads(path.read_text())) == {"emit", "parallel"}
