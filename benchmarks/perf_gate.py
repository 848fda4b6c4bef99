"""CI perf-regression gate over the committed benchmark baselines.

Compares freshly regenerated ``BENCH_flows.json`` / ``BENCH_emit.json``
(the bench-smoke job's ``benchmark-results`` artifact) against the
baselines committed under ``benchmarks/results/`` and fails the build
when a gated metric regresses:

* the columnar flow-synthesis speedup over the loop and the emit-path
  parallel speedup may not drop more than ``--tolerance`` below the
  committed baseline, when both sides report them;
* the emit path's lazy/materialize ratios are hard ceilings: lazy
  streaming may not be slower than materializing (``time_ratio < 1``)
  and may not peak above a quarter of the materialized allocation
  (``peak_ratio < 0.25``);
* the serve path's pooled-vs-per-chunk ingest speedup
  (``BENCH_serve.json``, regenerated by the serve lane's
  ``run_serve_bench.py``) gets the same baseline-relative band; its
  latency percentiles are reported but never gated (too noisy on
  shared runners).

``--fresh-dir`` may be repeated: CI's bench-smoke and serve lanes
upload separate artifacts, and the gate merges them (later directories
win on duplicate file names).

Only *ratio* metrics are gated — speedups and ratios compare two
timings from the same machine, so they transfer between the baseline
host and whatever runner CI lands on.  Absolute numbers (seconds,
rows/s) are shown in the report but never enforced.

A before/after markdown table is printed to stdout and appended to
``$GITHUB_STEP_SUMMARY`` when that variable is set (the job-summary
panel in the Actions UI).

Usage::

    python benchmarks/perf_gate.py --fresh-dir fresh-results
    python benchmarks/perf_gate.py --fresh-dir benchmarks/results \
        --baseline-git HEAD        # after `make bench-smoke` locally

Stdlib only: the gate job does not need numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH_FILES = ("BENCH_flows.json", "BENCH_emit.json", "BENCH_serve.json")

#: benchmarks/results relative to the repository root — where the
#: committed baselines live and what ``--baseline-git`` reads from.
RESULTS_SUBDIR = "benchmarks/results"


@dataclass
class GateRow:
    """One metric's before/after comparison."""

    metric: str
    baseline: Optional[float]
    fresh: Optional[float]
    threshold: str
    passed: bool
    gated: bool

    def markdown(self) -> str:
        def fmt(value):
            return "—" if value is None else f"{value:.3f}"

        status = (
            ("✅ pass" if self.passed else "❌ FAIL")
            if self.gated
            else "ℹ️ info"
        )
        return (
            f"| {self.metric} | {fmt(self.baseline)} | {fmt(self.fresh)} "
            f"| {self.threshold} | {status} |"
        )


def _load_dir(directory: Path) -> dict:
    data = {}
    for name in BENCH_FILES:
        path = directory / name
        if path.exists():
            data[name] = json.loads(path.read_text())
    return data


def _load_git(ref: str) -> dict:
    data = {}
    for name in BENCH_FILES:
        spec = f"{ref}:{RESULTS_SUBDIR}/{name}"
        try:
            blob = subprocess.run(
                ["git", "show", spec],
                capture_output=True,
                check=True,
            ).stdout
        except subprocess.CalledProcessError:
            continue
        data[name] = json.loads(blob)
    return data


def _get(data: dict, file: str, *keys) -> Optional[float]:
    node = data.get(file)
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def build_rows(
    baseline: dict,
    fresh: dict,
    *,
    tolerance: float,
) -> list:
    """All comparison rows; gated ones carry pass/fail state."""

    rows = []

    def relative(metric, file, *keys):
        base = _get(baseline, file, *keys)
        new = _get(fresh, file, *keys)
        if new is None or base is None:
            # Metric absent on one side: nothing to enforce (a skipped
            # bench on a small runner must not fail the gate), but the
            # gap stays visible in the report.
            rows.append(
                GateRow(metric, base, new, "n/a", passed=True, gated=False)
            )
            return
        threshold = base * (1.0 - tolerance)
        rows.append(
            GateRow(
                metric,
                base,
                new,
                f">= {threshold:.3f}",
                passed=new >= threshold,
                gated=True,
            )
        )

    def absolute_max(metric, file, *keys, limit):
        base = _get(baseline, file, *keys)
        new = _get(fresh, file, *keys)
        if new is None:
            rows.append(
                GateRow(metric, base, new, "n/a", passed=True, gated=False)
            )
            return
        rows.append(
            GateRow(
                metric,
                base,
                new,
                f"< {limit:.2f}",
                passed=new < limit,
                gated=True,
            )
        )

    def info(metric, file, *keys):
        rows.append(
            GateRow(
                metric,
                _get(baseline, file, *keys),
                _get(fresh, file, *keys),
                "n/a",
                passed=True,
                gated=False,
            )
        )

    relative(
        "flows: columnar speedup vs loop",
        "BENCH_flows.json", "flows", "speedup",
    )
    relative(
        "emit: 4-worker lazy speedup",
        "BENCH_emit.json", "parallel", "speedup",
    )
    absolute_max(
        "emit: lazy/materialize time ratio",
        "BENCH_emit.json", "emit", "time_ratio",
        limit=1.0,
    )
    absolute_max(
        "emit: lazy/materialized peak-memory ratio",
        "BENCH_emit.json", "emit", "peak_ratio",
        limit=0.25,
    )
    relative(
        "serve: pooled ingest speedup vs per-chunk",
        "BENCH_serve.json", "compare", "ingest_speedup",
    )
    # Latency percentiles on shared runners are too noisy to gate, but
    # the trend stays visible in every report.
    info(
        "serve: query-under-load p99 ratio (pooled/per-chunk)",
        "BENCH_serve.json", "compare", "query_p99_ratio",
    )
    info(
        "serve: pooled ack p99 (ms)",
        "BENCH_serve.json", "pooled", "ack_p99_ms",
    )
    return rows


def render(rows: list, tolerance: float) -> str:
    lines = [
        "## Perf gate",
        "",
        f"Tolerance band: -{tolerance:.0%} vs committed baseline.",
        "",
        "| metric | baseline | fresh | threshold | status |",
        "| --- | --- | --- | --- | --- |",
    ]
    lines.extend(row.markdown() for row in rows)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh-dir",
        required=True,
        type=Path,
        action="append",
        dest="fresh_dirs",
        help="directory holding regenerated BENCH_*.json files; repeat "
        "to merge several artifact directories (later dirs win on "
        "duplicate file names)",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=None,
        help=f"directory with committed baselines (default {RESULTS_SUBDIR})",
    )
    parser.add_argument(
        "--baseline-git",
        metavar="REF",
        default=None,
        help="read baselines from this git ref instead of a directory "
        "(use after bench-smoke overwrote benchmarks/results in place)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed relative drop vs baseline (default 0.15)",
    )
    args = parser.parse_args(argv)

    if args.baseline_git is not None:
        baseline = _load_git(args.baseline_git)
    else:
        baseline_dir = args.baseline_dir or Path(RESULTS_SUBDIR)
        baseline = _load_dir(baseline_dir)
    fresh = {}
    for fresh_dir in args.fresh_dirs:
        fresh.update(_load_dir(fresh_dir))
    if not fresh:
        print(
            "no BENCH_*.json found under "
            + ", ".join(str(d) for d in args.fresh_dirs),
            file=sys.stderr,
        )
        return 2

    rows = build_rows(baseline, fresh, tolerance=args.tolerance)
    report = render(rows, args.tolerance)
    print(report)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as fh:
            fh.write(report)

    failed = [row for row in rows if row.gated and not row.passed]
    if failed:
        for row in failed:
            print(
                f"perf-gate FAIL: {row.metric} = {row.fresh} "
                f"(wanted {row.threshold})",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
