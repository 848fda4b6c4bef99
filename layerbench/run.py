"""The repository benchmark: three workloads on the 72-hour stream scenario.

    python3 layerbench/run.py --workload study-batch --seed 1 \
        --seconds 35 --trace 0

Prints every metric by name and unit, one JSON line with the manifest,
failure base, output checks and samples, and, as the last line, the
result object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json`` (medians of the run's samples); with ``--trace 1``
they are its per-layer metrics, from a traced repetition recorded next
to an untraced one.  Each workload does a fixed number of repetitions,
sized so a run lasts about ``run_seconds``; ``--seconds`` is recorded in
the manifest.  See ``layerbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

# Without the program's sources there is nothing to measure: fail here,
# before any output.
import numpy  # noqa: E402

import repro  # noqa: E402,F401
from workloads import Run, run_workload  # noqa: E402

WORKLOADS = ("study-batch", "serve-ingest", "serve-query")


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """sha256 over the program's source files (the checkout may not be
    a git repository, so this names the code that ran)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def manifest(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scenario": args.scenario,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": _git_revision(),
        "source_digest": _source_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=35.0,
        help="nominal run length (recorded; the work per run is fixed)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scenario", choices=("stream-72h", "tiny"), default="stream-72h",
        help="input scenario (tiny: the test smoke)",
    )
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run = Run()
    run_workload(run, args.workload, args.scenario, args.seed, bool(args.trace))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = {m["name"]: run.layers.get(m["name"], 0.0) for m in wanted}
        counts = {name: 1 for name in values}
    else:
        values = {
            m["name"]: statistics.median(run.samples[m["name"]]) for m in wanted
        }
        counts = {name: len(run.samples[name]) for name in values}
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }
    for m in wanted:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}"
              f" (n={counts[m['name']]})")
    correct = run.failed == 0 and all(c["ok"] for c in run.checks)
    print(json.dumps({
        "manifest": manifest(args),
        "failed_share": run.failed / max(1, run.attempted),
        "failure_base": run.base,
        "checks": run.checks,
        "samples": run.samples,
        "detail": run.detail,
        "ledger": run.ledger,
    }, default=float))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
