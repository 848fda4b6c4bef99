"""One study repetition in a fresh process: ``run_study`` then the report.

Runs the CLI ``report`` path (``run_study`` -> ``render_full_report``)
once and writes a JSON result: set-up and study seconds, the AH sets
and thresholds, the report text, this process's memory high-water mark
and, with ``--trace 1``, the spans recorded around each layer.

Set-up ends when ``run_scenario`` has built the world (internet, ISP
models, population); the one timing wrapper around that call is the
only instrumentation of an untraced run.

    python3 layerbench/study_child.py --scenario stream-72h --seed 1 \
        --mode batch --trace 0 --out result.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from inputs import SHARDS, canonical, make_scenario  # noqa: E402
from procs import vm_hwm_kb  # noqa: E402
from spans import Tracer  # noqa: E402

import repro.parallel  # noqa: E402
from repro.core.pipeline import StudyReport, run_study  # noqa: E402
from repro.core.report import render_full_report  # noqa: E402
from repro.sim import runner  # noqa: E402
from repro.telescope.darknet import Telescope  # noqa: E402


def install_study_spans(tracer: Tracer, worker_reports: list) -> None:
    """Wrap the layer functions at the call sites ``run_study`` uses."""
    tracer.wrap(runner, "_build_world_base", "setup")
    tracer.wrap(runner, "build_internet", "net.build_internet")
    tracer.wrap(runner, "build_population", "scanners.build_population")
    tracer.wrap(runner, "build_merit_like", "flows.build_isp")
    tracer.wrap(runner, "build_campus_like", "flows.build_isp")
    tracer.wrap(
        Telescope, "capture", "telescope.capture",
        items=lambda a, k, result: len(result.packets),
    )
    tracer.wrap(runner, "build_events", "core.events.build_events")
    tracer.wrap(runner, "detect_all", "core.detection.detect_all")
    tracer.wrap(
        repro.parallel, "parallel_generate_detect", "parallel.generate_detect",
        on_result=lambda result: worker_reports.extend(result.worker_reports),
    )
    for name, value in list(vars(StudyReport).items()):
        if callable(value) and not name.startswith("_"):
            tracer.wrap(StudyReport, name, f"report.{name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("batch", "sharded", "setup"), required=True
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    scenario = make_scenario(args.scenario, args.seed)
    if args.mode == "setup":
        # Set-up alone, in the same fresh-process state as a study.
        t0 = time.perf_counter()
        runner._build_world_base(scenario)
        setup_s = time.perf_counter() - t0
        Path(args.out).write_text(json.dumps({"setup_s": setup_s}))
        return 0
    tracer = Tracer() if args.trace else None
    reports: list = []
    if tracer is not None:
        install_study_spans(tracer, reports)
    marks = {}
    build_world = runner._build_world_base

    def timed_build_world(*a, **k):
        world = build_world(*a, **k)
        marks["setup_done"] = time.perf_counter()
        return world

    runner._build_world_base = timed_build_world

    if args.mode == "batch":
        kwargs = {"mode": "batch"}
    else:
        kwargs = {"mode": "streaming", "workers": SHARDS}
    t0 = time.perf_counter()
    report = run_study(scenario, **kwargs)
    text = render_full_report(report)
    t1 = time.perf_counter()

    result = {
        "setup_s": marks["setup_done"] - t0,
        "study_s": t1 - marks["setup_done"],
        "detections": canonical(report.detections),
        "events": len(report.result.events),
        "packets": len(report.result.capture.packets),
        "report": text,
        "hwm_kb": vm_hwm_kb("self"),
    }
    if tracer is not None:
        # The study span runs from set-up done to the finished report;
        # every top-level span in that interval is its direct child.
        study = tracer.add("study", marks["setup_done"], t1)
        for span in tracer.spans:
            if (
                span["parent"] is None
                and span["id"] != study
                and span["start"] >= marks["setup_done"]
            ):
                span["parent"] = study
        result["spans"] = tracer.spans
        # Wall seconds each shard spent generating and detecting.
        result["worker_busy_s"] = sorted(r.seconds for r in reports)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
