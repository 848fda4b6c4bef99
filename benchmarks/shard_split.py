"""How evenly detection's source-hash shards split the work.

Detection shards by ``shard_of(src, workers)``, one task per worker
(:mod:`repro.parallel`).  This probe runs the two worker-count paths a
user reaches from the CLI on one scenario and prints, for each, every
worker's packets and busy seconds and the max/min spread of both:

* generate+detect — :func:`repro.parallel.parallel_generate_detect`,
  what ``--mode streaming --workers N`` runs: each worker generates and
  detects its own shard's capture;
* ``--capture-dir`` replay — :func:`repro.parallel.parallel_detect_directory`
  over the same capture written as hourly chunk archives (written
  lazily, one chunk at a time, into a temporary directory); each worker
  reads every archive and keeps its own shard.

Busy seconds are each worker's own wall time inside its fold loop
(``WorkerReport.seconds``, generation included), so the spread is only
meaningful when the host has at least ``--workers`` free cores.  It
exits 1 if the two paths disagree on any definition's AH sources.

Usage (from the repo root)::

    make shard-split WORKERS=4
    PYTHONPATH=src python benchmarks/shard_split.py --workers 4 \\
        [--scenario darknet-2021] [--days 2]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

from repro.cli import _SCENARIOS
from repro.config import DEFAULT_CHUNK_SECONDS
from repro.io.packetlog import ChunkWriter
from repro.parallel import parallel_detect_directory, parallel_generate_detect
from repro.sim.runner import _build_world_base
from repro.sim.scenario import darknet_year_scenario
from repro.scanners.lazy import emit_chunks


def build_scenario(name: str, days: int):
    """A CLI scenario; ``darknet-YYYY`` presets are cut to ``days``."""
    if name.startswith("darknet-"):
        return darknet_year_scenario(int(name.split("-")[1]), days=days)
    if name not in _SCENARIOS:
        raise SystemExit(f"unknown scenario {name!r}; choose from {sorted(_SCENARIOS)}")
    return _SCENARIOS[name]()


def spread(values) -> str:
    low = min(values)
    return "inf" if low <= 0 else f"{max(values) / low:.2f}x"


def show(label: str, wall: float, result) -> None:
    reports = result.worker_reports
    print(f"\n{label}: wall {wall:.2f} s")
    print(f"  {'shard':>5}  {'packets':>12}  {'busy s':>8}  {'gen s':>7}")
    for r in reports:
        print(
            f"  {r.shard:>5}  {r.packets:>12,}  {r.seconds:>8.2f}  "
            f"{r.generate_seconds:>7.2f}"
        )
    print(
        f"  spread (max/min): packets {spread([r.packets for r in reports])}, "
        f"busy {spread([r.seconds for r in reports])}"
    )


def ah_sources(result) -> dict:
    return {d: set(r.sources) for d, r in result.detections.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--scenario", default="darknet-2021")
    parser.add_argument(
        "--days", type=int, default=2, help="length of darknet-YYYY presets"
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    scenario = build_scenario(args.scenario, args.days)
    _, telescope, population, _, _, timeout = _build_world_base(scenario)
    chunk_seconds = scenario.chunk_seconds or DEFAULT_CHUNK_SECONDS
    detect_args = (
        timeout,
        telescope.size,
        scenario.detection,
        scenario.clock.seconds_per_day,
    )
    print(
        f"{scenario.name}, {scenario.days} day(s), {args.workers} workers, "
        f"{chunk_seconds:.0f} s chunks, cpu_count {os.cpu_count()}"
    )

    t0 = time.perf_counter()
    generated = parallel_generate_detect(
        population.scanners,
        telescope.view(),
        chunk_seconds,
        *detect_args,
        workers=args.workers,
        window=scenario.window(),
    )
    show("generate+detect", time.perf_counter() - t0, generated)

    with tempfile.TemporaryDirectory(prefix="shard-split-") as directory:
        writer = ChunkWriter(directory, chunk_seconds)
        for chunk in emit_chunks(
            population.scanners, telescope.view(), chunk_seconds,
            scenario.window(),
        ):
            writer.write(chunk.packets)
        archives = writer.close()
        t0 = time.perf_counter()
        replayed = parallel_detect_directory(
            directory, *detect_args, workers=args.workers
        )
        show(
            f"--capture-dir replay ({archives} archives)",
            time.perf_counter() - t0,
            replayed,
        )

    if ah_sources(generated) != ah_sources(replayed):
        print("\nAH sources differ between generate+detect and replay")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
