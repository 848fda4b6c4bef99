"""Each packed-key sort kernel against the numpy call it replaced.

Builds the repository benchmark's study capture (scenario and seed as
``layerbench`` makes them) and, on it, times every kernel of
:mod:`repro.sortkeys` next to its numpy oracle:

* ``order_by_time`` vs ``np.argsort(kind="stable")`` on the unsorted
  emission (every scanner's packets, concatenated in population order
  by the span plan: what ``sorted_by_time`` orders);
* ``order_by_flow`` vs ``np.lexsort((ts, key))`` on the time-sorted
  capture (the event builder's flow order);
* ``distinct`` of packed ``event << 32 | dst`` words vs
  ``np.lexsort((dst, event))`` plus a first-of-run mask (the event
  builder's distinct destinations);
* ``distinct_inverse`` vs ``np.unique(src, return_inverse=True,
  return_counts=True)`` (the capture's source index);
* ``distinct`` vs ``np.unique`` on the destinations, and on a 5,000
  value draw (one ``sample_distinct_offsets`` call).

Prints one row per kernel: rows, best-of-``--repeat`` milliseconds for
the kernel and the oracle, their ratio, and whether the outputs are
equal.  Exits 1 if any output differs.  The layerbench inputs module is
imported read-only; nothing here is timed by, or changes, the benchmark.

Usage (from the repo root)::

    make sort-split SEED=1 [SCENARIO=tiny]
    PYTHONPATH=src python benchmarks/sort_split.py --seed 1 [--scenario tiny]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "layerbench"))

from inputs import SCENARIOS, make_scenario  # noqa: E402

from repro.core.events import build_events  # noqa: E402
from repro.packet import PacketBatch  # noqa: E402
from repro.scanners.plan import SpanPlan  # noqa: E402
from repro.sim.runner import _build_world_base  # noqa: E402
from repro.sortkeys import (  # noqa: E402
    distinct,
    distinct_inverse,
    order_by_flow,
    order_by_time,
    run_starts,
)


def best_of(repeat: int, fn, *args):
    """``(result, best seconds)`` over ``repeat`` calls."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        value = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return value, best


def same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a.dtype == b.dtype and np.array_equal(a, b)


def emission(scenario) -> tuple:
    """``(packets, timeout)``: the study's packets in emission order
    (the span plan's generation order, before the time sort) and its
    event timeout."""
    _, telescope, population, _, _, timeout = _build_world_base(scenario)
    plan = SpanPlan(population.scanners, telescope.view(), scenario.window())
    return PacketBatch.concat(plan.scanner_batches()), timeout


def lexsort_pairs(event: np.ndarray, dst: np.ndarray) -> np.ndarray:
    order = np.lexsort((dst, event))
    words = (event[order].astype(np.uint64) << np.uint64(32)) | dst[order]
    return words[run_starts(words)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scenario", choices=sorted(SCENARIOS), default="stream-72h")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    emitted, timeout = emission(make_scenario(args.scenario, args.seed))
    capture = emitted.sorted_by_time()
    keys = (
        (capture.src.astype(np.uint64) << np.uint64(24))
        | (capture.dport.astype(np.uint64) << np.uint64(8))
        | capture.proto.astype(np.uint64)
    )
    port_proto = (capture.dport.astype(np.uint32) << np.uint32(8)) | capture.proto
    flow = np.lexsort((capture.ts, keys))
    starts = run_starts(keys[flow])
    starts[1:] |= np.diff(capture.ts[flow]) > timeout
    event = np.cumsum(starts) - 1
    dst = capture.dst[flow]
    draw = np.random.default_rng(args.seed).integers(0, 2**20, 5_000)

    cases = [
        ("order_by_time", "argsort stable", len(emitted),
         lambda: order_by_time(emitted.ts),
         lambda: np.argsort(emitted.ts, kind="stable")),
        ("order_by_flow", "lexsort (ts, key)", len(capture),
         lambda: order_by_flow(capture.src, port_proto),
         lambda: np.lexsort((capture.ts, keys))),
        ("distinct (event, dst)", "lexsort (dst, event)", len(dst),
         lambda: distinct((event.astype(np.uint64) << np.uint64(32)) | dst),
         lambda: lexsort_pairs(event, dst)),
        ("distinct_inverse src", "unique inverse+counts", len(capture),
         lambda: distinct_inverse(capture.src),
         lambda: np.unique(capture.src, return_inverse=True, return_counts=True)),
        ("distinct dst", "unique", len(capture),
         lambda: distinct(capture.dst), lambda: np.unique(capture.dst)),
        ("distinct 5k draw", "unique", len(draw),
         lambda: distinct(draw), lambda: np.unique(draw)),
    ]
    print(f"sort split: scenario {args.scenario}, seed {args.seed}, "
          f"{len(capture):,} packets, best of {args.repeat}")
    print(f"{'kernel':<24}{'oracle':<24}{'rows':>11}{'kernel ms':>11}"
          f"{'oracle ms':>11}{'ratio':>8}  equal")
    failed = []
    for name, oracle, rows, kernel_fn, oracle_fn in cases:
        got, kernel_s = best_of(args.repeat, kernel_fn)
        want, oracle_s = best_of(args.repeat, oracle_fn)
        equal = same(got, want)
        if not equal:
            failed.append(name)
        ratio = oracle_s / kernel_s if kernel_s else float("inf")
        print(f"{name:<24}{oracle:<24}{rows:>11,}{kernel_s * 1e3:>11.2f}"
              f"{oracle_s * 1e3:>11.2f}{ratio:>7.1f}x  {'yes' if equal else 'NO'}")
    # The whole builder once, as a sanity line (no oracle here: the
    # lexsort builder is the tests' oracle).
    _, build_s = best_of(1, build_events, capture, timeout)
    print(f"build_events on the capture: {build_s * 1e3:.1f} ms")
    if failed:
        print(f"outputs differ: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
