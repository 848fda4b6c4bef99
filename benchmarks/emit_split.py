"""Where capture emission time goes, stage by stage.

Builds the repository benchmark's study world (scenario and seed as
``layerbench`` makes them) and emits its capture twice: materialized
(``Telescope.capture``, what the batch study runs) and as the lazy
sweep (:func:`repro.scanners.lazy.emit_chunks` at one-hour chunks, what
streaming and sharded runs do).  Both read one
:class:`repro.scanners.plan.SpanPlan`; the probe times its stages by
wrapping the plan's methods:

* **plan** — ``SpanPlan(...)``: the walk over every (scanner, session,
  span), the view's ranges and each distinct target ∩ view overlap;
* **derive** — ``SpanPlan.derive``: every span's RNG words in one pass;
* **generate** — ``SpanPlan.generate`` and ``emit_fallback``: the
  packets of each span (and of each sessionless scanner);
* **assemble + sort** — everything else: window masks, concatenation
  and the time sort (materialized), or cut-span sorts, per-window
  slicing, concatenation and sort (lazy).

Prints best-of-``--repeat`` milliseconds per stage and path, and exits
1 if either path's packets differ from the scanner-by-scanner oracle
(``tests/emit_oracle.py``) in any column or dtype.  The layerbench
inputs module is imported read-only; nothing here is timed by, or
changes, the benchmark.

Usage (from the repo root)::

    make emit-split SEED=1 [SCENARIO=tiny]
    PYTHONPATH=src python benchmarks/emit_split.py --seed 1 [--scenario tiny]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "layerbench"))

from inputs import SCENARIOS, make_scenario  # noqa: E402

from repro.packet import COLUMNS, PacketBatch  # noqa: E402
from repro.scanners.plan import SpanPlan  # noqa: E402
from repro.sim.runner import _build_world_base  # noqa: E402
from repro.scanners.lazy import emit_chunks  # noqa: E402
from tests.emit_oracle import oracle_emit_population  # noqa: E402

CHUNK_SECONDS = 3_600.0
STAGES = ("plan", "derive", "generate", "assemble + sort")
#: SpanPlan method -> the stage its time is charged to.
TIMED = {
    "__init__": "plan",
    "derive": "derive",
    "generate": "generate",
    "emit_fallback": "generate",
}


def timed_run(fn) -> tuple:
    """``(result, seconds per stage)`` of one ``fn()`` call."""
    spent = dict.fromkeys(STAGES, 0.0)
    originals = {name: getattr(SpanPlan, name) for name in TIMED}

    def wrap(name, real):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                spent[TIMED[name]] += time.perf_counter() - t0

        return timed

    for name, real in originals.items():
        setattr(SpanPlan, name, wrap(name, real))
    try:
        t0 = time.perf_counter()
        result = fn()
        total = time.perf_counter() - t0
    finally:
        for name, real in originals.items():
            setattr(SpanPlan, name, real)
    spent["assemble + sort"] = total - sum(spent.values())
    spent["total"] = total
    return result, spent


def same(a: PacketBatch, b: PacketBatch) -> bool:
    return len(a) == len(b) and all(
        getattr(a, c).dtype == getattr(b, c).dtype
        and (getattr(a, c) == getattr(b, c)).all()
        for c in COLUMNS
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scenario", choices=sorted(SCENARIOS), default="stream-72h")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    scenario = make_scenario(args.scenario, args.seed)
    _, telescope, population, _, _, _ = _build_world_base(scenario)
    scanners, view, window = population.scanners, telescope.view(), scenario.window()
    paths = {
        "capture": lambda: [telescope.capture(scanners, window).packets],
        "lazy sweep": lambda: [
            chunk.packets
            for chunk in emit_chunks(scanners, view, CHUNK_SECONDS, window)
        ],
    }
    oracle = oracle_emit_population(scanners, view, window)
    spans = SpanPlan(scanners, view, window).n_spans
    print(f"emit split: scenario {args.scenario}, seed {args.seed}, "
          f"{len(scanners):,} scanners, {spans:,} spans, "
          f"{len(oracle):,} packets, best of {args.repeat}")
    print(f"{'path':<12}" + "".join(f"{s + ' ms':>20}" for s in STAGES)
          + f"{'total ms':>12}  equal")
    failed = []
    for name, fn in paths.items():
        best = {}
        for _ in range(args.repeat):
            batches, spent = timed_run(fn)
            best = {k: min(v, best.get(k, v)) for k, v in spent.items()}
        equal = same(PacketBatch.concat(batches), oracle)
        del batches
        if not equal:
            failed.append(name)
        print(f"{name:<12}" + "".join(f"{best[s] * 1e3:>20.1f}" for s in STAGES)
              + f"{best['total'] * 1e3:>12.1f}  {'yes' if equal else 'NO'}")
    if failed:
        print(f"packets differ from the oracle: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
