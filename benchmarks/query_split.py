"""Where a serve-query AH query's time and bytes go, shard by shard.

Rebuilds the repository benchmark's serve-query state in an inline
2-shard :class:`~repro.core.engine.DetectionEngine`: the journaled first
day in folds of four 30-minute npz wire chunks (as journal replay
coalesces them), then the trickle one chunk per fold.  After every
trickle fold it prints, per shard:

* the time and pickled bytes of
  :meth:`~repro.core.streaming.StreamingDetector.summary` — what a fold
  worker builds and ships for one query;
* the Definition-1 open-flow candidates: multi-segment flows whose
  segment lengths reach the dispersion threshold (``bounded``), those
  whose largest segment already reaches it (``settled``), and the rest,
  whose destinations are unioned (``unioned``);

and once per fold the time to merge the summaries into detections,
then the engine's own ``query()`` twice: the first builds the answer
through the shard host, the second must return the memoized one.

It exits 1 if a merged answer's sources, thresholds or event count
differ from ``finish()`` over serialized copies of the shards, if the
second ``query()`` answers differently from the first, or if it reached
the shard host.  The layerbench inputs and workloads modules are
imported read-only; nothing here is timed by, or changes, the benchmark
itself.

Usage (from the repo root)::

    make query-split SEED=1
    PYTHONPATH=src python benchmarks/query_split.py --seed 1 [--scenario tiny]
"""

from __future__ import annotations

import argparse
import pickle
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "layerbench"))

from inputs import build_inputs  # noqa: E402
from workloads import QUERY_CHUNK_S, QUERY_DAYS, QUERY_JOURNAL_DAYS  # noqa: E402

from repro.core.engine import DetectionEngine  # noqa: E402
from repro.core.streaming import (  # noqa: E402
    StreamingDetector,
    detections_from_summaries,
)

#: journal replay coalesces this many day-1 chunks per fold.
REPLAY_FOLD_CHUNKS = 4


def timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


def candidates(detector: StreamingDetector) -> tuple:
    """(bounded, settled, unioned) Definition-1 open-flow counts."""
    builder = detector.builder
    threshold = detector._dispersion.threshold
    bounded = (builder._nseg > 1) & (builder._dst_hi >= threshold)
    settled = bounded & (builder._dst_lo >= threshold)
    return int(bounded.sum()), int(settled.sum()), int((bounded & ~settled).sum())


def finished_copy(engine: DetectionEngine) -> tuple:
    """``(events, detections)`` of finish() over copies of the shards."""
    copies = [
        StreamingDetector.from_bytes(engine._host._detectors[key].to_bytes())
        for key in engine._shard_keys()
    ]
    for other in copies[1:]:
        copies[0].merge(other)
    events, detections = copies[0].finish()
    return len(events), detections


def differences(got: tuple, expected: tuple) -> list:
    (events, detections), (ref_events, ref_detections) = got, expected
    out = [] if events == ref_events else [f"events {events} != {ref_events}"]
    for d in (1, 2, 3):
        if detections[d].sources != ref_detections[d].sources:
            out.append(f"definition {d} sources differ")
        if detections[d].threshold != ref_detections[d].threshold:
            out.append(
                f"definition {d} threshold {detections[d].threshold!r} != "
                f"{ref_detections[d].threshold!r}"
            )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scenario", default="stream-72h")
    args = parser.parse_args(argv)

    inputs = build_inputs(args.scenario, args.seed, QUERY_DAYS, relabel=True)
    split = QUERY_JOURNAL_DAYS * inputs.scenario.clock.seconds_per_day
    chunks = inputs.chunks(QUERY_CHUNK_S)
    first = [blob for start, _, blob in chunks if start < split]
    rest = [blob for start, _, blob in chunks if start >= split]
    config = inputs.tenant_config()
    engine = DetectionEngine(
        config.timeout,
        config.dark_size,
        config.detection,
        config.day_seconds,
        workers=config.workers,
    )
    for i in range(0, len(first), REPLAY_FOLD_CHUNKS):
        engine.ingest_payloads(first[i:i + REPLAY_FOLD_CHUNKS])
    print(
        f"{args.scenario} seed {args.seed}: {len(first)} journaled chunks in "
        f"folds of {REPLAY_FOLD_CHUNKS}, then {len(rest)} trickle folds; "
        f"{config.workers} shards"
    )
    print(
        f"{'fold':>4} {'shard':>5} {'open':>7} {'summary ms':>10} "
        f"{'KB':>7} {'bounded':>7} {'settled':>7} {'unioned':>7} "
        f"{'merge ms':>8} {'query ms':>8} {'repeat us':>9}"
    )
    host_summaries = []  # one entry per call of the host's summary
    host_summary = engine._host.summary

    def counted_summary(requests):
        host_summaries.append(requests)
        return host_summary(requests)

    engine._host.summary = counted_summary
    failures = 0
    for fold, blob in enumerate(rest, start=1):
        engine.ingest_payloads([blob])
        summaries, rows = [], []
        for shard, key in enumerate(engine._shard_keys()):
            detector = engine._host._detectors[key]
            summary, seconds = timed(detector.summary)
            summaries.append(summary)
            size = len(pickle.dumps(summary, protocol=4))
            bounded, settled, unioned = candidates(detector)
            rows.append(
                f"{fold:>4} {shard:>5} {detector.open_flows:>7} "
                f"{seconds * 1e3:>10.1f} {size / 1024:>7.1f} {bounded:>7} "
                f"{settled:>7} {unioned:>7}"
            )
        answer, merge_s = timed(
            detections_from_summaries, summaries, config.dark_size,
            config.detection,
        )
        first, query_s = timed(engine.query)
        reached = len(host_summaries)
        repeat, repeat_s = timed(engine.query)
        rows[-1] += (
            f" {merge_s * 1e3:>8.1f} {query_s * 1e3:>8.1f} "
            f"{repeat_s * 1e6:>9.1f}"
        )
        print("\n".join(rows), flush=True)
        problems = differences(answer, finished_copy(engine))
        problems += [
            f"repeat query: {problem}"
            for problem in differences(
                (repeat.events, repeat.detections),
                (first.events, first.detections),
            )
        ]
        if len(host_summaries) != reached:
            problems.append("repeat query reached the shard host")
        for problem in problems:
            print(f"  MISMATCH at fold {fold}: {problem}")
        failures += bool(problems)
    if failures:
        print(
            f"{failures} of {len(rest)} folds answered unlike finish() or "
            "re-queried the host"
        )
        return 1
    print(
        f"all {len(rest)} answers equal finish() on a to_bytes copy; every "
        "repeat query was answered from the memo"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
