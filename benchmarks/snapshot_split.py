"""Where a serve-ingest snapshot's time and bytes go, shard by shard.

Replays the repository benchmark's serve-ingest input (the stream-72h
capture's first day, sources relabelled by seed, in 5-minute npz wire
chunks) into an inline 2-shard :class:`~repro.core.engine.DetectionEngine`,
one chunk per fold.  At every snapshot point of the serve tenant's
cadence (``snapshot_every_chunks``, 16) it prints, per shard, the time
and bytes of ``to_bytes`` and ``from_bytes`` of the whole detector, and
how the v4 blob's array bytes split between:

* the open-flow state: the builder's open table, its segment lengths
  and the live destination arena;
* the history: finalized events, the ECDF histogram, per-source peaks,
  the port-day set and the dispersion sources.

The last lines sum each column over every shard snapshot, then list
every array's bytes summed over those snapshots.  The layerbench inputs
module is imported read-only; nothing here is timed by, or changes, the
benchmark itself.

Usage (from the repo root)::

    make snapshot-split SEED=1
    PYTHONPATH=src python benchmarks/snapshot_split.py --seed 1
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "layerbench"))

from inputs import build_inputs  # noqa: E402
from workloads import INGEST_CHUNK_S, INGEST_DAYS  # noqa: E402

from repro.core import statefile  # noqa: E402
from repro.core.engine import DetectionEngine  # noqa: E402
from repro.core.streaming import (  # noqa: E402
    _BUILDER_ARRAYS,
    _STATE_ARRAYS,
    StreamingDetector,
)

TIMED = ("to_bytes", "from_bytes")
COLUMNS = TIMED + ("open_flows_state", "history")
OPEN_FLOW_ARRAYS = tuple(_BUILDER_ARRAYS)


def timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


def split(detector: StreamingDetector, array_bytes: Counter) -> dict:
    """Seconds and bytes of each part of one shard's snapshot; adds
    each array's bytes to ``array_bytes``."""
    blob, to_s = timed(detector.to_bytes)
    _, from_s = timed(StreamingDetector.from_bytes, blob)
    _, arrays = statefile.unpack(blob, "detector", _STATE_ARRAYS)
    sizes = {name: array.nbytes for name, array in arrays.items()}
    array_bytes.update(sizes)
    state = sum(sizes[name] for name in OPEN_FLOW_ARRAYS)
    return {
        "to_bytes": (to_s, len(blob)),
        "from_bytes": (from_s, len(blob)),
        "open_flows_state": (None, state),
        "history": (None, sum(sizes.values()) - state),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scenario", default="stream-72h")
    args = parser.parse_args(argv)

    inputs = build_inputs(args.scenario, args.seed, INGEST_DAYS, relabel=True)
    chunks = inputs.chunks(INGEST_CHUNK_S)
    config = inputs.tenant_config()
    every = config.snapshot_every_chunks
    engine = DetectionEngine(
        config.timeout,
        config.dark_size,
        config.detection,
        config.day_seconds,
        workers=config.workers,
    )
    print(
        f"{args.scenario} seed {args.seed}: {len(chunks)} chunks of "
        f"{INGEST_CHUNK_S:g} s, {config.workers} shards, snapshot every "
        f"{every} chunks"
    )
    header = f"{'chunk':>5} {'shard':>5} {'open':>7}" + "".join(
        f" {name + ' ms':>14} {'MB':>6}" for name in TIMED
    ) + "".join(f" {name + ' MB':>19}" for name in COLUMNS[2:])
    print(header)
    totals = {name: [0.0, 0] for name in COLUMNS}
    array_bytes: Counter = Counter()
    snapshots = 0
    for index, (_, _, blob) in enumerate(chunks, start=1):
        engine.ingest_payloads([blob])
        if index % every:
            continue
        for shard, key in enumerate(engine._shard_keys()):
            detector = engine._host._detectors[key]
            parts = split(detector, array_bytes)
            snapshots += 1
            row = f"{index:>5} {shard:>5} {detector.open_flows:>7}"
            for name in COLUMNS:
                seconds, size = parts[name]
                totals[name][1] += size
                if seconds is None:
                    row += f" {size / 2**20:>19.2f}"
                    continue
                totals[name][0] += seconds
                row += f" {seconds * 1e3:>14.1f} {size / 2**20:>6.2f}"
            print(row, flush=True)
    print(f"totals over {snapshots} shard snapshots:")
    for name in COLUMNS:
        seconds, size = totals[name]
        spent = f"{seconds:8.3f} s" if name in TIMED else " " * 10
        print(f"  {name:<17} {spent} {size / 2**20:10.1f} MB")
    print("array bytes over those snapshots:")
    for name in _STATE_ARRAYS:
        part = "open-flow" if name in OPEN_FLOW_ARRAYS else "history"
        print(f"  {name:<20} {part:<9} {array_bytes[name] / 2**20:10.2f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
