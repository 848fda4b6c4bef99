"""Where a serve-ingest snapshot's time and bytes go, shard by shard.

Replays the repository benchmark's serve-ingest input (the stream-72h
capture's first day, sources relabelled by seed, in 5-minute npz wire
chunks) into an inline 2-shard :class:`~repro.core.engine.DetectionEngine`,
one chunk per fold.  At every snapshot point of the serve tenant's
cadence (``snapshot_every_chunks``, 16) it prints, per shard, the time
and bytes of:

* ``to_bytes`` and ``from_bytes`` of the whole detector;
* the open-flow state: the event builder (open-flow table plus the
  per-flow destination segments);
* the history: finalized event chunks, the ECDF histogram, per-source
  peaks and the port-day set.

The last lines sum each column over every shard snapshot.  The layerbench
inputs module is imported read-only; nothing here is timed by, or
changes, the benchmark itself.

Usage (from the repo root)::

    make snapshot-split SEED=1
    PYTHONPATH=src python benchmarks/snapshot_split.py --seed 1
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
from workloads import INGEST_CHUNK_S, INGEST_DAYS  # noqa: E402

from repro.core.engine import DetectionEngine  # noqa: E402
from repro.core.streaming import StreamingDetector  # noqa: E402

COLUMNS = ("to_bytes", "from_bytes", "open_flows_state", "history")


def timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


def pickled(obj) -> bytes:
    return pickle.dumps(obj, protocol=4)


def split(detector: StreamingDetector) -> dict:
    """Seconds and bytes of each part of one shard's snapshot."""
    blob, to_s = timed(detector.to_bytes)
    _, from_s = timed(StreamingDetector.from_bytes, blob)
    state, state_s = timed(pickled, detector.builder)
    history, history_s = timed(
        pickled,
        (
            detector._chunks,
            detector._volume,
            detector._peak_src,
            detector._peak_packets,
            detector._ports,
        ),
    )
    return {
        "to_bytes": (to_s, len(blob)),
        "from_bytes": (from_s, len(blob)),
        "open_flows_state": (state_s, len(state)),
        "history": (history_s, len(history)),
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
        f" {name + ' ms':>20} {'MB':>6}" for name in COLUMNS
    )
    print(header)
    totals = {name: [0.0, 0] for name in COLUMNS}
    snapshots = 0
    for index, (_, _, blob) in enumerate(chunks, start=1):
        engine.ingest_payloads([blob])
        if index % every:
            continue
        for shard, key in enumerate(engine._shard_keys()):
            detector = engine._host._detectors[key]
            parts = split(detector)
            snapshots += 1
            row = f"{index:>5} {shard:>5} {detector.open_flows:>7}"
            for name in COLUMNS:
                seconds, size = parts[name]
                totals[name][0] += seconds
                totals[name][1] += size
                row += f" {seconds * 1e3:>20.1f} {size / 2**20:>6.2f}"
            print(row, flush=True)
    print(f"totals over {snapshots} shard snapshots:")
    for name in COLUMNS:
        seconds, size = totals[name]
        print(f"  {name:<17} {seconds:8.3f} s {size / 2**20:10.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
