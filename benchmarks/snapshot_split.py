"""Where a serve-ingest snapshot's time, bytes and hashing go.

Replays the repository benchmark's serve-ingest input (the stream-72h
capture's first day, sources relabelled by seed, in 5-minute npz wire
chunks) into an inline 2-shard :class:`~repro.core.engine.DetectionEngine`
with a checkpoint store in a temporary directory, one chunk per fold.
At every snapshot point of the serve tenant's cadence
(``snapshot_every_chunks``, 16) it commits a snapshot through
``save_snapshot``, the path the serve layer runs, and prints per shard:

* ``to_bytes``: time and bytes of the detector's v4 blob;
* ``write``: the shard file's tmp write, fsync and rename;
* ``from_bytes``: time to load that blob back (the restore path);
* how the blob's array bytes split between the open-flow state (the
  builder's open table, its segment lengths and the live destination
  arena) and the history (finalized events, the ECDF histogram,
  per-source peaks, the port-day set and the dispersion sources).

Each snapshot point then prints the manifest commit (manifest write,
fsync and rename, then the directory fsync), the whole
``save_snapshot`` call, and the bytes sha256 saw during it divided by
the shard blobs' bytes: 1.0 means every byte is hashed once.  Hashed
bytes are counted by wrapping ``hashlib.sha256`` here, in the probe; a
layer the engine module does not have is shown as 0.

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
import hashlib
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "layerbench"))

from inputs import build_inputs  # noqa: E402
from workloads import INGEST_CHUNK_S, INGEST_DAYS  # noqa: E402

from repro.core import engine as engine_module  # noqa: E402
from repro.core import statefile  # noqa: E402
from repro.core.engine import DetectionEngine  # noqa: E402
from repro.core.faults import CheckpointStore  # noqa: E402
from repro.core.streaming import (  # noqa: E402
    _BUILDER_ARRAYS,
    _STATE_ARRAYS,
    StreamingDetector,
)

TIMED = ("to_bytes", "write", "from_bytes")
SIZED = ("open_flows_state", "history")
OPEN_FLOW_ARRAYS = tuple(_BUILDER_ARRAYS)
#: engine-module functions timed as the shard write and manifest commit.
WRITE_HOOKS = ("atomic_write_bytes",)
COMMIT_HOOKS = ("atomic_write_json", "fsync_directory")


class Probe:
    """Seconds and bytes recorded by the wrapped layers."""

    def __init__(self) -> None:
        self.hashed = 0
        self.blobs = []  # (to_bytes seconds, blob) per shard, in order
        self.writes = []  # seconds per shard file write
        self.commit = 0.0

    def reset(self) -> None:
        self.__init__()

    def install(self) -> None:
        real_sha256 = hashlib.sha256
        real_to_bytes = StreamingDetector.to_bytes

        def sha256(data=b"", **kwargs):
            self.hashed += memoryview(data).nbytes
            return real_sha256(data, **kwargs)

        def to_bytes(detector, **extra):
            t0 = time.perf_counter()
            blob = real_to_bytes(detector, **extra)
            self.blobs.append((time.perf_counter() - t0, blob))
            return blob

        hashlib.sha256 = sha256
        StreamingDetector.to_bytes = to_bytes
        for name in WRITE_HOOKS + COMMIT_HOOKS:
            real = getattr(engine_module, name, None)
            if real is not None:
                setattr(engine_module, name, self._timed(name, real))

    def _timed(self, name, real):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            value = real(*args, **kwargs)
            seconds = time.perf_counter() - t0
            if name in WRITE_HOOKS:
                self.writes.append(seconds)
            else:
                self.commit += seconds
            return value

        return wrapper


def split(blob: bytes, array_bytes: Counter) -> dict:
    """Load time and byte split of one shard blob; adds each array's
    bytes to ``array_bytes``."""
    t0 = time.perf_counter()
    StreamingDetector.from_bytes(blob)
    from_s = time.perf_counter() - t0
    _, arrays = statefile.unpack(blob, "detector", _STATE_ARRAYS)
    sizes = {name: array.nbytes for name, array in arrays.items()}
    array_bytes.update(sizes)
    state = sum(sizes[name] for name in OPEN_FLOW_ARRAYS)
    return {
        "from_bytes": from_s,
        "open_flows_state": state,
        "history": sum(sizes.values()) - state,
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
    probe = Probe()
    probe.install()
    print(
        f"{args.scenario} seed {args.seed}: {len(chunks)} chunks of "
        f"{INGEST_CHUNK_S:g} s, {config.workers} shards, snapshot every "
        f"{every} chunks"
    )
    print(
        f"{'chunk':>5} {'shard':>5} {'open':>7} {'to_bytes ms':>12} "
        f"{'MB':>6} {'write ms':>9} {'from_bytes ms':>14}"
        + "".join(f" {name + ' MB':>19}" for name in SIZED)
    )
    seconds = Counter()
    sizes = Counter()
    array_bytes: Counter = Counter()
    snapshots = 0
    with tempfile.TemporaryDirectory(prefix="snapshot-split-") as root:
        engine = DetectionEngine(
            config.timeout,
            config.dark_size,
            config.detection,
            config.day_seconds,
            workers=config.workers,
            store=CheckpointStore(root),
        )
        for index, (_, _, blob) in enumerate(chunks, start=1):
            engine.ingest_payloads([blob])
            if index % every:
                continue
            probe.reset()
            t0 = time.perf_counter()
            engine.save_snapshot()
            save_s = time.perf_counter() - t0
            hashed = probe.hashed
            state = sum(len(blob) for _, blob in probe.blobs)
            writes = probe.writes or [0.0] * len(probe.blobs)
            for shard, ((to_s, blob), write_s) in enumerate(
                zip(probe.blobs, writes)
            ):
                parts = split(blob, array_bytes)
                open_flows = engine._gauges[shard].open_flows
                snapshots += 1
                seconds.update(
                    to_bytes=to_s,
                    write=write_s,
                    from_bytes=parts["from_bytes"],
                )
                sizes.update(
                    to_bytes=len(blob),
                    open_flows_state=parts["open_flows_state"],
                    history=parts["history"],
                )
                print(
                    f"{index:>5} {shard:>5} {open_flows:>7} "
                    f"{to_s * 1e3:>12.1f} {len(blob) / 2**20:>6.2f} "
                    f"{write_s * 1e3:>9.1f} "
                    f"{parts['from_bytes'] * 1e3:>14.1f}"
                    + "".join(
                        f" {parts[name] / 2**20:>19.2f}" for name in SIZED
                    ),
                    flush=True,
                )
            seconds.update(commit=probe.commit, save_snapshot=save_s)
            sizes.update(hashed=hashed)
            print(
                f"{index:>5} commit {probe.commit * 1e3:.1f} ms, "
                f"save_snapshot {save_s * 1e3:.1f} ms, hashed "
                f"{hashed / max(state, 1):.2f} B per shard-state byte",
                flush=True,
            )
    print(f"totals over {snapshots} shard snapshots:")
    for name in TIMED + ("commit", "save_snapshot"):
        print(f"  {name:<28} {seconds[name]:8.3f} s")
    for name in ("to_bytes",) + SIZED:
        print(f"  {name + ' bytes':<28} {sizes[name] / 2**20:8.1f} MB")
    print(
        f"  {'hashed per shard-state byte':<28} "
        f"{sizes['hashed'] / max(sizes['to_bytes'], 1):8.2f}"
    )
    print("array bytes over those snapshots:")
    for name in _STATE_ARRAYS:
        part = "open-flow" if name in OPEN_FLOW_ARRAYS else "history"
        print(f"  {name:<20} {part:<9} {array_bytes[name] / 2**20:10.2f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
