"""Tests for the shared-memory columnar hand-off (repro.io.shm).

The contract: shared memory is pure *transport*.  For any engine shard
count, fold schedule, or worker death and snapshot resume, an engine
whose sub-batches travelled to its fold pool as named-segment handles
is bit-identical to the serial reference — and every segment is
unlinked by the time the fold returns, failed or not.
"""

import contextlib
import os
import pickle
import signal
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_module
from repro.core.engine import DetectionEngine
from repro.core.faults import CheckpointStore
from repro.io.shm import (
    SHM_MIN_BYTES,
    resolve_batch,
    share_batches,
    shared_memory_available,
    want_shared_memory,
)
from repro.packet import COLUMNS, PacketBatch, Protocol
from repro.serve.foldpool import FoldPool, FoldPoolError
from tests.test_parallel import _CONFIG, _DARK_SIZE, _random_capture, _reference
from tests.test_streaming import (
    _assert_detections_identical,
    _assert_tables_identical,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="platform has no usable shared memory",
)

TCP = Protocol.TCP_SYN.value


def _batch(n, seed=0):
    rng = np.random.default_rng(seed)
    return PacketBatch(
        ts=np.sort(rng.random(n) * 5_000.0),
        src=rng.integers(1, 50, n).astype(np.uint32),
        dst=rng.integers(0, _DARK_SIZE, n).astype(np.uint32),
        dport=rng.choice(np.array([22, 443], dtype=np.uint16), n),
        proto=np.full(n, TCP, dtype=np.uint8),
        ipid=np.zeros(n, dtype=np.uint16),
    )


def _assert_batches_equal(a: PacketBatch, b: PacketBatch):
    for name in COLUMNS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def _segment_gone(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    segment.close()
    return False


class TestRoundTrip:
    def test_blocks_round_trip_through_pickle(self):
        batches = [_batch(500, 1), _batch(3, 2), _batch(1, 3)]
        handles, lease = share_batches(batches)
        with lease:
            for batch, handle in zip(
                batches, pickle.loads(pickle.dumps(handles))
            ):
                _assert_batches_equal(batch, resolve_batch(handle))
        assert _segment_gone(handles[0].segment)

    def test_views_are_read_only(self):
        handles, lease = share_batches([_batch(16)])
        with lease:
            loaded = handles[0].load()
            for name in COLUMNS:
                column = getattr(loaded, name)
                assert not column.flags.writeable
                with pytest.raises((ValueError, RuntimeError)):
                    column[0] = 0

    def test_views_are_zero_copy(self):
        # Columns alias the segment mapping, not per-batch allocations.
        handles, lease = share_batches([_batch(64)])
        with lease:
            loaded = handles[0].load()
            assert loaded.ts.base.obj is loaded.src.base.obj

    def test_empty_batch_and_empty_shard(self):
        handles, lease = share_batches([PacketBatch.empty(), _batch(2)])
        with lease:
            assert len(handles[0].load()) == 0
            assert len(handles[1].load()) == 2
        handles, lease = share_batches([])
        with lease:
            assert handles == []

    def test_single_packet_batch(self):
        one = _batch(1, 9)
        (handle,), lease = share_batches([one])
        with lease:
            _assert_batches_equal(one, resolve_batch(handle))

    def test_resolve_passthrough(self):
        batch = _batch(4)
        assert resolve_batch(batch) is batch

    def test_lease_close_is_idempotent(self):
        handles, lease = share_batches([_batch(8)])
        lease.close()
        lease.close()
        assert _segment_gone(handles[0].segment)


class TestPolicy:
    def test_forced_off_always_pickles(self):
        assert not want_shared_memory(False, 10 * SHM_MIN_BYTES)

    def test_forced_on_ignores_size(self):
        assert want_shared_memory(True, 0)

    def test_auto_requires_size(self):
        assert not want_shared_memory(None, SHM_MIN_BYTES - 1)
        assert want_shared_memory(None, SHM_MIN_BYTES)


class TestEngineIngest:
    def test_engine_ingests_handles_like_batches(self):
        batch = _batch(2_000, 7)
        plain = DetectionEngine(600.0, _DARK_SIZE, _CONFIG, workers=2)
        shared = DetectionEngine(600.0, _DARK_SIZE, _CONFIG, workers=2)
        for _, _, chunk in batch.iter_time_chunks(500.0):
            (handle,), lease = share_batches([chunk])
            with lease:
                shared.ingest(handle)
            plain.ingest(chunk)
        events_a, detections_a = plain.finish()
        events_b, detections_b = shared.finish()
        _assert_tables_identical(events_a, events_b)
        _assert_detections_identical(detections_a, detections_b)


# ----------------------------------------------------------------------
# The acceptance property: transport never changes results.
# ----------------------------------------------------------------------

_BATCH = _random_capture(41, n=6_000)
_REF_EVENTS, _REF_DETECTIONS = _reference(_BATCH)


def _chunks(chunk_seconds=3_600.0):
    return [c for _, _, c in _BATCH.iter_time_chunks(chunk_seconds)]


def _engine(workers, **kwargs):
    return DetectionEngine(600.0, _DARK_SIZE, _CONFIG, workers=workers, **kwargs)


@contextlib.contextmanager
def _recorded_segments():
    """Record the name of every segment the engine's folds create."""
    created = []
    original = engine_module.share_batches

    def recording(batches, label="fold"):
        handles, lease = original(batches, label)
        created.append(lease.name)
        return handles, lease

    engine_module.share_batches = recording
    try:
        yield created
    finally:
        engine_module.share_batches = original


@pytest.fixture(scope="module")
def shm_pool():
    with FoldPool(2, shm=True) as pool:
        yield pool


class TestShmDetectionIdentity:
    @settings(deadline=None, max_examples=16)
    @given(
        workers=st.integers(1, 8),
        chunk_seconds=st.sampled_from([900.0, 3_600.0, 50_000.0]),
    )
    def test_shm_equals_serial_any_workers_any_schedule(
        self, shm_pool, workers, chunk_seconds
    ):
        """Forced shared-memory hand-off to the fold pool, 1..8 engine
        shards, any chunk schedule: bit-identical to the serial
        reference, and no segment outlives its fold."""
        engine = _engine(workers)
        engine.attach_pool(shm_pool, f"any-{workers}-{chunk_seconds}")
        with _recorded_segments() as created:
            for chunk in _chunks(chunk_seconds):
                engine.ingest(chunk)
        events, detections = engine.finish()
        _assert_tables_identical(events, _REF_EVENTS)
        _assert_detections_identical(detections, _REF_DETECTIONS)
        assert created and all(_segment_gone(name) for name in created)

    @settings(deadline=None, max_examples=8)
    @given(workers=st.integers(2, 8), cut=st.integers(1, 100))
    def test_shm_interrupt_then_resume_identical(self, shm_pool, workers, cut):
        """Snapshot mid-stream, lose the unsnapshotted progress with
        the pooled state, restore and finish with the segment hand-off
        on: the result matches serial."""
        chunks = _chunks()
        cut %= len(chunks)
        with tempfile.TemporaryDirectory() as run_dir:
            store = CheckpointStore(run_dir)
            engine = _engine(workers, store=store)
            engine.attach_pool(shm_pool, f"cut-{workers}-{cut}")
            for chunk in chunks[:cut]:
                engine.ingest(chunk)
            engine.save_snapshot()
            engine.ingest(chunks[cut])  # progress the snapshot misses
            engine.abandon_pool()
            restored = DetectionEngine.from_store(store)
            restored.attach_pool(shm_pool, f"cut-{workers}-{cut}-restored")
            for chunk in chunks[cut:]:
                restored.ingest(chunk)
            events, detections = restored.finish()
        _assert_tables_identical(events, _REF_EVENTS)
        _assert_detections_identical(detections, _REF_DETECTIONS)

    def test_shm_across_real_processes(self):
        """Cross-process attach under the auto policy: a fold of 1 MiB
        or more maps the parent's segment in the workers."""
        batch = _random_capture(42, n=60_000)
        assert batch.nbytes >= SHM_MIN_BYTES
        ref_events, ref_detections = _reference(batch)
        engine = _engine(2)
        with FoldPool(2) as pool, _recorded_segments() as created:
            engine.attach_pool(pool, "auto")
            engine.ingest(batch)
            events, detections = engine.finish()
        _assert_tables_identical(events, ref_events)
        _assert_detections_identical(detections, ref_detections)
        assert len(created) == 1 and _segment_gone(created[0])

    def test_segment_cleaned_after_worker_abort(self, tmp_path):
        """A hard fold-worker death fails the fold but still ends with
        the parent unlinking its segment; restoring the last snapshot
        then finishes bit-identically."""
        chunks = _chunks()
        store = CheckpointStore(tmp_path / "ckpt")
        with FoldPool(1, shm=True) as pool, _recorded_segments() as created:
            engine = _engine(2, store=store)
            engine.attach_pool(pool, "abort")
            for chunk in chunks[:10]:
                engine.ingest(chunk)
            engine.save_snapshot()
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            with pytest.raises(FoldPoolError):
                engine.ingest(chunks[10])
            assert created and all(_segment_gone(name) for name in created)
            restored = DetectionEngine.from_store(store)
            restored.attach_pool(pool, "abort-restored")
            for chunk in chunks[10:]:
                restored.ingest(chunk)
            events, detections = restored.finish()
        _assert_tables_identical(events, _REF_EVENTS)
        _assert_detections_identical(detections, _REF_DETECTIONS)
        assert all(_segment_gone(name) for name in created)
