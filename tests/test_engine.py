"""Tests for the long-lived detection engine (repro.core.engine).

The golden digests below were computed on the pre-engine code (PR 5):
the refactor must keep every run path bit-identical, so the event
table bytes and sorted AH sets of the tiny scenario are pinned as
hex literals for batch, serial streaming, and pooled runs alike.
"""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DetectionConfig
from repro.core.detection import detect_all
from repro.core.engine import (
    ENGINE_STATE_MAGIC,
    DegradedSnapshotError,
    DetectionEngine,
    EngineQuery,
)
from repro.core.events import build_events
from repro.core.faults import CheckpointStore
from repro.core.streaming import (
    STATE_MAGIC,
    StreamingDetector,
    StreamingEventBuilder,
)
from repro.core.telemetry import PipelineTelemetry
from repro.packet import PacketBatch, Protocol
from repro.sim.runner import run_scenario
from repro.sim.scenario import tiny_scenario
from tests.test_events import _packets
from tests.test_serialization import (
    _assert_segments_identical,
    _dense_capture,
)
from tests.test_streaming import (
    _assert_detections_identical,
    _assert_tables_identical,
)

TCP = Protocol.TCP_SYN.value

_DARK_SIZE = 64
_CONFIG = DetectionConfig(
    alpha=0.05, min_packet_threshold=2, min_port_threshold=1
)

# ----------------------------------------------------------------------
# Golden digests of the tiny scenario, computed BEFORE the engine
# refactor.  Any change to these is a silent behaviour change in the
# detection pipeline and must be treated as a bug.
# ----------------------------------------------------------------------
GOLDEN_EVENT_DIGEST = "2def52305c91bf3d"
GOLDEN_DETECTIONS = {
    1: (75, "4fc555993086b60e", 204.8),
    2: (79, "fe618feb2cee584c", 100.0),
    3: (22, "25a1aca7feb9484c", 2.0),
}


def _events_digest(events) -> str:
    h = hashlib.sha256()
    for col in (
        "src", "dport", "proto", "start", "end", "packets", "unique_dsts"
    ):
        h.update(np.ascontiguousarray(getattr(events, col)).tobytes())
    return h.hexdigest()[:16]


def _sources_digest(sources) -> str:
    arr = np.sort(np.array(sorted(sources), dtype=np.uint64))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def _assert_golden(events, detections):
    assert _events_digest(events) == GOLDEN_EVENT_DIGEST
    for definition, (count, digest, threshold) in GOLDEN_DETECTIONS.items():
        result = detections[definition]
        assert len(result.sources) == count
        assert _sources_digest(result.sources) == digest
        assert result.threshold == pytest.approx(threshold)


def _world():
    from repro.sim.runner import _build_world_base

    scenario = tiny_scenario()
    internet, telescope, population, merit, campus, timeout = (
        _build_world_base(scenario)
    )
    return scenario, telescope, population, timeout


def _engine_for(scenario, telescope, timeout, **kwargs):
    return DetectionEngine(
        timeout,
        telescope.size,
        scenario.detection,
        scenario.clock.seconds_per_day,
        **kwargs,
    )


def _chunks(scenario, telescope, population, chunk_seconds=3_600.0):
    return list(
        telescope.stream(
            population.scanners, chunk_seconds, window=scenario.window()
        )
    )


def _random_capture(seed, n=20_000, duration=400_000.0):
    rng = np.random.default_rng(seed)
    return PacketBatch(
        ts=np.sort(rng.random(n) * duration),
        src=rng.integers(1, 200, n).astype(np.uint32),
        dst=rng.integers(0, _DARK_SIZE, n).astype(np.uint32),
        dport=rng.choice(np.array([22, 23, 80, 443], dtype=np.uint16), n),
        proto=np.full(n, TCP, dtype=np.uint8),
        ipid=np.zeros(n, dtype=np.uint16),
    )


class TestGoldenRunPaths:
    """The run paths stay bit-identical to the pre-engine code."""

    def test_batch(self):
        result = run_scenario(tiny_scenario())
        _assert_golden(result.events, result.detections)

    def test_streaming_serial(self):
        result = run_scenario(tiny_scenario(), mode="streaming")
        _assert_golden(result.events, result.detections)

    def test_streaming_pool(self):
        result = run_scenario(
            tiny_scenario(), mode="streaming", workers=2
        )
        _assert_golden(result.events, result.detections)
        assert result.telemetry.workers == 2

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_engine_direct(self, workers):
        scenario, telescope, population, timeout = _world()
        engine = _engine_for(scenario, telescope, timeout, workers=workers)
        for chunk in _chunks(scenario, telescope, population):
            engine.ingest(chunk)
        events, detections = engine.finish()
        _assert_golden(events, detections)


class TestEngineLifecycle:
    def test_query_matches_offline_prefix(self):
        # A mid-stream query answers exactly what an offline run over
        # the traffic seen so far would.
        scenario, telescope, population, timeout = _world()
        chunks = _chunks(scenario, telescope, population)
        half = len(chunks) // 2
        engine = _engine_for(scenario, telescope, timeout, workers=2)
        for chunk in chunks[:half]:
            engine.ingest(chunk)
        query = engine.query()
        assert isinstance(query, EngineQuery)
        prefix = PacketBatch.concat([c.packets for c in chunks[:half]])
        ref_events = build_events(prefix, timeout)
        ref = detect_all(
            ref_events,
            telescope.size,
            scenario.detection,
            scenario.clock.seconds_per_day,
        )
        assert query.events == len(ref_events)
        _assert_detections_identical(query.detections, ref)

    def test_query_does_not_disturb_the_stream(self):
        scenario, telescope, population, timeout = _world()
        chunks = _chunks(scenario, telescope, population)
        quiet = _engine_for(scenario, telescope, timeout, workers=2)
        noisy = _engine_for(scenario, telescope, timeout, workers=2)
        for i, chunk in enumerate(chunks):
            quiet.ingest(chunk)
            noisy.ingest(chunk)
            if i % 7 == 0:
                noisy.query()
        ev_q, det_q = quiet.finish()
        ev_n, det_n = noisy.finish()
        _assert_tables_identical(ev_n, ev_q)
        _assert_detections_identical(det_n, det_q)

    def test_ingest_after_finish_raises(self):
        engine = DetectionEngine(600.0, _DARK_SIZE, _CONFIG)
        engine.finish()
        with pytest.raises(RuntimeError, match="finished"):
            engine.ingest(_random_capture(1, n=10))
        with pytest.raises(RuntimeError, match="finished"):
            engine.finish()

    def test_empty_engine_query_and_finish(self):
        engine = DetectionEngine(600.0, _DARK_SIZE, _CONFIG)
        query = engine.query()
        assert query.packets == 0
        assert query.ah_sources(1) == set()
        events, detections = engine.finish()
        assert len(events) == 0
        assert all(not r.sources for r in detections.values())

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match=">= 1"):
            DetectionEngine(600.0, _DARK_SIZE, workers=0)

    def test_telemetry_matches_serial_path(self):
        # The engine records the same chunk/stage gauges the serial
        # streaming loop used to.
        batch = _random_capture(7, n=8_000)
        telemetry = PipelineTelemetry(chunk_seconds=3_600.0)
        engine = DetectionEngine(
            600.0, _DARK_SIZE, _CONFIG, telemetry=telemetry
        )
        for _, _, chunk in batch.iter_time_chunks(3_600.0):
            engine.ingest(chunk)
        events, _ = engine.finish()
        assert telemetry.total_packets == len(batch)
        assert telemetry.total_events == len(events)
        assert telemetry.final_open_flows == 0
        assert "detect" in telemetry.stages


class TestSnapshotRestore:
    def test_continuation_is_bit_identical(self):
        scenario, telescope, population, timeout = _world()
        chunks = _chunks(scenario, telescope, population)
        half = len(chunks) // 2
        engine = _engine_for(scenario, telescope, timeout, workers=2)
        for chunk in chunks[:half]:
            engine.ingest(chunk)
        restored = DetectionEngine.restore(engine.snapshot())
        assert restored.workers == engine.workers
        assert restored.chunks_ingested == engine.chunks_ingested
        for chunk in chunks[half:]:
            engine.ingest(chunk)
            restored.ingest(chunk)
        ev_a, det_a = engine.finish()
        ev_b, det_b = restored.finish()
        _assert_tables_identical(ev_b, ev_a)
        _assert_detections_identical(det_b, det_a)
        _assert_golden(ev_b, det_b)

    def test_version_mismatch_rejected(self):
        engine = DetectionEngine(600.0, _DARK_SIZE, _CONFIG)
        blob = engine.snapshot()
        assert blob.startswith(ENGINE_STATE_MAGIC)
        with pytest.raises(ValueError, match="header"):
            DetectionEngine.restore(b"repro-engine-state-v0\n" + blob)
        with pytest.raises(ValueError, match="header"):
            DetectionEngine.restore(b"garbage")

    def test_scheduled_snapshots_through_store(self, tmp_path):
        telemetry = PipelineTelemetry()
        store = CheckpointStore(tmp_path / "snap", health=telemetry.health)
        engine = DetectionEngine(
            600.0,
            _DARK_SIZE,
            _CONFIG,
            telemetry=telemetry,
            store=store,
            snapshot_every_chunks=2,
        )
        batch = _random_capture(11, n=6_000)
        chunks = [c for _, _, c in batch.iter_time_chunks(3_600.0)]
        for chunk in chunks:
            engine.ingest(chunk)
        assert telemetry.health.checkpoint_writes == len(chunks) // 2
        revived = DetectionEngine.from_store(store)
        assert revived is not None
        assert revived.packets_seen == engine.packets_seen

    def test_from_store_empty_returns_none(self, tmp_path):
        store = CheckpointStore(tmp_path / "empty")
        assert DetectionEngine.from_store(store) is None

    def test_corrupt_snapshot_treated_as_absent(self, tmp_path):
        telemetry = PipelineTelemetry()
        store = CheckpointStore(tmp_path / "snap", health=telemetry.health)
        engine = DetectionEngine(600.0, _DARK_SIZE, _CONFIG, store=store)
        engine.ingest(_random_capture(12, n=500))
        path = engine.save_snapshot()
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert DetectionEngine.from_store(store) is None
        assert telemetry.health.checkpoint_corrupt == 1


class TestLegacySnapshots:
    """Snapshots written while engines took a ``max_ecdf_samples``
    budget carry ``degraded``/``max_ecdf_samples`` keys under the same
    v2 header."""

    @staticmethod
    def _legacy(engine, degraded):
        payload = pickle.loads(engine.snapshot()[len(ENGINE_STATE_MAGIC):])
        payload.update(degraded=degraded, max_ecdf_samples=None)
        return ENGINE_STATE_MAGIC + pickle.dumps(payload, protocol=4)

    def test_exact_legacy_snapshot_restores(self):
        batch = _random_capture(21)
        chunks = [c for _, _, c in batch.iter_time_chunks(3_600.0)]
        half = len(chunks) // 2
        engine = DetectionEngine(600.0, _DARK_SIZE, _CONFIG, workers=2)
        for chunk in chunks[:half]:
            engine.ingest(chunk)
        resumed = DetectionEngine.restore(self._legacy(engine, False))
        for chunk in chunks[half:]:
            engine.ingest(chunk)
            resumed.ingest(chunk)
        assert resumed.packets_seen == engine.packets_seen == len(batch)
        _assert_detections_identical(
            resumed.query().detections, engine.query().detections
        )

    def test_degraded_legacy_snapshot_refused(self):
        engine = DetectionEngine(600.0, _DARK_SIZE, _CONFIG)
        engine.ingest(_random_capture(22, n=500))
        with pytest.raises(DegradedSnapshotError, match="approximate"):
            DetectionEngine.restore(self._legacy(engine, True))
        assert issubclass(DegradedSnapshotError, ValueError)


class TestLegacySegmentLayout:
    """Snapshots written before open-flow segments were packed into
    columns pickle each builder's plain ``__dict__``, ``_segs`` dict
    included, under the same v2 headers."""

    @staticmethod
    def _chunks():
        return [c for _, _, c in _dense_capture(23).iter_time_chunks(600.0)]

    @staticmethod
    def _legacy(monkeypatch, write):
        monkeypatch.delattr(StreamingEventBuilder, "__getstate__")
        try:
            blob = write()
        finally:
            monkeypatch.undo()
        assert b"_seg_columns" not in blob and b"_segs" in blob
        return blob

    def test_detector_restores_and_continues(self, monkeypatch):
        chunks = self._chunks()
        half = len(chunks) // 2
        detector = StreamingDetector(600.0, _DARK_SIZE, _CONFIG)
        for chunk in chunks[:half]:
            detector.add_batch(chunk)
        assert any(len(v) > 1 for v in detector.builder._segs.values())
        blob = self._legacy(monkeypatch, detector.to_bytes)
        assert blob.startswith(STATE_MAGIC)
        resumed = StreamingDetector.from_bytes(blob)
        _assert_segments_identical(
            resumed.builder._segs, detector.builder._segs
        )
        for chunk in chunks[half:]:
            detector.add_batch(chunk)
            resumed.add_batch(chunk)
        events, detections = resumed.finish()
        ref_events, ref_detections = detector.finish()
        _assert_tables_identical(events, ref_events)
        _assert_detections_identical(detections, ref_detections)

    def test_engine_restores_and_continues(self, monkeypatch):
        chunks = self._chunks()
        half = len(chunks) // 2
        engine = DetectionEngine(600.0, _DARK_SIZE, _CONFIG, workers=2)
        for chunk in chunks[:half]:
            engine.ingest(chunk)
        blob = self._legacy(monkeypatch, engine.snapshot)
        assert blob.startswith(ENGINE_STATE_MAGIC)
        resumed = DetectionEngine.restore(blob)
        for chunk in chunks[half:]:
            engine.ingest(chunk)
            resumed.ingest(chunk)
        assert resumed.packets_seen == engine.packets_seen
        _assert_detections_identical(
            resumed.query().detections, engine.query().detections
        )
        events, detections = resumed.finish()
        ref_events, ref_detections = engine.finish()
        _assert_tables_identical(events, ref_events)
        _assert_detections_identical(detections, ref_detections)


# ----------------------------------------------------------------------
# Property: for any worker count and chunking, the engine's finish
# equals batch detect_all over the concatenated capture.
# ----------------------------------------------------------------------

packet_rows = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=5_000, allow_nan=False),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=20),
        st.sampled_from([22, 23, 80]),
    ),
    min_size=1,
    max_size=120,
)


@given(
    packet_rows,
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=50.0, max_value=6_000.0),
)
@settings(max_examples=40, deadline=None)
def test_engine_equals_batch(rows, workers, chunk_seconds):
    batch = _packets([(ts, s, d, p, TCP) for ts, s, d, p in rows])
    ref_events = build_events(batch, 600.0)
    ref = detect_all(ref_events, _DARK_SIZE, _CONFIG)
    engine = DetectionEngine(600.0, _DARK_SIZE, _CONFIG, workers=workers)
    for _, _, chunk in batch.iter_time_chunks(chunk_seconds):
        engine.ingest(chunk)
    events, detections = engine.finish()
    _assert_tables_identical(events, ref_events.sorted_canonical())
    _assert_detections_identical(detections, ref)
