"""Tests for the long-lived detection engine (repro.core.engine).

The golden digests below were computed on the pre-engine code (PR 5):
the refactor must keep every run path bit-identical, so the event
table bytes and sorted AH sets of the tiny scenario are pinned as
hex literals for batch, serial streaming, and pooled runs alike.
"""

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DetectionConfig
from repro.core.detection import detect_all
from repro.core import statefile
from repro.core.engine import (
    MANIFEST_NAME,
    DetectionEngine,
    EngineQuery,
    SnapshotError,
)
from repro.core.events import EventTable, build_events
from repro.core.faults import CheckpointStore
from repro.core.streaming import StreamingDetector
from repro.core.telemetry import PipelineTelemetry
from repro.io.packetlog import packets_to_npz_bytes
from repro.packet import PacketBatch, Protocol
from repro.scanners.lazy import emit_chunks
from repro.sim.runner import run_scenario
from repro.sim.scenario import tiny_scenario
from tests.test_events import _packets
from tests.test_serialization import (
    _assert_segments_identical,
    _dense_capture,
    _edited,
)
from tests.test_streaming import (
    _assert_detections_identical,
    _assert_query_identical,
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


def ingest_chunk(engine, chunk):
    """Fold one chunk through the engine's only ingest path.

    ``chunk`` is a :class:`PacketBatch` or a capture chunk (``.packets``
    and ``.end``); it travels as one npz wire chunk, and the engine's
    :class:`~repro.core.engine.IngestReport` is returned.
    """
    return engine.ingest_payloads(
        [packets_to_npz_bytes(getattr(chunk, "packets", chunk))],
        window_end=getattr(chunk, "end", None),
    )


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
        emit_chunks(
            population.scanners, telescope.view(), chunk_seconds,
            scenario.window(),
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
            ingest_chunk(engine, chunk)
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
            ingest_chunk(engine, chunk)
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
        _assert_query_identical(
            query, SimpleNamespace(events=len(ref_events), detections=ref)
        )
        # Daily breakdowns come only from finish(), the full path.
        _assert_detections_identical(engine.finish()[1], ref)

    def test_query_does_not_disturb_the_stream(self):
        scenario, telescope, population, timeout = _world()
        chunks = _chunks(scenario, telescope, population)
        quiet = _engine_for(scenario, telescope, timeout, workers=2)
        noisy = _engine_for(scenario, telescope, timeout, workers=2)
        for i, chunk in enumerate(chunks):
            ingest_chunk(quiet, chunk)
            ingest_chunk(noisy, chunk)
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
            ingest_chunk(engine, _random_capture(1, n=10))
        with pytest.raises(RuntimeError, match="finished"):
            engine.finish()

    def test_query_after_finish_raises(self):
        # finish() hands the shards over; a later query must refuse
        # rather than answer with empty AH sets.
        engine = DetectionEngine(600.0, _DARK_SIZE, _CONFIG, workers=2)
        ingest_chunk(engine, _random_capture(3, n=5_000))
        before = engine.query()
        _, detections = engine.finish()
        for definition in (1, 2, 3):
            assert before.ah_sources(definition) == (
                detections[definition].sources
            )
        assert detections[2].sources
        with pytest.raises(RuntimeError, match="finished"):
            engine.query()

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
            ingest_chunk(engine, chunk)
        events, _ = engine.finish()
        assert telemetry.total_packets == len(batch)
        assert telemetry.total_events == len(events)
        assert telemetry.final_open_flows == 0
        assert "detect" in telemetry.stages


def _round_trip(engine, tmp_path):
    """``engine`` committed to a fresh store and loaded back."""
    engine.store = CheckpointStore(tmp_path / "round-trip")
    engine.save_snapshot()
    return DetectionEngine.from_store(engine.store)


def _rewrite_shard(store, index, edit):
    """Replace shard file ``index`` of the committed snapshot with
    ``edit(its bytes)`` and record the new length (not the digest) in
    the manifest, so only the loader's content checks stand between
    the bytes and the engine."""
    path = store.run_dir / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    entry = manifest["shards"][index]
    shard = store.run_dir / entry["name"]
    data = edit(shard.read_bytes())
    shard.write_bytes(data)
    entry["bytes"] = len(data)
    path.write_text(json.dumps(manifest))


class TestSnapshotRestore:
    def test_continuation_is_bit_identical(self, tmp_path):
        scenario, telescope, population, timeout = _world()
        chunks = _chunks(scenario, telescope, population)
        half = len(chunks) // 2
        engine = _engine_for(scenario, telescope, timeout, workers=2)
        for chunk in chunks[:half]:
            ingest_chunk(engine, chunk)
        restored = _round_trip(engine, tmp_path)
        assert restored.workers == engine.workers
        assert restored.chunks_ingested == engine.chunks_ingested
        for chunk in chunks[half:]:
            ingest_chunk(engine, chunk)
            ingest_chunk(restored, chunk)
        ev_a, det_a = engine.finish()
        ev_b, det_b = restored.finish()
        _assert_tables_identical(ev_b, ev_a)
        _assert_detections_identical(det_b, det_a)
        _assert_golden(ev_b, det_b)

    def test_version_mismatch_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path / "snap")
        engine = DetectionEngine(600.0, _DARK_SIZE, _CONFIG, store=store)
        manifest = json.loads(engine.save_snapshot().read_text())
        shard = store.run_dir / manifest["shards"][0]["name"]
        assert shard.read_bytes().startswith(statefile.magic("detector"))
        _rewrite_shard(
            store, 0, lambda data: b"repro-detector-state-v0\n" + data
        )
        with pytest.raises(SnapshotError, match="header"):
            DetectionEngine.from_store(store)
        _rewrite_shard(store, 0, lambda data: b"garbage")
        with pytest.raises(SnapshotError, match="header"):
            DetectionEngine.from_store(store)
        (store.run_dir / MANIFEST_NAME).write_bytes(b"garbage")
        with pytest.raises(SnapshotError, match="manifest"):
            DetectionEngine.from_store(store)

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
            ingest_chunk(engine, chunk)
        assert telemetry.health.checkpoint_writes == len(chunks) // 2
        revived = DetectionEngine.from_store(store)
        assert revived is not None
        assert revived.packets_seen == engine.packets_seen

    def test_from_store_empty_returns_none(self, tmp_path):
        store = CheckpointStore(tmp_path / "empty")
        assert DetectionEngine.from_store(store) is None

    def test_corrupt_snapshot_treated_as_absent(self, tmp_path):
        # A damaged snapshot never loads: it is refused, counted, and
        # its tenant starts as if there were none (tests/test_tenants.py).
        telemetry = PipelineTelemetry()
        store = CheckpointStore(tmp_path / "snap", health=telemetry.health)
        engine = DetectionEngine(600.0, _DARK_SIZE, _CONFIG, store=store)
        ingest_chunk(engine, _random_capture(12, n=500))
        manifest = json.loads(engine.save_snapshot().read_text())
        path = store.run_dir / manifest["shards"][0]["name"]
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="digest"):
            DetectionEngine.from_store(store)
        assert telemetry.health.checkpoint_corrupt == 1


def _prefix_answers(chunks, workers=1, timeout=600.0):
    """Ingest ``chunks`` one by one into an inline engine, asserting
    after each that the query equals the offline prefix oracle."""
    engine = DetectionEngine(timeout, _DARK_SIZE, _CONFIG, workers=workers)
    for n, chunk in enumerate(chunks, start=1):
        ingest_chunk(engine, chunk)
        events = build_events(PacketBatch.concat(chunks[:n]), timeout)
        _assert_query_identical(
            engine.query(),
            SimpleNamespace(
                events=len(events),
                detections=detect_all(events, _DARK_SIZE, _CONFIG),
            ),
        )
    return engine


class TestSummaryQuery:
    """Targeted cases for the summary query's shortcuts."""

    @staticmethod
    def _open_builder(engine, src):
        """The builder holding ``src``'s open flows, and its row."""
        for detector in engine._host._detectors.values():
            builder = detector.builder
            rows = np.flatnonzero((builder._keys >> np.uint64(24)) == src)
            if len(rows):
                return builder, int(rows[0])
        raise AssertionError(f"no open flow of source {src}")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dispersion_bounds_settle_only_what_they_can(self, workers):
        # Threshold 6.4 of 64.  Source 1: segments of 4 and 4 distinct
        # destinations whose union is 8 — every segment below, the union
        # above.  Source 2: the same 4 destinations twice — the lengths
        # sum to 8, the union stays 4.
        chunks = [
            _packets(
                [(t, 1, t, 80, TCP) for t in range(4)]
                + [(t, 2, t, 80, TCP) for t in range(4)]
            ),
            _packets(
                [(100 + t, 1, 4 + t, 80, TCP) for t in range(4)]
                + [(100 + t, 2, t, 80, TCP) for t in range(4)]
            ),
        ]
        engine = _prefix_answers(chunks, workers=workers)
        for src in (1, 2):
            builder, row = self._open_builder(engine, src)
            assert builder._nseg[row] == 2
            assert builder._dst_lo[row] == 4 and builder._dst_hi[row] == 8
        assert engine.query().ah_sources(1) == {1}

    def test_port_triples_repeated_across_folds_and_open_events(self):
        # Source 3 hits port 22 on day 0 in three events: the first two
        # finalize in different folds, the last stays open.  Its
        # distinct-port count stays 1, so with every other pair at 1
        # port nobody passes the port threshold.
        filler = [(5.0, s, 0, 80, TCP) for s in range(10, 30)]
        chunks = [
            _packets([(0.0, 3, 1, 22, TCP)] + filler),
            _packets([(1_000.0, 3, 2, 22, TCP)]),
            _packets([(2_500.0, 3, 3, 22, TCP)]),
            _packets([(2_600.0, 3, 4, 22, TCP)]),
        ]
        engine = _prefix_answers(chunks)
        assert engine.query().ah_sources(3) == set()
        assert engine.events_finalized == 22  # two of source 3's events
        _, detections = engine.finish()
        assert detections[3].sources == set()

    def test_unix_epoch_days(self):
        # Day indexes past 20,000: packed (src, day) keys keep them.
        base = 20_001 * 86_400.0
        chunks = [
            _packets(
                [(base + 10.0 * p, 5, p, 20 + p, TCP) for p in range(5)]
                + [(base + 1.0, s, 0, 80, TCP) for s in range(10, 30)]
            ),
            _packets([(base + 86_400.0 + 5.0, 5, 9, 80, TCP)]),
        ]
        engine = _prefix_answers(chunks, workers=2)
        _, detections = engine.finish()
        events = build_events(PacketBatch.concat(chunks), 600.0)
        _assert_detections_identical(
            detections, detect_all(events, _DARK_SIZE, _CONFIG)
        )
        assert detections[3].daily_active == {20_001: {5}}

    @pytest.mark.parametrize("big", [1, 2, 3])
    def test_volume_ties_at_the_lower_quantile(self, big):
        # 20 events: q * n = 19 puts the quantile on the 19th value, so
        # with 18 tied 3-packet events it is the first 9-packet one.
        rows = []
        for s in range(20):
            packets = 9 if s < big else 3
            rows += [(10.0 * k, 100 + s, k, 22, TCP) for k in range(packets)]
        engine = _prefix_answers([_packets(rows)])
        assert engine.query().detections[2].threshold == (
            3.0 if big == 1 else 9.0
        )


def _assert_state_identical(a, b):
    """Two detectors hold the same state, array for array."""
    pairs = [
        (a._volume, b._volume, ("_values", "_counts")),
        (a._ports, b._ports, ("_pairs", "_keys", "_counts")),
        (a, b, ("_peak_src", "_peak_packets")),
        (a.builder, b.builder, ("_keys", "_start", "_last", "_packets",
                                "_nseg", "_dst_lo", "_dst_hi")),
    ]
    for x, y, names in pairs:
        for name in names:
            assert np.array_equal(getattr(x, name), getattr(y, name)), name
            assert getattr(x, name).dtype == getattr(y, name).dtype, name
    assert len(a._volume) == len(b._volume)
    assert a._dispersion.sources == b._dispersion.sources
    _assert_segments_identical(a.builder, b.builder)
    _assert_tables_identical(
        EventTable.concat(a._chunks), EventTable.concat(b._chunks)
    )


class TestV4Snapshots:
    """v4 detector and engine snapshots restore array for array and
    then continue exactly like the live run."""

    @staticmethod
    def _chunks():
        return [c for _, _, c in _dense_capture(24).iter_time_chunks(600.0)]

    def test_detector_restores_and_continues(self):
        chunks = self._chunks()
        half = len(chunks) // 2
        detector = StreamingDetector(600.0, _DARK_SIZE, _CONFIG)
        for chunk in chunks[:half]:
            detector.add_batch(chunk)
        assert (detector.builder._nseg > 1).any()
        resumed = StreamingDetector.from_bytes(detector.to_bytes())
        _assert_state_identical(resumed, detector)
        for chunk in chunks[half:]:
            detector.add_batch(chunk)
            resumed.add_batch(chunk)
        events, detections = resumed.finish()
        ref_events, ref_detections = detector.finish()
        _assert_tables_identical(events, ref_events)
        _assert_detections_identical(detections, ref_detections)

    def test_engine_restores_and_continues(self, tmp_path):
        chunks = self._chunks()
        half = len(chunks) // 2
        engine = DetectionEngine(600.0, _DARK_SIZE, _CONFIG, workers=2)
        for chunk in chunks[:half]:
            ingest_chunk(engine, chunk)
        resumed = _round_trip(engine, tmp_path)
        for key, detector in engine._host._detectors.items():
            _assert_state_identical(resumed._host._detectors[key], detector)
        for chunk in chunks[half:]:
            ingest_chunk(engine, chunk)
            ingest_chunk(resumed, chunk)
            _assert_query_identical(resumed.query(), engine.query())
        events, detections = resumed.finish()
        ref_events, ref_detections = engine.finish()
        _assert_tables_identical(events, ref_events)
        _assert_detections_identical(detections, ref_detections)

    def test_engine_shard_lengths_must_cover_the_shards(self, tmp_path):
        store = CheckpointStore(tmp_path / "snap")
        engine = DetectionEngine(
            600.0, _DARK_SIZE, _CONFIG, workers=2, store=store
        )
        ingest_chunk(engine, _random_capture(26, n=500))
        path = engine.save_snapshot()
        manifest = json.loads(path.read_text())
        manifest["shards"][0]["bytes"] += 8
        path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="bytes, its manifest says"):
            DetectionEngine.from_store(store)


class TestTornSummaryState:
    """Histogram and port-day state that disagrees with itself is
    refused on load, never answered from."""

    @staticmethod
    def _detector():
        detector = StreamingDetector(600.0, _DARK_SIZE, _CONFIG)
        for _, _, chunk in _dense_capture(25).iter_time_chunks(600.0):
            detector.add_batch(chunk)
        return detector

    @pytest.mark.parametrize("field", ["_counts", "_n"])
    def test_histogram_counts_disagreeing_with_total(self, field):
        def tear(arrays, header):
            if field == "_counts":
                arrays["volume.counts"] += 1
            else:
                header["volume_n"] += 1

        blob = _edited(self._detector().to_bytes(), tear)
        with pytest.raises(ValueError, match="histogram"):
            StreamingDetector.from_bytes(blob)

    @pytest.mark.parametrize("tear", ["unsorted", "repeated", "miscounted"])
    def test_triple_set_not_sorted_and_unique(self, tear):
        def edit(arrays, header):
            keys = arrays["ports.keys"]
            if tear == "unsorted":
                arrays["ports.keys"] = keys[::-1].copy()
            elif tear == "repeated":
                arrays["ports.keys"] = np.insert(keys, 1, keys[0])
                arrays["ports.counts"] = np.bincount(
                    arrays["ports.keys"] >> 24,
                    minlength=len(arrays["ports.pairs"]),
                )
            else:
                arrays["ports.counts"] += 1

        detector = self._detector()
        assert len(detector._ports._keys) > 2
        blob = _edited(detector.to_bytes(), edit)
        with pytest.raises(ValueError, match="port-day"):
            StreamingDetector.from_bytes(blob)


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
        ingest_chunk(engine, chunk)
    events, detections = engine.finish()
    _assert_tables_identical(events, ref_events.sorted_canonical())
    _assert_detections_identical(detections, ref)
