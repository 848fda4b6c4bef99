"""Round-trip tests for the serialized state the service depends on.

The serve layer moves detector and flow-shard state across process
boundaries (engine snapshots, checkpoint files, worker recycling), so
the byte formats have to survive a full snapshot → merge → snapshot
cycle without perturbing results, and stale payloads from other
versions must be rejected loudly rather than deserialized into
garbage.
"""

import io
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DetectionConfig
from repro.core.detection import detect_all
from repro.core.events import build_events
from repro.core.streaming import (
    _COMPACT_SEGMENTS,
    STATE_MAGIC,
    StreamingDetector,
    StreamingEventBuilder,
)
from repro.flows.netflow import FlowColumns
from repro.flows.synthesis import (
    FLOW_STATE_MAGIC,
    flow_state_from_bytes,
    flow_state_to_bytes,
)
from repro.packet import PacketBatch, Protocol
from repro.parallel import shard_batch
from tests.test_events import _packets
from tests.test_streaming import (
    _assert_detections_identical,
    _assert_tables_identical,
)

TCP = Protocol.TCP_SYN.value

_DARK_SIZE = 64
_TIMEOUT = 600.0
_CONFIG = DetectionConfig(
    alpha=0.05, min_packet_threshold=2, min_port_threshold=1
)


def _capture(seed, n=6_000, duration=150_000.0):
    rng = np.random.default_rng(seed)
    return PacketBatch(
        ts=np.sort(rng.random(n) * duration),
        src=rng.integers(1, 120, n).astype(np.uint32),
        dst=rng.integers(0, _DARK_SIZE, n).astype(np.uint32),
        dport=rng.choice(np.array([22, 23, 80, 443], dtype=np.uint16), n),
        proto=np.full(n, TCP, dtype=np.uint8),
        ipid=np.zeros(n, dtype=np.uint16),
    )


def _detector():
    return StreamingDetector(_TIMEOUT, _DARK_SIZE, _CONFIG)


class TestDetectorRoundTrip:
    def test_snapshot_merge_snapshot_cycle(self):
        """Serialize shards, merge the revived copies, serialize the
        merged state, revive again — results stay bit-identical to the
        offline batch pipeline."""
        batch = _capture(101)
        shards = shard_batch(batch, 3)
        blobs = []
        for shard in shards:
            detector = _detector()
            for _, _, chunk in shard.iter_time_chunks(3_600.0):
                detector.add_batch(chunk)
            blobs.append(detector.to_bytes())  # snapshot

        merged = StreamingDetector.from_bytes(blobs[0])
        for blob in blobs[1:]:
            merged.merge(StreamingDetector.from_bytes(blob))  # merge

        revived = StreamingDetector.from_bytes(merged.to_bytes())  # snapshot
        events, detections = revived.finish()

        ref_events = build_events(batch, _TIMEOUT)
        _assert_tables_identical(events, ref_events)
        _assert_detections_identical(
            detections, detect_all(ref_events, _DARK_SIZE, _CONFIG)
        )

    def test_round_trip_is_a_deep_copy(self):
        """Feeding the original after a snapshot must not leak into the
        revived copy (the engine's query path relies on this)."""
        original = _detector()
        chunks = list(_capture(102).iter_time_chunks(3_600.0))
        half = len(chunks) // 2
        for _, _, chunk in chunks[:half]:
            original.add_batch(chunk)
        frozen = StreamingDetector.from_bytes(original.to_bytes())
        for _, _, chunk in chunks[half:]:
            original.add_batch(chunk)
        assert frozen.packets_seen < original.packets_seen

    def test_empty_detector_round_trips(self):
        revived = StreamingDetector.from_bytes(_detector().to_bytes())
        events, detections = revived.finish()
        assert len(events) == 0
        assert detections[1].sources == set()

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"garbage",
            b"repro-detector-state-v0\n" + b"\x00" * 16,
            FLOW_STATE_MAGIC + b"\x00" * 16,  # wrong format's magic
        ],
        ids=["empty", "garbage", "stale-version", "flow-magic"],
    )
    def test_version_mismatch_rejected(self, data):
        with pytest.raises(ValueError, match="header"):
            StreamingDetector.from_bytes(data)

    def test_magic_is_versioned(self):
        blob = _detector().to_bytes()
        assert blob.startswith(STATE_MAGIC)
        assert b"v3" in STATE_MAGIC


def _dense_capture(seed, n=20_000, duration=20_000.0):
    """Few sources, packets every couple of minutes per flow: nearly
    every flow stays open across many chunks and collects segments."""
    rng = np.random.default_rng(seed)
    return PacketBatch(
        ts=np.sort(rng.random(n) * duration),
        src=rng.integers(1, 30, n).astype(np.uint32),
        dst=rng.integers(0, _DARK_SIZE, n).astype(np.uint32),
        dport=rng.choice(np.array([22, 23, 80, 443], dtype=np.uint16), n),
        proto=np.full(n, TCP, dtype=np.uint8),
        ipid=np.zeros(n, dtype=np.uint16),
    )


def _assert_segments_identical(a, b):
    """Key by key: the same segment count, order, dtype and values."""
    assert list(a) == list(b)
    for key, segs in a.items():
        other = b[key]
        assert len(segs) == len(other), key
        for seg, seg_b in zip(segs, other):
            assert seg.dtype == seg_b.dtype, key
            assert np.array_equal(seg, seg_b), key


#: flow key of the first long-lived flow :func:`_chunked_streams` draws.
_LONG_FLOW = (100 << 24) | (22 << 8) | TCP


@st.composite
def _chunked_streams(draw):
    """A capture cut into chunks at random 100-s boundaries.

    Long-lived flows send every 20-90 s across the whole stream, so
    each of them continues into every chunk: with at least ten chunks
    they pass the compaction point, and at most snapshot points they
    hold several segments.  Random short-lived rows add flows that
    close.
    """
    rows = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        step = draw(st.floats(min_value=20.0, max_value=90.0))
        times = np.arange(0.0, 6_000.0, step)
        dsts = draw(
            st.lists(
                st.integers(min_value=0, max_value=40),
                min_size=len(times),
                max_size=len(times),
            )
        )
        rows += [(t, 100 + i, d, 22, TCP) for t, d in zip(times, dsts)]
    rows += [
        (t, s, d, p, TCP)
        for t, s, d, p in draw(
            st.lists(
                st.tuples(
                    st.floats(min_value=0.0, max_value=5_999.0),
                    st.integers(min_value=1, max_value=6),
                    st.integers(min_value=0, max_value=40),
                    st.sampled_from([22, 23, 80]),
                ),
                max_size=150,
            )
        )
    ]
    batch = _packets(rows)
    cuts = draw(
        st.lists(
            st.integers(min_value=1, max_value=59),
            min_size=_COMPACT_SEGMENTS + 1,
            max_size=25,
            unique=True,
        )
    )
    edges = [0.0] + [100.0 * c for c in sorted(cuts)] + [6_000.0]
    chunks = [
        batch.select((batch.ts >= a) & (batch.ts < b))
        for a, b in zip(edges[:-1], edges[1:])
    ]
    return chunks, draw(st.integers(min_value=0, max_value=len(chunks)))


class TestColumnarSegments:
    """The open-flow segment map pickles as columns and restores
    exactly, including maps pickled before the columnar form."""

    @given(_chunked_streams())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_at_any_chunk_then_fold_on(self, stream):
        chunks, at = stream
        original, twin = _detector(), _detector()
        live = [original, twin]

        def restore():
            restored = StreamingDetector.from_bytes(original.to_bytes())
            _assert_segments_identical(
                restored.builder._segs, original.builder._segs
            )
            live.append(restored)

        seen = []
        for index, chunk in enumerate(chunks):
            if index == at:
                restore()
            for detector in live:
                detector.add_batch(chunk)
            seen.append(len(twin.builder._segs[_LONG_FLOW]))
        if at == len(chunks):
            restore()
        # The long flow gains a segment per chunk and is compacted
        # back to one at _COMPACT_SEGMENTS.
        assert seen[:_COMPACT_SEGMENTS] == (
            list(range(1, _COMPACT_SEGMENTS)) + [1]
        )
        events, detections = twin.finish()
        for detector in (live[2], original):
            got_events, got = detector.finish()
            _assert_tables_identical(got_events, events)
            _assert_detections_identical(got, detections)

    @staticmethod
    def _torn(monkeypatch, column, delta):
        """A detector blob whose packed column ``column`` is off."""
        detector = _detector()
        for _, _, chunk in list(
            _dense_capture(8).iter_time_chunks(600.0)
        )[:5]:
            detector.add_batch(chunk)
        assert any(len(v) > 1 for v in detector.builder._segs.values())
        pack = StreamingEventBuilder.__getstate__

        def torn(builder):
            state = pack(builder)
            columns = list(state["_seg_columns"])
            columns[column] = columns[column].copy()
            columns[column][0] += delta
            state["_seg_columns"] = tuple(columns)
            return state

        monkeypatch.setattr(StreamingEventBuilder, "__getstate__", torn)
        blob = detector.to_bytes()
        monkeypatch.undo()
        return blob

    @pytest.mark.parametrize(
        "column,delta",
        [(2, 1), (2, -1), (1, 1), (1, -1), (0, 1)],
        ids=[
            "lengths-over-values",
            "lengths-under-values",
            "counts-over-segments",
            "counts-under-segments",
            "key-not-open",
        ],
    )
    def test_disagreeing_columns_refused(self, monkeypatch, column, delta):
        blob = self._torn(monkeypatch, column, delta)
        with pytest.raises(ValueError, match="disagree"):
            StreamingDetector.from_bytes(blob)

    def test_array_count_independent_of_open_flows(self):
        """Pickling a builder reduces a fixed number of arrays, however
        many multi-segment flows are open."""

        class ArrayCounter(pickle.Pickler):
            arrays = 0

            def reducer_override(self, obj):
                if isinstance(obj, np.ndarray):
                    self.arrays += 1
                return NotImplemented

        def arrays_pickled(flows):
            builder = StreamingEventBuilder(_TIMEOUT)
            src = np.arange(1, flows + 1, dtype=np.uint32)
            for step in range(3):
                builder.add_batch(
                    PacketBatch(
                        ts=np.full(flows, 100.0 * step),
                        src=src,
                        dst=(src + step) % _DARK_SIZE,
                        dport=np.full(flows, 22, dtype=np.uint16),
                        proto=np.full(flows, TCP, dtype=np.uint8),
                        ipid=np.zeros(flows, dtype=np.uint16),
                    )
                )
            assert builder.open_flows == flows
            assert {len(v) for v in builder._segs.values()} == {3}
            pickler = ArrayCounter(io.BytesIO(), protocol=4)
            pickler.dump(builder)
            return pickler.arrays

        assert arrays_pickled(10) == arrays_pickled(2_000)


def _columns(seed, n=500):
    rng = np.random.default_rng(seed)
    return FlowColumns(
        router=rng.integers(0, 3, n).astype(np.int8),
        day=rng.integers(0, 30, n).astype(np.int32),
        src=rng.integers(1, 2**32 - 1, n).astype(np.uint32),
        dport=rng.integers(0, 2**16, n).astype(np.uint16),
        proto=rng.integers(0, 4, n).astype(np.uint8),
        true=rng.integers(1, 10_000, n).astype(np.int64),
    )


def _assert_columns_identical(a, b):
    assert len(a) == len(b)
    for column in ("router", "day", "src", "dport", "proto", "true"):
        assert np.array_equal(getattr(a, column), getattr(b, column)), column


class TestFlowStateRoundTrip:
    def test_snapshot_merge_snapshot_cycle(self):
        """Shard checkpoints concatenated in shard order reproduce the
        serial column layout — through two serialization hops."""
        shards = [_columns(s) for s in (1, 2, 3)]
        revived = [
            flow_state_from_bytes(flow_state_to_bytes(c)) for c in shards
        ]
        merged = FlowColumns.concat(revived)
        final = flow_state_from_bytes(flow_state_to_bytes(merged))
        _assert_columns_identical(final, FlowColumns.concat(shards))

    def test_dtypes_preserved(self):
        revived = flow_state_from_bytes(flow_state_to_bytes(_columns(4)))
        assert revived.router.dtype == np.int8
        assert revived.day.dtype == np.int32
        assert revived.src.dtype == np.uint32
        assert revived.dport.dtype == np.uint16
        assert revived.proto.dtype == np.uint8
        assert revived.true.dtype == np.int64

    def test_empty_columns_round_trip(self):
        revived = flow_state_from_bytes(flow_state_to_bytes(FlowColumns()))
        assert len(revived) == 0

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"garbage",
            b"repro-flow-state-v0\n" + b"\x00" * 16,
            STATE_MAGIC + b"\x00" * 16,  # wrong format's magic
        ],
        ids=["empty", "garbage", "stale-version", "detector-magic"],
    )
    def test_version_mismatch_rejected(self, data):
        with pytest.raises(ValueError, match="header"):
            flow_state_from_bytes(data)

    def test_payload_must_be_flow_columns(self):
        import pickle

        bogus = FLOW_STATE_MAGIC + pickle.dumps({"not": "columns"})
        with pytest.raises(ValueError):
            flow_state_from_bytes(bogus)
