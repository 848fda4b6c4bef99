"""Round-trip tests for the serialized state the service depends on.

The serve layer moves detector and engine state across process
boundaries (engine snapshots, checkpoint files, worker recycling), so
the byte formats have to survive a full snapshot → merge → snapshot
cycle without perturbing results, and stale payloads from other
versions must be rejected loudly rather than deserialized into
garbage.
"""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DetectionConfig
from repro.core import statefile
from repro.core.detection import detect_all
from repro.core.events import build_events
from repro.core.streaming import (
    _COMPACT_SEGMENTS,
    _STATE_ARRAYS,
    STATE_MAGIC,
    StreamingDetector,
)
from repro.packet import PacketBatch, Protocol, shard_of
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
        owner = shard_of(batch.src, 3)
        shards = [batch.select(owner == i) for i in range(3)]
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
            statefile.magic("engine") + b"\x00" * 16,  # another kind
        ],
        ids=["empty", "garbage", "stale-version", "engine-magic"],
    )
    def test_version_mismatch_rejected(self, data):
        with pytest.raises(ValueError, match="header"):
            StreamingDetector.from_bytes(data)

    def test_magic_is_versioned(self):
        blob = _detector().to_bytes()
        assert blob.startswith(STATE_MAGIC)
        assert b"v4" in STATE_MAGIC


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


def _segments(builder):
    """Flow key -> that flow's destination segments, in order."""
    return {
        key: [
            builder._arena[off:off + n]
            for k, off, n in zip(
                builder._seg_key.tolist(),
                builder._seg_off.tolist(),
                builder._seg_len.tolist(),
            )
            if k == key
        ]
        for key in builder._keys.tolist()
    }


def _assert_segments_identical(a, b):
    """Builder by builder: for every flow, the same segment count,
    order, dtype and values."""
    a, b = _segments(a), _segments(b)
    assert list(a) == list(b)
    for key, segs in a.items():
        other = b[key]
        assert len(segs) == len(other), key
        for seg, seg_b in zip(segs, other):
            assert seg.dtype == seg_b.dtype, key
            assert np.array_equal(seg, seg_b), key


def _edited(blob, edit, kind="detector", dtypes=_STATE_ARRAYS):
    """``blob`` re-packed after ``edit(arrays, header)``, with fresh
    digests: state that passes the container checks but not, if
    ``edit`` breaks one, the loader's invariants."""
    header, arrays = statefile.unpack(blob, kind, dtypes)
    arrays = {name: array.copy() for name, array in arrays.items()}
    edit(arrays, header)
    return statefile.pack(kind, header, arrays)


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
    """The open-flow arena and its segment columns serialize as v4
    arrays and restore exactly."""

    @given(_chunked_streams())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_at_any_chunk_then_fold_on(self, stream):
        chunks, at = stream
        original, twin = _detector(), _detector()
        live = [original, twin]

        def restore():
            restored = StreamingDetector.from_bytes(original.to_bytes())
            _assert_segments_identical(restored.builder, original.builder)
            live.append(restored)

        seen = []
        for index, chunk in enumerate(chunks):
            if index == at:
                restore()
            for detector in live:
                detector.add_batch(chunk)
            seen.append(len(_segments(twin.builder)[_LONG_FLOW]))
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
    def _torn(column, delta):
        """A detector blob whose array ``column`` is off by ``delta``
        in its first entry."""
        detector = _detector()
        for _, _, chunk in list(
            _dense_capture(8).iter_time_chunks(600.0)
        )[:5]:
            detector.add_batch(chunk)
        assert (detector.builder._nseg > 1).any()

        def tear(arrays, header):
            arrays[column][0] += delta

        return _edited(detector.to_bytes(), tear)

    @pytest.mark.parametrize(
        "column,delta",
        [("_seg_len", 1), ("_seg_len", -1), ("_nseg", 1), ("_nseg", -1),
         ("_keys", 1 << 62)],
        ids=[
            "lengths-over-values",
            "lengths-under-values",
            "counts-over-segments",
            "counts-under-segments",
            "key-not-open",
        ],
    )
    def test_disagreeing_columns_refused(self, column, delta):
        blob = self._torn(column, delta)
        with pytest.raises(ValueError, match="disagree"):
            StreamingDetector.from_bytes(blob)

    def test_array_count_independent_of_open_flows(self):
        """A detector serializes a fixed list of arrays, however many
        multi-segment flows are open."""

        def arrays_written(flows):
            detector = _detector()
            src = np.arange(1, flows + 1, dtype=np.uint32)
            for step in range(3):
                detector.add_batch(
                    PacketBatch(
                        ts=np.full(flows, 100.0 * step),
                        src=src,
                        dst=(src + step) % _DARK_SIZE,
                        dport=np.full(flows, 22, dtype=np.uint16),
                        proto=np.full(flows, TCP, dtype=np.uint8),
                        ipid=np.zeros(flows, dtype=np.uint16),
                    )
                )
            assert detector.open_flows == flows
            assert set(detector.builder._nseg.tolist()) == {3}
            _, arrays = statefile.unpack(
                detector.to_bytes(), "detector", _STATE_ARRAYS
            )
            return sorted(arrays)

        assert arrays_written(10) == arrays_written(2_000)


class _Tripwire:
    """Unpickling this creates ``path``: a stand-in for code execution."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


class TestNoPickleOnRestore:
    """v2 and v3 state was a magic line and a pickle.  Every restore
    path refuses it by version without unpickling a byte of it."""

    @staticmethod
    def _blob(tmp_path, kind, version):
        sentinel = tmp_path / "sentinel"
        payload = pickle.dumps(_Tripwire(sentinel), protocol=4)
        return sentinel, b"repro-%s-state-v%d\n" % (kind, version) + payload

    @pytest.mark.parametrize("version", [2, 3])
    def test_detector_from_bytes(self, tmp_path, version):
        sentinel, blob = self._blob(tmp_path, b"detector", version)
        with pytest.raises(ValueError, match=f"v{version}"):
            StreamingDetector.from_bytes(blob)
        assert not sentinel.exists()

    @pytest.mark.parametrize("version", [2, 3])
    def test_engine_restore(self, tmp_path, version):
        from repro.core.engine import DetectionEngine, SnapshotError
        from repro.core.faults import CheckpointStore
        from tests.test_engine import _rewrite_shard

        store = CheckpointStore(tmp_path / "snap")
        DetectionEngine(
            _TIMEOUT, _DARK_SIZE, _CONFIG, store=store
        ).save_snapshot()
        sentinel, blob = self._blob(tmp_path, b"detector", version)
        _rewrite_shard(store, 0, lambda data: blob)
        with pytest.raises(SnapshotError, match=f"v{version}"):
            DetectionEngine.from_store(store)
        assert not sentinel.exists()

    def test_resume_run_checkpoint(self, tmp_path):
        from repro.core.faults import CheckpointStore
        from repro.core.telemetry import PipelineTelemetry
        from repro.io.packetlog import save_packets_chunked
        from repro.parallel import (
            _load_detect_state,
            parallel_detect_directory,
            resume_run,
        )

        sentinel, blob = self._blob(tmp_path, b"detector", 3)
        with pytest.raises(ValueError, match="v3"):
            _load_detect_state(blob)
        batch = _capture(103, n=2_000)
        save_packets_chunked(batch, tmp_path / "cap", 20_000.0)
        run = tmp_path / "run"
        parallel_detect_directory(
            tmp_path / "cap", _TIMEOUT, _DARK_SIZE, _CONFIG,
            workers=2, use_processes=False, checkpoint_dir=run,
        )
        CheckpointStore(run).save("detect", 0, blob)
        telemetry = PipelineTelemetry()
        result = resume_run(run, use_processes=False, telemetry=telemetry)
        assert not sentinel.exists()
        # The refused checkpoint is discarded and its shard re-run.
        assert telemetry.health.checkpoint_corrupt == 1
        assert telemetry.health.checkpoint_hits == 1
        ref_events = build_events(batch, _TIMEOUT)
        _assert_tables_identical(result.events, ref_events)
        _assert_detections_identical(
            result.detections, detect_all(ref_events, _DARK_SIZE, _CONFIG)
        )

    def test_fold_pool_load(self, tmp_path):
        from repro.serve.foldpool import FoldPool

        sentinel, blob = self._blob(tmp_path, b"detector", 3)
        with FoldPool(1) as pool:
            with pytest.raises(ValueError, match="v3"):
                pool.load(("t", 0), blob)
            assert pool.ping()
        assert not sentinel.exists()


class TestV4Container:
    """The container refuses damage with a typed ``ValueError``."""

    @staticmethod
    def _blob():
        detector = _detector()
        for _, _, chunk in list(_capture(104).iter_time_chunks(3_600.0))[:8]:
            detector.add_batch(chunk)
        return detector.to_bytes()

    def test_flipped_array_byte(self):
        blob = bytearray(self._blob())
        blob[-9] ^= 0x01
        with pytest.raises(ValueError, match="digest"):
            StreamingDetector.from_bytes(bytes(blob))

    @pytest.mark.parametrize(
        "field,value",
        [("dtype", "<f8"), ("dtype", "<i4"), ("shape", [3]), ("shape", 5)],
        ids=["same-size-dtype", "other-dtype", "short-shape", "bad-shape"],
    )
    def test_wrong_dtype_or_shape(self, field, value):
        blob = self._blob()
        magic_len = statefile.check_magic(blob, "detector")
        (length,) = statefile._LENGTH.unpack_from(blob, magic_len)
        start = magic_len + statefile._LENGTH.size
        header = json.loads(blob[start:start + length])
        entry = next(e for e in header["arrays"] if e["name"] == "_keys")
        entry[field] = value
        head = json.dumps(header).encode()
        head += b" " * (length - len(head))
        assert len(head) == length
        with pytest.raises(ValueError, match="_keys"):
            StreamingDetector.from_bytes(
                blob[:start] + head + blob[start + length:]
            )

    @pytest.mark.parametrize("cut", [3, 30, 40, 200])
    def test_truncated_header(self, cut):
        with pytest.raises(ValueError, match="header"):
            StreamingDetector.from_bytes(self._blob()[:cut])

    def test_truncated_arrays(self):
        with pytest.raises(ValueError, match="truncated"):
            StreamingDetector.from_bytes(self._blob()[:-100])

    def test_restored_detector_merges_and_finishes_bit_identically(self):
        batch = _capture(105)
        live = [_detector(), _detector()]
        owner = shard_of(batch.src, 2)
        shards = [batch.select(owner == i) for i in range(2)]
        for shard, detector in zip(shards, live):
            for _, _, chunk in shard.iter_time_chunks(3_600.0):
                detector.add_batch(chunk)
        revived = [StreamingDetector.from_bytes(d.to_bytes()) for d in live]
        for detectors in (live, revived):
            detectors[0].merge(detectors[1])
        assert revived[0].to_bytes() == live[0].to_bytes()
        events, detections = revived[0].finish()
        ref_events, ref_detections = live[0].finish()
        _assert_tables_identical(events, ref_events)
        _assert_detections_identical(detections, ref_detections)
