"""Tests for the incremental (streaming) event builder and detector."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DetectionConfig
from repro.core.detection import detect_all
from repro.core.events import build_events, port_counts_from_triples
from repro.core.streaming import (
    StreamingDetector,
    StreamingEventBuilder,
    chunked_events,
    detections_from_summaries,
    stream_detect,
    tables_equivalent,
)
from repro.packet import PacketBatch, Protocol
from tests.test_events import _packets

_EVENT_COLUMNS = (
    "src", "dport", "proto", "start", "end", "packets", "unique_dsts",
)


def _assert_tables_identical(a, b):
    """Array-equal comparison, column by column (not just equivalent)."""
    assert len(a) == len(b)
    for column in _EVENT_COLUMNS:
        assert np.array_equal(getattr(a, column), getattr(b, column)), column


def _assert_detections_identical(a, b):
    for definition in (1, 2, 3):
        assert a[definition].sources == b[definition].sources
        assert a[definition].threshold == b[definition].threshold
        assert a[definition].daily_new == b[definition].daily_new
        assert a[definition].daily_active == b[definition].daily_active

TCP = Protocol.TCP_SYN.value


class TestBasics:
    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            StreamingEventBuilder(0.0)

    def test_single_chunk_matches_batch(self):
        batch = _packets(
            [(0, 1, 10, 80, TCP), (5, 1, 11, 80, TCP), (700, 1, 12, 80, TCP)]
        )
        builder = StreamingEventBuilder(timeout=60.0)
        builder.add_batch(batch)
        streamed = builder.finish()
        assert tables_equivalent(streamed, build_events(batch, 60.0))

    def test_flow_survives_chunk_boundary(self):
        # Packets 10s apart split across two chunks: one event.
        first = _packets([(0, 1, 10, 80, TCP)])
        second = _packets([(10, 1, 11, 80, TCP)])
        builder = StreamingEventBuilder(timeout=60.0)
        builder.add_batch(first)
        builder.add_batch(second)
        events = builder.finish()
        assert len(events) == 1
        assert events.packets[0] == 2
        assert events.unique_dsts[0] == 2

    def test_flow_expires_across_chunks(self):
        first = _packets([(0, 1, 10, 80, TCP)])
        second = _packets([(1_000, 1, 11, 80, TCP)])
        builder = StreamingEventBuilder(timeout=60.0)
        builder.add_batch(first)
        builder.add_batch(second)
        events = builder.finish()
        assert len(events) == 2

    def test_out_of_order_chunk_rejected(self):
        builder = StreamingEventBuilder(timeout=60.0)
        builder.add_batch(_packets([(100, 1, 10, 80, TCP)]))
        with pytest.raises(ValueError):
            builder.add_batch(_packets([(50, 2, 10, 80, TCP)]))

    def test_empty_batches_ignored(self):
        builder = StreamingEventBuilder(timeout=60.0)
        builder.add_batch(PacketBatch.empty())
        assert builder.watermark is None
        assert len(builder.finish()) == 0

    def test_backscatter_filtered(self):
        builder = StreamingEventBuilder(timeout=60.0)
        builder.add_batch(
            _packets([(0, 1, 80, 80, Protocol.TCP_SYNACK.value)])
        )
        assert builder.open_flows == 0
        assert len(builder.finish()) == 0


class TestDrain:
    def test_drain_consumes_finalized(self):
        builder = StreamingEventBuilder(timeout=60.0)
        builder.add_batch(_packets([(0, 1, 10, 80, TCP)]))
        builder.add_batch(_packets([(1_000, 2, 10, 80, TCP)]))
        drained = builder.drain_finalized()
        assert len(drained) == 1
        assert drained.src[0] == 1
        # Already-drained events are gone; only the open flow remains.
        assert len(builder.drain_finalized()) == 0
        assert len(builder.finalized_events()) == 0
        final = builder.finish()
        assert len(final) == 1
        assert final.src[0] == 2

    def test_closed_counter_survives_drain(self):
        builder = StreamingEventBuilder(timeout=60.0)
        builder.add_batch(_packets([(0, 1, 10, 80, TCP)]))
        builder.add_batch(_packets([(1_000, 2, 10, 80, TCP)]))
        assert builder.closed_events == 1
        builder.drain_finalized()
        assert builder.closed_events == 1

    def test_peak_open_flows(self):
        builder = StreamingEventBuilder(timeout=60.0)
        builder.add_batch(
            _packets([(0, 1, 10, 80, TCP), (0.5, 2, 10, 23, TCP)])
        )
        builder.add_batch(_packets([(1_000, 3, 10, 80, TCP)]))
        # Two flows were live at once even though only one is now.
        assert builder.open_flows == 1
        assert builder.peak_open_flows == 2


class TestTelemetry:
    def test_open_flow_count(self):
        builder = StreamingEventBuilder(timeout=60.0)
        builder.add_batch(
            _packets([(0, 1, 10, 80, TCP), (0.5, 2, 10, 23, TCP)])
        )
        assert builder.open_flows == 2
        # A later chunk expires both.
        builder.add_batch(_packets([(1_000, 3, 10, 80, TCP)]))
        assert builder.open_flows == 1
        assert builder.closed_events == 2

    def test_watermark_advances(self):
        builder = StreamingEventBuilder(timeout=60.0)
        builder.add_batch(_packets([(5, 1, 10, 80, TCP)]))
        assert builder.watermark == 5
        builder.add_batch(_packets([(9, 1, 10, 80, TCP)]))
        assert builder.watermark == 9

    def test_early_emission(self):
        builder = StreamingEventBuilder(timeout=60.0)
        builder.add_batch(_packets([(0, 1, 10, 80, TCP)]))
        builder.add_batch(_packets([(1_000, 2, 10, 80, TCP)]))
        final = builder.finalized_events()
        assert len(final) == 1  # src 1 expired; src 2 still open
        assert final.src[0] == 1
        # finish() still returns everything.
        assert len(builder.finish()) == 2


class TestEquivalenceWithBatchBuilder:
    def test_chunked_equivalence_on_scenario(self, tiny_result):
        batch = tiny_result.capture.packets
        timeout = tiny_result.telescope.default_timeout()
        streamed = chunked_events(batch, timeout, chunk_seconds=7_200.0)
        batched = build_events(batch, timeout)
        assert tables_equivalent(streamed, batched)

    def test_chunk_size_irrelevant(self):
        rng = np.random.default_rng(4)
        n = 3_000
        batch = PacketBatch(
            ts=np.sort(rng.random(n) * 50_000.0),
            src=rng.integers(1, 40, n).astype(np.uint32),
            dst=rng.integers(0, 64, n).astype(np.uint32),
            dport=rng.choice(np.array([23, 80], dtype=np.uint16), n),
            proto=np.full(n, TCP, dtype=np.uint8),
            ipid=np.zeros(n, dtype=np.uint16),
        )
        coarse = chunked_events(batch, timeout=300.0, chunk_seconds=25_000.0)
        fine = chunked_events(batch, timeout=300.0, chunk_seconds=100.0)
        assert tables_equivalent(coarse, fine)
        assert tables_equivalent(fine, build_events(batch, 300.0))

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            chunked_events(PacketBatch.empty(), 60.0, 0.0)


# ----------------------------------------------------------------------
# Property: any chunking reproduces the batch builder exactly.
# ----------------------------------------------------------------------

packet_row = st.tuples(
    st.floats(min_value=0, max_value=5_000, allow_nan=False),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=20),
    st.sampled_from([22, 23, 80]),
)
packet_rows = st.lists(packet_row, min_size=1, max_size=120)


@given(packet_rows, st.floats(min_value=10.0, max_value=2_000.0),
       st.floats(min_value=50.0, max_value=6_000.0))
@settings(max_examples=60)
def test_streaming_equals_batch(rows, timeout, chunk_seconds):
    batch = _packets([(ts, s, d, p, TCP) for ts, s, d, p in rows])
    streamed = chunked_events(batch, timeout, chunk_seconds)
    batched = build_events(batch, timeout)
    assert tables_equivalent(streamed, batched)


# ----------------------------------------------------------------------
# Incremental detection
# ----------------------------------------------------------------------

_DARK_SIZE = 64
_DETECT_CONFIG = DetectionConfig(
    alpha=0.05, min_packet_threshold=2, min_port_threshold=1
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


class TestStreamingDetector:
    def _batch_reference(self, batch, timeout=600.0):
        events = build_events(batch, timeout)
        return events, detect_all(events, _DARK_SIZE, _DETECT_CONFIG)

    def test_matches_batch(self):
        batch = _random_capture(11)
        ref_events, ref_detections = self._batch_reference(batch)
        detector = StreamingDetector(600.0, _DARK_SIZE, _DETECT_CONFIG)
        for _, _, chunk in batch.iter_time_chunks(3_600.0):
            detector.add_batch(chunk)
        events, detections = detector.finish()
        _assert_tables_identical(events, ref_events)
        _assert_detections_identical(detections, ref_detections)

    def test_stream_detect_helper(self):
        batch = _random_capture(12)
        ref_events, ref_detections = self._batch_reference(batch)
        events, detections = stream_detect(
            (c for _, _, c in batch.iter_time_chunks(7_200.0)),
            600.0,
            _DARK_SIZE,
            _DETECT_CONFIG,
        )
        _assert_tables_identical(events, ref_events)
        _assert_detections_identical(detections, ref_detections)

    def test_bounded_state(self):
        # With a timeout much smaller than the capture span, the open
        # state is a small fraction of the event population.
        batch = _random_capture(13)
        detector = StreamingDetector(600.0, _DARK_SIZE, _DETECT_CONFIG)
        for _, _, chunk in batch.iter_time_chunks(3_600.0):
            detector.add_batch(chunk)
        events, _ = detector.finish()
        assert 0 < detector.peak_open_flows < len(events) // 4
        assert detector.open_flows == 0  # finish flushed everything

    def test_chunk_reports(self):
        batch = _random_capture(14, n=5_000)
        detector = StreamingDetector(600.0, _DARK_SIZE, _DETECT_CONFIG)
        reports = [
            detector.add_batch(chunk)
            for _, _, chunk in batch.iter_time_chunks(3_600.0)
        ]
        assert sum(r.packets for r in reports) == len(batch)
        events, _ = detector.finish()
        assert sum(r.events_finalized for r in reports) <= len(events)
        assert reports[-1].watermark == float(batch.ts.max())

    def test_snapshot(self):
        detector = StreamingDetector(600.0, _DARK_SIZE, _DETECT_CONFIG)
        snap = detector.snapshot()
        assert snap["packets"] == 0
        assert snap["volume_threshold"] is None
        detector.add_batch(_random_capture(15, n=2_000))
        detector.builder._expire_before(float("inf"))
        detector._fold(detector.builder.drain_finalized())
        snap = detector.snapshot()
        assert snap["packets"] == 2_000
        assert snap["events_finalized"] > 0
        assert snap["volume_threshold"] is not None

    def test_finish_twice_raises(self):
        detector = StreamingDetector(600.0, _DARK_SIZE)
        detector.finish()
        with pytest.raises(RuntimeError):
            detector.finish()

    def test_add_after_finish_raises(self):
        detector = StreamingDetector(600.0, _DARK_SIZE)
        detector.finish()
        with pytest.raises(RuntimeError):
            detector.add_batch(PacketBatch.empty())

    def test_empty_capture(self):
        detector = StreamingDetector(600.0, _DARK_SIZE, _DETECT_CONFIG)
        events, detections = detector.finish()
        assert len(events) == 0
        ref = detect_all(build_events(PacketBatch.empty(), 600.0),
                         _DARK_SIZE, _DETECT_CONFIG)
        _assert_detections_identical(detections, ref)


# Property: for any chunking, all three definitions produce the same
# AH sets (and thresholds) as batch detection over the whole capture.
@given(
    packet_rows,
    st.floats(min_value=10.0, max_value=2_000.0),
    st.floats(min_value=50.0, max_value=6_000.0),
)
@settings(max_examples=40)
def test_detector_chunking_invariant(rows, timeout, chunk_seconds):
    batch = _packets([(ts, s, d, p, TCP) for ts, s, d, p in rows])
    ref = detect_all(
        build_events(batch, timeout), _DARK_SIZE, _DETECT_CONFIG
    )
    detector = StreamingDetector(timeout, _DARK_SIZE, _DETECT_CONFIG)
    for _, _, chunk in batch.iter_time_chunks(chunk_seconds):
        detector.add_batch(chunk)
    _, detections = detector.finish()
    _assert_detections_identical(detections, ref)


class TestPortDayStateCompaction:
    """Bounded Definition-3 state for long-lived (serve) detectors."""

    _DAY = 86_400.0

    def _tables(self):
        # A few distinct event tables, replayed many times: the set of
        # distinct (src, day, port) triples stays tiny while the number
        # of update() calls grows without bound.
        tables = []
        for day in range(3):
            base = day * self._DAY
            rows = [
                (base + 10.0 * i, src, i % 7, port, TCP)
                for i, (src, port) in enumerate(
                    (s, p) for s in (1, 2, 3) for p in (22, 80, 443)
                )
            ]
            tables.append(build_events(_packets(rows), 60.0))
        return tables

    def _reference(self, tables):
        return port_counts_from_triples(*(
            np.concatenate(columns)
            for columns in zip(
                *(table.daily_port_triples(self._DAY) for table in tables)
            )
        ))

    def test_memory_flat_and_counts_identical(self):
        from repro.core.streaming import PortDayState

        state = PortDayState(self._DAY)
        tables = self._tables()
        for i in range(512):
            state.update(tables[i % len(tables)])
        reference = self._reference(tables)
        # Memory is the distinct triples, not the update() calls.
        assert len(state._keys) == sum(reference.values())
        assert state.counts() == reference
        assert state.counts()  # non-trivial state

    def test_merge_preserves_counts(self):
        from repro.core.streaming import PortDayState

        tables = self._tables()
        left = PortDayState(self._DAY)
        right = PortDayState(self._DAY)
        for i in range(33):
            left.update(tables[i % len(tables)])
            right.update(tables[(i + 1) % len(tables)])
        left.merge(right)
        reference = self._reference(tables)
        assert len(left._keys) == sum(reference.values())
        assert left.counts() == reference


def _assert_query_identical(got, expected):
    """A query answer: sources, thresholds and event count per
    definition (daily breakdowns come only from ``finish()``)."""
    assert got.events == expected.events
    for definition in (1, 2, 3):
        assert got.detections[definition].sources == (
            expected.detections[definition].sources
        )
        assert got.detections[definition].threshold == (
            expected.detections[definition].threshold
        )


def _summary_answer(detector):
    """What an engine over this one detector would answer now."""
    events, detections = detections_from_summaries(
        [detector.summary()], detector.dark_size, detector.config
    )
    return SimpleNamespace(events=events, detections=detections)


# Property: a detector's summary answers exactly like finishing a
# serialized copy, at every point of any chunking — before the first
# chunk (an empty detector), across flows compacted past
# _COMPACT_SEGMENTS continuations — and summarizing leaves the live
# detector's bytes unchanged.
@given(
    st.lists(packet_row, max_size=120),
    st.floats(min_value=100.0, max_value=500.0),
    st.floats(min_value=10.0, max_value=2_000.0),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_summary_answers_like_a_finished_copy(
    rows, chunk_seconds, timeout, long_flow
):
    from repro.core.streaming import _COMPACT_SEGMENTS

    packets = [(ts, s, d, p, TCP) for ts, s, d, p in rows]
    if long_flow:
        # One flow with a packet every half chunk over the whole span:
        # it continues through every chunk, well past compaction.
        timeout = max(timeout, chunk_seconds)
        step = chunk_seconds / 2
        packets += [
            (k * step, 7, k % 30, 443, TCP)
            for k in range(int(5_000 / step) + 1)
        ]
        assert 5_000 / chunk_seconds > _COMPACT_SEGMENTS
    batch = _packets(packets) if packets else PacketBatch.empty()
    detector = StreamingDetector(timeout, _DARK_SIZE, _DETECT_CONFIG)

    def check():
        before = detector.to_bytes()
        got = _summary_answer(detector)
        assert detector.to_bytes() == before
        ref_events, ref_detections = StreamingDetector.from_bytes(
            before
        ).finish()
        _assert_query_identical(
            got,
            SimpleNamespace(events=len(ref_events), detections=ref_detections),
        )

    check()
    for _, _, chunk in batch.iter_time_chunks(chunk_seconds):
        detector.add_batch(chunk)
        check()
