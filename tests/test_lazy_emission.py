"""Tests for lazy, windowed emission (`Scanner.emit` with a window,
and the population sweep `emit_chunks`).

The load-bearing invariant: windowed emission is an *exact slice* of
one deterministic realization, so concatenating window batches over any
partition reproduces the materialized path bit-identically — addresses,
ports, timestamps and fingerprints.  Everything downstream (streaming
equivalence, shard-parallel equivalence) rests on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fingerprint import Tool
from repro.net.prefix import PrefixSet
from repro.packet import PacketBatch, Protocol
from repro.scanners.background import SpoofedScan
from repro.scanners.base import (
    ScanMode,
    Scanner,
    ScanSession,
    View,
    emit_population,
)
from repro.scanners.lazy import emit_chunks
from tests.emit_oracle import session_plan

_COLUMNS = ("ts", "src", "dst", "dport", "proto", "ipid")

_SPAN = 40_000.0


def _view(name="darknet"):
    return View(name, PrefixSet.parse(["10.0.0.0/20"]))


def _assert_batches_identical(a: PacketBatch, b: PacketBatch):
    for column in _COLUMNS:
        assert np.array_equal(getattr(a, column), getattr(b, column)), column


def _session(mode: ScanMode, start: float, duration: float) -> ScanSession:
    if mode is ScanMode.COVERAGE:
        return ScanSession(
            start=start,
            duration=duration,
            ports=np.array([23, 2323]),
            proto=Protocol.TCP_SYN,
            tool=Tool.MASSCAN,
            mode=mode,
            coverage=0.7,
        )
    if mode is ScanMode.RATE:
        return ScanSession(
            start=start,
            duration=duration,
            ports=np.array([23]),
            proto=Protocol.TCP_SYN,
            tool=Tool.OTHER,
            mode=mode,
            # High enough that long sessions split into many RNG spans.
            rate_pps=3e6,
        )
    return ScanSession(
        start=start,
        duration=duration,
        ports=np.arange(1, 40, dtype=np.uint16),
        proto=Protocol.TCP_SYN,
        tool=Tool.ZMAP,
        mode=mode,
        n_targets=2_000_000,
    )


def _scanner(mode: ScanMode, start: float, duration: float) -> Scanner:
    return Scanner(
        src=0x0B000001,
        behavior="test",
        sessions=[_session(mode, start, duration)],
        seed=99,
    )


# ----------------------------------------------------------------------
# Tentpole property: for every ScanMode and ANY partition of the time
# axis, concatenating the sorted windowed emissions over the parts
# equals the full emission exactly — every column, every packet, in
# order.
# ----------------------------------------------------------------------

def _emit_window(scanner, view, t0, t1) -> PacketBatch:
    """Packets of the full emission with ``t0 <= ts < t1``, sorted."""
    return scanner.emit(view, window=(t0, t1)).sorted_by_time()


partitions = st.lists(
    st.floats(min_value=0.0, max_value=_SPAN, allow_nan=False),
    min_size=0,
    max_size=8,
)


@given(
    st.sampled_from(list(ScanMode)),
    partitions,
    st.floats(min_value=100.0, max_value=_SPAN * 0.9, allow_nan=False),
    st.floats(min_value=1_000.0, max_value=_SPAN, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_emit_window_partition_equals_full_emit(
    mode, cuts, start, duration
):
    scanner = _scanner(mode, start, duration)
    view = _view()
    full = scanner.emit(view).sorted_by_time()

    # The last edge must cover every session end (start + duration can
    # reach 1.9 * _SPAN).
    edges = sorted({0.0, _SPAN * 2.0, *cuts})
    parts = [
        _emit_window(scanner, view, lo, hi)
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    _assert_batches_identical(PacketBatch.concat(parts), full)


def test_emit_window_is_deterministic():
    scanner = _scanner(ScanMode.RATE, 0.0, _SPAN)
    view = _view()
    a = _emit_window(scanner, view, 5_000.0, 15_000.0)
    b = _emit_window(scanner, view, 5_000.0, 15_000.0)
    assert len(a) > 0
    _assert_batches_identical(a, b)


def test_windowed_emit_slices_are_exact():
    """emit(view, window) returns the full realization's packets with
    ts inside the window — not a fresh realization."""
    scanner = _scanner(ScanMode.COVERAGE, 1_000.0, 30_000.0)
    view = _view()
    full = scanner.emit(view).sorted_by_time()
    lo, hi = 8_000.0, 17_500.0
    window = scanner.emit(view, window=(lo, hi)).sorted_by_time()
    mask = (full.ts >= lo) & (full.ts < hi)
    _assert_batches_identical(window, full.select(mask))


def test_rate_sessions_split_into_bounded_spans():
    """A long, fast RATE session generates on a multi-span grid, so a
    window never materializes more than ~one span of it."""
    scanner = _scanner(ScanMode.RATE, 0.0, _SPAN)
    session = scanner.sessions[0]
    _, _, _, spans = session_plan(session, _view().ranges())
    assert len(spans) > 1
    assert spans[0][0] == session.start
    assert spans[-1][1] == session.end
    # Spans tile the session exactly.
    for (_, prev_end), (next_start, _) in zip(spans[:-1], spans[1:]):
        assert prev_end == next_start


# ----------------------------------------------------------------------
# emit_chunks: the streamed chunk sequence is bit-identical to chunking
# the materialized capture.
# ----------------------------------------------------------------------


def _population():
    scanners = [
        _scanner(ScanMode.COVERAGE, 2_000.0, 9_000.0),
        Scanner(
            src=0x0C000002,
            behavior="test-rate",
            sessions=[
                _session(ScanMode.RATE, 0.0, _SPAN),
                _session(ScanMode.COVERAGE, 30_000.0, 5_000.0),
            ],
            seed=7,
        ),
        SpoofedScan(
            start=4_000.0,
            duration=6_000.0,
            coverage=0.5,
            dport=445,
            spoof_ranges=np.array([[0x10000000, 0x20000000]], dtype=np.int64),
            seed=31,
        ),
        _scanner(ScanMode.VERTICAL, 12_000.0, 20_000.0),
    ]
    return scanners


def _chunk_capture(batch: PacketBatch, chunk_seconds: float) -> list:
    """``(index, start, end, packets)`` of every non-empty epoch-aligned
    window of a materialized capture."""
    return [
        (round(start / chunk_seconds), start, end, chunk)
        for start, end, chunk in batch.iter_time_chunks(chunk_seconds)
        if len(chunk)
    ]


@pytest.mark.parametrize("chunk_seconds", [1_800.0, 3_600.0, 7_200.0])
def test_lazy_source_matches_from_capture(chunk_seconds):
    scanners = _population()
    view = _view()
    window = (0.0, _SPAN * 1.2)
    materialized = emit_population(scanners, view, window)
    ref = _chunk_capture(materialized, chunk_seconds)
    lazy = list(emit_chunks(scanners, view, chunk_seconds, window))
    assert len(ref) == len(lazy) > 1
    for (index, start, end, packets), chunk in zip(ref, lazy):
        assert (index, start, end) == (chunk.index, chunk.start, chunk.end)
        _assert_batches_identical(packets, chunk.packets)


def test_emitter_respects_overall_window():
    scanners = _population()
    view = _view()
    window = (6_000.0, 20_000.0)
    total = PacketBatch.concat(
        [chunk.packets for chunk in emit_chunks(scanners, view, 3_600.0, window)]
    )
    assert len(total) > 0
    assert float(total.ts.min()) >= window[0]
    assert float(total.ts.max()) < window[1]
    expected = emit_population(scanners, view, window)
    _assert_batches_identical(total, expected)


def test_emitter_empty_population():
    report = {}
    assert list(emit_chunks([], _view(), 3_600.0, report=report)) == []
    assert report == {"spans_derived": 0, "spans_emitted": 0}


def test_span_counters_split_derived_from_emitted():
    # The population mixes session-backed scanners (batched derivation)
    # with a sessionless one (SpoofedScan) — both must count.
    scanners = _population()
    report = {}
    chunks = emit_chunks(
        scanners, _view(), 3_600.0, (0.0, _SPAN * 1.2), report
    )
    assert report == {}  # filled only once the sweep is drained
    total = sum(len(chunk) for chunk in chunks)
    assert total > 0
    assert report["spans_derived"] >= report["spans_emitted"] > 0
    # One derivation unit per keyed span plus one per sessionless
    # scanner: at least a span per session of each scanner.
    sessions = sum(len(getattr(s, "sessions", []) or []) for s in scanners)
    assert report["spans_derived"] >= sessions


def test_emitter_rejects_bad_chunk_seconds():
    with pytest.raises(ValueError, match="chunk_seconds"):
        list(emit_chunks(_population(), _view(), 0.0))


def test_sessionless_scanner_needs_an_extent():
    class Bare:
        def emit_ranges(self, view_ranges, view_key, window):
            raise AssertionError("never emitted")

    with pytest.raises(ValueError, match="start/duration"):
        list(emit_chunks([Bare()], _view(), 3_600.0))
