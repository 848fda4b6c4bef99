"""The population span plan against the scanner-by-scanner oracle.

Every emission path reads one :class:`repro.scanners.plan.SpanPlan`:
``emit_population`` (the materialized capture), ``Scanner.emit`` (a
one-scanner plan) and ``emit_chunks`` (the lazy sweep).  Each must
equal the old per-scanner loop (``tests/emit_oracle.py``) column for
column, dtypes and equal-timestamp tie order included; a capture must
plan the view and derive the span streams once, and the sweep must
generate every planned span once.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fingerprint import Tool
from repro.net.prefix import PrefixSet, intersect_ranges, ranges_size
from repro.packet import COLUMNS, PacketBatch, Protocol
from repro.scanners import streams
from repro.scanners.background import SpoofedScan
from repro.scanners.base import (
    RATE_SPAN_TARGET_PACKETS,
    ScanMode,
    Scanner,
    ScanSession,
    View,
    _offsets_to_addrs,
    emit_population,
    full_ipv4_ranges,
    span_grid,
)
from repro.scanners.lazy import emit_chunks
from repro.scanners.plan import SpanPlan
from repro.sim.runner import _build_world_base
from repro.sim.scenario import tiny_scenario
from tests.emit_oracle import (
    offsets_to_addrs,
    oracle_emit,
    oracle_emit_population,
)

_BASE = 0x0A000000  # 10.0.0.0

VIEWS = {
    "one range": View("darknet", PrefixSet.parse(["10.0.0.0/22"])),
    "three ranges": View(
        "darknet",
        PrefixSet.parse(["10.0.0.0/23", "10.0.4.0/24", "10.0.16.0/24"]),
    ),
}

TARGETS = {
    "all of IPv4": None,
    "one range": np.array([[_BASE - 2**16, _BASE + 768]], dtype=np.int64),
    "two ranges": np.array(
        [[_BASE + 256, _BASE + 384], [_BASE + 1_024, _BASE + 2**16]],
        dtype=np.int64,
    ),
    "outside the view": np.array(
        [[0x0B000000, 0x0B100000]], dtype=np.int64
    ),
}

HORIZON = 60_000.0


def _assert_same(got: PacketBatch, want: PacketBatch) -> None:
    for column in COLUMNS:
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype, column
        assert np.array_equal(a, b), column


def _spaces(view: View, targets) -> tuple:
    space = full_ipv4_ranges() if targets is None else targets
    return ranges_size(intersect_ranges(space, view.ranges())), ranges_size(space)


@st.composite
def sessions(draw, view: View, rate_spans=None):
    """One session of any mode; ``rate_spans`` forces a RATE session
    expecting that many spans' worth of in-view packets."""
    mode = ScanMode.RATE if rate_spans else draw(st.sampled_from(list(ScanMode)))
    targets = draw(st.sampled_from(sorted(TARGETS)))
    if rate_spans:
        targets = draw(st.sampled_from(["all of IPv4", "one range", "two ranges"]))
    targets = TARGETS[targets]
    start = draw(st.floats(0.0, HORIZON / 2))
    duration = draw(st.floats(500.0, HORIZON / 2))
    proto = draw(st.sampled_from(list(Protocol)[:3]))
    n_ports = draw(st.integers(1, 4))
    ports = np.array(
        draw(st.lists(st.integers(1, 65_535), min_size=n_ports,
                      max_size=n_ports, unique=True)),
        dtype=np.uint16,
    )
    fields = dict(
        start=start, duration=duration, ports=ports, proto=proto,
        tool=draw(st.sampled_from(list(Tool))), mode=mode,
        target_ranges=targets,
        probes_per_target=draw(st.integers(1, 2)),
    )
    if mode is ScanMode.COVERAGE:
        fields["coverage"] = draw(st.floats(0.05, 1.0))
    elif mode is ScanMode.RATE:
        hit_space, target_space = _spaces(view, targets)
        expected = (
            rate_spans * RATE_SPAN_TARGET_PACKETS
            if rate_spans
            else draw(st.floats(10.0, 1.5 * RATE_SPAN_TARGET_PACKETS))
        )
        fields["rate_pps"] = (
            expected * target_space / (max(hit_space, 1) * duration)
        )
        if n_ports > 1 and draw(st.booleans()):
            fields["port_weights"] = np.arange(1, n_ports + 1, dtype=np.float64)
    else:
        fields["n_targets"] = draw(st.integers(1, 20_000_000))
    return ScanSession(**fields)


@st.composite
def populations(draw):
    """``(view, scanners)``: a few multi-session scanners, one RATE
    session long enough for three or more spans, and a spoofed scan in
    the middle of the population."""
    view = VIEWS[draw(st.sampled_from(sorted(VIEWS)))]
    seeds = st.integers(0, 2**40)
    scanners = [
        Scanner(
            src=0x0B000001,
            behavior="long-rate",
            sessions=[draw(sessions(view, draw(st.floats(2.1, 3.9))))],
            seed=draw(seeds),
        )
    ]
    for i in range(draw(st.integers(1, 4))):
        scanners.append(Scanner(
            src=0x0C000001 + i,
            behavior="drawn",
            sessions=draw(st.lists(sessions(view), min_size=1, max_size=3)),
            seed=draw(seeds),
        ))
    spoofed = SpoofedScan(
        start=draw(st.floats(0.0, HORIZON / 2)),
        duration=draw(st.floats(600.0, HORIZON / 4)),
        coverage=draw(st.floats(0.05, 0.9)),
        dport=445,
        spoof_ranges=np.array([[0x10000000, 0x20000000]], dtype=np.int64),
        seed=draw(seeds),
    )
    scanners.insert(len(scanners) // 2 + 1, spoofed)
    return view, scanners


windows = st.one_of(
    st.none(),
    st.tuples(
        st.floats(0.0, HORIZON / 2), st.floats(1_000.0, HORIZON)
    ).map(lambda w: (w[0], w[0] + w[1])),
)


@given(populations(), windows, st.floats(300.0, 20_000.0))
@settings(max_examples=50, deadline=None)
def test_every_path_equals_the_per_scanner_oracle(population, window, chunk):
    view, scanners = population
    long_rate = scanners[0].sessions[0]
    hit_space, target_space = _spaces(view, long_rate.target_ranges)
    assert len(span_grid(long_rate, hit_space, target_space)) >= 3

    want = oracle_emit_population(scanners, view, window)
    _assert_same(emit_population(scanners, view, window), want)

    for scanner in scanners:
        _assert_same(
            scanner.emit(view, window), oracle_emit(scanner, view, window)
        )

    report = {}
    chunks = list(emit_chunks(scanners, view, chunk, window, report))
    for c in chunks:
        assert len(c) > 0
        assert c.index == round(c.start / chunk)
        assert c.start <= float(c.packets.ts.min())
        assert float(c.packets.ts.max()) < c.end
    _assert_same(PacketBatch.concat([c.packets for c in chunks]), want)
    assert report["spans_derived"] >= report["spans_emitted"]


@given(
    st.sampled_from(sorted(VIEWS)),
    st.sampled_from(sorted(TARGETS)),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50),
)
def test_offsets_to_addrs_matches_the_range_search(view, targets, fractions):
    space = TARGETS[targets]
    space = full_ipv4_ranges() if space is None else space
    inter = intersect_ranges(space, VIEWS[view].ranges())
    size = ranges_size(inter)
    offsets = (np.array(fractions, dtype=np.float64) * size).astype(np.int64)
    if size == 0:
        offsets = offsets[:0]
    got = _offsets_to_addrs(inter, offsets)
    want = offsets_to_addrs(inter, offsets)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_tiny_capture_plans_the_view_and_streams_once(monkeypatch):
    """One ``View.ranges()`` and one span-stream derivation per capture,
    not one per scanner."""
    scenario = tiny_scenario()
    _, telescope, population, *_ = _build_world_base(scenario)
    calls = {"derive_span_words": 0, "View.ranges": 0}
    derive, ranges = streams.derive_span_words, View.ranges

    def counted_derive(keys):
        calls["derive_span_words"] += 1
        return derive(keys)

    def counted_ranges(view):
        calls["View.ranges"] += 1
        return ranges(view)

    monkeypatch.setattr(streams, "derive_span_words", counted_derive)
    monkeypatch.setattr(View, "ranges", counted_ranges)
    capture = telescope.capture(population.scanners, scenario.window())
    monkeypatch.undo()
    assert len(capture) > 0
    assert calls == {"derive_span_words": 1, "View.ranges": 1}


def test_tiny_sweep_generates_every_span_once(monkeypatch):
    """The lazy sweep derives the span streams in one pass and
    generates each planned span exactly once, however many windows it
    spans."""
    scenario = tiny_scenario()
    _, telescope, population, *_ = _build_world_base(scenario)
    view, window = telescope.view(), scenario.window()
    planned = SpanPlan(population.scanners, view, window).n_spans
    generated = {}
    calls = {"derive_span_words": 0}
    derive, generate = streams.derive_span_words, SpanPlan.generate

    def counted_derive(keys):
        calls["derive_span_words"] += 1
        return derive(keys)

    def counted_generate(plan, span):
        generated[span.row] = generated.get(span.row, 0) + 1
        return generate(plan, span)

    monkeypatch.setattr(streams, "derive_span_words", counted_derive)
    monkeypatch.setattr(SpanPlan, "generate", counted_generate)
    packets = sum(
        len(chunk)
        for chunk in emit_chunks(population.scanners, view, 3_600.0, window)
    )
    monkeypatch.undo()
    assert packets > 0
    assert calls == {"derive_span_words": 1}
    assert sorted(generated) == list(range(planned))
    assert set(generated.values()) == {1}
