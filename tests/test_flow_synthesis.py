"""Columnar flow synthesis: bit-identity properties.

The contracts this file pins, all exact (no tolerances):

* The columnar ``ISPNetwork.collect_scanner_flows`` is **bit-identical**
  to the scalar loop reference (``tests/flow_oracle.py``) — same
  derived streams, same rows, same sampled table, same true totals.
* The vectorized export binomial equals a scalar ``sample_count`` loop
  draw for draw, for ``keep_zero`` both on and off.
* ``Scanner.count_columns`` equals ``count_rows`` row for row from the
  same stream, across all scan modes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fingerprint import Tool
from repro.flows.isp import build_merit_like
from repro.flows.netflow import (
    SAMPLE_STREAM_SALT,
    FlowColumns,
    NetflowExporter,
)
from repro.core.telemetry import PipelineTelemetry
from repro.net.internet import InternetConfig, build_internet
from repro.net.prefix import PrefixSet
from repro.packet import Protocol
from repro.scanners.base import ScanMode, Scanner, ScanSession, View
from repro.sim.clock import SimClock
from tests.flow_oracle import collect_scanner_flows_loop
from tests.test_netflow import flow_columns

DAY = 86_400.0

_TABLE_COLS = ("router", "day", "src", "dport", "proto", "packets", "sampled")


def _assert_tables_identical(a, b):
    for column in _TABLE_COLS:
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
            ports=np.array([53, 123, 161]),
            proto=Protocol.UDP,
            tool=Tool.OTHER,
            mode=mode,
            rate_pps=50_000.0,
            port_weights=np.array([0.6, 0.3, 0.1]),
        )
    return ScanSession(
        start=start,
        duration=duration,
        ports=np.arange(1, 12, dtype=np.uint16),
        proto=Protocol.TCP_SYN,
        tool=Tool.ZMAP,
        mode=mode,
        n_targets=2_000_000,
    )


@pytest.fixture(scope="module")
def merit_world():
    internet = build_internet(
        InternetConfig(seed=7, core_as_count=30, tail_as_count=20)
    )
    dark = internet.allocator.allocate(20)
    merit, internet = build_merit_like(internet, dark, lit_prefix_length=18)
    merit.internet = internet
    return internet, merit


@pytest.fixture(scope="module")
def flow_population(merit_world):
    """A mode-diverse population with sources across the address plan."""
    internet, _ = merit_world
    modes = list(ScanMode)
    scanners = []
    for i, system in enumerate(internet.registry.systems[:24]):
        src = int(system.prefixes[0].base + 10 + i)
        scanners.append(
            Scanner(
                src=src,
                behavior="test",
                sessions=[
                    _session(modes[i % 3], start=i * 3_600.0, duration=1.5 * DAY),
                ],
                seed=src,
            )
        )
    return scanners


class TestColumnarEqualsLoop:
    """Golden contract: vectorized path == scalar loop, bit for bit."""

    WINDOW = (0.0, 2 * DAY)

    def test_table_and_totals_identical(self, merit_world, flow_population):
        _, merit = merit_world
        clock = SimClock()
        telemetry = PipelineTelemetry()
        table, totals = merit.collect_scanner_flows(
            flow_population, self.WINDOW, clock, np.random.default_rng(5),
            telemetry=telemetry,
        )
        loop_table, loop_totals = collect_scanner_flows_loop(
            merit, flow_population, self.WINDOW, clock, np.random.default_rng(5)
        )
        assert len(table) > 0
        _assert_tables_identical(table, loop_table)
        assert totals == loop_totals
        stage = telemetry.stages["flows"]
        assert (stage.items_in, stage.items_out) == (
            len(flow_population), len(table)
        )

    def test_keep_zero_identical(self, merit_world, flow_population):
        _, merit = merit_world
        clock = SimClock()
        exporter = NetflowExporter(sampling_rate=1_000, keep_zero=True)
        table, _ = merit.collect_scanner_flows(
            flow_population[:8], self.WINDOW, clock,
            np.random.default_rng(5), exporter,
        )
        loop_table, _ = collect_scanner_flows_loop(
            merit, flow_population[:8], self.WINDOW, clock,
            np.random.default_rng(5), exporter,
        )
        assert (table.sampled == 0).any()  # keep_zero really kept rows
        _assert_tables_identical(table, loop_table)

    def test_rng_consumed_exactly_once(self, merit_world, flow_population):
        # The legacy rng argument now only seeds the derived streams:
        # after collection it must sit exactly one draw in.
        _, merit = merit_world
        clock = SimClock()
        rng = np.random.default_rng(5)
        merit.collect_scanner_flows(
            flow_population[:4], self.WINDOW, clock, rng
        )
        reference = np.random.default_rng(5)
        reference.integers(0, 2**63)
        assert rng.integers(0, 2**32) == reference.integers(0, 2**32)


class TestVectorizedExporter:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        keep_zero=st.booleans(),
        sampling_rate=st.sampled_from([1, 10, 1_000]),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_sample_count(self, seed, keep_zero, sampling_rate):
        data_rng = np.random.default_rng(seed)
        n = int(data_rng.integers(0, 40))
        rows = [
            (
                int(data_rng.integers(0, 3)),
                int(data_rng.integers(0, 5)),
                int(data_rng.integers(0, 2**32)),
                int(data_rng.integers(0, 2**16)),
                int(data_rng.integers(0, 256)),
                int(data_rng.integers(0, 50_000)),
            )
            for _ in range(n)
        ]
        exporter = NetflowExporter(
            sampling_rate=sampling_rate, keep_zero=keep_zero
        )
        table = exporter.export_columns(flow_columns(rows), seed)

        scalar_rng = np.random.default_rng((seed, SAMPLE_STREAM_SALT))
        expected = []
        for router, day, src, dport, proto, true_count in rows:
            sampled = exporter.sample_count(true_count, scalar_rng)
            if sampled == 0 and not keep_zero:
                continue
            expected.append(
                (router, day, src, dport, proto,
                 sampled * sampling_rate, sampled)
            )
        from repro.flows.netflow import FlowTable

        _assert_tables_identical(table, FlowTable.from_rows(expected))

    def test_export_columns_deterministic_by_seed(self):
        columns = flow_columns(
            [(0, 0, 100, 80, 6, 50_000), (1, 1, 200, 23, 6, 9_000)]
        )
        exporter = NetflowExporter(sampling_rate=1_000)
        a = exporter.export_columns(columns, seed=99)
        b = exporter.export_columns(columns, seed=99)
        _assert_tables_identical(a, b)


class TestCountColumns:
    VIEW = View("flows-view", PrefixSet.parse(["10.0.0.0/20"]))

    def _rows_from_columns(self, columns):
        day, port, proto, count = columns
        return [
            (int(d), int(p), int(pr), int(c))
            for d, p, pr, c in zip(day, port, proto, count)
        ]

    @given(
        mode=st.sampled_from(list(ScanMode)),
        start=st.floats(min_value=0.0, max_value=3 * DAY, allow_nan=False),
        duration=st.floats(min_value=600.0, max_value=2 * DAY, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_count_rows(self, mode, start, duration, seed):
        scanner = Scanner(
            src=0x0A000001,
            behavior="test",
            sessions=[
                _session(mode, start, duration),
                _session(mode, start + duration + 1_000.0, duration / 2),
            ],
            seed=seed,
        )
        window = (0.0, 4 * DAY)
        loop_rows = scanner.count_rows(
            self.VIEW, window, DAY, np.random.default_rng(seed)
        )
        columns = scanner.count_columns(
            self.VIEW, window, DAY, np.random.default_rng(seed)
        )
        assert self._rows_from_columns(columns) == loop_rows

    def test_empty_window(self):
        scanner = Scanner(
            src=1, behavior="t",
            sessions=[_session(ScanMode.COVERAGE, 0.0, DAY)], seed=1,
        )
        columns = scanner.count_columns(
            self.VIEW, (10 * DAY, 11 * DAY), DAY, np.random.default_rng(0)
        )
        assert all(len(c) == 0 for c in columns)


class TestRunnerIntegration:
    def test_flow_columns_concat_empty(self):
        merged = FlowColumns.concat([FlowColumns(), FlowColumns()])
        assert len(merged) == 0

    def test_true_totals_grouping(self):
        columns = flow_columns(
            [
                (0, 0, 1, 80, 6, 10),
                (0, 0, 2, 443, 6, 5),
                (2, 3, 1, 80, 6, 7),
            ]
        )
        assert columns.true_totals() == {(0, 0): 15, (2, 3): 7}
