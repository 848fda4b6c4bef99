"""Unit tests for NetFlow export and the flow table."""

import numpy as np
import pytest

from repro.flows.netflow import FlowColumns, FlowTable, NetflowExporter


def flow_columns(rows):
    """True-count columns from ``(router, day, src, dport, proto,
    true_count)`` rows."""
    arr = np.array(rows, dtype=np.int64).reshape(-1, 6)
    return FlowColumns(
        router=arr[:, 0].astype(np.int8),
        day=arr[:, 1].astype(np.int32),
        src=arr[:, 2].astype(np.uint32),
        dport=arr[:, 3].astype(np.uint16),
        proto=arr[:, 4].astype(np.uint8),
        true=arr[:, 5],
    )


def rows_fixture():
    # (router, day, src, dport, proto, true_count)
    return [
        (0, 0, 100, 80, 6, 50_000),
        (1, 0, 100, 80, 6, 20_000),
        (0, 1, 200, 23, 6, 80_000),
        (2, 1, 300, 53, 17, 5_000),
    ]


class TestExporter:
    def test_sampling_statistics(self, rng):
        exporter = NetflowExporter(sampling_rate=1_000)
        sampled = [exporter.sample_count(100_000, rng) for _ in range(50)]
        assert abs(np.mean(sampled) - 100) < 10

    def test_rate_one_is_identity(self, rng):
        exporter = NetflowExporter(sampling_rate=1)
        assert exporter.sample_count(1_234, rng) == 1_234

    def test_zero_flows_dropped(self):
        exporter = NetflowExporter(sampling_rate=1_000)
        table = exporter.export_columns(flow_columns([(0, 0, 1, 80, 6, 3)]), 1)
        # A 3-packet flow almost surely samples to nothing.
        assert len(table) in (0, 1)

    def test_keep_zero(self):
        exporter = NetflowExporter(sampling_rate=10**9, keep_zero=True)
        table = exporter.export_columns(flow_columns([(0, 0, 1, 80, 6, 3)]), 1)
        assert len(table) == 1
        assert table.packets[0] == 0

    def test_estimated_scaling(self):
        exporter = NetflowExporter(sampling_rate=100)
        table = exporter.export_columns(flow_columns(rows_fixture()), 1)
        assert np.all(table.packets == table.sampled * 100)
        # The estimate is unbiased: totals land near the truth.
        truth = sum(r[5] for r in rows_fixture())
        assert abs(table.total_packets() - truth) < 0.2 * truth

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            NetflowExporter(sampling_rate=0)

    def test_negative_count(self, rng):
        with pytest.raises(ValueError):
            NetflowExporter().sample_count(-1, rng)

    def test_sample_total(self):
        exporter = NetflowExporter(sampling_rate=1_000)
        estimate = exporter.sample_total(10_000_000, seed=42)
        assert abs(estimate - 10_000_000) < 500_000

    def test_sample_total_order_independent(self):
        # The fix this API exists for: totals draw from their own
        # derived stream, so estimating before or after an export (or in
        # any key order) yields identical values.
        exporter = NetflowExporter(sampling_rate=1_000)
        before = [exporter.sample_total(10_000_000, seed=7, key=k) for k in range(4)]
        exporter.export_columns(flow_columns(rows_fixture()), 7)
        after = [exporter.sample_total(10_000_000, seed=7, key=k) for k in reversed(range(4))]
        assert before == list(reversed(after))
        # Distinct keys give independent draws off the same seed.
        assert len(set(before)) > 1


class TestFlowTable:
    @pytest.fixture()
    def table(self):
        return NetflowExporter(sampling_rate=1).export_columns(
            flow_columns(rows_fixture()), 0
        )

    def test_from_rows_empty(self):
        assert len(FlowTable.from_rows([])) == 0

    def test_for_router_day(self, table):
        sub = table.for_router_day(0, 0)
        assert len(sub) == 1
        assert sub.src[0] == 100

    def test_for_sources(self, table):
        sub = table.for_sources({100})
        assert len(sub) == 2
        assert len(table.for_sources(set())) == 0

    def test_total_packets(self, table):
        assert table.total_packets() == 155_000

    def test_unique_sources(self, table):
        assert table.unique_sources().tolist() == [100, 200, 300]

    def test_packets_by_port(self, table):
        by_port = table.packets_by_port()
        assert by_port[(80, 6)] == 70_000
        assert by_port[(53, 17)] == 5_000

    def test_packets_by_proto(self, table):
        by_proto = table.packets_by_proto()
        assert by_proto[6] == 150_000
        assert by_proto[17] == 5_000

    def test_select_roundtrip(self, table):
        mask = table.day == 1
        sub = table.select(mask)
        assert len(sub) == 2
        assert set(sub.src.tolist()) == {200, 300}
