"""The packed-key sort kernels (repro.sortkeys) against their numpy oracles.

Each kernel must return exactly what the numpy call it replaced returns:
``np.argsort(kind="stable")``, ``np.lexsort`` and ``np.unique`` stay
here as the oracles.  The event builders built on the kernels are
checked against the lexsort builder they replaced, on unsorted input,
and the study's run path is checked to hand no capture-long array to
those numpy sorts.
"""

import hashlib
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import sortkeys
from repro.core.events import EventTable, build_events
from repro.core.faults import ChunkCorruptionError, NonFiniteTimestampError
from repro.core.streaming import StreamingEventBuilder
from repro.io.packetlog import (
    load_packets_npz,
    packets_from_npz_bytes,
    packets_to_npz_bytes,
    save_packets_npz,
)
from repro.packet import SCANNING_PROTOCOLS, PacketBatch, Protocol
from repro.sortkeys import (
    distinct,
    distinct_counts,
    distinct_inverse,
    order_by,
    order_by_flow,
    order_by_time,
)
from tests.test_report import TINY_REPORT_SHA256

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: lengths either side of the kernels' small-input cutoff.
_LENGTHS = st.sampled_from([0, 1, 2, 3, 17, 1_023, 1_024, 1_025, 4_000])


@st.composite
def uint32_keys(draw):
    """Keys drawn from a small pool (many ties) holding both extremes."""
    n = draw(_LENGTHS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.concatenate(
        [[0, 2**32 - 1], rng.integers(0, 2**32, draw(st.integers(1, 50)))]
    ).astype(np.uint32)
    return pool[rng.integers(0, len(pool), n)]


@st.composite
def timestamps(draw):
    """Timestamps with ties, negative values, all-equal and wide spans."""
    n = draw(_LENGTHS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["ties", "spread", "equal", "extreme", "sorted"]))
    if shape == "ties":
        ts = rng.integers(-20, 20, n) * 0.5
    elif shape == "spread":
        ts = rng.normal(-1_000.0, 1e6, n)
    elif shape == "equal":
        ts = np.full(n, -3.25)
    elif shape == "extreme":
        pool = np.array([-1.7e308, 1.7e308, 0.0, 5e-324, -5e-324, 1e-300, 1.0])
        ts = pool[rng.integers(0, len(pool), n)]
    else:
        ts = np.sort(rng.integers(0, 50, n).astype(np.float64))
    return ts.astype(np.float64)


def _zero_stride(dtype, n=2**32):
    """An ``n``-row array over one element: nothing that size is allocated."""
    return np.lib.stride_tricks.as_strided(
        np.zeros(1, dtype=dtype), shape=(n,), strides=(0,)
    )


class TestOrderBy:
    @_SETTINGS
    @given(key=uint32_keys())
    def test_matches_stable_argsort(self, key):
        assert np.array_equal(order_by(key), np.argsort(key, kind="stable"))

    @_SETTINGS
    @given(key=uint32_keys())
    def test_wide_integer_dtypes_in_range(self, key):
        wide = key.astype(np.int64)
        assert np.array_equal(order_by(wide), np.argsort(wide, kind="stable"))

    @pytest.mark.parametrize(
        "key", [np.array([1, -1]), np.array([2**32], dtype=np.int64),
                np.array([0.5, 1.0])],
    )
    def test_refuses_keys_outside_32_bits(self, key):
        with pytest.raises(ValueError):
            order_by(key)


class TestOrderByFlow:
    @_SETTINGS
    @given(
        src=uint32_keys(),
        seed=st.integers(0, 2**32 - 1),
        ts=timestamps(),
    )
    def test_matches_lexsort_on_time_sorted_rows(self, src, seed, ts):
        n = min(len(src), len(ts))
        src, ts = src[:n], np.sort(ts[:n])
        rng = np.random.default_rng(seed)
        dport = np.array([0, 1, 80, 65535], dtype=np.uint16)[rng.integers(0, 4, n)]
        proto = np.array([1, 6, 17, 255], dtype=np.uint8)[rng.integers(0, 4, n)]
        port_proto = (dport.astype(np.uint32) << 8) | proto
        keys = (
            (src.astype(np.uint64) << np.uint64(24))
            | (dport.astype(np.uint64) << np.uint64(8))
            | proto.astype(np.uint64)
        )
        assert np.array_equal(
            order_by_flow(src, port_proto), np.lexsort((ts, keys))
        )

    def test_refuses_port_proto_past_24_bits(self):
        with pytest.raises(ValueError):
            order_by_flow(np.zeros(1, np.uint32), np.array([2**24], np.uint32))


class TestOrderByTime:
    @_SETTINGS
    @given(ts=timestamps())
    def test_matches_stable_argsort(self, ts):
        assert np.array_equal(order_by_time(ts), np.argsort(ts, kind="stable"))

    @_SETTINGS
    @given(ts=timestamps(), seed=st.integers(0, 2**32 - 1))
    def test_shuffled_input(self, ts, seed):
        ts = np.random.default_rng(seed).permutation(ts)
        assert np.array_equal(order_by_time(ts), np.argsort(ts, kind="stable"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [4, 2_000])
    def test_refuses_non_finite(self, bad, n):
        ts = np.arange(n, dtype=np.float64)
        ts[n // 2] = bad
        with pytest.raises(ValueError, match="finite"):
            order_by_time(ts)


class TestDistinct:
    @_SETTINGS
    @given(values=uint32_keys())
    def test_distinct(self, values):
        assert np.array_equal(distinct(values), np.unique(values))
        wide = values.astype(np.int64) - 2**31
        assert np.array_equal(distinct(wide), np.unique(wide))

    @_SETTINGS
    @given(values=uint32_keys())
    def test_distinct_counts(self, values):
        got = distinct_counts(values)
        want = np.unique(values, return_counts=True)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @_SETTINGS
    @given(values=uint32_keys())
    def test_distinct_inverse(self, values):
        got = distinct_inverse(values)
        want = np.unique(values, return_inverse=True, return_counts=True)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestRowLimit:
    # Zero-stride views stand for 2**32 rows without allocating them;
    # each kernel must refuse before it reads or copies a row.
    def test_order_by(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            order_by(_zero_stride(np.uint32))

    def test_order_by_time(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            order_by_time(_zero_stride(np.float64))

    def test_order_by_flow(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            order_by_flow(_zero_stride(np.uint32), _zero_stride(np.uint32))

    def test_distinct_inverse(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            distinct_inverse(_zero_stride(np.uint32))

    def test_one_row_under_the_limit_is_accepted(self):
        assert sortkeys.MAX_ROWS == 2**32
        sortkeys._check_rows(2**32 - 1)


# ----------------------------------------------------------------------
# The event builders against the lexsort builder they replaced.
# ----------------------------------------------------------------------
def lexsort_build_events(batch: PacketBatch, timeout: float) -> EventTable:
    """The batch builder before the sort kernels: a lexsort by (flow
    key, ts), then a lexsort of (event, dst) pairs."""
    codes = np.array([p.value for p in SCANNING_PROTOCOLS], dtype=np.uint8)
    batch = batch.select(np.isin(batch.proto, codes))
    n = len(batch)
    if n == 0:
        return EventTable.empty()
    keys = (
        (batch.src.astype(np.uint64) << np.uint64(24))
        | (batch.dport.astype(np.uint64) << np.uint64(8))
        | batch.proto.astype(np.uint64)
    )
    order = np.lexsort((batch.ts, keys))
    keys, ts, dst = keys[order], batch.ts[order], batch.dst[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    starts[1:] = (keys[1:] != keys[:-1]) | ((ts[1:] - ts[:-1]) > timeout)
    event_id = np.cumsum(starts) - 1
    n_events = int(event_id[-1]) + 1
    start_idx = np.flatnonzero(starts)
    end_idx = np.concatenate([start_idx[1:], [n]]) - 1
    pair_order = np.lexsort((dst, event_id))
    eid, dst = event_id[pair_order], dst[pair_order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = (eid[1:] != eid[:-1]) | (dst[1:] != dst[:-1])
    return EventTable(
        src=batch.src[order][start_idx],
        dport=batch.dport[order][start_idx],
        proto=batch.proto[order][start_idx],
        start=ts[start_idx],
        end=ts[end_idx],
        packets=np.bincount(event_id, minlength=n_events).astype(np.int64),
        unique_dsts=np.bincount(eid[first], minlength=n_events).astype(np.int64),
    )


_COLUMNS = ("src", "dport", "proto", "start", "end", "packets", "unique_dsts")


def _assert_same(a: EventTable, b: EventTable) -> None:
    assert len(a) == len(b)
    for name in _COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


@st.composite
def captures(draw):
    """Unsorted captures: ties, negative times, extreme fields, backscatter."""
    n = draw(st.integers(0, 3_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    srcs = np.array([0, 1, 7, 2**32 - 1], dtype=np.uint32)
    protos = np.array(
        [p.value for p in Protocol] + [255], dtype=np.uint8
    )
    return PacketBatch(
        ts=rng.integers(-50, 400, n) * draw(st.sampled_from([0.5, 7.0, 60.0])),
        src=srcs[rng.integers(0, len(srcs), n)],
        dst=rng.integers(0, 2**32, n).astype(np.uint32) % draw(
            st.sampled_from([3, 1000, 2**32 - 1])
        ),
        dport=np.array([0, 80, 65535], dtype=np.uint16)[rng.integers(0, 3, n)],
        proto=protos[rng.integers(0, len(protos), n)],
        ipid=np.zeros(n, dtype=np.uint16),
    )


class TestBuildersMatchLexsort:
    @_SETTINGS
    @given(batch=captures(), timeout=st.sampled_from([1.0, 30.0, 600.0]))
    def test_build_events_unsorted(self, batch, timeout):
        _assert_same(build_events(batch, timeout), lexsort_build_events(batch, timeout))

    @_SETTINGS
    @given(
        batch=captures(),
        timeout=st.sampled_from([1.0, 30.0, 600.0]),
        chunk=st.sampled_from([25.0, 300.0, 5_000.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_add_batch_unsorted_chunks(self, batch, timeout, chunk, seed):
        # Chunks arrive in time order, each one shuffled inside.
        rng = np.random.default_rng(seed)
        builder = StreamingEventBuilder(timeout)
        for _, _, part in batch.iter_time_chunks(chunk):
            builder.add_batch(part.select(rng.permutation(len(part))))
        _assert_same(builder.finish(), lexsort_build_events(batch, timeout))

    def test_large_unsorted_capture(self):
        # Past every small-input cutoff, with heavy timestamp ties.
        rng = np.random.default_rng(23)
        n = 60_000
        batch = PacketBatch(
            ts=rng.integers(0, 5_000, n).astype(np.float64),
            src=rng.integers(0, 300, n).astype(np.uint32),
            dst=rng.integers(0, 4_000, n).astype(np.uint32),
            dport=rng.integers(0, 4, n).astype(np.uint16),
            proto=np.array([1, 6, 17, 201], np.uint8)[rng.integers(0, 4, n)],
            ipid=np.zeros(n, dtype=np.uint16),
        )
        _assert_same(build_events(batch, 90.0), lexsort_build_events(batch, 90.0))


# ----------------------------------------------------------------------
# Non-finite timestamps are refused, never turned into events.
# ----------------------------------------------------------------------
def _bad_batch() -> PacketBatch:
    n = 4
    return PacketBatch(
        ts=np.array([1.0, np.nan, 3.0, np.inf]),
        src=np.full(n, 9, np.uint32),
        dst=np.arange(n, dtype=np.uint32),
        dport=np.full(n, 80, np.uint16),
        proto=np.full(n, Protocol.TCP_SYN.value, np.uint8),
        ipid=np.zeros(n, np.uint16),
    )


class TestNonFiniteTimestamps:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_build_events_refuses(self, bad):
        batch = _bad_batch()
        batch.ts[1] = bad
        with pytest.raises(ValueError, match="finite"):
            build_events(batch, 600.0)
        with pytest.raises(ValueError, match="finite"):
            StreamingEventBuilder(600.0).add_batch(batch)

    def test_sorted_with_trailing_inf_refused(self):
        batch = _bad_batch()
        batch.ts[:] = [1.0, 2.0, 3.0, np.inf]
        with pytest.raises(ValueError, match="finite"):
            build_events(batch, 600.0)

    def test_wire_decode_refuses(self):
        blob = packets_to_npz_bytes(_bad_batch())
        with pytest.raises(NonFiniteTimestampError, match="wire-7"):
            packets_from_npz_bytes(blob, label="wire-7")
        assert issubclass(NonFiniteTimestampError, ChunkCorruptionError)

    def test_archive_load_refuses(self, tmp_path):
        path = tmp_path / "chunk.npz"
        save_packets_npz(_bad_batch(), path)
        with pytest.raises(NonFiniteTimestampError, match="chunk.npz"):
            load_packets_npz(path)

    def test_tenant_rejects_and_counts_chunk(self):
        from repro.config import DetectionConfig
        from repro.serve.tenants import TenantConfig, TenantRegistry

        config = TenantConfig(
            timeout=600.0,
            dark_size=64,
            detection=DetectionConfig(
                alpha=0.05, min_packet_threshold=2, min_port_threshold=1
            ),
            snapshot_every_chunks=None,
        )
        tenant = TenantRegistry().create("t", config)
        good = _bad_batch()
        good.ts[:] = [1.0, 2.0, 3.0, 4.0]
        report = tenant.ingest_payloads(
            [packets_to_npz_bytes(_bad_batch()), packets_to_npz_bytes(good)]
        )
        assert report.chunks == 1
        assert len(report.errors) == 1 and "non-finite" in report.errors[0]
        assert tenant.errors == [f"chunk rejected: {report.errors[0]}"]
        assert tenant.engine.packets_seen == 4


# ----------------------------------------------------------------------
# The study's run path sorts the capture only through the kernels.
# ----------------------------------------------------------------------
_KERNEL_FILE = sortkeys.__file__


class TestNoCaptureLengthNumpySorts:
    def test_batch_study_and_report(self, monkeypatch):
        from repro.core.pipeline import run_study
        from repro.core.report import render_full_report
        from repro.sim.scenario import tiny_scenario

        calls = []

        def guard(name, real):
            def wrapped(*args, **kwargs):
                caller = sys._getframe(1).f_code.co_filename
                if caller != _KERNEL_FILE:
                    arrays = args[0] if name == "lexsort" else args[:1]
                    calls.append((name, caller, [np.size(a) for a in arrays]))
                return real(*args, **kwargs)

            return wrapped

        for name in ("lexsort", "argsort", "unique"):
            monkeypatch.setattr(np, name, guard(name, getattr(np, name)))
        report = run_study(tiny_scenario())
        text = render_full_report(report)
        monkeypatch.undo()

        n = len(report.result.capture)
        assert n > 0 and text
        # Half the capture, not all of it: the old event builder sorted
        # only the scanning rows (about 70% of the capture).
        offenders = [
            (name, caller, sizes)
            for name, caller, sizes in calls
            if max(sizes, default=0) * 2 >= n
        ]
        assert calls, "the guard saw no numpy sort at all"
        assert not offenders, offenders
        assert hashlib.sha256(text.encode()).hexdigest() == TINY_REPORT_SHA256
