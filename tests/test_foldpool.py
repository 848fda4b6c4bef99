"""Tests for the serve fold pool (repro.serve.foldpool).

Covers pooled-vs-local result identity (the acceptance bar for the
off-loop fold path), micro-batch coalescing through
``ingest_payloads``, snapshot/restore round-trips while pooled, and
the worker-death failure mode (state-desync detection + heal from
snapshot).
"""

import itertools
import os
import signal
import tempfile
import threading
from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_module
from repro.config import DetectionConfig
from repro.core.detection import detect_all
from repro.core.engine import DetectionEngine, ShardSpec, gate_time_order
from repro.core.events import build_events
from repro.core.faults import CheckpointStore
from repro.core.streaming import StreamingDetector
from repro.io.packetlog import packets_to_npz_bytes
from repro.packet import PacketBatch, Protocol, shard_of
from repro.serve.foldpool import FoldPool, FoldPoolError
from repro.serve.tenants import Tenant, TenantConfig
from tests.test_engine import ingest_chunk
from tests.test_parallel import _random_capture, _reference
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
_TIMEOUT = 600.0


def _capture(seed, n=5_000, duration=120_000.0):
    rng = np.random.default_rng(seed)
    return PacketBatch(
        ts=np.sort(rng.random(n) * duration),
        src=rng.integers(1, 100, n).astype(np.uint32),
        dst=rng.integers(0, _DARK_SIZE, n).astype(np.uint32),
        dport=rng.choice(np.array([22, 80, 443], dtype=np.uint16), n),
        proto=np.full(n, TCP, dtype=np.uint8),
        ipid=np.zeros(n, dtype=np.uint16),
    )


def _engine(**kwargs):
    return DetectionEngine(
        _TIMEOUT, _DARK_SIZE, _CONFIG, 86_400.0, **kwargs
    )


def _chunks(batch, n_chunks):
    edges = np.linspace(0, len(batch), n_chunks + 1).astype(int)
    return [
        batch.select(slice(int(a), int(b)))
        for a, b in zip(edges[:-1], edges[1:])
        if b > a
    ]


def _blobs(batch, n_chunks):
    return [packets_to_npz_bytes(c) for c in _chunks(batch, n_chunks)]


@pytest.fixture(scope="module")
def pool():
    with FoldPool(2) as p:
        yield p


class TestGate:
    def test_passes_ordered_drops_stale(self):
        batch = _capture(1)
        chunks = _chunks(batch, 4)
        errors = []
        kept = gate_time_order(chunks, None, errors)
        assert kept == chunks and not errors
        # Replaying an early chunk after a later one is rejected.
        errors = []
        kept = gate_time_order(
            [chunks[2], chunks[0], chunks[3]], None, errors
        )
        assert kept == [chunks[2], chunks[3]]
        assert len(errors) == 1 and "out of order" in errors[0]

    def test_respects_prior_watermark_and_skips_empty(self):
        batch = _capture(2)
        empty = batch.select(slice(0, 0))
        errors = []
        kept = gate_time_order(
            [empty, batch], float(batch.ts.max()) + 1.0, errors
        )
        assert kept == [] and len(errors) == 1


class TestPooledParity:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("coalesce", [1, 3, 7])
    def test_pooled_coalesced_matches_serial_local(
        self, pool, workers, coalesce
    ):
        batch = _capture(7)
        blobs = _blobs(batch, 12)

        serial = _engine(workers=workers)
        for blob in blobs:
            serial.ingest_payloads([blob])
        expected = serial.query()

        pooled = _engine(workers=workers)
        pooled.attach_pool(pool, f"t-{workers}-{coalesce}")
        for start in range(0, len(blobs), coalesce):
            pooled.ingest_payloads(blobs[start:start + coalesce])
        got = pooled.query()

        assert got.packets == expected.packets == len(batch)
        assert got.events == expected.events
        assert got.chunks == expected.chunks == len(blobs)
        for definition in (1, 2, 3):
            assert got.ah_sources(definition) == expected.ah_sources(
                definition
            )
        pooled.detach_pool()

    def test_attach_with_existing_state_then_finish(self, pool):
        batch = _capture(8)
        chunks = _chunks(batch, 6)

        reference = _engine(workers=2)
        for chunk in chunks:
            ingest_chunk(reference, chunk)
        expected_events, expected_det = reference.finish()

        hybrid = _engine(workers=2)
        for chunk in chunks[:3]:
            ingest_chunk(hybrid, chunk)
        hybrid.attach_pool(pool, "hybrid")
        assert hybrid.pooled
        for chunk in chunks[3:]:
            ingest_chunk(hybrid, chunk)
        # finish() detaches and merges — identical to the local run.
        events, detections = hybrid.finish()
        assert not hybrid.pooled
        assert len(events) == len(expected_events)
        for definition in (1, 2, 3):
            assert (
                detections[definition].sources
                == expected_det[definition].sources
            )

    def test_snapshot_restore_while_pooled(self, pool, tmp_path):
        batch = _capture(9)
        blobs = _blobs(batch, 8)
        store = CheckpointStore(tmp_path / "snap")
        engine = _engine(workers=2, store=store)
        engine.attach_pool(pool, "snap")
        engine.ingest_payloads(blobs[:4])
        engine.save_snapshot()  # the workers write the shard files
        engine.detach_pool()

        resumed = DetectionEngine.from_store(store)
        resumed.attach_pool(pool, "snap-resume")
        resumed.ingest_payloads(blobs[4:])
        got = resumed.query()
        resumed.detach_pool()

        serial = _engine(workers=2)
        for blob in blobs:
            serial.ingest_payloads([blob])
        expected = serial.query()
        assert got.packets == expected.packets
        for definition in (1, 2, 3):
            assert got.ah_sources(definition) == expected.ah_sources(
                definition
            )

    def test_bad_blob_isolated_in_coalesced_fold(self, pool):
        batch = _capture(10)
        blobs = _blobs(batch, 4)
        engine = _engine()
        engine.attach_pool(pool, "badblob")
        report = engine.ingest_payloads(
            blobs[:2] + [b"garbage, not an npz"] + blobs[2:]
        )
        assert report.chunks == len(blobs)
        assert len(report.errors) == 1
        assert report.packets == len(batch)
        engine.detach_pool()

    def test_abandon_pool_clears_worker_state(self, pool):
        engine = _engine()
        engine.attach_pool(pool, "gone")
        engine.ingest_payloads(_blobs(_capture(11), 2))
        assert engine.packets_seen > 0
        engine.abandon_pool()
        assert not engine.pooled
        assert pool.collect([(("gone", 0), 0), (("gone", 1), 0)]) == [
            None,
            None,
        ]


class TestHostParity:
    """Inline and pooled engines accept and reject the same chunks."""

    @staticmethod
    def _sources():
        # Two sources that hash to different shards of two.
        a = 1
        b = next(
            s for s in range(2, 100)
            if shard_of(np.array([s], dtype=np.uint32), 2)[0]
            != shard_of(np.array([a], dtype=np.uint32), 2)[0]
        )
        return a, b

    @staticmethod
    def _batch(rows):
        n = len(rows)
        return PacketBatch(
            ts=np.array([ts for ts, _ in rows], dtype=np.float64),
            src=np.array([src for _, src in rows], dtype=np.uint32),
            dst=np.arange(n, dtype=np.uint32) % _DARK_SIZE,
            dport=np.full(n, 22, dtype=np.uint16),
            proto=np.full(n, TCP, dtype=np.uint8),
            ipid=np.zeros(n, dtype=np.uint16),
        )

    @pytest.mark.parametrize(
        "pooled", [False, True], ids=["inline", "foldpool"]
    )
    def test_three_chunk_sequence(self, pooled):
        a, b = self._sources()
        chunks = [
            self._batch([(100.0, a), (200.0, a), (300.0, b)]),
            # Starts before the engine watermark (300): rejected whole,
            # though shard a alone has only reached 200.
            self._batch([(250.0, a), (350.0, b)]),
            # Starts at the engine watermark: accepted on every shard.
            self._batch([(400.0, a), (320.0, b)]),
        ]
        with FoldPool(1) if pooled else nullcontext() as pool:
            engine = _engine(workers=2)
            if pool is not None:
                engine.attach_pool(pool, "parity")
            accepted = []
            for chunk in chunks:
                before = engine.status()
                report = ingest_chunk(engine, chunk)
                accepted.append(report.chunks == 1)
                if report.errors:
                    assert engine.status() == before
            got = engine.query()
            engine.detach_pool()
        assert accepted == [True, False, True]
        kept = PacketBatch.concat([chunks[0], chunks[2]])
        assert engine.packets_seen == got.packets == len(kept) == 5
        assert engine.chunks_ingested == got.chunks == 2
        oracle = detect_all(build_events(kept, _TIMEOUT), _DARK_SIZE, _CONFIG)
        for definition in (1, 2, 3):
            assert got.ah_sources(definition) == oracle[definition].sources


class TestRejectedChunks:
    """Every shard host decodes the same payload and gates it against
    the engine's watermark, so a refused chunk folds nowhere and is
    reported once, whatever the shard count or host."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "pooled", [False, True], ids=["inline", "foldpool"]
    )
    def test_each_refused_chunk_reported_once(self, pool, pooled, workers):
        batch = _capture(21)
        chunks = _chunks(batch, 6)
        blobs = [packets_to_npz_bytes(c) for c in chunks]
        empty = packets_to_npz_bytes(batch.select(slice(0, 0)))
        engine = _engine(workers=workers)
        if pooled:
            engine.attach_pool(pool, f"refused-{workers}")
        engine.ingest_payloads(blobs[:2])
        coalesced = [blobs[2], b"not an npz", blobs[0], empty, blobs[3]]
        report = engine.ingest_payloads(coalesced)
        assert len(report.errors) == 2
        assert sum("out of order" in e for e in report.errors) == 1
        assert report.chunks == len(coalesced) - 2
        assert report.packets == len(chunks[2]) + len(chunks[3])
        engine.ingest_payloads(blobs[4:])
        assert engine.chunks_ingested == 2 + 3 + 2
        ref_events, ref_detections = _reference(batch, _TIMEOUT)
        _assert_query_identical(
            engine.query(),
            SimpleNamespace(events=len(ref_events), detections=ref_detections),
        )
        events, detections = engine.finish()
        _assert_tables_identical(events, ref_events.sorted_canonical())
        _assert_detections_identical(detections, ref_detections)

    @pytest.mark.parametrize(
        "pooled", [False, True], ids=["inline", "foldpool"]
    )
    def test_gate_is_the_engines_watermark(self, pool, pooled):
        # Source a's shard lags at 100 while the engine is at 300.  A
        # chunk of source a alone starting at 200 is behind the engine,
        # so it is refused, though a's shard on its own would take it.
        a, b = TestHostParity._sources()
        engine = _engine(workers=2)
        if pooled:
            engine.attach_pool(pool, "lagging")
        ingest_chunk(engine, TestHostParity._batch([(100.0, a), (300.0, b)]))
        before = engine.status()
        report = ingest_chunk(
            engine, TestHostParity._batch([(200.0, a), (250.0, a)])
        )
        assert report.chunks == 0 and report.packets == 0
        assert len(report.errors) == 1 and "out of order" in report.errors[0]
        assert engine.status() == before
        engine.abandon_pool()

    def test_fold_errors_stay_per_shard(self, monkeypatch):
        def refuse(detector, batch):
            raise ValueError("refused by the detector")

        monkeypatch.setattr(StreamingDetector, "add_batch", refuse)
        engine = _engine(workers=3)
        batch = _capture(22, n=500)
        assert len(np.unique(shard_of(batch.src, 3))) == 3
        report = ingest_chunk(engine, batch)
        assert report.errors == ("refused by the detector",) * 3
        assert report.packets == engine.packets_seen == 0

    def test_inline_shards_decode_each_blob_once(self, monkeypatch):
        calls = []
        decode = engine_module.packets_from_npz_bytes

        def counting(blob, **kwargs):
            calls.append(blob)
            return decode(blob, **kwargs)

        monkeypatch.setattr(engine_module, "packets_from_npz_bytes", counting)
        blobs = _blobs(_capture(23), 5)
        engine = _engine(workers=3)
        report = engine.ingest_payloads(blobs)
        assert report.chunks == len(blobs) and not report.errors
        assert calls == blobs


_IDENTITY = _random_capture(41, n=6_000)
_IDENTITY_EVENTS, _IDENTITY_DETECTIONS = _reference(_IDENTITY)


def _identity_chunks(chunk_seconds=3_600.0):
    return [c for _, _, c in _IDENTITY.iter_time_chunks(chunk_seconds)]


class TestPooledDetectionIdentity:
    """Hosts decoding the wire never change results: any engine shard
    count and chunk schedule, a snapshot resume or a fold worker's
    death, folded through the pool, equal the serial reference."""

    @settings(deadline=None, max_examples=16)
    @given(
        workers=st.integers(1, 8),
        chunk_seconds=st.sampled_from([900.0, 3_600.0, 50_000.0]),
    )
    def test_pooled_equals_serial_any_workers_any_schedule(
        self, pool, workers, chunk_seconds
    ):
        engine = _engine(workers=workers)
        engine.attach_pool(pool, f"any-{workers}-{chunk_seconds}")
        for chunk in _identity_chunks(chunk_seconds):
            ingest_chunk(engine, chunk)
        events, detections = engine.finish()
        _assert_tables_identical(events, _IDENTITY_EVENTS)
        _assert_detections_identical(detections, _IDENTITY_DETECTIONS)

    @settings(deadline=None, max_examples=8)
    @given(workers=st.integers(2, 8), cut=st.integers(1, 100))
    def test_pooled_interrupt_then_resume_identical(self, pool, workers, cut):
        """Snapshot mid-stream, lose the unsnapshotted progress with
        the pooled state, restore and finish: the result matches
        serial."""
        chunks = _identity_chunks()
        cut %= len(chunks)
        with tempfile.TemporaryDirectory() as run_dir:
            store = CheckpointStore(run_dir)
            engine = _engine(workers=workers, store=store)
            engine.attach_pool(pool, f"cut-{workers}-{cut}")
            for chunk in chunks[:cut]:
                ingest_chunk(engine, chunk)
            engine.save_snapshot()
            ingest_chunk(engine, chunks[cut])  # progress the snapshot misses
            engine.abandon_pool()
            restored = DetectionEngine.from_store(store)
            restored.attach_pool(pool, f"cut-{workers}-{cut}-restored")
            for chunk in chunks[cut:]:
                ingest_chunk(restored, chunk)
            events, detections = restored.finish()
        _assert_tables_identical(events, _IDENTITY_EVENTS)
        _assert_detections_identical(detections, _IDENTITY_DETECTIONS)

    def test_restore_after_worker_abort_identical(self, tmp_path):
        """A hard fold-worker death fails the fold; restoring the last
        snapshot then finishes bit-identically."""
        chunks = _identity_chunks()
        store = CheckpointStore(tmp_path / "ckpt")
        with FoldPool(1) as pool:
            engine = _engine(workers=2, store=store)
            engine.attach_pool(pool, "abort")
            for chunk in chunks[:10]:
                ingest_chunk(engine, chunk)
            engine.save_snapshot()
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            with pytest.raises(FoldPoolError):
                ingest_chunk(engine, chunks[10])
            restored = DetectionEngine.from_store(store)
            restored.attach_pool(pool, "abort-restored")
            for chunk in chunks[10:]:
                ingest_chunk(restored, chunk)
            events, detections = restored.finish()
        _assert_tables_identical(events, _IDENTITY_EVENTS)
        _assert_detections_identical(detections, _IDENTITY_DETECTIONS)


class TestQueryViews:
    @pytest.mark.parametrize("every", [1, 3])
    def test_queries_match_prefix_oracle_and_leave_finish_alone(
        self, pool, every
    ):
        batch = _capture(15)
        chunks = _chunks(batch, 9)
        queried = _engine(workers=3)
        queried.attach_pool(pool, f"views-{every}")
        untouched = _engine(workers=3)
        untouched.attach_pool(pool, f"views-{every}-untouched")
        for n, chunk in enumerate(chunks, start=1):
            ingest_chunk(queried, chunk)
            ingest_chunk(untouched, chunk)
            if n % every:
                continue
            prefix = PacketBatch.concat(chunks[:n])
            oracle_events = build_events(prefix, _TIMEOUT)
            oracle = detect_all(oracle_events, _DARK_SIZE, _CONFIG)
            got = queried.query()
            assert got.packets == len(prefix)
            assert got.events == len(oracle_events)
            for definition in (1, 2, 3):
                assert got.detections[definition].sources == (
                    oracle[definition].sources
                )
                assert got.detections[definition].threshold == (
                    oracle[definition].threshold
                )
        events, detections = queried.finish()
        ref_events, ref_detections = untouched.finish()
        for column in ("src", "dport", "proto", "start", "end",
                       "packets", "unique_dsts"):
            assert np.array_equal(
                getattr(events, column), getattr(ref_events, column)
            )
        for definition in (1, 2, 3):
            assert detections[definition].sources == (
                ref_detections[definition].sources
            )
            assert detections[definition].threshold == (
                ref_detections[definition].threshold
            )

    def test_unknown_key_views_as_an_empty_shard(self, pool):
        assert pool.summary([(("nobody", 0), 0)]) == [None]
        engine = _engine(workers=2)
        engine.attach_pool(pool, "never-fed")
        got = engine.query()
        expected = _engine(workers=2).query()
        assert got.packets == got.events == 0
        for definition in (1, 2, 3):
            assert got.detections[definition].sources == set()
            assert got.detections[definition].threshold == (
                expected.detections[definition].threshold
            )
        engine.detach_pool()


_SUMMARY_KEYS = itertools.count()

_summary_row = st.tuples(
    st.floats(min_value=0, max_value=5_000, allow_nan=False),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=_DARK_SIZE - 1),
    st.sampled_from([22, 23, 80]),
)


class TestSummaryQuery:
    """At every chunk of any chunking, for any shard count, inline or
    pooled, a query equals the offline oracle over the prefix in sources,
    thresholds and event count, and leaves every shard's bytes alone."""

    @given(
        rows=st.lists(_summary_row, min_size=1, max_size=150),
        chunk_seconds=st.floats(min_value=100.0, max_value=2_000.0),
        timeout=st.floats(min_value=50.0, max_value=1_500.0),
        workers=st.integers(min_value=1, max_value=3),
        pooled=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_prefix_oracle(
        self, pool, rows, chunk_seconds, timeout, workers, pooled
    ):
        n = len(rows)
        batch = PacketBatch(
            ts=np.array([r[0] for r in rows], dtype=np.float64),
            src=np.array([r[1] for r in rows], dtype=np.uint32),
            dst=np.array([r[2] for r in rows], dtype=np.uint32),
            dport=np.array([r[3] for r in rows], dtype=np.uint16),
            proto=np.full(n, TCP, dtype=np.uint8),
            ipid=np.zeros(n, dtype=np.uint16),
        )
        engine = DetectionEngine(
            timeout, _DARK_SIZE, _CONFIG, 86_400.0, workers=workers
        )
        if pooled:
            engine.attach_pool(pool, f"summary-{next(_SUMMARY_KEYS)}")
        seen = []
        try:
            for _, _, chunk in batch.iter_time_chunks(chunk_seconds):
                ingest_chunk(engine, chunk)
                seen.append(chunk)
                before = engine._host.collect(engine._shard_reads())
                got = engine.query()
                assert engine._host.collect(engine._shard_reads()) == before
                events = build_events(PacketBatch.concat(seen), timeout)
                _assert_query_identical(
                    got,
                    SimpleNamespace(
                        events=len(events),
                        detections=detect_all(events, _DARK_SIZE, _CONFIG),
                    ),
                )
        finally:
            engine.abandon_pool()


class _FakeConn:
    """A worker pipe end that answers each message in FIFO order."""

    def __init__(self, index, log):
        self.index = index
        self.log = log
        self.sent = []
        self.pending = []

    def send(self, message):
        self.log.append(("send", self.index))
        self.sent.append(message)
        self.pending.append(message)

    def recv(self):
        self.log.append(("recv", self.index))
        message = self.pending.pop(0)
        if message[0] == "fold_many":
            # One reply per request, as the worker's host answers.
            return ("ok", [(self.index, request[0]) for request in message[1]])
        return ("ok", (self.index, message))


class TestFanOut:
    """Dispatch order, checked on fake pipes (no worker processes)."""

    @staticmethod
    def _pool(processes=2):
        pool = FoldPool.__new__(FoldPool)
        pool.processes = processes
        pool._closed = False
        log = []
        pool._workers = [
            SimpleNamespace(
                index=i, lock=threading.Lock(), conn=_FakeConn(i, log)
            )
            for i in range(processes)
        ]
        return pool, log

    @staticmethod
    def _assert_sends_first(log, n):
        kinds = [kind for kind, _ in log]
        assert kinds == ["send"] * n + ["recv"] * n
        assert len({index for _, index in log}) == 2  # both workers

    def test_fold_many_sends_everything_before_reading(self):
        """One ``fold_many`` message per worker, holding that worker's
        requests in order, so a payload its shards share is pickled
        once; the replies come back in request order."""
        pool, log = self._pool()
        spec = ShardSpec(_TIMEOUT, _DARK_SIZE, _CONFIG, 86_400.0)
        payload = ([b"npz"], 6, None)
        requests = [(("t", i), spec, i, payload) for i in range(6)]
        replies = pool.fold_many(requests)
        self._assert_sends_first(log, 2)
        owners = [pool.worker_index(key) for key, _, _, _ in requests]
        for worker in pool._workers:
            assert worker.conn.sent == [
                (
                    "fold_many",
                    [
                        request
                        for request, owner in zip(requests, owners)
                        if owner == worker.index
                    ],
                )
            ]
        assert replies == [
            (owner, key) for owner, (key, _, _, _) in zip(owners, requests)
        ]

    def test_summary_sends_everything_before_reading(self):
        pool, log = self._pool()
        requests = [(("t", i), 10 * i) for i in range(6)]
        replies = pool.summary(requests)
        self._assert_sends_first(log, len(requests))
        # A fake reply echoes (worker, message); summary keeps item 0.
        assert replies == [pool.worker_index(key) for key, _ in requests]
        sent = [
            message
            for worker in pool._workers
            for message in worker.conn.sent
        ]
        # Each request carries the shard's expected packet count.
        assert sorted(sent) == sorted(
            ("summary", [request]) for request in requests
        )

    def test_collect_sends_everything_before_reading(self):
        """Snapshots and detach fetch every shard's state in one
        fan-out: small requests out, then the large replies in."""
        pool, log = self._pool()
        requests = [(("t", i), 10 * i) for i in range(6)]
        replies = pool.collect(requests)
        self._assert_sends_first(log, len(requests))
        # A fake reply echoes (worker, message); collect keeps item 0.
        assert replies == [pool.worker_index(key) for key, _ in requests]
        sent = [
            message
            for worker in pool._workers
            for message in worker.conn.sent
        ]
        assert sorted(sent) == sorted(
            ("collect", [request]) for request in requests
        )


class TestWorkerDeath:
    def test_dead_worker_raises_and_tenant_heals(self, tmp_path):
        config = TenantConfig(
            timeout=_TIMEOUT,
            dark_size=_DARK_SIZE,
            detection=_CONFIG,
            snapshot_every_chunks=None,
        )
        batch = _capture(12)
        blobs = _blobs(batch, 6)
        with FoldPool(1) as pool:
            from repro.core.telemetry import PipelineTelemetry

            telemetry = PipelineTelemetry()
            store = CheckpointStore(
                tmp_path / "ckpt", health=telemetry.health
            )
            engine = _engine(store=store)
            tenant = Tenant(
                tenant_id="t",
                config=config,
                engine=engine,
                telemetry=telemetry,
                store=store,
            )
            tenant.attach_pool(pool)
            tenant.ingest_payloads(blobs[:3])
            tenant.save_snapshot()
            tenant.ingest_payloads([blobs[3]])  # unsnapshotted progress

            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            with pytest.raises(FoldPoolError):
                tenant.ingest_payloads([blobs[4]])

            # The server's heal path: rebuild from the last persisted
            # snapshot and re-attach; the stream resumes from chunk 3.
            tenant.restore_from_store()
            assert tenant.recycles == 1
            assert tenant.engine.pooled
            report = tenant.engine.ingest_payloads(blobs[3:])
            assert report.chunks == 3

            serial = _engine()
            for blob in blobs:
                serial.ingest_payloads([blob])
            expected = serial.query()
            got = tenant.engine.query()
            assert got.packets == expected.packets
            for definition in (1, 2, 3):
                assert got.ah_sources(definition) == expected.ah_sources(
                    definition
                )
            tenant.detach_pool()

    def test_respawned_worker_detects_state_desync(self):
        with FoldPool(1) as pool:
            engine = _engine()
            engine.attach_pool(pool, "desync")
            engine.ingest_payloads(_blobs(_capture(13), 2))
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            # First call hits the dead pipe...
            with pytest.raises(FoldPoolError):
                engine.ingest_payloads(_blobs(_capture(13), 2))
            # ...and the respawned (empty) worker must refuse to fold
            # as if nothing happened rather than restart from zero.
            with pytest.raises(FoldPoolError, match="no state|out of sync"):
                engine.ingest_payloads(_blobs(_capture(14), 2))

    def test_respawned_worker_refuses_to_answer_for_lost_shards(self):
        # Two tenants share one worker; a fold of the first meets the
        # dead worker.  The second tenant's shards were lost with it, so
        # its query, reload and finish must fail loudly instead of
        # answering for empty shards (0 events, empty AH sets) or
        # resetting its packet count.
        batch = _capture(15)
        blobs = _blobs(batch, 4)
        with FoldPool(1) as pool:
            first, second = _engine(workers=2), _engine(workers=2)
            first.attach_pool(pool, "first")
            second.attach_pool(pool, "second")
            first.ingest_payloads(blobs[:2])
            second.ingest_payloads(blobs)
            assert second.packets_seen == len(batch)
            first.query()  # memoized: the failed fold below must drop it
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            with pytest.raises(FoldPoolError):
                first.ingest_payloads(blobs[2:])
            with pytest.raises(FoldPoolError, match="out of sync"):
                first.query()
            with pytest.raises(FoldPoolError, match="out of sync"):
                second.query()
            with pytest.raises(FoldPoolError, match="out of sync"):
                second.reload_shards()
            assert second.packets_seen == len(batch)
            with pytest.raises(FoldPoolError, match="out of sync"):
                second.finish()
            assert not second.finished
            first.abandon_pool()
            second.abandon_pool()
