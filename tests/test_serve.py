"""Tests for the ingestion service (repro.serve.server/client/loadgen).

Runs the real asyncio server on a background thread bound to an
ephemeral port and drives it with the real stdlib client — the same
code path the serve-smoke CI job exercises, minus the subprocess.
"""

import json
import threading

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.core.detection import detect_all
from repro.core.engine import MANIFEST_NAME
from repro.core.events import build_events
from repro.packet import PacketBatch, Protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.loadgen import DriveStats, chunk_payloads, drive
from repro.serve.server import ServerThread
from repro.serve.tenants import TenantConfig, TenantRegistry

TCP = Protocol.TCP_SYN.value

_DARK_SIZE = 64
_CONFIG = DetectionConfig(
    alpha=0.05, min_packet_threshold=2, min_port_threshold=1
)
_TIMEOUT = 600.0


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


def _offline_ah(batch, definition):
    events = build_events(batch, _TIMEOUT)
    return detect_all(events, _DARK_SIZE, _CONFIG)[definition].sources


def _tenant_config(**overrides) -> TenantConfig:
    base = dict(
        timeout=_TIMEOUT,
        dark_size=_DARK_SIZE,
        detection=_CONFIG,
        snapshot_every_chunks=None,
        queue_depth=4,
    )
    base.update(overrides)
    return TenantConfig(**base)


@pytest.fixture()
def server(tmp_path):
    registry = TenantRegistry(tmp_path / "snap")
    thread = ServerThread(registry)
    host, port = thread.start()
    client = ServeClient(host, port)
    try:
        yield client, thread, tmp_path / "snap"
    finally:
        client.close()
        thread.stop()


class TestEndpoints:
    def test_health_on_empty_server(self, server):
        client, _, _ = server
        payload = client.health()
        assert payload["ok"] is True
        assert payload["tenants"] == {}
        assert payload["fold_processes"] >= 1

    def test_unknown_routes(self, server):
        client, _, _ = server
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("GET", "/tenants/ghost/ah")[0] == 404
        assert client.request("POST", "/tenants/ghost/chunks", b"x")[0] == 404
        assert client.request("PATCH", "/tenants/ghost")[0] == 405

    def test_tenant_crud(self, server):
        client, _, _ = server
        created = client.create_tenant("t0", _tenant_config())
        assert created["tenant"] == "t0"
        # Idempotent re-PUT with the same config; conflict otherwise.
        client.create_tenant("t0", _tenant_config())
        with pytest.raises(ServeError) as err:
            client.create_tenant("t0", _tenant_config(workers=2))
        assert err.value.status == 409
        assert client.request("GET", "/tenants")[1]["tenants"] == ["t0"]
        client.delete_tenant("t0")
        with pytest.raises(ServeError):
            client.status("t0")

    def test_sample_budget_config_answers_400(self, server):
        client, _, _ = server
        config = _tenant_config().as_dict()
        body = json.dumps(dict(config, max_ecdf_samples=64)).encode()
        status, payload = client.request("PUT", "/tenants/t0", body)
        assert status == 400 and "max_ecdf_samples" in payload["error"]
        # The null budget older tenants.json files carry is refused too.
        body = json.dumps(dict(config, max_ecdf_samples=None)).encode()
        status, payload = client.request("PUT", "/tenants/t0", body)
        assert status == 400 and "max_ecdf_samples" in payload["error"]
        body = json.dumps(config).encode()
        assert client.request("PUT", "/tenants/t0", body)[0] == 201
        assert "degraded" not in client.health()["tenants"]["t0"]

    def test_bad_chunk_rejected_and_accounted(self, server):
        client, _, _ = server
        client.create_tenant("t0", _tenant_config())
        status, _ = client.ingest("t0", b"this is not an npz archive")
        assert status == 202  # queued; corruption surfaces at fold time
        client.sync("t0")
        tenant_status = client.status("t0")
        assert tenant_status["packets"] == 0
        assert len(tenant_status["errors"]) == 1
        assert "chunk" in tenant_status["errors"][0]

    def test_empty_chunk_rejected_upfront(self, server):
        client, _, _ = server
        client.create_tenant("t0", _tenant_config())
        assert client.ingest("t0", b"")[0] == 400

    def test_bad_definition_rejected(self, server):
        client, _, _ = server
        client.create_tenant("t0", _tenant_config())
        assert client.request("GET", "/tenants/t0/ah?definition=9")[0] == 400
        assert client.request("GET", "/tenants/t0/ah?definition=x")[0] == 400


class TestIngestParity:
    def test_two_tenants_match_offline_and_stay_isolated(self, server):
        client, _, _ = server
        batch_a, batch_b = _capture(11), _capture(22)
        client.create_tenant("a", _tenant_config())
        client.create_tenant("b", _tenant_config(workers=2))
        stats_a = drive(client, "a", chunk_payloads(batch_a, 3_600.0))
        stats_b = drive(client, "b", chunk_payloads(batch_b, 3_600.0))
        assert isinstance(stats_a, DriveStats)
        assert stats_a.packets == len(batch_a)
        for definition in (1, 2, 3):
            assert client.ah_sources("a", definition) == _offline_ah(
                batch_a, definition
            )
            assert client.ah_sources("b", definition) == _offline_ah(
                batch_b, definition
            )
        health = client.health()["tenants"]
        assert health["a"]["packets"] == len(batch_a)
        assert health["b"]["packets"] == len(batch_b)
        assert health["a"]["errors"] == 0

    def test_query_between_chunks_is_prefix_consistent(self, server):
        client, _, _ = server
        batch = _capture(33)
        client.create_tenant("t", _tenant_config())
        payloads = list(chunk_payloads(batch, 3_600.0))
        half = len(payloads) // 2
        drive(client, "t", payloads[:half])
        seen = int(client.status("t")["packets"])
        prefix = batch.select(slice(0, seen))
        assert client.ah_sources("t", 1) == _offline_ah(prefix, 1)
        drive(client, "t", payloads[half:])
        assert client.ah_sources("t", 1) == _offline_ah(batch, 1)


class TestCoalescingParity:
    """Micro-batched + pooled ingest is AH-identical to per-chunk.

    One capture, many tenants: coalesce budgets (per-chunk up to
    32-chunk micro-batches, byte-capped budgets), shard counts, and
    chunkings all vary — every variant must answer the exact offline
    AH sets for all three definitions.
    """

    def test_budget_and_chunking_matrix(self, server):
        client, _, _ = server
        batch = _capture(88)
        expected = {d: _offline_ah(batch, d) for d in (1, 2, 3)}
        variants = {
            "per-chunk": (_tenant_config(coalesce_chunks=1), 3_600.0),
            "pairs": (
                _tenant_config(coalesce_chunks=2, queue_depth=8),
                3_600.0,
            ),
            "deep": (
                _tenant_config(coalesce_chunks=32, queue_depth=16),
                1_800.0,
            ),
            "byte-capped": (
                _tenant_config(coalesce_bytes=1, queue_depth=8),
                3_600.0,
            ),
            "sharded": (
                _tenant_config(
                    workers=2, coalesce_chunks=32, queue_depth=16
                ),
                7_200.0,
            ),
            "coarse": (_tenant_config(), 50_000.0),
        }
        for name, (config, chunk_seconds) in variants.items():
            client.create_tenant(name, config)
            stats = drive(
                client, name, chunk_payloads(batch, chunk_seconds)
            )
            assert stats.packets == len(batch)
            status = client.status(name)
            assert status["packets"] == len(batch), name
            assert status["chunks"] == stats.chunks, name
            assert status["errors"] == [], name
            for definition in (1, 2, 3):
                assert (
                    client.ah_sources(name, definition)
                    == expected[definition]
                ), (name, definition)

    def test_serve_stats_account_folds(self, server):
        client, _, _ = server
        batch = _capture(99)
        client.create_tenant("t", _tenant_config(queue_depth=16))
        stats = drive(client, "t", chunk_payloads(batch, 3_600.0))
        serve = client.status("t")["serve"]
        assert serve["chunks_received"] == stats.chunks
        assert serve["packets_folded"] == len(batch)
        assert 1 <= serve["folds"] <= stats.chunks
        assert sum(serve["coalesce_histogram"].values()) == serve["folds"]
        assert serve["bytes_received"] == stats.bytes_sent


class TestBackPressure:
    def test_overflow_answers_429_with_retry_hint(self, server):
        client, _, _ = server
        # depth 1 and a single slow ingest thread: the queue fills as
        # soon as two chunks are in flight.  coalesce_chunks=1 keeps
        # the worker folding one chunk per wake-up so the queue
        # actually overflows.
        client.create_tenant(
            "slow", _tenant_config(queue_depth=1, coalesce_chunks=1)
        )
        payloads = [p for _, p in chunk_payloads(_capture(44), 600.0)]
        saw_429 = False
        accepted = 0
        for payload in payloads:
            while True:
                status, body = client.ingest("slow", payload)
                if status == 202:
                    accepted += 1
                    break
                assert status == 429
                assert body["retry_after"] > 0
                assert float(client.last_headers["retry-after"]) > 0
                saw_429 = True
        client.sync("slow")
        assert accepted == len(payloads)
        # Every chunk eventually landed despite the shedding.
        assert client.status("slow")["packets"] == len(_capture(44))
        assert saw_429, "queue depth 1 never shed load"

    def test_sustained_backpressure_no_loss_no_double_fold(self, server):
        """Fill the queue behind a gated fold; drain exactly once.

        The fold is blocked on an event so the burst is deterministic:
        the first chunk sits in the (stalled) fold, the queue holds
        ``queue_depth`` more, and the next POST must shed.  After
        releasing the gate every accepted chunk folds exactly once.
        """
        client, thread, _ = server
        depth = 3
        client.create_tenant("burst", _tenant_config(queue_depth=depth))
        tenant = thread.registry.get("burst")
        gate = threading.Event()
        started = threading.Event()
        real_ingest = tenant.ingest_payloads

        def gated(blobs, **kwargs):
            started.set()
            gate.wait(timeout=30)
            return real_ingest(blobs, **kwargs)

        tenant.ingest_payloads = gated
        pairs = list(chunk_payloads(_capture(45), 600.0))
        accepted_packets = 0
        accepted = 0
        rejected = 0
        for n_packets, payload in pairs:
            status, _ = client.ingest("burst", payload)
            if status == 202:
                accepted += 1
                accepted_packets += int(n_packets)
                if accepted == 1:
                    # Wait for the worker to pull the first chunk into
                    # the (stalled) fold, so the burst fills the queue
                    # deterministically behind it.
                    assert started.wait(timeout=10)
            else:
                assert status == 429
                assert "retry-after" in client.last_headers
                rejected += 1
            if accepted > depth and rejected:
                break
        assert rejected >= 1, "queue never overflowed behind the gate"
        # Mid-burst: /health must report the true queue depth — the
        # first chunk is in the stalled fold, the rest are queued.
        health = client.health()["tenants"]["burst"]
        assert health["queued"] == depth
        assert health["queue_depth"] == depth
        gate.set()
        tenant.ingest_payloads = real_ingest
        client.sync("burst")
        status = client.status("burst")
        # No accepted chunk lost, none folded twice.
        assert status["packets"] == accepted_packets
        assert status["chunks"] == accepted
        assert status["errors"] == []
        serve = status["serve"]
        assert serve["chunks_received"] == accepted
        assert sum(serve["coalesce_histogram"].values()) == serve["folds"]
        # The gated burst must have coalesced at least once.
        assert serve["max_coalesced_chunks"] >= 2

    def test_ingest_blocking_retries_through(self, server):
        client, _, _ = server
        client.create_tenant(
            "t", _tenant_config(queue_depth=1, coalesce_chunks=1)
        )
        stats = drive(
            client, "t", chunk_payloads(_capture(55), 600.0), backoff=0.01
        )
        assert client.status("t")["packets"] == stats.packets
        assert stats.ack_p50 is not None and stats.ack_p99 is not None
        assert stats.ack_p99 >= stats.ack_p50 >= 0.0
        assert len(stats.ack_seconds) == stats.chunks


class TestDurableIngest:
    def test_duplicate_post_acked_but_not_refolded(self, server):
        client, _, _ = server
        client.create_tenant("t", _tenant_config())
        payload = next(chunk_payloads(_capture(91), 3_600.0))[1]
        status, body = client.ingest("t", payload)
        assert status == 202 and "duplicate" not in body
        status, body = client.ingest("t", payload)
        assert status == 202 and body["duplicate"] is True
        client.sync("t")
        tenant_status = client.status("t")
        assert tenant_status["chunks"] == 1
        assert tenant_status["serve"]["duplicate_chunks"] == 1

    def test_journal_failure_answers_429_and_flags_health(self, server):
        client, thread, _ = server
        client.create_tenant("t", _tenant_config())
        tenant = thread.registry.get("t")
        payloads = [p for _, p in chunk_payloads(_capture(92), 3_600.0)]
        assert client.ingest("t", payloads[0])[0] == 202

        from repro.serve.journal import JournalError

        real_append = tenant.journal.append

        def _full_disk(payload, digest=None):
            raise JournalError("append failed: ENOSPC")

        tenant.journal.append = _full_disk
        status, body = client.ingest("t", payloads[1])
        assert status == 429
        assert "journal" in body["error"]
        assert float(client.last_headers["retry-after"]) > 0
        health = client.health()
        assert health["ok"] is False
        assert health["journal_degraded"] == ["t"]
        assert health["tenants"]["t"]["journal_degraded"] is True

        # The disk comes back: the same chunk is admitted and the
        # degraded flag clears.
        tenant.journal.append = real_append
        assert client.ingest("t", payloads[1])[0] == 202
        health = client.health()
        assert health["ok"] is True
        assert health["journal_degraded"] == []
        client.sync("t")
        serve = client.status("t")["serve"]
        assert serve["journal_failures"] == 1
        assert serve["journal_appends"] == 2

    def test_kill_without_snapshot_loses_nothing(self, server, tmp_path):
        # The pre-journal serve layer lost everything since the last
        # snapshot on an abrupt stop; now the journal carries it.
        client, thread, snap_dir = server
        batch = _capture(93)
        client.create_tenant("t", _tenant_config(workers=2))
        payloads = list(chunk_payloads(batch, 3_600.0))
        drive(client, "t", payloads, sync=True)
        client.close()
        thread.stop(snapshot=False)  # no graceful snapshot — a "crash"

        registry = TenantRegistry(snap_dir)
        revived = ServerThread(registry)
        host, port = revived.start()
        try:
            with ServeClient(host, port) as client2:
                status = client2.status("t")
                assert status["packets"] == len(batch)
                assert status["serve"]["replayed_chunks"] > 0
                for definition in (1, 2, 3):
                    assert client2.ah_sources(
                        "t", definition
                    ) == _offline_ah(batch, definition)
        finally:
            revived.stop()

    def test_journal_truncated_after_snapshot(self, server):
        client, thread, snap_dir = server
        client.create_tenant("t", _tenant_config())
        drive(client, "t", chunk_payloads(_capture(94), 3_600.0))
        client.snapshot("t")
        journal_dir = snap_dir / "t" / "journal"
        tenant = thread.registry.get("t")
        assert tenant.serve_stats.journal_appends > 0
        # Everything folded is snapshot-covered: no segments remain.
        assert list(journal_dir.glob("segment-*.wal")) == []


class TestClientBounceTolerance:
    def test_ingest_blocking_retries_connection_errors(self, server):
        client, _, _ = server
        client.create_tenant("t", _tenant_config())
        payload = next(chunk_payloads(_capture(95), 3_600.0))[1]
        real_ingest = client.ingest
        failures = iter([ConnectionResetError, OSError])

        def _flaky(tenant_id, body):
            exc = next(failures, None)
            if exc is not None:
                raise exc("server bouncing")
            return real_ingest(tenant_id, body)

        client.ingest = _flaky
        retries = client.ingest_blocking(
            "t", payload, backoff=0.001, connect_retries=4
        )
        assert retries == 2
        client.ingest = real_ingest
        client.sync("t")
        assert client.status("t")["chunks"] == 1

    def test_connect_retry_budget_exhausts(self):
        # No server at all: the budget bounds the failure.
        client = ServeClient("127.0.0.1", 1)  # port 1: nothing listens
        with pytest.raises(OSError):
            client.ingest_blocking(
                "t", b"x", backoff=0.001, connect_retries=2
            )

    def test_drive_reports_acks_via_callback(self, server):
        client, _, _ = server
        client.create_tenant("t", _tenant_config(queue_depth=16))
        acked = []
        stats = drive(
            client,
            "t",
            chunk_payloads(_capture(96), 3_600.0),
            on_ack=lambda index, n: acked.append((index, n)),
        )
        assert len(acked) == stats.chunks
        assert [i for i, _ in acked] == list(range(stats.chunks))
        assert sum(n for _, n in acked) == stats.packets


class TestKillAndRestore:
    def test_snapshot_restart_continue(self, server, tmp_path):
        client, thread, snap_dir = server
        batch = _capture(66)
        client.create_tenant("t", _tenant_config(workers=2))
        payloads = list(chunk_payloads(batch, 3_600.0))
        half = len(payloads) // 2
        drive(client, "t", payloads[:half])
        client.snapshot("t")
        client.close()
        # Abrupt stop: no graceful drain-and-snapshot.
        thread.stop(snapshot=False)

        registry = TenantRegistry(snap_dir)
        revived = ServerThread(registry)
        host, port = revived.start()
        try:
            with ServeClient(host, port) as client2:
                assert client2.status("t")["packets"] > 0
                drive(client2, "t", payloads[half:])
                for definition in (1, 2, 3):
                    assert client2.ah_sources(
                        "t", definition
                    ) == _offline_ah(batch, definition)
        finally:
            revived.stop()

    def test_failed_snapshot_write_keeps_live_state(self, server):
        # A fold worker whose shard write fails (a directory in the way
        # of the file, as a full disk or EIO would fail it) reports an
        # I/O error, not a lost worker: the tenant keeps its live state,
        # is not restored from an older snapshot, and keeps ingesting.
        client, _, snap_dir = server
        batch = _capture(79)
        client.create_tenant(
            "t", _tenant_config(workers=2, snapshot_every_chunks=2)
        )
        obstacle = snap_dir / "t" / "shard-00000001-001.state"
        obstacle.mkdir(parents=True)
        drive(client, "t", chunk_payloads(batch, 3_600.0), sync=True)
        status = client.status("t")
        assert status["pooled"]
        assert status["recycles"] == 0
        assert status["packets"] == len(batch)
        assert any("Is a directory" in e for e in status["errors"])
        assert not any("fold pool" in e for e in status["errors"])
        assert not (snap_dir / "t" / MANIFEST_NAME).exists()
        for definition in (1, 2, 3):
            assert client.ah_sources("t", definition) == _offline_ah(
                batch, definition
            )
        obstacle.rmdir()
        client.snapshot("t")
        assert (snap_dir / "t" / MANIFEST_NAME).exists()

    def test_failed_scheduled_snapshot_still_records_the_fold(self, server):
        # A snapshot the engine schedules inside a fold fails after the
        # fold landed: the serve stats still count every folded chunk
        # and packet, and the error names the snapshot, not the chunks.
        client, _, snap_dir = server
        batch = _capture(80)
        client.create_tenant(
            "t", _tenant_config(workers=2, snapshot_every_chunks=2)
        )
        obstacle = snap_dir / "t" / "shard-00000001-001.state"
        obstacle.mkdir(parents=True)
        payloads = list(chunk_payloads(batch, 3_600.0))
        for _, payload in payloads:
            client.ingest_blocking("t", payload)
            client.sync("t")
        status = client.status("t")
        assert status["pooled"]
        assert status["recycles"] == 0
        assert status["chunks"] == len(payloads)
        assert status["packets"] == len(batch)
        serve = status["serve"]
        assert serve["folds"] == status["chunks"]
        assert serve["packets_folded"] == status["packets"]
        assert any(
            e.startswith("snapshot: ") and "Is a directory" in e
            for e in status["errors"]
        )
        assert not any(e.startswith("chunk") for e in status["errors"])
        assert status["snapshot_seq"] == 0
        assert not (snap_dir / "t" / MANIFEST_NAME).exists()
        # An explicit snapshot still raises its error to the caller.
        with pytest.raises(ServeError, match="Is a directory"):
            client.snapshot("t")
        obstacle.rmdir()
        client.snapshot("t")
        assert client.status("t")["snapshot_seq"] == len(payloads)

    def test_recycle_endpoint_preserves_results(self, server):
        client, _, _ = server
        batch = _capture(77)
        client.create_tenant("t", _tenant_config())
        payloads = list(chunk_payloads(batch, 3_600.0))
        for i, (_, payload) in enumerate(payloads):
            client.ingest_blocking("t", payload)
            if i == len(payloads) // 2:
                assert client.recycle("t")["recycles"] >= 0
        client.sync("t")
        assert client.status("t")["recycles"] == 1
        assert client.ah_sources("t", 1) == _offline_ah(batch, 1)
