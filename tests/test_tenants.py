"""Tests for the tenant layer (repro.serve.tenants)."""

import math

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.core.engine import DetectionEngine
from repro.io.packetlog import packets_to_npz_bytes
from repro.packet import PacketBatch, Protocol
from repro.serve.journal import JOURNAL_DIR_NAME
from repro.serve.tenants import TenantConfig, TenantRegistry
from tests.test_engine import ingest_chunk
from tests.test_streaming import _assert_query_identical

TCP = Protocol.TCP_SYN.value

_DARK_SIZE = 64
_CONFIG = DetectionConfig(
    alpha=0.05, min_packet_threshold=2, min_port_threshold=1
)


def _config(**overrides) -> TenantConfig:
    base = dict(
        timeout=600.0,
        dark_size=_DARK_SIZE,
        detection=_CONFIG,
        snapshot_every_chunks=None,
    )
    base.update(overrides)
    return TenantConfig(**base)


def _capture(seed, n=8_000, duration=200_000.0):
    rng = np.random.default_rng(seed)
    return PacketBatch(
        ts=np.sort(rng.random(n) * duration),
        src=rng.integers(1, 150, n).astype(np.uint32),
        dst=rng.integers(0, _DARK_SIZE, n).astype(np.uint32),
        dport=rng.choice(np.array([22, 23, 80, 443], dtype=np.uint16), n),
        proto=np.full(n, TCP, dtype=np.uint8),
        ipid=np.zeros(n, dtype=np.uint16),
    )


def _feed(tenant, batch, chunk_seconds=3_600.0):
    for _, _, chunk in batch.iter_time_chunks(chunk_seconds):
        ingest_chunk(tenant.engine, chunk)


class TestConfigRoundTrip:
    def test_as_dict_from_dict(self):
        config = _config(workers=3, queue_depth=4)
        assert TenantConfig.from_dict(config.as_dict()) == config

    def test_registry_with_null_sample_budget_refused(self):
        # Registries persisted while engines took an ECDF sample budget
        # carry ``"max_ecdf_samples": null``; their snapshots are v2 or
        # v3 state, which no longer loads either.
        payload = dict(_config(workers=2).as_dict(), max_ecdf_samples=None)
        with pytest.raises(ValueError, match="max_ecdf_samples"):
            TenantConfig.from_dict(payload)

    def test_non_null_sample_budget_refused(self):
        payload = dict(_config().as_dict(), max_ecdf_samples=128)
        with pytest.raises(ValueError, match="max_ecdf_samples"):
            TenantConfig.from_dict(payload)

    def test_detection_none_round_trips(self):
        config = _config(detection=None)
        restored = TenantConfig.from_dict(config.as_dict())
        assert restored.detection is None

    def test_coalesce_budgets_round_trip(self):
        config = _config(coalesce_chunks=5, coalesce_bytes=1_234_567)
        restored = TenantConfig.from_dict(config.as_dict())
        assert restored == config
        assert restored.coalesce_chunks == 5
        assert restored.coalesce_bytes == 1_234_567

    def test_legacy_dict_without_coalesce_keys_gets_defaults(self):
        # Registries persisted before micro-batching lack these keys.
        payload = _config().as_dict()
        del payload["coalesce_chunks"]
        del payload["coalesce_bytes"]
        restored = TenantConfig.from_dict(payload)
        assert restored.coalesce_chunks == 32
        assert restored.coalesce_bytes == 8 * 2**20


class TestRegistry:
    def test_create_get_remove(self):
        registry = TenantRegistry()
        tenant = registry.create("merit", _config())
        assert registry.get("merit") is tenant
        assert "merit" in registry
        assert registry.ids() == ["merit"]
        assert registry.remove("merit")
        assert registry.get("merit") is None
        assert not registry.remove("merit")

    def test_recreate_same_config_is_idempotent(self):
        registry = TenantRegistry()
        a = registry.create("t", _config())
        b = registry.create("t", _config())
        assert a is b

    def test_recreate_different_config_raises(self):
        registry = TenantRegistry()
        registry.create("t", _config())
        with pytest.raises(ValueError, match="different configuration"):
            registry.create("t", _config(workers=2))

    @pytest.mark.parametrize("bad", ["", "a/b", ".hidden"])
    def test_invalid_ids_rejected(self, bad):
        with pytest.raises(ValueError, match="invalid tenant id"):
            TenantRegistry().create(bad, _config())

    def test_isolation(self):
        # Two tenants fed different traffic never see each other's
        # sources — and their AH sets equal single-tenant runs.
        registry = TenantRegistry()
        a = registry.create("a", _config())
        b = registry.create("b", _config(workers=2))
        batch_a, batch_b = _capture(1), _capture(2)
        _feed(a, batch_a)
        _feed(b, batch_b)
        solo = TenantRegistry().create("solo", _config())
        _feed(solo, batch_a)
        _assert_query_identical(a.query(), solo.query())
        assert b.engine.packets_seen == len(batch_b)


class TestDurability:
    def test_restore_all_rebuilds_fleet_with_state(self, tmp_path):
        registry = TenantRegistry(tmp_path / "snap")
        tenant = registry.create("merit", _config(workers=2))
        _feed(tenant, _capture(3))
        before = tenant.query()
        registry.snapshot_all()

        revived = TenantRegistry(tmp_path / "snap")
        assert revived.restore_all() == ["merit"]
        after = revived.get("merit")
        assert after.config == tenant.config
        assert after.engine.packets_seen == tenant.engine.packets_seen
        _assert_query_identical(after.query(), before)

    def test_restore_without_snapshot_starts_empty(self, tmp_path):
        registry = TenantRegistry(tmp_path / "snap")
        registry.create("fresh", _config())
        # No snapshot_all: only the registry file exists.
        revived = TenantRegistry(tmp_path / "snap")
        assert revived.restore_all() == ["fresh"]
        assert revived.get("fresh").engine.packets_seen == 0

    def test_corrupt_registry_ignored(self, tmp_path):
        registry = TenantRegistry(tmp_path / "snap")
        registry.create("t", _config())
        registry.registry_path().write_text("{not json")
        assert TenantRegistry(tmp_path / "snap").restore_all() == []

    def test_corrupt_snapshot_restarts_tenant_empty(self, tmp_path):
        registry = TenantRegistry(tmp_path / "snap")
        tenant = registry.create("t", _config())
        _feed(tenant, _capture(4, n=2_000))
        registry.snapshot_all()
        shard = next((tmp_path / "snap" / "t").glob("shard-*.state"))
        raw = bytearray(shard.read_bytes())
        raw[-1] ^= 0xFF
        shard.write_bytes(bytes(raw))
        revived = TenantRegistry(tmp_path / "snap")
        revived.restore_all()
        after = revived.get("t")
        assert after.engine.packets_seen == 0
        assert after.telemetry.health.checkpoint_corrupt == 1
        assert any("snapshot refused" in e for e in after.errors)


def _wire_chunks(batch, chunk_seconds=3_600.0):
    """The capture as npz wire payloads, like a client would POST."""
    return [
        packets_to_npz_bytes(chunk)
        for _, _, chunk in batch.iter_time_chunks(chunk_seconds)
    ]


def _serve_feed(tenant, payloads):
    """Feed payloads through the durable serve path (journal + fold)."""
    for payload in payloads:
        seq, duplicate = tenant.accept_chunk(payload)
        if not duplicate:
            tenant.ingest_payloads([payload], last_seq=seq)


class TestJournalDurability:
    """restore_all reconciles snapshots against the journal tail."""

    def test_journal_replay_without_any_snapshot(self, tmp_path):
        # The acked-chunk contract with no snapshot at all: the whole
        # journal replays and the state equals a serial feed.
        registry = TenantRegistry(tmp_path / "snap")
        tenant = registry.create("t", _config())
        batch = _capture(21)
        _serve_feed(tenant, _wire_chunks(batch))
        before = tenant.query()
        assert tenant.engine.last_seq == len(_wire_chunks(batch))
        # No snapshot_all(), no close: simulate a SIGKILL.

        revived = TenantRegistry(tmp_path / "snap")
        assert revived.restore_all() == ["t"]
        after = revived.get("t")
        assert after.engine.packets_seen == len(batch)
        assert after.serve_stats.replayed_chunks > 0
        _assert_query_identical(after.query(), before)

    def test_journal_replays_only_uncovered_suffix(self, tmp_path):
        registry = TenantRegistry(tmp_path / "snap")
        tenant = registry.create("t", _config())
        payloads = _wire_chunks(_capture(22))
        half = len(payloads) // 2
        _serve_feed(tenant, payloads[:half])
        tenant.save_snapshot()  # covers (and truncates) the prefix
        _serve_feed(tenant, payloads[half:])
        expected = tenant.query()

        revived = TenantRegistry(tmp_path / "snap")
        revived.restore_all()
        after = revived.get("t")
        # Only the unsnapshotted suffix was re-folded.
        assert after.serve_stats.replayed_chunks == len(payloads) - half
        _assert_query_identical(after.query(), expected)

    def test_truncated_journal_tail_keeps_intact_prefix(self, tmp_path):
        registry = TenantRegistry(tmp_path / "snap")
        tenant = registry.create("t", _config())
        payloads = _wire_chunks(_capture(23))
        _serve_feed(tenant, payloads)
        segments = sorted(
            (tmp_path / "snap" / "t" / JOURNAL_DIR_NAME).glob("*.wal")
        )
        # Tear the final record in half, as a crash mid-write would.
        last = segments[-1]
        raw = last.read_bytes()
        last.write_bytes(raw[: len(raw) - 10])

        revived = TenantRegistry(tmp_path / "snap")
        revived.restore_all()
        after = revived.get("t")
        # Every chunk but the torn one replayed; the damage is
        # quarantined on this tenant's health, not raised.
        assert after.serve_stats.replayed_chunks == len(payloads) - 1
        assert any(
            str(last) in q
            for q in after.telemetry.health.quarantined_chunks
        )

    @pytest.mark.parametrize(
        "coalesce_chunks, coalesce_bytes",
        [(1, 8 * 2**20), (5, 8 * 2**20), (32, 8 * 2**20), (32, 1)],
    )
    def test_replay_coalesces_under_the_tenant_budget(
        self, tmp_path, monkeypatch, coalesce_chunks, coalesce_bytes
    ):
        config = _config(
            workers=2,
            coalesce_chunks=coalesce_chunks,
            coalesce_bytes=coalesce_bytes,
        )
        registry = TenantRegistry(tmp_path / "snap")
        tenant = registry.create("t", config)
        payloads = _wire_chunks(_capture(29))
        _serve_feed(tenant, payloads)
        expected = tenant.query()

        folds = []
        fold = DetectionEngine.ingest_payloads

        def counted(engine, blobs, **kwargs):
            folds.append(len(blobs))
            return fold(engine, blobs, **kwargs)

        monkeypatch.setattr(DetectionEngine, "ingest_payloads", counted)
        revived = TenantRegistry(tmp_path / "snap")
        revived.restore_all()
        after = revived.get("t")
        assert after.serve_stats.replayed_chunks == sum(folds) == len(payloads)
        budget = coalesce_chunks if coalesce_bytes > 1 else 1
        assert len(folds) <= math.ceil(len(payloads) / budget)
        assert after.engine.last_seq == tenant.engine.last_seq
        _assert_query_identical(after.query(), expected)

    def test_duplicate_records_replay_once(self, tmp_path):
        # A client that never saw its ack may get the same chunk
        # journaled twice (e.g. after the dedup LRU aged it out);
        # replay must fold it exactly once.
        registry = TenantRegistry(tmp_path / "snap")
        tenant = registry.create("t", _config())
        batch = _capture(24)
        payloads = _wire_chunks(batch)
        for payload in payloads:
            tenant.journal.append(payload)  # journal only — no folds
        tenant.journal.append(payloads[-1])  # the retransmit

        revived = TenantRegistry(tmp_path / "snap")
        revived.restore_all()
        after = revived.get("t")
        assert after.engine.packets_seen == len(batch)
        assert after.serve_stats.replayed_chunks == len(payloads)
        solo = TenantRegistry().create("solo", _config())
        _feed(solo, batch)
        _assert_query_identical(after.query(), solo.query())

    def test_corrupt_segment_isolated_from_sibling_tenants(self, tmp_path):
        registry = TenantRegistry(tmp_path / "snap")
        broken = registry.create("broken", _config())
        clean = registry.create("clean", _config())
        batch = _capture(25)
        payloads = _wire_chunks(batch)
        _serve_feed(broken, payloads)
        _serve_feed(clean, payloads)
        segment = next(
            (tmp_path / "snap" / "broken" / JOURNAL_DIR_NAME).glob("*.wal")
        )
        segment.write_bytes(b"not a journal segment at all")

        revived = TenantRegistry(tmp_path / "snap")
        assert sorted(revived.restore_all()) == ["broken", "clean"]
        assert revived.get("clean").engine.packets_seen == len(batch)
        assert revived.get("broken").engine.packets_seen == 0
        assert (
            revived.get("broken").telemetry.health.quarantined_chunks != []
        )
        assert (
            revived.get("clean").telemetry.health.quarantined_chunks == []
        )

    def test_replay_then_retransmit_is_deduplicated(self, tmp_path):
        # After a restart the server re-acks retransmits of replayed
        # chunks without folding them again.
        registry = TenantRegistry(tmp_path / "snap")
        tenant = registry.create("t", _config())
        payloads = _wire_chunks(_capture(26))
        _serve_feed(tenant, payloads)

        revived = TenantRegistry(tmp_path / "snap")
        revived.restore_all()
        after = revived.get("t")
        packets = after.engine.packets_seen
        seq, duplicate = after.accept_chunk(payloads[-1])
        assert duplicate
        assert after.engine.packets_seen == packets
        assert after.serve_stats.duplicate_chunks == 1

    def test_fresh_create_resets_stale_journal(self, tmp_path):
        registry = TenantRegistry(tmp_path / "snap")
        old = registry.create("t", _config())
        _serve_feed(old, _wire_chunks(_capture(27)))
        registry.remove("t")
        # Same id, fresh tenant: the old segments must not replay.
        again = TenantRegistry(tmp_path / "snap")
        tenant = again.create("t", _config())
        assert tenant.engine.packets_seen == 0
        assert list(tenant.journal.replay()) == []

    def test_journal_disabled_keeps_old_semantics(self, tmp_path):
        registry = TenantRegistry(tmp_path / "snap", journal=False)
        tenant = registry.create("t", _config())
        assert tenant.journal is None
        payload = _wire_chunks(_capture(28))[0]
        seq, duplicate = tenant.accept_chunk(payload)
        assert seq is None and not duplicate
        # Unsnapshotted state really is lost — that is the trade-off
        # --no-journal buys.
        tenant.ingest_payloads([payload])
        revived = TenantRegistry(tmp_path / "snap", journal=False)
        revived.restore_all()
        assert revived.get("t").engine.packets_seen == 0


class TestRecycle:
    def test_recycle_preserves_results(self, tmp_path):
        registry = TenantRegistry(tmp_path / "snap")
        steady = registry.create("steady", _config(workers=2))
        churned = registry.create("churned", _config(workers=2))
        chunks = list(_capture(5).iter_time_chunks(3_600.0))
        for i, (_, _, chunk) in enumerate(chunks):
            ingest_chunk(steady.engine, chunk)
            ingest_chunk(churned.engine, chunk)
            if i % 10 == 0:
                churned.recycle()
        assert churned.recycles > 0
        _assert_query_identical(churned.query(), steady.query())

    def test_recycle_leaves_the_journal_truncation_point(self, tmp_path):
        # Recycling reloads live state and persists nothing, so chunks
        # folded since the last snapshot must stay in the journal.
        registry = TenantRegistry(tmp_path / "snap")
        tenant = registry.create("t", _config(workers=2))
        payloads = _wire_chunks(_capture(25))
        half = len(payloads) // 2
        _serve_feed(tenant, payloads[:half])
        tenant.save_snapshot()
        covered = tenant.engine.snapshot_seq
        _serve_feed(tenant, payloads[half:])
        journal = tmp_path / "snap" / "t" / JOURNAL_DIR_NAME
        segments = sorted(journal.glob("segment-*.wal"))
        assert segments

        tenant.recycle()
        assert tenant.engine.snapshot_seq == covered
        assert covered < tenant.engine.last_seq
        tenant.maybe_truncate_journal()
        assert sorted(journal.glob("segment-*.wal")) == segments

        # A crash now still replays every unsnapshotted chunk.
        revived = TenantRegistry(tmp_path / "snap")
        revived.restore_all()
        after = revived.get("t")
        assert after.serve_stats.replayed_chunks == len(payloads) - half
        _assert_query_identical(after.query(), tenant.query())

    def test_recycle_counts_errors_independently(self):
        registry = TenantRegistry()
        tenant = registry.create("t", _config())
        for i in range(40):
            tenant.record_error(f"e{i}")
        assert len(tenant.errors) == 32
        assert tenant.errors[-1] == "e39"
