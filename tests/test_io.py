"""Unit tests for event/flow serialization."""

import re

import numpy as np
import pytest

from repro.core.events import EventTable
from repro.flows.netflow import FlowTable
from repro.io.eventlog import load_events_csv, save_events_csv
from repro.io.flowlog import load_flows_csv, save_flows_csv
from repro.core.faults import ChunkCorruptionError
from repro.core.telemetry import RunHealth
from repro.io.packetlog import (
    MANIFEST_NAME,
    ChunkWriter,
    iter_packets_chunked,
    load_manifest,
    load_packets_npz,
    packets_from_npz_bytes,
    packets_to_npz_bytes,
    save_packets_chunked,
    save_packets_npz,
    verify_chunks,
)
from repro.packet import COLUMNS, PacketBatch, Protocol


@pytest.fixture()
def events():
    return EventTable(
        src=np.array([167_772_161, 3_232_235_777], dtype=np.uint32),
        dport=np.array([80, 6_379], dtype=np.uint16),
        proto=np.array([6, 6], dtype=np.uint8),
        start=np.array([0.5, 100.25]),
        end=np.array([10.75, 200.0]),
        packets=np.array([12, 3_456], dtype=np.int64),
        unique_dsts=np.array([10, 3_000], dtype=np.int64),
    )


@pytest.fixture()
def flows():
    return FlowTable(
        router=np.array([0, 2], dtype=np.int8),
        day=np.array([0, 5], dtype=np.int32),
        src=np.array([167_772_161, 167_772_162], dtype=np.uint32),
        dport=np.array([23, 443], dtype=np.uint16),
        proto=np.array([6, 6], dtype=np.uint8),
        packets=np.array([4_000, 9_000], dtype=np.int64),
        sampled=np.array([4, 9], dtype=np.int64),
    )


class TestEventLog:
    def test_roundtrip(self, events, tmp_path):
        path = tmp_path / "events.csv"
        save_events_csv(events, path)
        loaded = load_events_csv(path)
        assert len(loaded) == 2
        assert loaded.src.tolist() == events.src.tolist()
        assert loaded.packets.tolist() == events.packets.tolist()
        assert loaded.start.tolist() == events.start.tolist()

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_events_csv(EventTable.empty(), path)
        assert len(load_events_csv(path)) == 0

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_events_csv(path)

    def test_human_readable_ips(self, events, tmp_path):
        path = tmp_path / "events.csv"
        save_events_csv(events, path)
        content = path.read_text()
        assert "10.0.0.1" in content


class TestChunkedPacketLog:
    @pytest.fixture()
    def batch(self):
        rng = np.random.default_rng(8)
        n = 4_000
        return PacketBatch(
            ts=np.sort(rng.random(n) * 30_000.0),
            src=rng.integers(1, 50, n).astype(np.uint32),
            dst=rng.integers(0, 256, n).astype(np.uint32),
            dport=np.full(n, 23, dtype=np.uint16),
            proto=np.full(n, Protocol.TCP_SYN.value, dtype=np.uint8),
            ipid=np.zeros(n, dtype=np.uint16),
        )

    def test_roundtrip(self, batch, tmp_path):
        n_files = save_packets_chunked(batch, tmp_path / "cap", 3_600.0)
        assert n_files == len(list((tmp_path / "cap").glob("chunk-*.npz")))
        chunks = list(iter_packets_chunked(tmp_path / "cap"))
        assert len(chunks) == n_files
        restored = PacketBatch.concat(chunks)
        assert len(restored) == len(batch)
        assert np.array_equal(restored.ts, batch.ts)
        assert np.array_equal(restored.src, batch.src)
        assert np.array_equal(restored.dst, batch.dst)

    def test_chunks_are_time_ordered(self, batch, tmp_path):
        save_packets_chunked(batch, tmp_path / "cap", 3_600.0)
        previous_end = -np.inf
        for chunk in iter_packets_chunked(tmp_path / "cap"):
            assert float(chunk.ts.min()) >= previous_end
            previous_end = float(chunk.ts.max())

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(iter_packets_chunked(tmp_path / "nope"))

    def test_empty_directory(self, tmp_path):
        (tmp_path / "cap").mkdir()
        with pytest.raises(ValueError, match="no chunk archives"):
            list(iter_packets_chunked(tmp_path / "cap"))

    def test_gap_in_chunk_sequence(self, batch, tmp_path):
        save_packets_chunked(batch, tmp_path / "cap", 3_600.0)
        paths = sorted((tmp_path / "cap").glob("chunk-*.npz"))
        assert len(paths) > 2
        paths[1].unlink()
        with pytest.raises(ValueError, match="chunk-00001.npz"):
            list(iter_packets_chunked(tmp_path / "cap"))

    def test_malformed_chunk_name(self, batch, tmp_path):
        save_packets_chunked(batch, tmp_path / "cap", 3_600.0)
        rogue = tmp_path / "cap" / "chunk-extra.npz"
        rogue.write_bytes(b"")
        with pytest.raises(ValueError, match="chunk-extra.npz"):
            list(iter_packets_chunked(tmp_path / "cap"))

    def test_file_instead_of_directory(self, tmp_path):
        target = tmp_path / "cap"
        target.write_bytes(b"")
        with pytest.raises(FileNotFoundError, match="not a chunk directory"):
            list(iter_packets_chunked(target))


def _one_packet():
    return PacketBatch(
        ts=np.array([12.5]),
        src=np.array([7], dtype=np.uint32),
        dst=np.array([3], dtype=np.uint32),
        dport=np.array([443], dtype=np.uint16),
        proto=np.array([Protocol.TCP_SYN.value], dtype=np.uint8),
        ipid=np.array([54321], dtype=np.uint16),
    )


class TestPacketNpzBytes:
    """The byte-level wire format: edge cases the ingest path must eat."""

    def _roundtrip(self, batch):
        restored = packets_from_npz_bytes(packets_to_npz_bytes(batch))
        assert len(restored) == len(batch)
        for name in COLUMNS:
            a, b = getattr(batch, name), getattr(restored, name)
            assert np.array_equal(a, b)
            assert a.dtype == b.dtype
        return restored

    def test_empty_batch_round_trips(self):
        self._roundtrip(PacketBatch.empty())

    def test_single_packet_round_trips(self):
        self._roundtrip(_one_packet())

    def test_zero_packet_window_round_trips(self):
        # A batch confined to [100, 200) sliced at a window it does not
        # touch — the "zero-packet window" the chunked writer can emit.
        batch = _one_packet().time_slice(0.0, 10.0)
        assert len(batch) == 0
        self._roundtrip(batch)

    def test_truncated_bytes_name_the_label(self):
        data = packets_to_npz_bytes(_one_packet())
        with pytest.raises(ChunkCorruptionError, match="tenant-3"):
            packets_from_npz_bytes(data[: len(data) // 2], label="tenant-3")

    def test_foreign_npz_rejected(self):
        import io as _io

        buffer = _io.BytesIO()
        np.savez(buffer, magic=np.array("not-a-packet-log"))
        with pytest.raises(ChunkCorruptionError, match="magic"):
            packets_from_npz_bytes(buffer.getvalue())


class TestCrashSafeChunkIO:
    """Atomic writes, digest manifests, and corruption handling."""

    @pytest.fixture()
    def batch(self):
        rng = np.random.default_rng(9)
        n = 3_000
        return PacketBatch(
            ts=np.sort(rng.random(n) * 18_000.0),
            src=rng.integers(1, 40, n).astype(np.uint32),
            dst=rng.integers(0, 256, n).astype(np.uint32),
            dport=np.full(n, 23, dtype=np.uint16),
            proto=np.full(n, Protocol.TCP_SYN.value, dtype=np.uint8),
            ipid=np.zeros(n, dtype=np.uint16),
        )

    def test_atomic_save_leaves_no_tmp(self, batch, tmp_path):
        digest = save_packets_npz(batch, tmp_path / "one.npz")
        assert isinstance(digest, str) and len(digest) == 64
        assert [p.name for p in tmp_path.iterdir()] == ["one.npz"]

    def test_truncated_archive_names_file(self, batch, tmp_path):
        path = tmp_path / "one.npz"
        save_packets_npz(batch, path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(ChunkCorruptionError, match="one.npz"):
            load_packets_npz(path)

    def test_digest_mismatch_detected(self, batch, tmp_path):
        # A *valid* archive holding the wrong content: only the manifest
        # digest can catch the swap.
        save_packets_chunked(batch, tmp_path / "cap", 3_600.0)
        paths = sorted((tmp_path / "cap").glob("chunk-*.npz"))
        paths[0].write_bytes(paths[1].read_bytes())
        with pytest.raises(ChunkCorruptionError, match="manifest"):
            list(iter_packets_chunked(tmp_path / "cap"))

    def test_manifest_written_and_complete(self, batch, tmp_path):
        n = save_packets_chunked(batch, tmp_path / "cap", 3_600.0)
        manifest = load_manifest(tmp_path / "cap")
        assert manifest["complete"] is True
        assert len(manifest["chunks"]) == n

    def test_writer_dying_between_chunks_reports_valid_set(
        self, batch, tmp_path
    ):
        """Crash-consistency: a writer dying between chunk N and N+1
        leaves a manifest certifying exactly chunks 0..N."""
        writer = ChunkWriter(tmp_path / "cap", 3_600.0)
        written = []
        for _, _, chunk in batch.iter_time_chunks(3_600.0):
            if len(chunk) == 0:
                continue
            written.append(writer.write(chunk))
            if len(written) == 3:
                break  # simulated death: no close(), no further chunks
        manifest = load_manifest(tmp_path / "cap")
        assert manifest["complete"] is False
        assert sorted(manifest["chunks"]) == [p.name for p in written]
        valid, corrupt = verify_chunks(tmp_path / "cap")
        assert valid == written
        assert corrupt == []

    def test_chunk_present_but_unlisted_is_accepted(self, batch, tmp_path):
        # Writer died after the chunk rename, before the manifest
        # rewrite: the archive is complete (atomic rename), so readers
        # accept it on a successful parse.
        writer = ChunkWriter(tmp_path / "cap", 3_600.0)
        chunks = [
            c for _, _, c in batch.iter_time_chunks(3_600.0) if len(c)
        ]
        writer.write(chunks[0])
        save_packets_npz(chunks[1], tmp_path / "cap" / "chunk-00001.npz")
        loaded = list(iter_packets_chunked(tmp_path / "cap"))
        assert len(loaded) == 2
        assert np.array_equal(loaded[1].ts, chunks[1].ts)

    def test_quarantine_skips_and_accounts(self, batch, tmp_path):
        save_packets_chunked(batch, tmp_path / "cap", 3_600.0)
        paths = sorted((tmp_path / "cap").glob("chunk-*.npz"))
        paths[2].write_bytes(b"damaged beyond repair")
        health = RunHealth()
        loaded = list(
            iter_packets_chunked(
                tmp_path / "cap", on_corrupt="quarantine", health=health
            )
        )
        assert len(loaded) == len(paths) - 1
        assert health.quarantined_chunks == [str(paths[2])]
        valid, corrupt = verify_chunks(tmp_path / "cap")
        assert corrupt == [paths[2]]
        assert len(valid) == len(paths) - 1

    def test_invalid_on_corrupt_mode(self, batch, tmp_path):
        save_packets_chunked(batch, tmp_path / "cap", 3_600.0)
        with pytest.raises(ValueError, match="on_corrupt"):
            list(iter_packets_chunked(tmp_path / "cap", on_corrupt="ignore"))

    def test_damaged_manifest_raises(self, batch, tmp_path):
        save_packets_chunked(batch, tmp_path / "cap", 3_600.0)
        (tmp_path / "cap" / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ChunkCorruptionError, match=MANIFEST_NAME):
            list(iter_packets_chunked(tmp_path / "cap"))

    def test_directory_without_manifest_is_refused(self, batch, tmp_path):
        # Without its manifest no archive can be digest-checked, so the
        # directory is refused in either mode rather than parse-only read.
        save_packets_chunked(batch, tmp_path / "cap", 3_600.0)
        manifest = tmp_path / "cap" / MANIFEST_NAME
        manifest.unlink()
        for mode in ("raise", "quarantine"):
            with pytest.raises(
                ChunkCorruptionError, match=re.escape(str(manifest))
            ):
                list(iter_packets_chunked(tmp_path / "cap", on_corrupt=mode))
        with pytest.raises(ChunkCorruptionError, match=MANIFEST_NAME):
            verify_chunks(tmp_path / "cap")

    def test_writer_writes_manifest_before_first_chunk(self, tmp_path):
        ChunkWriter(tmp_path / "cap", 3_600.0)
        manifest = load_manifest(tmp_path / "cap")
        assert manifest["complete"] is False
        assert manifest["chunks"] == {}


class TestFlowLog:
    def test_roundtrip(self, flows, tmp_path):
        path = tmp_path / "flows.csv"
        save_flows_csv(flows, path)
        loaded = load_flows_csv(path)
        assert len(loaded) == 2
        assert loaded.router.tolist() == flows.router.tolist()
        assert loaded.packets.tolist() == flows.packets.tolist()
        assert loaded.src.tolist() == flows.src.tolist()

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_flows_csv(FlowTable(), path)
        assert len(load_flows_csv(path)) == 0

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\n1\n")
        with pytest.raises(ValueError):
            load_flows_csv(path)
