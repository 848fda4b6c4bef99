"""Unit tests for the telescope and darknet capture."""

import numpy as np
import pytest

from repro.config import event_timeout_seconds
from repro.net.prefix import Prefix
from repro.scanners.base import Scanner
from repro.telescope.capture import DarknetCapture
from repro.telescope.darknet import Telescope
from tests.test_scanner_base import coverage_session


@pytest.fixture()
def telescope():
    return Telescope.from_prefix(Prefix.parse("10.0.0.0/20"))


def make_scanners(n=3, coverage=0.5):
    return [
        Scanner(src=100 + i, behavior="t", sessions=[coverage_session(coverage)], seed=i)
        for i in range(n)
    ]


class TestTelescope:
    def test_size(self, telescope):
        assert telescope.size == 4_096

    def test_view_name(self, telescope):
        assert telescope.view().name == "darknet"

    def test_default_timeout_matches_rule(self, telescope):
        assert telescope.default_timeout() == pytest.approx(
            event_timeout_seconds(4_096)
        )

    def test_capture_only_dark_destinations(self, telescope):
        capture = telescope.capture(make_scanners())
        assert telescope.prefixes.contains_array(capture.packets.dst).all()

    def test_capture_sorted(self, telescope):
        capture = telescope.capture(make_scanners(5))
        assert np.all(np.diff(capture.packets.ts) >= 0)

    def test_capture_window(self, telescope):
        scanners = [
            Scanner(
                src=1, behavior="t",
                sessions=[coverage_session(0.9, start=0.0, duration=100.0)], seed=1,
            )
        ]
        capture = telescope.capture(scanners, window=(50.0, 100.0))
        assert capture.packets.ts.min() >= 50.0


class TestCapture:
    def test_summary(self, telescope):
        capture = telescope.capture(make_scanners(4, coverage=0.9))
        summary = capture.summary()
        assert summary["packets"] == len(capture)
        assert summary["source_ips"] == 4
        assert summary["dark_size"] == 4_096
        assert summary["dest_ips"] <= 4_096

    def test_day_slice(self, telescope):
        scanners = [
            Scanner(
                src=1, behavior="t",
                sessions=[coverage_session(0.9, start=90_000.0, duration=100.0)],
                seed=1,
            )
        ]
        capture = telescope.capture(scanners)
        assert len(capture.day_slice(0, 86_400.0)) == 0
        assert len(capture.day_slice(1, 86_400.0)) == len(capture)

    def test_packets_from(self, telescope):
        capture = telescope.capture(make_scanners(3, coverage=1.0))
        per_source = capture.packets_from({100})
        assert per_source == 4_096
        assert capture.packets_from(set()) == 0
        assert capture.packets_from({100, 101}) == 8_192

    def test_select_sources(self, telescope):
        capture = telescope.capture(make_scanners(3))
        sub = capture.select_sources({101})
        assert np.all(sub.src == 101)

    def test_capture_resorts_unsorted_batch(self, telescope):
        scanners = make_scanners(2)
        batch = scanners[0].emit(telescope.view())
        shuffled = batch.select(np.random.default_rng(0).permutation(len(batch)))
        capture = DarknetCapture(packets=shuffled, telescope=telescope)
        assert np.all(np.diff(capture.packets.ts) >= 0)


class TestChunkedCaptureSource:
    """The two chunk sources: the lazy sweep over a population
    (``emit_chunks``) and a digest-checked chunk directory
    (``DirectorySource``)."""

    def _capture(self, telescope):
        return telescope.capture(make_scanners(3, coverage=1.0))

    def _chunks(self, telescope, chunk_seconds=600.0):
        from repro.scanners.lazy import emit_chunks

        return list(
            emit_chunks(make_scanners(3, coverage=1.0), telescope.view(),
                        chunk_seconds)
        )

    def test_covers_all_packets(self, telescope):
        from repro.packet import PacketBatch

        capture = self._capture(telescope)
        chunks = self._chunks(telescope)
        restored = PacketBatch.concat([c.packets for c in chunks])
        assert len(restored) == len(capture)
        assert np.array_equal(restored.ts, capture.packets.ts)
        assert all(len(c) > 0 for c in chunks)
        assert [c.index for c in chunks] == sorted({c.index for c in chunks})

    def test_windows_epoch_aligned(self, telescope):
        for chunk in self._chunks(telescope):
            assert chunk.start % 600.0 == 0.0
            assert chunk.index == chunk.start / 600.0
            assert chunk.end == chunk.start + 600.0
            assert float(chunk.packets.ts.min()) >= chunk.start
            assert float(chunk.packets.ts.max()) < chunk.end

    def test_from_directory(self, telescope, tmp_path):
        from repro.io.packetlog import save_packets_chunked
        from repro.packet import PacketBatch
        from repro.parallel import DirectorySource

        capture = self._capture(telescope)
        save_packets_chunked(capture.packets, tmp_path / "cap", 600.0)
        chunks = list(DirectorySource(str(tmp_path / "cap")).chunks({}))
        restored = PacketBatch.concat([c.packets for c in chunks])
        assert len(restored) == len(capture)
        assert all(c.start % 600.0 == 0.0 for c in chunks)

    def test_from_directory_verifies_digests(self, telescope, tmp_path):
        from repro.core.faults import ChunkCorruptionError
        from repro.io.packetlog import save_packets_chunked
        from repro.parallel import DirectorySource

        directory = tmp_path / "cap"
        packets = self._capture(telescope).packets
        chunk_seconds = float(np.ptp(packets.ts)) / 4
        save_packets_chunked(packets, directory, chunk_seconds)
        # A whole, parseable archive under the wrong name: only the
        # manifest digest tells it apart.
        (directory / "chunk-00000.npz").write_bytes(
            (directory / "chunk-00001.npz").read_bytes()
        )
        with pytest.raises(ChunkCorruptionError, match="chunk-00000"):
            list(DirectorySource(str(directory)).chunks({}))

    def test_from_directory_needs_a_manifest(self, telescope, tmp_path):
        from repro.core.faults import ChunkCorruptionError
        from repro.io.packetlog import save_packets_chunked
        from repro.parallel import DirectorySource

        directory = tmp_path / "cap"
        save_packets_chunked(self._capture(telescope).packets, directory, 600.0)
        (directory / "MANIFEST.json").unlink()
        with pytest.raises(ChunkCorruptionError, match="manifest"):
            list(DirectorySource(str(directory)).chunks({}))

    def test_invalid_chunk_seconds(self, telescope):
        with pytest.raises(ValueError):
            self._chunks(telescope, 0.0)
