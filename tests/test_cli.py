"""Tests for the command-line interface."""

import pytest

from repro import cli


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_scenario_default(self):
        args = cli.build_parser().parse_args(["summary"])
        assert args.scenario == "tiny"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            cli._scenario("bogus")

    def test_blocklist_day_flag(self):
        args = cli.build_parser().parse_args(["blocklist", "--day", "2"])
        assert args.day == 2

    def test_mode_default_and_choices(self):
        args = cli.build_parser().parse_args(["summary"])
        assert args.mode == "batch"
        args = cli.build_parser().parse_args(["--mode", "streaming", "summary"])
        assert args.mode == "streaming"
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["--mode", "bogus", "summary"])

    def test_chunk_hours_requires_streaming(self):
        with pytest.raises(SystemExit, match="requires --mode streaming"):
            cli.main(["--chunk-hours", "2", "summary"])

    def test_workers_allowed_in_batch_mode(self, capsys):
        # Batch mode accepts --workers and runs serially; the flow
        # synthesis behind impact/mitigation is serial in every mode.
        assert (
            cli.main(["--scenario", "tiny", "--workers", "2", "impact"]) == 0
        )
        out = capsys.readouterr().out
        assert "Router-1" in out

    def test_workers_must_be_positive(self):
        with pytest.raises(SystemExit, match=">= 1"):
            cli.main(["--mode", "streaming", "--workers", "0", "summary"])
        with pytest.raises(SystemExit, match=">= 1"):
            cli.main(["--workers", "0", "summary"])


class TestCommands:
    """End-to-end CLI runs over the tiny scenario (one per command)."""

    def test_summary(self, capsys):
        assert cli.main(["--scenario", "tiny", "summary"]) == 0
        out = capsys.readouterr().out
        assert "darknet packets" in out
        assert "Definition 1" in out
        assert "Jaccard" in out

    def test_summary_streaming(self, capsys):
        assert (
            cli.main(
                [
                    "--scenario", "tiny",
                    "--mode", "streaming",
                    "--chunk-hours", "6",
                    "summary",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Streaming pipeline telemetry" in out
        assert "peak open flows" in out
        assert "max watermark lag" in out
        assert "stage detect" in out
        # Same detections as the batch table would show.
        assert "Definition 1" in out

    def test_summary_streaming_workers(self, capsys):
        assert (
            cli.main(
                [
                    "--scenario", "tiny",
                    "--mode", "streaming",
                    "--workers", "2",
                    "summary",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Streaming pipeline telemetry" in out
        assert "workers" in out
        assert "worker 0" in out
        assert "worker 1" in out
        assert "Definition 1" in out

    def test_impact(self, capsys):
        assert cli.main(["--scenario", "tiny", "impact"]) == 0
        out = capsys.readouterr().out
        assert "Router-1" in out
        assert "%" in out

    def test_blocklist(self, capsys):
        assert cli.main(["--scenario", "tiny", "blocklist", "--day", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("# ip,definitions")
        assert "entries" in captured.err

    def test_trends(self, capsys):
        assert cli.main(["--scenario", "tiny", "trends"]) == 0
        out = capsys.readouterr().out
        assert "daily AH" in out

    def test_ports(self, capsys):
        assert cli.main(["--scenario", "tiny", "ports"]) == 0
        out = capsys.readouterr().out
        assert "service" in out
        assert "zmap" in out

    def test_churn(self, capsys):
        assert cli.main(["--scenario", "tiny", "churn"]) == 0
        out = capsys.readouterr().out
        assert "retention" in out
        assert "refresh" in out

    def test_mitigation(self, capsys):
        assert cli.main(
            ["--scenario", "tiny", "mitigation", "--lag", "0", "--max-entries", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "blocked pkts" in out
        assert "AH coverage" in out
        assert "Overall:" in out


class TestCaptureDirErrors:
    """The quarantine hint follows a damaged archive under strict
    reads only: quarantine mode already skips those, and it refuses a
    bad manifest too."""

    @pytest.fixture()
    def capture_dir(self, tmp_path):
        import numpy as np

        from repro.io.packetlog import save_packets_chunked
        from repro.packet import PacketBatch, Protocol

        rng = np.random.default_rng(7)
        n = 2_000
        batch = PacketBatch(
            ts=np.sort(rng.random(n) * 200_000.0),
            src=rng.integers(1, 50, n).astype(np.uint32),
            dst=rng.integers(0, 64, n).astype(np.uint32),
            dport=np.full(n, 22, dtype=np.uint16),
            proto=np.full(n, Protocol.TCP_SYN.value, dtype=np.uint8),
            ipid=np.zeros(n, dtype=np.uint16),
        )
        save_packets_chunked(batch, tmp_path / "cap", 50_000.0)
        return tmp_path / "cap"

    @staticmethod
    def _error(capture_dir, on_corrupt):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["--scenario", "tiny", "--mode", "streaming",
                 "--capture-dir", str(capture_dir),
                 "--on-corrupt", on_corrupt, "summary"]
            )
        return str(exc.value.code)

    def test_damaged_chunk_under_strict_reads_suggests_quarantine(
        self, capture_dir
    ):
        (capture_dir / "chunk-00000.npz").write_bytes(
            (capture_dir / "chunk-00001.npz").read_bytes()
        )
        message = self._error(capture_dir, "raise")
        assert "chunk-00000.npz" in message
        assert "use --on-corrupt quarantine" in message

    @pytest.mark.parametrize("on_corrupt", ["raise", "quarantine"])
    def test_missing_manifest_gets_no_hint(self, capture_dir, on_corrupt):
        (capture_dir / "MANIFEST.json").unlink()
        message = self._error(capture_dir, on_corrupt)
        assert "missing chunk manifest" in message
        assert "--on-corrupt" not in message
