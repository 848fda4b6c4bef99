"""Tests for the full study report and packet-log serialization."""

import hashlib

import numpy as np
import pytest

from repro.core.report import render_full_report
from repro.io.packetlog import load_packets_npz, save_packets_npz
from repro.packet import PacketBatch
from tests.test_packet import make_batch


class TestFullReport:
    @pytest.fixture(scope="class")
    def text(self, tiny_report):
        return render_full_report(tiny_report)

    def test_all_sections_present(self, text):
        for heading in (
            "Dataset",
            "Detection (the three AH definitions)",
            "Temporal trends",
            "Top targeted services",
            "Origins",
            "Validation (acknowledged lists + honeypots)",
            "List churn",
            "Network impact (sampled flows)",
            "Network impact (packet streams)",
        ):
            assert heading in text, f"missing section {heading!r}"

    def test_definitions_enumerated(self, text):
        for definition in ("Definition 1", "Definition 2", "Definition 3"):
            assert definition in text

    def test_stations_listed(self, text):
        assert "merit" in text
        assert "campus" in text

    def test_report_is_plain_text(self, text):
        assert text.endswith("\n")
        assert "\t" not in text

    def test_cli_report(self, capsys):
        from repro import cli

        assert cli.main(["--scenario", "tiny", "report"]) == 0
        out = capsys.readouterr().out
        assert "full study report" in out
        assert "Jaccard" in out

    def test_darknet_only_report_skips_isp_sections(self):
        import dataclasses

        from repro.core.pipeline import run_study
        from repro.sim.scenario import tiny_scenario

        scenario = dataclasses.replace(
            tiny_scenario(),
            with_isp=False,
            with_campus=False,
            flow_days=(),
            stream_window=None,
        )
        text = render_full_report(run_study(scenario))
        assert "Network impact (sampled flows)" not in text
        assert "Network impact (packet streams)" not in text
        assert "Detection (the three AH definitions)" in text


#: sha256 of ``render_full_report`` on the tiny scenario, recorded
#: before the report's source-set queries moved onto the capture's
#: per-source index; batch and sharded streaming render the same text.
TINY_REPORT_SHA256 = "e4ad8f6727341f2eaf87f96649b28f033e8e265d229e2578849fb43edb107bf4"


class TestReportGolden:
    @pytest.fixture(scope="class")
    def streaming_report(self):
        from repro.core.pipeline import run_study
        from repro.sim.scenario import tiny_scenario

        return run_study(tiny_scenario(), mode="streaming", workers=2)

    @staticmethod
    def digest(report) -> str:
        return hashlib.sha256(render_full_report(report).encode()).hexdigest()

    def test_batch_digest(self, tiny_report):
        assert self.digest(tiny_report) == TINY_REPORT_SHA256

    def test_sharded_streaming_digest(self, streaming_report):
        assert self.digest(streaming_report) == TINY_REPORT_SHA256

    @pytest.mark.parametrize("mode", ["batch", "streaming"])
    def test_no_full_capture_isin(self, mode, tiny_report, streaming_report, monkeypatch):
        # Source-set questions go through the capture's per-source
        # index; a membership pass over a capture-long array is a
        # rescan of the whole capture.
        from repro.core.pipeline import StudyReport

        base = tiny_report if mode == "batch" else streaming_report
        report = StudyReport(result=base.result)  # fresh caches
        n = len(report.result.capture)  # materializes a lazy capture
        assert n > 0
        real_isin = np.isin
        lengths = []

        def guarded(element, test_elements, *args, **kwargs):
            lengths.append(np.size(element))
            lengths.append(np.size(test_elements))
            return real_isin(element, test_elements, *args, **kwargs)

        monkeypatch.setattr(np, "isin", guarded)
        render_full_report(report)
        assert n not in lengths


class TestPacketLog:
    def test_roundtrip(self, tmp_path):
        batch = make_batch(500, seed=9)
        path = tmp_path / "capture.npz"
        save_packets_npz(batch, path)
        loaded = load_packets_npz(path)
        assert len(loaded) == 500
        assert np.array_equal(loaded.ts, batch.ts)
        assert np.array_equal(loaded.src, batch.src)
        assert np.array_equal(loaded.dst, batch.dst)
        assert np.array_equal(loaded.dport, batch.dport)
        assert np.array_equal(loaded.proto, batch.proto)
        assert np.array_equal(loaded.ipid, batch.ipid)
        assert loaded.src.dtype == np.uint32

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_packets_npz(PacketBatch.empty(), path)
        assert len(load_packets_npz(path)) == 0

    def test_magic_validated(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez_compressed(path, magic=np.array("something-else"), ts=np.zeros(1))
        with pytest.raises(ValueError):
            load_packets_npz(path)

    def test_compression_effective(self, tmp_path):
        # A million-ish-row capture with much repetition compresses well.
        batch = make_batch(50_000, seed=1)
        batch.src[:] = 42  # constant column
        path = tmp_path / "capture.npz"
        save_packets_npz(batch, path)
        raw_bytes = sum(
            a.nbytes
            for a in (batch.ts, batch.src, batch.dst, batch.dport, batch.proto, batch.ipid)
        )
        assert path.stat().st_size < raw_bytes
