"""Unit tests for the scenario runner and result surface."""

import dataclasses

import numpy as np
import pytest

from repro.sim.runner import run_scenario
from repro.sim.scenario import darknet_year_scenario, tiny_scenario

_EVENT_COLUMNS = (
    "src", "dport", "proto", "start", "end", "packets", "unique_dsts",
)


def _assert_same_outcome(batch_result, streaming_result):
    """Streaming and batch must agree on events and every detection."""
    for column in _EVENT_COLUMNS:
        assert np.array_equal(
            getattr(batch_result.events, column),
            getattr(streaming_result.events, column),
        ), column
    for definition in (1, 2, 3):
        b = batch_result.detections[definition]
        s = streaming_result.detections[definition]
        assert b.sources == s.sources
        assert b.threshold == s.threshold
        assert b.daily_new == s.daily_new
        assert b.daily_active == s.daily_active


class TestScenarioSurface:
    def test_window(self):
        scenario = tiny_scenario()
        assert scenario.window() == (0.0, scenario.days * 86_400.0)
        assert scenario.duration == scenario.days * 86_400.0

    def test_dark_prefix_matches_config(self, tiny_result):
        assert tiny_result.telescope.size == 2 ** (
            32 - tiny_result.scenario.dark_prefix_length
        )


class TestResultErrors:
    @pytest.fixture(scope="class")
    def darknet_only(self):
        import dataclasses

        scenario = dataclasses.replace(
            tiny_scenario(),
            with_isp=False,
            with_campus=False,
            flow_days=(),
            stream_window=None,
        )
        return run_scenario(scenario)

    def test_no_isp_model(self, darknet_only):
        assert darknet_only.merit is None
        assert darknet_only.campus is None
        with pytest.raises(RuntimeError, match="without an ISP"):
            darknet_only.collect_flows()
        with pytest.raises(RuntimeError, match="without stream"):
            darknet_only.record_streams()

    def test_detections_still_available(self, darknet_only):
        assert set(darknet_only.detections) == {1, 2, 3}
        assert len(darknet_only.capture) > 0

    def test_no_flow_days_configured(self):
        import dataclasses

        scenario = dataclasses.replace(tiny_scenario(), flow_days=())
        result = run_scenario(scenario)
        with pytest.raises(RuntimeError, match="no flow days"):
            result.collect_flows()


class TestStreamingMode:
    @pytest.fixture(scope="class")
    def tiny_streaming(self):
        return run_scenario(tiny_scenario(), mode="streaming")

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            run_scenario(tiny_scenario(), mode="bogus")

    def test_matches_batch_on_tiny(self, tiny_result, tiny_streaming):
        _assert_same_outcome(tiny_result, tiny_streaming)

    def test_mode_and_telemetry_attached(self, tiny_result, tiny_streaming):
        assert tiny_result.mode == "batch"
        assert tiny_result.telemetry is None
        assert tiny_streaming.mode == "streaming"
        telemetry = tiny_streaming.telemetry
        assert telemetry is not None
        assert telemetry.total_packets == len(tiny_streaming.capture)
        assert telemetry.total_events == len(tiny_streaming.events)
        assert telemetry.chunks > 1
        assert telemetry.watermark == float(
            tiny_streaming.capture.packets.ts.max()
        )
        # Watermark lag is bounded by one chunk window.
        assert 0 <= telemetry.max_watermark_lag <= telemetry.chunk_seconds
        # One worker runs the shard driver too: chunks are produced,
        # folded, then merged and finished.
        assert set(telemetry.stages) == {"generate", "detect", "merge"}

    def test_bounded_open_flow_state(self, tiny_streaming):
        telemetry = tiny_streaming.telemetry
        # The detector never holds the full event population as open
        # state, and finish() flushes everything.
        assert 0 < telemetry.peak_open_flows < len(tiny_streaming.events)
        assert telemetry.final_open_flows == 0

    def test_chunk_seconds_from_scenario(self):
        scenario = dataclasses.replace(
            tiny_scenario(), chunk_seconds=43_200.0
        )
        result = run_scenario(scenario, mode="streaming")
        assert result.telemetry.chunk_seconds == 43_200.0
        assert result.telemetry.chunks <= scenario.days * 2 + 1

    def test_explicit_chunk_seconds_wins(self):
        scenario = dataclasses.replace(
            tiny_scenario(), chunk_seconds=43_200.0
        )
        result = run_scenario(
            scenario, mode="streaming", chunk_seconds=86_400.0
        )
        assert result.telemetry.chunk_seconds == 86_400.0


class TestStreamingDarknet2021:
    """The acceptance scenario: darknet-2021 (shortened horizon, same
    population and code paths) must stream to identical detections with
    bounded open-flow state."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return darknet_year_scenario(2021, days=6)

    @pytest.fixture(scope="class")
    def batch_result(self, scenario):
        return run_scenario(scenario)

    @pytest.fixture(scope="class")
    def streaming_result(self, scenario):
        return run_scenario(scenario, mode="streaming")

    def test_identical_detections(self, batch_result, streaming_result):
        assert len(batch_result.events) > 50_000
        assert all(
            len(batch_result.detections[d].sources) > 0 for d in (1, 2, 3)
        )
        _assert_same_outcome(batch_result, streaming_result)

    def test_bounded_open_flow_state(self, streaming_result):
        telemetry = streaming_result.telemetry
        assert telemetry.final_open_flows == 0
        # Peak live state stays a fraction of the event population: the
        # pipeline never degenerates into holding everything open.
        assert 0 < telemetry.peak_open_flows < len(streaming_result.events) // 2


class TestResultHelpers:
    def test_ah_sources_per_definition(self, tiny_result):
        for definition in (1, 2, 3):
            assert tiny_result.ah_sources(definition) == (
                tiny_result.detections[definition].sources
            )

    def test_event_timeout_override(self):
        import dataclasses

        scenario = dataclasses.replace(tiny_scenario(), event_timeout=60.0)
        result = run_scenario(scenario)
        default = run_scenario(tiny_scenario())
        # A much shorter timeout shatters slow flows into more events.
        assert len(result.events) > len(default.events)

    def test_stream_custom_sources(self, tiny_result):
        # Passing an explicit AH set bypasses the cache and changes the
        # attributed traffic.
        custom = tiny_result.record_streams(ah_sources=set())
        assert custom["merit"].ah_pps.sum() == 0
        cached = tiny_result.record_streams()
        assert cached["merit"].ah_pps.sum() > 0

    def test_flow_scanners_exclude_spoofed(self, tiny_result):
        srcs = {int(s.src) for s in tiny_result.flow_scanners()}
        assert 0 not in srcs
