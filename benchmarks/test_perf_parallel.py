"""Determinism benchmark for shard-parallel detection on real data.

Replays the darknet-year capture from a ``save_packets_chunked``
directory through :func:`parallel_detect_directory` at 2 workers — the
``--capture-dir`` path — and checks it against the serial streaming
pipeline: the sharded run must return *identical* events and
detections.  The 4-worker >= 2x speedup bar on sharded detection is
enforced by ``test_perf_emit.py::test_perf_lazy_parallel_speedup``, on
the generate+detect path every sharded simulation run takes.
"""

import numpy as np
import pytest

from repro.core.streaming import stream_detect
from repro.io.packetlog import save_packets_chunked
from repro.parallel import parallel_detect_directory
from repro.sim.runner import build_world
from repro.sim.scenario import darknet_year_scenario

CHUNK_SECONDS = 3_600.0


@pytest.fixture(scope="module")
def darknet_world(tmp_path_factory):
    """The darknet-year capture, saved as a chunk directory."""
    scenario = darknet_year_scenario(2021)
    _, telescope, _, capture, _, _, timeout = build_world(scenario)
    directory = tmp_path_factory.mktemp("darknet") / "capture"
    save_packets_chunked(capture.packets, directory, CHUNK_SECONDS)
    return scenario, capture, directory, telescope.size, timeout


def test_perf_parallel_matches_serial(darknet_world):
    """Determinism on the real dataset: 2-way shard == serial, exactly."""
    scenario, capture, directory, dark_size, timeout = darknet_world
    detect_args = (
        timeout,
        dark_size,
        scenario.detection,
        scenario.clock.seconds_per_day,
    )
    events, detections = stream_detect(
        (c for _, _, c in capture.packets.iter_time_chunks(CHUNK_SECONDS)),
        *detect_args,
    )
    result = parallel_detect_directory(directory, *detect_args, workers=2)
    assert np.array_equal(result.events.src, events.src)
    assert np.array_equal(result.events.start, events.start)
    assert np.array_equal(result.events.packets, events.packets)
    for definition in (1, 2, 3):
        assert result.detections[definition].sources == detections[definition].sources
        assert result.detections[definition].threshold == detections[definition].threshold
