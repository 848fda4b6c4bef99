"""Differential harness: every streaming run shape against one oracle.

Each registered run path detects over the ``tiny`` scenario and must
give the event table, thresholds and AH sets of the batch oracle,
``detect_all(build_events(capture))``.  Every offline streaming run goes
through the one shard driver (:func:`repro.parallel._detect`), so the
paths must also agree on their telemetry: the same gauge names, the
same stage names, and the same per-chunk gauges (chunk count, peak
chunk packets, watermark lag) whatever the worker count or packet
source.

New paths (engine ingest, the pooled serve path with journal replay,
summary queries) register here as further cases.
"""

import pytest

from repro.config import DEFAULT_CHUNK_SECONDS
from repro.io.packetlog import save_packets_chunked
from repro.sim.runner import run_scenario
from repro.sim.scenario import tiny_scenario
from tests.test_streaming import (
    _assert_detections_identical,
    _assert_tables_identical,
)

#: Gauges that depend only on the capture and its chunking — never on
#: the worker count, the packet source or a checkpoint directory.
_CAPTURE_GAUGES = (
    "chunks",
    "total_packets",
    "total_events",
    "final_open_flows",
    "peak_chunk_packets",
    "watermark",
    "max_watermark_lag",
)

#: (case id, run_scenario keywords); ``capture_dir`` / ``checkpoint_dir``
#: set to True are replaced by the fixture's directories.
_CASES = [
    ("streaming-1", {"workers": 1}),
    ("streaming-2", {"workers": 2}),
    ("streaming-3", {"workers": 3}),
    ("checkpoint-1", {"workers": 1, "checkpoint_dir": True}),
    ("replay-1", {"workers": 1, "capture_dir": True}),
    ("replay-2", {"workers": 2, "capture_dir": True}),
]


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    """The batch oracle over ``tiny`` plus its saved chunk directory.

    Batch mode is ``detect_all(build_events(capture))`` over the
    materialized capture.
    """
    batch = run_scenario(tiny_scenario(), mode="batch")
    root = tmp_path_factory.mktemp("differential")
    save_packets_chunked(
        batch.capture.packets, root / "capture", DEFAULT_CHUNK_SECONDS
    )
    return {
        "events": batch.events.sorted_canonical(),
        "detections": batch.detections,
        "capture_dir": str(root / "capture"),
        "root": root,
        "runs": {},
    }


def _run(oracle, case):
    case_id, options = case
    if case_id not in oracle["runs"]:
        options = dict(options)
        if options.pop("capture_dir", False):
            options["capture_dir"] = oracle["capture_dir"]
        if options.pop("checkpoint_dir", False):
            options["checkpoint_dir"] = str(oracle["root"] / case_id)
        oracle["runs"][case_id] = run_scenario(
            tiny_scenario(), mode="streaming", **options
        )
    return oracle["runs"][case_id]


@pytest.mark.parametrize("case", _CASES, ids=[case_id for case_id, _ in _CASES])
def test_run_path_equals_oracle(oracle, case):
    result = _run(oracle, case)
    _assert_tables_identical(result.events, oracle["events"])
    _assert_detections_identical(result.detections, oracle["detections"])

    telemetry = result.telemetry
    reference = _run(oracle, _CASES[0]).telemetry
    assert telemetry.as_dict().keys() == reference.as_dict().keys()
    assert set(telemetry.stages) == {"generate", "detect", "merge"}
    for gauge in _CAPTURE_GAUGES:
        assert getattr(telemetry, gauge) == getattr(reference, gauge), gauge
    assert telemetry.chunks > 1
    assert telemetry.peak_chunk_packets > 0
    assert telemetry.max_watermark_lag > 0
    assert telemetry.workers == case[1]["workers"]
