"""Differential harness: every streaming run shape against one oracle.

Each registered run path detects over the ``tiny`` scenario and must
give the event table, thresholds and AH sets of the batch oracle,
``detect_all(build_events(capture))``.  Every offline streaming run goes
through the one shard driver (:func:`repro.parallel._detect`), so the
paths must also agree on their telemetry: the same gauge names, the
same stage names, and the same per-chunk gauges (chunk count, peak
chunk packets, watermark lag) whatever the worker count or packet
source.

Every case also collects the ISP flows (``collect_flows``), which must
equal the oracle's, table and router-day totals alike.  Flow synthesis
runs serially in process and never checkpoints: a checkpointed run
leaves no ``flows/`` entry in its directory, and a stale ``flows/``
directory left there by an older run is neither read nor written.

New paths (engine ingest, the pooled serve path with journal replay,
summary queries) register here as further cases.
"""

import numpy as np
import pytest

from repro.config import DEFAULT_CHUNK_SECONDS
from repro.core.faults import CheckpointStore
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

_FLOW_COLUMNS = ("router", "day", "src", "dport", "proto", "packets", "sampled")

#: (case id, run_scenario keywords); ``capture_dir`` / ``checkpoint_dir``
#: set to True are replaced by the fixture's directories, and
#: ``stale_flows`` plants a flow checkpoint directory as older runs
#: wrote it under the checkpoint directory before the run.
_CASES = [
    ("streaming-1", {"workers": 1}),
    ("streaming-2", {"workers": 2}),
    ("streaming-3", {"workers": 3}),
    ("checkpoint-1", {"workers": 1, "checkpoint_dir": True}),
    (
        "stale-flows-2",
        {"workers": 2, "checkpoint_dir": True, "stale_flows": True},
    ),
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
        "flows": batch.collect_flows(),
        "capture_dir": str(root / "capture"),
        "root": root,
        "runs": {},
        "planted": {},
    }


def _plant_stale_flows(directory):
    """A flow checkpoint directory as sharded flow synthesis wrote it:
    ``run.json`` plus one ``flows-<task>.ckpt`` per task.  The payload
    is junk, so a run that loaded it could not match the oracle.
    Returns the planted files' bytes."""
    store = CheckpointStore(directory)
    store.write_meta({"kind": "flows", "workers": 2, "n_tasks": 2})
    for task in range(2):
        store.save("flows", task, b"stale flow columns")
    return _tree_bytes(directory)


def _tree_bytes(directory):
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def _run(oracle, case):
    case_id, options = case
    if case_id not in oracle["runs"]:
        options = dict(options)
        if options.pop("capture_dir", False):
            options["capture_dir"] = oracle["capture_dir"]
        if options.pop("checkpoint_dir", False):
            options["checkpoint_dir"] = str(oracle["root"] / case_id)
        if options.pop("stale_flows", False):
            oracle["planted"][case_id] = _plant_stale_flows(
                oracle["root"] / case_id / "flows"
            )
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

    table, totals = result.collect_flows()
    oracle_table, oracle_totals = oracle["flows"]
    assert len(table) > 0
    for column in _FLOW_COLUMNS:
        assert np.array_equal(
            getattr(table, column), getattr(oracle_table, column)
        ), column
    assert totals == oracle_totals
    flows_dir = oracle["root"] / case[0] / "flows"
    if case[0] in oracle["planted"]:
        assert _tree_bytes(flows_dir) == oracle["planted"][case[0]]
    else:
        assert not flows_dir.exists()
