"""Reproduction of "Aggressive Internet-Wide Scanners: Network Impact
and Longitudinal Characterization" (CoNEXT 2023).

The package provides:

* a synthetic Internet / scanner / telescope / ISP simulation substrate
  (the paper's restricted datasets cannot be redistributed), and
* the paper's full analysis pipeline: darknet events, the three
  aggressive-hitter definitions, network-impact measurement, and the
  longitudinal characterization and validation studies.

Quickstart::

    from repro import run_study, tiny_scenario

    report = run_study(tiny_scenario())
    print(report.dataset_summary())
    print(len(report.detections[1]), "aggressive hitters (definition 1)")
"""

from repro.config import DetectionConfig, EventConfig, StudyConfig, event_timeout_seconds
from repro.core.detection import detect_all, jaccard
from repro.core.events import build_events
from repro.core.pipeline import StudyReport, run_study
from repro.core.streaming import (
    StreamingDetector,
    StreamingEventBuilder,
    stream_detect,
)
from repro.core.telemetry import PipelineTelemetry
from repro.sim.runner import run_scenario
from repro.telescope.chunks import CaptureChunk
from repro.sim.scenario import (
    Scenario,
    darknet_year_scenario,
    flows_day_scenario,
    flows_week_scenario,
    stream_72h_scenario,
    tiny_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "CaptureChunk",
    "DetectionConfig",
    "EventConfig",
    "PipelineTelemetry",
    "Scenario",
    "StreamingDetector",
    "StreamingEventBuilder",
    "StudyConfig",
    "StudyReport",
    "__version__",
    "build_events",
    "darknet_year_scenario",
    "detect_all",
    "event_timeout_seconds",
    "flows_day_scenario",
    "flows_week_scenario",
    "jaccard",
    "run_scenario",
    "run_study",
    "stream_detect",
    "stream_72h_scenario",
    "tiny_scenario",
]
