"""Shared scenario fixtures for the benchmark harness.

Each fixture runs one of the paper's dataset scenarios exactly once per
session; the individual benchmarks then time and print the *analyses*
(detection, joins, rankings) over those datasets, and write the
rendered tables to ``benchmarks/results/`` so the regenerated artifacts
survive the run.

Run with::

    pytest benchmarks/ --benchmark-only

Add ``-s`` to also see each table on stdout.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.pipeline import StudyReport, run_study
from repro.sim.scenario import (
    darknet_year_scenario,
    flows_day_scenario,
    flows_week_scenario,
    stream_72h_scenario,
)

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


class BenchSections:
    """The ``BENCH_*.json`` sections measured in one session.

    :meth:`write` rewrites a file with only the sections measured in
    this session: the first write replaces whatever the file held,
    later writes add their sections.  A section whose test did not run
    (a skip on a host with too few cores) is absent from the fresh
    file, so ``benchmarks/perf_gate.py`` reports it "n/a" instead of
    passing a committed number against itself.
    """

    def __init__(self):
        self._files: dict = {}

    def write(self, path: Path, section: str, payload: dict) -> None:
        sections = self._files.setdefault(Path(path), {})
        sections[section] = payload
        Path(path).write_text(
            json.dumps(sections, indent=2, sort_keys=True) + "\n"
        )


@pytest.fixture(scope="session")
def bench_sections() -> BenchSections:
    return BenchSections()


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a rendered artifact and persist it under results/."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def darknet_2021() -> StudyReport:
    """The Darknet-1 (2021) longitudinal dataset."""
    return run_study(darknet_year_scenario(2021))


@pytest.fixture(scope="session")
def darknet_2022() -> StudyReport:
    """The Darknet-2 (2022) longitudinal dataset."""
    return run_study(darknet_year_scenario(2022))


@pytest.fixture(scope="session")
def flows_week() -> StudyReport:
    """The Flows-1 week (2022-01-15 .. 01-21) with the ISP model."""
    return run_study(flows_week_scenario())


@pytest.fixture(scope="session")
def flows_day() -> StudyReport:
    """The Flows-2 day (2022-10-01) with the ISP model."""
    return run_study(flows_day_scenario())


@pytest.fixture(scope="session")
def stream_72h() -> StudyReport:
    """The 72-hour mirrored packet streams at both stations."""
    return run_study(stream_72h_scenario())
