"""Drives a scenario end-to-end: Internet -> scanners -> telescope ->
events -> detections, with lazy ISP flow / stream collection on top.

``run_scenario`` is the single entry point every example and benchmark
uses; the returned :class:`ScenarioResult` caches the expensive pieces
so the analyses can be re-run cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.config import DEFAULT_CHUNK_SECONDS
from repro.core.detection import DetectionResult, detect_all
from repro.core.events import EventTable, build_events
from repro.core.telemetry import PipelineTelemetry
from repro.flows.isp import ISPNetwork, build_campus_like, build_merit_like
from repro.flows.netflow import NetflowExporter
from repro.flows.stream import StreamMonitor
from repro.net.internet import Internet, build_internet
from repro.scanners.population import ScannerPopulation, build_population
from repro.sim.scenario import Scenario
from repro.telescope.capture import DarknetCapture
from repro.telescope.darknet import Telescope


@dataclass
class ScenarioResult:
    """Everything a scenario produced, plus lazy ISP collection."""

    scenario: Scenario
    internet: Internet
    telescope: Telescope
    population: ScannerPopulation
    events: EventTable
    detections: Dict[int, DetectionResult]
    merit: Optional[ISPNetwork] = None
    campus: Optional[ISPNetwork] = None
    #: how the events/detections were produced ("batch" or "streaming").
    mode: str = "batch"
    #: pipeline counters/gauges; populated only by streaming runs.
    telemetry: Optional[PipelineTelemetry] = None
    #: materialized capture; ``None`` after lazy-generation runs until
    #: an analysis asks for it through the ``capture`` property.
    _capture: Optional[DarknetCapture] = field(default=None, repr=False)
    _flow_cache: Optional[tuple] = field(default=None, repr=False)
    _stream_cache: Optional[dict] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def capture(self) -> DarknetCapture:
        """The darknet capture, materialized on first access.

        Streaming and parallel runs generate the capture lazily and
        never hold it whole; the packet-level analyses (Table 1, the
        characterization figures...) still can ask for the full batch
        here, which rebuilds it deterministically — bit-identical to
        what the pipeline consumed — and caches it on the result.
        """
        if self._capture is None:
            self._capture = self.telescope.capture(
                self.population.scanners, self.scenario.window()
            )
        return self._capture

    @property
    def clock(self):
        """The scenario's calendar."""
        return self.scenario.clock

    @property
    def dark_size(self) -> int:
        """Number of dark addresses observed."""
        return self.telescope.size

    def ah_sources(self, definition: int = 1) -> set:
        """The AH set for one definition."""
        return self.detections[definition].sources

    def flow_scanners(self) -> list:
        """Scanners materialized at the ISP routers: the union of all
        detected AH plus every acknowledged-org scanner (needed for the
        Table 4 ACKed impact)."""
        wanted = set()
        for result in self.detections.values():
            wanted |= result.sources
        wanted |= self.population.acked.all_fleet_ips()
        return self.population.scanners_for(wanted)

    # ------------------------------------------------------------------
    def collect_flows(
        self,
        exporter: Optional[NetflowExporter] = None,
        seed_offset: int = 101,
    ) -> tuple:
        """NetFlow at the ISP for the scenario's flow days.

        Returns ``(flow_table, totals)``; cached after the first call
        with default arguments.  Synthesis runs serially in process,
        whatever the run's worker count or checkpoint directory: it
        neither reads nor writes a checkpoint.
        """
        if exporter is None and self._flow_cache is not None:
            return self._flow_cache
        if self.merit is None:
            raise RuntimeError("scenario was built without an ISP model")
        if not self.scenario.flow_days:
            raise RuntimeError("scenario has no flow days configured")
        rng = np.random.default_rng(self.scenario.seed + seed_offset)
        days = self.scenario.flow_days
        window = (
            min(days) * self.clock.seconds_per_day,
            (max(days) + 1) * self.clock.seconds_per_day,
        )
        table, true_totals = self.merit.collect_scanner_flows(
            self.flow_scanners(),
            window,
            self.clock,
            rng,
            exporter,
            telemetry=self.telemetry,
        )
        totals = self.merit.router_day_totals(days, true_totals, self.clock, rng)
        result = (table, totals)
        if exporter is None:
            self._flow_cache = result
        return result

    def record_streams(
        self,
        ah_sources: Optional[set] = None,
        seed_offset: int = 202,
    ) -> dict:
        """Per-second stream series at both stations (Figure 1/2)."""
        if ah_sources is None and self._stream_cache is not None:
            return self._stream_cache
        if self.merit is None or self.campus is None:
            raise RuntimeError("scenario was built without stream stations")
        window = self.scenario.stream_window
        if window is None:
            raise RuntimeError("scenario has no stream window configured")
        sources = ah_sources if ah_sources is not None else self.ah_sources(1)
        scanners = self.population.scanners_for(sources)
        rng = np.random.default_rng(self.scenario.seed + seed_offset)
        out = {}
        for network in (self.merit, self.campus):
            monitor = StreamMonitor(network=network, clock=self.clock)
            out[network.name] = monitor.record(scanners, window, rng)
        if ah_sources is None:
            self._stream_cache = out
        return out


def _build_world_base(scenario: Scenario) -> tuple:
    """Build the simulated world for a scenario — without the capture.

    Returns ``(internet, telescope, population, merit, campus,
    timeout)``.  Capture materialization is a separate (batch-only)
    step: the streaming and parallel modes generate packets lazily out
    of this world model and never hold the capture whole.
    """
    internet = build_internet(scenario.internet)
    dark_prefix = internet.allocator.allocate(scenario.dark_prefix_length)
    telescope = Telescope.from_prefix(dark_prefix)

    merit = campus = None
    if scenario.with_isp:
        merit, internet = build_merit_like(internet, dark_prefix)
    if scenario.with_campus:
        campus, internet = build_campus_like(internet)

    population = build_population(
        internet, telescope.prefixes.ranges(), scenario.population
    )
    timeout = (
        scenario.event_timeout
        if scenario.event_timeout is not None
        else telescope.default_timeout()
    )
    return internet, telescope, population, merit, campus, timeout


def build_world(scenario: Scenario) -> tuple:
    """Build the simulated world and materialized capture for a scenario.

    Returns ``(internet, telescope, population, capture, merit, campus,
    timeout)`` — the state the batch detection mode starts from.
    Exposed separately from :func:`run_scenario` so benchmarks and
    tools can obtain a scenario's capture without running detection.
    Streaming/parallel runs use :func:`_build_world_base` plus lazy
    generation instead and never call this.
    """
    internet, telescope, population, merit, campus, timeout = (
        _build_world_base(scenario)
    )
    capture = telescope.capture(population.scanners, scenario.window())
    return internet, telescope, population, capture, merit, campus, timeout


def run_scenario(
    scenario: Scenario,
    *,
    mode: str = "batch",
    chunk_seconds: Optional[float] = None,
    workers: Optional[int] = None,
    capture_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    shard_retries: Optional[int] = None,
    on_corrupt: str = "raise",
) -> ScenarioResult:
    """Execute a scenario: build the world, capture and detect.

    The simulation order mirrors the real measurement pipeline: the
    address plan and monitored networks exist first, the scanner
    population probes everything, the telescope records its share, the
    event builder summarizes, and the three detectors produce AH lists.

    Args:
        scenario: what to simulate.
        mode: ``"batch"`` builds events and detects over the full
            capture at once; ``"streaming"`` runs the shard driver
            (:mod:`repro.parallel`) over the chunked capture instead —
            same detections, bounded memory, telemetry attached — with
            one worker as with many.
        chunk_seconds: streaming window size; defaults to the
            scenario's ``chunk_seconds``, then to
            :data:`repro.config.DEFAULT_CHUNK_SECONDS`.
        workers: with ``mode="streaming"``, shard detection across
            this many worker processes — the capture is sharded by
            source-address hash, one shard per worker, and detector
            states merged (:mod:`repro.parallel`); identical results for
            any count.  Defaults to the scenario's ``workers``; ``None``
            or 1 runs one shard in-process.  Batch mode validates it
            (>= 1) and otherwise ignores it; ``collect_flows`` always
            synthesizes serially.
        capture_dir: detect over a ``save_packets_chunked`` directory
            instead of generating the capture (streaming mode only);
            archives are digest-verified against the chunk manifest.
        checkpoint_dir: persist finished shard states here; re-running
            (or :func:`repro.parallel.resume_run`) re-executes only the
            missing shards.  Flow collection does not checkpoint.
        shard_retries: per-shard retry budget for transient worker
            failures (default policy when ``None``).
        on_corrupt: ``"raise"`` (default) fails on the first damaged
            chunk archive, naming it; ``"quarantine"`` skips damaged
            archives and accounts them in ``telemetry.health``.
    """
    if mode not in ("batch", "streaming"):
        raise ValueError(f"unknown mode: {mode!r}")
    if workers is None:
        workers = scenario.workers
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if capture_dir is not None and mode != "streaming":
        raise ValueError("capture_dir requires mode='streaming'")
    retry = None
    if shard_retries is not None:
        if shard_retries < 0:
            raise ValueError("shard_retries must be >= 0")
        from repro.core.faults import RetryPolicy

        retry = RetryPolicy(max_retries=shard_retries)
    (
        internet,
        telescope,
        population,
        merit,
        campus,
        timeout,
    ) = _build_world_base(scenario)
    telemetry = None
    capture = None
    if mode == "streaming":
        if chunk_seconds is None:
            chunk_seconds = (
                scenario.chunk_seconds
                if scenario.chunk_seconds is not None
                else DEFAULT_CHUNK_SECONDS
            )
        # Looked up at call time so instrumentation that wraps the
        # module attributes sees these calls.
        from repro import parallel

        telemetry = PipelineTelemetry(chunk_seconds=chunk_seconds)
        detect_args = (
            timeout,
            telescope.size,
            scenario.detection,
            scenario.clock.seconds_per_day,
        )
        sharded = dict(
            workers=workers or 1,
            telemetry=telemetry,
            retry=retry,
            checkpoint_dir=checkpoint_dir,
        )
        if capture_dir is not None:
            # Replay: packets come from digest-verified chunk archives;
            # ``on_corrupt`` selects strict or quarantine handling of
            # damaged ones.
            result = parallel.parallel_detect_directory(
                capture_dir, *detect_args, on_corrupt=on_corrupt, **sharded
            )
        else:
            # Each worker generates its own shard's capture locally, so
            # raw packets never cross a process pipe and nothing ever
            # holds the full capture.
            result = parallel.parallel_generate_detect(
                population.scanners,
                telescope.view(),
                chunk_seconds,
                *detect_args,
                window=scenario.window(),
                **sharded,
            )
        events, detections = result.events, result.detections
    else:
        capture = telescope.capture(population.scanners, scenario.window())
        events = build_events(capture.packets, timeout)
        detections = detect_all(
            events,
            telescope.size,
            scenario.detection,
            scenario.clock.seconds_per_day,
        )
    # The ISP models were built before the population, but their
    # internet snapshot lacks nothing the flows need: router assignment
    # only reads AS country data, which is identical in both snapshots.
    if merit is not None:
        merit.internet = internet
    if campus is not None:
        campus.internet = internet
    return ScenarioResult(
        scenario=scenario,
        internet=internet,
        telescope=telescope,
        population=population,
        events=events,
        detections=detections,
        merit=merit,
        campus=campus,
        mode=mode,
        telemetry=telemetry,
        _capture=capture,
    )
