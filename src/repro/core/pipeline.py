"""End-to-end study orchestration.

``run_study`` executes a scenario and wraps the result in a
:class:`StudyReport` whose methods compute every table and figure of
the paper from the simulated datasets.  The benchmarks, the examples
and the CLI all go through this one surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core import characterize, impact, lists, validation
from repro.core.detection import definition_overlap, jaccard
from repro.labeling.greynoise import GreyNoiseDB, build_greynoise
from repro.sim.runner import ScenarioResult, run_scenario
from repro.sim.scenario import Scenario


@dataclass
class StudyReport:
    """Computed views over one scenario's datasets."""

    result: ScenarioResult
    _gn_cache: Optional[GreyNoiseDB] = field(default=None, repr=False)
    _acked_cache: Dict[int, validation.AckedMatchResult] = field(
        default_factory=dict, repr=False
    )

    # ------------------------------------------------------------------
    # Shared ingredients
    # ------------------------------------------------------------------
    @property
    def clock(self):
        """The scenario's calendar."""
        return self.result.clock

    @property
    def detections(self):
        """Per-definition detection results."""
        return self.result.detections

    def greynoise(self) -> GreyNoiseDB:
        """The honeypot database for the scenario window (cached)."""
        if self._gn_cache is None:
            rng = np.random.default_rng(self.result.scenario.seed + 909)
            self._gn_cache = build_greynoise(
                self.result.population.scanners,
                rng,
                self.result.scenario.window(),
            )
        return self._gn_cache

    def acked_match(self, definition: int = 1) -> validation.AckedMatchResult:
        """Acknowledged-scanner attribution for one definition (cached;
        callers share the result and must not mutate it)."""
        if definition not in self._acked_cache:
            self._acked_cache[definition] = validation.match_acknowledged(
                self.detections[definition].sources,
                self.result.population.acked,
                self.result.capture,
            )
        return self._acked_cache[definition]

    # ------------------------------------------------------------------
    # Table 1 — dataset description
    # ------------------------------------------------------------------
    def dataset_summary(self) -> dict:
        """Table 1: packets, sources, events, dark size, days."""
        summary = self.result.capture.summary()
        summary["events"] = len(self.result.events)
        summary["days"] = self.result.scenario.days
        return summary

    # ------------------------------------------------------------------
    # Tables 2-4, 8 — network impact
    # ------------------------------------------------------------------
    def impact_cells(self, definition: int = 1) -> list:
        """Table 2: per-(router, day) AH packet volume and share."""
        flows, totals = self.result.collect_flows()
        return impact.daily_impact(
            flows, totals, self.detections[definition].sources
        )

    def protocol_table(self) -> Dict[int, dict]:
        """Table 3: darknet-vs-flow protocol mix per definition."""
        flows, _ = self.result.collect_flows()
        flow_day = max(self.result.scenario.flow_days)
        day_flows = flows.select(flows.day == flow_day)
        batch = self.result.capture.day_slice(
            flow_day, self.clock.seconds_per_day
        )
        out = {}
        for definition, result in self.detections.items():
            out[definition] = impact.protocol_breakdown(
                batch, day_flows, result.sources
            )
        return out

    def acked_impact_table(self) -> Dict[int, dict]:
        """Table 4: ACKed scanners' impact per router per definition."""
        flows, totals = self.result.collect_flows()
        flow_day = max(self.result.scenario.flow_days)
        out = {}
        for definition in sorted(self.detections):
            matched = self.acked_match(definition).matched_sources()
            out[definition] = impact.acked_impact(
                flows, totals, matched, day=flow_day
            )
        return out

    def router_coverage_table(self) -> Dict[int, list]:
        """Table 8: per-definition router coverage of the active AH."""
        flows, _ = self.result.collect_flows()
        flow_days = set(self.result.scenario.flow_days)
        out = {}
        for definition, result in self.detections.items():
            active = {
                day: srcs
                for day, srcs in result.daily_active.items()
                if day in flow_days
            }
            out[definition] = impact.router_coverage(
                flows, active, self.result.merit.router_count
            )
        return out

    # ------------------------------------------------------------------
    # Table 5 / 7 — origins and definition overlaps
    # ------------------------------------------------------------------
    def origins_table(self, definition: int = 1, top_n: int = 10) -> tuple:
        """Table 5: top origin networks with ACKed counts."""
        acked = self.acked_match(definition).matched_sources()
        return characterize.origins(
            self.detections[definition].sources,
            self.result.internet.registry,
            self.result.capture,
            acked_sources=acked,
            top_n=top_n,
        )

    def definition_overlap_table(self) -> dict:
        """Table 7: populations and intersections across definitions."""
        return definition_overlap(
            self.detections, self.result.internet.registry
        )

    def definition_jaccard(self, a: int = 1, b: int = 2) -> float:
        """Jaccard similarity of two definitions' AH sets."""
        return jaccard(self.detections[a].sources, self.detections[b].sources)

    # ------------------------------------------------------------------
    # Table 6 / 9, Figure 6 — validation
    # ------------------------------------------------------------------
    def acked_validation_table(self) -> Dict[int, validation.AckedMatchResult]:
        """Table 6: ACKed matching per definition."""
        return {d: self.acked_match(d) for d in sorted(self.detections)}

    def greynoise_overlap(self, definition: int = 1) -> float:
        """Average daily honeypot coverage of the active AH."""
        return validation.greynoise_overlap(
            self.detections[definition].daily_active, self.greynoise()
        )

    def greynoise_breakdown(self, definition: int = 1) -> Dict[str, int]:
        """Figure 6 (left): intent classification of the AH."""
        matched = self.acked_match(definition).matched_sources()
        return validation.greynoise_breakdown(
            self.detections[definition].sources, matched, self.greynoise()
        )

    def greynoise_tags_table(self, definition: int = 1, top_n: int = 20) -> list:
        """Table 9: top honeypot tags of the non-ACKed AH."""
        matched = self.acked_match(definition).matched_sources()
        return validation.greynoise_tags(
            self.detections[definition].sources,
            matched,
            self.greynoise(),
            top_n=top_n,
        )

    # ------------------------------------------------------------------
    # Figures 3, 4, 6R — characterization
    # ------------------------------------------------------------------
    def temporal_trends(self, definition: int = 1) -> list:
        """Figure 3: daily/active AH counts and packet shares."""
        return characterize.temporal_trends(
            self.result.events,
            self.detections[definition],
            range(self.result.scenario.days),
            self.clock.seconds_per_day,
        )

    def top_ports(self, definition: int = 1, top_n: int = 25) -> list:
        """Figure 4: top targeted services with tool fingerprints."""
        return characterize.top_ports(
            self.result.capture,
            self.detections[definition].sources,
            top_n=top_n,
        )

    def zipf_contribution(self, definition: int = 1) -> np.ndarray:
        """Figure 6 (right): cumulative AH traffic by ranked source."""
        return characterize.zipf_contribution(
            self.result.capture, self.detections[definition].sources
        )

    def port_consistency(self, definition: int = 1) -> list:
        """Figure 5: per-port AH shares, darknet vs flows."""
        flows, _ = self.result.collect_flows()
        flow_day = max(self.result.scenario.flow_days)
        day_flows = flows.select(flows.day == flow_day)
        batch = self.result.capture.day_slice(
            flow_day, self.clock.seconds_per_day
        )
        daily = self.detections[definition].active_on(flow_day)
        return impact.port_consistency(batch, day_flows, daily)

    # ------------------------------------------------------------------
    # Figures 1-2 — streams
    # ------------------------------------------------------------------
    def stream_series(self) -> dict:
        """Figures 1-2: per-second station series."""
        return self.result.record_streams()

    # ------------------------------------------------------------------
    # Operational lists
    # ------------------------------------------------------------------
    def daily_blocklist(self, day: int) -> lists.DailyBlocklist:
        """The operational artifact: one day's annotated AH list."""
        acked = self.acked_match(1).matched_sources()
        return lists.build_daily_blocklist(
            day,
            self.detections,
            self.result.capture,
            self.clock.seconds_per_day,
            registry=self.result.internet.registry,
            acked_sources=acked,
        )


def run_study(
    scenario: Scenario,
    *,
    mode: str = "batch",
    chunk_seconds: Optional[float] = None,
    workers: Optional[int] = None,
    capture_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    shard_retries: Optional[int] = None,
    on_corrupt: str = "raise",
) -> StudyReport:
    """Run a scenario and wrap it for analysis.

    ``mode="streaming"`` routes detection through the chunked pipeline
    (identical results, bounded memory, telemetry on the result);
    ``workers=N`` additionally shards the capture by source hash across
    N worker processes (:mod:`repro.parallel`) — still identical
    results.
    The remaining keywords plug the fault-tolerant execution layer in:
    ``capture_dir`` detects over saved digest-verified chunk archives,
    ``checkpoint_dir`` persists shard states for crash/resume,
    ``shard_retries`` bounds per-shard retries, and ``on_corrupt``
    selects strict vs quarantine handling of damaged archives — see
    :func:`repro.sim.runner.run_scenario`.
    """
    return StudyReport(
        result=run_scenario(
            scenario,
            mode=mode,
            chunk_seconds=chunk_seconds,
            workers=workers,
            capture_dir=capture_dir,
            checkpoint_dir=checkpoint_dir,
            shard_retries=shard_retries,
            on_corrupt=on_corrupt,
        )
    )
