"""Seeded inputs and the serial oracle every workload is checked against.

Everything here runs outside the timed regions: the scenario's world and
capture, the npz wire chunks the serve workloads send, and
``detect_all(build_events(capture))`` — the serial oracle whose AH sets
and thresholds (definitions 1-3) every workload must reproduce.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.detection import detect_all
from repro.core.events import build_events
from repro.io.packetlog import packets_to_npz_bytes
from repro.serve.tenants import TenantConfig
from repro.sim.runner import _build_world_base
from repro.sim.scenario import stream_72h_scenario, tiny_scenario

SCENARIOS = {"stream-72h": stream_72h_scenario, "tiny": tiny_scenario}

#: detector shards (study-sharded workers, serve tenant shards); the
#: benchmark host has two cores.
SHARDS = 2


#: chunk views the encoding pool's forked workers read (copy-on-write).
_CHUNKS: list = []


def _encode(index: int) -> bytes:
    return packets_to_npz_bytes(_CHUNKS[index])


def make_scenario(name: str, seed: int):
    """The scenario for ``seed``: its address plan and analysis RNG.

    The seed reaches the internet model (address plan, AS registry,
    hence where every scanner and dark address sits, how sources hash to
    shards, and every AS-attributed table) and the scenario's own RNG
    streams.  The scanner population keeps the scenario's canonical
    configuration seed: passed the benchmark seed it would set the
    capture anywhere between 2.9 and 4.7 M packets, and every timing
    and memory figure would follow the input size, not the program.
    """
    base = SCENARIOS[name]()
    return dataclasses.replace(
        base,
        seed=seed,
        internet=dataclasses.replace(base.internet, seed=seed * 3 + 1),
    )


def relabel_sources(packets, seed: int):
    """Map every source address through a seeded bijection of IPv4 space.

    ``x -> a*x + b (mod 2**32)`` with ``a`` odd is one-to-one: each seed
    gives other addresses, another sort order, another source-to-shard
    split and other AH lists, while the packet and event counts, and so
    the amount of work, stay those of the scenario.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    a = np.uint32(2 * int(rng.integers(0, 2**31)) + 1)
    b = np.uint32(int(rng.integers(0, 2**32)))
    return dataclasses.replace(packets, src=packets.src * a + b)


def canonical(detections) -> Dict[str, dict]:
    """AH sets and thresholds per definition, in a comparable form."""
    return {
        str(d): {
            "sources": sorted(int(s) for s in result.sources),
            "threshold": repr(float(result.threshold)),
        }
        for d, result in sorted(detections.items())
    }


def from_serve(payload: dict) -> Dict[str, dict]:
    """The same form, from a server's ``/ah`` answer."""
    return {
        d: {"sources": list(v["sources"]), "threshold": repr(float(v["threshold"]))}
        for d, v in sorted(payload["detections"].items())
    }


@dataclass
class Inputs:
    """One seed's capture, its oracle, and what a tenant needs."""

    scenario: object
    packets: object
    timeout: float
    dark_size: int
    oracle: Dict[str, dict]
    events: int

    def tenant_config(self) -> TenantConfig:
        return TenantConfig(
            timeout=self.timeout,
            dark_size=self.dark_size,
            day_seconds=self.scenario.clock.seconds_per_day,
            workers=SHARDS,
            detection=self.scenario.detection,
        )

    def chunks(self, chunk_seconds: float) -> List[Tuple[float, int, bytes]]:
        """``(window_start, packets, npz_bytes)`` per non-empty time chunk.

        Compressed npz encoding is the costliest part of the inputs, so
        it runs on two forked processes.
        """
        windows = [
            (start, chunk)
            for start, _, chunk in self.packets.iter_time_chunks(chunk_seconds)
            if len(chunk)
        ]
        _CHUNKS[:] = [chunk for _, chunk in windows]
        try:
            with multiprocessing.get_context("fork").Pool(SHARDS) as pool:
                blobs = pool.map(_encode, range(len(windows)), chunksize=8)
        finally:
            _CHUNKS.clear()
        return [
            (start, len(chunk), blob)
            for (start, chunk), blob in zip(windows, blobs)
        ]


def build_inputs(name: str, seed: int, days: Optional[float] = None,
                 relabel: bool = False) -> Inputs:
    """The capture (its first ``days`` only, if given) and its oracle.

    Without ``relabel`` the seed picks the world, as for the study
    (:func:`make_scenario`).  With it, the world is the scenario's own and
    the seed relabels the capture's sources (:func:`relabel_sources`):
    the serve workloads then get different inputs of one fixed size,
    since their times and memory track the event count, which the world
    moves by a fifth from seed to seed.
    """
    if relabel:
        scenario = SCENARIOS[name]()
    else:
        scenario = make_scenario(name, seed)
    _, telescope, population, _, _, timeout = _build_world_base(scenario)
    window = scenario.window()
    if days is not None:
        window = (window[0], days * scenario.clock.seconds_per_day)
    packets = telescope.capture(population.scanners, window).packets
    if relabel:
        packets = relabel_sources(packets, seed)
    events = build_events(packets, timeout)
    detections = detect_all(
        events,
        telescope.size,
        scenario.detection,
        scenario.clock.seconds_per_day,
    )
    return Inputs(
        scenario=scenario,
        packets=packets,
        timeout=timeout,
        dark_size=telescope.size,
        oracle=canonical(detections),
        events=len(events),
    )
