"""Memory-bounded heavy-hitter detection (streaming sketches).

The full event pipeline keeps per-flow state; at a true telescope's
line rate (ORION: >100k pps sustained) an operator may instead want a
fixed-memory pre-filter that surfaces aggressive-hitter *candidates*
online, to be confirmed by the exact pipeline.  This module provides
the classic pairing:

* :class:`SpaceSaving` — the Metwally et al. top-k counter: tracks at
  most ``capacity`` sources with a provable overestimation bound
  (error <= N / capacity for N total packets); every true heavy hitter
  above that mass is guaranteed to be retained.
* :class:`KMV` — a k-minimum-values distinct-value estimator, used per
  tracked source to approximate its *address dispersion* (Definition 1
  needs unique dark destinations, not packets).
* :class:`HeavyHitterSketch` — the combination: a fixed-size candidate
  table over a packet stream, with dispersion estimates.

The ``ablation_sketch`` benchmark measures recall/precision of the
sketch against the exact Definition-1 population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.packet import PacketBatch, SCANNING_PROTOCOLS

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: a fast, well-distributed integer hash."""
    with np.errstate(over="ignore"):
        z = values.astype(np.uint64) + _SPLITMIX_GAMMA
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


class KMV:
    """k-minimum-values distinct counter over 64-bit hash values."""

    def __init__(self, k: int = 64):
        if k < 2:
            raise ValueError("k must be >= 2")
        self.k = k
        self._values: List[int] = []  # sorted ascending

    def add_hashes(self, hashes: np.ndarray) -> None:
        """Fold a batch of (already hashed) values into the synopsis."""
        if len(hashes) == 0:
            return
        merged = np.unique(
            np.concatenate(
                [np.asarray(self._values, dtype=np.uint64), hashes.astype(np.uint64)]
            )
        )
        self._values = merged[: self.k].tolist()

    def estimate(self) -> float:
        """Estimated number of distinct values seen."""
        if len(self._values) < self.k:
            return float(len(self._values))
        kth = float(self._values[self.k - 1])
        # E[D] = (k - 1) / normalized k-th minimum.
        return (self.k - 1) / (kth / 2**64)

    def __len__(self) -> int:
        return len(self._values)


@dataclass
class _Slot:
    """One tracked source in the Space-Saving table."""

    key: int
    count: int
    error: int
    dsts: KMV


class SpaceSaving:
    """Space-Saving top-k counter with per-slot destination synopses."""

    def __init__(self, capacity: int, kmv_size: int = 64):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.kmv_size = kmv_size
        self._slots: Dict[int, _Slot] = {}
        self.total = 0

    def offer(self, key: int, weight: int = 1) -> None:
        """Count ``weight`` occurrences of ``key``."""
        if weight < 1:
            raise ValueError("weight must be >= 1")
        self.total += weight
        slot = self._slots.get(key)
        if slot is not None:
            slot.count += weight
            return
        if len(self._slots) < self.capacity:
            self._slots[key] = _Slot(
                key=key, count=weight, error=0, dsts=KMV(self.kmv_size)
            )
            return
        # Evict the minimum and inherit its count as error.
        victim = min(self._slots.values(), key=lambda s: s.count)
        del self._slots[victim.key]
        self._slots[key] = _Slot(
            key=key,
            count=victim.count + weight,
            error=victim.count,
            dsts=KMV(self.kmv_size),
        )

    def count_of(self, key: int) -> Optional[tuple]:
        """(estimated count, max overestimation) or None if untracked."""
        slot = self._slots.get(key)
        if slot is None:
            return None
        return slot.count, slot.error

    def top(self, k: int) -> List[tuple]:
        """The k largest tracked keys as (key, count, error)."""
        ranked = sorted(self._slots.values(), key=lambda s: -s.count)
        return [(s.key, s.count, s.error) for s in ranked[:k]]

    def guaranteed_heavy(self, threshold: int) -> List[int]:
        """Keys whose *lower bound* (count - error) clears a threshold."""
        return [
            s.key
            for s in self._slots.values()
            if s.count - s.error >= threshold
        ]

    def __len__(self) -> int:
        return len(self._slots)


class HeavyHitterSketch:
    """Fixed-memory aggressive-hitter candidate detection.

    Processes scanning packets in batches; memory is bounded by
    ``capacity`` tracked sources, each with a ``kmv_size`` destination
    synopsis.  Candidates are sources whose *estimated* distinct
    destination count reaches the dispersion threshold — they would
    then be confirmed by the exact event pipeline.
    """

    def __init__(self, capacity: int = 1_024, kmv_size: int = 64):
        self._counter = SpaceSaving(capacity, kmv_size=kmv_size)
        self.kmv_size = kmv_size

    @property
    def tracked(self) -> int:
        """Sources currently held in the candidate table."""
        return len(self._counter)

    @property
    def total_packets(self) -> int:
        """Scanning packets folded in so far."""
        return self._counter.total

    def add_batch(self, batch: PacketBatch) -> None:
        """Fold a capture chunk into the sketch."""
        if len(batch) == 0:
            return
        scanning = np.isin(
            batch.proto,
            np.array([p.value for p in SCANNING_PROTOCOLS], dtype=np.uint8),
        )
        if not bool(np.all(scanning)):
            batch = batch.select(scanning)
        if len(batch) == 0:
            return
        order = np.argsort(batch.src, kind="stable")
        src = batch.src[order]
        dst_hashes = _mix64(batch.dst[order].astype(np.uint64))
        boundaries = np.concatenate(
            [[0], np.flatnonzero(np.diff(src.astype(np.int64))) + 1, [len(src)]]
        )
        for b, e in zip(boundaries[:-1], boundaries[1:]):
            key = int(src[b])
            self._counter.offer(key, weight=int(e - b))
            slot = self._counter._slots.get(key)
            if slot is not None:
                slot.dsts.add_hashes(dst_hashes[b:e])

    def candidates(self, dispersion_threshold: float) -> Dict[int, float]:
        """Sources whose estimated unique-dst count clears the threshold.

        Returns ``{source: estimated_unique_dsts}``.
        """
        out: Dict[int, float] = {}
        for slot in self._counter._slots.values():
            estimate = slot.dsts.estimate()
            if estimate >= dispersion_threshold:
                out[slot.key] = estimate
        return out
