"""NetFlow records with packet sampling.

Merit's collectors export flows from 1:1000 packet-sampled ingress and
egress traffic at the core routers.  ``NetflowExporter`` applies that
sampling to the analytic per-day scanner counts, and ``FlowTable``
stores the resulting records in column form with the group-by helpers
the impact analyses need.

Flow synthesis is columnar end to end: the ISP model produces
:class:`FlowColumns` (true per-flow packet counts as aligned arrays,
see :mod:`repro.flows.synthesis`), and the exporter applies one
vectorized binomial draw over the whole true-count column instead of a
per-flow Python loop.  The sampling stream is derived from an integer
seed (never from a shared, order-sensitive generator), so export — and
the router-total estimates — are deterministic regardless of call
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

import numpy as np

from repro.config import FLOW_SAMPLING_RATE

#: Salt for the exporter's per-run sampling stream (derived from the
#: flow base seed; independent of the synthesis streams).
SAMPLE_STREAM_SALT = 0x53414D50  # "SAMP"
#: Salt for router-day total estimates (:meth:`NetflowExporter.sample_total`).
TOTALS_STREAM_SALT = 0x544F5441  # "TOTA"


@dataclass
class FlowColumns:
    """True (unsampled) per-flow packet counts in column form.

    The struct-of-arrays intermediate between flow synthesis and NetFlow
    export: one row per (router, day, src, dport, proto) flow with its
    true packet count.  Rows are kept in the canonical synthesis order:
    scanner (population order), then count-row order, then router index.
    """

    router: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int8)
    )
    day: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32)
    )
    src: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.uint32)
    )
    dport: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.uint16)
    )
    proto: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.uint8)
    )
    #: true per-flow packet counts (pre-sampling).
    true: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )

    def __len__(self) -> int:
        return len(self.src)

    def select(self, mask: np.ndarray) -> "FlowColumns":
        """Row subset (order-preserving)."""
        return FlowColumns(
            router=self.router[mask],
            day=self.day[mask],
            src=self.src[mask],
            dport=self.dport[mask],
            proto=self.proto[mask],
            true=self.true[mask],
        )

    @classmethod
    def concat(cls, blocks: list) -> "FlowColumns":
        """Concatenate blocks in order (one block per scanner)."""
        blocks = [b for b in blocks if len(b)]
        if not blocks:
            return cls()
        return cls(
            router=np.concatenate([b.router for b in blocks]),
            day=np.concatenate([b.day for b in blocks]),
            src=np.concatenate([b.src for b in blocks]),
            dport=np.concatenate([b.dport for b in blocks]),
            proto=np.concatenate([b.proto for b in blocks]),
            true=np.concatenate([b.true for b in blocks]),
        )

    def true_totals(self) -> Dict[tuple, int]:
        """(router, day) -> summed true packet counts.

        The scanners' contribution to the router-day denominators,
        aggregated with one ``np.add.at`` pass instead of a per-row
        dict update.
        """
        if not len(self):
            return {}
        key = (self.router.astype(np.int64) << np.int64(32)) | self.day.astype(
            np.int64
        )
        uniq, inverse = np.unique(key, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inverse, self.true)
        return {
            (int(k) >> 32, int(k) & 0xFFFFFFFF): int(v)
            for k, v in zip(uniq, sums)
        }


@dataclass
class FlowTable:
    """Column-oriented scanner flow records.

    Columns (aligned arrays):
        router: ingress router index (int8).
        day: simulated day index (int32).
        src: source address (uint32).
        dport: destination port (uint16).
        proto: protocol code (uint8).
        packets: sampled packet count scaled *back up* by the sampling
            rate — the usual operational convention ("estimated
            packets") — so fractions computed against scaled totals are
            directly comparable.
        sampled: raw sampled packet count before scaling.
    """

    router: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int8)
    )
    day: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32)
    )
    src: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.uint32)
    )
    dport: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.uint16)
    )
    proto: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.uint8)
    )
    packets: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    sampled: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )

    def __len__(self) -> int:
        return len(self.src)

    def select(self, mask: np.ndarray) -> "FlowTable":
        """Row subset."""
        return FlowTable(
            router=self.router[mask],
            day=self.day[mask],
            src=self.src[mask],
            dport=self.dport[mask],
            proto=self.proto[mask],
            packets=self.packets[mask],
            sampled=self.sampled[mask],
        )

    # ------------------------------------------------------------------
    def for_router_day(self, router: int, day: int) -> "FlowTable":
        """Rows of one (router, day) cell."""
        return self.select((self.router == router) & (self.day == day))

    def for_sources(self, sources: Iterable[int]) -> "FlowTable":
        """Rows whose source is in the given set."""
        wanted = np.asarray(sorted(int(a) for a in sources), dtype=np.uint32)
        if len(wanted) == 0:
            return self.select(np.zeros(len(self), dtype=bool))
        return self.select(np.isin(self.src, wanted))

    def total_packets(self) -> int:
        """Sum of estimated packets."""
        return int(self.packets.sum())

    def unique_sources(self) -> np.ndarray:
        """Sorted distinct sources."""
        return np.unique(self.src)

    def packets_by_port(self) -> Dict[tuple, int]:
        """(port, proto) -> estimated packets (one grouped pass)."""
        if not len(self):
            return {}
        key = (self.dport.astype(np.int64) << np.int64(8)) | self.proto.astype(
            np.int64
        )
        uniq, inverse = np.unique(key, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inverse, self.packets)
        return {
            (int(k) >> 8, int(k) & 0xFF): int(v) for k, v in zip(uniq, sums)
        }

    def packets_by_proto(self) -> Dict[int, int]:
        """proto -> estimated packets (one grouped pass)."""
        if not len(self):
            return {}
        uniq, inverse = np.unique(self.proto, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inverse, self.packets)
        return {int(p): int(v) for p, v in zip(uniq, sums)}

    @classmethod
    def from_rows(cls, rows: list) -> "FlowTable":
        """Build from ``(router, day, src, dport, proto, pkts, sampled)``."""
        if not rows:
            return cls()
        arr = np.array(rows, dtype=np.int64)
        return cls(
            router=arr[:, 0].astype(np.int8),
            day=arr[:, 1].astype(np.int32),
            src=arr[:, 2].astype(np.uint32),
            dport=arr[:, 3].astype(np.uint16),
            proto=arr[:, 4].astype(np.uint8),
            packets=arr[:, 5].astype(np.int64),
            sampled=arr[:, 6].astype(np.int64),
        )


@dataclass
class NetflowExporter:
    """Applies packet sampling to true per-flow counts.

    Attributes:
        sampling_rate: 1-in-N packet sampling (paper: 1000).
        keep_zero: keep flows whose sample came up empty (never done by
            real collectors; available for bias experiments).
    """

    sampling_rate: int = FLOW_SAMPLING_RATE
    keep_zero: bool = False

    def __post_init__(self) -> None:
        if self.sampling_rate < 1:
            raise ValueError("sampling_rate must be >= 1")

    def sample_count(self, true_count: int, rng: np.random.Generator) -> int:
        """Sampled packet count for one flow."""
        if true_count < 0:
            raise ValueError("true_count must be non-negative")
        if self.sampling_rate == 1:
            return int(true_count)
        return int(rng.binomial(true_count, 1.0 / self.sampling_rate))

    def _sample_columns(
        self, columns: FlowColumns, rng: np.random.Generator
    ) -> FlowTable:
        """One vectorized binomial over the true-count column.

        Draws for every row (even those later dropped), in row order —
        exactly the bit stream a scalar :meth:`sample_count` loop over
        the same rows would consume, so the columnar export is
        bit-identical to the per-flow reference.
        """
        if np.any(columns.true < 0):
            raise ValueError("true counts must be non-negative")
        if self.sampling_rate == 1:
            sampled = columns.true.astype(np.int64)
        else:
            sampled = rng.binomial(
                columns.true, 1.0 / self.sampling_rate
            ).astype(np.int64)
        if not self.keep_zero:
            keep = sampled > 0
            columns = columns.select(keep)
            sampled = sampled[keep]
        return FlowTable(
            router=columns.router,
            day=columns.day,
            src=columns.src,
            dport=columns.dport,
            proto=columns.proto,
            packets=sampled * self.sampling_rate,
            sampled=sampled,
        )

    def export_columns(self, columns: FlowColumns, seed: int) -> FlowTable:
        """Export sampled flow records from a true-count column block.

        Args:
            columns: synthesized true flow counts (canonical order).
            seed: flow base seed; the sampling stream is derived as
                ``(seed, SAMPLE_STREAM_SALT)``, so export does not
                depend on any shared generator's call order.

        Returns:
            A :class:`FlowTable`; flows that sampled to zero packets are
            dropped unless ``keep_zero`` is set.
        """
        rng = np.random.default_rng((int(seed), SAMPLE_STREAM_SALT))
        return self._sample_columns(columns, rng)

    def sample_total(self, true_total: int, seed: int, key: int = 0) -> int:
        """Scaled-up estimate of a router-day total packet counter.

        The draw comes from a stream derived as
        ``(seed, TOTALS_STREAM_SALT, key)`` — *not* from a shared
        generator — so estimating totals before, after, or interleaved
        with :meth:`export_columns` calls always yields the same values.  Use a
        distinct ``key`` per counter (e.g. ``router * n_days + day``).
        """
        rng = np.random.default_rng(
            (int(seed), TOTALS_STREAM_SALT, int(key))
        )
        sampled = self.sample_count(int(true_total), rng)
        return sampled * self.sampling_rate
