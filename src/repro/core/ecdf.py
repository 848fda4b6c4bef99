"""Empirical cumulative distribution functions and tail thresholds.

Definitions 2 and 3 of the paper are percentile rules: compile the ECDF
of a per-event (or per-source-day) statistic and mark the top-alpha
tail as aggressive.  ``ECDF`` wraps a sorted sample with evaluation,
quantile and tail-threshold queries; ``StreamingECDF`` answers the same
quantiles from an exact value -> count histogram that grows by folds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ECDF:
    """An empirical CDF over a one-dimensional sample."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.size == 0:
            raise ValueError("ECDF needs at least one observation")
        if np.any(~np.isfinite(values)):
            raise ValueError("ECDF sample contains non-finite values")
        self.values = np.sort(values)

    def __len__(self) -> int:
        return len(self.values)

    def evaluate(self, x) -> np.ndarray:
        """P(X <= x) for scalar or array ``x``."""
        x = np.asarray(x, dtype=np.float64)
        ranks = np.searchsorted(self.values, x, side="right")
        result = ranks / len(self.values)
        return result if result.shape else float(result)

    def quantile(self, q: float) -> float:
        """Inverse CDF (lower empirical quantile)."""
        if not 0 <= q <= 1:
            raise ValueError("q must be in [0, 1]")
        if q == 0:
            return float(self.values[0])
        idx = int(np.ceil(q * len(self.values))) - 1
        return float(self.values[min(max(idx, 0), len(self.values) - 1)])

    def tail_threshold(self, alpha: float) -> float:
        """The (1 - alpha)-percentile critical value of the paper.

        Observations strictly above the threshold constitute (at most)
        the top-``alpha`` tail of the sample.
        """
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        return self.quantile(1.0 - alpha)

    def tail_mass_above(self, threshold: float) -> float:
        """Fraction of observations strictly above ``threshold``."""
        rank = int(np.searchsorted(self.values, threshold, side="right"))
        return (len(self.values) - rank) / len(self.values)

    def summary(self) -> dict:
        """Descriptive statistics for reports."""
        return {
            "n": len(self.values),
            "min": float(self.values[0]),
            "median": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
            "max": float(self.values[-1]),
        }


class StreamingECDF:
    """An exact :class:`ECDF` kept as a value -> count histogram.

    The streaming detection path folds per-chunk observations in as
    flows finalize, and answers threshold queries at any time.  Event
    packet counts and daily port counts repeat heavily (a long stream
    holds a few hundred distinct values), so the sample is stored as its
    sorted distinct values with their multiplicities: memory is
    O(distinct values), adding and merging are a union of two small
    sorted arrays.  :meth:`quantile` applies :meth:`ECDF.quantile`'s own
    float formula to the cumulative counts, so every query returns
    bit-for-bit what a batch :class:`ECDF` over the same observations
    would — the streaming and batch detectors compute identical
    thresholds.
    """

    def __init__(self) -> None:
        self._values = np.empty(0, dtype=np.float64)
        self._counts = np.empty(0, dtype=np.int64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _check(self) -> None:
        """Raise ``ValueError`` unless the values are finite and strictly
        increasing and the counts positive and summing to the total."""
        values, counts = self._values, self._counts
        if (
            len(values) != len(counts)
            or not bool(np.all(np.isfinite(values)))
            or bool(np.any(np.diff(values) <= 0))
            or bool(np.any(counts < 1))
            or int(counts.sum()) != self._n
        ):
            raise ValueError(
                f"ECDF histogram disagrees: {len(values)} values for "
                f"{len(counts)} counts summing to {int(counts.sum())}, "
                f"total {self._n}"
            )

    def _absorb(self, values: np.ndarray, counts: np.ndarray) -> None:
        """Union sorted distinct ``values`` with their ``counts`` in."""
        at = np.searchsorted(self._values, values)
        seen = at < len(self._values)
        seen[seen] = self._values[at[seen]] == values[seen]
        total = self._counts.copy()
        total[at[seen]] += counts[seen]
        self._values = np.insert(self._values, at[~seen], values[~seen])
        self._counts = np.insert(total, at[~seen], counts[~seen])
        self._n += int(counts.sum())

    def add(self, values) -> None:
        """Fold new observations into the sample."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        if np.any(~np.isfinite(values)):
            raise ValueError("ECDF sample contains non-finite values")
        distinct, counts = np.unique(values, return_counts=True)
        self._absorb(distinct, counts.astype(np.int64))

    def merge(self, other: "StreamingECDF") -> None:
        """Fold another streaming sample into this one.

        The merged histogram is exactly that of both samples together,
        so merging is associative and commutative (any merge tree over
        the same observations yields float-identical queries) — the
        property the shard-parallel detection path
        (:mod:`repro.parallel`) relies on.  ``other`` is left untouched.
        """
        if other is self:
            raise ValueError("cannot merge a StreamingECDF with itself")
        if other._n:
            self._absorb(other._values, other._counts)

    def ecdf(self) -> ECDF:
        """The batch :class:`ECDF` over everything added (O(n) memory)."""
        if self._n == 0:
            raise ValueError("ECDF needs at least one observation")
        return ECDF(np.repeat(self._values, self._counts))

    def quantile(self, q: float) -> float:
        """Inverse CDF; exactly :meth:`ECDF.quantile` of the sample."""
        if self._n == 0:
            raise ValueError("ECDF needs at least one observation")
        if not 0 <= q <= 1:
            raise ValueError("q must be in [0, 1]")
        if q == 0:
            return float(self._values[0])
        idx = min(max(int(np.ceil(q * self._n)) - 1, 0), self._n - 1)
        # The sorted sample's idx-th entry: the first distinct value
        # whose cumulative count passes idx.
        rank = np.searchsorted(np.cumsum(self._counts), idx, side="right")
        return float(self._values[rank])

    def tail_threshold(self, alpha: float) -> float:
        """The (1 - alpha)-percentile critical value."""
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        return self.quantile(1.0 - alpha)
