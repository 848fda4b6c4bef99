"""Empirical cumulative distribution functions and tail thresholds.

Definitions 2 and 3 of the paper are percentile rules: compile the ECDF
of a per-event (or per-source-day) statistic and mark the top-alpha
tail as aggressive.  ``ECDF`` wraps a sorted sample with evaluation,
quantile and tail-threshold queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

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
    """An :class:`ECDF` whose sample grows incrementally.

    The streaming detection path folds per-chunk observations in as
    flows finalize; thresholds are only needed at snapshot/finish time.
    Observations are buffered per :meth:`add` call and merged into one
    sorted array lazily, so adding is O(chunk) and the first query after
    an add pays one merge.  Because the merged sample is exactly the
    concatenation of everything added, every query returns what a batch
    :class:`ECDF` over the same observations would — the streaming and
    batch detectors therefore compute identical thresholds.
    """

    def __init__(self) -> None:
        self._runs: List[np.ndarray] = []
        self._n = 0
        self._cached: Optional[ECDF] = None

    def __len__(self) -> int:
        return self._n

    def add(self, values) -> None:
        """Fold new observations into the sample."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        if np.any(~np.isfinite(values)):
            raise ValueError("ECDF sample contains non-finite values")
        self._runs.append(np.sort(values))
        self._n += values.size
        self._cached = None

    def merge(self, other: "StreamingECDF") -> None:
        """Fold another streaming sample into this one.

        The merged sample is exactly the concatenation of both samples,
        so merging is associative and commutative (any merge tree over
        the same observations yields float-identical queries) — the
        property the shard-parallel detection path
        (:mod:`repro.parallel`) relies on.  ``other`` is left untouched.
        """
        if other is self:
            raise ValueError("cannot merge a StreamingECDF with itself")
        if other._n == 0:
            return
        self._runs.extend(other._runs)
        self._n += other._n
        self._cached = None

    def copy(self) -> "StreamingECDF":
        """An independent sample sharing this one's sorted runs.

        Run arrays are never written into — adds and merges extend the
        run list, queries replace it with one merged run — so with its own
        list each copy folds on without moving the other's answers.
        """
        other = StreamingECDF()
        other._runs = list(self._runs)
        other._n = self._n
        other._cached = self._cached
        return other

    def ecdf(self) -> ECDF:
        """The batch-equivalent :class:`ECDF` over everything added."""
        if self._n == 0:
            raise ValueError("ECDF needs at least one observation")
        if self._cached is None:
            # Each run is pre-sorted; timsort exploits the runs, making
            # the compaction close to a linear multi-way merge.
            merged = np.sort(np.concatenate(self._runs), kind="stable")
            self._runs = [merged]
            self._cached = ECDF(merged)
        return self._cached

    def evaluate(self, x):
        """P(X <= x); see :meth:`ECDF.evaluate`."""
        return self.ecdf().evaluate(x)

    def quantile(self, q: float) -> float:
        """Inverse CDF; see :meth:`ECDF.quantile`."""
        return self.ecdf().quantile(q)

    def tail_threshold(self, alpha: float) -> float:
        """The (1 - alpha)-percentile critical value."""
        return self.ecdf().tail_threshold(alpha)
