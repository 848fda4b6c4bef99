"""Unit tests for the ECDF / tail-threshold machinery."""

import numpy as np
import pytest

from repro.core.ecdf import ECDF, StreamingECDF


class TestECDF:
    def test_evaluate(self):
        ecdf = ECDF(np.array([1, 2, 3, 4, 5]))
        assert ecdf.evaluate(3) == pytest.approx(0.6)
        assert ecdf.evaluate(0) == 0.0
        assert ecdf.evaluate(5) == 1.0

    def test_evaluate_array(self):
        ecdf = ECDF(np.array([1, 2, 3, 4]))
        out = ecdf.evaluate(np.array([0.5, 2.0, 10.0]))
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_quantile(self):
        ecdf = ECDF(np.arange(1, 101))
        assert ecdf.quantile(0.5) == 50
        assert ecdf.quantile(1.0) == 100
        assert ecdf.quantile(0.0) == 1

    def test_quantile_bounds(self):
        ecdf = ECDF([1.0])
        with pytest.raises(ValueError):
            ecdf.quantile(1.1)

    def test_unsorted_input_sorted(self):
        ecdf = ECDF(np.array([5, 1, 3]))
        assert ecdf.values.tolist() == [1, 3, 5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ECDF(np.array([]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ECDF(np.array([1.0, np.nan]))


class TestTailThreshold:
    def test_paper_semantics(self):
        # With alpha = 0.01 over 1000 observations, the threshold is the
        # 990th order statistic; exactly the top 1% lies strictly above.
        values = np.arange(1, 1001)
        ecdf = ECDF(values)
        threshold = ecdf.tail_threshold(0.01)
        assert threshold == 990
        assert ecdf.tail_mass_above(threshold) == pytest.approx(0.01)

    def test_tail_mass_above(self):
        ecdf = ECDF(np.array([1, 1, 2, 3]))
        assert ecdf.tail_mass_above(1) == pytest.approx(0.5)
        assert ecdf.tail_mass_above(3) == 0.0

    def test_alpha_bounds(self):
        ecdf = ECDF([1.0, 2.0])
        with pytest.raises(ValueError):
            ecdf.tail_threshold(0.0)
        with pytest.raises(ValueError):
            ecdf.tail_threshold(1.0)

    def test_degenerate_sample(self):
        ecdf = ECDF(np.full(100, 7.0))
        assert ecdf.tail_threshold(0.01) == 7.0
        assert ecdf.tail_mass_above(7.0) == 0.0

    def test_summary_keys(self):
        summary = ECDF(np.arange(10)).summary()
        assert summary["n"] == 10
        assert summary["min"] == 0 and summary["max"] == 9


class TestHistogramQuantile:
    """StreamingECDF's histogram answers exactly what ECDF's sorted
    sample does, ties at the quantile boundary included."""

    QS = (0.0, 0.05, 0.25, 0.5, 0.9, 0.95, 1.0 - 1e-4, 1.0)

    def test_ties_at_every_boundary(self):
        # Two tied runs, the split point swept over every rank: the
        # lower empirical quantile's index lands exactly on a run end.
        for n in range(1, 41):
            for split in range(n + 1):
                sample = np.array([3.0] * split + [9.0] * (n - split))
                hist = StreamingECDF()
                hist.add(sample[: n // 2])
                hist.add(sample[n // 2:])
                batch = ECDF(sample)
                for q in self.QS:
                    assert hist.quantile(q) == batch.quantile(q), (n, split, q)
                assert hist.tail_threshold(0.05) == batch.tail_threshold(0.05)

    def test_random_histograms(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            sample = rng.integers(0, rng.integers(1, 12), rng.integers(1, 80))
            hist = StreamingECDF()
            for part in np.array_split(sample, rng.integers(1, 5)):
                hist.add(part)
            batch = ECDF(sample)
            assert len(hist) == len(sample)
            for q in (*self.QS, float(rng.random())):
                assert hist.quantile(q) == batch.quantile(q)

    def test_empty_and_bad_input(self):
        hist = StreamingECDF()
        with pytest.raises(ValueError):
            hist.quantile(0.5)
        with pytest.raises(ValueError):
            hist.add([1.0, np.inf])
        hist.add([])
        assert len(hist) == 0
