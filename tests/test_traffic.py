"""Unit tests for legitimate-traffic and cache models."""

import datetime as dt

import numpy as np
import pytest

from repro.sim.clock import SimClock
from repro.traffic.cache import ContentCacheModel
from repro.traffic.legit import DiurnalTrafficModel


class TestCache:
    def test_border_factor(self):
        assert ContentCacheModel(0.0).border_factor() == 1.0
        assert ContentCacheModel(0.45).border_factor() == pytest.approx(0.55)

    def test_amplification(self):
        assert ContentCacheModel(0.5).amplification() == pytest.approx(2.0)

    def test_bounds(self):
        with pytest.raises(ValueError):
            ContentCacheModel(1.0)
        with pytest.raises(ValueError):
            ContentCacheModel(-0.1)


class TestDiurnalModel:
    @pytest.fixture()
    def clock(self):
        return SimClock(start_date=dt.date(2022, 1, 14))  # Friday

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalTrafficModel(base_pps=0)
        with pytest.raises(ValueError):
            DiurnalTrafficModel(diurnal_amplitude=1.0)
        with pytest.raises(ValueError):
            DiurnalTrafficModel(weekend_factor=0.0)

    @pytest.mark.parametrize(
        "seconds_per_day, window",
        [
            (86_400.0, (80_000.0, 260_000.0)),  # Fri -> Sat -> Sun -> Mon
            (900.0, (0.0, 4_500.0)),  # compressed days, same crossings
        ],
    )
    def test_rates_match_per_second_loop(self, seconds_per_day, window):
        # The weekend factor is looked up once per distinct day; the
        # rates must be bit-identical to a per-timestamp lookup.
        clock = SimClock(
            start_date=dt.date(2022, 1, 14), seconds_per_day=seconds_per_day
        )
        model = DiurnalTrafficModel(base_pps=1_000.0, cache=ContentCacheModel(0.3))
        ts = np.arange(*window, 7.0)
        days = np.floor(ts / seconds_per_day).astype(np.int64)
        assert {clock.is_weekend(int(d)) for d in days} == {False, True}
        # Reference: the same arithmetic, weekend looked up per timestamp.
        tod = (ts / seconds_per_day - days) * 24.0
        diurnal = 1.0 + model.diurnal_amplitude * np.cos(
            2.0 * np.pi * (tod - model.peak_hour) / 24.0
        )
        weekend = np.array(
            [model.weekend_factor if clock.is_weekend(int(d)) else 1.0 for d in days]
        )
        expected = (
            model.base_pps * diurnal * weekend * model.cache.border_factor()
            + model.floor_pps
        )
        assert np.array_equal(model.mean_rate_at(ts, clock), expected)
        assert len(model.mean_rate_at(np.empty(0), clock)) == 0

    def test_weekend_dip(self, clock, rng):
        model = DiurnalTrafficModel(base_pps=1_000.0, noise=0.0)
        friday = model.daily_total(0, clock, rng)
        saturday = model.daily_total(1, clock, rng)
        assert saturday < friday
        assert saturday / friday == pytest.approx(model.weekend_factor, rel=0.05)

    def test_diurnal_peak_near_peak_hour(self, clock):
        model = DiurnalTrafficModel(base_pps=1_000.0, peak_hour=20.0)
        hours = np.arange(24) * 3_600.0
        rates = model.mean_rate_at(hours, clock)
        assert np.argmax(rates) == 20

    def test_cache_shrinks_border(self, clock):
        demand = DiurnalTrafficModel(base_pps=1_000.0, floor_pps=0.0)
        cached = DiurnalTrafficModel(
            base_pps=1_000.0,
            floor_pps=0.0,
            cache=ContentCacheModel(0.4),
        )
        ts = np.array([3_600.0])
        assert cached.mean_rate_at(ts, clock)[0] == pytest.approx(
            0.6 * demand.mean_rate_at(ts, clock)[0]
        )

    def test_floor_added(self, clock):
        model = DiurnalTrafficModel(base_pps=1_000.0, floor_pps=77.0)
        bare = DiurnalTrafficModel(base_pps=1_000.0, floor_pps=0.0)
        ts = np.array([0.0])
        diff = model.mean_rate_at(ts, clock)[0] - bare.mean_rate_at(ts, clock)[0]
        assert diff == pytest.approx(77.0)

    def test_daily_total_scale(self, clock, rng):
        model = DiurnalTrafficModel(base_pps=1_000.0, noise=0.0, floor_pps=0.0)
        total = model.daily_total(0, clock, rng)
        # Mean rate is base_pps over a day (cosine integrates to zero).
        assert abs(total - 1_000 * 86_400) < 0.02 * 1_000 * 86_400

    def test_per_second_counts_length(self, clock, rng):
        model = DiurnalTrafficModel(base_pps=100.0)
        counts = model.per_second_counts((0.0, 600.0), clock, rng)
        assert len(counts) == 600
        assert counts.dtype == np.int64
        assert abs(counts.mean() - model.mean_rate_at(np.array([300.0]), clock)[0]) < 30
