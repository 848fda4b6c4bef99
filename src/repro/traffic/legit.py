"""Diurnal legitimate-traffic model.

Border routers carry user traffic with strong time-of-day and
day-of-week structure: weekday business-hours peaks, quieter nights,
and noticeably lower weekend volume.  The weekend dip matters for the
paper's Table 2: the aggressive hitters' packet *fraction* is highest
on Saturday/Sunday precisely because the legitimate denominator drops
while scanning is constant.

The model also folds in the scanning traffic of the (unmodeled)
non-aggressive remainder of the Internet as a small constant floor, so
router totals are never exactly equal to legit + detected-AH packets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.clock import SimClock
from repro.traffic.cache import ContentCacheModel


@dataclass(frozen=True)
class DiurnalTrafficModel:
    """Per-second legitimate traffic rate for one monitored vantage.

    Attributes:
        base_pps: mean demand rate in packets per second.
        diurnal_amplitude: relative size of the time-of-day swing.
        weekend_factor: multiplier applied on Saturdays and Sundays.
        noise: relative standard deviation of per-second jitter.
        floor_pps: constant non-AH scanning floor at the border.
        cache: content-cache model shrinking border-visible demand.
        peak_hour: local hour of the diurnal maximum.
    """

    base_pps: float = 2_500.0
    diurnal_amplitude: float = 0.35
    weekend_factor: float = 0.62
    noise: float = 0.05
    floor_pps: float = 20.0
    cache: ContentCacheModel = ContentCacheModel(0.0)
    peak_hour: float = 20.0

    def __post_init__(self) -> None:
        if self.base_pps <= 0:
            raise ValueError("base_pps must be positive")
        if not 0 <= self.diurnal_amplitude < 1:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if not 0 < self.weekend_factor <= 1:
            raise ValueError("weekend_factor must be in (0, 1]")

    # ------------------------------------------------------------------
    def mean_rate_at(self, ts: np.ndarray, clock: SimClock) -> np.ndarray:
        """Expected border pps at the given timestamps (no jitter)."""
        ts = np.asarray(ts, dtype=np.float64)
        day = np.floor(ts / clock.seconds_per_day).astype(np.int64)
        tod = (ts / clock.seconds_per_day - day) * 24.0
        phase = 2.0 * np.pi * (tod - self.peak_hour) / 24.0
        diurnal = 1.0 + self.diurnal_amplitude * np.cos(phase)
        days, which = np.unique(day, return_inverse=True)
        weekend = np.array(
            [self.weekend_factor if clock.is_weekend(int(d)) else 1.0 for d in days]
        )[which]
        demand = self.base_pps * diurnal * weekend
        return demand * self.cache.border_factor() + self.floor_pps

    def daily_total(
        self, day: int, clock: SimClock, rng: np.random.Generator
    ) -> int:
        """Total border packets over one simulated day.

        Integrates the mean rate at minute resolution and applies
        day-level lognormal jitter.
        """
        minutes = np.arange(0, clock.seconds_per_day, 60.0)
        ts = clock.day_start(day) + minutes
        mean_total = float(np.sum(self.mean_rate_at(ts, clock)) * 60.0)
        # Scale to the actual day length when it is not a whole number
        # of minutes (compressed-day scenarios).
        mean_total *= clock.seconds_per_day / (len(minutes) * 60.0)
        jitter = rng.lognormal(mean=0.0, sigma=self.noise)
        return max(int(mean_total * jitter), 1)

    def per_second_counts(
        self,
        window: tuple,
        clock: SimClock,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Poisson per-second packet counts over [window[0], window[1])."""
        start, end = window
        seconds = np.arange(start, end, 1.0)
        rates = self.mean_rate_at(seconds, clock)
        jitter = rng.normal(1.0, self.noise, size=len(rates)).clip(min=0.1)
        return rng.poisson(rates * jitter).astype(np.int64)
