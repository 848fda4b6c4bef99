"""The network telescope (darknet) itself.

The ORION telescope announces ~500k contiguous unused addresses and
records every packet that arrives.  Here the telescope is a monitored
:class:`~repro.scanners.base.View` over a dark prefix carved from the
synthetic address plan, plus the capture step that collects scanner
emissions into a :class:`~repro.telescope.capture.DarknetCapture`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.config import event_timeout_seconds
from repro.net.prefix import Prefix, PrefixSet
from repro.scanners.base import Scanner, View, emit_population
from repro.telescope.capture import DarknetCapture


@dataclass(frozen=True)
class Telescope:
    """A darknet: one or more dark prefixes under observation."""

    prefixes: PrefixSet
    name: str = "darknet"

    @classmethod
    def from_prefix(cls, prefix: Prefix, name: str = "darknet") -> "Telescope":
        """Telescope over a single dark prefix."""
        return cls(prefixes=PrefixSet([prefix]), name=name)

    @property
    def size(self) -> int:
        """Number of dark addresses."""
        return self.prefixes.size

    def view(self) -> View:
        """The telescope as an emission view."""
        return View(name=self.name, prefixes=self.prefixes)

    def default_timeout(self) -> float:
        """The event timeout derived from this telescope's aperture."""
        return event_timeout_seconds(self.size)

    def capture(
        self,
        scanners: Sequence[Scanner],
        window: Optional[tuple] = None,
    ) -> DarknetCapture:
        """Record all packets the population sends into the dark space.

        Args:
            scanners: the scanner population.
            window: optional [start, end) time restriction.

        Returns:
            A time-sorted :class:`DarknetCapture`.
        """
        packets = emit_population(scanners, self.view(), window)
        return DarknetCapture(packets=packets, telescope=self)
