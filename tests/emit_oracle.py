"""The scanner-by-scanner emission loop, kept as a test oracle.

Before the population span plan (:mod:`repro.scanners.plan`), every
scanner emitted on its own: ``Scanner.emit`` rebuilt the view's ranges,
planned each session (target ∩ view intersection and span grid),
derived that session's span streams in one small batch, generated and
window-clipped each span, and concatenated; ``emit_population``
concatenated the scanners and sorted once.  This is that loop, unchanged
but for living outside the class: property tests and the emit probe
require the plan's output to equal it column for column.
"""

from typing import Optional, Sequence

import numpy as np

from repro.net.prefix import intersect_ranges, ranges_size
from repro.packet import PacketBatch
from repro.scanners.base import (
    Scanner,
    ScanSession,
    View,
    span_grid,
    view_rng_key,
)
from repro.scanners.streams import span_generators


def offsets_to_addrs(ranges: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The range-search form of ``_offsets_to_addrs`` (any range count)."""
    sizes = ranges[:, 1] - ranges[:, 0]
    bounds = np.cumsum(sizes)
    which = np.searchsorted(bounds, offsets, side="right")
    starts = np.concatenate([[0], bounds[:-1]])
    return (ranges[which, 0] + (offsets - starts[which])).astype(np.uint32)


def session_plan(session: ScanSession, view_ranges: np.ndarray) -> tuple:
    """Deterministic generation plan for one session into one view.

    Returns ``(inter, hit_space, target_space, spans)`` where spans
    is the :func:`span_grid` of the session (empty when the target
    space misses the view).
    """
    inter = intersect_ranges(session.effective_targets(), view_ranges)
    hit_space = ranges_size(inter)
    if hit_space == 0:
        return inter, 0, 0, []
    target_space = session.target_space_size()
    return (
        inter, hit_space, target_space,
        span_grid(session, hit_space, target_space),
    )


def _emit_session_windowed(
    scanner: Scanner, index, session, view_ranges, view_key, window
) -> PacketBatch:
    """One session's packets clipped to ``window`` (exact slices)."""
    inter, hit_space, target_space, spans = session_plan(session, view_ranges)
    if hit_space == 0:
        return PacketBatch.empty()
    live = []
    for j, (s0, s1) in enumerate(spans):
        if window is not None:
            c0, c1 = max(s0, window[0]), min(s1, window[1])
            if c0 >= c1:
                continue
        else:
            c0, c1 = s0, s1
        live.append((j, s0, s1, c0, c1))
    rngs = span_generators(
        [(scanner.seed, view_key, index, j) for j, *_ in live]
    )
    parts = []
    for (j, s0, s1, c0, c1), rng in zip(live, rngs):
        batch = scanner._generate_span(
            session, index, j, s0, s1, inter, hit_space, target_space,
            view_key, rng=rng,
        )
        if c0 > s0 or c1 < s1:
            batch = batch.select((batch.ts >= c0) & (batch.ts < c1))
        if len(batch):
            parts.append(batch)
    return PacketBatch.concat(parts)


def oracle_emit(
    scanner, view: View, window: Optional[tuple] = None
) -> PacketBatch:
    """One scanner's unsorted emission, scanner by scanner."""
    if not isinstance(scanner, Scanner):
        return scanner.emit(view, window)
    view_key = view_rng_key(view)
    view_ranges = view.ranges()
    batches = []
    for index, session in enumerate(scanner.sessions):
        if window is not None and (
            session.start >= window[1] or session.end <= window[0]
        ):
            continue
        batch = _emit_session_windowed(
            scanner, index, session, view_ranges, view_key, window
        )
        if len(batch):
            batches.append(batch)
    return PacketBatch.concat(batches)


def oracle_emit_population(
    scanners: Sequence, view: View, window: Optional[tuple] = None
) -> PacketBatch:
    """The time-sorted capture, emitted scanner by scanner."""
    return PacketBatch.concat(
        [oracle_emit(scanner, view, window) for scanner in scanners]
    ).sorted_by_time()
