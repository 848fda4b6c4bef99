"""Lazy, windowed population emission.

:func:`repro.scanners.base.emit_population` materializes every packet a
population sends into a view, concatenates, and time-sorts — an
O(total capture) memory wall at the head of every run.
:func:`emit_chunks` replaces it for the streaming pipeline: one sweep
over the population's :class:`~repro.scanners.plan.SpanPlan` on an
epoch-aligned chunk grid, generating each span once, when the sweep
reaches its start, and yielding one time-sorted window at a time.  Peak
memory is one window plus the spans still open past it, never the
capture.

The concatenation of all windows equals
``emit_population(scanners, view, window)`` bit for bit.  Span RNG
streams are keyed by (scanner, view, session, span), so generating a
span in the sweep gives the same packets as generating it in the
capture.  A window's parts are concatenated in plan (= population,
session, span) order before its one stable time sort, so equal
timestamps break in generation order, exactly as the capture's single
global stable sort does.

A scanner-like object without sessions (e.g.
:class:`repro.scanners.background.SpoofedScan`) is one item of the
sweep over its own ``start``/``duration`` (else the overall window),
drawn once through the plan over the overall window — its windowed
emission is a fresh realization, not a slice — and split by window.
"""

from __future__ import annotations

import math
from typing import Generator, Iterator, Optional, Sequence

import numpy as np

from repro.packet import COLUMNS, PacketBatch
from repro.scanners.base import View
from repro.scanners.plan import Span, SpanPlan
from repro.sortkeys import order_by_time
from repro.telescope.chunks import CaptureChunk


def emit_chunks(
    scanners: Sequence,
    view: View,
    chunk_seconds: float,
    window: Optional[tuple] = None,
    report: Optional[dict] = None,
) -> Iterator[CaptureChunk]:
    """Stream a population's capture as time-sorted window chunks.

    Windows lie on the epoch-aligned ``chunk_seconds`` grid (the grid
    ``PacketBatch.iter_time_chunks`` uses); only non-empty ones are
    yielded, each with ``index`` = its grid position
    (``start / chunk_seconds``).

    Args:
        scanners: population in emission order (order is part of the
            tie-breaking contract and must match the batch path).
        view: the monitored address region.
        chunk_seconds: window length of the grid.
        window: optional overall [start, end) clip — the scenario
            window in simulation runs.
        report: optional dict, filled once the sweep is drained with
            ``spans_derived`` (RNG streams derived: every planned span
            plus one per sessionless scanner) and ``spans_emitted``
            (those that produced packets).
    """
    if chunk_seconds <= 0:
        raise ValueError("chunk_seconds must be positive")
    plan = SpanPlan(scanners, view, window).derive()
    # One item per span or sessionless scanner: (start, end, item).
    items = []
    for scanner, spans in plan.pop_entries():
        if spans is not None:
            items.extend((span.s0, span.s1, span) for span in spans)
            continue
        start = getattr(scanner, "start", None)
        duration = getattr(scanner, "duration", None)
        if start is not None and duration is not None:
            s0, s1 = float(start), float(start + duration)
        elif window is not None:
            s0, s1 = window
        else:
            raise ValueError(
                "scanner without sessions needs start/duration attributes "
                "or an explicit overall window"
            )
        if window is None or (s0 < window[1] and s1 > window[0]):
            items.append((s0, s1, scanner))
    lo = min((s0 for s0, _, _ in items), default=math.inf)
    hi = max((s1 for _, s1, _ in items), default=-math.inf)
    if window is not None:
        lo, hi = max(lo, window[0]), min(hi, window[1])
    derived = plan.n_spans + sum(
        not isinstance(item, Span) for _, _, item in items
    )
    emitted = 0
    if lo < hi:
        emitted = yield from _sweep(plan, items, float(chunk_seconds), lo, hi)
    if report is not None:
        report.update(spans_derived=derived, spans_emitted=emitted)


def _sweep(
    plan: SpanPlan, items: list, cs: float, lo: float, hi: float
) -> Generator[CaptureChunk, None, int]:
    """Yield the non-empty windows of ``items`` over [lo, hi); return
    how many items produced packets.  Consumes ``items``."""
    first = math.floor(lo / cs)
    first_edge = first * cs

    def edge(i: int) -> float:
        return first_edge + i * cs

    def bounds(i: int) -> tuple:
        w0 = edge(i)
        return max(w0, lo), min(w0 + cs, hi)

    #: window index -> [(item position, column tuple)]
    buckets: dict = {}

    def admit(position: int, i: int) -> bool:
        """Generate one item, first seen in window ``i``, into the bucket
        of every window it covers; ``True`` if it produced packets."""
        s0, s1, item = items[position]
        items[position] = None  # the sweep has passed it: free its record
        if isinstance(item, Span):
            batch, c0, c1 = plan.generate(item), s0, s1
        else:
            # Sliced on window edges alone.
            batch, c0, c1 = plan.emit_fallback(item), -math.inf, math.inf
        if not len(batch):
            return False
        cols = tuple(getattr(batch, column) for column in COLUMNS)
        t0, t1 = bounds(i)
        if c0 >= t0 and c1 <= t1:
            buckets.setdefault(i, []).append((position, cols))
            return True
        # Cut by a window edge: sort once (stable, so ties keep
        # generation order); every window's part is then a view.
        order = order_by_time(batch.ts)
        cols = tuple(col[order] for col in cols)
        while True:
            t0, t1 = bounds(i)
            a, b = cols[0].searchsorted([max(c0, t0), min(c1, t1)])
            if a < b:
                buckets.setdefault(i, []).append(
                    (position, tuple(col[a:b] for col in cols))
                )
            if s1 <= t1 or edge(i + 1) >= hi:
                return True
            i += 1

    # Items are admitted by start (stable: the list position breaks ties).
    pending = sorted(range(len(items)), key=lambda p: items[p][0])
    emitted = nxt = i = 0
    while (buckets or nxt < len(pending)) and edge(i) < hi:
        t1 = bounds(i)[1]
        while nxt < len(pending) and items[pending[nxt]][0] < t1:
            emitted += admit(pending[nxt], i)
            nxt += 1
        parts = buckets.pop(i, None)
        if parts:
            parts.sort(key=lambda part: part[0])
            packets = PacketBatch(*(
                parts[0][1][k] if len(parts) == 1
                else np.concatenate([part[1][k] for part in parts])
                for k in range(len(COLUMNS))
            )).sorted_by_time()
            parts = None  # the window's parts die before the consumer runs
            w0 = edge(i)
            yield CaptureChunk(first + i, w0, w0 + cs, packets)
        i += 1
    return emitted
