"""Lazy, windowed population emission.

:func:`repro.scanners.base.emit_population` materializes every packet a
population sends into a view, concatenates, and time-sorts — an
O(total capture) memory wall at the head of every run.  This module
replaces it for the streaming pipeline: :class:`PopulationEmitter`
walks an epoch-aligned chunk grid and, per window, generates only the
packets landing inside it.

Three properties make this both cheap and exact:

* **Interval index** — cursors are sorted by first activity and admitted
  to the active set only while a session overlaps the current window, so
  a window's cost scales with concurrent scanners, not population size.
* **Span caching** — each session is generated in the deterministic
  spans of one population :class:`~repro.scanners.plan.SpanPlan`, built
  when the sweep starts; a span is generated once when the sweep first
  reaches it, sliced forward window by window, and freed as soon as the
  sweep passes its end.  Peak memory is O(active spans), never
  O(capture).
* **Bit-identity** — span RNG streams are keyed by (scanner, view,
  session, span), so the concatenation of all window batches equals
  ``emit_population(scanners, view, window).sorted_by_time()`` exactly:
  same addresses, ports, timestamps, and fingerprints.  Spans stay in
  generation order, window slices are boolean masks that preserve it,
  and the only sort in the chain is the stable per-window one — which
  therefore breaks equal-timestamp ties in generation (= population)
  order, exactly as the materialized path's single global stable sort
  does.  Every span's stream is derived in the plan's one vectorized
  pass (:mod:`repro.scanners.streams`).

Scanner-like objects without sessions (e.g.
:class:`repro.scanners.background.SpoofedScan`) are handled by a
fallback cursor that draws their emission once through the plan — over
the same overall window the batch path uses, because their windowed
emission is a fresh realization rather than a slice — and serves
time-slices of the result.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import math

import numpy as np

from repro.packet import PacketBatch
from repro.scanners.base import Scanner, View
from repro.scanners.plan import SpanPlan
from repro.sortkeys import order_by_time


class _ScannerCursor:
    """Forward-only window reader over one scanner's planned spans."""

    __slots__ = ("scanner", "start", "end", "_plan", "_sessions", "spans_emitted")

    #: a session-backed scanner's streams are counted by the plan.
    spans_derived = 0

    def __init__(self, scanner):
        self.scanner = scanner
        self.start = min(s.start for s in scanner.sessions)
        self.end = max(s.end for s in scanner.sessions)
        self._plan = None
        #: per live session: [its spans, next span, cached span columns]
        self._sessions: list = []
        #: spans that actually produced packets.
        self.spans_emitted = 0

    def attach(self, plan, spans: list) -> None:
        """Take this scanner's spans (in (session, span) order) from
        the population plan, grouped by session."""
        self._plan = plan
        grouped: dict = {}
        for span in spans:
            grouped.setdefault(span.index, []).append(span)
        self._sessions = [[group, 0, None] for group in grouped.values()]

    def _sorted_span(self, gen, cut_by_window: bool) -> tuple:
        """Generation output as a column tuple, span-sorted if sliced.

        A window edge cutting the span means it will be served as
        slices: stable-sort it once at generation (ties keep generation
        order) and every slice is then a free view.  Spans fully inside
        a window skip the sort and are handed over in generation order
        — either way the per-window stable sort downstream sees ties in
        generation order, exactly as the materialized path's single
        global stable sort over generation order does.
        """
        if len(gen):
            self.spans_emitted += 1
        if not cut_by_window:
            return gen.ts, gen.src, gen.dst, gen.dport, gen.proto, gen.ipid
        order = order_by_time(gen.ts)
        return (
            gen.ts[order], gen.src[order], gen.dst[order],
            gen.dport[order], gen.proto[order], gen.ipid[order],
        )

    def take(self, t0: float, t1: float, parts: list) -> None:
        """Append column tuples with ``t0 <= ts < t1`` onto ``parts``.

        Parts are raw ``(ts, src, dst, dport, proto, ipid)`` array
        tuples in (session, span) order — the emitter builds one
        :class:`PacketBatch` per window from all cursors' parts, so no
        per-slice batch objects are constructed or validated on the hot
        path.

        Must be called with non-decreasing windows; spans the sweep has
        passed are freed and cannot be revisited.
        """
        live = []
        for state in self._sessions:
            spans, k, cols = state
            while k < len(spans):
                span = spans[k]
                s0, s1 = span.s0, span.s1
                if s1 <= t0:
                    k += 1
                    cols = None
                    continue
                if s0 >= t1:
                    break
                sliced = s0 < t0 or s1 > t1
                if cols is None:
                    cols = self._sorted_span(self._plan.generate(span), sliced)
                ts = cols[0]
                if sliced:
                    # Sorted by construction: a span revisited across
                    # windows was cut at generation (s1 > t1 then, s0 <
                    # t0 now), so `_sorted_span` already ordered it.
                    i0, i1 = ts.searchsorted(
                        [max(s0, t0), min(s1, t1)], side="left"
                    )
                    if i0 < i1:
                        cut = slice(int(i0), int(i1))
                        parts.append((
                            ts[cut], cols[1][cut], cols[2][cut],
                            cols[3][cut], cols[4][cut], cols[5][cut],
                        ))
                elif len(ts):
                    parts.append(cols)
                if s1 > t1:
                    break
                k += 1
                cols = None
            if k < len(spans):
                state[1], state[2] = k, cols
                live.append(state)
        self._sessions = live


class _FallbackCursor:
    """Cursor for scanner-like objects without :class:`ScanSession` lists.

    Their emission is drawn exactly once, over the same overall window
    the materializing batch path uses (their windowed emission is a
    fresh realization, not a slice of the full one), and the sorted
    result is sliced forward.  Memory is bounded by that one emission,
    held only while the object is active.
    """

    __slots__ = (
        "scanner", "start", "end", "_plan", "_batch",
        "spans_derived", "spans_emitted",
    )

    def __init__(self, scanner, window: Optional[tuple]):
        self.scanner = scanner
        start = getattr(scanner, "start", None)
        duration = getattr(scanner, "duration", None)
        if start is not None and duration is not None:
            self.start, self.end = float(start), float(start + duration)
        elif window is not None:
            self.start, self.end = window
        else:
            raise ValueError(
                "scanner without sessions needs start/duration attributes "
                "or an explicit overall window"
            )
        self._plan = None
        self._batch: Optional[PacketBatch] = None
        #: one emission is one realized stream (the fallback has no
        #: span grid to pre-derive against).
        self.spans_derived = 0
        self.spans_emitted = 0

    def attach(self, plan, spans) -> None:
        self._plan = plan

    def take(self, t0: float, t1: float, parts: list) -> None:
        if self._batch is None:
            self._batch = self._plan.emit_fallback(self.scanner).sorted_by_time()
            self.spans_derived = 1
            self.spans_emitted = 1 if len(self._batch) else 0
        i0, i1 = np.searchsorted(self._batch.ts, [t0, t1], side="left")
        part = self._batch.select(slice(int(i0), int(i1)))
        if len(part):
            parts.append(
                (part.ts, part.src, part.dst,
                 part.dport, part.proto, part.ipid)
            )


class PopulationEmitter:
    """Stream a population's capture as time-sorted window batches.

    Iterating yields ``(start, end, PacketBatch)`` tuples on an
    epoch-aligned ``chunk_seconds`` grid (the same grid
    ``PacketBatch.iter_time_chunks`` uses), including empty windows.
    Concatenating every batch reproduces
    ``emit_population(scanners, view, window).sorted_by_time()``
    bit-identically.

    Args:
        scanners: population in emission order (order is part of the
            tie-breaking contract and must match the batch path).
        view: the monitored address region.
        chunk_seconds: window length of the grid.
        window: optional overall [start, end) clip — the scenario
            window in simulation runs.
    """

    def __init__(
        self,
        scanners: Sequence,
        view: View,
        chunk_seconds: float,
        window: Optional[tuple] = None,
    ):
        if chunk_seconds <= 0:
            raise ValueError("chunk_seconds must be positive")
        self.view = view
        self.chunk_seconds = float(chunk_seconds)
        self.window = window
        cursors = []
        for position, scanner in enumerate(scanners):
            if not isinstance(scanner, Scanner):
                cursor = _FallbackCursor(scanner, window)
            elif scanner.sessions:
                cursor = _ScannerCursor(scanner)
            else:
                continue
            if window is not None:
                if cursor.start >= window[1] or cursor.end <= window[0]:
                    continue
            cursors.append((position, cursor))
        #: cursors in population order; the span plan is built over
        #: them on first iteration.
        self._cursors = cursors
        self._planned_spans = 0
        #: cursors sorted by first activity; admitted by the sweep.
        self._pending = sorted(
            cursors, key=lambda item: (item[1].start, item[0])
        )

    @property
    def spans_derived(self) -> int:
        """RNG span streams derived so far.

        Zero until iteration starts, then every planned span (derived
        in one pass when the sweep begins) plus one per sessionless
        scanner emitted.  Always >= :attr:`spans_emitted` — a derived
        span whose generation lands entirely outside the view (or
        produces zero packets) is derived work without emitted packets.
        """
        return self._planned_spans + sum(
            cursor.spans_derived for _, cursor in self._cursors
        )

    @property
    def spans_emitted(self) -> int:
        """Derived spans that actually produced packets."""
        return sum(cursor.spans_emitted for _, cursor in self._cursors)

    def span(self) -> Optional[tuple]:
        """Overall [start, end) the emitter will cover, or ``None``."""
        if not self._pending:
            return None
        lo = self._pending[0][1].start
        hi = max(cursor.end for _, cursor in self._pending)
        if self.window is not None:
            lo, hi = max(lo, self.window[0]), min(hi, self.window[1])
        if lo >= hi:
            return None
        return lo, hi

    def __iter__(self) -> Iterator[tuple]:
        covered = self.span()
        if covered is None:
            return
        lo, hi = covered
        plan = SpanPlan(
            [cursor.scanner for _, cursor in self._cursors],
            self.view,
            self.window,
        ).derive()
        for (_, cursor), (_, spans) in zip(self._cursors, plan.pop_entries()):
            cursor.attach(plan, spans)
        self._planned_spans = plan.n_spans
        cs = self.chunk_seconds
        first_edge = math.floor(lo / cs) * cs
        pending = list(self._pending)
        next_pending = 0
        active: dict = {}
        i = 0
        while True:
            w0 = first_edge + i * cs
            if w0 >= hi:
                break
            w1 = w0 + cs
            t0, t1 = max(w0, lo), min(w1, hi)
            while (
                next_pending < len(pending)
                and pending[next_pending][1].start < t1
            ):
                position, cursor = pending[next_pending]
                active[position] = cursor
                next_pending += 1
            parts = []
            finished = []
            for position in sorted(active):
                cursor = active[position]
                cursor.take(t0, t1, parts)
                if cursor.end <= t1:
                    finished.append(position)
            for position in finished:
                del active[position]
            if not parts:
                batch = PacketBatch.empty()
            elif len(parts) == 1:
                batch = PacketBatch(*parts[0])
            else:
                batch = PacketBatch(
                    *(
                        np.concatenate([p[col] for p in parts])
                        for col in range(6)
                    )
                )
            yield w0, w1, batch.sorted_by_time()
            if not active and next_pending >= len(pending):
                break
            i += 1
