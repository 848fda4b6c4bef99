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
  spans of :meth:`Scanner._session_plan`; a span is generated once when
  the sweep first reaches it, sliced forward window by window, and freed
  as soon as the sweep passes its end.  Peak memory is O(active spans),
  never O(capture).
* **Bit-identity** — span RNG streams are keyed by (scanner, view,
  session, span), so the concatenation of all window batches equals
  ``emit_population(scanners, view, window).sorted_by_time()`` exactly:
  same addresses, ports, timestamps, and fingerprints.  Spans stay in
  generation order, window slices are boolean masks that preserve it,
  and the only sort in the chain is the stable per-window one — which
  therefore breaks equal-timestamp ties in generation (= population)
  order, exactly as the materialized path's single global stable sort
  does.  Seed derivation is itself batched: each window derives the
  streams of every span its newly admitted cursors will ever need in
  one vectorized pass (:mod:`repro.scanners.streams`).

Scanner-like objects without sessions (e.g.
:class:`repro.scanners.background.SpoofedScan`) are handled by a
fallback cursor that calls their ``emit`` once — with the same overall
window the batch path would pass, because their windowed emission is a
fresh realization rather than a slice — and serves time-slices of the
result.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import math

import numpy as np

from repro.packet import PacketBatch
from repro.scanners.base import View, view_rng_key
from repro.scanners.streams import derive_span_words, generator_from_words
from repro.sortkeys import order_by_time


class _ScannerCursor:
    """Forward-only window reader over one scanner's sessions."""

    __slots__ = (
        "scanner",
        "start",
        "end",
        "_view_ranges",
        "_view_key",
        "_state",
        "_words",
        "_pairs",
        "_alive",
        "_single",
        "_single_batch",
        "spans_derived",
        "spans_emitted",
    )

    def __init__(self, scanner, view_ranges: np.ndarray, view_key: int):
        self.scanner = scanner
        self.start = min(s.start for s in scanner.sessions)
        self.end = max(s.end for s in scanner.sessions)
        self._view_ranges = view_ranges
        self._view_key = view_key
        #: session index -> [plan, span_idx, cached span batch | None]
        self._state: dict = {}
        #: (session, span) -> pre-derived ``generate_state`` words;
        #: ``None`` until the cursor is primed.
        self._words: dict = None
        #: session indices not yet swept past, ascending.
        self._alive: list = None
        #: fast-path plan for the dominant one-session/one-span shape:
        #: ``(index, session, s0, s1, inter, hit_space, target_space)``.
        self._single = None
        self._single_batch = None
        #: RNG streams derived for this cursor (pre-dedup unit).
        self.spans_derived = 0
        #: spans that actually produced packets.
        self.spans_emitted = 0

    def prime_keys(self, t0: float) -> list:
        """Plan every session and key all upcoming span streams.

        Runs once, when the sweep admits the cursor: the session plans
        (target intersections, span grids) are computed eagerly and
        every span ending after ``t0`` contributes one RNG key row.
        The caller derives the rows — batched across *all* cursors the
        window admits (:func:`derive_span_words` pays off per batch,
        and most scanners only have a handful of spans each) — and
        hands the words back through :meth:`accept_words`.
        """
        pairs = []
        rows = []
        seed, view_key = self.scanner.seed, self._view_key
        for index, session in enumerate(self.scanner.sessions):
            if session.end <= t0:
                continue
            plan = self.scanner._session_plan(session, self._view_ranges)
            self._state[index] = [plan, 0, None]
            if plan[1] == 0:
                continue
            for span_idx, (_, s1) in enumerate(plan[3]):
                if s1 > t0:
                    pairs.append((index, span_idx))
                    rows.append((seed, view_key, index, span_idx))
        self._alive = sorted(self._state)
        self._pairs = pairs
        self.spans_derived = len(pairs)
        if len(self._state) == 1:
            # Nearly every scanner is one live session with one span —
            # pin the plan so `take` can skip the generic session/span
            # loops entirely.
            (index,) = self._state
            inter, hit_space, target_space, spans = self._state[index][0]
            if hit_space == 0 or not spans:
                self._single = ()
            elif len(spans) == 1:
                s0, s1 = spans[0]
                self._single = (
                    index, self.scanner.sessions[index],
                    s0, s1, inter, hit_space, target_space,
                )
        return rows

    def accept_words(self, words: np.ndarray) -> None:
        """Store bulk-derived RNG words for the keys of ``prime_keys``."""
        self._words = dict(zip(self._pairs, words))
        del self._pairs

    def _span_rng(self, index: int, span_idx: int):
        words = self._words.pop((index, span_idx), None)
        if words is None:
            # A span the priming pass didn't key (already swept past at
            # admission, or a cursor driven without priming) — derive
            # the identical stream the scalar way.
            return None
        return generator_from_words(words)

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
        if self._words is None:
            self.accept_words(derive_span_words(self.prime_keys(t0)))
        single = self._single
        if single is not None:
            if not single:
                return
            index, session, s0, s1, inter, hit_space, target_space = single
            if s0 >= t1 or s1 <= t0:
                return
            batch = self._single_batch
            sliced = s0 < t0 or s1 > t1
            if batch is None:
                batch = self._sorted_span(
                    self.scanner._generate_span(
                        session, index, 0, s0, s1,
                        inter, hit_space, target_space, self._view_key,
                        rng=self._span_rng(index, 0),
                    ),
                    sliced,
                )
            ts = batch[0]
            if sliced:
                # Sorted by construction: a span revisited across
                # windows was cut at generation (s1 > t1 then, s0 < t0
                # now), so `_sorted_span` already ordered it.
                i0, i1 = ts.searchsorted(
                    [max(s0, t0), min(s1, t1)], side="left"
                )
                if i0 < i1:
                    cut = slice(int(i0), int(i1))
                    parts.append((
                        ts[cut], batch[1][cut], batch[2][cut],
                        batch[3][cut], batch[4][cut], batch[5][cut],
                    ))
            elif len(ts):
                parts.append(batch)
            if s1 <= t1:
                self._single = ()
                self._single_batch = None
            else:
                self._single_batch = batch
            return
        still_alive = []
        sessions = self.scanner.sessions
        for index in self._alive:
            session = sessions[index]
            if session.end <= t0:
                self._state.pop(index, None)
                continue
            still_alive.append(index)
            if session.start >= t1:
                continue
            state = self._state[index]
            inter, hit_space, target_space, spans = state[0]
            if hit_space == 0:
                continue
            span_idx, batch = state[1], state[2]
            while span_idx < len(spans):
                s0, s1 = spans[span_idx]
                if s1 <= t0:
                    span_idx += 1
                    batch = None
                    continue
                if s0 >= t1:
                    break
                sliced = s0 < t0 or s1 > t1
                if batch is None:
                    batch = self._sorted_span(
                        self.scanner._generate_span(
                            session, index, span_idx, s0, s1,
                            inter, hit_space, target_space, self._view_key,
                            rng=self._span_rng(index, span_idx),
                        ),
                        sliced,
                    )
                ts = batch[0]
                if sliced:
                    i0, i1 = ts.searchsorted(
                        [max(s0, t0), min(s1, t1)], side="left"
                    )
                    if i0 < i1:
                        cut = slice(int(i0), int(i1))
                        parts.append((
                            ts[cut], batch[1][cut], batch[2][cut],
                            batch[3][cut], batch[4][cut], batch[5][cut],
                        ))
                elif len(ts):
                    parts.append(batch)
                if s1 <= t1:
                    span_idx += 1
                    batch = None
                else:
                    break
            state[1], state[2] = span_idx, batch
        self._alive = still_alive


class _FallbackCursor:
    """Cursor for duck-typed scanners without :class:`ScanSession` lists.

    Their ``emit`` is called exactly once, with the same overall window
    the materializing batch path passes (their windowed emission is a
    fresh realization, not a slice of the full one), and the sorted
    result is sliced forward.  Memory is bounded by that one emission,
    held only while the object is active.
    """

    __slots__ = (
        "scanner", "start", "end", "_view", "_window", "_batch",
        "spans_derived", "spans_emitted",
    )

    def __init__(self, scanner, view: View, window: Optional[tuple]):
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
        self._view = view
        self._window = window
        self._batch: Optional[PacketBatch] = None
        #: one ``emit`` call is one realized stream (the fallback has
        #: no span grid to pre-derive against).
        self.spans_derived = 0
        self.spans_emitted = 0

    def take(self, t0: float, t1: float, parts: list) -> None:
        if self._batch is None:
            self._batch = self.scanner.emit(
                self._view, self._window
            ).sorted_by_time()
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
        view_ranges = view.ranges()
        view_key = view_rng_key(view)
        cursors = []
        for position, scanner in enumerate(scanners):
            if getattr(scanner, "sessions", None):
                cursor = _ScannerCursor(scanner, view_ranges, view_key)
            else:
                cursor = _FallbackCursor(scanner, view, window)
            if window is not None:
                if cursor.start >= window[1] or cursor.end <= window[0]:
                    continue
            cursors.append((position, cursor))
        #: cursors sorted by first activity; admitted by the sweep.
        self._pending = sorted(
            cursors, key=lambda item: (item[1].start, item[0])
        )

    @property
    def spans_derived(self) -> int:
        """RNG span streams keyed so far (pre-dedup derivation units).

        Grows as the sweep admits cursors; read after iteration for the
        population total.  Always >= :attr:`spans_emitted` — a derived
        span whose generation lands entirely outside the view (or
        produces zero packets) is derived work without emitted packets.
        """
        return sum(cursor.spans_derived for _, cursor in self._pending)

    @property
    def spans_emitted(self) -> int:
        """Derived spans that actually produced packets."""
        return sum(cursor.spans_emitted for _, cursor in self._pending)

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
            admitted = []
            while (
                next_pending < len(pending)
                and pending[next_pending][1].start < t1
            ):
                position, cursor = pending[next_pending]
                active[position] = cursor
                if isinstance(cursor, _ScannerCursor):
                    admitted.append(cursor)
                next_pending += 1
            if admitted:
                # One vectorized seed derivation across every cursor
                # this window admits — most scanners have only a few
                # spans, so per-cursor batches would be too small to
                # amortize anything.
                rows = []
                bounds = [0]
                for cursor in admitted:
                    rows.extend(cursor.prime_keys(t0))
                    bounds.append(len(rows))
                words = derive_span_words(rows)
                for cursor, b0, b1 in zip(admitted, bounds, bounds[1:]):
                    cursor.accept_words(words[b0:b1])
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
