"""One emission plan for a whole population.

Every packet a scanner sends into a view comes from one *span*: a
[start, end) generation sub-window of one of its sessions
(:func:`~repro.scanners.base.span_grid`), drawn from its own RNG stream
keyed ``(scanner seed, view, session, span)``.  :class:`SpanPlan` walks
a population once, in population order, and lists every span that
intersects the window:

* ``View.ranges()`` is computed once, and each distinct target ∩ view
  intersection once (nearly every session targets all of IPv4 or one
  range);
* every span's ``generate_state`` words come from one
  :func:`~repro.scanners.streams.derive_span_words` call (the per-span
  ``SeedSequence`` chain is the dominant fixed cost of a span);
* a span is generated by :meth:`Scanner._generate_span`, seeded from
  its pre-derived words.

Three readers share the plan: :func:`~repro.scanners.base.emit_population`
(the materialized capture), :meth:`Scanner.emit` (a one-scanner plan)
and :func:`~repro.scanners.lazy.emit_chunks` (window by window).

Scanner-like objects without sessions (``SpoofedScan``) have no span
grid: the plan hands them the view's ranges and RNG key through their
``emit_ranges(view_ranges, view_key, window)``.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.net.prefix import intersect_ranges, ranges_size
from repro.packet import PacketBatch
from repro.scanners import streams
from repro.scanners.base import ScanSession, Scanner, View, span_grid, view_rng_key


class Span(NamedTuple):
    """One generation span of one session, with its stream's row."""

    scanner: Scanner
    index: int
    session: ScanSession
    span: int
    s0: float
    s1: float
    inter: np.ndarray
    hit_space: int
    target_space: int
    row: int


class SpanPlan:
    """Every span a population emits into ``view`` within ``window``.

    ``entries`` holds one ``(scanner, spans)`` pair per scanner, in
    population order; ``spans`` lists the scanner's spans in (session,
    span) order — the generation order, hence the equal-timestamp tie
    order — or is ``None`` for a scanner-like object without sessions.
    A span's ``row`` indexes :attr:`words`, which :meth:`derive` fills
    for all spans at once.

    Args:
        scanners: the population, in emission order.
        view: the monitored address region.
        window: optional [start, end) clip; spans outside it are not
            planned, spans it cuts are planned whole.
    """

    def __init__(
        self,
        scanners: Sequence,
        view: View,
        window: Optional[tuple] = None,
    ):
        self.view_ranges = view.ranges()
        self.view_key = view_rng_key(view)
        self.window = window
        self.words: Optional[np.ndarray] = None
        #: target ranges (dtype, bytes) -> (inter, hit_space, target_space)
        overlaps: dict = {}
        rows = 0
        self.entries: List[tuple] = []
        for scanner in scanners:
            if not isinstance(scanner, Scanner):
                self.entries.append((scanner, None))
                continue
            spans = []
            for index, session in enumerate(scanner.sessions):
                if window is not None and (
                    session.start >= window[1] or session.end <= window[0]
                ):
                    continue
                targets = session.effective_targets()
                key = (targets.dtype.str, targets.tobytes())
                overlap = overlaps.get(key)
                if overlap is None:
                    inter = intersect_ranges(targets, self.view_ranges)
                    overlap = overlaps[key] = (
                        inter, ranges_size(inter), ranges_size(targets)
                    )
                inter, hit_space, target_space = overlap
                if hit_space == 0:
                    continue
                grid = span_grid(session, hit_space, target_space)
                for j, (s0, s1) in enumerate(grid):
                    if window is not None and (
                        max(s0, window[0]) >= min(s1, window[1])
                    ):
                        continue
                    spans.append(Span(
                        scanner, index, session, j, s0, s1,
                        inter, hit_space, target_space, rows,
                    ))
                    rows += 1
            self.entries.append((scanner, spans))
        self.n_spans = rows

    def derive(self) -> "SpanPlan":
        """Derive every span's RNG words in one vectorized pass, keyed
        ``(seed, view, session, span)`` in row order."""
        spans = [span for _, spans in self.entries if spans for span in spans]
        keys = np.empty((len(spans), 4), dtype=object)
        keys[:, 0] = [span.scanner.seed for span in spans]
        keys[:, 1] = self.view_key
        keys[:, 2] = [span.index for span in spans]
        keys[:, 3] = [span.span for span in spans]
        self.words = streams.derive_span_words(keys)
        return self

    def generate(self, span: Span) -> PacketBatch:
        """The whole span, unsorted, from its pre-derived stream (call
        :meth:`derive` first)."""
        return span.scanner._generate_span(
            span.session, span.index, span.span, span.s0, span.s1,
            span.inter, span.hit_space, span.target_space, self.view_key,
            rng=streams.generator_from_words(self.words[span.row]),
        )

    def emit_fallback(self, scanner) -> PacketBatch:
        """A sessionless scanner's emission over the plan's window."""
        return scanner.emit_ranges(self.view_ranges, self.view_key, self.window)

    def pop_entries(self) -> List[tuple]:
        """Hand the entries to their one reader and drop the plan's own
        reference, so each scanner's spans are freed as soon as that
        reader is done with them (not when the whole walk ends)."""
        entries, self.entries = self.entries, []
        return entries

    def scanner_batches(self) -> List[PacketBatch]:
        """Each scanner's packets inside the window, in generation order.

        One batch per entry: the scanner's spans (cut to the window by
        a boolean mask, which keeps generation order) concatenated.
        Consumes the plan's entries.
        """
        if self.words is None:
            self.derive()
        window = self.window
        batches = []
        entries = self.pop_entries()
        for i, (scanner, spans) in enumerate(entries):
            entries[i] = None
            if spans is None:
                batches.append(self.emit_fallback(scanner))
                continue
            parts = []
            for span in spans:
                batch = self.generate(span)
                if window is not None and (
                    span.s0 < window[0] or span.s1 > window[1]
                ):
                    batch = batch.select(
                        (batch.ts >= max(span.s0, window[0]))
                        & (batch.ts < min(span.s1, window[1]))
                    )
                parts.append(batch)
            batches.append(PacketBatch.concat(parts))
        return batches
