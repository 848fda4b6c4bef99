"""Incremental darknet-event construction and detection.

A production telescope never sees its year of traffic at once: captures
arrive in chunks (hourly pcaps, kafka batches), and the event pipeline
must fold each chunk in while keeping *open* flows — (src, port, proto)
activity whose silence gap has not yet exceeded the timeout — alive
across chunk boundaries.  ``StreamingEventBuilder`` implements exactly
that and is equivalent to the batch builder: feeding it any chunking of
a capture yields the same events as one :func:`~repro.core.events.build_events`
call over the concatenation (a property test pins this down).

``StreamingDetector`` stacks incremental detection on top: it drains
finalized events out of the builder after every chunk and folds them
into per-definition state — a histogram of per-event packet counts and
per-source peaks (Definition 2), the running set of dispersion-qualified
sources (Definition 1) and a deduplicated set of (src, day, port)
triples with per-(src, day) distinct-port counts (Definition 3).  At
:meth:`~StreamingDetector.finish` the accumulated state is handed to the
*same* threshold rules and result builders the batch path uses
(:mod:`repro.core.detection`), so both modes produce identical
:class:`~repro.core.detection.DetectionResult`\\ s by construction;
:meth:`~StreamingDetector.summary` answers a live AH query from the same
state without finishing.

Both layers expose the operational telemetry a live deployment needs —
number of open flows (state size, with its running peak) and watermarks
— and support *early-emission* queries: the events that are already
final given the data seen so far (everything whose flow expired before
the watermark).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import DetectionConfig
from repro.core import statefile
from repro.core.detection import (
    DetectionResult,
    dispersion_result,
    dispersion_threshold,
    ports_result_from_counts,
    ports_threshold,
    volume_result,
    volume_threshold,
)
from repro.core.ecdf import StreamingECDF
from repro.core.events import EventTable, build_events, segment_events
from repro.packet import PacketBatch
from repro.sortkeys import distinct, run_starts


# Open flows live in a columnar table sorted by composite flow key:
# parallel numpy arrays for the numeric state (start, last, packets,
# segment gauges).  Their destination sets live in one uint32 arena.
# Each chunk a flow continues into appends one segment, a slice of the
# arena deduplicated within itself, described by three segment columns
# (flow key, arena offset, length) sorted by key, so a flow's segments
# are one searchsorted range and survive the open table's splices
# untouched.  Chunk folding is then a handful of vectorized passes with
# no per-flow Python: membership via searchsorted on the sorted keys,
# batched closes straight into column chunks, and the cross-segment
# union deferred to close (or query) time and computed for a whole
# batch of flows in one sort (:meth:`StreamingEventBuilder._union`).
# A flow reaching :data:`_COMPACT_SEGMENTS` segments is compacted to one
# in the same sort, so open-flow memory is bounded by distinct
# destinations (<= dark size), never flow length.  Closed and compacted
# segments leave dead arena values, gathered out in one fancy-index
# pass once they outnumber the live ones.
_COMPACT_SEGMENTS = 8

_KEY_DPORT_MASK = np.uint64(0xFFFF)
_KEY_PROTO_MASK = np.uint64(0xFF)
_LOW32 = np.uint64(0xFFFFFFFF)

#: the open-flow table's columns, all parallel and sorted by ``_keys``.
_OPEN = ("_keys", "_start", "_last", "_packets", "_nseg", "_dst_lo", "_dst_hi")
#: the destination-segment columns, sorted by ``_seg_key``.
_SEGMENTS = ("_seg_key", "_seg_off", "_seg_len")


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices of the concatenated ranges ``[start, start + length)``."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - ends + lengths, lengths) + np.arange(total)


def _columns_to_table(chunks: List[tuple]) -> EventTable:
    tables = [
        EventTable(
            src=c[0],
            dport=c[1],
            proto=c[2],
            start=c[3],
            end=c[4],
            packets=c[5],
            unique_dsts=c[6],
        )
        for c in chunks
        if len(c[0])
    ]
    return EventTable.concat(tables)


class StreamingEventBuilder:
    """Builds darknet events from time-ordered capture chunks.

    Args:
        timeout: silence gap, in seconds, that expires a flow.

    Chunks must arrive in time order *between* calls (each chunk may be
    internally unsorted; it is sorted on entry).  Feeding a chunk whose
    earliest packet predates the previous chunk's watermark raises —
    that data could belong to already-expired flows.

    Each chunk is cut into events by the batch builder's own
    :func:`~repro.core.events.segment_events`, and
    the open-flow state that survives chunk boundaries is itself
    columnar: a key-sorted struct-of-arrays table spliced with
    searchsorted membership and batched closes, plus a destination
    arena addressed by key-sorted segment columns.
    """

    def __init__(self, timeout: float):
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.timeout = float(timeout)
        #: open-flow table, all parallel and sorted by ``_keys``.
        self._keys = np.empty(0, dtype=np.uint64)
        self._start = np.empty(0, dtype=np.float64)
        self._last = np.empty(0, dtype=np.float64)
        self._packets = np.empty(0, dtype=np.int64)
        #: destination-segment count, and bounds on the distinct
        #: destinations: the largest segment (``_dst_lo``) and the sum of
        #: segment lengths (``_dst_hi``).  Segments are deduped
        #: internally, so both are exact while ``_nseg == 1`` and
        #: single-segment closes never read the arena.
        self._nseg = np.empty(0, dtype=np.int64)
        self._dst_lo = np.empty(0, dtype=np.int64)
        self._dst_hi = np.empty(0, dtype=np.int64)
        #: destination segments sorted by flow key (one flow's in
        #: continuation order): key, offset into the arena, length.
        self._seg_key = np.empty(0, dtype=np.uint64)
        self._seg_off = np.empty(0, dtype=np.int64)
        self._seg_len = np.empty(0, dtype=np.int64)
        #: destination arena; ``_arena[:_fill]`` is written, and values
        #: no segment addresses are dead.
        self._arena = np.empty(0, dtype=np.uint32)
        self._fill = 0
        #: finalized column chunks awaiting drain/finish.
        self._closed_cols: List[tuple] = []
        self._pending_closed = 0
        self._n_closed = 0
        self._peak_open = 0
        self._watermark: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def open_flows(self) -> int:
        """Current state size (live flows)."""
        return len(self._keys)

    @property
    def peak_open_flows(self) -> int:
        """Largest state size observed so far (memory high-water mark)."""
        return self._peak_open

    @property
    def closed_events(self) -> int:
        """Events finalized so far (cumulative, survives draining)."""
        return self._n_closed

    @property
    def watermark(self) -> Optional[float]:
        """Timestamp of the latest packet folded in."""
        return self._watermark

    # ------------------------------------------------------------------
    def add_batch(self, batch: PacketBatch) -> None:
        """Fold one capture chunk into the event state."""
        events, keys, ev_dst = segment_events(batch, self.timeout)
        n_events = len(events)
        if n_events == 0:
            return
        first_ts = float(events.start.min())
        last_ts = float(events.end.max())
        if self._watermark is not None and first_ts < self._watermark:
            raise ValueError(
                f"out-of-order chunk: starts at {first_ts:.3f}, watermark "
                f"is {self._watermark:.3f}"
            )
        # Expire flows that were silent past the timeout before this
        # chunk even begins — keeps the open-state bounded.
        self._expire_before(first_ts)

        # Chunk-local events, identical to the batch builder's, with
        # each event's deduplicated destinations in CSR form: the
        # counts close pure in-chunk events, the values seed or extend
        # the open-flow destination sets.
        ev_packets = events.packets
        ev_unique = events.unique_dsts
        ev_off = np.concatenate([[0], np.cumsum(ev_unique)])
        ev_start = events.start
        ev_end = events.end

        # Per-key event groups: events are sorted by (key, ts), so the
        # chunk's distinct keys come out ascending — ready for a single
        # searchsorted membership probe against the sorted open table.
        kf = np.flatnonzero(run_starts(keys))
        kl = np.concatenate([kf[1:], [n_events]]) - 1
        chunk_keys = keys[kf]
        nk = len(chunk_keys)
        n_open = len(self._keys)
        timeout = self.timeout

        matched = np.zeros(nk, dtype=bool)
        pos = np.zeros(nk, dtype=np.intp)
        if n_open:
            pos = np.searchsorted(self._keys, chunk_keys)
            inb = pos < n_open
            matched[inb] = self._keys[pos[inb]] == chunk_keys[inb]
        # A matched key continues its open flow only when the silence
        # gap to the key's first chunk event is within the timeout.
        cont = np.zeros(nk, dtype=bool)
        mpos = pos[matched]
        cont[matched] = ev_start[kf[matched]] - self._last[mpos] <= timeout
        single = kf == kl
        cs = cont & single
        cm = cont & ~single

        closed_mask = np.ones(n_events, dtype=bool)
        closed_mask[kl] = False
        closed_mask[kf[cont]] = False

        # A continued key's first chunk event joins its open flow as a
        # new segment.  Flows that close now (``cm``: the key has later
        # events) and flows reaching the compaction point need their
        # exact union: one sort over all of them.
        compact = cs.copy()
        compact[cs] = self._nseg[pos[cs]] + 1 >= _COMPACT_SEGMENTS
        unite = np.flatnonzero(cm | compact)
        first = kf[unite]
        counts, flows, merged = self._union(
            pos[unite],
            np.repeat(np.arange(len(unite)), ev_unique[first]),
            ev_dst[_ranges(ev_off[first], ev_unique[first])],
        )
        closing = cm[unite]
        compacted = unite[~closing]

        # Every chunk key ends with an open flow built from its last
        # event; a continued single-event key keeps the merged state and
        # grows a segment, or is compacted to one.
        new_nseg = np.ones(nk, dtype=np.int64)
        seg_len = ev_unique[kl]
        new_lo = seg_len.copy()
        new_hi = seg_len.copy()
        grown = cs & ~compact
        gpos = pos[grown]
        new_nseg[grown] = self._nseg[gpos] + 1
        new_lo[grown] = np.maximum(self._dst_lo[gpos], new_lo[grown])
        new_hi[grown] += self._dst_hi[gpos]
        new_lo[compacted] = new_hi[compacted] = counts[~closing]

        # Close the continued flows whose key has further in-chunk
        # events (the merged first event is final) together with the
        # flows that expired before their key's first packet.
        n_new_rows = self._close_rows(pos[matched & ~cont])
        rows, ends = pos[cm], kf[cm]
        if len(rows):
            src, dport, proto, start, _, packets, _ = self._row_columns(
                rows, counts[closing]
            )
            self._closed_cols.append(
                (src, dport, proto, start, ev_end[ends],
                 packets + ev_packets[ends], counts[closing])
            )
            n_new_rows += len(rows)

        cs_rows = pos[cs]
        new_start = ev_start[kl].copy()
        new_last = ev_end[kl]
        new_packets = ev_packets[kl].copy()
        new_start[cs] = self._start[cs_rows]
        new_packets[cs] += self._packets[cs_rows]

        # Splice: drop every matched row (closed or about to be
        # re-inserted merged), insert all chunk keys sorted.
        keep = np.ones(n_open, dtype=bool)
        keep[mpos] = False
        ins = np.searchsorted(self._keys[keep], chunk_keys)
        for name, new in zip(
            _OPEN,
            (chunk_keys, new_start, new_last, new_packets, new_nseg,
             new_lo, new_hi),
        ):
            setattr(self, name, np.insert(getattr(self, name)[keep], ins, new))

        # One new segment per chunk key: its last event's destinations
        # (for a grown key that is its only event), or a compacted
        # flow's union.  Every other segment of a non-grown key dies.
        seg_len[compacted] = counts[~closing]
        seg_at = ev_off[kl]
        seg_at[compacted] = len(ev_dst) + np.cumsum(
            counts[~closing]
        ) - counts[~closing]
        pool = np.concatenate([ev_dst, merged[~closing[flows]]])
        self._splice_segments(
            chunk_keys[matched & ~grown],
            chunk_keys,
            pool[_ranges(seg_at, seg_len)],
            seg_len,
        )

        if bool(closed_mask.any()):
            closed = events.select(closed_mask)
            self._closed_cols.append(
                (closed.src, closed.dport, closed.proto, closed.start,
                 closed.end, closed.packets, closed.unique_dsts)
            )
            n_new_rows += int(closed_mask.sum())
        self._n_closed += n_new_rows
        self._pending_closed += n_new_rows
        self._peak_open = max(self._peak_open, len(self._keys))
        self._watermark = last_ts

    def _union(
        self,
        rows: np.ndarray,
        flow: Optional[np.ndarray] = None,
        dst: Optional[np.ndarray] = None,
    ) -> tuple:
        """Distinct destinations of open rows: ``(counts, flows, dsts)``.

        Every segment of ``rows``, plus the extra ``(flow, dst)`` pairs
        (``flow`` indexing ``rows``), goes through one sort of packed
        ``flow << 32 | dst`` pairs.  ``counts[i]`` is row ``rows[i]``'s
        distinct-destination count; the distinct pairs come back as
        ``flows``/``dsts``, sorted by flow, then destination.
        """
        nseg = self._nseg[rows]
        seg = _ranges(np.searchsorted(self._seg_key, self._keys[rows]), nseg)
        lengths = self._seg_len[seg]
        ids = np.repeat(np.repeat(np.arange(len(rows)), nseg), lengths)
        pairs = [
            (ids.astype(np.uint64) << np.uint64(32))
            | self._arena[_ranges(self._seg_off[seg], lengths)]
        ]
        if flow is not None:
            pairs.append((flow.astype(np.uint64) << np.uint64(32)) | dst)
        pairs = distinct(np.concatenate(pairs))
        flows = (pairs >> np.uint64(32)).astype(np.intp)
        return (
            np.bincount(flows, minlength=len(rows)),
            flows,
            (pairs & _LOW32).astype(np.uint32),
        )

    def _splice_segments(
        self,
        drop: np.ndarray,
        keys=(),
        values: Optional[np.ndarray] = None,
        lengths: Optional[np.ndarray] = None,
    ) -> None:
        """Drop every segment of the sorted flow keys ``drop``, then add
        one segment per sorted key in ``keys``, after that key's others:
        ``lengths`` of them, concatenated in ``values``.  Gathers the
        arena once its dead values outnumber the live ones."""
        if len(drop):
            lo = np.searchsorted(self._seg_key, drop)
            hi = np.searchsorted(self._seg_key, drop, side="right")
            live = np.ones(len(self._seg_key), dtype=bool)
            live[_ranges(lo, hi - lo)] = False
            for name in _SEGMENTS:
                setattr(self, name, getattr(self, name)[live])
        if len(keys):
            start, end = self._fill, self._fill + len(values)
            if end > len(self._arena):
                grown = np.empty(max(end, 2 * len(self._arena)), np.uint32)
                grown[:start] = self._arena[:start]
                self._arena = grown
            self._arena[start:end] = values
            self._fill = end
            at = np.searchsorted(self._seg_key, keys, side="right")
            self._seg_key = np.insert(self._seg_key, at, keys)
            self._seg_off = np.insert(
                self._seg_off, at, start + np.cumsum(lengths) - lengths
            )
            self._seg_len = np.insert(self._seg_len, at, lengths)
        live = int(self._seg_len.sum())
        if self._fill > 2 * live:
            self._arena = self._arena[_ranges(self._seg_off, self._seg_len)]
            self._seg_off = np.cumsum(self._seg_len) - self._seg_len
            self._fill = live

    def _row_columns(
        self, rows: np.ndarray, n_dsts: Optional[np.ndarray] = None
    ) -> tuple:
        """Close-time event columns of open-table rows, state untouched.

        Single-segment flows (the overwhelming majority) read their
        distinct-destination count straight from ``_dst_lo``; the rest
        share one vectorized union pass.  A caller that needs no exact
        counts passes its own ``n_dsts``.
        """
        keys = self._keys[rows]
        if n_dsts is None:
            n_dsts = self._dst_lo[rows].copy()
            multi = np.flatnonzero(self._nseg[rows] > 1)
            if len(multi):
                n_dsts[multi] = self._union(rows[multi])[0]
        return (
            (keys >> np.uint64(24)).astype(np.uint32),
            ((keys >> np.uint64(8)) & _KEY_DPORT_MASK).astype(np.uint16),
            (keys & _KEY_PROTO_MASK).astype(np.uint8),
            self._start[rows],
            self._last[rows],
            self._packets[rows],
            n_dsts,
        )

    def open_sources_reaching(self, threshold: float) -> np.ndarray:
        """Sources of open flows with at least ``threshold`` distinct
        destinations, state untouched.

        A flow's bounds settle almost every case: the largest segment
        reaching the threshold qualifies it, the segment lengths summing
        below it rule it out.  Only flows whose bounds straddle the
        threshold pay for the exact union.
        """
        reach = self._dst_lo >= threshold
        straddle = np.flatnonzero(~reach & (self._dst_hi >= threshold))
        if len(straddle):
            reach[straddle] = self._union(straddle)[0] >= threshold
        return (self._keys[reach] >> np.uint64(24)).astype(np.uint32)

    def _close_rows(self, rows: np.ndarray) -> int:
        """Close open-table rows by index: one column chunk, batched.

        Neither the rows nor their segments are removed here — callers
        splice both.
        """
        if not len(rows):
            return 0
        self._closed_cols.append(self._row_columns(rows))
        return len(rows)

    def _expire_before(self, now: float) -> None:
        if not len(self._keys):
            return
        expired = (now - self._last) > self.timeout
        if not bool(expired.any()):
            return
        n = self._close_rows(np.flatnonzero(expired))
        dropped = self._keys[expired]
        for name in _OPEN:
            setattr(self, name, getattr(self, name)[~expired])
        self._splice_segments(dropped)
        self._n_closed += n
        self._pending_closed += n

    def _derive_segments(self) -> None:
        """Rebuild a loaded builder's derived columns: segment keys and
        offsets into a gathered arena, and the destination bounds.

        Serialized state holds only the open table's ``_nseg``, each
        segment's length and the live arena values in segment order, so
        everything else agrees with them by construction.  Raises
        ``ValueError`` when those disagree: an unsorted open table, a
        flow without segments, segment counts that miss the segment
        lengths, or lengths that miss the arena.
        """
        n, nseg, lengths = len(self._keys), self._nseg, self._seg_len
        if not (
            all(len(getattr(self, name)) == n for name in _OPEN[:5])
            and _increasing(self._keys)
            and not bool(np.any(nseg < 1))
            and int(nseg.sum()) == len(lengths)
            and not bool(np.any(lengths < 1))
            and int(lengths.sum()) == len(self._arena)
        ):
            raise ValueError(
                f"open-flow segments disagree with the open table: {n} "
                f"open flows with {int(nseg.sum())} segments, "
                f"{len(lengths)} segment lengths summing to "
                f"{int(lengths.sum())}, arena {len(self._arena)}"
            )
        first = np.cumsum(nseg) - nseg
        self._seg_key = np.repeat(self._keys, nseg)
        self._seg_off = np.cumsum(lengths) - lengths
        self._fill = len(self._arena)
        self._dst_lo = np.maximum.reduceat(lengths, first) if n else nseg
        self._dst_hi = np.add.reduceat(lengths, first) if n else nseg

    # ------------------------------------------------------------------
    def _pending_table(self) -> EventTable:
        return _columns_to_table(self._closed_cols)

    def finalized_events(self) -> EventTable:
        """Events already final given the watermark (early emission).

        Does not consume the events; excludes anything already drained
        via :meth:`drain_finalized`.
        """
        if self._watermark is not None:
            self._expire_before(self._watermark)
        return self._pending_table().sorted_canonical()

    def drain_finalized(self) -> EventTable:
        """Consume and return the events finalized since the last drain.

        The incremental-detection layer calls this after every chunk so
        finalized events leave the builder immediately — the builder's
        live memory is then only the open-flow state.  Rows come back in
        no particular order.
        """
        if self._watermark is not None:
            self._expire_before(self._watermark)
        table = self._pending_table()
        self._closed_cols = []
        self._pending_closed = 0
        return table

    def merge(self, other: "StreamingEventBuilder") -> None:
        """Fold another builder's state into this one (shard merge).

        Intended for the shard-parallel path (:mod:`repro.parallel`):
        the two builders must have been fed *disjoint* flow-key
        populations — hash-sharding packets by source address guarantees
        this, since a flow key starts with the source — so open flows
        never collide.  The open tables and segment columns concatenate
        and re-sort by key; ``other``'s arena is appended to this one's.
        ``other`` should be discarded afterwards.

        The merged peak-open gauge is the *sum* of both peaks: shards
        run concurrently in separate processes, so the aggregate state
        held across the fleet at the worst moment is bounded by the sum.
        """
        if other is self:
            raise ValueError("cannot merge a builder with itself")
        if other.timeout != self.timeout:
            raise ValueError(
                f"cannot merge builders with different timeouts "
                f"({self.timeout} vs {other.timeout})"
            )
        overlap = np.intersect1d(
            self._keys, other._keys, assume_unique=True
        )
        if len(overlap):
            k = int(overlap[0])
            example = (k >> 24, (k >> 8) & 0xFFFF, k & 0xFF)
            raise ValueError(
                f"open-flow keys overlap across builders (e.g. "
                f"{example}); shards must partition sources"
            )
        order = np.argsort(np.concatenate([self._keys, other._keys]))
        for name in _OPEN:
            setattr(
                self,
                name,
                np.concatenate([getattr(self, name), getattr(other, name)])[
                    order
                ],
            )
        other_off = other._seg_off + self._fill
        order = np.argsort(
            np.concatenate([self._seg_key, other._seg_key]), kind="stable"
        )
        self._seg_key = np.concatenate([self._seg_key, other._seg_key])[order]
        self._seg_off = np.concatenate([self._seg_off, other_off])[order]
        self._seg_len = np.concatenate([self._seg_len, other._seg_len])[order]
        self._arena = np.concatenate(
            [self._arena[:self._fill], other._arena[:other._fill]]
        )
        self._fill = len(self._arena)
        self._closed_cols.extend(other._closed_cols)
        self._pending_closed += other._pending_closed
        self._n_closed += other._n_closed
        self._peak_open += other._peak_open
        if other._watermark is not None:
            self._watermark = (
                other._watermark
                if self._watermark is None
                else max(self._watermark, other._watermark)
            )

    def finish(self) -> EventTable:
        """Close all remaining flows and return their table.

        Includes everything not yet drained; after this the builder is
        empty.  When no :meth:`drain_finalized` calls were made this is
        the complete event table, ordered like the batch builder's.
        """
        self._close_rows(np.arange(len(self._keys)))
        for name in _OPEN + _SEGMENTS + ("_arena",):
            setattr(self, name, getattr(self, name)[:0])
        self._fill = 0
        table = _columns_to_table(self._closed_cols)
        self._closed_cols = []
        self._pending_closed = 0
        return table.sorted_canonical()


def chunked_events(
    batch: PacketBatch, timeout: float, chunk_seconds: float
) -> EventTable:
    """Convenience: run the streaming builder over fixed time chunks.

    Produces the same table as ``build_events(batch, timeout)`` (up to
    row order) — the equivalence is asserted in the test suite.  Chunk
    edges are computed as ``start + i * chunk_seconds`` so they stay
    exact over arbitrarily long captures (accumulating ``edge +=
    chunk_seconds`` drifts in floating point).
    """
    builder = StreamingEventBuilder(timeout)
    if len(batch) == 0:
        if chunk_seconds <= 0:
            raise ValueError("chunk_seconds must be positive")
        return builder.finish()
    for _, _, chunk in batch.iter_time_chunks(
        chunk_seconds, align_to_epoch=False
    ):
        builder.add_batch(chunk)
    return builder.finish()


def tables_equivalent(a: EventTable, b: EventTable) -> bool:
    """Order-insensitive event-table equality (test helper)."""
    if len(a) != len(b):
        return False

    def canon(t: EventTable):
        rows = list(
            zip(
                t.src.tolist(),
                t.dport.tolist(),
                t.proto.tolist(),
                np.round(t.start, 9).tolist(),
                np.round(t.end, 9).tolist(),
                t.packets.tolist(),
                t.unique_dsts.tolist(),
            )
        )
        return sorted(rows)

    return canon(a) == canon(b)


# ----------------------------------------------------------------------
# Incremental detection
# ----------------------------------------------------------------------


class DispersionState:
    """Running Definition-1 state: sources with a qualifying event.

    The dispersion threshold is static (a fraction of the dark space),
    so membership can be decided per event as it finalizes; the state is
    just the accumulated source set, and merging shard states is a set
    union (associative and commutative).
    """

    def __init__(self, threshold: float):
        self.threshold = float(threshold)
        self.sources: set = set()

    def __len__(self) -> int:
        return len(self.sources)

    def update(self, events: EventTable) -> None:
        """Fold a batch of finalized events in."""
        self.sources |= events.sources_of(
            events.unique_dsts >= self.threshold
        )

    def merge(self, other: "DispersionState") -> None:
        """Union another shard's state into this one."""
        if other.threshold != self.threshold:
            raise ValueError(
                f"cannot merge dispersion states with different thresholds "
                f"({self.threshold} vs {other.threshold})"
            )
        self.sources |= other.sources


#: (src, day) pairs pack as ``src << 32 | day + _DAY_BIAS``: any signed
#: 32-bit day index fits, and one outside that range raises.
_DAY_BIAS = 2**31
_PAIR_DAY_MASK = np.uint64(0xFFFFFFFF)
#: A port-day triple packs as ``pair index << 24 | port·proto``.
_PORT_BITS = 24
_PORT_MASK = (1 << _PORT_BITS) - 1


def _pack_pairs(src: np.ndarray, day: np.ndarray) -> np.ndarray:
    """(src, day) pairs as sortable uint64 keys, order-preserving."""
    if len(day) and (
        int(day.min()) < -_DAY_BIAS or int(day.max()) >= _DAY_BIAS
    ):
        raise ValueError(
            f"day index outside [{-_DAY_BIAS}, {_DAY_BIAS}): "
            f"{int(day.min())}..{int(day.max())}"
        )
    return (src.astype(np.uint64) << np.uint64(32)) | (
        day + _DAY_BIAS
    ).astype(np.uint64)


def _member(table: np.ndarray, values: np.ndarray) -> tuple:
    """``(pos, found)``: where each value sorts into ``table``, and
    whether the table holds it there."""
    pos = np.searchsorted(table, values)
    found = pos < len(table)
    found[found] = table[pos[found]] == values[found]
    return pos, found


class PortDayState:
    """Mergeable Definition-3 state: the distinct (src, day, port·proto)
    triples, with the distinct-port count of every (src, day).

    The set is kept deduplicated as it grows.  ``_pairs`` holds the
    distinct (src, day) pairs, packed and sorted (:func:`_pack_pairs`);
    ``_keys`` holds each triple as its pair's index in ``_pairs``
    shifted left by 24 bits, or-ed with its port·proto, sorted; and
    ``_counts[i]`` is pair ``i``'s distinct-port count.  Memory is
    bounded by the number of distinct triples, never by the number of
    ``update()`` calls, and an update costs a sort of the new triples
    plus one pass over the set.  A triple seen again — a flow active in
    several chunks or, in overlapping crafted windows, in several
    shards' histories — is counted once.  Merging is set union:
    associative and commutative.
    """

    def __init__(self, day_seconds: float):
        self.day_seconds = float(day_seconds)
        self._pairs = np.empty(0, dtype=np.uint64)
        self._keys = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)

    def _check(self) -> None:
        """Raise ``ValueError`` unless pairs and triples are sorted and
        unique and the counts agree with the triples."""
        pairs, keys, counts = self._pairs, self._keys, self._counts
        index = keys >> _PORT_BITS
        if not (
            _increasing(pairs)
            and _increasing(keys)
            and (not len(keys) or 0 <= index[0] <= index[-1] < len(pairs))
            and np.array_equal(
                counts, np.bincount(index, minlength=len(pairs))
            )
        ):
            raise ValueError(
                f"port-day set disagrees: {len(pairs)} pairs, "
                f"{len(keys)} triples, {int(counts.sum())} counted; "
                "pairs and triples must be sorted and unique"
            )

    def update(self, events: EventTable) -> None:
        """Fold a batch of finalized events in."""
        if len(events):
            src, day, port_proto = events.daily_port_triples(self.day_seconds)
            self._add(_pack_pairs(src, day), port_proto)

    def merge(self, other: "PortDayState") -> None:
        """Union another state's triples into this one."""
        if other is self:
            raise ValueError("cannot merge a PortDayState with itself")
        if other.day_seconds != self.day_seconds:
            raise ValueError(
                f"cannot merge port-day states with different day lengths "
                f"({self.day_seconds} vs {other.day_seconds})"
            )
        self._add(
            other._pairs[other._keys >> _PORT_BITS],
            other._keys & _PORT_MASK,
        )

    def _add(self, pairs: np.ndarray, port_proto: np.ndarray) -> None:
        """Insert triples sorted by (pair, port·proto) and unique."""
        if not len(pairs):
            return
        distinct = pairs[np.concatenate([[True], pairs[1:] != pairs[:-1]])]
        fresh = distinct[~_member(self._pairs, distinct)[1]]
        if len(fresh):
            # New pairs shift the index of every pair sorting after them.
            shift = np.searchsorted(fresh, self._pairs).astype(np.int64)
            self._keys = self._keys + (
                shift[self._keys >> _PORT_BITS] << _PORT_BITS
            )
            at = np.searchsorted(self._pairs, fresh)
            self._pairs = np.insert(self._pairs, at, fresh)
            self._counts = np.insert(self._counts, at, 0)
        keys = (
            np.searchsorted(self._pairs, pairs).astype(np.int64) << _PORT_BITS
        ) | port_proto
        at, held = _member(self._keys, keys)
        new = keys[~held]
        self._keys = np.insert(self._keys, at[~held], new)
        self._counts = self._counts + np.bincount(
            new >> _PORT_BITS, minlength=len(self._pairs)
        )

    def counts(self) -> Dict[tuple, int]:
        """Per-(src, day) distinct-port counts over everything added."""
        src = (self._pairs >> np.uint64(32)).tolist()
        day = ((self._pairs & _PAIR_DAY_MASK).astype(np.int64) - _DAY_BIAS)
        return dict(zip(zip(src, day.tolist()), self._counts.tolist()))

    def summary(self, events: EventTable, floor: float) -> tuple:
        """Daily port counts as if ``events`` were added; ``self`` is
        untouched.

        Returns the histogram of every (src, day) pair's distinct-port
        count and, for the pairs counting more than ``floor``, their
        sources and counts.  The events' triples that the set already
        holds count once.
        """
        src, day, port_proto = events.daily_port_triples(self.day_seconds)
        pairs = _pack_pairs(src, day)
        index, known = _member(self._pairs, pairs)
        held = known.copy()
        held[known] = _member(
            self._keys,
            (index[known].astype(np.int64) << _PORT_BITS)
            | port_proto[known],
        )[1]
        extra = pairs[~held]
        merged = np.union1d(self._pairs, extra)
        counts = np.zeros(len(merged), dtype=np.int64)
        counts[np.searchsorted(merged, self._pairs)] = self._counts
        counts += np.bincount(
            np.searchsorted(merged, extra), minlength=len(merged)
        )
        histogram = StreamingECDF()
        histogram.add(counts)
        hot = counts > floor
        return (
            histogram,
            (merged[hot] >> np.uint64(32)).astype(np.uint32),
            counts[hot],
        )


def _increasing(values: np.ndarray) -> bool:
    """Strictly increasing: sorted, no repeats."""
    return not bool(np.any(values[1:] <= values[:-1]))


#: Magic line of serialized detector state (:mod:`repro.core.statefile`).
STATE_MAGIC = statefile.magic("detector")

_EVENT_FIELDS = tuple(field.name for field in fields(EventTable))

#: The builder arrays a detector serializes: the open table but for its
#: derived bounds, each segment's length and the live arena values in
#: segment order (:meth:`StreamingEventBuilder._derive_segments`).
_BUILDER_ARRAYS = {
    **dict(zip(_OPEN[:5], ("<u8", "<f8", "<f8", "<i8", "<i8"))),
    "_seg_len": "<i8",
    "_arena": "<u4",
}

#: Every array of a serialized detector, with its dtype: the builder's;
#: the finalized events; the volume histogram; the per-source peaks; the
#: port-day set; the dispersion sources.
_STATE_ARRAYS = {
    **_BUILDER_ARRAYS,
    **{
        f"events.{name}": dtype
        for name, dtype in zip(
            _EVENT_FIELDS, ("<u4", "<u2", "|u1", "<f8", "<f8", "<i8", "<i8")
        )
    },
    "volume.values": "<f8",
    "volume.counts": "<i8",
    "peaks.src": "<u4",
    "peaks.packets": "<i8",
    "ports.pairs": "<u8",
    "ports.keys": "<i8",
    "ports.counts": "<i8",
    "dispersion": "<u4",
}


def _source_peaks(src: np.ndarray, values: np.ndarray) -> tuple:
    """Distinct sources, ascending, with each one's largest value."""
    if not len(src):
        return src, values
    order = np.argsort(src, kind="stable")
    src, values = src[order], values[order]
    starts = np.flatnonzero(np.concatenate([[True], src[1:] != src[:-1]]))
    return src[starts], np.maximum.reduceat(values, starts)


def _merge_peaks(src, peaks, new_src, new_peaks) -> tuple:
    """Fold one sorted (source, peak) table into another, as new arrays."""
    at, found = _member(src, new_src)
    peaks = peaks.copy()
    peaks[at[found]] = np.maximum(peaks[at[found]], new_peaks[found])
    return (
        np.insert(src, at[~found], new_src[~found]),
        np.insert(peaks, at[~found], new_peaks[~found]),
    )


@dataclass(frozen=True)
class DetectorSummary:
    """What an AH query needs from one detector shard.

    Built by :meth:`StreamingDetector.summary` as if every open flow
    closed now, and small: no event table, destination segment or
    sorted sample, only what the three threshold rules read.  Sources
    whose peak cannot pass a definition's floor are left out, since a
    threshold never falls below its floor.  Summaries of source-disjoint
    shards combine in :func:`detections_from_summaries`.
    """

    #: events in the final table if the stream ended now.
    events: int
    #: per-event packet counts (Definition 2's sample).
    volume: StreamingECDF
    #: sources whose largest event passes the packet floor, and that peak.
    volume_sources: np.ndarray
    volume_peaks: np.ndarray
    #: sources with an event reaching the dispersion threshold.
    dispersion: set
    #: per-(src, day) distinct-port counts (Definition 3's sample).
    ports: StreamingECDF
    #: each (src, day) pair counting more ports than the floor.
    port_sources: np.ndarray
    port_counts: np.ndarray


def detections_from_summaries(
    summaries: List[DetectorSummary],
    dark_size: int,
    config: DetectionConfig,
) -> Tuple[int, Dict[int, DetectionResult]]:
    """``(events, detections)`` over source-disjoint shard summaries.

    Sources and thresholds equal those of
    :meth:`StreamingDetector.finish` over the merged shards; the
    results carry no daily breakdowns or qualifying events, which only
    ``finish`` derives.  Sources are frozensets: a query answer is
    shared by every caller until the state changes.
    """
    volume, ports, dispersion = StreamingECDF(), StreamingECDF(), set()
    for summary in summaries:
        volume.merge(summary.volume)
        ports.merge(summary.ports)
        dispersion |= summary.dispersion
    thresholds = {
        1: dispersion_threshold(dark_size, config),
        2: volume_threshold(volume, config) if len(volume) else 0.0,
        3: ports_threshold(ports, config) if len(ports) else 0.0,
    }
    sources = {1: dispersion, 2: set(), 3: set()}
    for summary in summaries:
        sources[2].update(
            summary.volume_sources[
                summary.volume_peaks > thresholds[2]
            ].tolist()
        )
        sources[3].update(
            summary.port_sources[
                summary.port_counts > thresholds[3]
            ].tolist()
        )
    return sum(summary.events for summary in summaries), {
        d: DetectionResult(
            definition=d,
            sources=frozenset(sources[d]),
            threshold=float(thresholds[d]),
        )
        for d in (1, 2, 3)
    }


@dataclass(frozen=True)
class ChunkReport:
    """What one :meth:`StreamingDetector.add_batch` call did."""

    packets: int
    events_finalized: int
    open_flows: int
    watermark: Optional[float]


class StreamingDetector:
    """Incremental aggressive-hitter detection over capture chunks.

    Feed time-ordered chunks with :meth:`add_batch`; call :meth:`finish`
    once to obtain the complete event table and the per-definition
    :class:`~repro.core.detection.DetectionResult`\\ s.  The results are
    identical to ``detect_all(build_events(capture), ...)`` over the
    concatenated capture, for any chunking — pinned by property tests.

    Per chunk, the detector drains the builder's finalized events and
    folds them into per-definition state:

    * Definition 1 (dispersion): threshold is static, so qualifying
      sources accumulate into a running set.
    * Definition 2 (volume): per-event packet counts accumulate into a
      :class:`~repro.core.ecdf.StreamingECDF` histogram, and each
      source's largest event into a per-source peak; the tail threshold
      only exists over the full sample, so membership is applied at
      query or finish time (a source qualifies iff its peak passes).
    * Definition 3 (ports): (src, day, port) triples accumulate into a
      deduplicated set with per-(src, day) distinct-port counts
      (:class:`PortDayState`); their ECDF threshold is derived at query
      or finish time.

    :meth:`summary` answers a query from this state without finishing;
    :meth:`finish` is the full path, with daily breakdowns.

    Memory is bounded by the open-flow state plus the (much smaller)
    finalized event columns — the raw packet chunks are never retained.
    """

    def __init__(
        self,
        timeout: float,
        dark_size: int,
        config: Optional[DetectionConfig] = None,
        day_seconds: float = 86_400.0,
    ):
        self.builder = StreamingEventBuilder(timeout)
        self.dark_size = int(dark_size)
        self.config = config or DetectionConfig()
        self.day_seconds = float(day_seconds)
        self._chunks: List[EventTable] = []
        self._volume = StreamingECDF()
        #: sources of finalized events, ascending, and each one's
        #: largest event's packets.
        self._peak_src = np.empty(0, dtype=np.uint32)
        self._peak_packets = np.empty(0, dtype=np.int64)
        self._ports = PortDayState(self.day_seconds)
        self._dispersion = DispersionState(
            dispersion_threshold(self.dark_size, self.config)
        )
        self._packets_seen = 0
        self._events_finalized = 0
        self._finished = False

    # ------------------------------------------------------------------
    @property
    def packets_seen(self) -> int:
        """Packets folded in so far (before protocol filtering)."""
        return self._packets_seen

    @property
    def events_finalized(self) -> int:
        """Events finalized and folded into detection state so far."""
        return self._events_finalized

    @property
    def open_flows(self) -> int:
        return self.builder.open_flows

    @property
    def peak_open_flows(self) -> int:
        return self.builder.peak_open_flows

    @property
    def watermark(self) -> Optional[float]:
        return self.builder.watermark

    # ------------------------------------------------------------------
    def add_batch(self, batch: PacketBatch) -> ChunkReport:
        """Fold one capture chunk through events into detection state."""
        if self._finished:
            raise RuntimeError("detector already finished")
        self.builder.add_batch(batch)
        before = self._events_finalized
        self._fold(self.builder.drain_finalized())
        self._packets_seen += len(batch)
        return ChunkReport(
            packets=len(batch),
            events_finalized=self._events_finalized - before,
            open_flows=self.builder.open_flows,
            watermark=self.builder.watermark,
        )

    def _fold(self, events: EventTable) -> None:
        if len(events) == 0:
            return
        self._chunks.append(events)
        self._events_finalized += len(events)
        self._volume.add(events.packets.astype(np.float64))
        self._peak_src, self._peak_packets = _merge_peaks(
            self._peak_src,
            self._peak_packets,
            *_source_peaks(events.src, events.packets),
        )
        self._dispersion.update(events)
        self._ports.update(events)

    # ------------------------------------------------------------------
    def merge(self, other: "StreamingDetector") -> None:
        """Fold another (unfinished) detector's state into this one.

        The shard-parallel path (:mod:`repro.parallel`) runs one
        detector per source shard and merges them before a single
        :meth:`finish` — which then derives thresholds over exactly the
        same accumulated sample as a serial run, so the results are
        identical.  Both detectors must share their configuration, and
        their builders must hold disjoint flows (guaranteed when packets
        were hash-partitioned by source).  ``other`` is consumed: its
        state moves into ``self`` and it must be discarded.
        """
        if self._finished or other._finished:
            raise RuntimeError("cannot merge a finished detector")
        if other is self:
            raise ValueError("cannot merge a detector with itself")
        if (
            self.dark_size != other.dark_size
            or self.day_seconds != other.day_seconds
            or self.config != other.config
        ):
            raise ValueError(
                "cannot merge detectors with different configurations"
            )
        self.builder.merge(other.builder)
        self._chunks.extend(other._chunks)
        self._volume.merge(other._volume)
        self._peak_src, self._peak_packets = _merge_peaks(
            self._peak_src,
            self._peak_packets,
            other._peak_src,
            other._peak_packets,
        )
        self._dispersion.merge(other._dispersion)
        self._ports.merge(other._ports)
        self._packets_seen += other._packets_seen
        self._events_finalized += other._events_finalized

    # ------------------------------------------------------------------
    def summary(self) -> DetectorSummary:
        """This shard's :class:`DetectorSummary`; ``self`` is untouched.

        Open flows count as the events they would close as.  Their
        packets join the volume histogram and peaks; their (src, day,
        port) triples are deduplicated against the port-day set.  For
        Definition 1 only flows whose destination bounds straddle the
        threshold are unioned
        (:meth:`StreamingEventBuilder.open_sources_reaching`).  Every
        finalized event has already been drained into the state
        (``add_batch`` drains after each chunk).
        """
        if self._finished:
            raise RuntimeError("detector already finished")
        live = self.builder
        # Nothing here reads exact destination counts, so the open
        # events carry their lower bounds instead of unions.
        open_events = EventTable(
            *live._row_columns(np.arange(live.open_flows), live._dst_lo)
        )
        volume = StreamingECDF()
        volume.merge(self._volume)
        volume.add(open_events.packets.astype(np.float64))
        floor = self.config.min_packet_threshold
        peaked = self._peak_packets > floor
        opened = open_events.packets > floor
        ports, port_sources, port_counts = self._ports.summary(
            open_events, self.config.min_port_threshold
        )
        return DetectorSummary(
            events=self._events_finalized + live.open_flows,
            volume=volume,
            volume_sources=np.concatenate(
                [self._peak_src[peaked], open_events.src[opened]]
            ),
            volume_peaks=np.concatenate(
                [self._peak_packets[peaked], open_events.packets[opened]]
            ),
            dispersion=self._dispersion.sources
            | set(
                live.open_sources_reaching(self._dispersion.threshold).tolist()
            ),
            ports=ports,
            port_sources=port_sources,
            port_counts=port_counts,
        )

    # ------------------------------------------------------------------
    def to_bytes(self, **extra) -> bytes:
        """Serialize the full detector state (:mod:`repro.core.statefile`).

        Snapshots, the fold pool and the checkpoint layer all use this:
        a round-tripped detector merges and finishes bit-identically to
        the original, so a resumed run reproduces a fault-free run
        exactly.  ``extra`` JSON fields ride along in the header (the
        checkpoint layer stores its worker report there).  The
        finalized history is collapsed into one table first; the
        builder holds no undrained events, since ``add_batch`` drains
        it.
        """
        live = self.builder
        events = EventTable.concat(self._chunks)
        self._chunks = [events] if len(events) else []
        arrays = {name: getattr(live, name) for name in _BUILDER_ARRAYS}
        arrays["_arena"] = live._arena[_ranges(live._seg_off, live._seg_len)]
        arrays.update(
            {f"events.{name}": getattr(events, name) for name in _EVENT_FIELDS}
        )
        arrays.update(
            {
                "volume.values": self._volume._values,
                "volume.counts": self._volume._counts,
                "peaks.src": self._peak_src,
                "peaks.packets": self._peak_packets,
                "ports.pairs": self._ports._pairs,
                "ports.keys": self._ports._keys,
                "ports.counts": self._ports._counts,
                "dispersion": sorted(self._dispersion.sources),
            }
        )
        header = {
            "timeout": live.timeout,
            "dark_size": self.dark_size,
            "config": asdict(self.config),
            "day_seconds": self.day_seconds,
            "packets_seen": self._packets_seen,
            "events_finalized": self._events_finalized,
            "finished": self._finished,
            "closed_events": live._n_closed,
            "peak_open_flows": live._peak_open,
            "watermark": live._watermark,
            "volume_n": self._volume._n,
            **extra,
        }
        return statefile.pack(
            "detector",
            header,
            {
                name: np.asarray(arrays[name], dtype)
                for name, dtype in _STATE_ARRAYS.items()
            },
        )

    @classmethod
    def from_bytes(cls, data) -> "StreamingDetector":
        """Rebuild a detector serialized by :meth:`to_bytes`.

        Raises ``ValueError`` on anything else — another kind or version
        of state (a v2 or v3 one is refused by name), a damaged array,
        or state that breaks the detector's invariants — so a stale or
        doctored checkpoint is discarded, never merged.  Nothing is
        unpickled.
        """
        return cls._read(data)[0]

    @classmethod
    def _read(cls, data) -> Tuple["StreamingDetector", dict]:
        """:meth:`from_bytes`, plus the state's JSON header."""
        header, arrays = statefile.unpack(data, "detector", _STATE_ARRAYS)
        try:
            detector = cls(
                header["timeout"],
                header["dark_size"],
                DetectionConfig(**header["config"]),
                header["day_seconds"],
            )
            live = detector.builder
            live._n_closed = int(header["closed_events"])
            live._peak_open = int(header["peak_open_flows"])
            if header["watermark"] is not None:
                live._watermark = float(header["watermark"])
            detector._packets_seen = int(header["packets_seen"])
            detector._events_finalized = int(header["events_finalized"])
            detector._finished = bool(header["finished"])
            detector._volume._n = int(header["volume_n"])
            events = EventTable(
                **{name: arrays[f"events.{name}"] for name in _EVENT_FIELDS}
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"corrupt detector state: {exc!r}") from exc
        for name in _BUILDER_ARRAYS:
            setattr(live, name, arrays[name])
        live._derive_segments()
        detector._chunks = [events] if len(events) else []
        volume, ports = detector._volume, detector._ports
        volume._values = arrays["volume.values"]
        volume._counts = arrays["volume.counts"]
        detector._peak_src = arrays["peaks.src"]
        detector._peak_packets = arrays["peaks.packets"]
        ports._pairs = arrays["ports.pairs"]
        ports._keys = arrays["ports.keys"]
        ports._counts = arrays["ports.counts"]
        detector._dispersion.sources = set(arrays["dispersion"].tolist())
        if len(detector._peak_src) != len(
            detector._peak_packets
        ) or not _increasing(detector._peak_src):
            raise ValueError("per-source peaks disagree: sources must be "
                             "sorted, unique and one per peak")
        volume._check()
        ports._check()
        return detector, header

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A provisional mid-stream view (no full recomputation)."""
        return {
            "packets": self._packets_seen,
            "events_finalized": self._events_finalized,
            "open_flows": self.builder.open_flows,
            "peak_open_flows": self.builder.peak_open_flows,
            "watermark": self.builder.watermark,
            "dispersion_sources": len(self._dispersion),
            "volume_threshold": (
                volume_threshold(self._volume, self.config)
                if len(self._volume)
                else None
            ),
        }

    def finish(self) -> Tuple[EventTable, Dict[int, DetectionResult]]:
        """Flush remaining flows and produce the final detections."""
        if self._finished:
            raise RuntimeError("detector already finished")
        self._fold(self.builder.finish())
        self._finished = True
        events = EventTable.concat(self._chunks).sorted_canonical()
        self._chunks = [events]

        results: Dict[int, DetectionResult] = {
            1: dispersion_result(
                events, self._dispersion.threshold, self.day_seconds
            )
        }
        if len(events) == 0:
            results[2] = DetectionResult(
                definition=2, sources=set(), threshold=0.0
            )
        else:
            results[2] = volume_result(
                events,
                volume_threshold(self._volume, self.config),
                self.day_seconds,
            )
        results[3] = ports_result_from_counts(
            self._ports.counts(), self.config
        )
        return events, results


def stream_detect(
    chunks,
    timeout: float,
    dark_size: int,
    config: Optional[DetectionConfig] = None,
    day_seconds: float = 86_400.0,
) -> Tuple[EventTable, Dict[int, DetectionResult]]:
    """Run the full incremental path over an iterable of chunks.

    ``chunks`` yields :class:`~repro.packet.PacketBatch` objects in time
    order.  Equivalent to ``detect_all(build_events(concat(chunks)))``
    with bounded live memory.
    """
    detector = StreamingDetector(timeout, dark_size, config, day_seconds)
    for chunk in chunks:
        detector.add_batch(chunk)
    return detector.finish()
