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

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import DetectionConfig
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
from repro.core.events import EventTable, _flow_keys, build_events
from repro.packet import PacketBatch, SCANNING_PROTOCOLS


# Open flows live in a columnar table sorted by composite flow key —
# parallel numpy arrays for the numeric state (start, last, packets,
# segment gauges) plus one dict of per-flow destination-segment lists.
# Chunk folding is then a handful of vectorized passes (membership via
# searchsorted on the sorted keys, batched in-place continuation
# updates, batched closes straight into column chunks); Python-level
# iteration is confined to destination-segment bookkeeping for the
# flows a chunk actually touches.  Segments are numpy arrays, each
# deduplicated *within* itself; the cross-segment union is deferred to
# close time and computed for a whole close batch in one
# lexsort/boundary pass (:func:`_union_counts`).  Long-lived flows are
# compacted every :data:`_COMPACT_SEGMENTS` continuations so open-flow
# memory is bounded by distinct destinations (<= dark size), never
# flow length.
_COMPACT_SEGMENTS = 8

_KEY_DPORT_MASK = np.uint64(0xFFFF)
_KEY_PROTO_MASK = np.uint64(0xFF)


def _union_counts(seg_lists: List[list]) -> np.ndarray:
    """Distinct-destination counts for many multi-segment flows at once.

    One lexsort over all (flow, dst) pairs replaces a per-flow
    ``set().union(*segments)``; segments are already deduplicated
    internally, so the pair count is bounded by segments' total size.
    """
    lens = np.fromiter(
        (sum(len(s) for s in segs) for segs in seg_lists),
        dtype=np.int64,
        count=len(seg_lists),
    )
    ids = np.repeat(np.arange(len(seg_lists)), lens)
    vals = np.concatenate([s for segs in seg_lists for s in segs])
    order = np.lexsort((vals, ids))
    ids = ids[order]
    vals = vals[order]
    first = np.empty(len(vals), dtype=bool)
    first[0] = True
    first[1:] = (ids[1:] != ids[:-1]) | (vals[1:] != vals[:-1])
    return np.bincount(ids[first], minlength=len(seg_lists)).astype(np.int64)


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

    Each chunk is folded in with a vectorized group-by (the same
    lexsort/segment-boundary construction the batch builder uses), and
    the open-flow state that survives chunk boundaries is itself
    columnar: a key-sorted struct-of-arrays table spliced with
    searchsorted membership, batched in-place updates, and batched
    closes.  Python-level iteration happens only for the
    destination-segment lists of flows the chunk touches.
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
        #: single-segment closes never touch Python.
        self._nseg = np.empty(0, dtype=np.int64)
        self._dst_lo = np.empty(0, dtype=np.int64)
        self._dst_hi = np.empty(0, dtype=np.int64)
        #: flow key -> list of per-continuation destination arrays.  A
        #: restored builder's segments are views into one array (see
        #: :meth:`__setstate__`) until a close or a compaction replaces
        #: them.
        self._segs: Dict[int, list] = {}
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
    def __getstate__(self) -> dict:
        """Pickle the segment map as four columns, not one array per flow.

        Tens of thousands of open flows each hold a few small
        destination arrays, and pickling them one by one dominated every
        detector snapshot.  The map travels as its flow keys, segments
        per key, segment lengths and one concatenated destination array.
        """
        state = self.__dict__.copy()
        segs = state.pop("_segs")
        flat = [seg for key_segs in segs.values() for seg in key_segs]
        state["_seg_columns"] = (
            np.fromiter(segs, dtype=np.uint64, count=len(segs)),
            np.fromiter(map(len, segs.values()), np.int64, len(segs)),
            np.fromiter(map(len, flat), dtype=np.int64, count=len(flat)),
            np.concatenate(flat) if flat else np.empty(0, dtype=np.uint32),
        )
        return state

    def __setstate__(self, state: dict) -> None:
        """Rebuild the segment map from :meth:`__getstate__`'s columns.

        A state pickled before the columnar form carries the plain
        ``_segs`` dict and loads as it is; one pickled before the
        destination bounds carries ``_seg0`` and gets its bounds from the
        segments.  Columns that disagree with each other or with the open
        table raise ``ValueError``: a short map would silently miscount
        distinct destinations.
        """
        columns = state.pop("_seg_columns", None)
        if columns is not None:
            keys, per_key, lengths, values = columns
            if (
                len(per_key) != len(keys)
                or int(per_key.sum()) != len(lengths)
                or int(lengths.sum()) != len(values)
                or bool((per_key < 0).any() or (lengths < 0).any())
                or not np.array_equal(np.sort(keys), state["_keys"])
            ):
                raise ValueError(
                    "packed open-flow segments disagree: "
                    f"{len(keys)} keys for {len(state['_keys'])} open "
                    f"flows, {int(per_key.sum())} segments per key "
                    f"for {len(lengths)} lengths, {int(lengths.sum())} "
                    f"destinations for {len(values)} values"
                )
            ends = np.cumsum(lengths).tolist()
            segments = [
                values[e - n:e] for n, e in zip(lengths.tolist(), ends)
            ]
            ends = np.cumsum(per_key).tolist()
            state["_segs"] = {
                key: segments[e - n:e]
                for key, n, e in zip(keys.tolist(), per_key.tolist(), ends)
            }
        if state.pop("_seg0", None) is not None:
            lengths = [
                [len(seg) for seg in state["_segs"][key]]
                for key in state["_keys"].tolist()
            ]
            state["_dst_lo"] = np.fromiter(map(max, lengths), np.int64)
            state["_dst_hi"] = np.fromiter(map(sum, lengths), np.int64)
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    def add_batch(self, batch: PacketBatch) -> None:
        """Fold one capture chunk into the event state."""
        if len(batch) == 0:
            return
        scanning_codes = np.array(
            [p.value for p in SCANNING_PROTOCOLS], dtype=np.uint8
        )
        keep = np.isin(batch.proto, scanning_codes)
        if not bool(np.all(keep)):
            batch = batch.select(keep)
        if len(batch) == 0:
            return
        first_ts = float(batch.ts.min())
        last_ts = float(batch.ts.max())
        if self._watermark is not None and first_ts < self._watermark:
            raise ValueError(
                f"out-of-order chunk: starts at {first_ts:.3f}, watermark "
                f"is {self._watermark:.3f}"
            )
        # Expire flows that were silent past the timeout before this
        # chunk even begins — keeps the open-state bounded.
        self._expire_before(first_ts)

        # Chunk-local segmentation, identical to the batch builder:
        # sort by (flow key, ts), events start at key or gap boundaries.
        n = len(batch)
        keys = _flow_keys(batch)
        order = np.lexsort((batch.ts, keys))
        keys = keys[order]
        ts = batch.ts[order]
        dst = batch.dst[order]
        new_key = np.empty(n, dtype=bool)
        new_key[0] = True
        new_key[1:] = keys[1:] != keys[:-1]
        gap = np.empty(n, dtype=bool)
        gap[0] = False
        gap[1:] = (ts[1:] - ts[:-1]) > self.timeout
        starts = new_key | gap
        event_id = np.cumsum(starts) - 1
        n_events = int(event_id[-1]) + 1
        start_idx = np.flatnonzero(starts)
        end_idx = np.concatenate([start_idx[1:], [n]]) - 1
        ev_packets = np.bincount(event_id, minlength=n_events).astype(np.int64)

        # Per-event deduplicated destination values in CSR form: the
        # counts close pure in-chunk events, the values seed or extend
        # the open-flow destination sets.
        pair_order = np.lexsort((dst, event_id))
        eid_sorted = event_id[pair_order]
        dst_sorted = dst[pair_order]
        first_pair = np.empty(n, dtype=bool)
        first_pair[0] = True
        first_pair[1:] = (eid_sorted[1:] != eid_sorted[:-1]) | (
            dst_sorted[1:] != dst_sorted[:-1]
        )
        ev_unique = np.bincount(
            eid_sorted[first_pair], minlength=n_events
        ).astype(np.int64)
        ev_dst = dst_sorted[first_pair]
        ev_off = np.concatenate([[0], np.cumsum(ev_unique)])

        ev_src = batch.src[order][start_idx]
        ev_dport = batch.dport[order][start_idx]
        ev_proto = batch.proto[order][start_idx]
        ev_start = ts[start_idx]
        ev_end = ts[end_idx]

        # Per-key event groups: events are sorted by (key, ts), so the
        # chunk's distinct keys come out ascending — ready for a single
        # searchsorted membership probe against the sorted open table.
        kf = np.flatnonzero(new_key[start_idx])
        kl = np.concatenate([kf[1:], [n_events]]) - 1
        chunk_keys = keys[start_idx][kf]
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

        closed_mask = np.ones(n_events, dtype=bool)
        closed_mask[kl] = False
        closed_mask[kf[cont]] = False

        # Destination-segment bookkeeping: the only per-flow Python
        # work, confined to keys whose flows the chunk continues.
        new_nseg = np.ones(nk, dtype=np.int64)
        new_lo = ev_unique[kl].copy()
        new_hi = new_lo.copy()
        segs_map = self._segs
        for i in np.flatnonzero(cont).tolist():
            e0 = kf[i]
            segs = segs_map[int(chunk_keys[i])]
            segs.append(ev_dst[ev_off[e0]:ev_off[e0 + 1]].copy())
            if single[i]:
                if len(segs) >= _COMPACT_SEGMENTS:
                    # Compact long-lived flows: unmerged per-chunk
                    # segments would grow O(flow packets), while the
                    # union is bounded by the dark size.
                    merged = np.unique(np.concatenate(segs))
                    segs_map[int(chunk_keys[i])] = [merged]
                    new_nseg[i] = 1
                    new_lo[i] = new_hi[i] = len(merged)
                else:
                    new_nseg[i] = len(segs)
        # A continued single-event key that grew a segment: its bounds
        # take the new segment's length (``new_lo``/``new_hi`` so far).
        grown = cont & single & (new_nseg > 1)
        new_lo[grown] = np.maximum(self._dst_lo[pos[grown]], new_lo[grown])
        new_hi[grown] += self._dst_hi[pos[grown]]

        # Continued flows whose key has further in-chunk events: the
        # merged first event is final.  Fold the merge into the table
        # in place, then close those rows together with the flows that
        # expired before their key's first packet.
        cm = cont & ~single
        cm_rows = pos[cm]
        if len(cm_rows):
            self._last[cm_rows] = ev_end[kf[cm]]
            self._packets[cm_rows] += ev_packets[kf[cm]]
            self._nseg[cm_rows] += 1
        exp_rows = pos[matched & ~cont]
        n_new_rows = self._close_rows(np.concatenate([exp_rows, cm_rows]))

        # Every chunk key ends with an open flow built from its last
        # event; a continued single-event key keeps the merged state.
        cs = cont & single
        cs_rows = pos[cs]
        new_start = ev_start[kl].copy()
        new_last = ev_end[kl]
        new_packets = ev_packets[kl].copy()
        new_start[cs] = self._start[cs_rows]
        new_packets[cs] += self._packets[cs_rows]
        for i in np.flatnonzero(~cs).tolist():
            e = kl[i]
            segs_map[int(chunk_keys[i])] = [
                ev_dst[ev_off[e]:ev_off[e + 1]].copy()
            ]

        # Splice: drop every matched row (closed or about to be
        # re-inserted merged), insert all chunk keys sorted.
        keep = np.ones(n_open, dtype=bool)
        keep[mpos] = False
        kept_keys = self._keys[keep]
        ins = np.searchsorted(kept_keys, chunk_keys)
        self._keys = np.insert(kept_keys, ins, chunk_keys)
        self._start = np.insert(self._start[keep], ins, new_start)
        self._last = np.insert(self._last[keep], ins, new_last)
        self._packets = np.insert(self._packets[keep], ins, new_packets)
        self._nseg = np.insert(self._nseg[keep], ins, new_nseg)
        self._dst_lo = np.insert(self._dst_lo[keep], ins, new_lo)
        self._dst_hi = np.insert(self._dst_hi[keep], ins, new_hi)

        if bool(closed_mask.any()):
            self._closed_cols.append(
                (
                    ev_src[closed_mask],
                    ev_dport[closed_mask],
                    ev_proto[closed_mask],
                    ev_start[closed_mask],
                    ev_end[closed_mask],
                    ev_packets[closed_mask],
                    ev_unique[closed_mask],
                )
            )
            n_new_rows += int(closed_mask.sum())
        self._n_closed += n_new_rows
        self._pending_closed += n_new_rows
        self._peak_open = max(self._peak_open, len(self._keys))
        self._watermark = last_ts

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
                n_dsts[multi] = _union_counts(
                    [self._segs[int(k)] for k in keys[multi]]
                )
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
            reach[straddle] = _union_counts(
                [self._segs[int(k)] for k in self._keys[straddle]]
            ) >= threshold
        return (self._keys[reach] >> np.uint64(24)).astype(np.uint32)

    def _close_rows(self, rows: np.ndarray) -> int:
        """Close open-table rows by index: one column chunk, batched.

        Rows are *not* removed from the table here — callers compact or
        rebuild the arrays.
        """
        if not len(rows):
            return 0
        self._closed_cols.append(self._row_columns(rows))
        segs_map = self._segs
        for k in self._keys[rows].tolist():
            del segs_map[k]
        return len(rows)

    def _expire_before(self, now: float) -> None:
        if not len(self._keys):
            return
        expired = (now - self._last) > self.timeout
        if not bool(expired.any()):
            return
        n = self._close_rows(np.flatnonzero(expired))
        keep = ~expired
        self._keys = self._keys[keep]
        self._start = self._start[keep]
        self._last = self._last[keep]
        self._packets = self._packets[keep]
        self._nseg = self._nseg[keep]
        self._dst_lo = self._dst_lo[keep]
        self._dst_hi = self._dst_hi[keep]
        self._n_closed += n
        self._pending_closed += n

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
        never collide.  ``other`` should be discarded afterwards.

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
        merged_keys = np.concatenate([self._keys, other._keys])
        order = np.argsort(merged_keys, kind="stable")
        self._keys = merged_keys[order]
        self._start = np.concatenate([self._start, other._start])[order]
        self._last = np.concatenate([self._last, other._last])[order]
        self._packets = np.concatenate(
            [self._packets, other._packets]
        )[order]
        self._nseg = np.concatenate([self._nseg, other._nseg])[order]
        self._dst_lo = np.concatenate([self._dst_lo, other._dst_lo])[order]
        self._dst_hi = np.concatenate([self._dst_hi, other._dst_hi])[order]
        self._segs.update(other._segs)
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
        self._keys = np.empty(0, dtype=np.uint64)
        self._start = np.empty(0, dtype=np.float64)
        self._last = np.empty(0, dtype=np.float64)
        self._packets = np.empty(0, dtype=np.int64)
        self._nseg = np.empty(0, dtype=np.int64)
        self._dst_lo = np.empty(0, dtype=np.int64)
        self._dst_hi = np.empty(0, dtype=np.int64)
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

    def __setstate__(self, state: dict) -> None:
        """Load a pickled set, or convert a pickled list of triple runs.

        States pickled before the set carry ``_runs`` and convert
        exactly (duplicates across runs count once).  A set whose pairs
        or triples are not sorted and unique, or whose counts disagree
        with its triples, raises ``ValueError``.
        """
        runs = state.pop("_runs", None)
        if runs is not None:
            # Each run is sorted and unique, as daily_port_triples and
            # the old compaction both wrote them.
            self.__init__(state["day_seconds"])
            for src, day, port_proto in runs:
                self._add(_pack_pairs(src, day), port_proto)
            state = self.__dict__
        pairs, keys, counts = state["_pairs"], state["_keys"], state["_counts"]
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
        self.__dict__.update(state)

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


#: Versioned header guarding detector-state checkpoints; bump when the
#: pickled layout changes incompatibly so stale checkpoints are
#: rejected (and their shards re-run) instead of merged.
STATE_MAGIC = b"repro-detector-state-v3\n"
#: The previous header: its sorted-run ECDF, port-day runs and
#: single-segment counts convert exactly on load (``__setstate__``), so
#: checkpoints and the journals truncated behind them stay usable.
LEGACY_STATE_MAGIC = b"repro-detector-state-v2\n"


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
    ``finish`` derives.
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
            definition=d, sources=sources[d], threshold=float(thresholds[d])
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

    def __setstate__(self, state: dict) -> None:
        """Load a pickled detector; one pickled before per-source peaks
        derives them from its finalized events."""
        if "_peak_src" not in state:
            events = EventTable.concat(state["_chunks"])
            state["_peak_src"], state["_peak_packets"] = _source_peaks(
                events.src, events.packets
            )
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize the full (unfinished) detector state.

        The format is a versioned header plus a pickle of the detector
        — everything in the state (open flows, finalized columns, ECDF
        runs, port-day runs, gauges) is plain Python/numpy data, the
        same property that lets shard detectors cross process pipes.
        Used by the checkpoint layer (:mod:`repro.core.faults`): a
        round-tripped detector merges and finishes bit-identically to
        the original, so a resumed run reproduces a fault-free run
        exactly.
        """
        import pickle

        return STATE_MAGIC + pickle.dumps(self, protocol=4)

    @classmethod
    def from_bytes(cls, data: bytes) -> "StreamingDetector":
        """Rebuild a detector serialized by :meth:`to_bytes`.

        A v2 state (:data:`LEGACY_STATE_MAGIC`) converts on load.
        Raises ``ValueError`` on an unrecognized or incompatible
        header — a checkpoint written by a different state version must
        be discarded (and the shard re-run), never merged.
        """
        import pickle

        header = STATE_MAGIC
        if data.startswith(LEGACY_STATE_MAGIC):
            header = LEGACY_STATE_MAGIC
        if not data.startswith(header):
            raise ValueError(
                "not a serialized StreamingDetector state (missing or "
                f"mismatched header; expected {STATE_MAGIC!r})"
            )
        detector = pickle.loads(data[len(header):])
        if not isinstance(detector, cls):
            raise ValueError(
                f"serialized state holds {type(detector).__name__}, "
                "not a StreamingDetector"
            )
        return detector

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
