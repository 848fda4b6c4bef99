"""The dict-of-lists open-flow builder, kept as a test oracle.

Before the destination arena, :class:`repro.core.streaming.StreamingEventBuilder`
held each open flow's destination segments as a list of small numpy
arrays in a dict keyed by flow key, compacting a flow with one
``np.unique`` once it held ``_COMPACT_SEGMENTS`` segments.  This is that
builder, unchanged but for its pickling hooks: property tests fold the
same chunks into it and into the arena builder and require the same
closed events, destination bounds, open columns and
``open_sources_reaching`` answers.
"""

from typing import Dict, List, Optional

import numpy as np

from repro.core.events import EventTable
from repro.core.streaming import _COMPACT_SEGMENTS, _columns_to_table
from repro.packet import PacketBatch, SCANNING_PROTOCOLS

_KEY_DPORT_MASK = np.uint64(0xFFFF)


def _flow_keys(batch: PacketBatch) -> np.ndarray:
    """Composite (src, dport, proto) key per packet."""
    return (
        (batch.src.astype(np.uint64) << np.uint64(24))
        | (batch.dport.astype(np.uint64) << np.uint64(8))
        | batch.proto.astype(np.uint64)
    )
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



class DictEventBuilder:
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
        #: flow key -> list of per-continuation destination arrays.
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

    def merge(self, other: "DictEventBuilder") -> None:
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

