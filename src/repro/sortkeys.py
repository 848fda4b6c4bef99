"""Packed-key sort kernels for capture-sized columns.

Every hot sort of the study is one of four questions: the stable order
of a small integer key, the stable order of the (src, port·proto) flow
key, the stable order of the timestamps, and the sorted distinct values
of an integer column (with counts or an inverse).  numpy answers them
with ``argsort(kind="stable")``, ``lexsort`` and ``unique``, which are
its slowest sort forms; here each is answered by ``np.sort`` of one
``uint64`` column, which numpy sorts in place with its vectorized
quicksort.

The packing contract: a key below ``2**32`` and a row index below
``2**32`` share one ``uint64`` as ``key << 32 | row``.  Sorting that
word orders by key and breaks ties by row — a stable argsort.  Wider
keys are ordered in stable 32-bit passes, least significant first.

Each kernel returns exactly what the numpy call it replaces returns
(the permutation, or the values), so results built on them are
bit-identical.  Inputs of ``2**32`` rows or more, keys outside
``[0, 2**32)`` and non-finite timestamps are refused with
``ValueError``.

This module imports nothing from the rest of the package.
"""

from __future__ import annotations

import math

import numpy as np

#: rows (and key values) a packed word can address.
MAX_ROWS = 2**32
#: time buckets of :func:`order_by_time`'s first pass.
TIME_BUCKETS = 2**24
#: rows OR-ed into a packed word per step (bounds the index temporary).
_BLOCK = 1 << 20
#: below this length the packed passes do not pay for themselves.
_SMALL = 1 << 10
_LOW32 = np.uint64(0xFFFFFFFF)


def _check_rows(n: int) -> None:
    if n >= MAX_ROWS:
        raise ValueError(f"cannot order {n} rows: the limit is 2**32 - 1")


def _check_key(key: np.ndarray) -> None:
    if key.dtype.kind == "u" and key.dtype.itemsize <= 4:
        return
    if key.dtype.kind not in "iu":
        raise ValueError(f"sort keys must be integers, not {key.dtype}")
    if len(key) and (int(key.min()) < 0 or int(key.max()) >= MAX_ROWS):
        raise ValueError("sort keys must lie in [0, 2**32)")


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values."""
    first = np.empty(len(ordered), dtype=bool)
    if len(first):
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def order_by(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` for integer keys below ``2**32``.

    One in-place sort of ``key << 32 | row``; the packed buffer becomes
    the returned permutation.
    """
    key = np.asarray(key)
    n = len(key)
    _check_rows(n)
    _check_key(key)
    packed = key.astype(np.uint64)
    packed <<= np.uint64(32)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        packed[lo:hi] |= np.arange(lo, hi, dtype=np.uint64)
    packed.sort()
    packed &= _LOW32
    return packed.view(np.intp)


def order_by_flow(src: np.ndarray, port_proto: np.ndarray) -> np.ndarray:
    """Stable order of the 56-bit flow key ``src << 24 | port_proto``.

    ``port_proto`` must lie below ``2**24``.  Two stable 32-bit passes:
    the low port·proto bits, then ``src``.  On time-sorted rows this is
    ``np.lexsort((ts, key))``: the row index stands in for the
    timestamp tie-break.
    """
    port_proto = np.asarray(port_proto)
    _check_rows(len(port_proto))
    if len(port_proto) and int(port_proto.max()) >= 2**24:
        raise ValueError("port·proto keys must lie below 2**24")
    first = order_by(port_proto)
    return first[order_by(np.asarray(src)[first])]


def order_by_time(ts: np.ndarray) -> np.ndarray:
    """``np.argsort(ts, kind="stable")`` for finite float timestamps.

    A pass over ``TIME_BUCKETS`` equal-width time buckets leaves the
    rows nearly sorted, and a stable argsort of that nearly sorted
    result finishes the order.  The result is exact for any bucketing
    that gives equal timestamps one bucket, since they keep row order;
    equal widths only make the last pass cheap.  NaN and infinite
    timestamps raise ``ValueError``.
    """
    ts = np.asarray(ts, dtype=np.float64)
    n = len(ts)
    _check_rows(n)
    if n < _SMALL:
        if not np.isfinite(ts).all():
            raise ValueError("timestamps must be finite")
        return np.argsort(ts, kind="stable")
    lo, hi = float(ts.min()), float(ts.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("timestamps must be finite")
    if not bool((ts[1:] < ts[:-1]).any()):
        return np.arange(n, dtype=np.intp)
    # Halved so the span of any two finite floats stays finite; a span
    # too small to scale leaves every row in bucket 0.
    span = hi / 2 - lo / 2
    scale = (TIME_BUCKETS - 1) / span if span > 2**-1000 else 0.0
    bucket = ts / 2
    bucket -= lo / 2
    bucket *= scale
    np.minimum(bucket, TIME_BUCKETS - 1, out=bucket)
    order = order_by(bucket.astype(np.uint32))
    del bucket
    return order[np.argsort(ts[order], kind="stable")]


def distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for an integer array: sort plus mask."""
    ordered = np.sort(np.asarray(values).ravel())
    return ordered[run_starts(ordered)]


def distinct_counts(values: np.ndarray) -> tuple:
    """``np.unique(values, return_counts=True)`` for an integer array."""
    ordered = np.sort(np.asarray(values).ravel())
    first = np.flatnonzero(run_starts(ordered))
    return ordered[first], np.diff(first, append=len(ordered))


def distinct_inverse(values: np.ndarray) -> tuple:
    """``np.unique(values, return_inverse=True, return_counts=True)``
    for integers below ``2**32``: ``(distinct, inverse, counts)``.

    One :func:`order_by` pass; the inverse is scattered through it and
    the counts are the lengths of the runs.
    """
    values = np.asarray(values)
    order = order_by(values)
    ordered = values[order]
    first = run_starts(ordered)
    inverse = np.empty(len(values), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    return ordered[starts], inverse, np.diff(starts, append=len(ordered))
