"""CIDR prefixes and sorted prefix sets with vectorized membership.

``PrefixSet`` is the workhorse used to answer "which monitored network
does this packet belong to" and "which AS originates this source IP" for
millions of addresses at once.  It keeps prefixes as sorted, disjoint
``[start, end)`` integer ranges and answers membership / lookup queries
with a single ``numpy.searchsorted``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.net.addr import format_ip, parse_ip, prefix_size
from repro.sortkeys import distinct


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 CIDR block, e.g. ``Prefix.parse("192.0.2.0/24")``."""

    base: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length out of range: {self.length}")
        size = prefix_size(self.length)
        if self.base % size != 0:
            raise ValueError(
                f"base {format_ip(self.base)} not aligned to /{self.length}"
            )
        if self.base + size > 2**32:
            raise ValueError("prefix extends past the IPv4 space")

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` notation."""
        addr, _, length = text.partition("/")
        if not length:
            raise ValueError(f"missing prefix length: {text!r}")
        return cls(parse_ip(addr), int(length))

    @property
    def size(self) -> int:
        """Number of addresses covered."""
        return prefix_size(self.length)

    @property
    def end(self) -> int:
        """One past the highest covered address."""
        return self.base + self.size

    def __contains__(self, address: int) -> bool:
        return self.base <= int(address) < self.end

    def contains_array(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorized membership test for a ``uint32`` array."""
        addr = addresses.astype(np.int64, copy=False)
        return (addr >= self.base) & (addr < self.end)

    def __str__(self) -> str:
        return f"{format_ip(self.base)}/{self.length}"

    def slash24s(self) -> int:
        """Number of /24 networks covered (at least 1)."""
        return max(self.size // 256, 1)


class PrefixSet:
    """An immutable set of disjoint prefixes with fast lookups.

    Overlapping input prefixes are rejected: the synthetic address plan
    allocates disjoint blocks, and silent merging would hide allocation
    bugs.
    """

    def __init__(self, prefixes: Iterable[Prefix]):
        items = sorted(prefixes)
        starts = np.empty(len(items), dtype=np.int64)
        ends = np.empty(len(items), dtype=np.int64)
        for i, prefix in enumerate(items):
            starts[i] = prefix.base
            ends[i] = prefix.end
        if len(items) > 1 and np.any(starts[1:] < ends[:-1]):
            first_bad = int(np.argmax(starts[1:] < ends[:-1]))
            raise ValueError(
                f"overlapping prefixes: {items[first_bad]} and "
                f"{items[first_bad + 1]}"
            )
        self._prefixes: tuple[Prefix, ...] = tuple(items)
        self._starts = starts
        self._ends = ends

    @classmethod
    def parse(cls, texts: Sequence[str]) -> "PrefixSet":
        """Build from CIDR strings."""
        return cls(Prefix.parse(text) for text in texts)

    @property
    def prefixes(self) -> tuple[Prefix, ...]:
        """The member prefixes, sorted by base address."""
        return self._prefixes

    @property
    def size(self) -> int:
        """Total number of addresses covered."""
        return int(np.sum(self._ends - self._starts))

    def slash24s(self) -> int:
        """Total number of /24 networks covered."""
        return sum(prefix.slash24s() for prefix in self._prefixes)

    def __len__(self) -> int:
        return len(self._prefixes)

    def __iter__(self) -> Iterator[Prefix]:
        return iter(self._prefixes)

    def __contains__(self, address: int) -> bool:
        idx = int(np.searchsorted(self._starts, int(address), side="right")) - 1
        return idx >= 0 and int(address) < int(self._ends[idx])

    def lookup(self, addresses: np.ndarray) -> np.ndarray:
        """Map each address to the index of its covering prefix, or -1."""
        addr = addresses.astype(np.int64, copy=False)
        idx = np.searchsorted(self._starts, addr, side="right") - 1
        valid = idx >= 0
        inside = np.zeros(addr.shape, dtype=bool)
        inside[valid] = addr[valid] < self._ends[idx[valid]]
        result = np.where(inside, idx, -1)
        return result.astype(np.int64)

    def contains_array(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorized membership mask."""
        return self.lookup(addresses) >= 0

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw uniform addresses from the union of all prefixes."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if not self._prefixes:
            raise ValueError("cannot sample from an empty PrefixSet")
        sizes = (self._ends - self._starts).astype(np.float64)
        weights = sizes / sizes.sum()
        which = rng.choice(len(self._prefixes), size=count, p=weights)
        offsets = rng.random(count) * sizes[which]
        return (self._starts[which] + offsets.astype(np.int64)).astype(np.uint32)

    def ranges(self) -> np.ndarray:
        """Covered address space as an ``(n, 2)`` array of [start, end)."""
        return np.stack([self._starts, self._ends], axis=1)

    def __repr__(self) -> str:
        return f"PrefixSet({len(self._prefixes)} prefixes, {self.size} addrs)"


def intersect_ranges(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersect two sorted, disjoint ``[start, end)`` range arrays.

    Both inputs are ``(n, 2)`` int64 arrays as produced by
    :meth:`PrefixSet.ranges`.  Returns the (possibly empty) sorted,
    disjoint intersection in the same format.
    """
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i, 0], b[j, 0])
        hi = min(a[i, 1], b[j, 1])
        if lo < hi:
            out.append((lo, hi))
        if a[i, 1] <= b[j, 1]:
            i += 1
        else:
            j += 1
    if not out:
        return np.empty((0, 2), dtype=np.int64)
    return np.array(out, dtype=np.int64)


def ranges_size(ranges: np.ndarray) -> int:
    """Total address count covered by a ``[start, end)`` range array."""
    if len(ranges) == 0:
        return 0
    return int((ranges[:, 1] - ranges[:, 0]).sum())


def sample_ranges(
    rng: np.random.Generator, ranges: np.ndarray, count: int
) -> np.ndarray:
    """Draw ``count`` uniform addresses from a range array (uint32)."""
    if count < 0:
        raise ValueError("count must be non-negative")
    total = ranges_size(ranges)
    if total == 0:
        raise ValueError("cannot sample from empty ranges")
    sizes = (ranges[:, 1] - ranges[:, 0]).astype(np.float64)
    weights = sizes / sizes.sum()
    which = rng.choice(len(ranges), size=count, p=weights)
    offsets = (rng.random(count) * sizes[which]).astype(np.int64)
    return (ranges[which, 0] + offsets).astype(np.uint32)


def sample_distinct_offsets(
    rng: np.random.Generator, size: int, count: int
) -> np.ndarray:
    """Sample ``count`` distinct integers from ``[0, size)``.

    Uses a full permutation when the draw is dense and rejection
    sampling when sparse, so both small darknets and large views stay
    cheap.
    """
    if count < 0 or count > size:
        raise ValueError(f"cannot draw {count} distinct values from {size}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if count * 3 >= size:
        return rng.permutation(size)[:count].astype(np.int64)
    chosen = distinct(rng.integers(0, size, size=int(count * 1.2), dtype=np.int64))
    while len(chosen) < count:
        extra = rng.integers(0, size, size=count, dtype=np.int64)
        chosen = distinct(np.concatenate([chosen, extra]))
    return rng.permutation(chosen)[:count]
