"""Bulk derivation of per-span RNG streams.

Every generation span draws from ``np.random.default_rng((seed,
view_key, session, span))`` — four small integers seeding a
``SeedSequence`` that in turn seeds a PCG64.  Constructing that chain
per span costs ~16µs of pure Python/Cython dispatch, which the
profiler shows is a dominant fixed cost of windowed emission: a lazy
sweep touches tens of thousands of spans per run, one at a time.

This module re-implements the exact entropy-mixing and seeding
arithmetic as vectorized numpy over *batches* of key tuples, so every
span stream of a population is derived in one pass
(:mod:`repro.scanners.plan`):

* :func:`seedseq_state64` — ``SeedSequence(keys).generate_state(4,
  uint64)`` for ``n`` key rows at once (the pool-mixing constants and
  order follow numpy's ``bit_generator.pyx`` exactly);
* :func:`derive_span_words` — the same for key tuples, expanding each
  value into its entropy words in numpy and dispatching tiny batches
  to ``SeedSequence`` itself;
* :func:`generator_from_words` / :func:`span_generators` — ready
  ``np.random.Generator`` objects: PCG64 is seeded *from the
  precomputed words* through a minimal
  :class:`~numpy.random.bit_generator.ISeedSequence` shim, so the
  128-bit ``srandom`` step runs in numpy's C code, not Python.

The output is **bit-identical** to the per-span ``default_rng`` chain
— pinned by ``tests/test_stream_derivation.py`` over random key
tuples and by the golden event digests downstream.  Key values over
32 bits expand to multiple entropy words exactly as ``SeedSequence``
splits them; rows are grouped by word layout so mixed-width batches
still vectorize.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

#: SeedSequence pool/mixing constants (numpy/random/bit_generator.pyx).
_XSHIFT = np.uint32(16)
_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_POOL_SIZE = 4

#: Below this many rows the scalar ``SeedSequence`` path is cheaper
#: than spinning up ~60 numpy array operations on near-empty arrays.
_BATCH_THRESHOLD = 4


def seedseq_state64(entropy: np.ndarray, n_words: int = 4) -> np.ndarray:
    """Vectorized ``SeedSequence(row).generate_state(n_words, uint64)``.

    Args:
        entropy: ``(n, k)`` uint32 array; row ``i`` plays the role of a
            ``k``-tuple of single-word entropy values.
        n_words: 64-bit output words per row.

    Returns:
        ``(n, n_words)`` uint64 array, row ``i`` bit-identical to
        ``np.random.SeedSequence(tuple(row_i)).generate_state(n_words,
        np.uint64)``.
    """
    entropy = np.ascontiguousarray(entropy, dtype=np.uint32)
    n, k = entropy.shape
    with np.errstate(over="ignore"):
        hash_const = np.full(n, _INIT_A, dtype=np.uint32)

        def hash_mix(value: np.ndarray) -> np.ndarray:
            nonlocal hash_const
            value = value ^ hash_const
            hash_const = hash_const * _MULT_A
            value = value * hash_const
            return value ^ (value >> _XSHIFT)

        def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            result = x * _MIX_MULT_L - y * _MIX_MULT_R
            return result ^ (result >> _XSHIFT)

        # Hash the first pool_size entropy words in, then cross-mix the
        # whole pool, then fold any remaining words into every pool
        # word — the exact order of ``SeedSequence.mix_entropy``.
        pool = [
            hash_mix(
                entropy[:, i].copy()
                if i < k
                else np.zeros(n, dtype=np.uint32)
            )
            for i in range(_POOL_SIZE)
        ]
        for i_src in range(_POOL_SIZE):
            for i_dst in range(_POOL_SIZE):
                if i_src != i_dst:
                    pool[i_dst] = mix(pool[i_dst], hash_mix(pool[i_src]))
        for i_src in range(_POOL_SIZE, k):
            for i_dst in range(_POOL_SIZE):
                pool[i_dst] = mix(
                    pool[i_dst], hash_mix(entropy[:, i_src].copy())
                )

        hash_b = np.full(n, _INIT_B, dtype=np.uint32)
        out32 = np.empty((n, n_words * 2), dtype=np.uint32)
        for i_dst in range(n_words * 2):
            value = pool[i_dst % _POOL_SIZE] ^ hash_b
            hash_b = hash_b * _MULT_B
            value = value * hash_b
            out32[:, i_dst] = value ^ (value >> _XSHIFT)
    wide = out32.astype(np.uint64)
    # uint32 pairs combine little-endian into uint64 words (the
    # ``state.view(np.uint64)`` step of ``generate_state``).
    return wide[:, 0::2] | (wide[:, 1::2] << np.uint64(32))


class _PrecomputedSeed(ISeedSequence):
    """Hands PCG64 already-derived ``generate_state`` words.

    Registering as an ``ISeedSequence`` makes ``PCG64(shim)`` consume
    the words directly — the 128-bit ``srandom`` initialization then
    runs in numpy's C code, and no Python-side big-int arithmetic is
    needed anywhere.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        words = self.words
        if np.dtype(dtype) != np.dtype(np.uint64) or n_words != len(words):
            raise NotImplementedError(
                "precomputed seed only serves its derived uint64 words"
            )
        return words


def derive_span_words(keys) -> np.ndarray:
    """``generate_state(4, uint64)`` words for many key tuples at once.

    ``keys`` is a sequence of equal-length integer tuples, or the same
    as an ``(n, k)`` array (an object array keeps any integer width
    exact).  Returns an ``(n, 4)`` uint64 array; row ``i`` equals
    ``np.random.SeedSequence(tuple(keys[i])).generate_state(4,
    np.uint64)``.

    Each value contributes its 32-bit limbs little-endian, exactly as
    ``SeedSequence`` coerces integers: values below 2**32 (zero
    included) one word, values below 2**64 two — so real batches, whose
    seeds cross 32 bits, mix layouts.  Rows are grouped by their total
    word count, each group's entropy words are scattered into place in
    numpy and derived in one :func:`seedseq_state64` pass; tiny groups,
    and values outside [0, 2**64), go through ``SeedSequence`` itself —
    same bits (or the library's own error), just not vectorized.
    """
    keys = np.asarray(keys, dtype=object)
    n = len(keys)
    out = np.empty((n, 4), dtype=np.uint64)
    if n == 0:
        return out
    fits = ((keys >= 0) & (keys < 2**64)).all(axis=1)
    rows = np.flatnonzero(fits)
    wide = keys[rows].astype(np.uint64)
    lo = wide.astype(np.uint32)  # the low limb (astype wraps)
    hi = (wide >> np.uint64(32)).astype(np.uint32)
    two = hi > 0
    # Each value's first word position within its row's entropy.
    first = np.arange(wide.shape[1]) + np.cumsum(two, axis=1) - two
    length = wide.shape[1] + two.sum(axis=1)
    scalar = list(np.flatnonzero(~fits))
    for width in range(wide.shape[1], 2 * wide.shape[1] + 1):
        group = np.flatnonzero(length == width)
        if len(group) < _BATCH_THRESHOLD:
            scalar.extend(rows[group])
            continue
        entropy = np.zeros((len(group), width), dtype=np.uint32)
        pos = first[group]
        at = np.broadcast_to(np.arange(len(group))[:, None], pos.shape)
        entropy[at, pos] = lo[group]
        carry = two[group]
        entropy[at[carry], pos[carry] + 1] = hi[group][carry]
        out[rows[group]] = seedseq_state64(entropy, 4)
    for i in scalar:
        out[i] = np.random.SeedSequence(
            tuple(int(v) for v in keys[i])
        ).generate_state(4, np.uint64)
    return out


def generator_from_words(words: np.ndarray) -> np.random.Generator:
    """A PCG64 ``Generator`` seeded from precomputed state words."""
    return np.random.Generator(np.random.PCG64(_PrecomputedSeed(words)))


def span_generators(
    keys: Sequence[Sequence[int]],
) -> List[np.random.Generator]:
    """One ``Generator`` per key tuple, derived in a single pass.

    Bit-identical to ``[np.random.default_rng(tuple(k)) for k in
    keys]`` — pinned by tests over random key tuples.
    """
    words = derive_span_words(keys)
    return [generator_from_words(words[i]) for i in range(len(words))]
