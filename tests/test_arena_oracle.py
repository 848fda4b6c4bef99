"""The destination-arena builder against the dict-of-lists oracle.

:class:`repro.core.streaming.StreamingEventBuilder` keeps every open
flow's destination segments in one arena addressed by key-sorted
segment columns; :class:`tests.builder_oracle.DictEventBuilder` is the
builder it replaced, one list of arrays per flow.  Fed the same chunks,
sharded by source and merged in any order, both must close the same
events, hold the same open table (destination bounds included) and
answer ``open_sources_reaching`` alike.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import build_events
from repro.core.streaming import StreamingEventBuilder, tables_equivalent
from repro.packet import PacketBatch, Protocol
from repro.parallel import shard_of
from tests.builder_oracle import DictEventBuilder
from tests.test_serialization import _chunked_streams

_OPEN = ("_keys", "_start", "_last", "_packets", "_nseg", "_dst_lo", "_dst_hi")
_THRESHOLDS = (1, 2.5, 4, 8, 16, 30)


def _assert_same(arena, oracle):
    """Same open table, open columns, reach answers and closed events;
    the arena builder's segment columns agree with its open table."""
    assert np.array_equal(arena._seg_key, np.repeat(arena._keys, arena._nseg))
    assert (arena._seg_off + arena._seg_len <= arena._fill).all()
    for name in _OPEN:
        assert np.array_equal(getattr(arena, name), getattr(oracle, name)), name
    rows = np.arange(arena.open_flows)
    for got, want in zip(arena._row_columns(rows), oracle._row_columns(rows)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    for threshold in _THRESHOLDS:
        assert np.array_equal(
            arena.open_sources_reaching(threshold),
            oracle.open_sources_reaching(threshold),
        )
    assert arena.closed_events == oracle.closed_events
    assert tables_equivalent(arena.drain_finalized(), oracle.drain_finalized())


@given(
    _chunked_streams(),
    st.sampled_from([40.0, 150.0, 600.0]),
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.permutations(range(n))
    ),
)
@settings(max_examples=60, deadline=None)
def test_arena_builder_equals_dict_oracle(stream, timeout, merge_order):
    chunks, at = stream
    shards = len(merge_order)
    pairs = [
        (StreamingEventBuilder(timeout), DictEventBuilder(timeout))
        for _ in range(shards)
    ]
    for chunk in chunks[:at]:
        owner = shard_of(chunk.src, shards)
        for shard, (arena, oracle) in enumerate(pairs):
            part = chunk.select(owner == shard)
            arena.add_batch(part)
            oracle.add_batch(part)
            _assert_same(arena, oracle)
    arena, oracle = pairs[merge_order[0]]
    for shard in merge_order[1:]:
        arena.merge(pairs[shard][0])
        oracle.merge(pairs[shard][1])
        _assert_same(arena, oracle)
    for chunk in chunks[at:]:
        arena.add_batch(chunk)
        oracle.add_batch(chunk)
        _assert_same(arena, oracle)
    assert tables_equivalent(arena.finish(), oracle.finish())


def test_compaction_and_gather_keep_counts_exact():
    """A flow continued through many chunks is compacted again and
    again and the arena gathered, without changing any answer."""
    rng = np.random.default_rng(5)
    n = 40_000
    batch = PacketBatch(
        ts=np.sort(rng.random(n) * 40_000.0),
        src=rng.integers(1, 40, n).astype(np.uint32),
        dst=rng.integers(0, 256, n).astype(np.uint32),
        dport=rng.choice(np.array([22, 80], dtype=np.uint16), n),
        proto=np.full(n, Protocol.TCP_SYN.value, dtype=np.uint8),
        ipid=np.zeros(n, dtype=np.uint16),
    )
    arena, oracle = StreamingEventBuilder(900.0), DictEventBuilder(900.0)
    gathers, fill = 0, 0
    for _, _, chunk in batch.iter_time_chunks(120.0):
        arena.add_batch(chunk)
        oracle.add_batch(chunk)
        gathers += arena._fill < fill
        fill = arena._fill
        _assert_same(arena, oracle)
    assert gathers > 0
    events = arena.finish()
    assert tables_equivalent(events, oracle.finish())
    assert tables_equivalent(events, build_events(batch, 900.0))
