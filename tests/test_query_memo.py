"""The memoized AH query of :class:`repro.core.engine.DetectionEngine`.

``query()`` keeps the answer it last built and hands it out again until
something changes what it read.  A property test draws interleavings of
every operation that reaches an engine — coalesced ingests of good,
corrupt, out-of-order and empty chunks, queries, shard reloads, fold
pool attach/detach, and snapshot + restore — inline and pooled, and
checks after each query that:

* the answer equals one built from ``to_bytes`` copies of the shards
  (``tests/test_streaming.py::_summary_answer``);
* the host's ``summary`` ran exactly once per state version: once for
  the first query after a change, never for a repeat;
* the engine's ``queries``/``query_memo_hits`` counters agree;
* the shared answer is read-only.
"""

import itertools
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DetectionConfig
from repro.core.engine import DetectionEngine, ShardHost
from repro.core.faults import CheckpointStore
from repro.core.streaming import StreamingDetector
from repro.io.packetlog import packets_to_npz_bytes
from repro.packet import PacketBatch, Protocol
from repro.serve.foldpool import FoldPool
from tests.test_streaming import _assert_query_identical, _summary_answer

TCP = Protocol.TCP_SYN.value

_DARK_SIZE = 64
_CONFIG = DetectionConfig(
    alpha=0.05, min_packet_threshold=2, min_port_threshold=1
)
_TIMEOUT = 600.0
_CHUNKS = 10


def _capture(seed=7, n=2_000, duration=60_000.0):
    rng = np.random.default_rng(seed)
    return PacketBatch(
        ts=np.sort(rng.random(n) * duration),
        src=rng.integers(1, 80, n).astype(np.uint32),
        dst=rng.integers(0, _DARK_SIZE, n).astype(np.uint32),
        dport=rng.choice(np.array([22, 80, 443], dtype=np.uint16), n),
        proto=np.full(n, TCP, dtype=np.uint8),
        ipid=np.zeros(n, dtype=np.uint16),
    )


_BATCH = _capture()
_EDGES = np.linspace(0, len(_BATCH), _CHUNKS + 1).astype(int)
_GOOD = [
    packets_to_npz_bytes(_BATCH.select(slice(int(a), int(b))))
    for a, b in zip(_EDGES[:-1], _EDGES[1:])
]
_EMPTY = packets_to_npz_bytes(_BATCH.select(slice(0, 0)))
_CORRUPT = b"not an npz archive"
_KEYS = itertools.count()

_blob_kind = st.sampled_from(["good", "corrupt", "stale", "empty"])
_operation = st.one_of(
    st.tuples(st.just("ingest"), st.lists(_blob_kind, max_size=4)),
    st.tuples(st.sampled_from(
        ["query", "query", "reload", "pool", "snapshot", "restore"]
    )),
)


@pytest.fixture(scope="module")
def pool():
    with FoldPool(2) as p:
        yield p


class _Spy:
    """Counts the host ``summary`` calls made in this process: the
    inline host's, or the fold pool's fan-out (the workers' own
    ``ShardHost.summary`` runs in their processes)."""

    def __init__(self):
        self.calls = 0

    def wrap(self, original):
        def summary(host, requests):
            self.calls += 1
            return original(host, requests)

        return summary


def _reference(engine: DetectionEngine):
    """What a fresh answer over ``to_bytes`` copies of the shards is."""
    blobs = engine._host.collect(engine._shard_reads())
    copies = [
        engine._spec.new_detector() if blob is None
        else StreamingDetector.from_bytes(blob)
        for blob in blobs
    ]
    for other in copies[1:]:
        copies[0].merge(other)
    return _summary_answer(copies[0])


def _assert_read_only(answer) -> None:
    for definition in (1, 2, 3):
        assert isinstance(answer.detections[definition].sources, frozenset)
        with pytest.raises(AttributeError):
            answer.detections[definition].sources.add(1)
    with pytest.raises(TypeError):
        answer.detections[1] = answer.detections[2]


@given(
    operations=st.lists(_operation, max_size=14),
    workers=st.integers(min_value=1, max_value=2),
    pooled=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_one_host_summary_per_state_version(pool, operations, workers,
                                            pooled):
    directory = Path(tempfile.mkdtemp(prefix="query-memo-"))
    store = CheckpointStore(directory)
    engine = DetectionEngine(
        _TIMEOUT, _DARK_SIZE, _CONFIG, workers=workers, store=store
    )
    if pooled:
        engine.attach_pool(pool, f"memo-{next(_KEYS)}")
    spy = _Spy()
    fed = 0  # good chunks folded so far, in order
    # ``stale``: the state changed since the last query, so the next
    # one reaches the host.
    stale, expected_calls, queries, hits, last = True, 0, 0, 0, None
    try:
        with mock.patch.object(
            ShardHost, "summary", spy.wrap(ShardHost.summary)
        ), mock.patch.object(
            FoldPool, "summary", spy.wrap(FoldPool.summary)
        ):
            for operation in operations:
                kind = operation[0]
                if kind == "ingest":
                    blobs = []
                    for blob_kind in operation[1]:
                        if blob_kind == "good" and fed < _CHUNKS:
                            blobs.append(_GOOD[fed])
                            fed += 1
                        elif blob_kind == "stale" and fed:
                            blobs.append(_GOOD[0])
                        elif blob_kind == "corrupt":
                            blobs.append(_CORRUPT)
                        else:
                            blobs.append(_EMPTY)
                    engine.ingest_payloads(blobs)
                    stale = True
                elif kind == "query":
                    answer = engine.query()
                    queries += 1
                    if stale:
                        expected_calls += 1
                    else:
                        hits += 1
                        assert answer is last
                    stale, last = False, answer
                    _assert_query_identical(answer, _reference(engine))
                    assert answer.packets == engine.packets_seen
                    assert answer.chunks == engine.chunks_ingested
                    _assert_read_only(answer)
                elif kind == "reload":
                    engine.reload_shards()
                    stale = True
                elif kind == "pool":
                    # Detaching reloads the shards; attaching hands the
                    # pool the very states the memo read, so keeps it.
                    if engine.pooled:
                        engine.detach_pool()
                        stale = True
                    else:
                        engine.attach_pool(pool, f"memo-{next(_KEYS)}")
                elif kind == "snapshot":
                    # Writes files, changes nothing a query reads.
                    engine.save_snapshot()
                else:  # restore: the committed snapshot, in a new engine
                    engine.save_snapshot()
                    restored = DetectionEngine.from_store(store)
                    assert restored.packets_seen == engine.packets_seen
                    assert restored.chunks_ingested == engine.chunks_ingested
                    if engine.pooled:
                        engine.abandon_pool()
                        restored.attach_pool(pool, f"memo-{next(_KEYS)}")
                    engine = restored
                    stale, queries, hits, last = True, 0, 0, None
                assert spy.calls == expected_calls
                status = engine.status()
                assert status["queries"] == queries
                assert status["query_memo_hits"] == hits
    finally:
        engine.abandon_pool()
        shutil.rmtree(directory, ignore_errors=True)


def test_repeat_query_skips_the_host_until_a_fold(pool):
    engine = DetectionEngine(_TIMEOUT, _DARK_SIZE, _CONFIG, workers=2)
    engine.attach_pool(pool, f"memo-{next(_KEYS)}")
    spy = _Spy()
    try:
        with mock.patch.object(
            FoldPool, "summary", spy.wrap(FoldPool.summary)
        ):
            engine.ingest_payloads(_GOOD[:3])
            first = engine.query()
            assert engine.query() is first
            assert spy.calls == 1
            engine.ingest_payloads(_GOOD[3:4])
            second = engine.query()
            assert spy.calls == 2
            assert second.packets > first.packets
            assert second.chunks == first.chunks + 1
            # An empty chunk folds nothing, but it is a chunk: the
            # count is part of the answer.
            engine.ingest_payloads([_EMPTY])
            third = engine.query()
            assert spy.calls == 3
            assert third.chunks == second.chunks + 1
            assert third.packets == second.packets
        assert engine.status()["queries"] == 4
        assert engine.status()["query_memo_hits"] == 1
    finally:
        engine.abandon_pool()
