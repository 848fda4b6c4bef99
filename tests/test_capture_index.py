"""The capture's per-source index against the ``np.isin`` reference.

Every source-set query of :class:`DarknetCapture` (``packets_from``,
``select_sources``, ``source_count``, ``source_packets``) and the
analyses built on it (``origins``, ``zipf_contribution``) must answer
exactly what a membership pass over the whole source column answers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import characterize
from repro.fingerprint import ZMAP_IPID, Tool, classify, masscan_ipid
from repro.net.asn import ASType, build_registry
from repro.net.prefix import Prefix
from repro.packet import PacketBatch, Protocol
from repro.telescope.capture import DarknetCapture
from repro.telescope.darknet import Telescope

TOP = 2**32 - 1
#: a small address pool so captures repeat sources; the extremes of
#: IPv4 space are always in it.
POOL = [0, 1, 7, 1 << 24, 2**31 - 1, 2**31, TOP - 1, TOP]
TELESCOPE = Telescope.from_prefix(Prefix.parse("10.0.0.0/24"))
#: two ASes splitting IPv4 space, so every source has an origin.
REGISTRY = build_registry(
    [
        (65001, "low-half", "US", ASType.CLOUD, ["0.0.0.0/1"]),
        (65002, "high-half", "CN", ASType.ISP, ["128.0.0.0/1"]),
    ]
)


def make_capture(sources, seed=0) -> DarknetCapture:
    n = len(sources)
    rng = np.random.default_rng(seed)
    batch = PacketBatch(
        ts=rng.random(n) * 1_000.0,
        src=np.asarray(sources, dtype=np.uint32),
        dst=np.arange(n, dtype=np.uint32),
        dport=rng.integers(0, 65_536, n).astype(np.uint16),
        proto=np.full(n, Protocol.TCP_SYN.value, dtype=np.uint8),
        ipid=rng.integers(0, 65_536, n).astype(np.uint16),
    )
    return DarknetCapture(packets=batch, telescope=TELESCOPE)


def isin_mask(capture, sources) -> np.ndarray:
    """The membership pass the index replaces."""
    wanted = np.asarray(sorted(int(a) for a in sources), dtype=np.uint32)
    return np.isin(capture.packets.src, wanted)


def as_container(addresses, kind):
    if kind == "list":
        return list(addresses)
    if kind == "set":
        return set(addresses)
    return np.asarray(addresses, dtype=np.uint32)


addresses = st.one_of(st.sampled_from(POOL), st.integers(0, TOP))
captures = st.lists(st.sampled_from(POOL), max_size=60)
# Queries repeat addresses on purpose: a repeat must count once.
queries = st.lists(addresses, max_size=20)
containers = st.sampled_from(["list", "set", "array"])


def assert_batches_equal(a: PacketBatch, b: PacketBatch) -> None:
    for column in ("ts", "src", "dst", "dport", "proto", "ipid"):
        left, right = getattr(a, column), getattr(b, column)
        assert left.dtype == right.dtype, column
        assert np.array_equal(left, right), column


class TestIndexMatchesIsin:
    @settings(max_examples=150, deadline=None)
    @given(captures, queries, containers, st.integers(0, 3))
    def test_source_set_queries(self, src, query, kind, seed):
        capture = make_capture(src, seed)
        wanted = as_container(query, kind)
        mask = isin_mask(capture, query)

        assert capture.packets_from(wanted) == int(np.count_nonzero(mask))
        assert_batches_equal(
            capture.select_sources(wanted), capture.packets.select(mask)
        )
        assert capture.source_count() == len(np.unique(capture.packets.src))
        seen, counts = capture.source_packets(wanted)
        ref_seen, ref_counts = np.unique(
            capture.packets.src[mask], return_counts=True
        )
        assert np.array_equal(seen, ref_seen)
        assert np.array_equal(counts, ref_counts)

    @settings(max_examples=100, deadline=None)
    @given(captures, queries, containers)
    def test_origins_and_zipf_totals(self, src, query, kind):
        capture = make_capture(src)
        wanted = as_container(query, kind)
        mask = isin_mask(capture, query)
        total = int(np.count_nonzero(mask))

        rows, totals = characterize.origins(wanted, REGISTRY, capture)
        assert sum(r.packets for r in rows) == total
        assert totals["packets"] == (total, 1.0 if total else 0.0)
        low = int(np.count_nonzero(mask & (capture.packets.src < 2**31)))
        by_asn = {r.asn: r.packets for r in rows}
        assert by_asn.get(65001, 0) == low

        curve = characterize.zipf_contribution(capture, wanted)
        _, ref_counts = np.unique(capture.packets.src[mask], return_counts=True)
        assert len(curve) == len(ref_counts)
        if total:
            assert curve[-1] == 1.0
            top = np.sort(ref_counts)[::-1]
            assert np.array_equal(curve, np.cumsum(top.astype(float)) / total)


class TestEdges:
    def test_empty_capture(self):
        capture = make_capture([])
        assert capture.source_count() == 0
        assert capture.packets_from([0, TOP]) == 0
        assert len(capture.select_sources({0})) == 0
        assert capture.select_sources({0}).src.dtype == np.uint32
        assert len(characterize.zipf_contribution(capture, {0})) == 0

    def test_empty_source_set(self):
        capture = make_capture([0, TOP, 5])
        for empty in ([], set(), np.empty(0, dtype=np.uint32)):
            assert capture.packets_from(empty) == 0
            assert len(capture.select_sources(empty)) == 0

    def test_absent_sources(self):
        capture = make_capture([5, 5, 9])
        assert capture.packets_from({4, 6, 10, TOP}) == 0
        assert capture.packets_from([0]) == 0

    def test_extreme_addresses(self):
        capture = make_capture([0, TOP, TOP, 0, 0])
        assert capture.packets_from({0}) == 3
        assert capture.packets_from(np.array([TOP], dtype=np.uint32)) == 2
        assert capture.source_count() == 2

    def test_duplicates_count_once(self):
        capture = make_capture([3, 3, 8])
        assert capture.packets_from([3, 3, 3]) == 2
        assert capture.packets_from(np.array([8, 8, 3, 8])) == 3
        assert len(capture.select_sources([3, 3])) == 2
        seen, counts = capture.source_packets([8, 3, 8])
        assert seen.tolist() == [3, 8]
        assert counts.tolist() == [2, 1]

    def test_select_keeps_time_order(self):
        capture = make_capture([1, 2, 1, 3, 1, 2] * 10, seed=4)
        sub = capture.select_sources([2, 1])
        assert np.all(np.diff(sub.ts) >= 0)
        assert set(sub.src.tolist()) == {1, 2}


class TestIndexCache:
    def test_built_once(self):
        capture = make_capture([1, 2, 2])
        assert capture.source_index() is capture.source_index()

    def test_reassigned_packets_never_serve_a_stale_index(self):
        capture = make_capture([1, 1, 2])
        assert capture.packets_from({1}) == 2
        assert capture.source_count() == 2
        capture.packets = make_capture([1, 3, 3, 4]).packets
        assert capture.packets_from({1}) == 1
        assert capture.packets_from({3}) == 2
        assert capture.source_count() == 3
        assert capture.select_sources({4}).src.tolist() == [4]

    def test_index_columns(self):
        capture = make_capture([9, 0, 9, TOP])
        sources, counts, inverse = capture.source_index()
        assert sources.tolist() == [0, 9, TOP]
        assert counts.tolist() == [1, 2, 1]
        assert inverse.dtype == np.int32
        assert np.array_equal(sources[inverse], capture.packets.src)


def unique_top_ports(capture, ah_sources, top_n):
    """Figure 4 as it was built before the packed (service, tool) sort:
    a six-column ``select_sources`` copy, ``np.unique`` with an inverse
    and one ``bincount`` per tool."""
    batch = capture.select_sources(set(ah_sources))
    if len(batch) == 0:
        return []
    tools = classify(batch)
    keys = (batch.dport.astype(np.uint32) << np.uint32(8)) | batch.proto
    unique, inverse, counts = np.unique(
        keys, return_inverse=True, return_counts=True
    )
    zmap, masscan, other = (
        np.bincount(inverse, weights=tools == tool.value, minlength=len(unique))
        for tool in (Tool.ZMAP, Tool.MASSCAN, Tool.OTHER)
    )
    rows = [
        characterize.PortRow(
            port=int(key) >> 8,
            proto=int(key) & 0xFF,
            packets=int(counts[i]),
            zmap_packets=int(zmap[i]),
            masscan_packets=int(masscan[i]),
            other_packets=int(other[i]),
        )
        for i, key in enumerate(unique)
    ]
    rows.sort(key=lambda r: r.packets, reverse=True)
    return rows[:top_n]


class TestTopPortsMatchesUnique:
    @settings(max_examples=150, deadline=None)
    @given(captures, queries, st.integers(0, 3), st.integers(1, 30))
    def test_ranking_and_tool_split(self, src, query, seed, top_n):
        capture = make_capture(src, seed)
        rng = np.random.default_rng(seed)
        n = len(src)
        packets = capture.packets
        # Few services (ties in the ranking), every protocol code, and
        # IP-IDs that hit both fingerprints.
        packets.dport = np.array([0, 22, 80, 65535], np.uint16)[rng.integers(0, 4, n)]
        packets.proto = np.array([1, 6, 17, 201, 255], np.uint8)[rng.integers(0, 5, n)]
        masscan = masscan_ipid(packets.dst, packets.dport)
        packets.ipid = np.where(
            rng.random(n) < 0.3, ZMAP_IPID,
            np.where(rng.random(n) < 0.5, masscan, rng.integers(0, 65_536, n)),
        ).astype(np.uint16)
        expected = unique_top_ports(capture, query, top_n)
        assert characterize.top_ports(capture, query, top_n) == expected
