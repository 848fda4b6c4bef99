"""Packet records in structure-of-arrays form.

The paper's analyses only need five facts per scanning packet: when it
was sent, by whom, to where, on which port, and with which protocol —
plus the IP-ID field that carries the ZMap/Masscan tool fingerprints.
``PacketBatch`` holds those as parallel numpy arrays so that scanner
models can emit millions of packets per scenario and every downstream
join (telescope capture, flow sampling, AH membership) stays vectorized.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.sortkeys import distinct, order_by_time


class Protocol(enum.IntEnum):
    """Traffic types observed at the telescope.

    The first three are the paper's "scanning packet" types; the last
    two are non-scanning telescope noise (DDoS backscatter: SYN-ACK and
    RST responses from spoofed-victim attacks) that the event pipeline
    must filter out.  Codes for the TCP sub-types are synthetic — the
    real distinction lives in TCP flags, which the simulator folds into
    this one enum for compactness.
    """

    TCP_SYN = 6
    UDP = 17
    ICMP_ECHO = 1
    TCP_SYNACK = 201
    TCP_RST = 202

    def label(self) -> str:
        """Human-readable name matching the paper's Table 3 rows."""
        return _PROTO_LABELS[self]

    @property
    def is_scanning(self) -> bool:
        """Whether the paper counts this type as a scanning packet."""
        return self in SCANNING_PROTOCOLS


#: The paper's §2 "scanning packets": TCP-SYN, UDP, ICMP echo request.
SCANNING_PROTOCOLS = frozenset(
    {Protocol.TCP_SYN, Protocol.UDP, Protocol.ICMP_ECHO}
)

_PROTO_LABELS = {
    Protocol.TCP_SYN: "TCP-SYN",
    Protocol.UDP: "UDP",
    Protocol.ICMP_ECHO: "ICMP Ech Rqst",
    Protocol.TCP_SYNACK: "TCP-SYNACK (backscatter)",
    Protocol.TCP_RST: "TCP-RST (backscatter)",
}

#: Canonical column order of a :class:`PacketBatch` — the one schema
#: every columnar surface (npz archives, shared-memory blocks, the
#: chunk-ingest wire format) lays packets out in.
COLUMNS = ("ts", "src", "dst", "dport", "proto", "ipid")


@dataclass
class PacketBatch:
    """A column-oriented batch of packets.

    Attributes:
        ts: send timestamps, seconds since scenario start (float64).
        src: source addresses (uint32).
        dst: destination addresses (uint32).
        dport: destination ports (uint16; 0 for ICMP).
        proto: protocol codes from :class:`Protocol` (uint8).
        ipid: IP identification field carrying tool fingerprints (uint16).
    """

    ts: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    dport: np.ndarray
    proto: np.ndarray
    ipid: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.ts)
        arrays = (self.src, self.dst, self.dport, self.proto, self.ipid)
        if any(len(a) != n for a in arrays):
            raise ValueError("PacketBatch columns must share one length")
        self.ts = np.asarray(self.ts, dtype=np.float64)
        self.src = np.asarray(self.src, dtype=np.uint32)
        self.dst = np.asarray(self.dst, dtype=np.uint32)
        self.dport = np.asarray(self.dport, dtype=np.uint16)
        self.proto = np.asarray(self.proto, dtype=np.uint8)
        self.ipid = np.asarray(self.ipid, dtype=np.uint16)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "PacketBatch":
        """A batch with zero packets."""
        return cls(
            ts=np.empty(0, dtype=np.float64),
            src=np.empty(0, dtype=np.uint32),
            dst=np.empty(0, dtype=np.uint32),
            dport=np.empty(0, dtype=np.uint16),
            proto=np.empty(0, dtype=np.uint8),
            ipid=np.empty(0, dtype=np.uint16),
        )

    @classmethod
    def concat(cls, batches: Sequence["PacketBatch"]) -> "PacketBatch":
        """Concatenate batches (order preserved, no sorting)."""
        batches = [b for b in batches if len(b)]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        return cls(
            ts=np.concatenate([b.ts for b in batches]),
            src=np.concatenate([b.src for b in batches]),
            dst=np.concatenate([b.dst for b in batches]),
            dport=np.concatenate([b.dport for b in batches]),
            proto=np.concatenate([b.proto for b in batches]),
            ipid=np.concatenate([b.ipid for b in batches]),
        )

    # ------------------------------------------------------------------
    # Core container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ts)

    @property
    def nbytes(self) -> int:
        """Total payload bytes across all columns (no container overhead)."""
        return sum(getattr(self, name).nbytes for name in COLUMNS)

    def select(self, mask_or_index: np.ndarray) -> "PacketBatch":
        """Return a new batch with only the masked/indexed rows."""
        return PacketBatch(
            ts=self.ts[mask_or_index],
            src=self.src[mask_or_index],
            dst=self.dst[mask_or_index],
            dport=self.dport[mask_or_index],
            proto=self.proto[mask_or_index],
            ipid=self.ipid[mask_or_index],
        )

    def sorted_by_time(self) -> "PacketBatch":
        """Return a copy ordered by timestamp (stable; NaN or infinite
        timestamps raise ``ValueError``)."""
        return self.select(order_by_time(self.ts))

    def time_slice(self, start: float, end: float) -> "PacketBatch":
        """Packets with ``start <= ts < end`` (no sort assumed)."""
        mask = (self.ts >= start) & (self.ts < end)
        return self.select(mask)

    def iter_time_chunks(
        self, chunk_seconds: float, align_to_epoch: bool = True
    ):
        """Yield ``(window_start, window_end, sub_batch)`` per time chunk.

        The batch is time-sorted once and sliced with binary searches, so
        each chunk is a cheap view.  Window edges are computed as
        ``first_edge + i * chunk_seconds`` (never accumulated), so edges
        stay exact over arbitrarily long captures.  With
        ``align_to_epoch`` the first edge is snapped down to a multiple
        of ``chunk_seconds`` (hourly-pcap-style calendar windows);
        otherwise it starts at the first packet's timestamp.  Every
        window in the covered span is yielded, including empty ones.
        """
        if chunk_seconds <= 0:
            raise ValueError("chunk_seconds must be positive")
        if len(self) == 0:
            return
        batch = self.sorted_by_time()
        first_ts = float(batch.ts[0])
        last_ts = float(batch.ts[-1])
        if align_to_epoch:
            first_edge = math.floor(first_ts / chunk_seconds) * chunk_seconds
        else:
            first_edge = first_ts
        n_chunks = int(math.floor((last_ts - first_edge) / chunk_seconds)) + 1
        # Guard the pathological float case where last_ts lands exactly
        # on the final computed edge (windows are half-open).
        while first_edge + n_chunks * chunk_seconds <= last_ts:
            n_chunks += 1
        edges = first_edge + np.arange(n_chunks + 1, dtype=np.float64) * chunk_seconds
        bounds = np.searchsorted(batch.ts, edges, side="left")
        for i in range(n_chunks):
            yield (
                float(edges[i]),
                float(edges[i + 1]),
                batch.select(slice(int(bounds[i]), int(bounds[i + 1]))),
            )

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def unique_sources(self) -> np.ndarray:
        """Sorted unique source addresses."""
        return distinct(self.src)

    def unique_destinations(self) -> np.ndarray:
        """Sorted unique destination addresses."""
        return distinct(self.dst)

    def protocol_counts(self) -> dict:
        """Packet counts per :class:`Protocol`."""
        out = {}
        for proto in Protocol:
            out[proto] = int(np.count_nonzero(self.proto == proto.value))
        return out

    def validate_invariants(self) -> None:
        """Raise if the batch violates structural invariants.

        Used by property-based tests and debug assertions: ICMP packets
        must carry port 0 and protocol codes must be known.
        """
        known = np.isin(self.proto, [p.value for p in Protocol])
        if not bool(np.all(known)):
            raise ValueError("unknown protocol code in batch")
        icmp = self.proto == Protocol.ICMP_ECHO.value
        if np.any(self.dport[icmp] != 0):
            raise ValueError("ICMP packets must use dport 0")


def merge_sorted(batches: Iterable[PacketBatch]) -> PacketBatch:
    """Concatenate then time-sort batches; convenience for capture paths."""
    return PacketBatch.concat(list(batches)).sorted_by_time()


#: Fibonacci-hash multiplier: decorrelates the shard index from address
#: structure (plain ``src % n`` would map whole prefixes to one shard).
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def shard_of(src: np.ndarray, n_shards: int) -> np.ndarray:
    """Shard index per source address (vectorized, deterministic).

    The same source always lands in the same shard — the invariant
    every sharded detector (offline workers and engine shard hosts
    alike) rests on — and the multiplicative hash spreads adjacent
    addresses across shards.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    hashed = src.astype(np.uint64) * _HASH_MULTIPLIER
    return ((hashed >> np.uint64(33)) % np.uint64(n_shards)).astype(np.int64)
