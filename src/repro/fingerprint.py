"""Scanner-tool fingerprints carried in the IP-ID field.

Durumeric et al. (2014) — which the paper reuses — identified probe
packets generated by ZMap and Masscan from tell-tale IP-ID values:

* ZMap sets ``ip.id`` to the constant 54321.
* Masscan derives ``ip.id`` from the probed target; in this simulation
  we use ``(dst ^ dport) & 0xffff`` as the deterministic stand-in for
  masscan's target-derived cookie (the real tool also folds in the TCP
  sequence number, which we do not model).

Everything else counts as "Other".  Note the classification is
heuristic by nature: a random IP-ID collides with the ZMap constant once
in 65,536 packets, exactly as in the original methodology.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.packet import PacketBatch

#: The constant IP-ID that stock ZMap writes into every probe.
ZMAP_IPID = 54321


class Tool(enum.IntEnum):
    """Scan-tool classes used in the Figure 4 port breakdown."""

    OTHER = 0
    ZMAP = 1
    MASSCAN = 2

    def label(self) -> str:
        """Display name used in the Figure 4 breakdown."""
        return self.name.capitalize() if self is not Tool.ZMAP else "ZMap"


def masscan_ipid(dst: np.ndarray, dport: np.ndarray) -> np.ndarray:
    """Masscan's target-derived IP-ID for given destinations."""
    dst32 = np.asarray(dst, dtype=np.uint32)
    port32 = np.asarray(dport, dtype=np.uint32)
    return ((dst32 ^ port32) & np.uint32(0xFFFF)).astype(np.uint16)


def zmap_ipid(count: int) -> np.ndarray:
    """The constant ZMap IP-ID, replicated ``count`` times."""
    return np.full(count, ZMAP_IPID, dtype=np.uint16)


def random_ipid(rng: np.random.Generator, count: int) -> np.ndarray:
    """Kernel-style sequential-ish random IP-IDs for generic stacks."""
    return rng.integers(0, 65536, size=count, dtype=np.uint16)


def classify(batch: PacketBatch) -> np.ndarray:
    """Classify each packet's generating tool from its IP-ID.

    Returns an array of :class:`Tool` codes aligned with the batch.
    The Masscan check must run before the ZMap check only when both
    match (possible when ``(dst ^ dport) & 0xffff == 54321``); we follow
    the original methodology and give ZMap's constant precedence since
    it is the stronger (exact) signature.
    """
    return classify_columns(batch.ipid, batch.dst, batch.dport)


def classify_columns(
    ipid: np.ndarray, dst: np.ndarray, dport: np.ndarray
) -> np.ndarray:
    """:func:`classify` over the only three columns it reads."""
    tools = np.full(len(ipid), Tool.OTHER.value, dtype=np.uint8)
    tools[ipid == masscan_ipid(dst, dport)] = Tool.MASSCAN.value
    tools[ipid == ZMAP_IPID] = Tool.ZMAP.value
    return tools


def tool_counts(batch: PacketBatch) -> dict:
    """Packet counts per tool class for a batch."""
    tools = classify(batch)
    return {
        tool: int(np.count_nonzero(tools == tool.value)) for tool in Tool
    }
