"""Columnar scanner-flow synthesis with per-scanner RNG streams.

The ISP flow path answers one question: how many packets did each
materialized scanner push through each border router on each day?  The
pre-columnar implementation walked a triple-nested Python loop
(scanner → count row → router) off one shared generator, which was both
slow and impossible to parallelize — every draw depended on every draw
before it.

This module rebuilds that stage around two ideas:

* **Per-scanner streams.**  One 63-bit *base* seed is drawn from the
  caller's generator (:func:`flow_base_seed` — the only draw the legacy
  ``rng`` argument still pays), and scanner ``i`` synthesizes from its
  own derived stream ``(base, FLOW_STREAM_SALT, i)``, so the result
  depends only on (base, population order).
* **Struct-of-arrays construction.**  Per scanner, all count draws
  happen as batched Poisson calls (:meth:`Scanner.count_columns`), the
  router split is one batched ``Generator.multinomial`` over the whole
  count-row block, and non-zero cells are lifted out with
  ``np.nonzero`` — no per-flow Python objects exist until the analyses
  ask for them.

Synthesis runs serially, in process.  Tests pin it against the scalar
loop reference in ``tests/flow_oracle.py``, which consumes the derived
streams in the exact scalar order: the columnar path is bit-identical
to it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.flows.netflow import FlowColumns

#: Salt separating per-scanner synthesis streams from every other
#: consumer of the flow base seed (sampling, totals).
FLOW_STREAM_SALT = 0x464C4F57  # "FLOW"


def flow_base_seed(rng: np.random.Generator) -> int:
    """Draw the run's flow base seed (one draw from the caller's rng).

    Everything downstream — per-scanner synthesis streams, the
    exporter's sampling stream, the router-total streams — is derived
    from this single integer, so the whole flow stage is reproducible
    from (scenario seed, call order of this one draw) alone.
    """
    return int(rng.integers(0, 2**63))


def scanner_flow_rng(base: int, index: int) -> np.random.Generator:
    """The synthesis stream of the scanner at ``index`` in population order."""
    return np.random.default_rng((int(base), FLOW_STREAM_SALT, int(index)))


def scanner_flow_block(
    scanner,
    index: int,
    mix: np.ndarray,
    view,
    window: tuple,
    day_seconds: float,
    base: int,
) -> FlowColumns:
    """Synthesize one scanner's flow rows, columnar.

    Draw order within the scanner's stream: first every count draw (in
    :meth:`Scanner.count_columns` order), then one batched multinomial
    over all count rows with the scanner's router mix.  ``np.nonzero``
    walks the split matrix row-major, which reproduces the loop
    reference's append order (count row, then router ascending).
    """
    rng = scanner_flow_rng(base, index)
    day, port, proto, count = scanner.count_columns(
        view, window, day_seconds, rng
    )
    if len(day) == 0:
        return FlowColumns()
    splits = rng.multinomial(count, np.asarray(mix, dtype=np.float64))
    row_idx, router_idx = np.nonzero(splits > 0)
    return FlowColumns(
        router=router_idx.astype(np.int8),
        day=day[row_idx].astype(np.int32),
        src=np.full(len(row_idx), int(scanner.src), dtype=np.uint32),
        dport=port[row_idx].astype(np.uint16),
        proto=proto[row_idx].astype(np.uint8),
        true=splits[row_idx, router_idx].astype(np.int64),
    )


def synthesize_flow_columns(
    scanners: Sequence,
    mixes: np.ndarray,
    view,
    window: tuple,
    day_seconds: float,
    base: int,
) -> FlowColumns:
    """Columnar synthesis over a population, in population order:
    scanner ``i`` draws from stream ``(base, FLOW_STREAM_SALT, i)``."""
    blocks = [
        scanner_flow_block(
            scanner, i, mixes[i], view, window, day_seconds, base
        )
        for i, scanner in enumerate(scanners)
    ]
    return FlowColumns.concat(blocks)
