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
  own derived stream ``(base, FLOW_STREAM_SALT, i)``.  Scanners are
  therefore independent: any contiguous slice of the population can be
  synthesized by any worker and the result only depends on (base,
  population order), never on which process ran it.
* **Struct-of-arrays construction.**  Per scanner, all count draws
  happen as batched Poisson calls (:meth:`Scanner.count_columns`), the
  router split is one batched ``Generator.multinomial`` over the whole
  count-row block, and non-zero cells are lifted out with
  ``np.nonzero`` — no per-flow Python objects exist until the analyses
  ask for them.

Both properties are pinned by tests against the loop reference kept
here (:func:`scanner_flow_rows_loop` / :func:`collect_scanner_flows_loop`),
which consumes the derived streams in the exact scalar order: the
columnar path is bit-identical to it, and shard-parallel runs are
bit-identical to serial for any worker count.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Sequence, Tuple

import numpy as np

from repro.core import statefile
from repro.flows.netflow import (
    SAMPLE_STREAM_SALT,
    FlowColumns,
    FlowTable,
    NetflowExporter,
)

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
    start_index: int = 0,
) -> FlowColumns:
    """Serial columnar synthesis over a population slice.

    ``start_index`` is the slice's offset in the full population — the
    per-scanner stream key — which is what lets a shard worker run this
    very function over its contiguous slice and produce exactly the rows
    the serial pass would have produced there.
    """
    blocks = [
        scanner_flow_block(
            scanner, start_index + i, mixes[i], view, window, day_seconds, base
        )
        for i, scanner in enumerate(scanners)
    ]
    return FlowColumns.concat(blocks)


# ----------------------------------------------------------------------
# Shard-state serialization — the checkpoint payload of the parallel
# flow path (repro.core.faults): a shard's synthesized columns survive
# a crash and are reloaded instead of re-synthesized on resume.
# ----------------------------------------------------------------------

#: Magic line of flow-shard state (:mod:`repro.core.statefile`); any
#: other is refused, so a stale checkpoint is discarded (the shard
#: re-synthesized) rather than concatenated.
FLOW_STATE_MAGIC = statefile.magic("flow")

_FLOW_ARRAYS = {
    field.name: getattr(FlowColumns(), field.name).dtype.str
    for field in fields(FlowColumns)
}


def flow_state_to_bytes(columns: FlowColumns, **extra) -> bytes:
    """Serialize one shard's :class:`FlowColumns` as v4 state;
    ``extra`` JSON fields ride along in the header."""
    return statefile.pack(
        "flow",
        extra,
        {
            name: np.asarray(getattr(columns, name), dtype)
            for name, dtype in _FLOW_ARRAYS.items()
        },
    )


def read_flow_state(data) -> Tuple[FlowColumns, dict]:
    """Columns serialized by :func:`flow_state_to_bytes`, and the
    header's extra fields; ``ValueError`` on anything else."""
    header, arrays = statefile.unpack(data, "flow", _FLOW_ARRAYS)
    if len({len(column) for column in arrays.values()}) > 1:
        raise ValueError("flow state columns differ in length")
    return FlowColumns(**arrays), header


def flow_state_from_bytes(data) -> FlowColumns:
    """Rebuild columns serialized by :func:`flow_state_to_bytes`."""
    return read_flow_state(data)[0]


# ----------------------------------------------------------------------
# Loop reference — the pre-columnar construction, kept as the golden
# baseline: tests assert the vectorized path is bit-identical to it, and
# the flow benchmark measures speedup against it.
# ----------------------------------------------------------------------
def scanner_flow_rows_loop(
    scanner,
    index: int,
    mix: np.ndarray,
    view,
    window: tuple,
    day_seconds: float,
    base: int,
) -> list:
    """One scanner's flow rows via the scalar loop (reference path).

    Same derived stream as :func:`scanner_flow_block`, consumed draw by
    draw: per-row scalar Poisson counts via :meth:`Scanner.count_rows`,
    then one multinomial per count row.
    """
    rng = scanner_flow_rng(base, index)
    rows = []
    for day, port, proto, count in scanner.count_rows(
        view, window, day_seconds, rng
    ):
        split = rng.multinomial(count, mix)
        for router, router_count in enumerate(split):
            if router_count == 0:
                continue
            rows.append(
                (router, day, int(scanner.src), port, proto, int(router_count))
            )
    return rows


def collect_scanner_flows_loop(
    network,
    scanners: Sequence,
    window: tuple,
    clock,
    rng: np.random.Generator,
    exporter=None,
) -> tuple:
    """Loop-reference twin of :meth:`ISPNetwork.collect_scanner_flows`.

    Identical stream keying (one base seed off ``rng``, per-scanner
    derived streams, seed-derived sampling) but scalar construction
    throughout — per-flow tuples, per-row dict updates, one binomial per
    flow.  Returns the same ``(flow_table, true_totals)`` contract,
    bit-identical to the columnar path.
    """
    exporter = exporter or NetflowExporter()
    base = flow_base_seed(rng)
    scanners = list(scanners)
    sources = np.array([int(s.src) for s in scanners], dtype=np.uint32)
    countries = network._countries_of(sources)
    block_size = network.transit_view.size / network.dst_blocks
    block_sizes = [block_size] * network.dst_blocks
    rows = []
    true_totals: dict = {}
    for index, (scanner, country) in enumerate(zip(scanners, countries)):
        mix = network.policy.router_mix(int(scanner.src), country, block_sizes)
        for row in scanner_flow_rows_loop(
            scanner,
            index,
            mix,
            network.transit_view,
            window,
            clock.seconds_per_day,
            base,
        ):
            rows.append(row)
            key = (row[0], row[1])
            true_totals[key] = true_totals.get(key, 0) + row[5]
    sample_rng = np.random.default_rng((int(base), SAMPLE_STREAM_SALT))
    out_rows = []
    for router, day, src, dport, proto, true_count in rows:
        sampled = exporter.sample_count(true_count, sample_rng)
        if sampled == 0 and not exporter.keep_zero:
            continue
        out_rows.append(
            (
                router,
                day,
                src,
                dport,
                proto,
                sampled * exporter.sampling_rate,
                sampled,
            )
        )
    return FlowTable.from_rows(out_rows), true_totals
