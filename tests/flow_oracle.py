"""The scalar flow-synthesis loop, kept as a test and benchmark oracle.

Before the columnar rebuild (:mod:`repro.flows.synthesis`), scanner
flows were built by a triple-nested Python loop: scanner, count row,
router.  This is that loop on the per-scanner derived streams, consumed
draw by draw: scalar Poisson counts via :meth:`Scanner.count_rows`, one
multinomial per count row, one binomial per flow at export.  Tests
assert ``ISPNetwork.collect_scanner_flows`` equals it column for column,
and ``benchmarks/test_perf_flows.py`` measures the columnar speedup
against it.
"""

from typing import Sequence

import numpy as np

from repro.flows.netflow import SAMPLE_STREAM_SALT, FlowTable, NetflowExporter
from repro.flows.synthesis import flow_base_seed, scanner_flow_rng


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

    Same derived stream as
    :func:`~repro.flows.synthesis.scanner_flow_block`, consumed draw by
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
