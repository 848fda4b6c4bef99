"""Memory gate: the streaming pipeline's peak allocation is bounded.

With lazy generation, an end-to-end streaming run (generate -> events
-> detection) holds one chunk, the open generation spans, the open-flow
table, and the (small) detection state — never the capture.  The gate
pins that from two sides:

* tripling the capture length barely moves the peak (it is O(chunk +
  open state), not O(capture)), and
* the peak stays below what merely *materializing* the same capture's
  packet columns would occupy.

Constants are generous — the gate is here to catch a reintroduced
O(capture) term (a full materialization, an unbounded cache), not to
police allocator noise.
"""

import tracemalloc

import numpy as np

from repro.core.streaming import stream_detect
from repro.fingerprint import Tool
from repro.net.prefix import PrefixSet
from repro.packet import Protocol
from repro.scanners.base import (
    ScanMode,
    Scanner,
    ScanSession,
    View,
    emit_population,
)
from repro.scanners.lazy import emit_chunks

CHUNK_SECONDS = 3_600.0
TIMEOUT = 1_200.0
HOUR = 3_600.0


def _view() -> View:
    return View("darknet", PrefixSet.parse(["10.0.0.0/20"]))


def _population(horizon: float) -> list:
    """A small population active over the whole horizon.

    RATE sessions dominate the packet count (their volume grows linearly
    with the horizon — exactly the term the gate must prove is never
    resident all at once); one long COVERAGE session exercises the
    whole-span cache path.
    """
    scanners = [
        Scanner(
            src=0x0B000001 + i,
            behavior="gate-rate",
            sessions=[
                ScanSession(
                    start=0.0,
                    duration=horizon,
                    ports=np.array([23]),
                    proto=Protocol.TCP_SYN,
                    tool=Tool.OTHER,
                    mode=ScanMode.RATE,
                    rate_pps=1e6,
                )
            ],
            seed=100 + i,
        )
        for i in range(3)
    ]
    scanners.append(
        Scanner(
            src=0x0C000001,
            behavior="gate-coverage",
            sessions=[
                ScanSession(
                    start=0.0,
                    duration=horizon,
                    ports=np.array([80, 443]),
                    proto=Protocol.TCP_SYN,
                    tool=Tool.ZMAP,
                    mode=ScanMode.COVERAGE,
                    coverage=0.6,
                )
            ],
            seed=200,
        )
    )
    return scanners


def _streaming_peak(horizon: float) -> tuple:
    """(peak traced bytes, packets) of a full streaming run."""
    scanners = _population(horizon)
    view = _view()
    source = emit_chunks(scanners, view, CHUNK_SECONDS, (0.0, horizon))
    seen = [0]

    def batches():
        for chunk in source:
            seen[0] += len(chunk)
            yield chunk.packets

    tracemalloc.start()
    events, _ = stream_detect(
        batches(), TIMEOUT, 4_096, None, day_seconds=86_400.0
    )
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(events.src) > 0
    return peak, seen[0]


def _materialized_bytes(horizon: float) -> tuple:
    """(packet-column bytes, packets) of the materialized capture."""
    batch = emit_population(_population(horizon), _view(), (0.0, horizon))
    size = sum(
        getattr(batch, column).nbytes
        for column in ("ts", "src", "dst", "dport", "proto", "ipid")
    )
    return size, len(batch)


def test_streaming_peak_does_not_scale_with_capture():
    short_peak, short_packets = _streaming_peak(12 * HOUR)
    long_peak, long_packets = _streaming_peak(36 * HOUR)
    # 3x the packets ...
    assert long_packets > 2.5 * short_packets
    # ... but nowhere near 3x the peak.  1.6x + fixed slack absorbs
    # allocator noise while still failing hard on any O(capture) term.
    assert long_peak < 1.6 * short_peak + 2_000_000, (
        f"streaming peak scales with capture length: "
        f"{short_peak:,} B at 12h vs {long_peak:,} B at 36h"
    )


def test_streaming_peak_below_materialized_capture():
    horizon = 36 * HOUR
    peak, streamed = _streaming_peak(horizon)
    materialized, packets = _materialized_bytes(horizon)
    assert streamed == packets
    assert peak < materialized, (
        f"streaming peak {peak:,} B should undercut even the bare "
        f"column bytes of the materialized capture ({materialized:,} B)"
    )
