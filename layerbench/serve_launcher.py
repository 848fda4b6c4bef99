"""``repro serve`` with spans around the serve layers (traced runs only).

Wraps the named methods of the tenant, journal, fold-pool and engine
layers, then runs ``repro.cli.main(["serve", ...])`` unchanged; when the
server shuts down (SIGTERM takes the graceful path) the spans are
written to ``--spans``.  Untraced runs start ``python3 -m repro.cli
serve`` directly instead.

    python3 layerbench/serve_launcher.py --spans spans.json -- \
        serve --port 0 --snapshot-dir DIR
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer  # noqa: E402

from repro import cli  # noqa: E402
from repro.core import engine  # noqa: E402
from repro.serve import foldpool, journal, tenants  # noqa: E402


def install_serve_spans(tracer: Tracer) -> None:
    tracer.wrap(tenants.Tenant, "accept_chunk", "serve.tenants.accept_chunk")
    tracer.wrap(
        tenants.Tenant, "replay_journal", "serve.tenants.replay_journal",
        items=lambda a, k, replayed: replayed,
    )
    tracer.wrap(journal.ChunkJournal, "append", "serve.journal.append")
    tracer.wrap(engine, "packets_from_npz_bytes", "io.packetlog.decode")
    tracer.wrap(
        engine.DetectionEngine, "ingest_payloads", "core.engine.ingest_payloads",
        items=lambda a, k, report: report.chunks,
    )
    tracer.wrap(engine.DetectionEngine, "save_snapshot", "core.engine.save_snapshot")
    tracer.wrap(engine.DetectionEngine, "query", "core.engine.query")
    tracer.wrap(foldpool.FoldPool, "fold_many", "serve.foldpool.fold_many")
    tracer.wrap(foldpool.FoldPool, "collect", "serve.foldpool.collect")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        raise SystemExit("usage: serve_launcher.py --spans PATH -- serve ...")
    tracer = Tracer()
    install_serve_spans(tracer)
    try:
        return cli.main(argv[3:])
    finally:
        tracer.dump(argv[1])


if __name__ == "__main__":
    raise SystemExit(main())
