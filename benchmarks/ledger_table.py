"""Print a traced layerbench run's per-layer ledger, by self seconds.

Reads the output of ``layerbench/run.py --trace 1`` (stdin, or a file
it was saved to), finds the JSON line that carries the ``ledger`` and
prints one row per span name: self seconds, total seconds, calls and
items, sorted by self seconds.  A study-batch run also carries the
traced sharded study's ledger, printed after the batch one.  The
benchmark itself is only read, never changed.

Usage (from the repo root)::

    make ledger WORKLOAD=study-batch SEED=1
    python3 layerbench/run.py --workload study-batch --seed 1 --trace 1 \\
        | python3 benchmarks/ledger_table.py
"""

from __future__ import annotations

import argparse
import json
import sys


def find_run(lines) -> dict:
    """The run's detail line: the JSON object holding the ledger."""
    for line in reversed(list(lines)):
        line = line.strip()
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "ledger" in record:
            return record
    raise ValueError("no traced ledger in the input (was --trace 1 given?)")


def format_ledger(title: str, rows: dict) -> str:
    """One table: span names sorted by self seconds, largest first."""
    ordered = sorted(rows.items(), key=lambda kv: kv[1]["self_s"], reverse=True)
    width = max([len("layer")] + [len(name) for name in rows])
    lines = [
        title,
        f"{'layer':<{width}}  {'self_s':>8}  {'total_s':>8}  {'calls':>6}  {'items':>9}",
    ]
    for name, row in ordered:
        lines.append(
            f"{name:<{width}}  {row['self_s']:>8.3f}  {row['total_s']:>8.3f}"
            f"  {row['calls']:>6}  {row['items']:>9}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "path", nargs="?", default="-",
        help="saved run.py --trace 1 output (default: stdin)",
    )
    args = parser.parse_args(argv)
    if args.path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.path) as handle:
            lines = handle.read().splitlines()
    try:
        run = find_run(lines)
    except ValueError as exc:
        print(f"ledger_table: {exc}", file=sys.stderr)
        return 1
    manifest = run.get("manifest", {})
    print(
        f"{manifest.get('workload', '?')} seed {manifest.get('seed', '?')}"
        f" ({manifest.get('scenario', '?')}, cpu_count"
        f" {manifest.get('cpu_count', '?')}, rev"
        f" {str(manifest.get('git_revision', '?'))[:12]})"
    )
    print(format_ledger("ledger", run["ledger"]))
    sharded = run.get("detail", {}).get("sharded ledger")
    if sharded:
        print()
        print(format_ledger("sharded study ledger", sharded))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
