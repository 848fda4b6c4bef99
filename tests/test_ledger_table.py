"""The traced-run ledger printer (``benchmarks/ledger_table.py``)."""

import json

from benchmarks.ledger_table import find_run, format_ledger, main

LEDGER = {
    "telescope.capture": {"calls": 1, "total_s": 3.0, "self_s": 3.0, "items": 10},
    "report.acked_match": {"calls": 4, "total_s": 0.5, "self_s": 0.5, "items": 0},
    "study": {"calls": 1, "total_s": 9.0, "self_s": 0.2, "items": 0},
}


def traced_output() -> str:
    detail = {
        "manifest": {"workload": "study-batch", "seed": 1},
        "ledger": LEDGER,
        "detail": {"sharded ledger": {"parallel.generate_detect": LEDGER["study"]}},
    }
    result = {"correct": True, "metrics": {}}
    return "\n".join(["work_s = 1 s (n=1)", json.dumps(detail), json.dumps(result)])


def test_finds_the_ledger_line():
    run = find_run(traced_output().splitlines())
    assert run["ledger"] == LEDGER


def test_rows_sorted_by_self_seconds():
    lines = format_ledger("ledger", LEDGER).splitlines()
    names = [line.split()[0] for line in lines[2:]]
    assert names == ["telescope.capture", "report.acked_match", "study"]
    assert lines[3].split()[1:] == ["0.500", "0.500", "4", "0"]


def test_prints_both_study_ledgers(tmp_path, capsys):
    path = tmp_path / "run.txt"
    path.write_text(traced_output())
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "sharded study ledger" in out
    assert "parallel.generate_detect" in out


def test_untraced_output_is_refused(tmp_path, capsys):
    path = tmp_path / "run.txt"
    path.write_text(json.dumps({"correct": True, "metrics": {}}) + "\n")
    assert main([str(path)]) == 1
    assert "--trace 1" in capsys.readouterr().err
