"""Replay the golden CLI reports: every case of tests/golden/cases.json must
give the same stdout, stderr and exit code, byte for byte.  The extension
constructions must rebuild the matrices and algebras of
tests/golden/constructions.json.

The cases, their input documents and the constructions are written by
tests/golden/record.py.
"""

import json
from pathlib import Path

import pytest

from leibalg.cli import main
from leibalg.isoclinism import MAX_GL_ENV

from conftest import construction_snapshots

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_report_matches_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv(MAX_GL_ENV, raising=False)
    code = main(list(case["argv"]))
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


def test_constructions_match_golden():
    recorded = json.loads((GOLDEN / "constructions.json").read_text(encoding="utf-8"))
    built = json.loads(json.dumps(construction_snapshots()))
    assert list(built) == list(recorded)
    for label, snapshot in recorded.items():
        assert built[label] == snapshot, label
