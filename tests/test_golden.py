"""Replay the golden CLI reports: every case of tests/golden/cases.json must
give the same stdout, stderr and exit code, byte for byte.  The extension
constructions must rebuild the matrices and algebras of
tests/golden/constructions.json.

The cases, their input documents and the constructions are written by
tests/golden/record.py.  tests/golden/replay.py replays the cases without
pytest, so that every supported Python can run them.
"""

import json
import subprocess
import sys
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


def test_replay_script_runs_on_the_standard_library_alone():
    # -I -S: no site-packages (pytest included), no PYTHONPATH, no user site
    proc = subprocess.run([sys.executable, "-I", "-S", str(GOLDEN / "replay.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == f"{len(CASES)} golden cases replayed, 0 differ\n"
