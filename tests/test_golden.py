"""Replay the golden CLI reports: every case of tests/golden/cases.json must
give the same stdout, stderr and exit code, byte for byte.  The extension
constructions must rebuild the matrices and algebras of
tests/golden/constructions.json.

The cases, their input documents and the constructions are written by
tests/golden/record.py.  tests/golden/replay.py replays the cases without
pytest, so that every supported Python can run them.
"""

import json
import os
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


def installed_pythons():
    """The running interpreter, then every python3.1x on PATH or under pyenv's
    versions directory that starts and is at least 3.10, once each by the
    real path of the binary it runs (a pyenv shim runs an installed version,
    or fails to start when none provides its name)."""
    dirs = os.environ.get("PATH", "").split(os.pathsep)
    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    dirs += sorted(str(d) for d in pyenv.glob("versions/*/bin"))
    found = [os.path.realpath(sys.executable)]
    for d in dirs:
        for exe in sorted(Path(d or ".").glob("python3.1[0-9]")):
            real = _binary(exe)
            if real and real not in found:
                found.append(real)
    return found


def _binary(exe):
    probe = ("import os, sys; assert sys.version_info >= (3, 10); "
             "print(os.path.realpath(sys.executable))")
    try:
        proc = subprocess.run([exe, "-I", "-S", "-c", probe],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def pytest_generate_tests(metafunc):
    # at collection, not import: the interpreters are found by starting them
    if "python" in metafunc.fixturenames:
        metafunc.parametrize("python", installed_pythons())


def test_replay_script_runs_on_the_standard_library_alone(python):
    # -I -S: no site-packages (pytest included), no PYTHONPATH, no user site;
    # -B: no bytecode written into src, since -I ignores PYTHONDONTWRITEBYTECODE
    proc = subprocess.run([python, "-B", "-I", "-S", str(GOLDEN / "replay.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == f"{len(CASES)} golden cases replayed, 0 differ\n"
