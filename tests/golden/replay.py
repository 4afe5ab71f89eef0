"""Replay the golden CLI reports with the standard library only.

Run from a checkout, under any supported Python, with or without pytest:

    python tests/golden/replay.py

Each case of cases.json is run through `leibalg.cli.main` from the checkout's
src directory, with this directory as the working directory, and its exit
code, stdout and stderr are compared with the recorded ones, byte for byte.
Prints each case that differs and a summary line, and exits 1 if any case
differs.  tests/test_golden.py replays the same cases under pytest, together
with the constructions, which need the tests' conftest.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from leibalg.cli import main  # noqa: E402


def differing_cases(cases):
    """The argv of each case whose replay differs from its record."""
    differ = []
    for case in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(case["argv"]))
        if (code, out.getvalue(), err.getvalue()) != (case["exit"], case["stdout"],
                                                      case["stderr"]):
            differ.append(case["argv"])
    return differ


if __name__ == "__main__":
    os.environ.pop("LEIBALG_MAX_GL", None)
    os.chdir(HERE)
    cases = json.loads((HERE / "cases.json").read_text(encoding="utf-8"))
    differ = differing_cases(cases)
    for argv in differ:
        print("differs: leibalg " + " ".join(argv))
    print(f"{len(cases)} golden cases replayed, {len(differ)} differ")
    sys.exit(1 if differ else 0)
