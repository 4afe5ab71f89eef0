"""Run the benchmark's own tests (perfbench/) as part of this suite.

perfbench imports and traces library names, such as `cli.lie_commutator_of`,
`linalg.rref` and `documents.matrix_from_json`; a change that removes or
renames one breaks the benchmark, and this test shows it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "10 passed" in proc.stdout.splitlines()[-1]
