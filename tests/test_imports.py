"""Every module-level import of a leibalg module is read by that module.

An import that nothing reads still costs its import on every command that
loads the module, and it misstates what the module depends on.  A name
imported only to be re-exported says so with `# noqa: F401` on its line,
as extensions does for ExtensionError.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "leibalg"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source):
    """(line, name) for each name a module-level import binds that the
    module never reads, except the __future__ flags and the names whose
    line carries `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    out = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        for alias in stmt.names:
            # `import a.b` binds a
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "noqa: F401" not in lines[alias.lineno - 1]:
                out.append((alias.lineno, name))
    return out


def test_the_check_finds_unread_imports():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path\n"
              "import sys  # noqa: F401\n"
              "from json import (\n"
              "    dumps,\n"
              "    loads,  # noqa: F401  (re-exported)\n"
              "    JSONDecodeError as Bad,\n"
              ")\n"
              "from re import compile as rx\n"
              "def f(x: Bad):\n"
              "    dumps = 1\n"
              "    return rx(x)\n")
    assert unused_imports(source) == [(2, "os"), (3, "os"), (6, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
