"""Every import of a leibalg module is read in its scope, no leibalg module
imports another one's private names, and every private name a module
defines is read in that module.

An import that nothing reads still costs its import on every command that
loads the module, or, inside a function, on every call of it, as the CLI
handlers and constructions import where they run; and it misstates what the
code depends on.  A name imported only to be re-exported says so with
`# noqa: F401` on its line, as extensions does for ExtensionError.  A name that starts with a single
underscore belongs to its module: another module that imports it depends on
code its owner may change at will.  Dunders and private modules such as
._value stay importable.  So a private function, class or constant that its
own module never reads is read nowhere: it is left over from a change that
moved its work elsewhere.

Every raise statement raises a class of leibalg.errors, which the CLI turns
into an exit code and a one-line message, one of the CLI's own usage errors,
or an error a Python protocol asks for where that protocol asks for it
(PROTOCOL_RAISES).  Anything else would reach the user as a traceback.
And no raised message echoes a value with !r, which writes it whole: an
outside value goes through fields.quoted, which cuts it, so the message
stays one short line.  Only the protocol errors that word a name as Python
does are exempt (ECHO_PROTOCOL).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "leibalg"
MODULES = sorted(SRC.glob("*.py"))


def own_imports(scope):
    """The import statements of a module or function, outside the functions
    nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source):
    """(line, name) for each name an import binds that its scope never
    reads, except the __future__ flags and the names whose line carries
    `# noqa: F401`.  The scope of a module-level import is the module, and
    that of an import inside a function the function, the functions nested
    in it included."""
    tree = ast.parse(source)
    lines = source.splitlines()
    out = []
    for scope in [tree] + [node for node in ast.walk(tree)
                           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]:
        read = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for stmt in own_imports(scope):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "noqa: F401" not in lines[alias.lineno - 1]:
                    out.append((alias.lineno, name))
    return sorted(out)


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


def test_the_check_finds_unread_imports_inside_functions():
    source = ("import json\n"
              "def f():\n"
              "    from os import path, sep\n"
              "    import re  # noqa: F401\n"
              "    def inner():\n"
              "        return path\n"
              "    return inner\n"
              "def g():\n"
              "    from sys import argv\n"
              "    if json:\n"
              "        import math\n"
              "        return math.pi\n"
              "    return sep\n"
              "class C:\n"
              "    def m(self):\n"
              "        from math import pi, tau\n"
              "        return lambda: pi\n")
    # sep is read in g, not in f, which imports it
    assert unused_imports(source) == [(3, "sep"), (9, "argv"), (16, "tau")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source):
    """(line, name) for each name starting with a single underscore that an
    import from another leibalg module (a relative import, or one from
    leibalg) binds, at any depth of the module.  A module of the package
    imported from the package itself, as in `from . import _value`, is not
    such a name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not (node.level or node.module.split(".")[0] == "leibalg"):
            continue
        package = node.module in (None, "leibalg")  # `from . import` or `from leibalg import`
        for alias in node.names:
            name = alias.name
            if (name.startswith("_") and not name.startswith("__")
                    and not (package and (SRC / f"{name}.py").exists())):
                out.append((node.lineno, name))
    return out


def test_the_check_finds_private_imports():
    source = ("from . import _value, _missing, errors\n"
              "from ._value import value_class\n"
              "from .extensions import CentralExtension, _by_ideal\n"
              "from leibalg.algebra import _default_names as names\n"
              "from os import _exit\n"
              "from . import __version__\n"
              "def f():\n"
              "    from .isoclinism import (_ends,\n"
              "                             witnesses)\n")
    assert private_imports(source) == [(1, "_missing"), (3, "_by_ideal"),
                                       (4, "_default_names"), (8, "_ends")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_private_name_of_another(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(source):
    """(line, name) for each name starting with a single underscore that a
    module-level function, class or assignment binds and that the module
    never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [(stmt.lineno, stmt.name)]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            bound = [(node.lineno, node.id) for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
        else:
            continue
        out += [(line, name) for line, name in bound
                if name.startswith("_") and not name.startswith("__") and name not in read]
    return out


def test_the_check_finds_unread_private_names():
    source = ("import os as _os\n"
              "_CACHE = {}\n"
              "_a, (_b, c) = 1, (2, 3)\n"
              "_n: int = 0\n"
              "_CACHE['k'] = _n\n"
              "__all__ = ['f']\n"
              "def _helper():\n"
              "    return _CACHE\n"
              "def _orphan():\n"
              "    _local = 1\n"
              "    return _local\n"
              "class _Engine:\n"
              "    def _method(self):\n"
              "        return _a\n"
              "def f():\n"
              "    return _helper()\n")
    assert unread_private_names(source) == [(3, "_b"), (9, "_orphan"), (12, "_Engine")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_private_name_it_defines(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


ERROR_CLASSES = {node.name for node in ast.parse((SRC / "errors.py").read_text(encoding="utf-8")).body
                 if isinstance(node, ast.ClassDef)}
CLI_RAISES = {"UsageError", "argparse.ArgumentError"}
# (module, innermost enclosing function, raised class) of each protocol error
PROTOCOL_RAISES = {
    ("__init__.py", "__getattr__", "AttributeError"),  # PEP 562 module attributes
    ("cli.py", "__getattr__", "AttributeError"),
    ("_value.py", "__setattr__", "AttributeError"),  # value classes are frozen
    ("_value.py", "__delattr__", "AttributeError"),
    ("_value.py", "_bind", "TypeError"),  # a bad constructor call
    ("documents.py", "_scalar", "TypeError"),  # algebra_from_document makes it a DocumentError
    ("isoclinism.py", "class_of", "KeyError"),  # a missing index
    ("fields.py", "inv", "ZeroDivisionError"),  # the inverse of zero
}


def raise_statements(source):
    """(innermost enclosing function or None, node) for each raise statement."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                out.append((function, child))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(ast.parse(source), None)
    return out


def raises(source):
    """(line, innermost enclosing function or None, raised) for each raise
    statement: raised is the source text of the class or of the callee that
    builds the exception, and None for a bare raise."""
    out = []
    for function, node in raise_statements(source):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        out.append((node.lineno, function, exc and ast.unparse(exc)))
    return out


def raises_outside_protocol(source, module):
    """(line, raised) for each raise statement of the module named module
    that raises neither a class it imports from leibalg.errors, nor, in cli,
    a usage error, nor a protocol error of PROTOCOL_RAISES where the
    protocol asks for it."""
    errors = {alias.asname or alias.name for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.ImportFrom) and node.module in ("errors", "leibalg.errors")
              for alias in node.names if alias.name in ERROR_CLASSES}
    return [(line, raised) for line, function, raised in raises(source)
            if not (raised in errors or (module == "cli.py" and raised in CLI_RAISES)
                    or (module, function, raised) in PROTOCOL_RAISES)]


def test_the_check_finds_raises_outside_the_protocol():
    source = ("import argparse\n"
              "from .errors import AlgebraError, LeibalgError as Base\n"
              "def f(x):\n"
              "    if x:\n"
              "        raise AlgebraError('bad')\n"
              "    try:\n"
              "        raise Base\n"
              "    except Base:\n"
              "        raise\n"
              "def class_of(i):\n"
              "    def inner():\n"
              "        raise KeyError(i)\n"
              "    raise KeyError(i)\n"
              "def g():\n"
              "    raise argparse.ArgumentError(None, 'x')\n"
              "def _bind():\n"
              "    raise AssertionError('no')\n")
    assert raises_outside_protocol(source, "isoclinism.py") == [
        (9, None), (12, "KeyError"), (15, "argparse.ArgumentError"), (17, "AssertionError")]
    assert raises_outside_protocol(source, "cli.py") == [
        (9, None), (12, "KeyError"), (13, "KeyError"), (17, "AssertionError")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_raises_only_library_usage_or_protocol_errors(path):
    assert raises_outside_protocol(path.read_text(encoding="utf-8"), path.name) == []


# (module, innermost enclosing function) of each raise whose message may echo
# a value with !r: the module __getattr__s and the value classes' protocol
# errors, which word the name of an attribute or argument as Python does
ECHO_PROTOCOL = {
    ("__init__.py", "__getattr__"),
    ("cli.py", "__getattr__"),
    ("_value.py", "_bind"),
    ("_value.py", "__setattr__"),
    ("_value.py", "__delattr__"),
}


def raw_echoes(source, module):
    """(line, innermost enclosing function or None) for each raise statement
    of the module named module, outside ECHO_PROTOCOL, that builds its
    message with a !r conversion.  A message quotes an outside value with
    fields.quoted, which cuts it to keep the message one short line; repr
    echoes it whole."""
    return [(node.lineno, function) for function, node in raise_statements(source)
            if (module, function) not in ECHO_PROTOCOL
            and any(isinstance(part, ast.FormattedValue) and part.conversion == ord("r")
                    for part in ast.walk(node))]


def test_the_check_finds_raw_echoes_in_raised_messages():
    source = ("def f(x):\n"
              "    raise ValueError(f'bad {x!r}')\n"
              "def g(x):\n"
              "    message = f'{x!r}'\n"
              "    raise ValueError(f'bad {quoted(x)} in {x!s}: {x}')\n"
              "def __getattr__(name):\n"
              "    raise AttributeError(f'no {name!r}')\n"
              "def _bind(name):\n"
              "    def inner():\n"
              "        raise TypeError(f'{name!r}')\n"
              "    raise TypeError('bad') from ValueError(f'{name!r}')\n")
    assert raw_echoes(source, "cli.py") == [(2, "f"), (10, "inner"), (11, "_bind")]
    assert raw_echoes(source, "_value.py") == [(2, "f"), (7, "__getattr__"), (10, "inner")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_raised_messages_quote_no_value_whole(path):
    assert raw_echoes(path.read_text(encoding="utf-8"), path.name) == []


def value_classes_defining_init(source):
    """(line, class name) for each __init__ that a class decorated with
    value_class defines: value_class gives every value class its one
    constructor, and a class checks its fields in __post_init__."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).split(".")[-1] == "value_class" for d in node.decorator_list)):
            continue
        out += [(stmt.lineno, node.name) for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name == "__init__"]
    return out


def test_the_check_finds_value_classes_defining_init():
    source = ("from . import _value\n"
              "from ._value import value_class\n"
              "@value_class\n"
              "class Checked:\n"
              "    x: int\n"
              "    def __post_init__(self):\n"
              "        pass\n"
              "@value_class\n"
              "class Own:\n"
              "    x: int\n"
              "    def __init__(self, x):\n"
              "        pass\n"
              "class Plain:\n"
              "    def __init__(self):\n"
              "        pass\n"
              "@_value.value_class\n"
              "class Qualified:\n"
              "    y: int = 0\n"
              "    def __init__(self, y=0):\n"
              "        pass\n")
    assert value_classes_defining_init(source) == [(11, "Own"), (19, "Qualified")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_value_class_defines_init(path):
    assert value_classes_defining_init(path.read_text(encoding="utf-8")) == []
