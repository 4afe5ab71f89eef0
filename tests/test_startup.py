"""The CLI's start-up cost and the package's import surface.

Each command imports only the layers its handler runs, so the modules a
command leaves in `sys.modules` of a fresh interpreter are pinned here.
Module names are deterministic, so these tests guard the start-up cost
without timing anything.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leibalg
import leibalg.cli as cli
import leibalg.errors as errors
from leibalg import documents
from leibalg.algebra import LeibnizAlgebra
from leibalg.documents import canonical_json, serialize_algebra

from conftest import F3, F5, nilpotent_n2, paper_g1, paper_g2

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"

LAYERS = ("_value", "algebra", "documents", "extensions", "fields", "homology",
          "isoclinism", "linalg")


def fresh(code, *argv, cwd=None):
    """stdout of `python -c code argv...` in a fresh interpreter importing ./src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_after(*argv, cwd=None):
    """(exit code, sorted sys.modules) after cli.main(argv) in a fresh interpreter."""
    code = ("import contextlib, io, json, sys\n"
            "from leibalg import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(sys.argv[1:])\n"
            "print(json.dumps([rc, sorted(sys.modules)]))\n")
    rc, modules = json.loads(fresh(code, *argv, cwd=cwd))
    return rc, set(modules)


def write_docs(directory, algebras):
    directory.mkdir()
    for name, alg in algebras.items():
        (directory / f"{name}.json").write_text(canonical_json(serialize_algebra(alg)),
                                                encoding="utf-8")


def test_catalog_list_loads_no_layer():
    rc, modules = modules_after("catalog", "list")
    assert rc == cli.EXIT_OK
    assert {m for m in modules if m.startswith("leibalg")} == {
        "leibalg", "leibalg.catalog", "leibalg.cli", "leibalg.errors"}
    assert "fractions" not in modules and "hashlib" not in modules


def test_validate_loads_no_extension_layer(tmp_path):
    write_docs(tmp_path / "docs", {"g1": paper_g1(F5)})
    rc, modules = modules_after("validate", "docs/g1.json", cwd=tmp_path)
    assert rc == cli.EXIT_OK
    loaded = {f"leibalg.{layer}" for layer in LAYERS} & modules
    assert loaded == {"leibalg._value", "leibalg.algebra", "leibalg.documents",
                      "leibalg.fields", "leibalg.linalg"}
    assert "fractions" not in modules


def test_isoclinic_over_a_prime_field_loads_neither_homology_nor_fractions(tmp_path):
    write_docs(tmp_path / "docs", {"g1": paper_g1(F5), "g2": paper_g2(F5)})
    rc, modules = modules_after("isoclinic", "docs/g1.json", "docs/g2.json", cwd=tmp_path)
    assert rc == cli.EXIT_OK
    assert "leibalg.isoclinism" in modules
    assert "leibalg.homology" not in modules and "fractions" not in modules
    # only a catalog: reference loads the catalog
    assert "leibalg.catalog" not in modules
    # the search runs through classify, which builds no extension
    assert "leibalg.extensions" not in modules
    # a pair without a witness reports both algebras' invariants, read off
    # their canonical extensions
    rc, modules = modules_after("isoclinic", "catalog:paper_g1", "catalog:abelian_2",
                                "--field", "5")
    assert rc == cli.EXIT_NO_WITNESS
    assert {"leibalg.extensions", "leibalg.homology"} <= modules
    # a witness is checked against the two canonical extensions
    rc, modules = modules_after("isoclinic", "catalog:paper_g1", "catalog:paper_g2",
                                "--field", "3", "--witness", "docs/witness_ok.json",
                                cwd=GOLDEN)
    assert rc == cli.EXIT_OK and "leibalg.extensions" in modules


def test_classify_loads_no_homology(tmp_path):
    write_docs(tmp_path / "docs", {"g1": paper_g1(F3), "g2": paper_g2(F3),
                                   "n2": nilpotent_n2(F3),
                                   "a2": LeibnizAlgebra.abelian(F3, 2)})
    rc, modules = modules_after("classify", "docs", cwd=tmp_path)
    assert rc == cli.EXIT_OK
    assert "leibalg.isoclinism" in modules
    assert "leibalg.homology" not in modules and "fractions" not in modules
    # classify builds data, not extensions, and reads no catalog entry
    assert not {"leibalg.extensions", "leibalg.catalog"} & modules


# Every command, run from tests/golden, with whether it loads
# leibalg.constructions and leibalg.isoclinism: only the three that build a
# construction along a triple load the first, and of those only the two that
# search load the second.
G1 = ("catalog:paper_g1", "catalog:paper_g2", "--field", "3")
COMMANDS = {
    ("catalog", "list"): (False, False),
    ("catalog", "show", "paper_g1"): (False, False),
    ("validate", "docs/g1xg1.json"): (False, False),
    ("invariants", "catalog:paper_g2"): (False, False),
    ("isoclinic", *G1): (False, True),
    ("isoclinic", *G1, "--witness", "docs/witness_ok.json"): (False, True),
    ("classify", "docs/shared", "--field", "3"): (False, True),
    ("extension", "canonical", "catalog:paper_g2"): (False, False),
    ("extension", "backward", *G1): (True, True),
    ("extension", "pullback", *G1): (True, True),
    ("extension", "product", "catalog:paper_g1"): (True, False),
}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_no_command_loads_openssl_and_only_constructions_load_constructions(argv):
    rc, modules = modules_after(*argv, cwd=GOLDEN)
    assert rc == cli.EXIT_OK
    assert not {"hashlib", "_hashlib"} & modules
    assert ("leibalg.constructions" in modules, "leibalg.isoclinism" in modules) == COMMANDS[argv]


def test_hash_falls_back_to_hashlib():
    """Without CPython's built-in SHA-2 module documents hashes through
    hashlib, with the same digests, here of every golden algebra document."""
    paths, algebras = [], []
    for path in sorted((GOLDEN / "docs").rglob("*.json")):
        try:
            algebras.append(documents.parse_algebra_json(path.read_text(encoding="utf-8")))
        except documents.DocumentError:
            continue  # a witness, a truncated document or one that is not Leibniz
        paths.append(str(path))
    code = ("import json, sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from leibalg import documents\n"
            "hashes = [documents.algebra_hash(documents.parse_algebra_json(\n"
            "    open(path, encoding='utf-8').read())) for path in sys.argv[1:]]\n"
            "print(json.dumps([documents.sha256.__module__, 'hashlib' in sys.modules, hashes]))\n")
    module, loaded, hashes = json.loads(fresh(code, *paths))
    assert module == "_hashlib" and loaded
    assert documents.sha256.__module__ in ("_sha2", "_sha256")
    assert len(hashes) > 40 and hashes == [documents.algebra_hash(a) for a in algebras]


# -- the import surface --------------------------------------------------------


def test_package_exports_resolve_lazily():
    assert leibalg.__all__ == ["Field", "FieldError", "LinearMap", "Matrix", "Subspace",
                               "intersect", "kernel", "image", "quotient", "rref", "span",
                               "__version__"]
    namespace = {}
    exec("from leibalg import *", namespace)
    assert set(leibalg.__all__) <= set(namespace)
    for name in leibalg.__all__:
        value = getattr(leibalg, name)
        assert namespace[name] is value
        if name != "__version__":
            owner = importlib.import_module(value.__module__)
            assert getattr(owner, name) is value
        assert name in dir(leibalg)
    modules = fresh("import sys, leibalg\nprint(sorted(sys.modules))\n")
    assert "leibalg.fields" not in modules and "leibalg.linalg" not in modules


def test_unknown_names_raise_attribute_error():
    for module in (leibalg, cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        assert getattr(module, "BACKEND", None) is None
    with pytest.raises(ImportError):
        exec("from leibalg import no_such_name", {})


def test_exceptions_are_reexported_by_their_layers():
    owners = {
        "fields": ("FieldError",),
        "linalg": ("LinalgError",),
        "algebra": ("AlgebraError", "MorphismError"),
        "documents": ("DocumentError",),
        "extensions": ("ExtensionError",),
        "constructions": ("ExtensionError", "IsoclinismError"),
        "isoclinism": ("IsoclinismError", "SearchBoundError"),
        "catalog": ("CatalogError",),
        "cli": ("DocumentError", "LeibalgError", "MorphismError", "SearchBoundError"),
    }
    for layer, names in owners.items():
        module = importlib.import_module(f"leibalg.{layer}")
        for name in names:
            assert getattr(module, name) is getattr(errors, name), (layer, name)
    assert leibalg.FieldError is errors.FieldError
    assert issubclass(errors.SearchBoundError, errors.IsoclinismError)


def test_cli_names_read_the_layers_current_attributes(monkeypatch):
    algebra = importlib.import_module("leibalg.algebra")
    assert cli.lie_commutator_of is algebra.lie_commutator_of
    with pytest.raises(AttributeError):
        cli.lie_center
    marker = object()
    monkeypatch.setattr(algebra, "lie_commutator_of", marker)
    assert cli.lie_commutator_of is marker


def test_rational_scalars_parse_with_fractions_loaded_lazily(tmp_path):
    doc = {"schema_version": "1", "field": "Q", "dim": 2,
           "brackets": [{"left": 0, "right": 0, "value": ["0", "1/2"]},
                        {"left": 1, "right": 0, "value": ["0", "-3/4"]}]}
    (tmp_path / "q.json").write_text(json.dumps(doc), encoding="utf-8")
    code = ("import json, sys\n"
            "from leibalg.fields import Field\n"
            "from leibalg.documents import parse_algebra_json, serialize_algebra\n"
            "before = 'fractions' in sys.modules\n"
            "f5 = Field.prime(5)\n"
            "parsed = [f5.of('1/2'), f5.of(7), 'fractions' in sys.modules]\n"
            "alg = parse_algebra_json(open(sys.argv[1], encoding='utf-8').read())\n"
            "print(json.dumps([before, parsed, serialize_algebra(alg)['brackets']]))\n")
    before, parsed, brackets = json.loads(fresh(code, str(tmp_path / "q.json")))
    assert before is False
    assert parsed == [3, 2, True]
    assert brackets == doc["brackets"]
