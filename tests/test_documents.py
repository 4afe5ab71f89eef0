import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

import leibalg.algebra as algebra
import leibalg.cli as cli
from leibalg.algebra import LeibnizAlgebra
from leibalg.catalog import (
    ABELIAN_PREFIX,
    CatalogError,
    catalog_entry,
    catalog_names,
    describe,
)
from leibalg.documents import (
    MAX_DIM,
    SCHEMA_VERSION,
    DocumentError,
    algebra_from_document,
    algebra_hash,
    canonical_json,
    content_hash,
    convert_field,
    field_from_json,
    field_to_json,
    matrix_from_json,
    matrix_to_json,
    parse_algebra_json,
    serialize_algebra,
    serialize_witness,
)
from leibalg.extensions import canonical_extension
from leibalg.fields import Field
from leibalg.isoclinism import search_isoclinism
from leibalg.linalg import Matrix

from conftest import F3, F5, FQ, paper_g1, paper_g2, random_leibniz_algebra


# -- field codecs --------------------------------------------------------------


def test_field_json_round_trip():
    assert field_to_json(FQ) == "Q"
    assert field_to_json(F3) == {"p": 3}
    assert field_from_json("Q") == FQ
    assert field_from_json({"p": 5}) == F5
    for bad in ("R", {"p": 4}, {"p": 2}, {"q": 3}, {"p": "3"}, 7, None):
        with pytest.raises(DocumentError):
            field_from_json(bad)


# -- algebra round trips ----------------------------------------------------------


def test_round_trip_over_both_fields(suite):
    rng = random.Random(81)
    sample = list(suite[:30])
    sample.append(paper_g1(FQ))
    sample.append(paper_g2(FQ))
    for _ in range(5):
        sample.append(random_leibniz_algebra(rng, F5))
    for alg in sample:
        doc = serialize_algebra(alg)
        back = algebra_from_document(doc)
        assert back == alg
        again = parse_algebra_json(json.dumps(doc))
        assert again == alg


def test_serialization_is_sparse_and_sorted():
    doc = serialize_algebra(paper_g2(FQ))
    pairs = [(b["left"], b["right"]) for b in doc["brackets"]]
    assert pairs == [(0, 0), (1, 0), (2, 0)]
    assert pairs == sorted(pairs)
    assert all(b["value"] == ["0", "0", "1"] for b in doc["brackets"])
    assert doc["dim"] == 3 and doc["basis"] == ["a1", "a2", "a3"]


def test_rational_coefficients_serialize_canonically():
    alg = LeibnizAlgebra.from_structure(
        FQ, 2, {(0, 0): (0, Field.rationals().of("1/2"))})
    doc = serialize_algebra(alg)
    assert doc["brackets"][0]["value"] == ["0", "1/2"]
    assert algebra_from_document(doc) == alg


# -- schema rejection --------------------------------------------------------------


def good_doc():
    return serialize_algebra(paper_g1(F3))


def test_document_rejections():
    cases = []

    d = good_doc()
    d["schema_version"] = "2"
    cases.append((d, "schema_version"))

    d = good_doc()
    d["extra"] = 1
    cases.append((d, "unknown"))

    d = good_doc()
    del d["dim"]
    cases.append((d, "dim"))

    d = good_doc()
    d["dim"] = -1
    cases.append((d, "dim"))

    d = good_doc()
    d["basis"] = ["e1"]
    cases.append((d, "basis"))

    d = good_doc()
    d["brackets"].append(dict(d["brackets"][0]))
    cases.append((d, "duplicate"))

    d = good_doc()
    d["brackets"][0]["left"] = 9
    cases.append((d, "range"))

    d = good_doc()
    d["brackets"][0]["value"] = ["0"]
    cases.append((d, "coefficients"))

    d = good_doc()
    d["brackets"][0]["wrong"] = 1
    cases.append((d, "bracket"))

    d = good_doc()
    d["field"] = {"p": 2}
    cases.append((d, "characteristic 2"))

    for doc, needle in cases:
        with pytest.raises(DocumentError, match=needle):
            algebra_from_document(doc)


def test_document_rejects_booleans_and_malformed_basis():
    # bool is an int subclass, so these used to read as 1 or 0
    d = good_doc()
    d["dim"] = True
    cases = [(d, "dim")]
    for key in ("left", "right"):
        d = good_doc()
        d["brackets"][0][key] = True
        cases.append((d, "indices"))
    d = good_doc()
    d["field"] = {"p": True}
    cases.append((d, "field"))
    d = good_doc()
    d["brackets"][0]["value"] = [True, 0]
    cases.append((d, "coefficient"))
    d = serialize_algebra(paper_g1(FQ))
    d["brackets"][0]["value"] = ["0", False]
    cases.append((d, "coefficient"))
    for basis in (["a", "a"], "ab", ["e1", 2]):
        d = good_doc()
        d["basis"] = basis
        cases.append((d, "basis"))
    for doc, needle in cases:
        with pytest.raises(DocumentError, match=needle):
            algebra_from_document(doc)
    with pytest.raises(DocumentError, match="coefficient"):
        matrix_from_json(F3, [[True]], 1, 1)


def test_dimension_cap_is_checked_before_allocation():
    doc = {"schema_version": SCHEMA_VERSION, "field": {"p": 3}, "dim": MAX_DIM + 1, "brackets": []}
    for check in (True, False):
        with pytest.raises(DocumentError, match=f"bound {MAX_DIM}"):
            algebra_from_document(doc, check=check)
    doc["dim"] = MAX_DIM
    assert algebra_from_document(doc, check=False).dim == MAX_DIM
    with pytest.raises(DocumentError, match=f"bound {MAX_DIM}"):
        catalog_entry(ABELIAN_PREFIX + str(MAX_DIM + 1))


def test_document_errors_quote_long_outside_values_in_one_short_line():
    base = {"schema_version": SCHEMA_VERSION, "field": {"p": 3}, "dim": 1, "brackets": []}
    big, long = int("9" * 4000), "x" * 5000
    cut = repr(long)[:80] + "..."
    cases = [
        ({"dim": -big}, "dim must be a non-negative integer, got about -2^13288"),
        ({"dim": long}, f"dim must be a non-negative integer, got {cut}"),
        ({"brackets": [{"left": big, "right": 0, "value": [0]}]},
         "bracket indices (about 2^13288, 0) out of range"),
        ({"field": {"q": big}}, f"unrecognized field spec {repr({'q': big})[:80]}..."),
        ({"field": long}, f"unrecognized field spec {cut}"),
        ({"schema_version": long}, f"unsupported schema_version {cut}"),
        ({"brackets": [{"left": 0, "right": 0, "value": [0], "x": long}]},
         f"malformed bracket entry {repr({'left': 0, 'right': 0, 'value': [0], 'x': long})[:80]}..."),
        ({long: 1}, f"unknown document keys {repr([long])[:80]}..."),
        # short values read as repr writes them; an int past 64 bits as magnitude does
        ({"dim": -(2**64 - 1)}, f"dim must be a non-negative integer, got {-(2**64 - 1)}"),
        ({"dim": "1"}, "dim must be a non-negative integer, got '1'"),
        ({"field": {"p": True}}, "unrecognized field spec {'p': True}"),
        ({"brackets": [{"left": 2**64, "right": True, "value": [0]}]},
         "bracket indices (about 2^65, True) out of range"),
    ]
    for change, message in cases:
        with pytest.raises(DocumentError) as info:
            algebra_from_document(dict(base, **change))
        assert str(info.value) == message
        assert len(message) < 130


def test_malformed_json_text():
    with pytest.raises(DocumentError, match="JSON"):
        parse_algebra_json("{not json")
    with pytest.raises(DocumentError):
        parse_algebra_json('"just a string"')
    with pytest.raises(DocumentError, match="^invalid JSON: values nested too deeply$"):
        parse_algebra_json("[" * 100_000)


def test_parse_reports_leibniz_violation_with_triple():
    doc = serialize_algebra(paper_g1(F3))
    doc["brackets"] = [{"left": 0, "right": 0, "value": ["1", "0"]}]
    with pytest.raises(DocumentError, match=r"\(0, 0, 0\)"):
        algebra_from_document(doc)
    # the same document parses when validation is deferred
    from leibalg.algebra import validate
    alg = algebra_from_document(doc, check=False)
    assert not validate(alg).ok


def dense_document(dim, seed):
    """An F_3 document whose brackets are all drawn by random.Random(seed), in
    (left, right, coordinate) order, with the zero brackets omitted."""
    rng = random.Random(seed)
    brackets = []
    for i in range(dim):
        for j in range(dim):
            value = [rng.randrange(3) for _ in range(dim)]
            if any(value):
                brackets.append({"left": i, "right": j, "value": value})
    return {"schema_version": SCHEMA_VERSION, "field": {"p": 3}, "dim": dim,
            "brackets": brackets}


def test_document_check_stops_at_the_violation_it_reports(tmp_path, monkeypatch, capsys):
    # every one of the 16^3 basis triples of this document violates the identity
    text = canonical_json(dense_document(16, 16))
    message = ("Leibniz identity fails at basis triple (0, 0, 0): "
               "residual [0, 2, 0, 0, 2, 0, 1, 1, 0, 2, 1, 2, 0, 1, 0, 2]")
    residuals = []
    original = algebra.canonical

    def canonical(field, vec):
        residuals.append(vec)
        return original(field, vec)

    monkeypatch.setattr(algebra, "canonical", canonical)
    with pytest.raises(DocumentError) as info:
        parse_algebra_json(text)
    assert str(info.value) == message
    assert len(residuals) == 1

    # validate() still lists every violation, in lexicographic order of the
    # triples; the digest pins their residuals
    report = algebra.validate(parse_algebra_json(text, check=False))
    assert [v.triple for v in report.violations] == list(itertools.product(range(16), repeat=3))
    digest = hashlib.sha256(json.dumps([[list(v.triple), list(v.residual)]
                                        for v in report.violations]).encode()).hexdigest()
    assert digest == "a45fe0176921eac5f3ebe22629704dc8c8c35b52345502d5511a8f19c391d8bf"

    path = tmp_path / "dense16.json"
    path.write_text(text, encoding="utf-8")
    residuals.clear()
    capsys.readouterr()
    assert cli.main(["invariants", str(path)]) == cli.EXIT_DATA == 65
    assert capsys.readouterr() == ("", f"data error: {message}\n")
    assert len(residuals) == 1


# -- field conversion ---------------------------------------------------------------


def test_convert_field():
    g = paper_g1(FQ)
    reduced = convert_field(g, F3)
    assert reduced.field == F3
    assert reduced == paper_g1(F3)
    assert convert_field(g, FQ) is g
    with pytest.raises(DocumentError, match="reinterpret"):
        convert_field(reduced, FQ)
    with pytest.raises(DocumentError, match="reinterpret"):
        convert_field(reduced, F5)


def test_convert_field_rejects_non_integral_reduction():
    half = LeibnizAlgebra.from_structure(FQ, 2, {(0, 0): (0, FQ.of("1/3"))})
    with pytest.raises(Exception):
        convert_field(half, F3)
    ok = convert_field(LeibnizAlgebra.from_structure(FQ, 2, {(0, 0): (0, FQ.of("1/2"))}), F3)
    assert ok.structure[0][0] == (0, 2)  # 1/2 = 2 mod 3


# -- canonical form and hashing ------------------------------------------------------


def test_canonical_json_is_key_order_independent():
    a = canonical_json({"b": 1, "a": [True, None, "x"]})
    b = canonical_json({"a": [True, None, "x"], "b": 1})
    assert a == b
    assert a.endswith("\n") and '", "' not in a


def test_content_hash_frozen():
    doc = serialize_algebra(paper_g1(F3))
    assert content_hash(doc) == (
        "sha256:a03dd325f8bb3533e4e842b6582bf6025f3a0b28504cee0d339be0fed8957861")
    assert algebra_hash(paper_g1(F3)) == content_hash(doc)
    assert algebra_hash(paper_g1(F5)) != algebra_hash(paper_g1(F3))


def test_content_hash_is_hashlib_sha256_on_the_golden_documents():
    """content_hash takes its SHA-256 from CPython's built-in module, not from
    hashlib; the digests must be hashlib's on every stored document."""
    docs = Path(__file__).resolve().parent / "golden" / "docs"
    unparsed = []
    for path in sorted(docs.rglob("*.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            unparsed.append(path.name)
            continue
        expected = hashlib.sha256(canonical_json(doc).encode()).hexdigest()
        assert content_hash(doc) == "sha256:" + expected, path.name
    # docs/shared_bad's truncated copies, and two documents holding an
    # integer literal past the int-string limit
    assert unparsed == ["long_integer.json", "m_bad.json", "m_bad_copy.json",
                        "witness_long_integer.json"]


def test_hash_distinguishes_structure(suite):
    seen = {}
    for alg in suite[:60]:
        h = algebra_hash(alg)
        if h in seen:
            assert seen[h] == alg
        seen[h] = alg


# -- witness and matrix codecs --------------------------------------------------------


def test_witness_serialization_round_trip():
    e1 = canonical_extension(paper_g1(F3))
    e2 = canonical_extension(paper_g2(F3))
    w = search_isoclinism(e1, e2)
    doc = serialize_witness(w)
    assert doc["schema_version"] == SCHEMA_VERSION
    eta = matrix_from_json(F3, doc["eta"], 2, 2)
    xi = matrix_from_json(F3, doc["xi"], 1, 1)
    assert eta == w.eta.matrix and xi == w.xi.matrix


def test_matrix_codec_edge_cases():
    empty = Matrix.zeros(F3, 0, 2)
    assert matrix_to_json(empty) == []
    assert matrix_from_json(F3, [], 0, 2) == empty
    tall = Matrix.zeros(F3, 2, 0)
    assert matrix_to_json(tall) == [[], []]
    assert matrix_from_json(F3, [[], []], 2, 0) == tall
    with pytest.raises(DocumentError, match="2x2"):
        matrix_from_json(F3, [[1, 2]], 2, 2)
    with pytest.raises(DocumentError, match="coefficient"):
        matrix_from_json(FQ, [["1/0"]], 1, 1)


# -- catalog ---------------------------------------------------------------------------


def test_catalog_names_and_describe():
    names = list(catalog_names())
    assert "paper_g1" in names and "paper_g2" in names and "paper_q2" in names
    assert names[-1] == "abelian_n" and names == sorted(names[:-1]) + ["abelian_n"]
    for name in names:
        assert describe(name)
    with pytest.raises(CatalogError):
        describe("nope")


def test_catalog_entries():
    g1 = catalog_entry("paper_g1")
    assert g1.field == FQ and g1 == paper_g1(FQ)
    g2 = catalog_entry("paper_g2", F3)
    assert g2 == paper_g2(F3)
    q2 = catalog_entry("paper_q2")
    assert q2.dim == 2 and q2.basis_names == ("a1", "a3")
    assert q2.structure == paper_g1(FQ).structure

    ab = catalog_entry(ABELIAN_PREFIX + "4", F5)
    assert ab.dim == 4 and ab.field == F5
    from leibalg.algebra import is_abelian
    assert is_abelian(ab)


def test_catalog_errors():
    with pytest.raises(CatalogError):
        catalog_entry("paper_g9")
    with pytest.raises(CatalogError, match="dimension"):
        catalog_entry("abelian_n")
    with pytest.raises(CatalogError):
        catalog_entry("abelian_x")
