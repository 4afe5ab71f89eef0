import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leibalg.cli as cli
import leibalg.documents as documents
import leibalg.errors as errors
from leibalg.cli import (
    EXIT_DATA,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_NO_WITNESS,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_WITNESS_REJECTED,
    main,
)
from leibalg.documents import MAX_DIM, canonical_json, serialize_algebra, serialize_witness
from leibalg.extensions import CentralExtension, canonical_extension
from leibalg.fields import MAX_PRIME, Field
from leibalg.isoclinism import MAX_GL_ENV, search_isoclinism

from conftest import F3, FQ, nilpotent_n2, paper_g1, paper_g2

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--format", "json")
    return rc, json.loads(out), err


def write_doc(tmp_path, name, alg):
    path = tmp_path / name
    path.write_text(canonical_json(serialize_algebra(alg)), encoding="utf-8")
    return str(path)


# -- validate ----------------------------------------------------------------


def test_validate_catalog_entry(capsys):
    rc, out, err = run(capsys, "validate", "catalog:paper_g1")
    assert rc == EXIT_OK and err == ""
    assert "status: ok" in out
    assert "violations: []" in out


def test_validate_rejects_bad_algebra(capsys, tmp_path):
    doc = serialize_algebra(paper_g1(F3))
    doc["brackets"] = [{"left": 0, "right": 0, "value": [1, 0]}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, report, err = run_json(capsys, "validate", str(path))
    assert rc == EXIT_INVALID
    assert report["status"] == "invalid"
    violation = report["payload"]["violations"][0]
    assert violation["triple"] == [0, 0, 0]


# -- invariants --------------------------------------------------------------


def test_invariants_frozen_values(capsys):
    rc, report, err = run_json(capsys, "invariants", "catalog:paper_g2")
    assert rc == EXIT_OK
    payload = report["payload"]
    assert payload["field"] == "Q"
    assert payload["dim"] == 3
    assert payload["lie_center_dim"] == 1
    assert payload["lie_commutator_dim"] == 1
    assert payload["annihilator_dim"] == 1
    assert payload["liezation_dim"] == 2
    assert payload["is_lie"] is False and payload["is_abelian"] is False
    ce = payload["canonical_extension"]
    assert ce["n_dim"] == 1 and ce["q_dim"] == 2
    assert ce["stem"]["verdict"] == "not_stem"


def test_invariants_respects_field_flag(capsys):
    rc, report, err = run_json(capsys, "invariants", "catalog:paper_g2",
                               "--field", "5")
    assert rc == EXIT_OK
    assert report["payload"]["field"] == "F_5"


# -- isoclinic ---------------------------------------------------------------


def test_isoclinic_search_finds_witness(capsys):
    rc, report, err = run_json(capsys, "isoclinic", "catalog:paper_g1",
                               "catalog:paper_g2", "--field", "3")
    assert rc == EXIT_OK
    assert report["status"] == "ok"
    assert report["payload"]["witness"]["eta"] == [[1, 0], [0, 1]]
    assert report["payload"]["witness"]["xi"] == [[1]]


def test_isoclinic_no_witness(capsys):
    rc, report, err = run_json(capsys, "isoclinic", "catalog:paper_g1",
                               "catalog:abelian_2", "--field", "3")
    assert rc == EXIT_NO_WITNESS
    assert report["status"] == "no_witness"
    assert report["payload"]["first"]["lie_commutator_dim"] == 1
    assert report["payload"]["second"]["lie_commutator_dim"] == 0


def test_isoclinic_witness_file_accepted(capsys, tmp_path):
    e1 = canonical_extension(paper_g1(F3))
    e2 = canonical_extension(paper_g2(F3))
    w = search_isoclinism(e1, e2)
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(serialize_witness(w)), encoding="utf-8")
    rc, report, err = run_json(capsys, "isoclinic", "catalog:paper_g1",
                               "catalog:paper_g2", "--field", "3",
                               "--witness", str(path))
    assert rc == EXIT_OK
    assert report["payload"]["surjectivity_automatic"] is True


def test_isoclinic_witness_file_over_rationals(capsys, tmp_path):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({"eta": [["1", "0"], ["0", "1"]],
                                "xi": [["1"]]}), encoding="utf-8")
    rc, report, err = run_json(capsys, "isoclinic", "catalog:paper_g1",
                               "catalog:paper_g2", "--witness", str(path))
    assert rc == EXIT_OK


def test_isoclinic_witness_file_rejected(capsys, tmp_path):
    e1 = canonical_extension(paper_g1(F3))
    e2 = canonical_extension(paper_g2(F3))
    w = search_isoclinism(e1, e2)
    doc = serialize_witness(w)
    doc["xi"] = [[2]]  # wrong scale: squares stop commuting
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, report, err = run_json(capsys, "isoclinic", "catalog:paper_g1",
                               "catalog:paper_g2", "--field", "3",
                               "--witness", str(path))
    assert rc == EXIT_WITNESS_REJECTED
    assert any("disagree" in f for f in report["payload"]["failures"])


def test_isoclinic_witness_eta_not_morphism(capsys, tmp_path):
    path = tmp_path / "witness.json"
    # invertible but not bracket-preserving on q1 -> q2
    path.write_text(json.dumps({"eta": [[0, 1], [1, 0]], "xi": [[1]]}),
                    encoding="utf-8")
    rc, report, err = run_json(capsys, "isoclinic", "catalog:paper_g1",
                               "catalog:paper_g2", "--field", "3",
                               "--witness", str(path))
    assert rc == EXIT_WITNESS_REJECTED
    assert any("morphism" in f for f in report["payload"]["failures"])


def test_isoclinic_witness_bad_shape_is_data_error(capsys, tmp_path):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({"eta": [[1]], "xi": [[1]]}), encoding="utf-8")
    rc, out, err = run(capsys, "isoclinic", "catalog:paper_g1",
                       "catalog:paper_g2", "--field", "3",
                       "--witness", str(path))
    assert rc == EXIT_DATA and "data error" in err


def test_a_pair_over_two_fields_is_one_data_error_in_every_mode(capsys, tmp_path):
    # a Q document and an F_5 one: refused when loaded, before the search or
    # the witness check could word it its own way
    rational = write_doc(tmp_path, "q.json", paper_g1(FQ))
    prime = write_doc(tmp_path, "f5.json", paper_g1(Field.prime(5)))
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps({"eta": [[1, 0], [0, 1]], "xi": [[1]]}), encoding="utf-8")
    for argv in (("isoclinic",), ("isoclinic", "--witness", str(witness)),
                 ("extension", "backward"), ("extension", "pullback")):
        for pair in ((rational, prime), (prime, rational)):
            assert run(capsys, *argv, *pair) == (
                EXIT_DATA, "", "data error: extensions live over different fields\n")


def test_isoclinic_search_and_witness_are_exclusive(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text("{}", encoding="utf-8")
    rc, out, err = run(capsys, "isoclinic", "catalog:paper_g1",
                       "catalog:paper_g2", "--field", "3",
                       "--search", "--witness", str(path))
    assert rc == EXIT_USAGE


# -- classify ----------------------------------------------------------------


def test_classify_directory(capsys, tmp_path):
    from leibalg.algebra import LeibnizAlgebra, direct_product
    write_doc(tmp_path, "a_g1.json", paper_g1(F3))
    write_doc(tmp_path, "b_g2.json", paper_g2(F3))
    write_doc(tmp_path, "c_fat.json",
              direct_product(paper_g1(F3), LeibnizAlgebra.abelian(F3, 1)))
    write_doc(tmp_path, "d_ab.json", LeibnizAlgebra.abelian(F3, 2))
    rc, report, err = run_json(capsys, "classify", str(tmp_path))
    assert rc == EXIT_OK
    payload = report["payload"]
    assert payload["count"] == 2
    first, second = payload["classes"]
    assert first["representative"] == "a_g1.json"
    assert first["members"] == ["a_g1.json", "b_g2.json", "c_fat.json"]
    assert second["members"] == ["d_ab.json"]
    assert set(first["witnesses"]) == {"a_g1.json", "b_g2.json", "c_fat.json"}
    assert first["witnesses"]["a_g1.json"]["eta"] == [[1, 0], [0, 1]]


def test_classify_requires_common_finite_field(capsys, tmp_path):
    write_doc(tmp_path, "a.json", paper_g1(F3))
    write_doc(tmp_path, "b.json", paper_g1(FQ))
    rc, out, err = run(capsys, "classify", str(tmp_path))
    assert rc == EXIT_DATA and "data error" in err


def test_classify_rational_documents_with_field_flag(capsys, tmp_path):
    write_doc(tmp_path, "a.json", paper_g1(FQ))
    write_doc(tmp_path, "b.json", paper_g2(FQ))
    rc, out, err = run(capsys, "classify", str(tmp_path))
    assert rc == EXIT_DATA
    rc, report, err = run_json(capsys, "classify", str(tmp_path), "--field", "3")
    assert rc == EXIT_OK
    assert report["payload"]["count"] == 1


def counting(calls, fn):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapper


def test_classify_parses_each_distinct_text_once(capsys, monkeypatch):
    # docs/shared holds byte copies, one algebra in other whitespace and key
    # order, and rational documents that --field 3 reduces to algebras also
    # given over F_3; docs/shared_bad holds one malformed document under two
    # names, and classify stops at the first.  The reports were recorded
    # before copies were parsed once.
    cases = {tuple(c["argv"]): c
             for c in json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))}
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv(MAX_GL_ENV, raising=False)
    parsed, hashed = [], []
    monkeypatch.setattr(documents, "parse_algebra_json",
                        counting(parsed, documents.parse_algebra_json))
    monkeypatch.setattr(documents, "algebra_hash", counting(hashed, documents.algebra_hash))
    for argv, read in ((("classify", "docs/shared", "--field", "3"), 16),
                       (("classify", "docs/shared"), 16),
                       (("classify", "docs/shared_bad", "--field", "3"), 3)):
        paths = sorted((GOLDEN / argv[1]).glob("*.json"))[:read]
        texts = [path.read_text(encoding="utf-8") for path in paths]
        assert len(set(texts)) < len(texts)
        for fmt in ((), ("--format", "json")):
            parsed.clear()
            hashed.clear()
            case = cases[argv + fmt]
            assert run(capsys, *argv, *fmt) == (case["exit"], case["stdout"], case["stderr"])
            assert len(parsed) == len(set(texts))
            if case["exit"] == EXIT_OK:
                algebras = {cli.parse_algebra(t, Field.prime(3)) for t in texts}
                assert len(hashed) == len(algebras) < len(set(texts))
            else:
                assert hashed == []


def test_a_repeated_reference_is_loaded_once(capsys, monkeypatch, tmp_path):
    # one path given twice is parsed and hashed once; a byte copy under
    # another path is loaded twice and gives the same report.  The search
    # builds no canonical extension; backward and pullback build one per
    # distinct algebra, which the byte copy shares
    import leibalg.extensions as extensions

    monkeypatch.delenv(MAX_GL_ENV, raising=False)
    doc = GOLDEN / "docs" / "g1xg1.json"
    copy = tmp_path / "copy.json"
    copy.write_bytes(doc.read_bytes())
    parsed, hashed, extended = [], [], []
    monkeypatch.setattr(documents, "parse_algebra_json",
                        counting(parsed, documents.parse_algebra_json))
    monkeypatch.setattr(documents, "algebra_hash", counting(hashed, documents.algebra_hash))
    monkeypatch.setattr(extensions, "canonical_extension",
                        counting(extended, extensions.canonical_extension))
    for command, extends in ((("isoclinic",), 0), (("extension", "backward"), 1),
                             (("extension", "pullback"), 1)):
        for fmt in ((), ("--format", "json")):
            reports = []
            for second, loads in ((doc, 1), (copy, 2)):
                for calls in (parsed, hashed, extended):
                    calls.clear()
                reports.append(run(capsys, *command, str(doc), str(second), *fmt))
                assert (len(parsed), len(hashed), len(extended)) == (loads, loads, extends)
            assert reports[0] == reports[1]
            assert reports[0][0] == EXIT_OK


def test_extension_payload_computes_theta_image_once(capsys, monkeypatch):
    # check_sequence_nine and the stem report both read the theta image
    prop = CentralExtension.__dict__["_theta_image"]
    computed = []
    monkeypatch.setattr(prop, "func", counting(computed, prop.func))
    for alg in (paper_g2(F3), nilpotent_n2(F3)):
        e = canonical_extension(alg)
        payload = cli.extension_payload(e, "canonical")
        assert computed == [(e,)]
        assert (payload["stem"]["theta_dim"]
                == payload["sequence_nine"]["junctions"][0]["image_dim"])
        computed.clear()
    rc, out, err = run(capsys, "extension", "pullback", "catalog:paper_g1",
                       "catalog:paper_g2", "--field", "3")
    assert rc == EXIT_OK and len(computed) == 1


# -- extension ---------------------------------------------------------------


def test_extension_canonical(capsys):
    rc, report, err = run_json(capsys, "extension", "canonical",
                               "catalog:paper_g2")
    assert rc == EXIT_OK
    payload = report["payload"]
    assert payload["valid"] is True
    assert (payload["n_dim"], payload["g_dim"], payload["q_dim"]) == (1, 3, 2)
    assert payload["sequence_tail"]["ok"] is True
    assert payload["sequence_nine"]["ok"] is True
    assert payload["stem"]["verdict"] == "not_stem"


def test_extension_backward(capsys):
    rc, report, err = run_json(capsys, "extension", "backward",
                               "catalog:paper_g1", "catalog:paper_g2",
                               "--field", "3")
    assert rc == EXIT_OK
    payload = report["payload"]
    assert payload["construction"] == "backward"
    assert payload["valid"] is True
    assert payload["g_dim"] == 3
    assert payload["iso_triple_isoclinic"] is True


def test_extension_pullback(capsys):
    rc, report, err = run_json(capsys, "extension", "pullback",
                               "catalog:paper_g1", "catalog:paper_g2",
                               "--field", "3")
    assert rc == EXIT_OK
    payload = report["payload"]
    assert payload["g_dim"] == 3  # 2 + 3 - 2
    assert payload["triples_isoclinic"] == [True, True]


def test_extension_backward_without_witness(capsys):
    rc, report, err = run_json(capsys, "extension", "backward",
                               "catalog:paper_g1", "catalog:abelian_2",
                               "--field", "3")
    assert rc == EXIT_NO_WITNESS
    assert report["status"] == "no_witness"


def test_extension_product(capsys):
    rc, report, err = run_json(capsys, "extension", "product",
                               "catalog:paper_g1", "--abelian-dim", "2")
    assert rc == EXIT_OK
    payload = report["payload"]
    assert payload["n_dim"] == 2 and payload["g_dim"] == 4
    assert payload["triples_isoclinic"] == [True, True]
    rc, out, err = run(capsys, "extension", "product", "catalog:paper_g1",
                       "--abelian-dim", "-1")
    assert rc == EXIT_USAGE


def test_extension_payload_of_an_invalid_extension_lists_its_failures():
    # the annihilator of paper_g2 is not inside its Lie-center
    from leibalg.algebra import annihilator_ideal
    from leibalg.constructions import central_extension_from_ideal

    g2 = paper_g2(F3)
    e = central_extension_from_ideal(g2, annihilator_ideal(g2))
    assert cli.extension_payload(e, "canonical") == {
        "construction": "canonical", "valid": False,
        "n_dim": e.n.dim, "g_dim": 3, "q_dim": 3 - e.n.dim,
        "failures": ["[chi(n), g]_Lie != 0 (extension is not Lie-central)"]}


# -- catalog -----------------------------------------------------------------


def test_catalog_list(capsys):
    rc, report, err = run_json(capsys, "catalog", "list")
    assert rc == EXIT_OK
    names = [e["name"] for e in report["payload"]["entries"]]
    assert "paper_g1" in names and "abelian_n" in names


def test_catalog_show_round_trip(capsys, tmp_path):
    rc, out, err = run(capsys, "catalog", "show", "paper_g1",
                       "--format", "json", "--field", "3")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc == serialize_algebra(paper_g1(F3))
    assert out == canonical_json(doc)
    path = tmp_path / "g1.json"
    path.write_text(out, encoding="utf-8")
    rc2, out2, err2 = run(capsys, "validate", str(path))
    assert rc2 == EXIT_OK


def test_catalog_show_text(capsys):
    rc, out, err = run(capsys, "catalog", "show", "paper_g1")
    assert rc == EXIT_OK
    assert "dim: 2" in out and "basis" in out


def test_catalog_show_unknown(capsys):
    rc, out, err = run(capsys, "catalog", "show", "nope")
    assert rc == EXIT_DATA and "data error" in err


def test_abelian_suffixes_that_int_refuses_are_one_line_data_errors(capsys):
    """A superscript digit passes str.isdigit but not int(), and 5,000 digits
    are past the int-string limit: each reference exits 65 with one short
    line that quotes none of the digits, from both readers of the catalog."""
    long = "7" * 5000
    expected = {
        "abelian_\u00b2": "data error: unknown catalog entry 'abelian_\u00b2'\n",
        f"abelian_{long}": ("data error: the dimension of abelian_<n> has too many digits; "
                            f"the supported bound is {MAX_DIM}\n"),
    }
    for name, message in expected.items():
        for argv in (("catalog", "show", name), ("invariants", f"catalog:{name}")):
            assert run(capsys, *argv) == (EXIT_DATA, "", message)


# -- error lanes and flag handling ---------------------------------------------


def test_missing_file_is_io_error(capsys, tmp_path):
    rc, out, err = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert rc == EXIT_IO and "io error" in err


def test_malformed_json_is_data_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    rc, out, err = run(capsys, "validate", str(path))
    assert rc == EXIT_DATA


def test_non_utf8_documents_are_data_errors(capsys, tmp_path):
    # a UTF-16 byte order mark: every reader of a document file reports the
    # file in one line instead of raising UnicodeDecodeError
    bad = tmp_path / "batch" / "utf16.json"
    bad.parent.mkdir()
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    write_doc(bad.parent, "g1.json", paper_g1(F3))
    for argv in (("validate", str(bad)),
                 ("isoclinic", "catalog:paper_g1", "catalog:paper_g2", "--field", "3",
                  "--witness", str(bad)),
                 ("classify", str(bad.parent))):
        rc, out, err = run(capsys, *argv)
        assert rc == EXIT_DATA and out == ""
        assert err.startswith(f"data error: {bad} is not UTF-8 text") and err.count("\n") == 1


def test_wrongly_typed_and_oversized_documents_are_data_errors(capsys, tmp_path):
    docs = {
        "bool_dim": {"schema_version": "1", "field": {"p": 3}, "dim": True, "brackets": []},
        "huge_dim": {"schema_version": "1", "field": {"p": 3}, "dim": MAX_DIM + 1,
                     "brackets": []},
        "dup_basis": {"schema_version": "1", "field": {"p": 3}, "dim": 2,
                      "basis": ["a", "a"], "brackets": []},
    }
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc, out, err = run(capsys, "validate", str(path))
        assert rc == EXIT_DATA and out == ""
        assert err.startswith("data error: ") and err.count("\n") == 1
    rc, out, err = run(capsys, "extension", "product", "catalog:paper_g1",
                       "--abelian-dim", str(MAX_DIM - 1))
    assert rc == EXIT_DATA and "bound" in err and err.count("\n") == 1
    rc, out, err = run(capsys, "invariants", f"catalog:abelian_{MAX_DIM + 1}")
    assert rc == EXIT_DATA and "bound" in err


def test_characteristic_two_is_data_error(capsys):
    rc, out, err = run(capsys, "invariants", "catalog:paper_g1", "--field", "2")
    assert rc == EXIT_DATA


def test_huge_prime_modulus_is_a_prompt_data_error(tmp_path):
    # 2**61 - 1 is prime: trial division up to its square root would not
    # finish, so the modulus bound has to be checked before primality
    p = 2**61 - 1
    doc = serialize_algebra(paper_g1(F3))
    doc["field"] = {"p": p}
    path = tmp_path / "huge_p.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for argv in (["--field", str(p), "catalog", "show", "paper_g1"], ["validate", str(path)]):
        proc = subprocess.run([sys.executable, "-m", "leibalg", *argv], capture_output=True,
                              text=True, env=env, timeout=30)
        assert proc.returncode == EXIT_DATA and proc.stdout == ""
        assert proc.stderr.startswith("data error: ") and proc.stderr.count("\n") == 1


def test_every_library_error_has_an_exit_code(capsys, monkeypatch):
    def raising(exc):
        def handler(args):
            raise exc
        return handler

    codes = {errors.SearchBoundError: EXIT_USAGE}
    codes.update((cls, EXIT_DATA) for cls in (
        errors.LeibalgError, errors.FieldError, errors.LinalgError, errors.AlgebraError,
        errors.MorphismError, errors.DocumentError, errors.ExtensionError,
        errors.IsoclinismError, errors.CatalogError))
    assert set(codes) == {value for value in vars(errors).values()
                          if isinstance(value, type) and issubclass(value, Exception)}
    assert all(issubclass(cls, errors.LeibalgError) for cls in codes)
    for cls, code in codes.items():
        monkeypatch.setattr(cli, "cmd_validate", raising(cls(f"bad {cls.__name__}")))
        rc, out, err = run(capsys, "validate", "catalog:paper_g1")
        prefix = "usage error" if code == EXIT_USAGE else "data error"
        assert (rc, out, err) == (code, "", f"{prefix}: bad {cls.__name__}\n")


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_long_options_may_be_abbreviated(capsys):
    assert run(capsys, "catalog", "list", "--form", "json") == run(
        capsys, "catalog", "list", "--format", "json")
    assert run(capsys, "catalog", "list", "--f=abc") == (EXIT_USAGE, "", (
        "usage error: ambiguous option: --f=abc could match --format, --field\n"))


def test_invalid_construction_lists_the_choices_quoted(capsys):
    # quoted on every Python, also where argparse itself prints them bare;
    # the golden cases pin the same form for a bad command and a bad --format
    assert run(capsys, "extension", "bogus") == (EXIT_USAGE, "", (
        "usage error: argument <construction>: invalid choice: 'bogus' "
        "(choose from 'canonical', 'backward', 'pullback', 'product')\n"))


def test_max_gl_flag_enforced(capsys):
    rc, out, err = run(capsys, "isoclinic", "catalog:paper_g1",
                       "catalog:paper_g2", "--field", "3", "--max-gl", "10")
    assert rc == EXIT_USAGE and "GL" in err


def test_max_gl_env_enforced(capsys, monkeypatch):
    monkeypatch.setenv(MAX_GL_ENV, "10")
    rc, out, err = run(capsys, "isoclinic", "catalog:paper_g1",
                       "catalog:paper_g2", "--field", "3")
    assert rc == EXIT_USAGE
    monkeypatch.setenv(MAX_GL_ENV, "junk")
    rc, out, err = run(capsys, "isoclinic", "catalog:paper_g1",
                       "catalog:paper_g2", "--field", "3")
    assert rc == EXIT_USAGE and "integer" in err


def test_a_max_gl_env_past_the_int_string_limit_has_too_many_digits(capsys, monkeypatch):
    """int() refuses 5,000 digits: the message says so in one short line
    instead of calling them no integer and echoing them; ordinary bad values
    keep their message."""
    argv = ("isoclinic", "catalog:paper_g1", "catalog:paper_g2", "--field", "3")
    monkeypatch.setenv(MAX_GL_ENV, "1" * 5000)
    assert run(capsys, *argv) == (EXIT_USAGE, "", f"usage error: {MAX_GL_ENV} has too many digits\n")
    for value in ("abc", "1e5"):
        monkeypatch.setenv(MAX_GL_ENV, value)
        assert run(capsys, *argv) == (
            EXIT_USAGE, "", f"usage error: {MAX_GL_ENV} must be an integer, got {value!r}\n")


def test_a_long_max_gl_env_is_quoted_cut(capsys, monkeypatch):
    argv = ("isoclinic", "catalog:paper_g1", "catalog:paper_g2", "--field", "3")
    value = "x" * 5000
    monkeypatch.setenv(MAX_GL_ENV, value)
    assert run(capsys, *argv) == (
        EXIT_USAGE, "", f"usage error: {MAX_GL_ENV} must be an integer, got {repr(value)[:80]}...\n")


def dim_one_f3_document(coefficient):
    return json.dumps({"schema_version": "1", "field": {"p": 3}, "dim": 1,
                       "brackets": [{"left": 0, "right": 0, "value": [coefficient]}]}).encode()


DEEP = "/".join(["d" * 100] * 30)  # a 3,029-character directory path

# Inputs that put a long outside value where an error message quotes it:
# name -> (files written under the working directory, argv, exit code)
LONG_VALUES = {
    "unparsable scalar": ({"a.json": dim_one_f3_document("x" * 5000)},
                          ("validate", "a.json"), EXIT_DATA),
    "uncoercible scalar": ({"a.json": dim_one_f3_document(["y" * 5000])},
                           ("validate", "a.json"), EXIT_DATA),
    "vanishing denominator": ({"a.json": dim_one_f3_document("1" * 4000 + "/3")},
                              ("validate", "a.json"), EXIT_DATA),
    "catalog show": ({}, ("catalog", "show", "z" * 5000), EXIT_DATA),
    "catalog reference": ({}, ("validate", "catalog:" + "z" * 5000), EXIT_DATA),
    "format choice": ({}, ("catalog", "list", "--format", "f" * 5000), EXIT_USAGE),
    "command word": ({}, ("c" * 5000,), EXIT_USAGE),
    "integer flag": ({}, ("catalog", "list", "--max-gl", "a" * 5000), EXIT_USAGE),
    "unrecognized argument": ({}, ("catalog", "list", "u" * 5000), EXIT_USAGE),
    "ambiguous option": ({}, ("catalog", "list", "--f=" + "x" * 5000), EXIT_USAGE),
    "ambiguous option with spaces": ({}, ("catalog", "list", "--f=" + "x " * 2500), EXIT_USAGE),
    "ignored explicit argument": ({}, ("isoclinic", "catalog:paper_g1", "catalog:paper_g1",
                                       "--search=" + "x" * 5000), EXIT_USAGE),
    "io error": ({}, ("validate", "p" * 5000), EXIT_IO),
    "non-UTF-8 file": ({f"{DEEP}/a.json": b"\xff"}, ("validate", f"{DEEP}/a.json"), EXIT_DATA),
    "witness not JSON": ({f"{DEEP}/w.json": b"nope"},
                         ("isoclinic", "catalog:paper_g1", "catalog:paper_g1", "--field", "3",
                          "--witness", f"{DEEP}/w.json"), EXIT_DATA),
}


@pytest.mark.parametrize("name", LONG_VALUES)
def test_a_long_outside_value_is_cut_to_one_short_line(name, capsys, tmp_path, monkeypatch):
    files, argv, code = LONG_VALUES[name]
    for rel, data in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (code, "")
    assert err.count("\n") == 1 and err.endswith("\n") and len(err.encode()) <= 200
    assert "..." in err


INTEGER_FLAGS = (("invariants", "catalog:paper_g1", "--max-gl"),
                 ("invariants", "catalog:paper_g1", "--seed"),
                 ("invariants", "catalog:paper_g1", "--field"),
                 ("extension", "product", "catalog:paper_g1", "--abelian-dim"))


DEFAULT_INT_LIMIT = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", int)() != 4300,
    reason="the interpreter's int-string limit is not the default 4,300")


@DEFAULT_INT_LIMIT
def test_integer_flags_past_the_int_string_limit_are_one_short_line(capsys):
    """int() refuses 5,000 digits: each integer flag says so in one line
    that quotes none of them; ordinary bad values keep argparse's message."""
    for *argv, flag in INTEGER_FLAGS:
        assert run(capsys, *argv, flag, "1" * 5000) == (
            EXIT_USAGE, "", f"usage error: argument {flag}: the value has too many digits\n")
        assert run(capsys, *argv, flag, "abc") == (
            EXIT_USAGE, "", f"usage error: argument {flag}: invalid int value: 'abc'\n")


@DEFAULT_INT_LIMIT
def test_numbers_within_the_int_string_limit_are_not_echoed(capsys, tmp_path):
    """A dimension or modulus of 4,000 digits is refused by its bound in one
    short line that gives its size in bits, not its digits."""
    digits = "1" * 4000
    bits = int(digits).bit_length()
    doc = serialize_algebra(paper_g1(F3))
    doc["dim"] = int(digits)
    path = tmp_path / "huge_dim.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    dimension = f"data error: dimension about 2^{bits} exceeds the supported bound {MAX_DIM}\n"
    cases = {
        ("invariants", str(path)): dimension,
        ("extension", "product", "catalog:paper_g1", "--abelian-dim", digits): dimension,
        ("invariants", "catalog:paper_g1", "--field", digits):
            f"data error: modulus about 2^{bits} exceeds the supported bound {MAX_PRIME}\n",
        ("invariants", "catalog:paper_g1", "--field", "-" + digits):
            f"data error: modulus about -2^{bits} is not prime\n",
    }
    for argv, message in cases.items():
        assert run(capsys, *argv) == (EXIT_DATA, "", message)


def test_emit_returns_the_exit_code_of_the_status_it_writes(capsys):
    args = argparse.Namespace(format="text", seed=None)
    codes = {"ok": EXIT_OK, "invalid": EXIT_INVALID, "no_witness": EXIT_NO_WITNESS,
             "witness_rejected": EXIT_WITNESS_REJECTED}
    for status, code in codes.items():
        assert cli.emit(args, "validate", {}, status, {}) == code
        assert capsys.readouterr().out == f"command: validate\nstatus: {status}\n"


def test_global_flags_before_subcommand(capsys):
    rc1, out1, err1 = run(capsys, "--format", "json", "--field", "3",
                          "invariants", "catalog:paper_g2")
    rc2, out2, err2 = run(capsys, "invariants", "catalog:paper_g2",
                          "--format", "json", "--field", "3")
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2


LEAF_COMMANDS = [
    ("validate", "a.json"),
    ("invariants", "a.json"),
    ("isoclinic", "a.json", "b.json"),
    ("classify", "docs"),
    ("extension", "canonical", "a.json"),
    ("extension", "backward", "a.json", "b.json"),
    ("extension", "pullback", "a.json", "b.json"),
    ("extension", "product", "a.json"),
    ("catalog", "list"),
    ("catalog", "show", "paper_g1"),
]
# flag -> (attribute, value given before the command, value given after it)
GLOBAL_FLAGS = {"--format": ("format", "text", "json"), "--seed": ("seed", 1, 2),
                "--max-gl": ("max_gl", 3, 4), "--field": ("field", 5, 7)}


@pytest.mark.parametrize("command", LEAF_COMMANDS, ids=" ".join)
def test_global_flags_around_every_leaf_command(command, monkeypatch):
    """Each global flag is accepted before and after every leaf command, and
    between the two words of a two-word one, and the value given last wins."""
    seen = []
    for name in [name for name in vars(cli) if name.startswith("cmd_")]:
        monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or EXIT_OK)

    def parsed(*argv):
        assert main(list(argv)) == EXIT_OK
        return seen.pop()

    defaults = parsed(*command)
    assert [defaults[attr] for attr, _, _ in GLOBAL_FLAGS.values()] == ["text", None, None, None]
    for flag, (attr, before, after) in GLOBAL_FLAGS.items():
        assert parsed(flag, str(before), *command)[attr] == before
        assert parsed(*command, flag, str(after))[attr] == after
        both = parsed(flag, str(before), *command, flag, str(after))
        assert both[attr] == after
        assert {k: v for k, v in both.items() if k != attr} == \
            {k: v for k, v in defaults.items() if k != attr}
        if command[0] in ("extension", "catalog"):
            first, rest = command[0], command[1:]
            assert parsed(first, flag, str(before), *rest)[attr] == before
            assert parsed(flag, str(before), first, flag, str(after), *rest)[attr] == after
            assert parsed(first, flag, str(before), *rest, flag, str(after))[attr] == after


def test_seed_is_recorded(capsys):
    rc, report, err = run_json(capsys, "invariants", "catalog:paper_g1",
                               "--seed", "7")
    assert report["seed"] == 7


# -- determinism ---------------------------------------------------------------


def test_reports_are_byte_deterministic(capsys, tmp_path):
    from leibalg.algebra import LeibnizAlgebra, direct_product
    write_doc(tmp_path, "a.json", paper_g1(F3))
    write_doc(tmp_path, "b.json", paper_g2(F3))
    write_doc(tmp_path, "c.json", LeibnizAlgebra.abelian(F3, 3))
    commands = [
        ("invariants", "catalog:paper_g2"),
        ("isoclinic", "catalog:paper_g1", "catalog:paper_g2", "--field", "3",
         "--seed", "11"),
        ("classify", str(tmp_path)),
        ("extension", "pullback", "catalog:paper_g1", "catalog:paper_g2",
         "--field", "3"),
        ("catalog", "show", "paper_g2"),
    ]
    for argv in commands:
        first = run(capsys, *argv, "--format", "json")
        second = run(capsys, *argv, "--format", "json")
        assert first == second
        assert first[0] == EXIT_OK
