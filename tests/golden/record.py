"""Write the golden CLI fixtures: the input documents and cases.json.

Run from a checkout, with the library on the path:

    PYTHONPATH=src python tests/golden/record.py

Each case is one command line together with the stdout, stderr and exit code
that `leibalg.cli.main` gave for it, run with this directory as the working
directory.  tests/test_golden.py replays every case and compares the bytes.
It also compares conftest.construction_snapshots() with constructions.json,
the matrices and algebras of the extension constructions on a fixed battery.
Re-record only for an intended change of a report or a construction, and say
which cases changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # the tests' conftest: fixtures and suite

from conftest import (  # noqa: E402
    F3,
    F5,
    FQ,
    LATE_GL_SEEDS,
    algebra_suite,
    change_basis,
    construction_snapshots,
    late_gl,
    nilpotent_n2,
    paper_g1,
    paper_g2,
)

from leibalg.algebra import LeibnizAlgebra, direct_product  # noqa: E402
from leibalg.cli import main  # noqa: E402
from leibalg.documents import canonical_json, serialize_algebra  # noqa: E402
from leibalg.linalg import Matrix  # noqa: E402

G1 = ("catalog:paper_g1", "catalog:paper_g2")
COMMANDS = [
    ("catalog", "list"),
    ("catalog", "show", "paper_g2", "--field", "5"),
    ("validate", "catalog:paper_g1", "--field", "3"),
    ("validate", "docs/not_leibniz.json"),
    ("invariants", "catalog:paper_g2"),
    ("invariants", "catalog:paper_g1", "--field", "7", "--seed", "7"),
    ("invariants", "docs/n2_q.json", "--field", "5"),
    ("isoclinic", *G1, "--field", "3"),
    ("isoclinic", *G1, "--field", "5", "--search"),
    ("isoclinic", "catalog:paper_g1", "catalog:abelian_2", "--field", "3"),
    ("isoclinic", "docs/square_11.json", "docs/square_12.json"),
    ("isoclinic", "docs/g1xg1.json", "docs/g1xg1_moved.json"),
    ("isoclinic", "docs/g1xg1.json", "docs/g1xg1_late0.json"),
    ("isoclinic", "docs/g1xg2.json", "docs/g1xg1_late0.json"),
    ("isoclinic", "docs/g1xg1.json", "docs/g1xg1_late1.json"),
    ("isoclinic", "docs/g1xg2.json", "docs/g1xg1_late1.json"),
    ("isoclinic", "docs/g1xg1.json", "docs/g1xn2_moved.json"),
    ("isoclinic", *G1, "--field", "3", "--witness", "docs/witness_ok.json"),
    ("isoclinic", *G1, "--witness", "docs/witness_ok_q.json"),
    ("isoclinic", *G1, "--field", "3", "--witness", "docs/witness_scaled.json"),
    ("isoclinic", *G1, "--field", "3", "--witness", "docs/witness_zero_xi.json"),
    ("isoclinic", *G1, "--field", "3", "--witness", "docs/witness_not_morphism.json"),
    ("isoclinic", *G1, "--field", "3", "--witness", "docs/witness_bad_shape.json"),
    ("extension", "canonical", "catalog:paper_g2", "--field", "7"),
    ("extension", "canonical", "docs/n2_q.json"),
    ("extension", "backward", *G1, "--field", "3"),
    ("extension", "pullback", *G1, "--field", "5"),
    ("extension", "product", "catalog:paper_g1", "--field", "3", "--abelian-dim", "2"),
    ("extension", "backward", "docs/g1xg1.json", "docs/g1xg1_moved.json"),
    ("extension", "pullback", "docs/g1xg1.json", "docs/g1xg1_moved.json"),
    ("extension", "product", "docs/g1xg1_moved.json", "--abelian-dim", "2"),
    ("classify", "docs/batch"),
    ("classify", "docs/shared", "--field", "3"),
    ("classify", "docs/shared"),
    ("classify", "docs/shared_bad", "--field", "3"),
    ("invariants", "docs/missing.json"),
    # argument handling: usage errors and global flags around the command
    (),
    ("bogus",),
    ("isoclinic", "catalog:paper_g1"),
    ("isoclinic", *G1, "--field", "3", "--search", "--witness", "docs/witness_ok.json"),
    ("--format", "xml", "invariants", "catalog:paper_g2"),
    ("invariants", "catalog:paper_g2", "--format", "xml"),
    ("--field", "3", "invariants", "catalog:paper_g2", "--field", "5"),
    ("extension", "product", "catalog:paper_g1", "--field", "3", "--abelian-dim", "-1"),
    ("extension", "product", "docs/missing.json", "--abelian-dim", "-1"),
    ("extension", "--field", "3", "canonical", "catalog:paper_g2"),
    ("extension", "backward", "catalog:paper_g1", "catalog:abelian_2", "--field", "3"),
    ("extension", "pullback", "catalog:paper_g1", "catalog:abelian_2", "--field", "3"),
    ("isoclinic", *G1, "--field", "5", "--max-gl", "3"),
    # integer literals past the int-string limit, and a GL order of 4,390 digits
    ("validate", "docs/long_integer.json"),
    ("isoclinic", "catalog:paper_g1", "catalog:paper_g1", "--field", "3",
     "--witness", "docs/witness_long_integer.json"),
    ("isoclinic", "docs/q_squares_28.json", "docs/q_squares_28.json", "--field", "1048573"),
    # a 3,000-digit rational bracket: the residual's numerator has 6,000 digits
    ("validate", "docs/long_fraction.json"),
    ("invariants", "docs/long_fraction.json"),
    # a rational scalar string past the int-string limit
    ("validate", "docs/long_scalar.json"),
    # unequal keys settle a pair with no witness, over Q and beyond the GL bound
    ("isoclinic", "catalog:paper_g1", "catalog:abelian_2"),
    ("isoclinic", "catalog:paper_g1", "catalog:abelian_2", "--field", "5", "--max-gl", "1"),
    # the dimension bound: one bad bracket among 4,096
    ("validate", "docs/dim64_one_bad_bracket.json"),
]

LONG = "1" * 5000  # past CPython's 4,300-digit int-string limit


def quadratic_form_algebra(d1, d2, field=F3):
    """[e1,e1] = d1 e3, [e2,e2] = d2 e3 over F_3: equal search keys, and
    isoclinic only when x^2 + d2/d1 y^2 is equivalent to x^2 + y^2."""
    return LeibnizAlgebra.from_structure(field, 3, {(0, 0): (0, 0, d1), (1, 1): (0, 0, d2)})


def documents():
    """Relative path -> text of every input file."""
    g1xg1 = direct_product(paper_g1(F5), paper_g1(F5))
    moved = change_basis(g1xg1, Matrix.from_rows(
        F5, [(1, 2, 0, 0), (0, 1, 0, 3), (0, 0, 1, 1), (3, 0, 0, 1)]))
    algebras = {
        "n2_q": nilpotent_n2(FQ),
        "square_11": quadratic_form_algebra(1, 1),
        "square_12": quadratic_form_algebra(1, 2),
        "g1xg1": g1xg1,
        "g1xg1_moved": moved,
        "g1xg2": direct_product(paper_g1(F5), paper_g2(F5)),
        "g1xn2_moved": change_basis(direct_product(paper_g1(F5), nilpotent_n2(F5)),
                                    late_gl(LATE_GL_SEEDS[0])),
        # [b_i, b_i] = z for i < 27: q = g/Z_Lie(g) has dimension 27
        "q_squares_28": LeibnizAlgebra.from_structure(
            FQ, 28, {(i, i): (0,) * 27 + (1,) for i in range(27)}),
    }
    # q-dim-4 searches whose first witness comes late in lexicographic order
    for k, seed in enumerate(LATE_GL_SEEDS):
        algebras[f"g1xg1_late{k}"] = change_basis(g1xg1, late_gl(seed))
    batch = list(dict.fromkeys(algebra_suite()))[:14]  # distinct, in suite order
    batch += [batch[0], batch[6]]  # copies: classify reuses equal inputs
    algebras.update({f"batch/a{k:02d}": alg for k, alg in enumerate(batch)})
    out = {f"docs/{name}.json": canonical_json(serialize_algebra(alg))
           for name, alg in algebras.items()}
    out.update(shared_documents())
    bad = serialize_algebra(paper_g1(F3))
    bad["brackets"] = [{"left": 0, "right": 0, "value": [1, 0]},
                       {"left": 0, "right": 1, "value": [0, 1]}]
    out["docs/not_leibniz.json"] = canonical_json(bad)
    witnesses = {
        "ok": {"eta": [[1, 0], [0, 1]], "xi": [[1]]},
        "ok_q": {"eta": [["1", "0"], ["1", "2"]], "xi": [["2"]]},
        "scaled": {"eta": [[1, 0], [0, 1]], "xi": [[2]]},
        "zero_xi": {"eta": [[1, 0], [1, 2]], "xi": [[0]]},
        "not_morphism": {"eta": [[0, 1], [1, 0]], "xi": [[1]]},
        "bad_shape": {"eta": [[1]], "xi": [[1]]},
    }
    for name, doc in witnesses.items():
        out[f"docs/witness_{name}.json"] = canonical_json(doc)
    out["docs/long_integer.json"] = canonical_json(serialize_algebra(
        LeibnizAlgebra.from_structure(F3, 1, {(0, 0): (1,)}))).replace("[1]", f"[{LONG}]")
    out["docs/witness_long_integer.json"] = f'{{"eta":[[{LONG}]],"xi":[[1]]}}\n'
    out["docs/long_scalar.json"] = canonical_json(serialize_algebra(
        LeibnizAlgebra.from_structure(FQ, 1, {(0, 0): (1,)}))).replace('["1"]', f'["{LONG}/3"]')
    # [e1, e1] = c e1 is not Leibniz unless c = 0: the residual of (0, 0, 0) is c^2 e1
    out["docs/long_fraction.json"] = canonical_json(serialize_algebra(
        LeibnizAlgebra.from_structure(FQ, 1, {(0, 0): (FQ.of(f"{'7' * 3000}/3"),)})))
    # [e1, e1] = e1 is not Leibniz: the residual of (0, 0, 0) is e1
    out["docs/dim64_one_bad_bracket.json"] = canonical_json(serialize_algebra(
        LeibnizAlgebra.from_structure(F3, 64, {(0, 0): (1,) + (0,) * 63})))
    return out


def shared_documents():
    """Two classify batches of copies and shared isoclinism data.

    docs/shared holds g1, g1 x F and F x g1, which differ but share one
    datum (q, C); byte-identical copies; one algebra again with other
    whitespace and key order; rational documents that reduce, under
    --field 3, to algebras also given over F_3; and two pairs of quadratic
    form algebras.  docs/shared_bad holds good documents and one malformed
    document under two names.
    """
    g1 = paper_g1(F3)
    a1 = LeibnizAlgebra.abelian(F3, 1)
    algebras = {
        "g1": g1,
        "g1xa1": direct_product(g1, a1),
        "a1xg1": direct_product(a1, g1),
        "g1_moved": change_basis(g1, Matrix.from_rows(F3, [(1, 1), (0, 2)])),
        "g2": paper_g2(F3),
        "ab2": LeibnizAlgebra.abelian(F3, 2),
        "ab3": LeibnizAlgebra.abelian(F3, 3),
        "square_11": quadratic_form_algebra(1, 1),
        "square_12": quadratic_form_algebra(1, 2),
        "q_g1xa1": direct_product(paper_g1(FQ), LeibnizAlgebra.abelian(FQ, 1)),
        "q_square_12": quadratic_form_algebra(1, 2, FQ),
        "q_square_22": quadratic_form_algebra(2, 2, FQ),
    }
    texts = {name: canonical_json(serialize_algebra(alg)) for name, alg in algebras.items()}
    texts["g1_copy"] = texts["zz_g1_copy"] = texts["g1"]
    texts["q_square_12_copy"] = texts["q_square_12"]
    doc = serialize_algebra(algebras["g1xa1"])
    texts["g1xa1_spaced"] = json.dumps(dict(reversed(doc.items())), indent=3) + "\n\n"
    out = {f"docs/shared/{name}.json": text for name, text in texts.items()}
    malformed = texts["g2"][:-20]
    for name, text in (("g1", texts["g1"]), ("g1_copy", texts["g1"]), ("m_bad", malformed),
                       ("m_bad_copy", malformed), ("q_square_12", texts["q_square_12"])):
        out[f"docs/shared_bad/{name}.json"] = text
    return out


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cases():
    return [run(argv + fmt) for argv in COMMANDS for fmt in ((), ("--format", "json"))]


if __name__ == "__main__":
    os.environ.pop("LEIBALG_MAX_GL", None)
    for rel, text in documents().items():
        path = HERE / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    os.chdir(HERE)
    recorded = cases()
    (HERE / "cases.json").write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    snapshots = construction_snapshots()
    lines = [f"{json.dumps(label)}: {json.dumps(snap, separators=(',', ':'))}"
             for label, snap in snapshots.items()]
    (HERE / "constructions.json").write_text("{\n" + ",\n".join(lines) + "\n}\n",
                                             encoding="utf-8")
    print(f"{len(recorded)} cases, {len(snapshots)} constructions", file=sys.stderr)
