"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The criterion lines are also echoed in the terminal summary (see conftest).
Criterion 4 is asserted in its provable form: the class of the zero algebra
consists exactly of the algebras with vanishing Lie-commutator.  Those are
the algebras that are abelian after Liezation, i.e. the Lie algebras; every
honestly abelian algebra is among them, but so is every non-abelian Lie
algebra (for example span{x, y} with [x, y] = x = -[y, x], whose Lie-center
is everything and whose Lie-commutator is zero), so "no non-abelian algebra
lands there" is provably false and is not asserted.
"""

import contextlib
import json
import os
import subprocess
import sys
import time

import pytest

from leibalg.algebra import (
    LeibnizAlgebra,
    AlgebraMorphism,
    direct_product,
    ideal_closure,
    is_abelian,
    lie_center,
    lie_commutator_of,
    quotient_algebra,
    subalgebra,
    subalgebra_closure,
)
from leibalg.constructions import (
    algebras_isoclinic,
    compose_witnesses,
    diagonal_pullback,
    invert_witness,
    is_isoclinic_algebra_hom,
    is_isoclinic_homomorphism,
)
from leibalg.extensions import canonical_extension
from leibalg.homology import check_sequence_nine, check_sequence_tail, theta_image
from leibalg.isoclinism import (
    IsoclinismWitness,
    check_witness,
    classify,
    derive_xi,
    identity_witness,
    search_isoclinism,
)
from leibalg.documents import canonical_json, serialize_algebra
from leibalg.linalg import Matrix, intersect, span, subspace_sum

from conftest import F3, F5, FQ, paper_g1, paper_g2, record_acceptance


@contextlib.contextmanager
def criterion(number, label, note=""):
    outcome = {"ok": False}
    try:
        yield outcome
        outcome["ok"] = True
    finally:
        record_acceptance(number, label, outcome["ok"], note)


@pytest.fixture(scope="module")
def classified(suite):
    """One shared classification of the suite plus the zero-algebra anchor.

    Returns (algebras, classification, witnessed) where witnessed lists every
    (extension, extension, witness) triple the classification search found.
    """
    algebras = list(suite) + [LeibnizAlgebra.abelian(F3, 0)]
    result = classify(algebras)
    witnessed = []
    for cls in result.classes:
        rep_ext = result.extensions[cls.representative]
        for member in cls.members:
            if member == cls.representative:
                continue
            witnessed.append((rep_ext, result.extensions[member],
                              cls.witnesses[member]))
    return algebras, result, witnessed


def test_criterion_1_worked_example_reproduction():
    with criterion(1, "worked example reproduction"):
        g1 = paper_g1(FQ)
        g2 = paper_g2(FQ)
        assert lie_center(g1).dim == 0
        assert lie_center(g2).basis == ((0, 1, -1),)  # span{a2 - a3}
        assert lie_commutator_of(g1).basis == ((0, 1),)  # span{e2}
        assert lie_commutator_of(g2).basis == ((0, 0, 1),)  # span{a3}
        q1 = canonical_extension(g1).q
        assert q1.dim == 2 and q1.structure == g1.structure
        q2 = canonical_extension(g2).q
        assert q2.dim == 2
        assert q2.basis_names == ("a1", "a3")
        assert q2.structure == q1.structure


def test_criterion_2_known_witness_and_search():
    with criterion(2, "known witness; GL(2) searches under 1 s"):
        e1 = canonical_extension(paper_g1(FQ))
        e2 = canonical_extension(paper_g2(FQ))
        eta = AlgebraMorphism(e1.q, e2.q, Matrix.identity(FQ, 2))
        xi = derive_xi(e1, e2, eta)
        assert xi is not None and xi.matrix.entries == ((1,),)
        assert check_witness(e1, e2, IsoclinismWitness(eta, xi)).ok

        for field in (F3, F5):
            start = time.perf_counter()
            a = canonical_extension(paper_g1(field))
            b = canonical_extension(paper_g2(field))
            w = search_isoclinism(a, b)
            elapsed = time.perf_counter() - start
            assert w is not None
            assert check_witness(a, b, w).ok
            assert elapsed < 1.0


def test_criterion_3_equivalence_relation(classified):
    algebras, result, witnessed = classified
    with criterion(3, "classification is an equivalence relation",
                   note=f"{len(algebras)} algebras, {len(result.classes)} classes"):
        assert len(algebras) >= 200
        seen = sorted(i for cls in result.classes for i in cls.members)
        assert seen == list(range(len(algebras)))  # a partition

        for e1, e2, w in witnessed:
            assert check_witness(e1, e2, w).ok

        # reflexive, symmetric, transitive at the witness level
        for cls in result.classes[:40]:
            assert check_witness(result.extensions[cls.representative],
                                 result.extensions[cls.representative],
                                 identity_witness(result.extensions[cls.representative])).ok
        for e1, e2, w in witnessed:
            assert check_witness(e2, e1, invert_witness(w)).ok
        for cls in result.classes:
            ext = [(m, result.extensions[m]) for m in cls.members[:4]
                   if m != cls.representative]
            for (m1, a), (m2, b) in zip(ext, ext[1:]):
                through = compose_witnesses(invert_witness(cls.witnesses[m1]),
                                            cls.witnesses[m2])
                assert check_witness(a, b, through).ok


def test_criterion_4_zero_class(classified):
    algebras, result, _ = classified
    zero_index = len(algebras) - 1  # the appended zero algebra
    with criterion(4, "zero class = vanishing Lie-commutator",
                   note="class of 0 is the Lie algebras; abelian subset verified"):
        zero_class = result.class_of(zero_index)
        abelian_count = lie_count = 0
        for idx, alg in enumerate(algebras):
            in_zero = result.class_of(idx) == zero_class
            assert in_zero == (lie_commutator_of(alg).dim == 0)
            if is_abelian(alg):
                abelian_count += 1
                assert in_zero
            elif lie_commutator_of(alg).dim == 0:
                lie_count += 1
        # both populations are present, so neither assertion is vacuous
        assert abelian_count >= 50 and lie_count >= 1


def test_criterion_5_natural_maps(suite, rng):
    with criterion(5, "products, central quotients, embeddings"):
        # g is isoclinic to g x a for random abelian a
        for alg in suite:
            a = LeibnizAlgebra.abelian(F3, rng.randrange(3))
            assert algebras_isoclinic(alg, direct_product(alg, a)) is not None

        # the projection g -> g/n is isoclinic iff n misses [g,g]_Lie
        hits = misses = 0
        for alg in suite:
            z = lie_center(alg)
            if z.dim == 0:
                continue
            picked = span(F3, alg.dim, [z.basis[rng.randrange(z.dim)]])
            n = ideal_closure(alg, picked)
            quo = quotient_algebra(alg, n)
            expected = intersect(n, lie_commutator_of(alg)).dim == 0
            assert bool(is_isoclinic_algebra_hom(quo.projection)) == expected
            if expected:
                hits += 1
                if hits <= 10:
                    assert algebras_isoclinic(alg, quo.algebra) is not None
            else:
                misses += 1
        assert hits >= 10 and misses >= 3

        # the embedding h -> g is isoclinic iff h + Z_Lie(g) = g
        covered = uncovered = 0
        for alg in suite:
            if alg.dim < 2:
                continue
            seed_vec = tuple(rng.randrange(3) for _ in range(alg.dim))
            sub = subalgebra(alg, subalgebra_closure(
                alg, span(F3, alg.dim, [seed_vec])))
            covers = subspace_sum(sub.inclusion.image_space(),
                                  lie_center(alg)).dim == alg.dim
            assert is_isoclinic_algebra_hom(sub.inclusion) == covers
            if covers:
                covered += 1
                if covered <= 10 and sub.algebra.dim < alg.dim:
                    assert algebras_isoclinic(sub.algebra, alg) is not None
            else:
                uncovered += 1
        assert covered >= 10 and uncovered >= 3


def test_criterion_6_diagonal_pullback(classified):
    _, _, witnessed = classified
    with criterion(6, "pullback triples and the graph of xi",
                   note=f"{len(witnessed)} found pairs"):
        assert witnessed
        for e1, e2, w in witnessed:
            pb = diagonal_pullback(e1, e2, w.eta)
            assert is_isoclinic_homomorphism(pb.to_first)
            assert is_isoclinic_homomorphism(pb.to_second)
            # [g~, g~]_Lie = {(x, xi(x)) : x in [g1,g1]_Lie} inside g1 x g2
            com_tilde = lie_commutator_of(pb.extension.g)
            incl = pb.to_first.beta.matrix.vstack(pb.to_second.beta.matrix)
            embedded = span(F3, e1.g.dim + e2.g.dim,
                            [incl.apply(b) for b in com_tilde.basis])
            graph = span(F3, e1.g.dim + e2.g.dim,
                         [tuple(x) + tuple(w.xi.apply_ambient(x))
                          for x in w.xi.domain.basis])
            assert embedded == graph


def test_criterion_7_homology_exactness(suite, rng):
    extensions = [canonical_extension(alg) for alg in suite]
    from leibalg.constructions import central_extension_from_ideal
    for alg in suite:
        z = lie_center(alg)
        if z.dim > 1:
            picked = span(F3, alg.dim, [z.basis[rng.randrange(z.dim)]])
            extensions.append(
                central_extension_from_ideal(alg, ideal_closure(alg, picked)))
    with criterion(7, "six-term tail and sequence nine exact",
                   note=f"{len(extensions)} extensions"):
        for e in extensions:
            assert check_sequence_tail(e).ok
            assert check_sequence_nine(e).ok
            assert (lie_commutator_of(e.g).dim
                    == theta_image(e).dim + lie_commutator_of(e.q).dim)


def test_criterion_8_witness_identities(classified):
    _, _, witnessed = classified
    extra = []
    for field in (F3, F5):
        a = canonical_extension(paper_g1(field))
        b = canonical_extension(paper_g2(field))
        extra.append((a, b, search_isoclinism(a, b)))
    with criterion(8, "pi2 . xi = eta . pi1 and xi(n1 ^ com1) = n2 ^ com2",
                   note=f"{len(witnessed) + len(extra)} witnesses"):
        for e1, e2, w in witnessed + extra:
            for c in w.xi.domain.basis:
                assert e2.pi.apply(w.xi.apply_ambient(c)) == w.eta.apply(e1.pi.apply(c))
            part1 = intersect(e1.chi.image_space(), w.xi.domain)
            part2 = intersect(e2.chi.image_space(), w.xi.codomain)
            if part1.dim == 0:
                assert part2.dim == 0
            else:
                mapped = span(e1.g.field, e2.g.dim,
                              [w.xi.apply_ambient(v) for v in part1.basis])
                assert mapped == part2


def test_criterion_9_cli_byte_determinism(tmp_path, suite):
    docs = tmp_path / "docs"
    docs.mkdir()
    for idx, alg in enumerate(suite[:8]):
        (docs / f"alg{idx}.json").write_text(
            canonical_json(serialize_algebra(alg)), encoding="utf-8")
    commands = [
        ["invariants", "catalog:paper_g2", "--seed", "42"],
        ["validate", "catalog:paper_g1", "--seed", "42"],
        ["isoclinic", "catalog:paper_g1", "catalog:paper_g2",
         "--field", "3", "--seed", "42"],
        ["classify", str(docs), "--seed", "42"],
        ["extension", "pullback", "catalog:paper_g1", "catalog:paper_g2",
         "--field", "3", "--seed", "42"],
        ["catalog", "show", "paper_g2"],
    ]
    with criterion(9, "CLI reports byte-identical across runs",
                   note=f"{len(commands)} commands, fresh interpreters"):
        for argv in commands:
            runs = []
            for hash_seed in ("101", "202"):
                env = dict(os.environ)
                env["PYTHONHASHSEED"] = hash_seed
                proc = subprocess.run(
                    [sys.executable, "-m", "leibalg", *argv, "--format", "json"],
                    capture_output=True, env=env, timeout=120)
                assert proc.returncode == 0, proc.stderr
                runs.append(proc.stdout)
            assert runs[0] == runs[1]
