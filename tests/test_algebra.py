import collections
import itertools
import random
import re
import typing
from fractions import Fraction

import pytest

from leibalg.algebra import (
    AlgebraError,
    AlgebraMorphism,
    LeibnizAlgebra,
    MorphismError,
    Violation,
    annihilator_ideal,
    direct_product,
    has_trivial_lie_commutator,
    ideal_closure,
    is_abelian,
    is_ideal,
    lie_center,
    lie_commutator,
    lie_commutator_of,
    liezation,
    quotient_algebra,
    subalgebra,
    subalgebra_closure,
    validate,
)
from leibalg.fields import Field
from leibalg.linalg import Matrix, span

from conftest import (
    F3,
    F5,
    FQ,
    LARGEST_PRIME,
    algebra_suite,
    all_vectors,
    brute_force_members,
    generated_algebras,
    lie_r2,
    nilpotent_n2,
    paper_g1,
    paper_g2,
    random_leibniz_algebra,
    random_vector,
)


# -- construction and validation ----------------------------------------------


def test_from_structure_sparse_and_nested_agree():
    sparse = LeibnizAlgebra.from_structure(FQ, 2, {(0, 0): (0, 1)})
    nested = LeibnizAlgebra.from_structure(
        FQ, 2, (((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))),
                ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))))
    assert sparse.structure == nested.structure
    assert sparse.basis_names == ("e1", "e2")
    assert typing.get_type_hints(LeibnizAlgebra)["field"] is Field


def test_structure_shape_errors():
    with pytest.raises(AlgebraError):
        LeibnizAlgebra.from_structure(FQ, 2, {(0, 2): (0, 1)})
    with pytest.raises(AlgebraError):
        LeibnizAlgebra.from_structure(FQ, 2, {(0, 0): (0, 1, 0)})


def test_bracket_rejects_vectors_of_the_wrong_length():
    g = paper_g1(F3)
    assert g.bracket((1, 0), (1, 0)) == (0, 1)
    for x, y in (((1, 0, 0), (1,)), ((1, 0), (1,)), ((1,), (1, 0)), ((1, 0), (1, 0, 0))):
        with pytest.raises(AlgebraError, match="dim 2"):
            g.bracket(x, y)
        with pytest.raises(AlgebraError, match="dim 2"):
            g.symmetric_bracket(x, y)


def test_validate_worked_examples():
    for field in (FQ, F3):
        assert validate(paper_g1(field)).ok
        assert validate(paper_g2(field)).ok
        assert validate(lie_r2(field)).ok
        assert validate(LeibnizAlgebra.abelian(field, 3)).ok


def test_validate_reports_offending_triples():
    bad = LeibnizAlgebra.from_structure(FQ, 1, {(0, 0): (1,)})
    report = validate(bad)
    assert not report.ok
    assert report.violations[0].triple == (0, 0, 0)
    assert report.violations[0].residual == (Fraction(1),)

    perturbed = LeibnizAlgebra.from_structure(
        FQ, 2, {(0, 0): (0, 1), (1, 0): (1, 0)})
    report = validate(perturbed)
    assert not report.ok
    assert {v.triple for v in report.violations} == {(0, 1, 0), (1, 1, 0)}


def defining_violations(alg):
    """The Leibniz identity on every basis triple, with full brackets."""
    f = alg.field
    out = []
    for i, j, k in itertools.product(range(alg.dim), repeat=3):
        bi, bj, bk = (alg.basis_vector(t) for t in (i, j, k))
        res = tuple(f.sub(x, f.sub(y, z)) for x, y, z in zip(
            alg.bracket(bi, alg.bracket(bj, bk)), alg.bracket(alg.bracket(bi, bj), bk),
            alg.bracket(alg.bracket(bi, bk), bj)))
        if any(res):
            out.append(Violation((i, j, k), res))
    return tuple(out)


def test_a_validation_report_is_true_iff_ok():
    assert bool(validate(paper_g1(F3))) is True
    assert bool(validate(LeibnizAlgebra.from_structure(F3, 1, {(0, 0): (1,)}))) is False


def test_validate_matches_the_defining_triple_loop():
    rng = random.Random(31)
    for f in (F3, F5, FQ):
        named = [paper_g1(f), paper_g2(f), lie_r2(f), nilpotent_n2(f),
                 direct_product(paper_g2(f), nilpotent_n2(f))]
        dense = []
        for _ in range(40):
            dim = rng.randint(1, 4)
            table = {(i, j): random_vector(rng, f, dim)
                     for i in range(dim) for j in range(dim) if rng.random() < 0.4}
            dense.append(LeibnizAlgebra.from_structure(f, dim, table))
        for alg in named + dense:
            report = validate(alg)
            expected = defining_violations(alg)
            assert report.violations == expected
            assert report.ok == (not expected)
            assert all(type(c) is type(f.zero) for v in report.violations for c in v.residual)
        assert all(validate(alg).ok for alg in named)
        assert sum(not validate(alg).ok for alg in dense) >= 20
    for alg in algebra_suite(seed=7, count=20, field=F5):
        assert validate(alg).violations == defining_violations(alg) == ()


def test_bracket_is_bilinear():
    rng = random.Random(21)
    alg = paper_g2(F3)
    for _ in range(30):
        x = random_vector(rng, F3, 3)
        y = random_vector(rng, F3, 3)
        z = random_vector(rng, F3, 3)
        c = rng.randrange(3)
        left = alg.bracket(tuple((c * a + b) % 3 for a, b in zip(x, y)), z)
        right = tuple((c * a + b) % 3 for a, b in
                      zip(alg.bracket(x, z), alg.bracket(y, z)))
        assert left == right


def test_symmetric_bracket():
    alg = paper_g1(FQ)
    assert alg.symmetric_bracket((1, 0), (0, 1)) == (Fraction(0), Fraction(1))
    assert alg.symmetric_bracket((1, 0), (1, 0)) == (Fraction(0), Fraction(2))
    # against sums of brackets: the symmetric tensor is not the reference
    rng = random.Random(22)
    for f in (F3, Field.prime(LARGEST_PRIME), FQ):
        for _ in range(15):
            dim = rng.randint(0, 4)
            table = {(i, j): random_vector(rng, f, dim)
                     for i in range(dim) for j in range(dim) if rng.random() < 0.6}
            alg = LeibnizAlgebra.from_structure(f, dim, table)
            basis = [alg.basis_vector(i) for i in range(dim)]
            for i, j in itertools.product(range(dim), repeat=2):
                entry = alg._symmetric[i][j]
                assert entry == tuple(map(f.add, alg.bracket(basis[i], basis[j]),
                                          alg.bracket(basis[j], basis[i])))
                assert all(type(c) is type(f.zero) for c in entry)
            for _ in range(5):
                x, y = random_vector(rng, f, dim), random_vector(rng, f, dim)
                assert alg.symmetric_bracket(x, y) == tuple(
                    map(f.add, alg.bracket(x, y), alg.bracket(y, x)))


# -- invariants: the worked example, frozen -----------------------------------


def test_lie_center_fixture_values():
    assert lie_center(paper_g1(FQ)).dim == 0
    z2 = lie_center(paper_g2(FQ))
    assert z2.basis == ((Fraction(0), Fraction(1), Fraction(-1)),)


def test_lie_commutator_fixture_values():
    com1 = lie_commutator_of(paper_g1(FQ))
    assert com1.basis == ((Fraction(0), Fraction(1)),)
    com2 = lie_commutator_of(paper_g2(FQ))
    assert com2.basis == ((Fraction(0), Fraction(0), Fraction(1)),)


def test_annihilator_fixture_values():
    assert annihilator_ideal(paper_g1(FQ)).basis == ((Fraction(0), Fraction(1)),)
    assert annihilator_ideal(paper_g2(FQ)).basis == (
        (Fraction(0), Fraction(0), Fraction(1)),)


def test_quotients_of_worked_examples():
    g1 = paper_g1(FQ)
    q1 = quotient_algebra(g1, lie_center(g1))
    assert q1.algebra.structure == g1.structure  # Z_Lie(g1) = 0

    g2 = paper_g2(FQ)
    q2 = quotient_algebra(g2, lie_center(g2))
    assert q2.algebra.dim == 2
    assert q2.algebra.basis_names == ("a1", "a3")
    assert q2.algebra.structure == paper_g1(FQ).structure


def test_lie_algebra_has_full_center_and_trivial_commutator():
    r2 = lie_r2(FQ)
    assert lie_center(r2).dim == 2
    assert lie_commutator_of(r2).dim == 0
    assert has_trivial_lie_commutator(r2)
    assert not is_abelian(r2)


# -- invariant structure properties --------------------------------------------


def lie_central(alg, z):
    """[b_j, z] + [z, b_j] = 0 for every j, summed from brackets."""
    f = alg.field
    return all(not any(map(f.add, alg.bracket(alg.basis_vector(j), z),
                           alg.bracket(z, alg.basis_vector(j))))
               for j in range(alg.dim))


def test_lie_center_is_two_sided_ideal_random(suite):
    for alg in suite[:60]:
        z = lie_center(alg)
        assert is_ideal(alg, z)
        # exactly the Lie-central vectors of F_3^dim, dim <= 3, by enumeration
        assert brute_force_members(z) == {
            v for v in all_vectors(F3, alg.dim) if lie_central(alg, v)}


def test_commutator_span_already_closed_random(suite):
    # polarization in char != 2: the span of symmetric brackets is an ideal
    for alg in suite[:60]:
        vectors = [alg.symmetric_bracket(alg.basis_vector(i), alg.basis_vector(j))
                   for i in range(alg.dim) for j in range(i, alg.dim)]
        raw = span(alg.field, alg.dim, vectors)
        assert raw == lie_commutator_of(alg)


def squares_ideal(alg):
    """The ideal generated by the squares [x, x], from the polarized
    generators [b_i, b_i] and [b_i + b_j, b_i + b_j], i < j."""
    gens = [alg.bracket_basis(i, i) for i in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            v = tuple(map(alg.field.add, alg.basis_vector(i), alg.basis_vector(j)))
            gens.append(alg.bracket(v, v))
    return ideal_closure(alg, gens)


def test_annihilator_equals_lie_commutator_in_odd_characteristic(suite):
    over_q = [paper_g1(FQ), paper_g2(FQ), nilpotent_n2(FQ), lie_r2(FQ),
              direct_product(paper_g2(FQ), nilpotent_n2(FQ))]
    for alg in suite + algebra_suite(seed=5, count=40, field=F5) + over_q:
        assert annihilator_ideal(alg) == squares_ideal(alg)


def test_liezation_is_lie(suite):
    for alg in suite[:40]:
        lz = liezation(alg)
        assert validate(lz.algebra).ok
        assert annihilator_ideal(lz.algebra).dim == 0
        for i in range(lz.algebra.dim):
            for j in range(lz.algebra.dim):
                assert not any(lz.algebra.symmetric_bracket(
                    lz.algebra.basis_vector(i), lz.algebra.basis_vector(j)))


def test_ideal_closure_fixed_point(suite):
    rng = random.Random(22)
    for alg in suite[:40]:
        vecs = [random_vector(rng, F3, alg.dim) for _ in range(2)]
        closed = ideal_closure(alg, span(F3, alg.dim, vecs))
        assert is_ideal(alg, closed)
        assert ideal_closure(alg, closed) == closed


def test_lie_commutator_relative_version():
    g2 = paper_g2(FQ)
    z = lie_center(g2)
    full = span(FQ, 3, Matrix.identity(FQ, 3).entries)
    assert lie_commutator(g2, z, full).dim == 0
    assert lie_commutator(g2, full, full) == lie_commutator_of(g2)


# -- quotients, products, subalgebras ------------------------------------------


def test_quotient_requires_ideal():
    g1 = paper_g1(FQ)
    not_ideal = span(FQ, 2, [(1, 0)])
    assert not is_ideal(g1, not_ideal)
    with pytest.raises(AlgebraError, match="ideal"):
        quotient_algebra(g1, not_ideal)


def test_quotient_projection_is_morphism(suite):
    for alg in suite[:30]:
        q = quotient_algebra(alg, lie_center(alg))
        assert q.projection.source is alg
        assert q.projection.is_surjective
        assert validate(q.algebra).ok


def test_direct_product_blocks():
    a = paper_g1(FQ)
    b = LeibnizAlgebra.abelian(FQ, 1)
    prod = direct_product(a, b)
    assert prod.dim == 3
    assert validate(prod).ok
    assert prod.bracket((1, 0, 0), (1, 0, 0)) == (Fraction(0), Fraction(1), Fraction(0))
    assert prod.bracket((0, 0, 1), (0, 0, 1)) == (Fraction(0),) * 3
    assert prod.basis_names == ("l_e1", "l_e2", "r_e1")


def test_subalgebra_construction_and_rejection():
    g2 = paper_g2(FQ)
    s = span(FQ, 3, [(1, 0, 0), (0, 0, 1)])
    sub = subalgebra(g2, s)
    assert sub.algebra.dim == 2
    assert sub.algebra.structure == paper_g1(FQ).structure
    assert validate(sub.algebra).ok

    not_closed = span(FQ, 3, [(1, 0, 0)])
    with pytest.raises(AlgebraError, match="closed"):
        subalgebra(g2, not_closed)
    assert subalgebra_closure(g2, not_closed) == span(FQ, 3, [(1, 0, 0), (0, 0, 1)])


def brackets_lie_in(alg, s):
    """(left, right, closed) for s: whether every [b_j, v], every [v, b_j] and
    every [u, v] lies in s, for u, v in s's basis, by brackets of vectors
    rather than the tensor reads of ideal_closure."""
    units = [alg.basis_vector(j) for j in range(alg.dim)]
    left = all(s.contains(alg.bracket(e, v)) for v in s.basis for e in units)
    right = all(s.contains(alg.bracket(v, e)) for v in s.basis for e in units)
    closed = all(s.contains(alg.bracket(u, v)) for u in s.basis for v in s.basis)
    return left, right, closed


def seeded_spans(rng, alg):
    """Random spans of one and two vectors, the subalgebras they generate, and
    the Lie-center and Lie-commutator, alone and with a random vector added."""
    f, n = alg.field, alg.dim
    out = []
    for count in (1, 2):
        s = span(f, n, [random_vector(rng, f, n) for _ in range(count)])
        out += [s, subalgebra_closure(alg, s)]
    for ideal in (lie_center(alg), lie_commutator_of(alg)):
        out += [ideal, span(f, n, list(ideal.basis) + [random_vector(rng, f, n)])]
    return out


def test_ideal_and_subalgebra_tests_agree_with_the_brackets(suite, quotient_suite):
    rng = random.Random(2609)
    generated = [g for field in (F3, F5) for seed in range(3)
                 for g in generated_algebras(field, seed)]
    seen = collections.Counter()
    for alg in suite + quotient_suite + generated:
        for s in seeded_spans(rng, alg):
            left, right, closed = brackets_lie_in(alg, s)
            seen[left, right, closed] += 1
            assert is_ideal(alg, s) == (left and right)
            if closed:
                sub = subalgebra(alg, s)
                assert sub.algebra.dim == s.dim
                assert sub.inclusion.matrix.columns() == list(s.basis)
            else:
                with pytest.raises(AlgebraError, match="^subspace is not closed under the bracket$"):
                    subalgebra(alg, s)
            if left and right:
                assert quotient_algebra(alg, s).algebra.dim == alg.dim - s.dim
            else:
                with pytest.raises(AlgebraError, match="^quotient by a subspace that is not "
                                                       "a two-sided ideal$"):
                    quotient_algebra(alg, s)
    # one-sided ideals of either side, other closed spans and spans that are
    # not closed all occur
    assert all(seen[case] >= 20 for case in ((False, True, True), (True, False, True),
                                             (False, False, True), (False, False, False))), seen


def test_morphism_validation():
    g1 = paper_g1(FQ)
    with pytest.raises(MorphismError):
        AlgebraMorphism(g1, g1, Matrix.from_rows(FQ, [(0, 1), (1, 0)]))
    ident = AlgebraMorphism.identity(g1)
    assert ident.is_bijective
    # the automorphisms of g1 are e1 -> e1 + c*e2, e2 -> (1+c)*e2
    phi = AlgebraMorphism(g1, g1, Matrix.from_rows(FQ, [(1, 0), (1, 2)]))
    assert phi.compose(phi).matrix == Matrix.from_rows(FQ, [(1, 0), (3, 4)])
    assert phi.inverse().compose(phi).matrix == Matrix.identity(FQ, 2)


def test_morphism_injectivity_and_surjectivity():
    a1, a2 = LeibnizAlgebra.abelian(F3, 1), LeibnizAlgebra.abelian(F3, 2)
    inclusion = AlgebraMorphism(a1, a2, Matrix.from_rows(F3, [(1,), (0,)]))
    projection = AlgebraMorphism(a2, a1, Matrix.from_rows(F3, [(1, 0)]))
    assert (inclusion.is_injective, inclusion.is_surjective) == (True, False)
    assert (projection.is_injective, projection.is_surjective) == (False, True)
    assert AlgebraMorphism.identity(paper_g1(F3)).is_injective


def test_abelian_detection(suite):
    assert is_abelian(LeibnizAlgebra.abelian(F3, 2))
    assert not is_abelian(paper_g1(F3))
    for alg in suite[:40]:
        tensor_zero = all(not any(v) for row in alg.structure for v in row)
        assert is_abelian(alg) == tensor_zero


def test_random_generator_yields_valid_algebras():
    rng = random.Random(23)
    for _ in range(20):
        alg = random_leibniz_algebra(rng)
        assert validate(alg).ok
        assert 1 <= alg.dim <= 3


def test_a_broken_morphism_or_product_precondition_raises_its_error():
    a1, a2 = LeibnizAlgebra.abelian(F3, 1), LeibnizAlgebra.abelian(F3, 2)
    zero = AlgebraMorphism(a1, a1, Matrix.zeros(F3, 1, 1))  # brackets vanish: a morphism
    cases = [
        (MorphismError, "morphism composition mismatch",
         lambda: AlgebraMorphism.identity(a1).compose(AlgebraMorphism.identity(a2))),
        (MorphismError, "morphism is not invertible", zero.inverse),
        (AlgebraError, "direct product over different fields",
         lambda: direct_product(a1, LeibnizAlgebra.abelian(F5, 1))),
        (AlgebraError, "quotient of F^2 by a subspace of F^3",
         lambda: quotient_algebra(a2, span(F3, 3, [(1, 0, 0)]))),
    ]
    for error, message, call in cases:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
