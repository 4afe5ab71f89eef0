import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from leibalg.algebra import (
    AlgebraMorphism,
    LeibnizAlgebra,
    annihilator_ideal,
    direct_product,
    lie_center,
    lie_commutator_of,
    restrict_to_lie_commutators,
    subalgebra,
)
from leibalg.constructions import (
    ExtensionMorphism,
    backward_extension,
    central_extension_from_ideal,
    diagonal_pullback,
    is_isoclinic_homomorphism,
    product_with_abelian,
    quotient_extension_by_alpha,
)
from leibalg.extensions import (
    CentralExtension,
    ExtensionError,
    canonical_extension,
    commutator_map,
    is_stem_extension,
    validate_extension,
)
from leibalg.isoclinism import IsoclinismDatum, search_isoclinism
from leibalg.linalg import Matrix, bilinear, intersect, span, zero_subspace

from conftest import (
    F3,
    F5,
    FQ,
    change_basis,
    fixed_gl,
    lie_r2,
    nilpotent_n2,
    paper_g1,
    paper_g2,
    random_gl,
    random_vector,
)


def canonical_pair(field=FQ):
    return canonical_extension(paper_g1(field)), canonical_extension(paper_g2(field))


# -- canonical extensions and the validator -----------------------------------


def test_canonical_extensions_validate():
    for field in (FQ, F3):
        e1, e2 = canonical_pair(field)
        assert validate_extension(e1).ok
        assert validate_extension(e2).ok
        assert e1.n.dim == 0 and e1.q.dim == 2
        assert e2.n.dim == 1 and e2.q.dim == 2


def test_canonical_extension_of_lie_algebra_has_zero_quotient():
    e = canonical_extension(lie_r2(FQ))
    assert e.n.dim == 2 and e.q.dim == 0
    assert validate_extension(e).ok


def test_section_is_right_inverse(suite):
    for alg in suite[:40]:
        e = canonical_extension(alg)
        assert e.pi.matrix @ e.section == Matrix.identity(alg.field, e.q.dim)


def test_validator_rejects_non_lie_central_kernel():
    # the annihilator of paper_g2 is not inside its Lie-center:
    # [a3, a1] + [a1, a3] = a3 != 0
    g2 = paper_g2(FQ)
    bad = central_extension_from_ideal(g2, annihilator_ideal(g2))
    report = validate_extension(bad)
    assert not report.ok
    assert report.failures == ("[chi(n), g]_Lie != 0 (extension is not Lie-central)",)


def test_an_extension_report_is_true_iff_ok():
    g2 = paper_g2(F3)
    assert bool(validate_extension(canonical_extension(g2))) is True
    assert bool(validate_extension(central_extension_from_ideal(g2, annihilator_ideal(g2)))) is False


def test_validator_accepts_sub_center_kernels(suite):
    rng = random.Random(31)
    for alg in suite[:25]:
        z = lie_center(alg)
        if z.dim == 0:
            continue
        picked = span(alg.field, alg.dim, [z.basis[rng.randrange(z.dim)]])
        from leibalg.algebra import ideal_closure
        e = central_extension_from_ideal(alg, ideal_closure(alg, picked))
        assert validate_extension(e).ok


def test_validator_catches_broken_squares():
    e1, e2 = canonical_pair()
    broken = CentralExtension(e1.n, e1.g, e1.q, e1.chi,
                              e1.pi, Matrix.zeros(FQ, e1.g.dim, e1.q.dim))
    report = validate_extension(broken)
    assert not report.ok
    assert any("section" in f for f in report.failures)


def test_validator_reports_each_broken_map():
    # hand-broken variants of 0 -> Z_Lie -> g2 -> g2/Z_Lie -> 0 over Q, each
    # with the exact failures it must produce, in the validator's order
    e1, e2 = canonical_pair()
    f, n, g, q = FQ, e2.n, e2.g, e2.q

    def report(**parts):
        fields = dict(n=n, g=g, q=q, chi=e2.chi, pi=e2.pi, section=e2.section)
        fields.update(parts)
        return validate_extension(CentralExtension(**fields)).failures

    assert report() == ()
    # n and q replaced by equal-dimensional algebras with other basis names
    assert report(n=LeibnizAlgebra.abelian(f, 1)) == ("chi endpoints do not match n -> g",)
    assert report(q=e1.q) == ("pi endpoints do not match g -> q",)
    zero_chi = AlgebraMorphism(n, g, Matrix.zeros(f, g.dim, n.dim))
    assert report(chi=zero_chi) == ("chi is not injective", "image(chi) != kernel(pi)")
    zero_pi = AlgebraMorphism(g, q, Matrix.zeros(f, q.dim, g.dim))
    assert report(pi=zero_pi) == ("pi is not surjective", "image(chi) != kernel(pi)",
                                  "section is not a right inverse of pi")
    # g2 x F r has Lie-center span{a2 - a3, r}; extend by span{r}, then let
    # chi hit a2 - a3 instead: still injective and Lie-central, not exact
    gr = direct_product(paper_g2(FQ), LeibnizAlgebra.abelian(FQ, 1))
    e = central_extension_from_ideal(gr, span(FQ, 4, [(0, 0, 0, 1)]))
    assert validate_extension(e).ok
    off = AlgebraMorphism(e.n, gr, Matrix.from_columns(FQ, [(0, 1, -1, 0)]))
    assert validate_extension(CentralExtension(e.n, gr, e.q, off, e.pi, e.section)).failures == (
        "image(chi) != kernel(pi)",)


def test_validator_reports_chi_into_another_algebra():
    # chi(n) in an algebra other than g is not inside Z_Lie(g): the report
    # lists the failures instead of comparing vectors of different lengths
    e = canonical_pair()[1]
    for target in (direct_product(e.g, LeibnizAlgebra.abelian(FQ, 1)),
                   LeibnizAlgebra.abelian(FQ, 2)):
        rows = e.chi.matrix.entries + ((0,),) * (target.dim - e.g.dim)
        chi = AlgebraMorphism(e.n, target, Matrix.from_rows(FQ, rows[:target.dim]))
        report = validate_extension(CentralExtension(e.n, e.g, e.q, chi, e.pi, e.section))
        assert report.failures == ("chi endpoints do not match n -> g",
                                   "image(chi) != kernel(pi)",
                                   "[chi(n), g]_Lie != 0 (extension is not Lie-central)")


# -- the commutator map --------------------------------------------------------


def test_commutator_map_fixture_values():
    e1, e2 = canonical_pair()
    # q1 = g1 since Z_Lie(g1) = 0; values land in [g1,g1]_Lie = span{e2}, and
    # q2 has coset representatives (a1, a3), its values in span{a3}: both
    # tables hold C in Lie-commutator coordinates, C(b1, b1) = 2, C(b1, b2) = 1
    c1, c2 = commutator_map(e1), commutator_map(e2)
    assert c1 == c2 == (((Fraction(2),), (Fraction(1),)), ((Fraction(1),), (Fraction(0),)))
    com1, com2 = lie_commutator_of(e1.g), lie_commutator_of(e2.g)
    assert com1.vector_from_coords(c1[0][0]) == (Fraction(0), Fraction(2))
    assert com1.vector_from_coords(c1[0][1]) == (Fraction(0), Fraction(1))
    assert com1.vector_from_coords(c1[1][1]) == (Fraction(0), Fraction(0))
    assert com2.vector_from_coords(c2[0][0]) == (Fraction(0), Fraction(0), Fraction(2))
    assert com2.vector_from_coords(c2[0][1]) == (Fraction(0), Fraction(0), Fraction(1))
    assert com2.vector_from_coords(c2[1][1]) == (Fraction(0), Fraction(0), Fraction(0))


@pytest.fixture(scope="module")
def lifted(quotient_suite):
    """Extensions over F_3 with their lifts.  First the canonical extensions
    of the first 25 suite algebras with a nonzero quotient, whose section
    columns are unit vectors.  Then, for the first 15 of them, a backward
    extension along the eta that a random P: g -> P.g induces, and the
    diagonal pullback of that backward extension and canonical(P.g) along the
    same eta; their section columns need not be unit vectors."""
    rng = random.Random(34)
    out = [canonical_extension(g) for g in quotient_suite[:25]]
    for g in quotient_suite[:15]:
        p = random_gl(rng, F3, g.dim)
        e1, e2 = canonical_extension(g), canonical_extension(change_basis(g, p))
        eta = AlgebraMorphism(e1.q, e2.q, e2.pi.matrix @ p @ e1.section)
        bw = backward_extension(e2, eta).extension
        out += [bw, diagonal_pullback(bw, e2, eta).extension]
    assert all(validate_extension(e).ok for e in out)
    return out


def has_unit_lifts(e):
    return all(sorted(c) == [0] * (len(c) - 1) + [1] for c in e.section.columns())


def test_commutator_map_symmetric_bilinear(lifted):
    rng = random.Random(32)
    assert sum(not has_unit_lifts(e) for e in lifted) >= 20
    for e in lifted:
        c = commutator_map(e)
        assert len(c) == e.q.dim
        assert all(len(v) == lie_commutator_of(e.g).dim for row in c for v in row)
        for _ in range(5):
            x = random_vector(rng, F3, e.q.dim)
            y = random_vector(rng, F3, e.q.dim)
            xy = bilinear(F3, c, x, y)
            assert xy == bilinear(F3, c, y, x)
            two_x = tuple((2 * t) % 3 for t in x)
            assert bilinear(F3, c, two_x, y) == tuple((2 * t) % 3 for t in xy)


def test_commutator_map_independent_of_lift(lifted):
    rng = random.Random(33)
    checked = 0
    for e in lifted:
        c = commutator_map(e)
        if e.n.dim == 0:
            continue
        checked += not has_unit_lifts(e)
        for _ in range(5):
            x = random_vector(rng, F3, e.q.dim)
            y = random_vector(rng, F3, e.q.dim)
            shift = e.chi.apply(random_vector(rng, F3, e.n.dim))
            lifted_x = tuple((a + s) % 3 for a, s in zip(e.section.apply(x), shift))
            value = lie_commutator_of(e.g).vector_from_coords(bilinear(F3, c, x, y))
            assert e.g.symmetric_bracket(lifted_x, e.section.apply(y)) == value
    assert checked >= 10


def test_commutator_map_matches_coordinates_of_the_symmetric_brackets(lifted):
    # the reference reads each C(b_i, b_j) through coords_of, which reduces
    # the symmetric bracket of the lifts against the Lie-commutator's basis
    assert sum(not has_unit_lifts(e) for e in lifted) >= 20
    for e in lifted:
        com, lifts = lie_commutator_of(e.g), e.section.columns()
        assert commutator_map(e) == tuple(
            tuple(com.coords_of(e.g.symmetric_bracket(x, y)) for y in lifts) for x in lifts)


def test_commutator_values_span_lie_commutator(quotient_suite):
    for alg in quotient_suite[:40]:
        e = canonical_extension(alg)
        com = lie_commutator_of(alg)
        values = [com.vector_from_coords(v) for row in commutator_map(e) for v in row]
        assert span(F3, alg.dim, values) == com


def test_commutator_radical_of_canonical_extension_is_zero(quotient_suite):
    # for e_g the radical is pi(Z_Lie(g)) = 0
    for alg in quotient_suite[:40]:
        assert IsoclinismDatum.of(canonical_extension(alg)).key[2] == 0


def test_derived_objects_are_computed_once_and_leave_equality_alone():
    for g in (paper_g2(FQ), paper_g1(F3), lie_r2(F5),
              direct_product(paper_g1(F5), nilpotent_n2(F5))):
        assert lie_center(g) is lie_center(g)
        assert lie_commutator_of(g) is lie_commutator_of(g)
        assert annihilator_ideal(g) is lie_commutator_of(g)
        e = canonical_extension(g)
        assert e.g is g and e.n.dim == lie_center(g).dim
        assert commutator_map(e) is commutator_map(e)
        assert IsoclinismDatum.of(e).table is commutator_map(e)
        # the caches live beside the fields, which alone decide == and hash
        fresh = LeibnizAlgebra(g.field, g.dim, g.structure, g.basis_names)
        assert g == fresh and hash(g) == hash(fresh)
        fresh_e = canonical_extension(fresh)
        assert e == fresh_e and hash(e) == hash(fresh_e)
        assert commutator_map(e) == commutator_map(fresh_e)


# -- extension morphisms ---------------------------------------------------------


def test_extension_morphism_square_validation():
    e1, e2 = canonical_pair(F3)
    w = search_isoclinism(e1, e2)
    bw = backward_extension(e2, w.eta)
    triple = bw.iso
    assert triple.is_isomorphism
    zero_beta = AlgebraMorphism(bw.extension.g, e2.g,
                                Matrix.zeros(F3, e2.g.dim, bw.extension.g.dim))
    with pytest.raises(ExtensionError, match="square"):
        ExtensionMorphism(bw.extension, e2, triple.alpha, zero_beta, triple.gamma)


# -- constructions ----------------------------------------------------------------


def test_backward_extension_shape_and_iso():
    e1, e2 = canonical_pair(F3)
    w = search_isoclinism(e1, e2)
    bw = backward_extension(e2, w.eta)
    assert bw.extension.g.dim == e2.g.dim
    assert bw.extension.q is e1.q
    assert validate_extension(bw.extension).ok
    assert bw.iso.is_isomorphism
    # the carried triple really is a morphism of extensions onto e2
    assert bw.iso.source is bw.extension and bw.iso.target is e2


def test_diagonal_pullback_shape():
    e1, e2 = canonical_pair(F3)
    w = search_isoclinism(e1, e2)
    pb = diagonal_pullback(e1, e2, w.eta)
    assert pb.extension.g.dim == e1.g.dim + e2.g.dim - e1.q.dim
    assert pb.extension.n.dim == e1.n.dim + e2.n.dim
    assert validate_extension(pb.extension).ok
    assert pb.to_first.target is e1
    assert pb.to_second.target is e2


def test_product_with_abelian():
    e1, _ = canonical_pair(FQ)
    a = LeibnizAlgebra.abelian(FQ, 2)
    pr = product_with_abelian(e1, a)
    assert pr.extension.g.dim == e1.g.dim + 2
    assert pr.extension.n.dim == e1.n.dim + 2
    assert validate_extension(pr.extension).ok
    assert pr.onto_original.target is e1
    assert pr.from_original.source is e1
    with pytest.raises(ExtensionError, match="Lie"):
        product_with_abelian(e1, paper_g1(FQ))


def test_product_accepts_nonabelian_lie_algebra():
    e1, _ = canonical_pair(FQ)
    pr = product_with_abelian(e1, lie_r2(FQ))
    assert validate_extension(pr.extension).ok


def test_quotient_extension_by_alpha():
    _, e2 = canonical_pair(FQ)
    # quotient by the whole kernel: collapses n to zero
    whole = e2.chi.image_space()
    q = quotient_extension_by_alpha(e2, whole)
    assert q.extension.n.dim == 0
    assert q.extension.g.dim == e2.g.dim - 1
    assert validate_extension(q.extension).ok
    # quotient by zero: nothing changes
    triv = quotient_extension_by_alpha(e2, zero_subspace(FQ, e2.g.dim))
    assert triv.extension.g.dim == e2.g.dim
    assert validate_extension(triv.extension).ok


def construction_triples():
    """The triples of backward_extension, diagonal_pullback (along the eta
    that P induces from g to P.g), product_with_abelian and
    quotient_extension_by_alpha (by all of chi(n) and by 0) over F_3, F_5 and
    Q, on the battery of conftest.construction_snapshots."""
    out = []
    for field in (F3, F5, FQ):
        for g in (paper_g1(field), paper_g2(field), nilpotent_n2(field), lie_r2(field),
                  direct_product(paper_g1(field), nilpotent_n2(field))):
            e1, p = canonical_extension(g), fixed_gl(field, g.dim)
            e2 = canonical_extension(change_basis(g, p))
            eta = AlgebraMorphism(e1.q, e2.q, e2.pi.matrix @ p @ e1.section)
            bw, pb = backward_extension(e2, eta), diagonal_pullback(e1, e2, eta)
            pr = product_with_abelian(e1, LeibnizAlgebra.abelian(field, 1))
            out += [bw.iso, pb.to_first, pb.to_second, pr.onto_original, pr.from_original]
            for e in (e1, pr.extension):
                for alpha_image in (e.chi.image_space(), zero_subspace(field, e.g.dim)):
                    out.append(quotient_extension_by_alpha(e, alpha_image).onto)
    return out


def test_restricted_beta_is_injective_iff_its_kernel_misses_the_lie_commutator():
    outcomes = []
    for t in construction_triples():
        misses = intersect(t.beta.kernel_space(), lie_commutator_of(t.source.g)).dim == 0
        restricted = restrict_to_lie_commutators(t.beta)
        assert restricted.is_injective == misses
        report = is_isoclinic_homomorphism(t)  # every gamma here is an isomorphism
        assert bool(report) == misses
        assert report.beta_prime == (restricted if misses else None)
        outcomes.append(misses)
    assert outcomes.count(False) == 12 and len(outcomes) == 135


def test_quotient_extension_requires_ideal():
    # K = {(n, (n, 0))} inside r2 x (r2 x r2) is central but not an ideal
    r2 = lie_r2(FQ)
    e = canonical_extension(r2)
    pr = product_with_abelian(e, LeibnizAlgebra.abelian(FQ, 2))
    g = pr.extension.g
    bad = span(FQ, g.dim, [(1, 0, 1, 0), (0, 1, 0, 1)])
    assert bad.is_subspace_of(pr.extension.chi.image_space())
    with pytest.raises(ExtensionError, match="ideal"):
        quotient_extension_by_alpha(pr.extension, bad)


def test_central_extension_from_ideal_validates():
    g = paper_g2(FQ)
    z = lie_center(g)
    e = central_extension_from_ideal(g, z)
    assert validate_extension(e).ok
    assert e.pi.matrix @ e.section == Matrix.identity(FQ, e.q.dim)


# -- stem predicate ----------------------------------------------------------------


def test_stem_examples():
    e1, e2 = canonical_pair(FQ)
    assert is_stem_extension(e1)  # n = 0 is contained in anything
    assert not is_stem_extension(e2)  # span{a2-a3} is not inside span{a3}
    eN = canonical_extension(nilpotent_n2(FQ))
    assert is_stem_extension(eN)


def test_stem_iff_kernel_inside_annihilator(quotient_suite):
    for alg in quotient_suite[:30]:
        e = canonical_extension(alg)
        expected = e.chi.image_space().is_subspace_of(annihilator_ideal(alg))
        assert is_stem_extension(e) == expected


# -- preconditions ---------------------------------------------------------------


def test_a_broken_construction_precondition_raises_its_extension_error():
    """e = 0 -> <e1> -> F^2 -> F -> 0 over F_3, abelian throughout, so every
    linear map between its algebras is a morphism."""
    e = central_extension_from_ideal(LeibnizAlgebra.abelian(F3, 2), span(F3, 2, [(1, 0)]))
    alpha, beta, gamma = (AlgebraMorphism.identity(a) for a in (e.n, e.g, e.q))
    twice = AlgebraMorphism(e.q, e.q, Matrix(F3, 1, 1, ((2,),)))
    zero = AlgebraMorphism(e.q, e.q, Matrix.zeros(F3, 1, 1))
    cases = {
        "beta endpoints mismatch": lambda: ExtensionMorphism(e, e, alpha, gamma, gamma),
        "gamma endpoints mismatch": lambda: ExtensionMorphism(e, e, alpha, beta, beta),
        "right square does not commute (gamma.pi1 != pi2.beta)":
            lambda: ExtensionMorphism(e, e, alpha, beta, twice),
        "eta must land in the quotient of the extension": lambda: backward_extension(e, beta),
        "eta must map the first quotient onto the second":
            lambda: diagonal_pullback(e, e, beta),
        "alpha image is not contained in the kernel part image(chi)":
            lambda: quotient_extension_by_alpha(e, span(F3, 2, [(0, 1)])),
    }
    for message, call in cases.items():
        with pytest.raises(ExtensionError, match=f"^{re.escape(message)}$"):
            call()
    for build in (lambda eta: backward_extension(e, eta),
                  lambda eta: diagonal_pullback(e, e, eta)):
        with pytest.raises(ExtensionError, match="^eta is not an isomorphism$"):
            build(zero)


def test_each_fact_is_decided_by_one_computation(monkeypatch):
    """Two-sidedness is decided by the projection's bracket check and
    closure by the inclusion's, so no ideal_closure and no coords_of call is
    made for them; and each map's rank, kernel and image come from one
    elimination (rref_rows calls, with the algebras' stored subspaces
    already computed)."""
    import leibalg.algebra as algebra
    import leibalg.linalg as linalg
    from leibalg.homology import check_sequence_nine, check_sequence_tail, theta_image
    from leibalg.isoclinism import check_witness

    counts = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    def calls(run):
        counts.clear()
        run()
        return {name: counts[name] for name in ("ideal_closure", "coords_of", "rref_rows")}

    e1, e2 = canonical_pair(F3)
    w = search_isoclinism(e1, e2)
    for e in (e1, e2):  # store each subspace the checks read
        assert None not in (lie_commutator_of(e.g), lie_center(e.g), lie_commutator_of(e.q),
                            theta_image(e))
    g = paper_g2(F3)
    plane = span(F3, 3, [(0, 1, 0), (0, 0, 1)])  # closed: only brackets [x, a1] are nonzero
    count(algebra, "ideal_closure")
    count(linalg.Subspace, "coords_of")
    count(linalg, "rref_rows")
    assert calls(lambda: canonical_extension(g)) == {
        "ideal_closure": 0, "coords_of": 0, "rref_rows": 2}
    assert calls(lambda: subalgebra(g, plane))["coords_of"] == 0
    assert calls(lambda: quotient_extension_by_alpha(e2, e2.chi.image_space())) == {
        "ideal_closure": 0, "coords_of": 0, "rref_rows": 4}
    assert calls(lambda: validate_extension(e2))["rref_rows"] == 3
    assert calls(lambda: check_sequence_tail(e2))["rref_rows"] == 3
    assert calls(lambda: check_sequence_nine(e2))["rref_rows"] == 4
    assert calls(lambda: check_witness(e1, e2, w))["rref_rows"] == 2
