import itertools
import random
from collections import Counter
from functools import cached_property

import pytest

import leibalg.extensions as extensions
import leibalg.isoclinism as iso
from leibalg.algebra import (
    AlgebraMorphism,
    LeibnizAlgebra,
    MorphismError,
    direct_product,
    ideal_closure,
    lie_center,
    lie_commutator_of,
    quotient_algebra,
    subalgebra,
    subalgebra_closure,
    validate,
)
from leibalg.constructions import (
    ExtensionMorphism,
    _verify_group_axioms,
    algebras_isoclinic,
    backward_extension,
    central_extension_from_ideal,
    compose_witnesses,
    diagonal_pullback,
    enumerate_autoclinisms,
    induced_canonical_witness,
    invert_witness,
    is_isoclinic_algebra_hom,
    is_isoclinic_homomorphism,
    triple_to_witness,
)
from leibalg.extensions import canonical_extension, commutator_map, validate_extension
from leibalg.fields import Field, FieldError
from leibalg.isoclinism import (
    DEFAULT_MAX_GL,
    MAX_GL_ENV,
    IsoclinismError,
    IsoclinismDatum,
    IsoclinismWitness,
    SearchBoundError,
    WitnessReport,
    _SearchEngine,
    canonical_datum,
    check_witness,
    classify,
    derive_xi,
    gl_order,
    identity_witness,
    resolve_max_gl,
    search_isoclinism,
)
from leibalg.linalg import (
    LinearMap,
    Matrix,
    bilinear,
    intersect,
    span,
    subspace_sum,
    zero_subspace,
)

from conftest import (
    F3,
    F5,
    FQ,
    LATE_GL_SEEDS,
    change_basis,
    fixed_gl,
    generated_algebras,
    late_gl,
    lie_r2,
    nilpotent_n2,
    paper_g1,
    paper_g2,
    random_gl,
)


F7 = Field.prime(7)


def paper_pair(field=F3):
    return canonical_extension(paper_g1(field)), canonical_extension(paper_g2(field))


def quadratic_form_algebra(d1, d2, field=F3):
    """[e1,e1] = d1*e3, [e2,e2] = d2*e3."""
    return LeibnizAlgebra.from_structure(
        field, 3, {(0, 0): (0, 0, d1), (1, 1): (0, 0, d2)})


def engine(e1, e2):
    """The search engine on the isoclinism data of two extensions."""
    return _SearchEngine(IsoclinismDatum.of(e1), IsoclinismDatum.of(e2))


def as_witness(e1, e2, matrices):
    """The witness from e1 to e2 with the given (eta, xi) matrices."""
    eta, xi = matrices
    return IsoclinismWitness(AlgebraMorphism(e1.q, e2.q, eta),
                             LinearMap(lie_commutator_of(e1.g), lie_commutator_of(e2.g), xi))


def engine_witnesses(e1, e2):
    """Every witness the backtracking engine can produce, in search order."""
    return [as_witness(e1, e2, found) for found in engine(e1, e2).witnesses()]


# -- brute-force oracle ---------------------------------------------------------


def all_matrices(field, nrows, ncols):
    for entries in itertools.product(range(field.p), repeat=nrows * ncols):
        yield Matrix(field, nrows, ncols,
                     tuple(tuple(entries[r * ncols + c] for c in range(ncols))
                           for r in range(nrows)))


def contract(p, table, x, y):
    """sum of x_i y_j table[i][j] mod p, written out apart from the library."""
    return tuple(sum(x[i] * y[j] * table[i][j][t] for i in range(len(x)) for j in range(len(y))) % p
                 for t in range(len(table[0][0])))


def commutator_table(e):
    """C(b_i, b_j) = [s b_i, s b_j] + [s b_j, s b_i] in g coordinates, mod p."""
    p = e.g.field.p
    lifts = e.section.columns()
    return [[tuple((a + b) % p for a, b in zip(contract(p, e.g.structure, u, v),
                                                contract(p, e.g.structure, v, u)))
             for v in lifts] for u in lifts]


def rank_mod_p(p, rows):
    """The rank of a list of vectors mod p, by Gaussian elimination written
    out apart from the library."""
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][c]:
                f = rows[r][c] * pow(top[c], p - 2, p)
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], top)]
        rank += 1
    return rank


def brute_force_witness_columns(e1, e2, xi_injective=True):
    """Enumerate GL(q1.dim, p) directly and test each candidate from scratch,
    yielding the eta columns of each witness in lexicographic order.

    Shares no code with the search engine: brackets and commutator values
    are contracted from the structure tensors here, and every rank comes
    from rank_mod_p.  A linear xi with xi(C1(b_i, b_j)) = C2(eta b_i,
    eta b_j) for all i, j exists exactly when the rows [C1 | C2 eta] have
    the rank of their C1 parts, which span [g1, g1]_Lie; it is injective
    exactly when the C2 eta parts have that rank too.
    """
    q1, q2 = e1.q, e2.q
    p, m = q1.field.p, q1.dim
    if m != q2.dim:
        return
    c1, c2 = commutator_table(e1), commutator_table(e2)
    pairs = [(i, j) for i in range(m) for j in range(m)]
    sources = [c1[i][j] for i, j in pairs]
    d1 = rank_mod_p(p, sources)
    for cols in itertools.product(itertools.product(range(p), repeat=m), repeat=m):
        if rank_mod_p(p, cols) != m:
            continue
        if any(tuple(sum(c * col[t] for c, col in zip(q1.structure[i][j], cols)) % p
                     for t in range(m)) != contract(p, q2.structure, cols[i], cols[j])
               for i, j in pairs):
            continue
        images = [contract(p, c2, cols[i], cols[j]) for i, j in pairs]
        if rank_mod_p(p, [u + v for u, v in zip(sources, images)]) != d1:
            continue
        if not xi_injective or rank_mod_p(p, images) == d1:
            yield cols


def eta_columns(w):
    m = w.eta.matrix
    return tuple(m.column(j) for j in range(m.ncols))


def test_engine_matches_brute_force_on_paper_pair():
    e1, e2 = paper_pair()
    oracle = brute_force_witness_columns(e1, e2)
    engine = [eta_columns(w) for w in engine_witnesses(e1, e2)]
    assert sorted(engine) == sorted(oracle)
    assert set(engine) == {((1, 0), (0, 1)), ((1, 1), (0, 2))}


def test_engine_matches_brute_force_on_random_pairs(suite):
    rng = random.Random(71)
    exts = [canonical_extension(a) for a in suite if a.dim <= 3][:30]
    pairs = [(exts[rng.randrange(len(exts))], exts[rng.randrange(len(exts))])
             for _ in range(8)]
    compared = Counter()
    for e1, e2 in pairs:
        if e1.q.dim > 2 or e2.q.dim > 2:
            continue  # keep the 81*9-candidate oracle cheap
        oracle = sorted(brute_force_witness_columns(e1, e2))
        # the key settles quotients of unequal dimension before any engine
        assert [eta_columns(w) for w in iso.witnesses(e1, e2)] == oracle
        if e1.q.dim == e2.q.dim:
            assert [eta_columns(w) for w in engine_witnesses(e1, e2)] == oracle
        compared[e1.q.dim == e2.q.dim] += 1
    assert compared == {True: 2, False: 4}


def test_engine_matches_brute_force_at_q_dim_3(suite):
    # the suite's algebras with a 3-dimensional quotient all share one search
    # key; brute force runs over all 3^9 matrices, |GL(3, F_3)| = 11,232
    q3 = [a for a in suite if canonical_extension(a).q.dim == 3]
    assert len(q3) >= 3
    g = q3[2]
    h = change_basis(g, random_gl(random.Random(76), F3, 3))
    found = 0
    for a, b in [(q3[0], q3[1]), (q3[0], q3[2]), (g, h)]:
        e1, e2 = canonical_extension(a), canonical_extension(b)
        assert e1.q.dim == e2.q.dim == 3
        oracle = brute_force_witness_columns(e1, e2)
        engine = [eta_columns(w) for w in engine_witnesses(e1, e2)]
        assert engine == sorted(oracle)  # same set, in lexicographic order
        found += bool(engine)
    assert found == 2  # g is isoclinic to P.g, and the first pair is isoclinic


def test_engine_matches_brute_force_on_generated_algebras():
    # central extensions of total dim 4-6 with q-dim 2 and 3
    # (conftest.generated_algebras): the engine's witnesses from g to P.g,
    # from g to g x F and between two generated algebras with quotients of
    # one dimension are the brute-force list
    rng = random.Random(77)
    generated = generated_algebras(F3, 5417)
    assert sorted(canonical_extension(g).q.dim for g in generated) == [2, 2, 2, 3, 3]
    pairs = [(g, h) for g in generated
             for h in (change_basis(g, random_gl(rng, F3, g.dim)),
                       direct_product(g, LeibnizAlgebra.abelian(F3, 1)))]
    pairs += [(g, h) for g, h in itertools.combinations(generated, 2)
              if canonical_extension(g).q.dim == canonical_extension(h).q.dim]
    found = []
    for g, h in pairs:
        e1, e2 = canonical_extension(g), canonical_extension(h)
        engine = [eta_columns(w) for w in engine_witnesses(e1, e2)]
        assert engine == sorted(brute_force_witness_columns(e1, e2))
        found.append(bool(engine))
    assert found[:10] == [True] * 10 and not all(found)


def test_engine_run_matches_brute_force_on_square_conditions():
    # run() yields every invertible bracket-preserving eta whose xi system is
    # consistent, injective or not: this pins the xi relation quadratic in
    # each column, which witnesses() alone does not see.  [e1,e1] = e2,
    # [e2,e1] = e3 with its basis reversed has the quotient [b1,b1] = b0,
    # whose quadratic bracket condition on the pair (1, 1) no xi relation
    # implies: C1(1, 1) is not in the span of the other commutator values.
    # [e1,e1] = e3, [e2,e2] = e4 has a 2-dimensional Lie-commutator, so
    # every xi from it to the 1-dimensional one of x^2 + y^2 is not
    # injective, and witnesses() must drop every eta that run() yields.
    ea = canonical_extension(quadratic_form_algebra(1, 1))
    eb = canonical_extension(quadratic_form_algebra(1, 2))
    en = canonical_extension(LeibnizAlgebra.from_structure(
        F3, 3, {(0, 0): (0, 1, 0), (1, 0): (0, 0, 1)}))
    er = canonical_extension(LeibnizAlgebra.from_structure(
        F3, 3, {(2, 2): (0, 1, 0), (1, 2): (1, 0, 0)}))
    ew = canonical_extension(LeibnizAlgebra.from_structure(
        F3, 4, {(0, 0): (0, 0, 1, 0), (1, 1): (0, 0, 0, 1)}))
    yielded = injective = 0
    for e1, e2 in [(ea, eb), (ea, ea), (eb, eb), (eb, ea), (er, er), (er, en), (ew, ea)]:
        oracle = list(brute_force_witness_columns(e1, e2, xi_injective=False))
        assert list(engine(e1, e2).run()) == sorted(oracle)
        witnesses = [eta_columns(w) for w in engine_witnesses(e1, e2)]
        assert witnesses == sorted(brute_force_witness_columns(e1, e2))
        yielded += len(oracle)
        injective += len(witnesses)
    assert yielded and injective
    assert list(engine(ew, ea).run()) and not engine_witnesses(ew, ea)


def test_every_engine_witness_verifies(suite):
    e1, e2 = paper_pair()
    for w in engine_witnesses(e1, e2):
        assert check_witness(e1, e2, w)


# -- search behaviour -------------------------------------------------------------


def test_search_returns_lexicographically_first_witness():
    e1, e2 = paper_pair()
    w = search_isoclinism(e1, e2)
    assert eta_columns(w) == ((1, 0), (0, 1))
    assert w.xi.matrix.entries == ((1,),)
    again = search_isoclinism(e1, e2)
    assert again.eta.matrix == w.eta.matrix and again.xi.matrix == w.xi.matrix


def test_search_finds_witness_over_f5():
    e1, e2 = paper_pair(F5)
    w = search_isoclinism(e1, e2)
    assert w is not None
    assert check_witness(e1, e2, w)


def test_known_witness_over_rationals_verifies():
    e1, e2 = paper_pair(FQ)
    eta = AlgebraMorphism(e1.q, e2.q, Matrix.identity(FQ, 2))
    xi = derive_xi(e1, e2, eta)
    assert xi is not None
    assert xi.matrix.entries == ((1,),)
    report = check_witness(e1, e2, IsoclinismWitness(eta, xi))
    assert report.ok and report.surjectivity_automatic


def test_search_over_rationals_is_refused():
    e1, e2 = paper_pair(FQ)
    with pytest.raises(FieldError, match="finite field"):
        search_isoclinism(e1, e2)
    # unequal keys settle a pair before the field is asked to be finite
    e2 = canonical_extension(LeibnizAlgebra.abelian(FQ, 2))
    assert IsoclinismDatum.of(e1).key != IsoclinismDatum.of(e2).key
    assert search_isoclinism(e1, e2) is None


def test_isoclinic_to_product_with_abelian():
    g = paper_g1(F3)
    w = algebras_isoclinic(g, direct_product(g, LeibnizAlgebra.abelian(F3, 2)))
    assert w is not None


def test_non_isoclinic_quadratic_forms():
    # x^2 + y^2 and x^2 + 2 y^2 are inequivalent over F_3 (discriminants in
    # different square classes), so these algebras share every invariant yet
    # admit no witness.
    ea = canonical_extension(quadratic_form_algebra(1, 1))
    eb = canonical_extension(quadratic_form_algebra(1, 2))
    assert IsoclinismDatum.of(ea).key == IsoclinismDatum.of(eb).key
    assert search_isoclinism(ea, eb) is None
    assert engine_witnesses(ea, eb) == []


def test_identity_witness_is_the_derived_one(suite):
    for alg in suite:
        e = canonical_extension(alg)
        eta = AlgebraMorphism.identity(e.q)
        w = identity_witness(e)
        assert w == IsoclinismWitness(eta, derive_xi(e, e, eta))
        assert check_witness(e, e, w)


def test_derive_xi_inconsistency():
    ea = canonical_extension(quadratic_form_algebra(1, 1))
    eb = canonical_extension(quadratic_form_algebra(1, 2))
    eta = AlgebraMorphism(ea.q, eb.q, Matrix.identity(F3, 2))
    assert derive_xi(ea, eb, eta) is None


def test_derive_xi_rejects_bad_eta():
    e1, e2 = paper_pair()
    singular = AlgebraMorphism(e1.q, e2.q, Matrix.zeros(F3, 2, 2))
    with pytest.raises(IsoclinismError, match="isomorphism"):
        derive_xi(e1, e2, singular)
    other = canonical_extension(lie_r2(F3))
    with pytest.raises(IsoclinismError, match="endpoints"):
        derive_xi(other, e2, AlgebraMorphism.identity(other.q))


def morphisms_between(q1, q2, matrices):
    """The bracket-preserving maps q1 -> q2 among the given invertible matrices."""
    for mat in matrices:
        try:
            yield AlgebraMorphism(q1, q2, mat)
        except MorphismError:
            pass


def invertible_matrices(field, m, values):
    """Every invertible m x m matrix with entries from values."""
    for entries in itertools.product(values, repeat=m * m):
        mat = Matrix.from_rows(field, [entries[r * m:(r + 1) * m] for r in range(m)], ncols=m)
        if mat.rank() == m:
            yield mat


def test_derive_xi_against_brute_force(suite):
    # every eta in GL(m, F_3) between distinct suite algebras with q-dim <= 2:
    # derive_xi returns the only linear map com1 -> com2 with
    # xi(C1(b_i, b_j)) = C2(eta b_i, eta b_j) for all i, j, found here by
    # trying all 3^(d1 d2) maps in coordinates, or None when none of them fits
    exts = [e for e in map(canonical_extension, dict.fromkeys(suite)) if e.q.dim <= 2]
    gl = {m: list(invertible_matrices(F3, m, range(3))) for m in range(3)}
    outcomes = Counter()
    for e1, e2 in itertools.permutations(exts, 2):
        if e1.q.dim != e2.q.dim:
            continue
        com1, com2 = lie_commutator_of(e1.g), lie_commutator_of(e2.g)
        c2 = commutator_table(e2)
        pairs = list(itertools.product(range(e1.q.dim), repeat=2))
        sources = [com1.coords_of(v) for row in commutator_table(e1) for v in row]
        maps = list(all_matrices(F3, com2.dim, com1.dim))
        for eta in morphisms_between(e1.q, e2.q, gl[e1.q.dim]):
            cols = eta.matrix.columns()
            images = [com2.coords_of(contract(3, c2, cols[i], cols[j])) for i, j in pairs]
            fits = [x for x in maps if [x.apply(u) for u in sources] == images]
            assert len(fits) <= 1
            xi = derive_xi(e1, e2, eta)
            assert (xi and xi.matrix) == (fits[0] if fits else None)
            outcomes[bool(fits)] += 1
    assert outcomes[True] >= 100 and outcomes[False] >= 100


def test_derive_xi_over_rationals_against_check_witness():
    # every pair here has one-dimensional Lie-commutators, so a compatible xi
    # is a scalar: a ratio C2(eta b_i, eta b_j) / C1(b_i, b_j) that
    # check_witness accepts.  derive_xi must return it, or None when no ratio
    # passes.  x^2 + y^2 is similar to 2x^2 + 2y^2 but to no multiple of
    # x^2 + 2y^2, since 2 is not a square in Q
    square = {d: quadratic_form_algebra(*d, field=FQ) for d in ((1, 1), (2, 2), (1, 2))}
    outcomes = Counter()
    for a, b in [(paper_g1(FQ), paper_g2(FQ)), (paper_g2(FQ), paper_g1(FQ)),
                 (nilpotent_n2(FQ), nilpotent_n2(FQ)),
                 (square[1, 1], square[2, 2]), (square[1, 1], square[1, 2])]:
        e1, e2 = canonical_extension(a), canonical_extension(b)
        com1, com2 = lie_commutator_of(a), lie_commutator_of(b)
        assert com1.dim == com2.dim == 1
        c1, c2 = commutator_map(e1), commutator_map(e2)
        small = invertible_matrices(FQ, e1.q.dim, (-1, 0, 1, 2))
        for eta in morphisms_between(e1.q, e2.q, small):
            cols = eta.matrix.columns()
            fits = set()
            for i, j in itertools.product(range(e1.q.dim), repeat=2):
                u = c1[i][j][0]
                if u:
                    v = bilinear(FQ, c2, cols[i], cols[j])[0]
                    xi = LinearMap(com1, com2, Matrix(FQ, 1, 1, ((v / u,),)))
                    if check_witness(e1, e2, IsoclinismWitness(eta, xi)).ok:
                        fits.add(xi)
            assert {derive_xi(e1, e2, eta)} - {None} == fits
            outcomes[bool(fits)] += 1
    assert outcomes[True] >= 10 and outcomes[False] >= 10


def test_derive_xi_refuses_commutator_values_that_do_not_span():
    # n = g is not Lie-central: the quotient is 0, so there are no
    # commutator values, while [g, g]_Lie = span(e2)
    e = central_extension_from_ideal(nilpotent_n2(FQ), span(FQ, 2, Matrix.identity(FQ, 2).entries))
    with pytest.raises(IsoclinismError, match="span"):
        derive_xi(e, e, AlgebraMorphism.identity(e.q))


def test_search_requires_matching_fields():
    e3, _ = paper_pair(F3)
    e5, _ = paper_pair(F5)
    # whatever the keys: equal for g1 over F_3 and F_5, unequal against F_5^2
    for other in (e5, canonical_extension(LeibnizAlgebra.abelian(F5, 2))):
        with pytest.raises(FieldError, match="different fields"):
            search_isoclinism(e3, other)


# -- witness verification -----------------------------------------------------------


def test_check_witness_failure_modes():
    e1, e2 = paper_pair()
    w = search_isoclinism(e1, e2)
    com1, com2 = w.xi.domain, w.xi.codomain

    scaled = LinearMap(com1, com2, Matrix(F3, 1, 1, ((2,),)))
    report = check_witness(e1, e2, IsoclinismWitness(w.eta, scaled))
    assert not report
    assert any("squares disagree" in msg for msg in report.failures)

    dead = LinearMap(com1, com2, Matrix.zeros(F3, 1, 1))
    report = check_witness(e1, e2, IsoclinismWitness(w.eta, dead))
    assert not report.ok
    assert any("not injective" in msg for msg in report.failures)

    zero_eta = AlgebraMorphism(e1.q, e2.q, Matrix.zeros(F3, 2, 2))
    report = check_witness(e1, e2, IsoclinismWitness(zero_eta, w.xi))
    assert not report.ok
    assert any("not bijective" in msg for msg in report.failures)

    other = canonical_extension(lie_r2(F3))
    report = check_witness(other, e2, w)
    assert not report.ok and "endpoints" in report.failures[0]


def test_check_witness_reports_xi_between_the_wrong_lie_commutators():
    e1, e2 = paper_pair()
    w = search_isoclinism(e1, e2)
    backwards = IsoclinismWitness(w.eta, w.xi.inverse())  # [g2, g2]_Lie -> [g1, g1]_Lie
    assert check_witness(e1, e2, backwards) == WitnessReport(
        False, ("xi endpoints do not match the Lie-commutators",), False)


def test_check_witness_reports_xi_not_onto_a_target_that_is_not_lie_central():
    """Over a Lie-central e2 the C2 values span [g2, g2]_Lie, so matching
    squares make xi onto; here they do not.  g2 = <e1, e2, e3> with
    [e1, e2] = [e2, e1] = e3 is extended by <e2, e3>, so q2 = <e1> has
    C2 = 0 while [g2, g2]_Lie = <e3>.  With e1 = (0 -> F -> F), eta = id
    and the 1x0 xi match every square and xi is injective, but not onto."""
    g2 = LeibnizAlgebra.from_structure(F3, 3, {(0, 1): (0, 0, 1), (1, 0): (0, 0, 1)})
    e2 = central_extension_from_ideal(g2, span(F3, 3, [(0, 1, 0), (0, 0, 1)]))
    e1 = central_extension_from_ideal(LeibnizAlgebra.abelian(F3, 1), zero_subspace(F3, 1))
    assert not validate_extension(e2).ok and e1.q == e2.q
    xi = LinearMap(lie_commutator_of(e1.g), lie_commutator_of(e2.g), Matrix(F3, 1, 0, ((),)))
    report = check_witness(e1, e2, IsoclinismWitness(AlgebraMorphism.identity(e1.q), xi))
    assert report == WitnessReport(False, ("xi is not surjective",), False)


def test_triple_to_witness_refuses_a_beta_not_onto_the_target_lie_commutator():
    """Over a Lie-central target, gamma onto makes the restriction of beta
    onto, so only a target that is not Lie-central reaches this refusal:
    g = <x, z> with [z, x] = z is extended by <z>, and the symmetric bracket
    [x, z] + [z, x] = z puts z in [g, g]_Lie, which beta: x -> x misses."""
    g = LeibnizAlgebra.from_structure(F3, 2, {(1, 0): (0, 1)})
    assert validate(g).ok
    e2 = central_extension_from_ideal(g, span(F3, 2, [(0, 1)]))
    assert "not Lie-central" in " ".join(validate_extension(e2).failures)
    e1 = central_extension_from_ideal(e2.q, zero_subspace(F3, 1))
    triple = ExtensionMorphism(e1, e2, AlgebraMorphism(e1.n, e2.n, Matrix.zeros(F3, 1, 0)),
                               AlgebraMorphism(e1.g, e2.g, Matrix.from_columns(F3, [(1, 0)])),
                               AlgebraMorphism.identity(e2.q))
    assert is_isoclinic_homomorphism(triple)
    with pytest.raises(IsoclinismError,
                       match="^restricted beta is not onto the target Lie-commutator$"):
        triple_to_witness(triple)


def test_induced_canonical_witness_refuses_a_map_that_moves_lie_center_cosets():
    """An unchecked witness from the abelian F^2 (all of it Lie-central) to
    g = <x, y, z> with [x, x] = z over <z>: eta = id sends e1 to the coset
    of x, which is not Lie-central in g."""
    a2 = LeibnizAlgebra.abelian(F3, 2)
    g = LeibnizAlgebra.from_structure(F3, 3, {(0, 0): (0, 0, 1)})
    e1 = central_extension_from_ideal(a2, zero_subspace(F3, 2))
    e2 = central_extension_from_ideal(g, span(F3, 3, [(0, 0, 1)]))
    w = IsoclinismWitness(AlgebraMorphism.identity(e1.q),
                          LinearMap(lie_commutator_of(a2), lie_commutator_of(g),
                                    Matrix.zeros(F3, 1, 0)))
    assert e1.q == e2.q and not check_witness(e1, e2, w)
    with pytest.raises(IsoclinismError,
                       match="^induced map is not constant on Lie-center cosets$"):
        induced_canonical_witness(e1, e2, w)


def test_witness_group_laws():
    e1, e2 = paper_pair()
    w = search_isoclinism(e1, e2)
    ident1 = identity_witness(e1)
    ident2 = identity_witness(e2)
    assert check_witness(e1, e1, ident1).ok

    back = invert_witness(w)
    assert check_witness(e2, e1, back).ok
    round_trip = compose_witnesses(w, back)
    assert round_trip.eta.matrix == ident1.eta.matrix
    assert round_trip.xi.matrix == ident1.xi.matrix
    out_trip = compose_witnesses(back, w)
    assert out_trip.eta.matrix == ident2.eta.matrix


def test_autoclinism_group_and_torsor_count():
    e1, e2 = paper_pair()
    autos = enumerate_autoclinisms(e1)
    assert len(autos) == 2
    for w in autos:
        assert check_witness(e1, e1, w).ok
    torsor = list(iso.witnesses(e1, e2))
    assert torsor == engine_witnesses(e1, e2) and len(torsor) == len(autos)
    assert torsor[0] == search_isoclinism(e1, e2)


def g1_squared_automorphisms(field):
    """Aut(paper_g1 x paper_g1) in closed form, as eta column tuples.

    Aut(g1) is e1 -> e1 + b e2, e2 -> (1 + b) e2 with 1 + b != 0; the
    automorphisms of the square are the block-diagonal pairs, with or without
    the factor swap.
    """
    p = field.p
    aut = [((1, b), (0, (1 + b) % p)) for b in range(p) if (1 + b) % p]
    out = []
    for a0, a1 in aut:
        for b0, b1 in aut:
            out.append((a0 + (0, 0), a1 + (0, 0), (0, 0) + b0, (0, 0) + b1))
            out.append(((0, 0) + a0, (0, 0) + a1, b0 + (0, 0), b1 + (0, 0)))
    return sorted(out)


def test_autoclinisms_of_g1_squared_over_f5_in_closed_form():
    # g1 x g1 has trivial Lie-center, so every autoclinism is an automorphism
    e = canonical_extension(direct_product(paper_g1(F5), paper_g1(F5)))
    autos = enumerate_autoclinisms(e)
    assert [eta_columns(w) for w in autos] == g1_squared_automorphisms(F5)
    assert len(autos) == 32
    for w in autos:
        assert check_witness(e, e, w).ok


def test_autoclinisms_of_g1_squared_over_f13_past_the_exhaustive_group_check():
    # 2 * 12**2 = 288 autoclinisms: beyond 256, enumerate_autoclinisms checks
    # the group axioms on a sample
    f13 = Field.prime(13)
    e = canonical_extension(direct_product(paper_g1(f13), paper_g1(f13)))
    autos = enumerate_autoclinisms(e, max_gl=gl_order(4, 13))
    assert len(autos) == 288
    assert [eta_columns(w) for w in autos] == g1_squared_automorphisms(f13)


# Seeds k for which P = random_gl(random.Random(k), F_7, 4) puts the first
# column of the lexicographically first witness from g1 x g1 to P.(g1 x g1)
# late: at positions 1,040 and 1,034, counting from 0, of the 2,401 vectors
# of F_7^4, the two latest among seeds 0-299.
LATE_F7_SEEDS = (144, 174)


def assert_search_commutes_with_change_of_basis(field, p_mats):
    """The witnesses from g to P.h, h = g1 x g1, are P composed with the
    automorphisms of h after any one witness w0 from g to h: h has zero
    Lie-center, so its autoclinisms are its automorphisms.  So the search
    returns the least of those, for g = h (w0 an automorphism) and for
    g = g1 x g2 (w0 the library's own witness)."""
    h = direct_product(paper_g1(field), paper_g1(field))
    autos = [Matrix.from_columns(field, cols) for cols in g1_squared_automorphisms(field)]
    max_gl = gl_order(4, field.p)
    for g in (h, direct_product(paper_g1(field), paper_g2(field))):
        e = canonical_extension(g)
        w0 = search_isoclinism(e, canonical_extension(h), max_gl).eta.matrix
        for p_mat in p_mats:
            ep = canonical_extension(change_basis(h, p_mat))
            w = search_isoclinism(e, ep, max_gl)
            assert w is not None and check_witness(e, ep, w).ok
            assert eta_columns(w) == min(tuple((p_mat @ a @ w0).columns()) for a in autos)


def test_search_commutes_with_change_of_basis_over_f5():
    # the late P put the first witness's first column far down the
    # lexicographic order
    rng = random.Random(77)
    drawn = [random_gl(rng, F5, 4) for _ in range(3)]
    assert_search_commutes_with_change_of_basis(F5, drawn + [late_gl(s) for s in LATE_GL_SEEDS])


def test_search_commutes_with_change_of_basis_over_f7():
    # |GL(4, F_7)| exceeds DEFAULT_MAX_GL, so the searches raise the bound
    assert gl_order(4, 7) > DEFAULT_MAX_GL
    assert len(g1_squared_automorphisms(F7)) == 72
    rng = random.Random(78)
    drawn = [random_gl(rng, F7, 4) for _ in range(3)]
    late = [random_gl(random.Random(s), F7, 4) for s in LATE_F7_SEEDS]
    assert_search_commutes_with_change_of_basis(F7, drawn + late)


def test_engine_work_over_f5():
    # Deterministic guard on pruning: each column is drawn from the solutions
    # of its linear constraints, and below the last depth it must give the
    # operators x -> [x, v] and x -> [v, x] the ranks those of b_d have.
    # Enumerating all p^m candidates per depth examined 725,625 columns here;
    # solving for them examines 1,681, and the operator-rank filter 897.
    e = canonical_extension(direct_product(paper_g1(F5), paper_g1(F5)))
    search = engine(e, e)
    assert sum(1 for _ in search.run()) == 32
    assert search._examined <= 897
    # x^2 + y^2 and x^2 + 2 y^2 are inequivalent over F_5 too.  The bracket
    # rows alone leave 625 columns; the xi relations cut that to 145.  The
    # quotient is abelian, so the operator ranks prune nothing.
    ea = canonical_extension(quadratic_form_algebra(1, 1, F5))
    eb = canonical_extension(quadratic_form_algebra(1, 2, F5))
    search = engine(ea, eb)
    assert list(search.run()) == []
    assert search._examined <= 145
    # [b2, b1] = b2, [b3, b1] = 2 b3: the rows of the pairs (d, j), j < d,
    # carry the pruning.  Trying all of F_5^3 per depth examined 4,625
    # columns; without those rows the solver leaves 1,425, with them 185,
    # and with the operator ranks 161.
    e = canonical_extension(LeibnizAlgebra.from_structure(
        F5, 3, {(1, 0): (0, 1, 0), (2, 0): (0, 0, 2)}))
    search = engine(e, e)
    assert sum(1 for _ in search.run()) == 16
    assert search._examined <= 161


def test_group_axiom_check_rejects_incomplete_autoclinism_sets():
    e = canonical_extension(direct_product(paper_g1(F3), paper_g1(F3)))
    autos = enumerate_autoclinisms(e)
    assert len(autos) == 8
    ident = Matrix.identity(F3, 4)
    with pytest.raises(IsoclinismError, match="identity"):
        _verify_group_axioms(e, [w for w in autos if w.eta.matrix != ident])
    # drop an involution that is a product of two other witnesses: every
    # inverse stays in the set, so only the composition check can catch it
    etas = [w.eta.matrix for w in autos]
    c = next(m for m in etas if m != ident and m @ m == ident)
    rest = [w for w in autos if w.eta.matrix != c]
    assert any(b.eta.matrix @ a.eta.matrix == c for a in rest for b in rest)
    with pytest.raises(IsoclinismError, match="composition"):
        _verify_group_axioms(e, rest)
    # drop the inverse of a witness listed first: its inverse check runs
    # before any composite is formed
    w = next(w for w in autos if w.eta.matrix.inverse() != w.eta.matrix)
    inv = w.eta.matrix.inverse()
    with pytest.raises(IsoclinismError, match="inverse"):
        _verify_group_axioms(e, [w] + [x for x in autos if x.eta.matrix not in (w.eta.matrix, inv)])


def test_autoclinisms_of_abelian_algebra_form_gl():
    e = canonical_extension(LeibnizAlgebra.abelian(F3, 2))
    # q = 0, so there is exactly one (empty) autoclinism
    autos = enumerate_autoclinisms(e)
    assert len(autos) == 1


# -- invariants and bounds ------------------------------------------------------------


def test_datum_fields_and_key():
    e = canonical_extension(paper_g2(FQ))
    d = IsoclinismDatum.of(e)
    assert d == IsoclinismDatum(FQ, e.q.structure, 1, commutator_map(e))
    # the datum holds the extension's own table, in Lie-commutator coordinates
    assert d.table is commutator_map(e)
    com = lie_commutator_of(e.g)
    assert com.vector_from_coords(d.table[0][1]) == e.g.symmetric_bracket(*e.section.columns())
    q = e.q
    assert d.key == (2, 1, 0, lie_center(q).dim, lie_commutator_of(q).dim)
    assert d.key is d.key
    # the totals' dimensions and Lie-centers stay out of the datum
    g = paper_g1(F3)
    fat = direct_product(g, LeibnizAlgebra.abelian(F3, 3))
    assert g.dim != fat.dim and lie_center(g).dim != lie_center(fat).dim
    assert datum(g) == datum(fat)


def test_key_equality_is_necessary(quotient_suite):
    rng = random.Random(72)
    exts = [canonical_extension(a) for a in quotient_suite[:40]]
    for _ in range(25):
        e1 = exts[rng.randrange(len(exts))]
        e2 = exts[rng.randrange(len(exts))]
        w = search_isoclinism(e1, e2)
        if w is not None:
            assert IsoclinismDatum.of(e1).key == IsoclinismDatum.of(e2).key
            assert check_witness(e1, e2, w).ok


def test_gl_order_values():
    assert gl_order(2, 3) == 48
    assert gl_order(2, 5) == 480
    assert gl_order(4, 5) == DEFAULT_MAX_GL == 116_064_000_000
    assert gl_order(0, 3) == 1


def test_search_bound_enforced():
    e1, e2 = paper_pair()
    with pytest.raises(SearchBoundError):
        search_isoclinism(e1, e2, max_gl=10)
    assert search_isoclinism(e1, e2, max_gl=48) is not None
    # unequal keys settle a pair at any bound
    e2 = canonical_extension(LeibnizAlgebra.abelian(F5, 2))
    assert search_isoclinism(canonical_extension(paper_g1(F5)), e2, max_gl=1) is None


def test_search_bound_env_override(monkeypatch):
    monkeypatch.setenv(MAX_GL_ENV, "10")
    assert resolve_max_gl() == 10
    e1, e2 = paper_pair()
    with pytest.raises(SearchBoundError):
        search_isoclinism(e1, e2)
    monkeypatch.setenv(MAX_GL_ENV, "1000000")
    assert search_isoclinism(e1, e2) is not None
    monkeypatch.setenv(MAX_GL_ENV, "not a number")
    with pytest.raises(SearchBoundError, match="integer"):
        resolve_max_gl()


# -- isoclinic homomorphisms -----------------------------------------------------------


def test_backward_triple_is_isoclinic():
    e1, e2 = paper_pair()
    w = search_isoclinism(e1, e2)
    bw = backward_extension(e2, w.eta)
    report = is_isoclinic_homomorphism(bw.iso)
    assert report
    assert report.beta_prime.is_bijective
    carried = triple_to_witness(bw.iso)
    assert check_witness(bw.extension, e2, carried).ok


def test_zero_triple_is_not_isoclinic():
    from leibalg.constructions import ExtensionMorphism
    e1, _ = paper_pair()
    zero = ExtensionMorphism(
        e1, e1,
        AlgebraMorphism(e1.n, e1.n, Matrix.zeros(F3, 0, 0)),
        AlgebraMorphism(e1.g, e1.g, Matrix.zeros(F3, 2, 2)),
        AlgebraMorphism(e1.q, e1.q, Matrix.zeros(F3, 2, 2)))
    report = is_isoclinic_homomorphism(zero)
    assert not report
    assert "gamma is not an isomorphism" in report.reasons
    assert any("Ker(beta)" in r for r in report.reasons)
    with pytest.raises(IsoclinismError, match="not isoclinic"):
        triple_to_witness(zero)


def test_central_quotient_criterion(suite):
    # the projection g -> g/n for a central ideal n is isoclinic exactly when
    # n misses the Lie-commutator; in that case the two algebras really are
    # isoclinic
    rng = random.Random(73)
    tested_positive = tested_negative = 0
    for alg in suite:
        z = lie_center(alg)
        if z.dim == 0:
            continue
        n = ideal_closure(alg, span(alg.field, alg.dim,
                                    [z.basis[rng.randrange(z.dim)]]))
        quo = quotient_algebra(alg, n)
        expected = intersect(n, lie_commutator_of(alg)).dim == 0
        assert bool(is_isoclinic_algebra_hom(quo.projection)) == expected
        if expected:
            tested_positive += 1
            if tested_positive <= 8:
                assert algebras_isoclinic(alg, quo.algebra) is not None
        else:
            tested_negative += 1
        if tested_positive >= 20 and tested_negative >= 5:
            break
    assert tested_positive and tested_negative


def test_subalgebra_embedding_criterion(suite):
    # an inclusion h -> g is isoclinic exactly when h + Z_Lie(g) = g
    rng = random.Random(74)
    hits = 0
    for alg in suite:
        if alg.dim < 2:
            continue
        seed_vecs = [tuple(rng.randrange(3) for _ in range(alg.dim))]
        sub = subalgebra(alg, subalgebra_closure(alg, span(alg.field, alg.dim, seed_vecs)))
        covered = subspace_sum(sub.inclusion.image_space(), lie_center(alg)).dim == alg.dim
        assert is_isoclinic_algebra_hom(sub.inclusion) == covered
        if covered and sub.algebra.dim < alg.dim and hits < 6:
            hits += 1
            assert algebras_isoclinic(sub.algebra, alg) is not None


def test_pullback_graph_carries_the_witness(suite):
    # inside the pullback along eta, the Lie-commutator projects isomorphically
    # onto both commutators and the two projections are linked by xi
    e1, e2 = paper_pair()
    w = search_isoclinism(e1, e2)
    pb = diagonal_pullback(e1, e2, w.eta)
    com1 = lie_commutator_of(e1.g)
    com_tilde = lie_commutator_of(pb.extension.g)
    assert com_tilde.dim == com1.dim
    tau1, tau2 = pb.to_first.beta, pb.to_second.beta
    images1 = []
    for b in com_tilde.basis:
        t1 = tau1.apply(b)
        images1.append(t1)
        assert w.xi.apply_ambient(t1) == tau2.apply(b)
    assert span(F3, e1.g.dim, images1) == com1


def test_witness_compatibilities(quotient_suite):
    # pi2(xi(c)) = eta(pi1(c)) on the Lie-commutator, and xi carries the
    # kernel part of the commutator onto the kernel part of the target
    rng = random.Random(75)
    exts = [canonical_extension(a) for a in quotient_suite[:60]]
    checked = 0
    for _ in range(40):
        e1 = exts[rng.randrange(len(exts))]
        e2 = exts[rng.randrange(len(exts))]
        w = search_isoclinism(e1, e2)
        if w is None:
            continue
        checked += 1
        com1 = w.xi.domain
        for c in com1.basis:
            assert e2.pi.apply(w.xi.apply_ambient(c)) == w.eta.apply(e1.pi.apply(c))
        part1 = intersect(e1.chi.image_space(), com1)
        part2 = intersect(e2.chi.image_space(), w.xi.codomain)
        mapped = span(e1.g.field, e2.g.dim,
                      [w.xi.apply_ambient(v) for v in part1.basis])
        assert mapped == part2
    assert checked >= 5


def test_induced_canonical_witness():
    e1, e2 = paper_pair()
    w = search_isoclinism(e1, e2)
    bw = backward_extension(e2, w.eta)
    carried = triple_to_witness(bw.iso)
    induced = induced_canonical_witness(bw.extension, e2, carried)
    c1 = canonical_extension(bw.extension.g)
    c2 = canonical_extension(e2.g)
    assert check_witness(c1, c2, induced).ok


# -- classification ----------------------------------------------------------------


def test_classify_worked_examples():
    g1 = paper_g1(F3)
    algebras = (g1, paper_g2(F3),
                direct_product(g1, LeibnizAlgebra.abelian(F3, 1)),
                LeibnizAlgebra.abelian(F3, 2),
                LeibnizAlgebra.abelian(F3, 3))
    result = classify(algebras)
    assert len(result.classes) == 2
    assert result.classes[0].representative == 0
    assert result.classes[0].members == [0, 1, 2]
    assert result.classes[1].members == [3, 4]
    assert result.class_of(1) == 0 and result.class_of(4) == 1
    for cls in result.classes:
        for member in cls.members:
            if member == cls.representative:
                continue
            w = cls.witnesses[member]
            assert check_witness(result.extensions[cls.representative],
                                 result.extensions[member], w).ok


def test_class_of_an_index_outside_the_classification_is_a_key_error():
    result = classify([LeibnizAlgebra.abelian(F3, 1)])
    assert result.class_of(0) == 0
    with pytest.raises(KeyError):
        result.class_of(1)


def test_classify_is_deterministic(suite):
    sample = suite[:50]
    a = classify(sample)
    b = classify(sample)
    assert [cls.members for cls in a.classes] == [cls.members for cls in b.classes]
    assert all(x.representative == y.representative
               for x, y in zip(a.classes, b.classes))


def test_classify_respects_pairwise_search(quotient_suite):
    sample = quotient_suite[:25]
    result = classify(sample)
    for i in range(len(sample)):
        for j in range(i + 1, len(sample)):
            same = result.class_of(i) == result.class_of(j)
            found = algebras_isoclinic(sample[i], sample[j]) is not None
            assert same == found


def classify_searching_every_pair(algebras):
    """classify as it was written before equal inputs were reused: every
    input gets its own extension and key, and every pair with equal keys is
    searched.  Returns the classes as (representative, members, witnesses)
    and the pairs searched, as pairs of algebras."""
    exts = [canonical_extension(a) for a in algebras]
    keys = [IsoclinismDatum.of(e).key for e in exts]
    classes, searched = [], []
    for idx, e in enumerate(exts):
        for rep, members, witnesses in classes:
            if keys[rep] != keys[idx]:
                continue
            searched.append((algebras[rep], algebras[idx]))
            w = next(iter(engine_witnesses(exts[rep], e)), None)
            if w is not None:
                members.append(idx)
                witnesses[idx] = w
                break
        else:
            classes.append((idx, [idx], {idx: identity_witness(e)}))
    return classes, searched


def datum(alg):
    """The isoclinism datum of alg's canonical extension."""
    return IsoclinismDatum.of(canonical_extension(alg))


def count_computed(monkeypatch, name):
    """Record the datum of every computation of the cached property name of
    IsoclinismDatum, from here on."""
    computed = []
    compute = getattr(IsoclinismDatum, name).func

    def counting(self):
        computed.append(self)
        return compute(self)

    counted = cached_property(counting)
    counted.__set_name__(IsoclinismDatum, name)
    monkeypatch.setattr(IsoclinismDatum, name, counted)
    return computed


def count_engines_and_keys(monkeypatch):
    """Record the data pair of every engine built and the datum of every key
    computed, from here on."""
    engines = []

    class CountingEngine(_SearchEngine):
        def __init__(self, d1, d2):
            engines.append((d1, d2))
            super().__init__(d1, d2)

    monkeypatch.setattr(iso, "_SearchEngine", CountingEngine)
    return engines, count_computed(monkeypatch, "key")


def test_classify_reuses_equal_inputs(quotient_suite, monkeypatch):
    # base[4] represents a class and its lexicographically first
    # autoclinism swaps two columns, so its copies must not get the identity
    base = quotient_suite[:20]
    algebras = (base[:10] + [base[4], base[0], base[16]] + base[10:]
                + [base[16], base[1], base[15], base[4], base[16], base[7], base[4]])
    e4 = canonical_extension(base[4])
    assert search_isoclinism(e4, e4).eta != AlgebraMorphism.identity(e4.q)
    expected, searched = classify_searching_every_pair(algebras)
    assert len(searched) > len(set(searched))

    made, extended = [], []

    def counting_datum(alg):
        made.append(alg)
        return canonical_datum(alg)

    def counting_extension(alg):
        extended.append(alg)
        return canonical_extension(alg)

    witnessed = []
    witness = iso._witness

    def counting_witness(ends1, ends2, matrices):
        witnessed.append((id(ends1), id(ends2)))
        return witness(ends1, ends2, matrices)

    monkeypatch.setattr(iso, "canonical_datum", counting_datum)
    monkeypatch.setattr(extensions, "canonical_extension", counting_extension)
    monkeypatch.setattr(iso, "_witness", counting_witness)
    engines, _ = count_engines_and_keys(monkeypatch)
    result = classify(algebras)

    assert [(cls.representative, cls.members, cls.witnesses)
            for cls in result.classes] == expected
    # one datum per distinct algebra, and no extension until one is read
    distinct = list(dict.fromkeys(algebras))
    assert made == distinct and extended == []
    assert result.extensions == tuple(canonical_extension(a) for a in algebras)
    assert extended == distinct
    for i, j in itertools.combinations(range(len(algebras)), 2):
        assert (result.extensions[i] is result.extensions[j]) == (algebras[i] == algebras[j])
    assert result.extensions is result.extensions and extended == distinct
    # one witness per (representative, distinct algebra), fewer than members
    joined = {(cls.representative, algebras[idx]) for cls in result.classes
              for idx in cls.members if idx != cls.representative}
    assert len(witnessed) == len(set(witnessed)) == len(joined)
    assert len(joined) < sum(len(cls.members) - 1 for cls in result.classes)
    # one engine per distinct datum pair, fewer than the distinct algebra pairs
    assert len(engines) == len(set(engines)) < len(set(searched))
    assert set(engines) == {(datum(a), datum(b)) for a, b in searched}
    rep = algebras.index(base[4])
    copies = [idx for idx in range(rep + 1, len(algebras)) if algebras[idx] == base[4]]
    assert len(copies) == 3
    for idx in copies:
        cls = result.classes[result.class_of(idx)]
        assert cls.representative == rep
        assert cls.witnesses[idx].eta != AlgebraMorphism.identity(e4.q)


def test_classify_searches_each_datum_pair_once(suite, monkeypatch):
    # g, g x F and F^2 x g differ but share one datum; P.g does not
    base = list(dict.fromkeys(suite))[:12]
    a1, a2 = LeibnizAlgebra.abelian(F3, 1), LeibnizAlgebra.abelian(F3, 2)
    p = Matrix.from_rows(F3, [(1, 1, 0), (0, 2, 0), (1, 0, 1)])
    algebras = (base[:6] + [direct_product(b, a1) for b in base[:8]]
                + [change_basis(b, p) for b in base if b.dim == 3][:3]
                + [direct_product(a2, b) for b in base[4:12]] + base[6:] + base[2:5])
    expected, searched = classify_searching_every_pair(algebras)
    distinct = list(dict.fromkeys(algebras))
    data = list(dict.fromkeys(datum(a) for a in distinct))
    pairs = {(datum(a), datum(b)) for a, b in searched}
    assert len(data) < len(distinct) and len(pairs) < len(set(searched))

    engines, keyed = count_engines_and_keys(monkeypatch)
    result = classify(algebras)

    assert [(cls.representative, cls.members, cls.witnesses)
            for cls in result.classes] == expected
    # one key per datum, one engine per datum pair
    assert len(keyed) == len(set(keyed)) and set(keyed) == set(data)
    assert len(engines) == len(set(engines)) and set(engines) == pairs
    algebra_pairs, data_pairs = set(), set()
    for cls in result.classes:
        rep = result.extensions[cls.representative]
        for member, w in cls.witnesses.items():
            e = result.extensions[member]
            assert (w.eta.source, w.eta.target) == (rep.q, e.q)
            assert (w.xi.domain, w.xi.codomain) == (lie_commutator_of(rep.g),
                                                    lie_commutator_of(e.g))
            assert check_witness(rep, e, w).ok
            if member != cls.representative:
                algebra_pairs.add((rep.g, e.g))
                data_pairs.add((datum(rep.g), datum(e.g)))
    # some witnesses are built from the search of another pair of algebras
    assert len(algebra_pairs) > len(data_pairs)


def test_classify_checks_a_search_before_running_it():
    # every pair it compares must share a field; the search preconditions
    # hold for each pair with equal keys, and only there
    g1, g2 = paper_g1(F3), paper_g2(F3)
    assert [cls.members for cls in classify([g1, LeibnizAlgebra.abelian(F3, 2)],
                                            max_gl=1).classes] == [[0], [1]]
    with pytest.raises(SearchBoundError, match=r"\|GL\(2, F_3\)\| = 48 exceeds the bound 1"):
        classify([g1, g2], max_gl=1)
    for other in (paper_g1(F5), LeibnizAlgebra.abelian(F5, 2)):
        with pytest.raises(FieldError, match="different fields"):
            classify([g1, other])
    with pytest.raises(FieldError, match="finite field"):
        classify([paper_g1(FQ), paper_g2(FQ)])


def test_canonical_datum_is_the_canonical_extensions_datum(quotient_suite):
    # F^k x g puts Lie-central coordinates before the quotient's, and P.g
    # over Q gives Fraction brackets and a Lie-center off the coordinate axes
    a1 = LeibnizAlgebra.abelian(F3, 1)
    inputs = list(quotient_suite) + [direct_product(a1, g) for g in quotient_suite[:10]]
    for seed in range(12):
        inputs += generated_algebras(F3, seed) + generated_algebras(F5, seed)
    inputs += [lie_r2(F3), LeibnizAlgebra.abelian(F5, 3), direct_product(lie_r2(F5), lie_r2(F5))]
    rational = generated_algebras(FQ, 0) + [paper_g1(FQ), nilpotent_n2(FQ), lie_r2(FQ)]
    inputs += rational + [change_basis(g, fixed_gl(FQ, g.dim)) for g in rational]
    shapes = Counter()
    for g in inputs:
        e = canonical_extension(g)
        q, d = canonical_datum(g)
        assert d == IsoclinismDatum.of(e)
        assert q == e.q and q.basis_names == e.q.basis_names
        shapes[g.field.p, q.dim > 0, d.d > 0] += 1
    assert all(shapes[p, True, True] for p in (3, 5, None))
    assert all(shapes[p, False, False] for p in (3, 5, None))


def test_datum_is_shared_and_keyed_once(monkeypatch):
    # g, g x F and F^2 x g have equal data, and classify interns them: one
    # datum object, one key computation, one search per pair of data.  The
    # witnesses of P.g and its products are built from one search's matrices,
    # each on its own pair's quotients and Lie-commutators.
    g = paper_g2(F3)
    a1, a2 = LeibnizAlgebra.abelian(F3, 1), LeibnizAlgebra.abelian(F3, 2)
    h = change_basis(g, Matrix.from_rows(F3, [(1, 1, 0), (0, 2, 0), (1, 0, 1)]))
    algebras = [g, direct_product(g, a1), direct_product(a2, g),
                h, direct_product(h, a1), direct_product(a2, h)]
    dg, dh = datum(g), datum(h)
    assert [datum(a) for a in algebras] == [dg] * 3 + [dh] * 3 and dg != dh
    assert dg.key is dg.key

    engines, keyed = count_engines_and_keys(monkeypatch)
    result = classify(algebras)
    assert [cls.members for cls in result.classes] == [list(range(6))]
    assert keyed == [dg, dh] and engines == [(dg, dg), (dg, dh)]
    assert engines[0][0] is engines[0][1] is engines[1][0] is keyed[0]
    rep = result.extensions[0]
    witnesses = result.classes[0].witnesses
    for member, w in witnesses.items():
        e = result.extensions[member]
        assert (w.eta.source, w.eta.target) == (rep.q, e.q)
        assert (w.xi.domain, w.xi.codomain) == (lie_commutator_of(rep.g),
                                                lie_commutator_of(e.g))
        assert check_witness(rep, e, w).ok
    assert witnesses[4].eta.matrix == witnesses[5].eta.matrix == witnesses[3].eta.matrix
    assert witnesses[4].xi.domain == witnesses[3].xi.domain
    assert witnesses[4].xi.codomain != witnesses[5].xi.codomain


def test_classify_schedules_each_source_datum_once(quotient_suite, monkeypatch):
    # every engine reads its source datum's schedule, filed once per datum
    # however many engines start from it
    engines, _ = count_engines_and_keys(monkeypatch)
    scheduled = count_computed(monkeypatch, "schedule")
    classify(quotient_suite)
    sources = list({id(d1): d1 for d1, _ in engines}.values())
    assert list(map(id, scheduled)) == list(map(id, sources))
    assert len(engines) > 2 * len(sources) > 2


def test_witnesses_from_an_extension_to_itself_read_one_datum(monkeypatch):
    # one datum for e1 = e2, so one key and one schedule, in witnesses and
    # in enumerate_autoclinisms
    e = canonical_extension(direct_product(paper_g1(F3), paper_g1(F3)))
    keyed = count_computed(monkeypatch, "key")
    scheduled = count_computed(monkeypatch, "schedule")
    assert len(list(iso.witnesses(e, e))) == 8
    assert len(keyed) == len(scheduled) == 1 and keyed[0] is scheduled[0]
    assert len(enumerate_autoclinisms(e)) == 8
    assert len(keyed) == len(scheduled) == 2 and keyed[1] is scheduled[1]


def test_classify_commutes_with_permuting_its_input(suite):
    # permuting the input changes only the representatives and the witnesses
    algebras = suite[:30] + suite[:6]
    perm = list(range(len(algebras)))
    random.Random(29).shuffle(perm)
    permuted = [algebras[k] for k in perm]  # position k holds input perm[k]
    before, after = classify(algebras), classify(permuted)

    def partition(result, position=lambda k: k):
        return {frozenset(position(k) for k in cls.members) for cls in result.classes}

    assert partition(after, lambda k: perm[k]) == partition(before)
    assert ({perm[cls.representative] for cls in after.classes}
            != {cls.representative for cls in before.classes})
    for result in (before, after):
        for cls in result.classes:
            for member, w in cls.witnesses.items():
                assert check_witness(result.extensions[cls.representative],
                                     result.extensions[member], w).ok


def test_classify_commutes_with_shuffling_and_changing_bases():
    # every member rewritten by a seeded P.g, in shuffled order: the same
    # partition, up to the order of members, with each witness checked
    for field, seeds in ((F3, range(12)), (F5, (0, 3))):
        algebras = [g for seed in seeds for g in generated_algebras(field, seed)]
        rng = random.Random(len(algebras))
        perm = list(range(len(algebras)))
        rng.shuffle(perm)
        moved = [change_basis(algebras[k], random_gl(rng, field, algebras[k].dim))
                 for k in perm]  # position k holds P.(input perm[k])
        before, after = classify(algebras), classify(moved)
        partition = {frozenset(cls.members) for cls in before.classes}
        assert {frozenset(perm[k] for k in cls.members) for cls in after.classes} == partition
        assert any(len(members) > 1 for members in partition)
        for result in (before, after):
            for cls in result.classes:
                for member, w in cls.witnesses.items():
                    assert check_witness(result.extensions[cls.representative],
                                         result.extensions[member], w).ok


def brute_force_partition(algebras):
    """classify's (representative, members) list, decided with no key: each
    algebra joins the first class, in order of creation, whose representative
    (earliest member) brute_force_witness_columns finds a witness to."""
    exts = [canonical_extension(a) for a in algebras]
    classes = []
    for idx, e in enumerate(exts):
        for rep, members in classes:
            if next(brute_force_witness_columns(exts[rep], e), None) is not None:
                members.append(idx)
                break
        else:
            classes.append((idx, [idx]))
    return classes


def test_classify_matches_brute_force_partition():
    # the generated F_3 batches (q-dim <= 3, |GL(3, F_3)| = 11,232) with P.g
    # copies of two members, in shuffled order, so that classes have several
    # members and a copy can be a representative.  12 batches of 7 make 3
    # to 5 classes each, 53 in all, 24 of them with more than one member;
    # the brute force takes about 3.7 s on a 2-core VM
    sizes = Counter()
    for seed in range(12):
        rng = random.Random(seed)
        algebras = generated_algebras(F3, seed)
        algebras += [change_basis(g, random_gl(rng, F3, g.dim)) for g in algebras[:2]]
        rng.shuffle(algebras)
        expected = brute_force_partition(algebras)
        assert [(cls.representative, cls.members) for cls in classify(algebras).classes] == expected
        sizes.update(len(members) for _, members in expected)
    assert sizes[1] >= 20 and sum(n for size, n in sizes.items() if size > 1) >= 20
