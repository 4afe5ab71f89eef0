"""Metamorphic laws on generated algebras beyond dim 3.

conftest.generated_algebras builds g = q + F^k with
[(x, a), (y, b)] = ([x, y], phi(x, y)) for Leibniz 2-cocycles phi, in two
steps, so that every algebra has dim 4-6 and canonical q-dim <= 3.  The laws:
P.g keeps the invariants and the search key; g, P.g and g x F^k are
isoclinic, by the witness that P or the embedding carries and, over F_p, by
the searched one; the constructions along each witness validate and have
isoclinic triples; and products of isoclinic pairs are isoclinic.
"""

import random

import pytest

from leibalg.algebra import (
    AlgebraMorphism,
    LeibnizAlgebra,
    annihilator_ideal,
    direct_product,
    lie_center,
    lie_commutator_of,
    validate,
)
from leibalg.constructions import (
    backward_extension,
    diagonal_pullback,
    is_isoclinic_homomorphism,
    product_with_abelian,
)
from leibalg.extensions import canonical_extension, validate_extension
from leibalg.isoclinism import (
    IsoclinismDatum,
    IsoclinismWitness,
    check_witness,
    classify,
    search_isoclinism,
)
from leibalg.linalg import LinearMap, Matrix

from conftest import (
    F3,
    F5,
    FQ,
    change_basis,
    embedding,
    generated_algebras,
    leibniz_cocycles,
    lie_r2,
    nilpotent_n2,
    paper_g1,
    random_central_extension,
)

FIELDS = (F3, F5, FQ)
SEED = 5417


def seeded_gl(rng, field, n):
    scalars = range(field.p) if field.is_finite else range(-2, 3)
    while True:
        m = Matrix.from_rows(field, [[rng.choice(scalars) for _ in range(n)] for _ in range(n)],
                             ncols=n)
        if m.inverse() is not None:
            return m


def induced_witness(e1, e2, m):
    """The witness carried by a linear map M: g1 -> g2 that maps brackets to
    brackets and Z_Lie(g1) into Z_Lie(g2), and is onto modulo Z_Lie(g2):
    eta = pi2 M s1 on quotients and xi = M on the Lie-commutators."""
    f = e1.g.field
    eta = AlgebraMorphism(e1.q, e2.q, e2.pi.matrix @ m @ e1.section)
    com1, com2 = lie_commutator_of(e1.g), lie_commutator_of(e2.g)
    xi = Matrix.from_columns(f, [com2.coords_of(m.apply(v)) for v in com1.basis], nrows=com2.dim)
    return IsoclinismWitness(eta, LinearMap(com1, com2, xi))


def isoclinic_pairs(field):
    """(label, g, h, M): h = P.g with M = P, and h = g x F^k with M the
    embedding, for every generated g."""
    rng = random.Random(SEED)
    out = []
    for idx, g in enumerate(generated_algebras(field, SEED)):
        p_mat = seeded_gl(rng, field, g.dim)
        out.append((f"{field} #{idx} P.g", g, change_basis(g, p_mat), p_mat))
        k = 1 + idx % 2
        out.append((f"{field} #{idx} g x F^{k}", g,
                    direct_product(g, LeibnizAlgebra.abelian(field, k)),
                    embedding(field, g.dim, k)))
    return out


PAIRS = {field: isoclinic_pairs(field) for field in FIELDS}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_generated_algebras_reach_dim_4_to_6_with_small_quotients(field):
    algebras = generated_algebras(field, SEED)
    assert {g.dim for g in algebras} == {4, 5, 6}
    for g in algebras:
        assert validate(g).ok
        assert 1 <= canonical_extension(g).q.dim <= 3
    # every bilinear form on an abelian algebra is a cocycle; on paper_g1
    # ([e1,e1] = [e2,e1] = e2) the triples (e1,e1,e1) and (e1,e1,e2) force
    # phi(e1, e2) = phi(e2, e2) = 0, and the other triples add nothing
    assert len(leibniz_cocycles(LeibnizAlgebra.abelian(field, 2))) == 4
    assert leibniz_cocycles(paper_g1(field)) == ((1, 0, 0, 0), (0, 0, 1, 0))
    # the same seed gives the same algebras
    assert generated_algebras(field, SEED) == algebras


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_change_of_basis_keeps_invariants_and_search_key(field):
    for label, g, h, _ in PAIRS[field]:
        if "P.g" in label:
            assert lie_center(g).dim == lie_center(h).dim, label
            assert annihilator_ideal(g).dim == annihilator_ideal(h).dim, label
            dg = IsoclinismDatum.of(canonical_extension(g))
            dh = IsoclinismDatum.of(canonical_extension(h))
            assert dg.key == dh.key, label


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_change_of_basis_and_abelian_factors_are_isoclinisms(field):
    for label, g, h, m in PAIRS[field]:
        e1, e2 = canonical_extension(g), canonical_extension(h)
        assert check_witness(e1, e2, induced_witness(e1, e2, m)).ok, label
        if field.is_finite:
            found = search_isoclinism(e1, e2)
            assert found is not None, label
            assert check_witness(e1, e2, found).ok, label


def witnesses(field, e1, e2, m):
    """The induced witness, and over F_p the searched one too."""
    out = [induced_witness(e1, e2, m)]
    if field.is_finite:
        out.append(search_isoclinism(e1, e2))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_constructions_along_witnesses_validate_with_isoclinic_triples(field):
    for label, g, h, m in PAIRS[field]:
        e1, e2 = canonical_extension(g), canonical_extension(h)
        built = [product_with_abelian(e1, LeibnizAlgebra.abelian(field, 1))]
        triples = [built[0].onto_original, built[0].from_original]
        for w in witnesses(field, e1, e2, m):
            bw, pb = backward_extension(e2, w.eta), diagonal_pullback(e1, e2, w.eta)
            built += [bw, pb]
            triples += [bw.iso, pb.to_first, pb.to_second]
        for b in built:
            assert validate_extension(b.extension).ok, label
        for triple in triples:
            assert is_isoclinic_homomorphism(triple), label


# -- the q-dim-4 slice over F_5 -------------------------------------------------


def quotient_dim_4_algebras(seed):
    """paper_g1, nilpotent_n2 and lie_r2 over F_5, each grown to dim 4 and
    then by F^1 along seeded cocycles, kept when the canonical quotient has
    dim 4: past the q-dim 3 where brute force over GL stops."""
    rng = random.Random(seed)
    out = []
    for base in (paper_g1(F5), nilpotent_n2(F5), lie_r2(F5)):
        g = random_central_extension(rng, random_central_extension(rng, base, 2), 1)
        if canonical_extension(g).q.dim == 4:
            out.append(g)
    return out


def test_search_finds_a_witness_to_changed_bases_times_abelian_factors_at_q_dim_4():
    rng = random.Random(SEED)
    algebras = [g for seed in range(3) for g in quotient_dim_4_algebras(seed)]
    assert len(algebras) == 6
    for idx, g in enumerate(algebras):
        e1 = canonical_extension(g)
        for k in (1, 2):
            p_mat = seeded_gl(rng, F5, g.dim)
            e2 = canonical_extension(direct_product(change_basis(g, p_mat),
                                                    LeibnizAlgebra.abelian(F5, k)))
            label = f"#{idx} P.g x F^{k}"
            found = search_isoclinism(e1, e2)
            assert found is not None, label
            assert check_witness(e1, e2, found).ok, label
            m = embedding(F5, g.dim, k) @ p_mat
            assert check_witness(e1, e2, induced_witness(e1, e2, m)).ok, label


# -- products of isoclinic pairs ------------------------------------------------


def block_diagonal(m1, m2):
    """[[m1, 0], [0, m2]]."""
    f = m1.field
    return m1.hstack(Matrix.zeros(f, m1.nrows, m2.ncols)).vstack(
        Matrix.zeros(f, m2.nrows, m1.ncols).hstack(m2))


def test_products_of_isoclinic_pairs_are_isoclinic_by_the_block_diagonal_witness():
    # The Lie-centre and the Lie-commutator of a x b are those of a and b side
    # by side, so witnesses a -> a' and b -> b' give one a x b -> a' x b' whose
    # eta and xi are block diagonal.  The pairs are each class's first two
    # members in classify of the generated F_3 batch; each pair is multiplied
    # by itself and by the next, up to q-dim 6
    batch = [g for seed in range(12) for g in generated_algebras(F3, seed)]
    pairs = [(batch[c.representative], batch[m], c.witnesses[m])
             for c in classify(batch).classes for m in c.members[1:2]]
    assert len(pairs) == 12
    searched = []
    for i, (a, a2, wa) in enumerate(pairs):
        for b, b2, wb in (pairs[i], pairs[(i + 1) % len(pairs)]):
            e1 = canonical_extension(direct_product(a, b))
            e2 = canonical_extension(direct_product(a2, b2))
            w = IsoclinismWitness(
                AlgebraMorphism(e1.q, e2.q, block_diagonal(wa.eta.matrix, wb.eta.matrix)),
                LinearMap(lie_commutator_of(e1.g), lie_commutator_of(e2.g),
                          block_diagonal(wa.xi.matrix, wb.xi.matrix)))
            assert check_witness(e1, e2, w).ok
            if e1.q.dim <= 4:
                found = search_isoclinism(e1, e2)
                assert found is not None and check_witness(e1, e2, found).ok
                searched.append(e1.q.dim)
    assert sorted(set(searched)) == [2, 3, 4]
