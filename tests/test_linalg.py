import random
import re
from fractions import Fraction

import pytest

from leibalg.fields import Field
from leibalg.linalg import (
    LinalgError,
    LinearMap,
    Matrix,
    Subspace,
    bilinear,
    combine,
    image,
    intersect,
    kernel,
    quotient,
    radical,
    rref,
    span,
    subspace_sum,
    zero_subspace,
)

from conftest import (
    F3,
    FQ,
    LARGEST_PRIME,
    all_vectors,
    brute_force_members,
    random_vector,
)


def random_matrix(rng, field, nrows, ncols):
    return Matrix.from_rows(field, [
        [random_vector(rng, field, ncols)[j] for j in range(ncols)]
        for _ in range(nrows)])


# -- reduced echelon form ----------------------------------------------------


def test_rref_canonical_properties_random():
    rng = random.Random(101)
    for field in (F3, FQ, Field.prime(101), Field.prime(LARGEST_PRIME)):
        for _ in range(60):
            m = random_matrix(rng, field, rng.randint(1, 5), rng.randint(1, 5))
            r, pivots = rref(m)
            assert pivots == sorted(pivots)
            for k, c in enumerate(pivots):
                col = [r.entries[i][c] for i in range(r.nrows)]
                expected = [field.one if i == k else field.zero
                            for i in range(r.nrows)]
                assert col == expected
            assert not any(v for row in r.entries[len(pivots):] for v in row)
            assert all(v == field.of(v) for row in r.entries for v in row)
            again, again_pivots = rref(r)
            assert again == r and again_pivots == pivots


def test_rref_preserves_row_space():
    rng = random.Random(102)
    for _ in range(40):
        m = random_matrix(rng, F3, rng.randint(1, 4), rng.randint(1, 4))
        r, pivots = rref(m)
        original = span(F3, m.ncols, list(m.entries))
        reduced = span(F3, m.ncols, [r.entries[i] for i in range(len(pivots))])
        assert original == reduced


def test_rref_and_matmul_known_values_mod_5():
    f5 = Field.prime(5)
    r, pivots = rref(Matrix.from_rows(f5, [[1, 2, 0], [2, 4, 1]]))
    assert pivots == [0, 2]
    assert r.entries == ((1, 2, 0), (0, 0, 1))
    product = Matrix.from_rows(f5, [[1, 2], [3, 4]]) @ Matrix.from_rows(f5, [[1], [2]])
    assert product.entries == ((0,), (1,))


# -- matrices ----------------------------------------------------------------


def test_matrix_algebra_round_trips():
    rng = random.Random(104)
    for field in (F3, FQ):
        for _ in range(30):
            n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            a = random_matrix(rng, field, n, k)
            b = random_matrix(rng, field, k, m)
            v = random_vector(rng, field, m)
            assert (a @ b).apply(v) == a.apply(b.apply(v))
            assert a.transpose().transpose() == a
        # an empty column list with explicit nrows is the n x 0 matrix
        for n in (0, 1, 4):
            assert Matrix.from_columns(field, [], nrows=n) == Matrix.zeros(field, n, 0)


def _int_matrix(field, rows, ncols):
    return Matrix(field, len(rows), ncols, tuple(tuple(map(field.of, r)) for r in rows))


def test_matmul_commutes_with_reduction_mod_p():
    rng = random.Random(113)
    for p in (3, 101, LARGEST_PRIME):
        fp = Field.prime(p)
        for _ in range(20):
            n, k, m = rng.randint(1, 4), rng.randint(0, 4), rng.randint(1, 4)
            a = [[rng.randint(-2 * p, 2 * p) for _ in range(k)] for _ in range(n)]
            b = [[rng.randint(-2 * p, 2 * p) for _ in range(m)] for _ in range(k)]
            over_q = _int_matrix(FQ, a, k) @ _int_matrix(FQ, b, m)
            over_p = _int_matrix(fp, a, k) @ _int_matrix(fp, b, m)
            assert over_p == Matrix.from_rows(fp, over_q.entries, ncols=m)


def _fold(f, k, terms):
    """sum of c v over the terms, one Field operation per scalar."""
    out = (f.zero,) * k
    for c, v in terms:
        out = tuple(map(f.add, out, (f.mul(c, w) for w in v)))
    return out


def test_bilinear_matches_the_defining_sum():
    # bilinear, combine and Matrix.apply against term-by-term folds, entries
    # canonical; entries no term reaches are the field zero, a Fraction over Q
    rng = random.Random(117)
    for f in (F3, Field.prime(LARGEST_PRIME), FQ):
        for _ in range(20):
            n, k = rng.randint(1, 4), rng.randint(0, 4)
            table = [[random_vector(rng, f, k) for _ in range(n)] for _ in range(n)]
            x, y = random_vector(rng, f, n), random_vector(rng, f, n)
            terms = [(f.mul(x[i], y[j]), table[i][j]) for i in range(n) for j in range(n)]
            m = Matrix(f, k, n, tuple(random_vector(rng, f, n) for _ in range(k)))
            for out, expected in (
                    (bilinear(f, table, x, y), _fold(f, k, terms)),
                    (combine(f, k, terms), _fold(f, k, terms)),
                    (m.apply(x), _fold(f, k, zip(x, m.columns()))),
                    (m.apply(x), (m @ Matrix.from_columns(f, [x])).column(0))):
                assert out == expected
                assert all(type(v) is type(f.zero) for v in out)
                if f.is_finite:
                    assert all(0 <= v < f.p for v in out)
    assert bilinear(F3, (), (), ()) == ()
    assert combine(FQ, 2, []) == (FQ.zero, FQ.zero)


def test_matmul_mismatch_raises():
    a = Matrix.identity(F3, 2)
    b = Matrix.identity(F3, 3)
    with pytest.raises(LinalgError):
        a @ b


def test_matmul_by_a_non_matrix_is_a_type_error():
    with pytest.raises(TypeError):
        Matrix.identity(F3, 2) @ (1, 0)


def test_intersection_of_zero_spaces_is_the_zero_space():
    for field in (F3, FQ):
        zero = zero_subspace(field, 3)
        assert intersect(zero, zero) == zero
        assert intersect(zero, span(field, 3, Matrix.identity(field, 3).entries)) == zero


def test_inverse_iff_full_rank():
    rng = random.Random(105)
    for field in (F3, FQ):
        for _ in range(40):
            n = rng.randint(1, 4)
            a = random_matrix(rng, field, n, n)
            inv = a.inverse()
            if a.rank() == n:
                assert inv is not None
                assert a @ inv == Matrix.identity(field, n)
                assert inv @ a == Matrix.identity(field, n)
            else:
                assert inv is None


# -- subspaces ----------------------------------------------------------------


def test_span_membership_against_enumeration():
    rng = random.Random(107)
    for _ in range(30):
        n = rng.randint(1, 3)
        vecs = [random_vector(rng, F3, n) for _ in range(rng.randint(0, 3))]
        s = span(F3, n, vecs)
        members = brute_force_members(s)
        for v in all_vectors(F3, n):
            assert s.contains(v) == (v in members)


def test_subspace_equality_is_syntactic():
    s1 = span(FQ, 3, [(1, 1, 0), (0, 0, 1)])
    s2 = span(FQ, 3, [(2, 2, 3), (0, 0, -1)])
    assert s1 == s2
    assert s1.basis == s2.basis


def test_coords_round_trip_and_rejection():
    s = span(F3, 3, [(1, 0, 2), (0, 1, 1)])
    v = tuple(map(F3.add, s.basis[0], (F3.mul(2, b) for b in s.basis[1])))
    assert s.vector_from_coords(s.coords_of(v)) == v
    with pytest.raises(LinalgError):
        s.coords_of((0, 0, 1))


def test_coords_and_reduce_over_q_take_strings_and_fractions():
    s = span(FQ, 3, [("1/2", 0, 1), (0, Fraction(2, 3), 1)])
    assert s.basis == ((1, 0, 2), (0, 1, Fraction(3, 2)))
    # 1/3 b_1 - 1/2 b_2, given partly as strings
    v = ("1/3", Fraction(-1, 2), "-1/12")
    assert s.coords_of(v) == (Fraction(1, 3), Fraction(-1, 2))
    assert s.vector_from_coords(s.coords_of(v)) == tuple(map(FQ.of, v))
    assert s.reduce(v) == (0, 0, 0) and s.contains(v)
    rest = s.reduce(("1/3", 0, 0))
    assert rest == (0, 0, Fraction(-2, 3))
    assert all(type(c) is Fraction for c in s.reduce(v) + rest)
    assert not s.contains(("1/3", 0, 0))
    with pytest.raises(LinalgError):
        s.coords_of(("1/3", 0, 0))


def test_grassmann_dimension_formula():
    rng = random.Random(108)
    for _ in range(60):
        n = rng.randint(1, 4)
        u = span(F3, n, [random_vector(rng, F3, n) for _ in range(rng.randint(0, 3))])
        w = span(F3, n, [random_vector(rng, F3, n) for _ in range(rng.randint(0, 3))])
        total = subspace_sum(u, w)
        meet = intersect(u, w)
        assert u.dim + w.dim == total.dim + meet.dim
        assert meet.is_subspace_of(u) and meet.is_subspace_of(w)
        assert u.is_subspace_of(total) and w.is_subspace_of(total)


def test_intersection_against_enumeration():
    rng = random.Random(109)
    for _ in range(20):
        n = rng.randint(1, 3)
        u = span(F3, n, [random_vector(rng, F3, n) for _ in range(2)])
        w = span(F3, n, [random_vector(rng, F3, n) for _ in range(2)])
        expected = brute_force_members(u) & brute_force_members(w)
        assert brute_force_members(intersect(u, w)) == expected


def test_kernel_image_rank_nullity():
    rng = random.Random(110)
    for field in (F3, FQ):
        for _ in range(40):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            a = random_matrix(rng, field, n, m)
            ker = kernel(a)
            im = image(a)
            assert ker.dim + im.dim == m
            for v in ker.basis:
                assert not any(a.apply(v))
            for v in im.basis:
                assert a.hstack(Matrix.from_columns(field, [v])).rank() == a.rank()


def test_radical_matches_enumeration():
    # seeded tensors, neither symmetric nor dense, of every small shape
    rng = random.Random(112)
    dims = set()
    for m in range(4):
        for width in range(3):
            for _ in range(8):
                table = tuple(tuple(random_vector(rng, F3, width) if rng.random() < 0.5
                                    else (0,) * width for _ in range(m)) for _ in range(m))
                rad = radical(F3, table)
                expected = {x for x in all_vectors(F3, m)
                            if not any(any(bilinear(F3, table, x, y))
                                       for y in all_vectors(F3, m))}
                assert rad.ambient_dim == m
                assert brute_force_members(rad) == expected
                dims.add((rad.dim, m))
    assert {(0, 0), (3, 3)} <= dims and any(0 < r < m for r, m in dims)


def test_quotient_structure_laws():
    rng = random.Random(111)
    for field in (F3, FQ):
        for _ in range(30):
            n = rng.randint(1, 4)
            ideal = span(field, n,
                         [random_vector(rng, field, n) for _ in range(rng.randint(0, 2))])
            qs = quotient(ideal)
            assert qs.projection @ qs.section == Matrix.identity(field, n - ideal.dim)
            assert kernel(qs.projection) == ideal
            # column i is the remainder of e_i modulo the ideal, read at the
            # coset coordinates
            for i in range(n):
                red = ideal.reduce(tuple(field.one if j == i else field.zero for j in range(n)))
                assert qs.projection.column(i) == tuple(red[c] for c in qs.coset_coords)
            v = random_vector(rng, field, n)
            for z in ideal.basis:
                assert qs.project(tuple(map(field.add, v, z))) == qs.project(v)


# -- linear maps between subspaces --------------------------------------------


def test_linear_map_compose_inverse():
    s = span(F3, 3, [(1, 0, 0), (0, 1, 2)])
    m = LinearMap(s, s, Matrix.from_rows(F3, [(1, 1), (0, 1)]))
    inv = m.inverse()
    assert m.compose(inv).matrix == Matrix.identity(F3, 2)
    assert m.is_bijective and inv.is_injective


def test_zero_and_full_subspaces():
    full = span(F3, 3, Matrix.identity(F3, 3).entries)
    assert zero_subspace(F3, 3).dim == 0
    assert full.dim == 3 and full.pivots == (0, 1, 2)
    assert zero_subspace(F3, 3).is_subspace_of(full)


def test_a_subspace_needs_one_pivot_per_basis_row():
    """Membership and coordinates read each row's pivot, so a basis without
    its pivots would answer wrongly: (1, 0) reduced by a row with no pivot
    stays (1, 0)."""
    for basis, pivots in ((((1, 0),), ()), ((), (0,)), (((1, 0), (0, 1)), (0,))):
        with pytest.raises(LinalgError, match="^a subspace needs one pivot per basis row$"):
            Subspace(F3, 2, basis, pivots)
    assert Subspace(F3, 2, ()) == zero_subspace(F3, 2)
    line = Subspace(F3, 2, ((1, 0),), (0,))
    assert line == span(F3, 2, [(2, 0)])
    assert line.contains((1, 0)) and line.coords_of((2, 0)) == (2,)


def test_fraction_entries_stay_exact():
    a = Matrix.from_rows(FQ, [[Fraction(1, 3), Fraction(1, 2)],
                              [Fraction(2, 3), Fraction(1, 7)]])
    inv = a.inverse()
    assert inv is not None
    assert a @ inv == Matrix.identity(FQ, 2)


# -- preconditions ---------------------------------------------------------------

_I2, _I3 = Matrix.identity(F3, 2), Matrix.identity(F3, 3)
_LINE2, _LINE3 = span(F3, 2, [(1, 0)]), span(F3, 3, [(1, 0, 0)])
PRECONDITIONS = {
    "cannot infer column count of an empty matrix": lambda: Matrix.from_rows(F3, []),
    "cannot infer row count of an empty matrix": lambda: Matrix.from_columns(F3, []),
    "vector length mismatch": lambda: _I2.apply((1, 0, 0)),
    "hstack mismatch": lambda: _I2.hstack(_I3),
    "vstack mismatch": lambda: _I2.vstack(_I3),
    "inverse of a non-square matrix": lambda: Matrix.zeros(F3, 2, 3).inverse(),
    "vector/ambient mismatch": lambda: _LINE2.reduce((1, 0, 0)),
    "spanning vector has wrong length": lambda: span(F3, 2, [(1, 0, 0)]),
    "subspace sum mismatch": lambda: subspace_sum(_LINE2, _LINE3),
    "subspace intersection mismatch": lambda: intersect(_LINE2, _LINE3),
    "linear map composition mismatch":
        lambda: LinearMap.identity(_LINE2).compose(LinearMap.identity(_LINE3)),
    "linear map is not invertible":
        lambda: LinearMap(_LINE2, _LINE2, Matrix.zeros(F3, 1, 1)).inverse(),
}


@pytest.mark.parametrize("message", PRECONDITIONS)
def test_a_broken_precondition_raises_its_linalg_error(message):
    with pytest.raises(LinalgError, match=f"^{re.escape(message)}$"):
        PRECONDITIONS[message]()
