import itertools
import random

import pytest

from leibalg.algebra import AlgebraMorphism, LeibnizAlgebra, direct_product, lie_center, validate
from leibalg.documents import serialize_algebra
from leibalg.constructions import backward_extension, diagonal_pullback, product_with_abelian
from leibalg.extensions import canonical_extension
from leibalg.fields import MAX_PRIME, Field, _is_prime
from leibalg.linalg import Matrix, kernel

F3 = Field.prime(3)
F5 = Field.prime(5)
FQ = Field.rationals()
LARGEST_PRIME = next(p for p in range(MAX_PRIME, 2, -1) if _is_prime(p))

SUITE_SEED = 424243
SUITE_SIZE = 220


def paper_g1(field=FQ):
    return LeibnizAlgebra.from_structure(
        field, 2, {(0, 0): (0, 1), (1, 0): (0, 1)}, basis_names=("e1", "e2"))


def paper_g2(field=FQ):
    return LeibnizAlgebra.from_structure(
        field, 3,
        {(0, 0): (0, 0, 1), (1, 0): (0, 0, 1), (2, 0): (0, 0, 1)},
        basis_names=("a1", "a2", "a3"))


def nilpotent_n2(field=FQ):
    """dim 2, [e1,e1] = e2: its canonical extension has nonzero theta image."""
    return LeibnizAlgebra.from_structure(field, 2, {(0, 0): (0, 1)})


def lie_r2(field=FQ):
    """The nonabelian 2-dim Lie algebra, [x,y] = x = -[y,x]."""
    minus_one = field.of(-1)
    return LeibnizAlgebra.from_structure(
        field, 2, {(0, 1): (field.one, field.zero),
                   (1, 0): (minus_one, field.zero)})


def random_leibniz_algebra(rng, field=F3, max_dim=3):
    """Rejection-sample a sparse structure tensor until the Leibniz identity
    holds.  Dimension is biased away from 1 (dim-1 algebras are all abelian)."""
    dims = tuple(d for d in (1, 2, 2, 3, 3) if d <= max_dim)
    while True:
        dim = rng.choice(dims)
        table = {}
        for _ in range(rng.randrange(0, 2 * dim + 1)):
            i, j = rng.randrange(dim), rng.randrange(dim)
            vec = [0] * dim
            vec[rng.randrange(dim)] = rng.randrange(1, field.p)
            table[(i, j)] = tuple(vec)
        alg = LeibnizAlgebra.from_structure(field, dim, table)
        if validate(alg).ok:
            return alg


def algebra_suite(seed=SUITE_SEED, count=SUITE_SIZE, field=F3, max_dim=3):
    rng = random.Random(seed)
    return [random_leibniz_algebra(rng, field, max_dim) for _ in range(count)]


def change_basis(alg, p_mat):
    """P.g: the algebra for which x -> P x is an isomorphism from g."""
    cols = p_mat.inverse().columns()
    h = LeibnizAlgebra.from_structure(
        alg.field, alg.dim,
        [[p_mat.apply(alg.bracket(cols[i], cols[j])) for j in range(alg.dim)]
         for i in range(alg.dim)])
    AlgebraMorphism(alg, h, p_mat)  # construction checks that P preserves brackets
    return h


def random_gl(rng, field, n):
    """A random invertible n x n matrix over F_p, drawn entry by entry."""
    while True:
        m = Matrix(field, n, n, tuple(tuple(rng.randrange(field.p) for _ in range(n))
                                      for _ in range(n)))
        if m.inverse() is not None:
            return m


# Seeds k for which P = random_gl(random.Random(k), F5, 4) puts the first
# column of the lexicographically first witness from g1 x g1 (or g1 x g2) to
# P.(g1 x g1) late in lexicographic order: at positions 420 and 387, counting
# from 0, of the 625 vectors of F_5^4, the two latest among seeds 0-399.  The search walks every earlier
# first column, so these are the slow strata of the q-dim-4 pairs.
LATE_GL_SEEDS = (183, 384)


def late_gl(seed):
    return random_gl(random.Random(seed), F5, 4)


def fixed_gl(field, n):
    """One fixed P in GL(n) over every field: lower times upper
    unitriangular, so det P = 1."""
    lower = Matrix.from_rows(field, [[int(j <= i) for j in range(n)] for i in range(n)], ncols=n)
    upper = Matrix.from_rows(field, [[(i + j) % 3 + 1 if j > i else int(i == j)
                                      for j in range(n)] for i in range(n)], ncols=n)
    return lower @ upper


def embedding(field, dim, extra):
    """x -> (x, 0): F^dim into F^(dim + extra)."""
    return Matrix.identity(field, dim).vstack(Matrix.zeros(field, extra, dim))


# -- generated central extensions ---------------------------------------------


def leibniz_cocycles(q):
    """A basis of the Leibniz 2-cocycles q x q -> F, each as the m*m
    coefficients phi(b_i, b_j) at index i*m + j: the kernel of
    phi(x, [y, z]) = phi([x, y], z) - phi([x, z], y) on basis triples."""
    m = q.dim
    rows = []
    for i, j, k in itertools.product(range(m), repeat=3):
        row = [0] * (m * m)
        for t, c in enumerate(q.structure[j][k]):
            row[i * m + t] += c
        for t, c in enumerate(q.structure[i][j]):
            row[t * m + k] -= c
        for t, c in enumerate(q.structure[i][k]):
            row[t * m + j] += c
        rows.append(row)
    return kernel(Matrix.from_rows(q.field, rows, ncols=m * m)).basis


def central_extension_algebra(q, cocycles):
    """g = q + F^k with [(x, a), (y, b)] = ([x, y], phi(x, y)) for the k
    cocycles phi: F^k is central in g and g / F^k = q."""
    m = q.dim
    table = {(i, j): tuple(q.structure[i][j]) + tuple(phi[i * m + j] for phi in cocycles)
             for i in range(m) for j in range(m)}
    return LeibnizAlgebra.from_structure(q.field, m + len(cocycles), table)


def random_central_extension(rng, q, k):
    """q + F^k along k seeded combinations of the cocycle basis."""
    f, basis = q.field, leibniz_cocycles(q)
    scalars = range(f.p) if f.is_finite else range(-2, 3)
    cocycles = []
    for _ in range(k):
        coeffs = [rng.choice(scalars) for _ in basis]
        cocycles.append(tuple(f.of(sum(c * v[t] for c, v in zip(coeffs, basis)))
                              for t in range(q.dim * q.dim)))
    return central_extension_algebra(q, cocycles)


def generated_algebras(field, seed):
    """Deterministic Leibniz algebras of dim 4-6 with canonical q-dim <= 3.

    Each is built in two central-extension steps: a base of dim 1 or 2 is
    extended to dim 3, and that algebra h by F^k, k = 1, 2, 3.  The last F^k
    is central, so it lies in the Lie-center and g / Z_Lie(g) is a quotient
    of h.
    """
    rng = random.Random(seed)
    bases = [LeibnizAlgebra.abelian(field, 1), LeibnizAlgebra.abelian(field, 2),
             paper_g1(field), nilpotent_n2(field), lie_r2(field)]
    out = []
    for k, base in zip((1, 2, 3, 1, 2), bases):
        h = random_central_extension(rng, base, 3 - base.dim)
        out.append(random_central_extension(rng, h, k))
    return out


# -- pinned extension constructions -------------------------------------------


def _matrix_json(m):
    return [[m.field.scalar_to_json(c) for c in row] for row in m.entries]


def _extension_json(e):
    doc = {part: serialize_algebra(getattr(e, part)) for part in ("n", "g", "q")}
    doc.update(chi=_matrix_json(e.chi.matrix), pi=_matrix_json(e.pi.matrix),
               section=_matrix_json(e.section))
    return doc


def _triple_json(t):
    return {part: _matrix_json(getattr(t, part).matrix) for part in ("alpha", "beta", "gamma")}


def construction_snapshots():
    """label -> the matrices and algebras of one built extension and its
    triples, for backward_extension, diagonal_pullback and
    product_with_abelian on a fixed battery over F_3, F_5 and Q.

    Each fibre product runs along the eta induced on quotients by an algebra
    morphism M: g -> h, for h = P.g (M = P) and h = P.(g x F) (M = P after
    the embedding).
    """
    out = {}
    for field in (F3, F5, FQ):
        one = LeibnizAlgebra.abelian(field, 1)
        battery = {"g1": paper_g1(field), "g2": paper_g2(field), "n2": nilpotent_n2(field),
                   "r2": lie_r2(field),
                   "g1xn2": direct_product(paper_g1(field), nilpotent_n2(field))}
        for name, g in battery.items():
            e1 = canonical_extension(g)
            n = g.dim
            pairs = {
                "P.g": (change_basis(g, fixed_gl(field, n)), fixed_gl(field, n)),
                "P.(g x F)": (change_basis(direct_product(g, one), fixed_gl(field, n + 1)),
                              fixed_gl(field, n + 1) @ embedding(field, n, 1)),
            }
            for pair, (h, m) in pairs.items():
                e2 = canonical_extension(h)
                eta = AlgebraMorphism(e1.q, e2.q, e2.pi.matrix @ m @ e1.section)
                bw = backward_extension(e2, eta)
                out[f"{field} {name} backward {pair}"] = {
                    "extension": _extension_json(bw.extension), "iso": _triple_json(bw.iso)}
                pb = diagonal_pullback(e1, e2, eta)
                out[f"{field} {name} pullback {pair}"] = {
                    "extension": _extension_json(pb.extension),
                    "to_first": _triple_json(pb.to_first),
                    "to_second": _triple_json(pb.to_second)}
            for k in range(3):
                pr = product_with_abelian(e1, LeibnizAlgebra.abelian(field, k))
                out[f"{field} {name} product F^{k}"] = {
                    "extension": _extension_json(pr.extension),
                    "onto_original": _triple_json(pr.onto_original),
                    "from_original": _triple_json(pr.from_original)}
    return out


@pytest.fixture(scope="session")
def suite():
    """The shared random suite: >= 200 validated algebras over F_3, dim <= 3."""
    return algebra_suite()


@pytest.fixture(scope="session")
def quotient_suite(suite):
    """The suite members that are not Lie algebras, in suite order: those
    whose canonical extension has q = g/Z_Lie(g) != 0, 73 of the 220."""
    return [g for g in suite if lie_center(g).dim < g.dim]


@pytest.fixture
def rng():
    return random.Random(99173)


ACCEPTANCE_LINES = []


def record_acceptance(number, label, ok, note=""):
    line = f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}"
    if note:
        line += f"  [{note}]"
    ACCEPTANCE_LINES.append((number, line))
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def all_vectors(field, n):
    """Every vector of F_p^n (finite fields only, small n)."""
    return [tuple(v) for v in itertools.product(range(field.p), repeat=n)]


def brute_force_members(subspace):
    """All elements of a subspace over F_p by enumerating coefficient tuples."""
    f = subspace.field
    out = set()
    for coeffs in itertools.product(range(f.p), repeat=subspace.dim):
        vec = [0] * subspace.ambient_dim
        for c, b in zip(coeffs, subspace.basis):
            for t in range(subspace.ambient_dim):
                vec[t] = (vec[t] + c * b[t]) % f.p
        out.add(tuple(vec))
    return out


def random_vector(rng, field, n):
    if field.is_finite:
        return tuple(rng.randrange(field.p) for _ in range(n))
    return tuple(field.of(rng.randint(-4, 4)) for _ in range(n))
