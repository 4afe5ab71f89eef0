"""Finite-dimensional Leibniz algebras and their relative (Lie-) invariants.

An algebra is a structure-constant tensor: structure[i][j] holds the
coordinates of [b_i, b_j].  The defining identity is

    [x, [y, z]] = [[x, y], z] - [[x, z], y]

checked on basis triples (bilinearity carries it to the whole space).

The "Lie-" invariants measure the failure of antisymmetry:
  * symmetric brackets [x, y] + [y, x] generate the Lie-commutator of two
    subspaces (as a two-sided ideal);
  * the Lie-center collects z with [x, z] + [z, x] = 0 for every x;
  * the squares [x, x] span the annihilator ideal, and dividing by it gives
    the largest Lie quotient (the liezation).

They all come from the symmetric bracket, and each algebra keeps it as one
tensor, _symmetric[i][j] = [b_i, b_j] + [b_j, b_i], computed on first
request.  Every symmetric bracket is a contraction of it, the Lie-commutator
(which is also the annihilator ideal) is the ideal its entries generate, and
the Lie-center is its radical (linalg.radical).  The tensor, the
Lie-commutator and the Lie-center are computed once and kept: the structure
tensor is an immutable tuple, so they cannot go stale.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from ._value import value_class
from .errors import AlgebraError, MorphismError
from .fields import Field
from .linalg import (
    LinearMap,
    Matrix,
    MatrixMap,
    QuotientStructure,
    Subspace,
    bilinear,
    canonical,
    combine,
    image,
    kernel,
    quotient,
    radical,
    span,
)


def _default_names(dim):
    return tuple(f"e{i + 1}" for i in range(dim))


@value_class
class LeibnizAlgebra:
    field: Field
    dim: int
    structure: tuple  # structure[i][j] = coordinate tuple of [b_i, b_j]
    basis_names: tuple = ()

    def __post_init__(self):
        if len(self.structure) != self.dim or any(
            len(row) != self.dim or any(len(v) != self.dim for v in row) for row in self.structure
        ):
            raise AlgebraError("structure tensor shape mismatch")
        if not self.basis_names:
            object.__setattr__(self, "basis_names", _default_names(self.dim))
        elif len(self.basis_names) != self.dim:
            raise AlgebraError("basis_names length mismatch")

    @classmethod
    def from_structure(cls, field, dim, entries, basis_names=()):
        """entries: {(i, j): vector} or full nested sequence."""
        if isinstance(entries, dict):
            tensor = [[(0,) * dim for _ in range(dim)] for _ in range(dim)]
            for (i, j), vec in entries.items():
                if not (0 <= i < dim and 0 <= j < dim):
                    raise AlgebraError(f"bracket index ({i}, {j}) out of range for dim {dim}")
                if len(vec) != dim:
                    raise AlgebraError(f"bracket value for ({i}, {j}) must have {dim} coordinates")
                tensor[i][j] = vec
        else:
            tensor = entries
        c = tuple(
            tuple(tuple(field.of(v) for v in tensor[i][j]) for j in range(dim))
            for i in range(dim)
        )
        return cls(field, dim, c, tuple(basis_names))

    @classmethod
    def abelian(cls, field, dim):
        z = (field.zero,) * dim
        return cls(field, dim, tuple(tuple(z for _ in range(dim)) for _ in range(dim)))

    def bracket_basis(self, i, j):
        return self.structure[i][j]

    def bracket(self, x, y):
        """[x, y] for coordinate tuples x, y (bilinear tensor contraction)."""
        return self._contract(self.structure, x, y)

    def symmetric_bracket(self, x, y):
        """[x, y] + [y, x], one contraction of the symmetric tensor."""
        return self._contract(self._symmetric, x, y)

    def _contract(self, table, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise AlgebraError(f"bracket of vectors of lengths {len(x)} and {len(y)} "
                               f"in an algebra of dim {self.dim}")
        return bilinear(self.field, table, x, y)

    def basis_vector(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return tuple(v)

    @cached_property
    def _symmetric(self) -> tuple:
        s, f = self.structure, self.field
        return tuple(tuple(canonical(f, [a + b for a, b in zip(s[i][j], s[j][i])])
                           for j in range(self.dim)) for i in range(self.dim))

    @cached_property
    def _lie_commutator(self) -> Subspace:
        # the symmetric tensor is symmetric, so entries i <= j suffice
        return ideal_closure(self, [row[j] for i, row in enumerate(self._symmetric)
                                    for j in range(i, self.dim)])

    @cached_property
    def _lie_center(self) -> Subspace:
        return radical(self.field, self._symmetric)


@value_class
class Violation:
    triple: tuple  # basis indices (i, j, k)
    residual: tuple  # [b_i,[b_j,b_k]] - [[b_i,b_j],b_k] + [[b_i,b_k],b_j]


@value_class
class ValidationReport:
    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


def violations(alg: LeibnizAlgebra):
    """Yield the Leibniz violations of alg in lexicographic order of the basis
    triples, lazily: a caller that reads only the first stops at its triple.

    With s the structure tensor, the residual of (i, j, k) is
    sum_t s[j][k][t] s[i][t] - s[i][j][t] s[t][k] + s[i][k][t] s[t][j],
    which vanishes when [b_j, b_k], [b_i, b_j] and [b_i, b_k] all do.
    """
    f, n = alg.field, alg.dim
    s = [[[(t, c) for t, c in enumerate(v) if c] for v in row] for row in alg.structure]
    for i, j, k in itertools.product(range(n), repeat=3):
        jk, ij, ik = s[j][k], s[i][j], s[i][k]
        if not (jk or ij or ik):
            continue
        out = [0] * n
        for t, c in jk:  # [b_i, [b_j, b_k]]
            for r, w in s[i][t]:
                out[r] += c * w
        for t, c in ij:  # [[b_i, b_j], b_k]
            for r, w in s[t][k]:
                out[r] -= c * w
        for t, c in ik:  # [[b_i, b_k], b_j]
            for r, w in s[t][j]:
                out[r] += c * w
        res = canonical(f, out)
        if any(res):
            yield Violation((i, j, k), res)


def validate(alg: LeibnizAlgebra) -> ValidationReport:
    """Check the Leibniz identity on all basis triples; lists every violation."""
    bad = tuple(violations(alg))
    return ValidationReport(not bad, bad)


def ideal_closure(alg: LeibnizAlgebra, vectors) -> Subspace:
    """Smallest two-sided ideal containing the given vectors or subspace."""
    if isinstance(vectors, Subspace):
        vectors = vectors.basis
    f, n, s = alg.field, alg.dim, alg.structure
    # zero vectors span nothing, and most brackets of a small algebra vanish
    space = span(f, n, [v for v in vectors if any(v)])
    while True:
        extra = []
        for v in space.basis:
            # [v, b_j] and [b_j, v], read straight off the structure tensor
            support = [(i, c) for i, c in enumerate(v) if c]
            for j in range(n):
                extra.append(combine(f, n, [(c, s[i][j]) for i, c in support]))
                extra.append(combine(f, n, [(c, s[j][i]) for i, c in support]))
        bigger = span(f, n, list(space.basis) + [w for w in extra if any(w)])
        if bigger.dim == space.dim:
            return space
        space = bigger


def is_ideal(alg: LeibnizAlgebra, s: Subspace) -> bool:
    """Whether s is a two-sided ideal: whether the ideal it generates is s."""
    return ideal_closure(alg, s).dim == s.dim


def lie_commutator(alg: LeibnizAlgebra, m: Subspace, n: Subspace) -> Subspace:
    """Two-sided ideal generated by [x, y] + [y, x], x in m, y in n."""
    gens = [alg.symmetric_bracket(u, v) for u in m.basis for v in n.basis]
    return ideal_closure(alg, gens)


def lie_commutator_of(alg: LeibnizAlgebra) -> Subspace:
    """[g, g]_Lie, computed once per algebra."""
    return alg._lie_commutator


def lie_center(alg: LeibnizAlgebra) -> Subspace:
    """{z : [x, z] + [z, x] = 0 for all x}; a two-sided ideal, computed once
    per algebra."""
    return alg._lie_center


def commutator_table(alg: LeibnizAlgebra, lifts) -> tuple:
    """table[i][j] = [x_i, x_j] + [x_j, x_i] for the vectors x_i of lifts,
    in the coordinates of [g, g]_Lie: the commutator map C at the lifts of a
    quotient's basis.  A symmetric bracket lies in [g, g]_Lie, whose RREF
    basis row of each pivot is 1 there and 0 at the other pivots, so its
    coordinates are its values at the pivots.  Each lift is read as its
    nonzero coordinates, so only the entries of the symmetric tensor that the
    lifts reach are read, and only at the pivots: a pair of unit-vector
    lifts, as a quotient's section gives, reads one entry."""
    pivots, s = lie_commutator_of(alg).pivots, alg._symmetric
    terms = [[(i, c) for i, c in enumerate(x) if c] for x in lifts]
    return tuple(tuple(canonical(alg.field, [sum([a * b * s[i][j][t] for i, a in tx
                                                  for j, b in ty]) for t in pivots])
                       for ty in terms) for tx in terms)


def annihilator_ideal(alg: LeibnizAlgebra) -> Subspace:
    """The ideal generated by the squares [x, x]: the Lie-commutator.

    [x, y] + [y, x] = [x + y, x + y] - [x, x] - [y, y] and [x, x] is half of
    [x, x] + [x, x], so the squares and the symmetric brackets span the same
    space once 2 is invertible, and Field rejects characteristic 2.
    """
    return lie_commutator_of(alg)


def is_abelian(alg: LeibnizAlgebra) -> bool:
    return not any(any(v) for row in alg.structure for v in row)


def has_trivial_lie_commutator(alg: LeibnizAlgebra) -> bool:
    """True exactly when the algebra is a Lie algebra (no nonzero squares)."""
    return lie_commutator_of(alg).dim == 0


@value_class
class AlgebraMorphism(MatrixMap):
    """A bracket-preserving linear map, validated at construction."""

    source: LeibnizAlgebra
    target: LeibnizAlgebra
    matrix: Matrix  # (target.dim x source.dim)

    def __post_init__(self):
        if (self.matrix.nrows, self.matrix.ncols) != (self.target.dim, self.source.dim):
            raise MorphismError("morphism matrix shape mismatch")
        if self.source.field != self.target.field or self.matrix.field != self.source.field:
            raise MorphismError("morphism field mismatch")
        cols = self.matrix.columns()
        for i in range(self.source.dim):
            for j in range(self.source.dim):
                lhs = self.matrix.apply(self.source.bracket_basis(i, j))
                rhs = self.target.bracket(cols[i], cols[j])
                if lhs != rhs:
                    raise MorphismError(f"bracket not preserved on basis pair ({i}, {j})")

    def apply(self, vec):
        return self.matrix.apply(vec)

    def compose(self, inner: "AlgebraMorphism") -> "AlgebraMorphism":
        if inner.target != self.source:
            raise MorphismError("morphism composition mismatch")
        return AlgebraMorphism(inner.source, self.target, self.matrix @ inner.matrix)

    def kernel_space(self) -> Subspace:
        return kernel(self.matrix)

    def image_space(self) -> Subspace:
        return image(self.matrix)

    def inverse(self) -> "AlgebraMorphism":
        inv = self.matrix.inverse()
        if inv is None:
            raise MorphismError("morphism is not invertible")
        return AlgebraMorphism(self.target, self.source, inv)


def restrict_to_lie_commutators(beta: AlgebraMorphism) -> LinearMap:
    """beta from [g, g]_Lie to [h, h]_Lie, in their basis coordinates.  An
    algebra morphism maps symmetric brackets to symmetric brackets, so it
    maps the ideal they generate into the one their images generate."""
    com1, com2 = lie_commutator_of(beta.source), lie_commutator_of(beta.target)
    cols = [com2.coords_of(beta.apply(b)) for b in com1.basis]
    return LinearMap(com1, com2, Matrix.from_columns(beta.source.field, cols, nrows=com2.dim))


@value_class
class QuotientAlgebra:
    algebra: LeibnizAlgebra
    projection: AlgebraMorphism
    structure: QuotientStructure


def quotient_algebra(alg: LeibnizAlgebra, ideal: Subspace) -> QuotientAlgebra:
    """alg / ideal with the induced bracket; errors if ideal is not two-sided.

    The projection's bracket check is the one two-sidedness test: for x in
    the ideal, pi[x, y] = [0, pi y] = 0 = pi[y, x] puts [x, y], [y, x] in it.
    """
    if ideal.ambient_dim != alg.dim:
        raise AlgebraError(f"quotient of F^{alg.dim} by a subspace of F^{ideal.ambient_dim}")
    qs = quotient(ideal)
    q_alg = induced_quotient(alg, qs)
    try:
        proj = AlgebraMorphism(alg, q_alg, qs.projection)
    except MorphismError as exc:
        raise AlgebraError("quotient by a subspace that is not a two-sided ideal") from exc
    return QuotientAlgebra(q_alg, proj, qs)


def induced_quotient(alg: LeibnizAlgebra, qs: QuotientStructure) -> LeibnizAlgebra:
    """The algebra on F^n / qs.ideal with the bracket induced through qs's
    section, its basis named after the coset coordinates; unchecked, so
    qs.ideal must be a two-sided ideal of alg.

    The section lifts the quotient basis to the unit vectors at the coset
    coordinates, whose brackets are entries of the structure tensor.
    """
    coset = qs.coset_coords
    tensor = tuple(tuple(qs.projection.apply(alg.structure[a][b]) for b in coset)
                   for a in coset)
    return LeibnizAlgebra(alg.field, qs.dim, tensor, tuple(alg.basis_names[c] for c in coset))


def liezation(alg: LeibnizAlgebra) -> QuotientAlgebra:
    """alg / its annihilator ideal: the largest Lie quotient."""
    return quotient_algebra(alg, annihilator_ideal(alg))


def direct_product(a: LeibnizAlgebra, b: LeibnizAlgebra) -> LeibnizAlgebra:
    if a.field != b.field:
        raise AlgebraError("direct product over different fields")
    f = a.field
    za, zb = (f.zero,) * a.dim, (f.zero,) * b.dim
    # the rows of a padded to the product, then those of b; mixed brackets vanish
    tensor = (tuple(tuple(v + zb for v in row) + (za + zb,) * b.dim for row in a.structure)
              + tuple((za + zb,) * a.dim + tuple(za + v for v in row) for row in b.structure))
    names = tuple(f"l_{s}" for s in a.basis_names) + tuple(f"r_{s}" for s in b.basis_names)
    return LeibnizAlgebra(f, a.dim + b.dim, tensor, names)


@value_class
class Subalgebra:
    algebra: LeibnizAlgebra
    inclusion: AlgebraMorphism


def subalgebra(alg: LeibnizAlgebra, s: Subspace, basis_names=()) -> Subalgebra:
    """The restricted algebra on a bracket-closed subspace, with inclusion.
    Each bracket is read at s's pivots, its coordinates if it lies in s; the
    inclusion's bracket check refuses s at the first bracket outside s."""
    rows = [[alg.bracket(u, v) for v in s.basis] for u in s.basis]
    tensor = tuple(tuple(tuple(w[t] for t in s.pivots) for w in row) for row in rows)
    names = tuple(basis_names) if basis_names else tuple(f"s{i + 1}" for i in range(s.dim))
    sub = LeibnizAlgebra(alg.field, s.dim, tensor, names)
    try:
        incl = AlgebraMorphism(sub, alg, s.basis_matrix().transpose())
    except MorphismError as exc:
        raise AlgebraError("subspace is not closed under the bracket") from exc
    return Subalgebra(sub, incl)


def subalgebra_closure(alg: LeibnizAlgebra, vectors) -> Subspace:
    """Smallest bracket-closed subspace containing the vectors or subspace."""
    if isinstance(vectors, Subspace):
        vectors = vectors.basis
    space = span(alg.field, alg.dim, vectors)
    while True:
        extra = [alg.bracket(u, v) for u in space.basis for v in space.basis]
        bigger = span(alg.field, alg.dim, list(space.basis) + extra)
        if bigger.dim == space.dim:
            return space
        space = bigger

