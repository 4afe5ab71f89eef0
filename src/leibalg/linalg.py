"""Exact dense linear algebra with deterministic canonical forms.

Everything downstream (subspace comparisons, quotients, witness derivation)
leans on one fact: a subspace is stored as the reduced row echelon basis of
its span, so equality of subspaces is equality of tuples.  Matrices act on
column vectors: y = M @ x with M of shape (codomain dim, domain dim).

Scalars are canonical at rest: every stored vector and matrix entry is an
int in [0, p) or a Fraction.  A computed vector accumulates in plain ints
(Fractions over Q) and goes through `canonical` once: `combine` sums scaled
vectors (matrix products too), `Matrix.apply` and `bilinear` contract, and
no loop canonicalises scalar by scalar.

Dense and small on purpose: input algebras are capped at documents.MAX_DIM
dimensions, and the default GL bound keeps searched quotients at dim <= 4.
"""

from __future__ import annotations

from ._value import value_class
from .errors import LinalgError
from .fields import Field


@value_class
class Matrix:
    field: Field
    nrows: int
    ncols: int
    entries: tuple  # tuple of row tuples, canonical scalars

    def __post_init__(self):
        ncols, entries = self.ncols, self.entries
        if len(entries) != self.nrows or any(len(r) != ncols for r in entries):
            raise LinalgError("matrix shape mismatch")

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        rows = [tuple(field.of(v) for v in r) for r in rows]
        if ncols is None:
            if not rows:
                raise LinalgError("cannot infer column count of an empty matrix")
            ncols = len(rows[0])
        return cls(field, len(rows), ncols, tuple(rows))

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one, field.zero
        return cls(field, n, n, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, field, nrows, ncols):
        zero = field.zero
        return cls(field, nrows, ncols, tuple(tuple(zero for _ in range(ncols)) for _ in range(nrows)))

    @classmethod
    def from_columns(cls, field, columns, nrows=None):
        cols = [tuple(field.of(v) for v in c) for c in columns]
        if nrows is None:
            if not cols:
                raise LinalgError("cannot infer row count of an empty matrix")
            nrows = len(cols[0])
        return cls(field, nrows, len(cols), tuple(tuple(c[i] for c in cols) for i in range(nrows)))

    def column(self, j):
        return tuple(r[j] for r in self.entries)

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self):
        return Matrix(self.field, self.ncols, self.nrows,
                      tuple(self.column(j) for j in range(self.ncols)))

    def apply(self, vec):
        """M @ x for a coordinate tuple x of length ncols."""
        if len(vec) != self.ncols:
            raise LinalgError("vector length mismatch")
        # only nonzero pairs are multiplied: over Q a product of Fractions,
        # even by zero, costs far more than the test
        support = [(j, x) for j, x in enumerate(vec) if x]
        return canonical(self.field, [sum([row[j] * x for j, x in support if row[j]])
                                      for row in self.entries])

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.ncols != other.nrows:
            raise LinalgError("matmul shape/field mismatch")
        # row i of the product sums the rows of other scaled by row i of self
        f = self.field
        return Matrix(f, self.nrows, other.ncols,
                      tuple(combine(f, other.ncols, zip(row, other.entries))
                            for row in self.entries))

    def hstack(self, other):
        if self.nrows != other.nrows or self.field != other.field:
            raise LinalgError("hstack mismatch")
        return Matrix(self.field, self.nrows, self.ncols + other.ncols,
                      tuple(ra + rb for ra, rb in zip(self.entries, other.entries)))

    def vstack(self, other):
        if self.ncols != other.ncols or self.field != other.field:
            raise LinalgError("vstack mismatch")
        return Matrix(self.field, self.nrows + other.nrows, self.ncols,
                      self.entries + other.entries)

    def rank(self):
        return len(rref(self)[1])

    def inverse(self):
        """Inverse of a square matrix, or None if singular."""
        if self.nrows != self.ncols:
            raise LinalgError("inverse of a non-square matrix")
        n = self.nrows
        aug, pivots = rref(self.hstack(Matrix.identity(self.field, n)))
        if pivots != list(range(n)):
            return None
        return Matrix(self.field, n, n, tuple(r[n:] for r in aug.entries))


def rref(m: Matrix):
    """(reduced matrix, pivot columns); zero rows sink to the bottom.

    Pivot rows are scaled to a leading one and every other row is cleared in
    the pivot column, so equal row spaces give equal matrices.
    """
    rows = list(m.entries)
    pivots = rref_rows(m.field, rows, m.ncols)
    return Matrix(m.field, m.nrows, m.ncols, tuple(map(tuple, rows))), pivots


def rref_rows(field, rows, ncols):
    """Bring a list of rows over field to the reduced row echelon form of
    rref, in place, and return the pivot columns.

    The items of the list are rearranged and rebound to new lists; the row
    objects themselves are never written, so a caller may pass rows it keeps
    using, tuples included.  This is the one elimination: rref runs it on a
    matrix's rows, span and kernel on their own rows, and the isoclinism
    search on its plain int rows mod p.
    """
    p, n = field.p, len(rows)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == n:
            break
        for pr in range(r, n):
            if rows[pr][c]:
                break
        else:
            continue
        prow = rows[pr]
        rows[pr] = rows[r]
        if prow[c] != 1:
            inv = field.inv(prow[c])
            prow = [v * inv for v in prow] if p is None else [v * inv % p for v in prow]
        rows[r] = prow
        for i in range(n):
            row = rows[i]
            f = row[c]
            if f and i != r:
                if p is None:
                    rows[i] = [a - f * b for a, b in zip(row, prow)]
                else:
                    rows[i] = [(a - f * b) % p for a, b in zip(row, prow)]
        pivots.append(c)
    return pivots


def canonical(field, values):
    """The canonical scalars of a list of plain ints (Fractions over Q)."""
    p = field.p
    if p is None:
        zero = field.zero
        return tuple([v or zero for v in values])
    return tuple([v % p for v in values])


def combine(field, n, terms):
    """The canonical sum of c v over the (c, v) terms, v of length n."""
    out = [0] * n
    for c, vec in terms:
        if c:
            for t, v in enumerate(vec):
                if v:
                    out[t] += c * v
    return canonical(field, out)


def bilinear(field, table, x, y):
    """sum of x_i y_j table[i][j]: a structure tensor (table[i][j] a coordinate
    tuple) contracted with two coordinate vectors.

    Accumulates in plain ints or Fractions and canonicalizes each entry once.
    """
    out = [0] * len(table[0][0]) if table else []
    for xi, row in zip(x, table):
        if xi:
            for yj, w in zip(y, row):
                if yj:
                    c = xi * yj
                    for t, wt in enumerate(w):
                        if wt:
                            out[t] += c * wt
    return canonical(field, out)


@value_class
class Subspace:
    """A subspace of F^ambient_dim held by its canonical RREF basis rows."""

    field: Field
    ambient_dim: int
    basis: tuple  # tuple of row tuples, RREF, no zero rows
    pivots: tuple = ()  # the pivot column of each basis row

    def __post_init__(self):
        if len(self.pivots) != len(self.basis):
            raise LinalgError("a subspace needs one pivot per basis row")

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, vec):
        """Remainder of vec after subtracting its projection onto the basis."""
        f = self.field
        v = tuple(f.of(x) for x in vec)
        if len(v) != self.ambient_dim:
            raise LinalgError("vector/ambient mismatch")
        # the basis rows vanish on each other's pivots, so the coefficient of
        # each row is v's own entry at its pivot
        return combine(f, len(v), [(1, v)] + [(-v[piv], row)
                                              for row, piv in zip(self.basis, self.pivots)])

    def contains(self, vec):
        return not any(self.reduce(vec))

    def coords_of(self, vec):
        """Coordinates of vec in the canonical basis; raises if not a member."""
        f = self.field
        v = tuple(f.of(x) for x in vec)
        if any(self.reduce(v)):
            raise LinalgError("vector not in subspace")
        return tuple(v[piv] for piv in self.pivots)

    def vector_from_coords(self, coords):
        return combine(self.field, self.ambient_dim, zip(coords, self.basis))

    def is_subspace_of(self, other):
        return all(other.contains(v) for v in self.basis)

    def basis_matrix(self):
        return Matrix(self.field, self.dim, self.ambient_dim, self.basis)


def span(field, ambient_dim, vectors) -> Subspace:
    vecs = [tuple(field.of(v) for v in vec) for vec in vectors]
    for v in vecs:
        if len(v) != ambient_dim:
            raise LinalgError("spanning vector has wrong length")
    pivots = rref_rows(field, vecs, ambient_dim)
    return Subspace(field, ambient_dim, tuple(tuple(vecs[i]) for i in range(len(pivots))),
                    tuple(pivots))


def zero_subspace(field, ambient_dim) -> Subspace:
    return Subspace(field, ambient_dim, (), ())


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.field != b.field or a.ambient_dim != b.ambient_dim:
        raise LinalgError("subspace sum mismatch")
    return span(a.field, a.ambient_dim, list(a.basis) + list(b.basis))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: rows (u|u) for u in A and (w|0) for w in B; the RREF rows
    whose left half vanished carry an intersection basis in the right half."""
    if a.field != b.field or a.ambient_dim != b.ambient_dim:
        raise LinalgError("subspace intersection mismatch")
    f, n = a.field, a.ambient_dim
    rows = [u + u for u in a.basis] + [w + (f.zero,) * n for w in b.basis]
    m, pivots = rref(Matrix(f, len(rows), 2 * n, tuple(rows)))
    inter = [row[n:] for row, piv in zip(m.entries, pivots) if piv >= n]
    return span(f, n, inter)


def kernel(m: Matrix) -> Subspace:
    """{x : M @ x = 0} as a subspace of F^ncols."""
    rows = list(m.entries)
    pivots = rref_rows(m.field, rows, m.ncols)
    basis = []
    for fc in range(m.ncols):
        if fc not in pivots:
            v = [0] * m.ncols
            v[fc] = 1
            for row, pc in zip(rows, pivots):
                v[pc] = -row[fc]
            basis.append(v)
    return span(m.field, m.ncols, basis)


def radical(field, table) -> Subspace:
    """{x : table(x, y) = 0 for all y} for a bilinear map on F^m given by its
    tensor (table[i][j] a coordinate tuple): the kernel of the rows (j, t),
    each (table[i][j][t])_i.  With no rows (m = 0 or values of width 0) it is
    all of F^m."""
    m = len(table)
    rows = tuple(tuple(row[j][t] for row in table)
                 for j in range(m) for t in range(len(table[0][j])))
    return kernel(Matrix(field, len(rows), m, rows))


def image(m: Matrix) -> Subspace:
    """Column space of M as a subspace of F^nrows."""
    return span(m.field, m.nrows, m.columns())


@value_class
class QuotientStructure:
    """F^n / ideal with a fixed section through standard coordinates.

    Coset representatives are the standard coordinates that are not pivot
    columns of the ideal's canonical basis; projection(section) = identity and
    kernel(projection) = ideal.
    """

    field: Field
    ambient_dim: int
    ideal: Subspace
    coset_coords: tuple
    projection: Matrix  # (quot_dim x n)
    section: Matrix  # (n x quot_dim)

    @property
    def dim(self):
        return len(self.coset_coords)

    def project(self, vec):
        return self.projection.apply(tuple(self.field.of(v) for v in vec))


def quotient(ideal: Subspace) -> QuotientStructure:
    f, n = ideal.field, ideal.ambient_dim
    coset = tuple(j for j in range(n) if j not in ideal.pivots)
    # e_c for a coset coordinate c is its own remainder; e_piv leaves minus
    # the basis row with pivot piv, which vanishes on the other pivots
    row_at = dict(zip(ideal.pivots, ideal.basis))
    one, zero = f.one, f.zero
    proj = tuple(canonical(f, [-row_at[j][c] if j in row_at else one if j == c else zero
                               for j in range(n)]) for c in coset)
    sec = tuple(tuple(one if i == c else zero for c in coset) for i in range(n))
    return QuotientStructure(f, n, ideal, coset, Matrix(f, len(coset), n, proj),
                             Matrix(f, n, len(coset), sec))


class MatrixMap:
    """What a map reads off its matrix alone.  A subclass is a value class of
    (domain, codomain, matrix) whose __post_init__ fixes the matrix shape at
    (codomain dim x domain dim); inverse and compose, raising the subclass's
    own error, stay the subclass's."""

    @classmethod
    def identity(cls, space):
        """The identity of space, a subspace or an algebra."""
        return cls(space, space, Matrix.identity(space.field, space.dim))

    def rank(self):
        return self.matrix.rank()

    @property
    def is_injective(self):
        return self.rank() == self.matrix.ncols

    @property
    def is_surjective(self):
        return self.rank() == self.matrix.nrows

    @property
    def is_bijective(self):
        return self.rank() == self.matrix.ncols == self.matrix.nrows


@value_class
class LinearMap(MatrixMap):
    """A linear map between two stored subspaces, in basis coordinates."""

    domain: Subspace
    codomain: Subspace
    matrix: Matrix  # (codomain.dim x domain.dim)
    # also an attribute of this class itself, where perfbench's tracer test reads it
    is_injective = MatrixMap.is_injective

    def __post_init__(self):
        if (self.matrix.nrows, self.matrix.ncols) != (self.codomain.dim, self.domain.dim):
            raise LinalgError("linear map shape mismatch")

    def apply_ambient(self, vec):
        return self.codomain.vector_from_coords(self.matrix.apply(self.domain.coords_of(vec)))

    def compose(self, inner: "LinearMap") -> "LinearMap":
        if inner.codomain != self.domain:
            raise LinalgError("linear map composition mismatch")
        return LinearMap(inner.domain, self.codomain, self.matrix @ inner.matrix)

    def inverse(self) -> "LinearMap":
        inv = self.matrix.inverse()
        if inv is None:
            raise LinalgError("linear map is not invertible")
        return LinearMap(self.codomain, self.domain, inv)
