"""Exact dense linear algebra with deterministic canonical forms.

Everything downstream (subspace comparisons, quotients, witness derivation)
leans on one fact: a subspace is stored as the reduced row echelon basis of
its span, so equality of subspaces is equality of tuples.  Matrices act on
column vectors: y = M @ x with M of shape (codomain dim, domain dim).

Dense and small on purpose: input algebras are capped at documents.MAX_DIM
dimensions, and the default GL bound keeps searched quotients at dim <= 4.
"""

from __future__ import annotations

from operator import mul

from ._value import value_class
from .errors import LinalgError
from .fields import Field


@value_class
class Matrix:
    field: Field
    nrows: int
    ncols: int
    entries: tuple  # tuple of row tuples, canonical scalars

    # written out, not left to value_class: matrices are built in bulk and
    # this form is the cheapest
    def __init__(self, field, nrows, ncols, entries):
        if len(entries) != nrows or any(len(r) != ncols for r in entries):
            raise LinalgError("matrix shape mismatch")
        d = self.__dict__
        d["field"], d["nrows"], d["ncols"], d["entries"] = field, nrows, ncols, entries

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
        f = self.field
        out = []
        for row in self.entries:
            acc = f.zero
            for a, x in zip(row, vec):
                if a and x:
                    acc = f.add(acc, f.mul(a, x))
            out.append(acc)
        return tuple(out)

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.ncols != other.nrows:
            raise LinalgError("matmul shape/field mismatch")
        of = self.field.of
        cols = other.transpose().entries
        return Matrix(self.field, self.nrows, other.ncols,
                      tuple(tuple(of(sum(map(mul, row, col))) for col in cols)
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
    matrix's rows, and the isoclinism search on its plain int rows mod p.
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
    p = field.p
    if p is None:
        zero = field.zero
        return tuple([v or zero for v in out])
    return tuple([v % p for v in out])


def vec_zero(field, n):
    return tuple(field.zero for _ in range(n))


def vec_add(field, a, b):
    return tuple(field.add(x, y) for x, y in zip(a, b))


def vec_scale(field, c, a):
    return tuple(field.mul(c, x) for x in a)


def vec_is_zero(field, a):
    z = field.zero
    return all(x == z for x in a)


@value_class
class Subspace:
    """A subspace of F^ambient_dim held by its canonical RREF basis rows."""

    field: Field
    ambient_dim: int
    basis: tuple  # tuple of row tuples, RREF, no zero rows
    pivots: tuple

    # written out for speed, as Matrix's is
    def __init__(self, field, ambient_dim, basis, pivots=()):
        d = self.__dict__
        d["field"], d["ambient_dim"], d["basis"], d["pivots"] = field, ambient_dim, basis, pivots

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, vec):
        """Remainder of vec after subtracting its projection onto the basis."""
        f = self.field
        v = tuple(f.of(x) for x in vec)
        if len(v) != self.ambient_dim:
            raise LinalgError("vector/ambient mismatch")
        for row, piv in zip(self.basis, self.pivots):
            c = v[piv]
            if c:
                v = tuple(f.sub(a, f.mul(c, b)) for a, b in zip(v, row))
        return v

    def contains(self, vec):
        return vec_is_zero(self.field, self.reduce(vec))

    def coords_of(self, vec):
        """Coordinates of vec in the canonical basis; raises if not a member."""
        f = self.field
        v = tuple(f.of(x) for x in vec)
        coords = tuple(v[piv] for piv in self.pivots)
        if not vec_is_zero(f, self.reduce(v)):
            raise LinalgError("vector not in subspace")
        return coords

    def vector_from_coords(self, coords):
        f = self.field
        out = vec_zero(f, self.ambient_dim)
        for c, row in zip(coords, self.basis):
            if c:
                out = vec_add(f, out, vec_scale(f, c, row))
        return out

    def is_subspace_of(self, other):
        return all(other.contains(v) for v in self.basis)

    def basis_matrix(self):
        return Matrix(self.field, self.dim, self.ambient_dim, self.basis)


def span(field, ambient_dim, vectors) -> Subspace:
    vecs = [tuple(field.of(v) for v in vec) for vec in vectors]
    for v in vecs:
        if len(v) != ambient_dim:
            raise LinalgError("spanning vector has wrong length")
    if not vecs:
        return Subspace(field, ambient_dim, (), ())
    m, pivots = rref(Matrix(field, len(vecs), ambient_dim, tuple(vecs)))
    basis = tuple(m.entries[i] for i in range(len(pivots)))
    return Subspace(field, ambient_dim, basis, tuple(pivots))


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
    rows = [u + u for u in a.basis] + [w + vec_zero(f, n) for w in b.basis]
    if not rows:
        return zero_subspace(f, n)
    m, pivots = rref(Matrix(f, len(rows), 2 * n, tuple(rows)))
    inter = [row[n:] for row, piv in zip(m.entries, pivots) if piv >= n]
    return span(f, n, inter)


def kernel(m: Matrix) -> Subspace:
    """{x : M @ x = 0} as a subspace of F^ncols."""
    f = m.field
    red, pivots = rref(m)
    free = [j for j in range(m.ncols) if j not in pivots]
    basis = []
    for fc in free:
        v = [f.zero] * m.ncols
        v[fc] = f.one
        for i, pc in enumerate(pivots):
            v[pc] = f.neg(red.entries[i][fc])
        basis.append(tuple(v))
    return span(f, m.ncols, basis)


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
    cols = []
    for i in range(n):
        e = [f.zero] * n
        e[i] = f.one
        red = ideal.reduce(tuple(e))
        cols.append(tuple(red[c] for c in coset))
    proj = Matrix.from_columns(f, cols, nrows=len(coset))
    sec_cols = []
    for c in coset:
        e = [f.zero] * n
        e[c] = f.one
        sec_cols.append(tuple(e))
    sec = Matrix.from_columns(f, sec_cols, nrows=n)
    return QuotientStructure(f, n, ideal, coset, proj, sec)


@value_class
class LinearMap:
    """A linear map between two stored subspaces, in basis coordinates."""

    domain: Subspace
    codomain: Subspace
    matrix: Matrix  # (codomain.dim x domain.dim)

    def __post_init__(self):
        if (self.matrix.nrows, self.matrix.ncols) != (self.codomain.dim, self.domain.dim):
            raise LinalgError("linear map shape mismatch")

    def apply_ambient(self, vec):
        return self.codomain.vector_from_coords(self.matrix.apply(self.domain.coords_of(vec)))

    def compose(self, inner: "LinearMap") -> "LinearMap":
        if inner.codomain != self.domain:
            raise LinalgError("linear map composition mismatch")
        return LinearMap(inner.domain, self.codomain, self.matrix @ inner.matrix)

    def rank(self):
        return self.matrix.rank()

    @property
    def is_injective(self):
        return self.rank() == self.domain.dim

    @property
    def is_surjective(self):
        return self.rank() == self.codomain.dim

    @property
    def is_bijective(self):
        return self.rank() == self.domain.dim == self.codomain.dim

    def inverse(self) -> "LinearMap":
        inv = self.matrix.inverse()
        if inv is None:
            raise LinalgError("linear map is not invertible")
        return LinearMap(self.codomain, self.domain, inv)

    @classmethod
    def identity(cls, space: Subspace) -> "LinearMap":
        return cls(space, space, Matrix.identity(space.field, space.dim))
