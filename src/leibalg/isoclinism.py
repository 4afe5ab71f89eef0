"""Lie-isoclinism of Lie-central extensions: checking, search, classification.

A witness is a pair (eta, xi): an algebra isomorphism eta between the
quotients and a linear isomorphism xi between the Lie-commutators of the
totals that intertwines the commutator maps,

    xi(C1(x, y)) = C2(eta x, eta y)   for all x, y in q1.

Everything here reads each side through its isoclinism datum
(IsoclinismDatum): the field, the bracket of q, d = dim [g, g]_Lie and the
commutator map C.  IsoclinismDatum.of(e) holds the extension's own table of
C in Lie-commutator coordinates, the one extensions.commutator_map computes
and keeps, not a copy; canonical_datum builds an equal datum from an algebra
alone, reading C through the same algebra.commutator_table.  Since the
commutator-map values span the Lie-commutator, eta determines xi uniquely
whenever a compatible xi exists: _xi_matrix reads it off one RREF of the
commutator values, and check_witness compares in the same coordinates, so
search only ever enumerates eta.

The search fixes the columns of eta one at a time, in lexicographic
coordinate order.  Every bracket condition that becomes checkable at column
d, except the one on the pair (d, d), is affine in column d because the
bracket is bilinear, and so is every condition that keeps the forced xi
consistent, except at most one relation through C1(d, d); column d is drawn
from the solutions of that linear system, found with one RREF.  Each
solution is then checked for rank, for the two conditions that are
quadratic in it, both on the pair (d, d), and, below the last column, for
the ranks of its multiplication operators x -> [x, v] and x -> [v, x] in q2,
which must be those of b_d in q1.  That filter drops no witness: an
invertible bracket-preserving eta has [eta x, eta b_d] = eta [x, b_d], so
it conjugates the operators of b_d into those of eta b_d.  The solutions are
walked in lexicographic order, so the first witness found is the
lexicographically first one, and any concurrent evaluation of branches must
preserve that (the implementation here is sequential).  Every condition on
eta is read off the source side alone, so each datum files its conditions
once, in its cached schedule; the engine keeps only the walk.

The engine yields the (eta, xi) matrices, which are functions of the two
data alone; _witness builds them into a witness between two quotients and
two Lie-commutators, re-checking the brackets.  Every search makes one
decision, _matrices, in one order: data over two fields are refused;
unequal keys, each entry an isoclinism invariant over any field, settle the
pair with no witness, over Q and beyond the GL bound too; only then must the
field be finite and |GL(dim q, F_p)| within the bound, and the engine runs.
witnesses() yields what it finds as witnesses, search_isoclinism takes the
first, constructions.enumerate_autoclinisms all of them for one extension,
and classify asks it once per pair of data it compares.

Two algebras are isoclinic when their canonical extensions by the
Lie-center are; classify() partitions a list of algebras by that relation,
and decides it for the CLI's pairs and constructions.algebras_isoclinic
too.  It builds data, not extensions: canonical_datum reads each distinct
algebra's datum, and the quotient q its witnesses start or end at, straight
off the algebra and the section of its quotient by the Lie-center, so no
kernel subalgebra and no bracket-checked inclusion or projection is built.
There is one search key per datum and one search per pair of data.
leibalg.extensions is imported only where an extension is read
(IsoclinismDatum.of, Classification.extensions), so classify, and an
`isoclinic` search that finds a witness, loads none of it.

Isoclinic homomorphisms of extensions and the witness algebra (composition,
inverses, the autoclinism group) are in leibalg.constructions, which neither
search nor classify needs.
"""

from __future__ import annotations

import itertools
import os
from functools import cached_property
from operator import mul

from ._value import value_class
from .algebra import (
    AlgebraMorphism,
    LeibnizAlgebra,
    commutator_table,
    induced_quotient,
    lie_center,
    lie_commutator_of,
)
from .errors import FieldError, IsoclinismError, SearchBoundError
from .fields import Field, magnitude, past_int_limit, quoted
from .linalg import LinearMap, Matrix, bilinear, combine, kernel, quotient, radical, rref, rref_rows


MAX_GL_ENV = "LEIBALG_MAX_GL"


def gl_order(n, p):
    """|GL(n, F_p)|."""
    q = p ** n
    out = 1
    for i in range(n):
        out *= q - p ** i
    return out


DEFAULT_MAX_GL = gl_order(4, 5)  # 116_064_000_000


def resolve_max_gl(max_gl=None):
    """The GL bound: max_gl when given, else LEIBALG_MAX_GL when set, else
    DEFAULT_MAX_GL.  An environment value int() refuses is a SearchBoundError."""
    if max_gl is not None:
        return int(max_gl)
    env = os.environ.get(MAX_GL_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            # int() refuses a value past the int-string limit, which is not echoed
            if past_int_limit(env):
                raise SearchBoundError(f"{MAX_GL_ENV} has too many digits") from None
            raise SearchBoundError(
                f"{MAX_GL_ENV} must be an integer, got {quoted(env)}") from None
    return DEFAULT_MAX_GL


@value_class
class IsoclinismWitness:
    eta: AlgebraMorphism  # q1 -> q2, isomorphism
    xi: LinearMap  # [g1,g1]_Lie -> [g2,g2]_Lie, isomorphism


@value_class
class WitnessReport:
    ok: bool
    failures: tuple
    surjectivity_automatic: bool  # xi surjectivity followed from injectivity

    def __bool__(self):
        return self.ok


@value_class
class IsoclinismDatum:
    """What Lie-isoclinism reads of a Lie-central extension.

    The field, the bracket of q, d = dim [g, g]_Lie and the commutator map in
    Lie-commutator coordinates, table[i][j] = C(b_i, b_j); of() takes the
    table commutator_map keeps on the extension, and canonical_datum reads
    the canonical extension's datum off the algebra.  The search, its
    key and classify read nothing else, so the (eta, xi) matrices of every
    witness between two extensions are functions of their two data; what
    is derived from one datum alone is cached on it.
    """

    field: Field
    structure: tuple  # the structure tensor of q
    d: int
    table: tuple

    @classmethod
    def of(cls, e: CentralExtension) -> "IsoclinismDatum":
        from .extensions import commutator_map

        return cls(e.g.field, e.q.structure, lie_commutator_of(e.g).dim, commutator_map(e))

    @cached_property
    def key(self):
        """Invariants every isoclinic pair shares, computed once per datum:
        dim q, d, the dimension of the radical {x : C(x, y) = 0 for all y},
        and the dimensions of the Lie-center and the Lie-commutator of q (the
        Lie-commutator is also the annihilator ideal)."""
        m = len(self.structure)
        q = LeibnizAlgebra(self.field, m, self.structure)
        return (m, self.d, radical(self.field, self.table).dim,
                lie_center(q).dim, lie_commutator_of(q).dim)

    @cached_property
    def ranks(self):
        """(rank of x -> [x, b_d], rank of x -> [b_d, x]) for each basis
        vector b_d of q, computed once per datum."""
        m = len(self.structure)
        return tuple(tuple(len(rref_rows(self.field, [[cs[d] for cs in row] for row in side], m))
                           for side in self.operators[0]) for d in range(m))

    @cached_property
    def operators(self):
        """The multiplication operators of the basis vectors, for the bracket
        of q and for C, computed once per datum: a pair (left, right) per
        map T, where x -> T(x, u) has the entry u . left[t][a] in row t and
        column a, and x -> T(u, x) the entry u . right[t][a]."""
        m = len(self.structure)
        return tuple((tuple(tuple(tuple(table[a][s][t] for s in range(m)) for a in range(m))
                            for t in range(width)),
                      tuple(tuple(tuple(table[s][a][t] for s in range(m)) for a in range(m))
                            for t in range(width)))
                     for table, width in ((self.structure, m), (self.table, self.d)))

    @cached_property
    def schedule(self):
        """The conditions a witness from this datum puts on eta, as
        (affine_at, square_at): per depth d, the constraints first checkable
        when column d is set, computed once per datum.

        A constraint (k, linear, quadratic) holds when sum c col_t over its
        terms (c, t) plus sum c T_k(col_i, col_j) over its terms (c, i, j)
        vanishes, T_0 the target's bracket of q and T_1 its C.  They say eta
        [b_i, b_j] = [eta b_i, eta b_j], and that each relation among the C1
        values holds among the C2 values, as xi requires.  One with a term on
        (d, d) is quadratic in col_d and goes to square_at; any other goes to
        affine_at, split into its terms that read col_d and the rest.
        """
        m = len(self.structure)
        affine_at = [[] for _ in range(m)]
        square_at = [[] for _ in range(m)]

        def add(depth, constraint):
            k, linear, quadratic = constraint
            if any(i == j == depth for _, i, j in quadratic):
                square_at[depth].append(constraint)
                return

            def part(reads):
                return (k, [u for u in linear if (depth in u[1:]) == reads],
                        [u for u in quadratic if (depth in u[1:]) == reads])
            affine_at[depth].append((part(True), part(False)))

        for i in range(m):
            for j in range(m):
                val = self.structure[i][j]
                support = [t for t in range(m) if val[t]]
                add(max([i, j] + support), (0, [(val[t], t) for t in support], [(-1, i, j)]))
        # the relations at `depth` are the left null vectors of the C1 rows of
        # the pairs (i, j), i <= j <= depth, those through column `depth`
        # first.  Only the first RREF null vector can involve (depth, depth);
        # any one will do, as two differ by one without that pair.  A vector
        # that misses them all was filed at an earlier depth.
        for depth in range(m if self.d else 0):
            pairs = ([(depth, depth)] + [(i, depth) for i in range(depth)]
                     + [(i, j) for j in range(depth) for i in range(j + 1)])
            rows = tuple(tuple(self.table[i][j][t] for (i, j) in pairs) for t in range(self.d))
            for lam in kernel(Matrix(self.field, self.d, len(pairs), rows)).basis:
                if any(lam[:depth + 1]):
                    add(depth, (1, [], [(c, i, j) for (i, j), c in zip(pairs, lam) if c]))
        return affine_at, square_at


def canonical_datum(g: LeibnizAlgebra):
    """(q, IsoclinismDatum.of(canonical_extension(g))), q = g/Z_Lie(g) the
    extension's quotient algebra, built without the extension: q is
    algebra.induced_quotient, and C is algebra.commutator_table at the
    section's columns, as the extension reads it."""
    qs = quotient(lie_center(g))
    q = induced_quotient(g, qs)
    table = commutator_table(g, qs.section.columns())
    return q, IsoclinismDatum(g.field, q.structure, lie_commutator_of(g).dim, table)


def _squares(d1, d2, cols):
    """(i, j, C1(b_i, b_j), C2(eta b_i, eta b_j)) for i <= j, both values in
    Lie-commutator coordinates, eta the map with columns cols."""
    t1, t2 = d1.table, d2.table
    for i in range(len(cols)):
        for j in range(i, len(cols)):
            yield i, j, t1[i][j], bilinear(d1.field, t2, cols[i], cols[j])


def _xi_matrix(d1, d2, cols):
    """The matrix of the unique xi compatible with the eta with columns
    cols, or None if no linear map is; it need not be injective.

    One row [C1(b_i, b_j) | C2(eta b_i, eta b_j)] per pair i <= j, and one
    RREF.  xi exists exactly when no pivot falls in the right block.  The C1
    values span [g1, g1]_Lie: a symmetric bracket of two elements of g1 is C1
    of their images in q1, because chi(n1) is Lie-central, and the symmetric
    brackets span the ideal they generate.  So the left block has rank d1,
    its RREF is [I | xi^T] on the top d1 rows, and row k carries xi(e_k).
    """
    rows = tuple(u + v for _, _, u, v in _squares(d1, d2, cols))
    red, pivots = rref(Matrix(d1.field, len(rows), d1.d + d2.d, rows))
    if pivots and pivots[-1] >= d1.d:
        return None
    if len(pivots) != d1.d:
        raise IsoclinismError("commutator values failed to span the Lie-commutator")
    return Matrix.from_columns(d1.field, [r[d1.d:] for r in red.entries[:d1.d]], nrows=d2.d)


def _ends(e: CentralExtension):
    """(q, [g, g]_Lie) of an extension: where its witnesses start or end."""
    return e.q, lie_commutator_of(e.g)


def _witness(ends1, ends2, matrices) -> IsoclinismWitness:
    """The witness with the given (eta, xi) matrices from the quotient and
    Lie-commutator ends1 to ends2 (see _ends); AlgebraMorphism re-checks
    that eta preserves the brackets."""
    (q1, com1), (q2, com2) = ends1, ends2
    eta, xi = matrices
    return IsoclinismWitness(AlgebraMorphism(q1, q2, eta), LinearMap(com1, com2, xi))


def derive_xi(e1: CentralExtension, e2: CentralExtension, eta: AlgebraMorphism):
    """The unique xi compatible with eta, or None if no linear map is.

    eta must be an isomorphism e1.q -> e2.q; the returned map need not be
    injective (callers decide whether a non-injective xi disqualifies eta).
    """
    if eta.source != e1.q or eta.target != e2.q:
        raise IsoclinismError("eta endpoints do not match the extensions")
    if not eta.is_bijective:
        raise IsoclinismError("eta is not an isomorphism")
    xi = _xi_matrix(IsoclinismDatum.of(e1), IsoclinismDatum.of(e2), eta.matrix.columns())
    return None if xi is None else LinearMap(lie_commutator_of(e1.g), lie_commutator_of(e2.g), xi)


def check_witness(e1: CentralExtension, e2: CentralExtension,
                  witness: IsoclinismWitness) -> WitnessReport:
    """Full verification of a witness against two extensions.

    The squares are compared in Lie-commutator coordinates: xi applied to
    the coordinates of C1(b_i, b_j) against those of C2(eta b_i, eta b_j).
    xi only needs to be checked injective: when eta is onto and the squares
    match, the xi-image contains every C2 value and those span the target
    Lie-commutator, so surjectivity is automatic; the report records whether
    that entailment applied.  xi's rank is computed once, for both tests.
    """
    eta, xi = witness.eta, witness.xi
    if eta.source != e1.q or eta.target != e2.q:
        return WitnessReport(False, ("eta endpoints do not match the quotient algebras",), False)
    if xi.domain != lie_commutator_of(e1.g) or xi.codomain != lie_commutator_of(e2.g):
        return WitnessReport(False, ("xi endpoints do not match the Lie-commutators",), False)
    failures = []
    eta_bij = eta.is_bijective
    if not eta_bij:
        failures.append("eta is not bijective")
    xi_rank = xi.rank()
    xi_inj = xi_rank == xi.domain.dim
    if not xi_inj:
        failures.append("xi is not injective")
    compat = True
    squares = _squares(IsoclinismDatum.of(e1), IsoclinismDatum.of(e2), eta.matrix.columns())
    for i, j, u, v in squares:
        if xi.matrix.apply(u) != v:
            compat = False
            failures.append(f"commutator squares disagree at basis pair ({i}, {j})")
    automatic = eta_bij and xi_inj and compat
    if automatic and xi_rank != xi.codomain.dim:
        # cannot fire when e2 is Lie-central: then the C2 values span its Lie-commutator
        failures.append("xi is not surjective")
        automatic = False
    return WitnessReport(not failures, tuple(failures), automatic)


class _SearchEngine:
    """Depth-first enumeration of eta column images over F_p, between two
    isoclinism data; it reads no extension, and of the data only the source's
    schedule and ranks and the target's tables and operators.

    Each condition on eta is a constraint of the source's schedule, whose
    residual vanishes exactly when it holds (see _residual).  The
    constraints affine in col_d are solved for together (see _solutions);
    only the ones quadratic in col_d, both on the pair (d, d), rank and the
    operator ranks are checked per candidate.

    The operator-rank filter (_admits) drops a column v at depth d < m - 1
    unless x -> [x, v] and x -> [v, x] in q2 have the ranks of x -> [x, b_d]
    and x -> [b_d, x] in q1.  It is sound for run(): every invertible
    bracket-preserving eta satisfies L_{eta b} = eta L_b eta^-1, so it drops
    only columns that no assignment run() yields can hold.  Every
    elimination runs on plain int rows mod p through linalg.rref_rows.
    """

    def __init__(self, d1, d2):
        self.data = d1, d2
        self._examined = 0  # candidate columns that reached the filter
        # the operators of the column set at each depth (see _admits), for
        # the deeper _solutions
        self._ops = {}

    def _residual(self, cols, constraint):
        """sum of c col_t over linear plus sum of c table(col_i, col_j) over
        quadratic, reduced mod p: zero exactly when the constraint holds."""
        k, linear, quadratic = constraint
        d2 = self.data[1]
        table = d2.table if k else d2.structure
        terms = [(c, cols[t]) for c, t in linear]
        terms += [(c, bilinear(d2.field, table, cols[i], cols[j])) for c, i, j in quadratic]
        return combine(d2.field, len(table[0][0]), terms)

    def _operator(self, side, u):
        """The matrix of x -> T(x, u) or x -> T(u, x), as a list of rows
        reduced mod p, from one side of IsoclinismDatum.operators of T: the
        sum of u_s times the operator of b_s."""
        p = self.data[1].field.p
        return [[sum(map(mul, u, cs)) % p for cs in row] for row in side]

    def _solutions(self, cols):
        """Candidates for the next column, in lexicographic order.

        With x the unknown column at depth d = len(cols), the residual of
        every constraint in affine_at[d] is A x + b: the terms that read x
        are linear in it, so A has the columns they give at x = e_a, and the
        other terms give b.  The rows are [A | -b] with the columns of A in
        reversed coordinate order, so the RREF writes each pivot coordinate
        in terms of earlier free ones and a product over the free
        coordinates walks the solutions in lexicographic order.

        A is summed from the multiplication operators of the set columns: a
        term c T(col_i, x) adds c times x -> T(col_i, x), a term c T(x, col_j)
        adds c times x -> T(x, col_j), and the linear term c x adds c I.
        """
        d1, d2 = self.data
        field, m = d1.field, len(d1.structure)
        p, widths = field.p, (m, d2.d)
        depth = len(cols)
        rows = []
        for (k, linear, quadratic), fixed in d1.schedule[0][depth]:
            a = [[0] * m for _ in range(widths[k])]
            for c, _ in linear:
                for t in range(m):
                    a[t][t] += c
            for c, i, j in quadratic:
                op = self._ops[j][k][0] if i == depth else self._ops[i][k][1]
                for row, op_row in zip(a, op):
                    for t, v in enumerate(op_row):
                        if v:
                            row[t] += c * v
            for row, v in zip(a, self._residual(cols, fixed)):
                rows.append([x % p for x in reversed(row)] + [-v % p])
        free = list(range(m))
        exprs = []
        pivots = rref_rows(field, rows, m + 1)
        if pivots and pivots[-1] == m:
            return
        for row, c in zip(rows, pivots):
            k = m - 1 - c
            free.remove(k)
            exprs.append((k, row[m], [(m - 1 - c2, row[c2]) for c2 in range(c + 1, m)
                                      if row[c2]]))
        for values in itertools.product(range(p), repeat=len(free)):
            x = [0] * m
            for k, v in zip(free, values):
                x[k] = v
            for k, b, terms in exprs:
                x[k] = (b - sum(a * x[t] for t, a in terms)) % p
            yield tuple(x)

    def run(self):
        """Yield full eta column assignments in lexicographic order.

        Each column is one of _solutions, kept if it raises the rank, every
        constraint in square_at of its depth holds and, below the last depth,
        its multiplication operators for the bracket of q2 have the ranks of
        those of b_depth in q1.  Every yielded assignment is an invertible
        bracket-preserving matrix whose xi constraint system is consistent;
        injectivity of the derived xi is left to the caller.
        """
        d1 = self.data[0]
        field, m = d1.field, len(d1.structure)
        square_at = d1.schedule[1]
        cols = []

        def descend(depth, echelon):
            if depth == m:
                yield tuple(cols)
                return
            for v in self._solutions(cols):
                self._examined += 1
                rows = echelon + [v]  # the RREF of the columns so far, and v
                if len(rref_rows(field, rows, m)) == depth:
                    continue
                cols.append(v)
                if (not any(any(self._residual(cols, c)) for c in square_at[depth])
                        and self._admits(depth, v)):
                    yield from descend(depth + 1, rows)
                cols.pop()

        yield from descend(0, [])

    def _admits(self, depth, v):
        """The operator-rank filter on a column set below the last depth; the
        column's operators are kept for the deeper _solutions."""
        d1, d2 = self.data
        m = len(d1.structure)
        if depth + 1 == m:
            return True
        bracket = []
        for side, rank in zip(d2.operators[0], d1.ranks[depth]):
            op = self._operator(side, v)
            if len(rref_rows(d1.field, list(op), m)) != rank:
                return False
            bracket.append(op)
        self._ops[depth] = bracket, [self._operator(side, v) for side in d2.operators[1]]
        return True

    def witnesses(self):
        """The (eta, xi) matrices of the witnesses, in lexicographic eta
        order: run() with xi derived and non-injective ones dropped."""
        d1, d2 = self.data
        for columns in self.run():
            xi = _xi_matrix(d1, d2, columns)
            if xi is not None and xi.rank() == d1.d:
                yield Matrix.from_columns(d1.field, columns, nrows=len(d1.structure)), xi


def _matrices(d1, d2, max_gl):
    """The (eta, xi) matrices of every witness between two data, in
    lexicographic eta order.  The whole decision of every search, in the
    module docstring's order: data over two fields are refused, unequal keys
    yield nothing, the field must be finite and |GL(dim q, F_p)| within the
    bound (see resolve_max_gl), and then the engine runs."""
    field, dim = d1.field, len(d1.structure)
    if field != d2.field:
        raise FieldError("extensions live over different fields")
    if d1.key != d2.key:
        return
    if not field.is_finite:
        raise FieldError("isoclinism search requires a finite field "
                         "(witness checking over Q is still available)")
    bound = resolve_max_gl(max_gl)
    order = gl_order(dim, field.p)
    if order > bound:
        raise SearchBoundError(
            f"|GL({dim}, F_{field.p})| = {magnitude(order)} exceeds "
            f"the bound {magnitude(bound)}; raise --max-gl or {MAX_GL_ENV} to override")
    yield from _SearchEngine(d1, d2).witnesses()


def witnesses(e1: CentralExtension, e2: CentralExtension, max_gl=None):
    """Every witness from e1 to e2, in lexicographic eta order (see _matrices);
    e2 = e1 is read as one datum, with one key and one schedule."""
    ends1, ends2 = _ends(e1), _ends(e2)
    d1 = IsoclinismDatum.of(e1)
    for found in _matrices(d1, d1 if e2 is e1 else IsoclinismDatum.of(e2), max_gl):
        yield _witness(ends1, ends2, found)


def search_isoclinism(e1: CentralExtension, e2: CentralExtension,
                      max_gl=None) -> IsoclinismWitness | None:
    """Lexicographically first witness of Lie-isoclinism, or None."""
    return next(witnesses(e1, e2, max_gl), None)


def identity_witness(e: CentralExtension) -> IsoclinismWitness:
    """(id, id): the identity satisfies the square for eta = id, and eta
    determines xi, so this is the witness derive_xi would give."""
    return _identity_witness(_ends(e))


def _identity_witness(ends) -> IsoclinismWitness:
    q, com = ends
    return IsoclinismWitness(AlgebraMorphism.identity(q), LinearMap.identity(com))


@value_class
class IsoclinismClass:
    representative: int
    members: list
    witnesses: dict  # member index -> witness from the representative


@value_class
class Classification:
    algebras: tuple
    classes: list

    @cached_property
    def extensions(self) -> tuple:
        """The canonical extension of each algebra, built on first request,
        one shared object per distinct algebra; classify itself builds
        none."""
        from .extensions import canonical_extension

        built = {}
        for a in self.algebras:
            if a not in built:
                built[a] = canonical_extension(a)
        return tuple(built[a] for a in self.algebras)

    def class_of(self, index):
        for k, cls in enumerate(self.classes):
            if index in cls.members:
                return k
        raise KeyError(index)


def classify(algebras, max_gl=None) -> Classification:
    """Partition algebras by Lie-isoclinism of their canonical extensions.

    Deterministic: algebras are compared in input order against the
    representatives (earliest member) of the existing classes, grouped first
    by the invariant key so that only plausible pairs are searched.

    classify builds data, not extensions: each distinct algebra gets one
    canonical_datum, its quotient q and the datum of its canonical extension,
    shared by its copies, and equal data are one object, so the key is
    computed once per datum.  The search runs once per pair of data, and
    every witness is built on its own pair's quotients and Lie-commutators
    from the matrices that search found, once per representative and
    distinct algebra, so every class, member and witness is the one a search
    of this very pair would give.  Classification.extensions builds the
    extensions themselves when it is first read.
    """
    algebras = tuple(algebras)
    seen, interned = {}, {}  # distinct algebra -> its record; datum -> itself
    for idx, a in enumerate(algebras):
        if a not in seen:
            q, d = canonical_datum(a)
            seen[a] = idx, (q, lie_commutator_of(a)), interned.setdefault(d, d)
    records = [seen[a] for a in algebras]  # per input: (first index, ends, datum)
    # the data are interned, so a pair of ids names a pair of data
    searched = {}  # (id of rep's datum, id of input's datum) -> first witness's matrices or None
    built = {}  # (rep, first index of the input's algebra) -> witness
    classes = []
    for idx, (first, ends, datum) in enumerate(records):
        for cls in classes:
            rep = cls.representative
            _, rep_ends, rep_datum = records[rep]
            pair = id(rep_datum), id(datum)
            if pair not in searched:
                searched[pair] = next(_matrices(rep_datum, datum, max_gl), None)
            if searched[pair] is not None:
                if (rep, first) not in built:
                    built[rep, first] = _witness(rep_ends, ends, searched[pair])
                cls.members.append(idx)
                cls.witnesses[idx] = built[rep, first]
                break
        else:
            classes.append(IsoclinismClass(idx, [idx], {idx: _identity_witness(ends)}))
    return Classification(algebras, classes)
