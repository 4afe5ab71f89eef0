"""Lie-isoclinism of Lie-central extensions: checking, search, classification.

A witness is a pair (eta, xi): an algebra isomorphism eta between the
quotients and a linear isomorphism xi between the Lie-commutators of the
totals that intertwines the commutator maps,

    xi(C1(x, y)) = C2(eta x, eta y)   for all x, y in q1.

Since the commutator-map values span the Lie-commutator, eta determines xi
uniquely whenever a compatible xi exists: derive_xi reads it off one RREF of
the commutator values in Lie-commutator coordinates, and check_witness
compares in the same coordinates, so search only ever enumerates eta.

The search fixes the columns of eta one at a time, in lexicographic
coordinate order.  Every bracket condition that becomes checkable at column
d, except the one on the pair (d, d), is affine in column d because the
bracket is bilinear, and so is every condition that keeps the forced xi
consistent, except at most one relation through C1(d, d); column d is drawn
from the solutions of that linear system, found with one RREF.  Each
solution is then checked only for rank and for the two conditions that are
quadratic in it, both on the pair (d, d).  The solutions are walked in
lexicographic order, so the first witness found is the lexicographically
first one, and any concurrent evaluation of branches must preserve that
(the implementation here is sequential).

Two algebras are isoclinic when their canonical extensions by the Lie-center
are; classify() partitions a list of algebras by that relation.  The search
and its invariant key read only each side's isoclinism datum (q, C): the
quotient algebra and the commutator map in Lie-commutator coordinates.  So
isoclinism, and the matrices of the first witness, are functions of the two
data, and classify() searches each pair of data once.
"""

from __future__ import annotations

import itertools
import os

from ._value import value_class
from .algebra import (
    AlgebraMorphism,
    LeibnizAlgebra,
    annihilator_ideal,
    lie_center,
    lie_commutator_of,
)
from .extensions import (
    CentralExtension,
    ExtensionMorphism,
    canonical_extension,
    commutator_map,
)
from .errors import FieldError, IsoclinismError, SearchBoundError
from .linalg import (
    LinearMap,
    Matrix,
    bilinear,
    intersect,
    kernel,
    rref,
    subspace_sum,
)


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
    if max_gl is not None:
        return int(max_gl)
    env = os.environ.get(MAX_GL_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise SearchBoundError(
                f"{MAX_GL_ENV} must be an integer, got {env!r}") from None
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


def derive_xi(e1: CentralExtension, e2: CentralExtension, eta: AlgebraMorphism):
    """The unique xi compatible with eta, or None if no linear map is.

    eta must be an isomorphism e1.q -> e2.q; the returned map need not be
    injective (callers decide whether a non-injective xi disqualifies eta).

    Works in Lie-commutator coordinates throughout: one row
    [C1(b_i, b_j) | C2(eta b_i, eta b_j)] per pair i <= j, and one RREF.  xi
    exists exactly when no pivot falls in the right block.  The C1 values
    span [g1, g1]_Lie: a symmetric bracket of two elements of g1 is C1 of
    their images in q1, because chi(n1) is Lie-central, and the symmetric
    brackets span the ideal they generate.  So the left block has rank d1,
    its RREF is [I | xi^T] on the top d1 rows, and row k carries xi(e_k).
    """
    if eta.source != e1.q or eta.target != e2.q:
        raise IsoclinismError("eta endpoints do not match the extensions")
    if not eta.is_bijective:
        raise IsoclinismError("eta is not an isomorphism")
    f = e1.g.field
    com1, com2 = lie_commutator_of(e1.g), lie_commutator_of(e2.g)
    d1, d2 = com1.dim, com2.dim
    rows = tuple(u + v for _, _, u, v in _squares(e1, e2, eta))
    red, pivots = rref(Matrix(f, len(rows), d1 + d2, rows))
    if pivots and pivots[-1] >= d1:
        return None
    if len(pivots) != d1:
        raise IsoclinismError("commutator values failed to span the Lie-commutator")
    return LinearMap(com1, com2,
                     Matrix.from_columns(f, [r[d1:] for r in red.entries[:d1]], nrows=d2))


def _squares(e1, e2, eta):
    """(i, j, C1(b_i, b_j), C2(eta b_i, eta b_j)) for i <= j, both values in
    Lie-commutator coordinates."""
    f = e1.g.field
    t1, t2 = commutator_map(e1).coord_table, commutator_map(e2).coord_table
    cols = eta.matrix.columns()
    for i in range(len(cols)):
        for j in range(i, len(cols)):
            yield i, j, t1[i][j], bilinear(f, t2, cols[i], cols[j])


def check_witness(e1: CentralExtension, e2: CentralExtension,
                  witness: IsoclinismWitness) -> WitnessReport:
    """Full verification of a witness against two extensions.

    The squares are compared in Lie-commutator coordinates: xi applied to
    the coordinates of C1(b_i, b_j) against those of C2(eta b_i, eta b_j).
    xi only needs to be checked injective: when eta is onto and the squares
    match, the xi-image contains every C2 value and those span the target
    Lie-commutator, so surjectivity is automatic; the report records whether
    that entailment applied.
    """
    failures = []
    eta, xi = witness.eta, witness.xi
    if eta.source != e1.q or eta.target != e2.q:
        failures.append("eta endpoints do not match the quotient algebras")
        return WitnessReport(False, tuple(failures), False)
    if xi.domain != lie_commutator_of(e1.g) or xi.codomain != lie_commutator_of(e2.g):
        failures.append("xi endpoints do not match the Lie-commutators")
        return WitnessReport(False, tuple(failures), False)
    eta_bij = eta.is_bijective
    if not eta_bij:
        failures.append("eta is not bijective")
    xi_inj = xi.is_injective
    if not xi_inj:
        failures.append("xi is not injective")
    compat = True
    for i, j, u, v in _squares(e1, e2, eta):
        if xi.matrix.apply(u) != v:
            compat = False
            failures.append(f"commutator squares disagree at basis pair ({i}, {j})")
    automatic = eta_bij and xi_inj and compat
    if automatic and not xi.is_surjective:
        # cannot happen mathematically; keep the check honest anyway
        failures.append("xi is not surjective")
        automatic = False
    return WitnessReport(not failures, tuple(failures), automatic)


@value_class
class IsoclinismInvariants:
    """Cheap necessary conditions used to prune the search.

    search_key() holds only data every isoclinic pair must share: the
    quotient dimension, the Lie-commutator dimension, the radical of the
    commutator map, and isomorphism invariants of the quotient algebra.
    Total dimension and Lie-center dimension are recorded for reporting but
    never compared: an algebra and its product with an abelian algebra are
    isoclinic yet differ in both.
    """

    q_dim: int
    commutator_dim: int
    c_radical_dim: int
    q_center_dim: int
    q_commutator_dim: int
    q_annihilator_dim: int
    g_dim: int
    g_center_dim: int
    g_annihilator_dim: int

    @classmethod
    def from_extension(cls, e: CentralExtension) -> "IsoclinismInvariants":
        g, q = e.g, e.q
        return cls(
            q_dim=q.dim,
            commutator_dim=lie_commutator_of(g).dim,
            c_radical_dim=commutator_map(e).radical().dim,
            q_center_dim=lie_center(q).dim,
            q_commutator_dim=lie_commutator_of(q).dim,
            q_annihilator_dim=annihilator_ideal(q).dim,
            g_dim=g.dim,
            g_center_dim=lie_center(g).dim,
            g_annihilator_dim=annihilator_ideal(g).dim,
        )

    @classmethod
    def from_algebra(cls, g: LeibnizAlgebra) -> "IsoclinismInvariants":
        return cls.from_extension(canonical_extension(g))

    def search_key(self):
        return (self.q_dim, self.commutator_dim, self.c_radical_dim,
                self.q_center_dim, self.q_commutator_dim, self.q_annihilator_dim)


class _SearchEngine:
    """Depth-first enumeration of eta column images over F_p.

    Each condition on eta is a constraint whose residual vanishes exactly
    when it holds (see _residual), checked at the first depth d where every
    column it reads is set.  The constraints affine in col_d are solved for
    together (see _solutions); only the ones quadratic in col_d, both on the
    pair (d, d), and rank are checked per candidate.
    """

    def __init__(self, e1, e2):
        self.e1, self.e2 = e1, e2
        self.field = e1.g.field
        self.p = self.field.p
        self.m = e1.q.dim
        self._examined = 0  # candidate columns that reached the filter
        self.feasible = e1.q.dim == e2.q.dim
        if not self.feasible:
            return
        self.d = lie_commutator_of(e1.g).dim
        self.c1_table = commutator_map(e1).coord_table
        # a constraint names its bilinear map by index: the bracket of q2, or C2
        self.tables = (e2.q.structure, commutator_map(e2).coord_table)
        # _operators of the column set at each depth, for the deeper _solutions
        self._ops = [None] * self.m
        self.affine_at = [[] for _ in range(self.m)]
        self.square_at = [[] for _ in range(self.m)]
        # eta [b_i, b_j] = [eta b_i, eta b_j]
        for i in range(self.m):
            for j in range(self.m):
                val = e1.q.structure[i][j]
                support = [t for t in range(self.m) if val[t]]
                self._add(max([i, j] + support),
                          (0, [(val[t], t) for t in support], [(-1, i, j)]))
        # sum of lambda C2(eta b_i, eta b_j) = 0 for each relation lambda among the C1 values
        for depth in range(self.m):
            for terms in self._xi_relations(depth):
                self._add(depth, (1, [], terms))

    def _add(self, depth, constraint):
        """File a constraint under the depth where its last column is set.

        A term (c, t) or (c, i, j) reads the columns it names.  Only a term on
        the pair (depth, depth) is quadratic in col_depth: a constraint with
        one goes to square_at.  Any other goes to affine_at, split into its
        terms that read col_depth and the rest, which _solutions evaluates
        separately.
        """
        k, linear, quadratic = constraint
        if any(i == j == depth for _, i, j in quadratic):
            self.square_at[depth].append(constraint)
            return

        def part(reads):
            return (k, [u for u in linear if (depth in u[1:]) == reads],
                    [u for u in quadratic if (depth in u[1:]) == reads])
        self.affine_at[depth].append((part(True), part(False)))

    def _xi_relations(self, depth):
        """Relations among the C1 values that column `depth` must respect.

        Each is a left null vector lambda of the C1 rows of the pairs
        (i, j), i <= j <= depth: xi exists only if lambda also kills the C2
        rows.  Yields each as its terms (lambda, i, j), lambda nonzero.  At
        most one relation involves the pair (depth, depth), which makes it
        quadratic in column `depth`; any such relation will do, since two
        differ by one without that pair.  Relations among the earlier pairs
        alone held at the previous depth and are dropped.
        """
        if not self.d:
            return
        pairs = ([(depth, depth)] + [(i, depth) for i in range(depth)]
                 + [(i, j) for j in range(depth) for i in range(j + 1)])
        rows = tuple(tuple(self.c1_table[i][j][t] for (i, j) in pairs)
                     for t in range(self.d))
        # the pairs through column `depth` come first, so only the first
        # vector of the RREF null space basis can involve (depth, depth), and
        # one that vanishes on all of them is a relation among earlier pairs
        for lam in kernel(Matrix(self.field, self.d, len(pairs), rows)).basis:
            if any(lam[:depth + 1]):
                yield [(c, i, j) for (i, j), c in zip(pairs, lam) if c]

    def _residual(self, cols, constraint):
        """sum of c col_t over linear plus sum of c table(col_i, col_j) over
        quadratic, reduced mod p: zero exactly when the constraint holds."""
        k, linear, quadratic = constraint
        table = self.tables[k]
        out = [0] * len(table[0][0])
        vecs = [(c, cols[t]) for c, t in linear]
        vecs += [(c, bilinear(self.field, table, cols[i], cols[j])) for c, i, j in quadratic]
        for c, vec in vecs:
            for t, v in enumerate(vec):
                if v:
                    out[t] += c * v
        p = self.p
        return tuple([v % p for v in out])

    def _operators(self, table, u):
        """The matrices of x -> T(x, u) and x -> T(u, x), T the bilinear map
        with structure tensor `table`, as lists of rows reduced mod p."""
        m, p = self.m, self.p
        width = len(table[0][0])
        left = [[0] * m for _ in range(width)]
        right = [[0] * m for _ in range(width)]
        for s, us in enumerate(u):
            if us:
                for a in range(m):
                    for t, w in enumerate(table[a][s]):
                        if w:
                            left[t][a] += us * w
                    for t, w in enumerate(table[s][a]):
                        if w:
                            right[t][a] += us * w
        return ([[v % p for v in row] for row in left],
                [[v % p for v in row] for row in right])

    @staticmethod
    def _reduce(row, echelon, p, width):
        row = list(row)
        for piv, r in echelon:
            c = row[piv]
            if c:
                for t in range(piv, width):
                    row[t] = (row[t] - c * r[t]) % p
        return row

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
        p, m = self.p, self.m
        depth = len(cols)
        rows = []
        for (k, linear, quadratic), fixed in self.affine_at[depth]:
            a = [[0] * m for _ in range(len(self.tables[k][0][0]))]
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
        if rows:
            red, pivots = rref(Matrix(self.field, len(rows), m + 1, tuple(map(tuple, rows))))
            if pivots and pivots[-1] == m:
                return
            for row, c in zip(red.entries, pivots):
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

        Each column is one of _solutions, kept if it raises the rank and
        every constraint in square_at of its depth holds.  Every yielded
        assignment is an invertible bracket-preserving matrix whose xi
        constraint system is consistent; injectivity of the derived xi is
        left to the caller.
        """
        if not self.feasible:
            return
        cols = []

        def descend(depth, rank_rows):
            if depth == self.m:
                yield tuple(cols)
                return
            for v in self._solutions(cols):
                self._examined += 1
                red = self._reduce(v, rank_rows, self.p, self.m)
                piv = next((t for t in range(self.m) if red[t]), None)
                if piv is None:
                    continue
                cols.append(v)
                if not any(any(self._residual(cols, c)) for c in self.square_at[depth]):
                    if depth + 1 < self.m:
                        self._ops[depth] = [self._operators(table, v) for table in self.tables]
                    inv = pow(red[piv], self.p - 2, self.p)
                    norm = [x * inv % self.p for x in red]
                    yield from descend(depth + 1, rank_rows + [(piv, norm)])
                cols.pop()

        yield from descend(0, [])

    def witnesses(self):
        """Witnesses in lexicographic eta order: run() with xi derived and
        non-injective ones dropped."""
        e1, e2 = self.e1, self.e2
        f = self.field
        for columns in self.run():
            eta = AlgebraMorphism(e1.q, e2.q, Matrix.from_columns(f, columns, nrows=e2.q.dim))
            xi = derive_xi(e1, e2, eta)
            if xi is not None and xi.is_injective:
                yield IsoclinismWitness(eta, xi)


def _check_search_preconditions(e1, e2, max_gl):
    if e1.g.field != e2.g.field:
        raise FieldError("extensions live over different fields")
    if not e1.g.field.is_finite:
        raise FieldError("isoclinism search requires a finite field "
                         "(witness checking over Q is still available)")
    bound = resolve_max_gl(max_gl)
    order = gl_order(max(e1.q.dim, e2.q.dim), e1.g.field.p)
    if order > bound:
        raise SearchBoundError(
            f"|GL({max(e1.q.dim, e2.q.dim)}, F_{e1.g.field.p})| = {order} exceeds the "
            f"bound {bound}; raise --max-gl or {MAX_GL_ENV} to override")


def search_isoclinism(e1: CentralExtension, e2: CentralExtension,
                      max_gl=None) -> IsoclinismWitness | None:
    """Lexicographically first witness of Lie-isoclinism, or None."""
    _check_search_preconditions(e1, e2, max_gl)
    k1 = IsoclinismInvariants.from_extension(e1)
    k2 = IsoclinismInvariants.from_extension(e2)
    if k1.search_key() != k2.search_key():
        return None
    return _first_witness(e1, e2)


def _first_witness(e1, e2) -> IsoclinismWitness | None:
    """search_isoclinism after its precondition and invariant-key checks."""
    return next(_SearchEngine(e1, e2).witnesses(), None)


def enumerate_autoclinisms(e: CentralExtension, max_gl=None):
    """All witnesses from e to itself, in lexicographic eta order.

    The group axioms are spot-checked: identity present, closure under
    composition and inverse (exhaustively up to 256 witnesses, on a
    deterministic sample beyond that).
    """
    _check_search_preconditions(e, e, max_gl)
    out = list(_SearchEngine(e, e).witnesses())
    if out:
        _verify_group_axioms(e, out)
    return out


def _verify_group_axioms(e, witnesses):
    """The identity, inverses and composites of the witnesses' eta are among
    them.  Each witness was verified when found and eta determines xi, so
    membership of eta is all that is left to check."""
    etas = [w.eta.matrix for w in witnesses]
    keys = {m.entries for m in etas}
    if Matrix.identity(e.g.field, e.q.dim).entries not in keys:
        raise IsoclinismError("autoclinism set misses the identity")
    if len(etas) > 256:
        etas = etas[::len(etas) // 16]
    for a in etas:
        if a.inverse().entries not in keys:
            raise IsoclinismError("autoclinism set is not closed under inverse")
        for b in etas:
            if (b @ a).entries not in keys:
                raise IsoclinismError("autoclinism set is not closed under composition")


def algebras_isoclinic(a: LeibnizAlgebra, b: LeibnizAlgebra,
                       max_gl=None) -> IsoclinismWitness | None:
    """Witness between the canonical central extensions of two algebras."""
    return search_isoclinism(canonical_extension(a), canonical_extension(b), max_gl)


def compose_witnesses(w1: IsoclinismWitness, w2: IsoclinismWitness) -> IsoclinismWitness:
    """w2 after w1 (componentwise composition)."""
    return IsoclinismWitness(w2.eta.compose(w1.eta), w2.xi.compose(w1.xi))


def invert_witness(w: IsoclinismWitness) -> IsoclinismWitness:
    return IsoclinismWitness(w.eta.inverse(), w.xi.inverse())


def identity_witness(e: CentralExtension) -> IsoclinismWitness:
    eta = AlgebraMorphism.identity(e.q)
    xi = derive_xi(e, e, eta)
    if xi is None:
        raise IsoclinismError("identity witness derivation failed")
    return IsoclinismWitness(eta, xi)


@value_class
class IsoclinicHomReport:
    """Result of the isoclinic-homomorphism test for an extension triple.

    A triple (alpha, beta, gamma) is isoclinic exactly when gamma is an
    isomorphism and Ker(beta) meets the Lie-commutator of the source total
    trivially; beta_prime is then the (injective) restriction of beta to the
    Lie-commutators.
    """

    is_isoclinic: bool
    reasons: tuple
    beta_prime: LinearMap | None

    def __bool__(self):
        return self.is_isoclinic


def is_isoclinic_homomorphism(triple: ExtensionMorphism) -> IsoclinicHomReport:
    reasons = []
    if not triple.gamma.is_bijective:
        reasons.append("gamma is not an isomorphism")
    com1 = lie_commutator_of(triple.source.g)
    com2 = lie_commutator_of(triple.target.g)
    meet = intersect(triple.beta.kernel_space(), com1)
    if meet.dim != 0:
        reasons.append("Ker(beta) meets the Lie-commutator nontrivially")
    if reasons:
        return IsoclinicHomReport(False, tuple(reasons), None)
    cols = [com2.coords_of(triple.beta.apply(b)) for b in com1.basis]
    f = triple.source.g.field
    return IsoclinicHomReport(True, (), LinearMap(com1, com2,
                                                  Matrix.from_columns(f, cols, nrows=com2.dim)))


def triple_to_witness(triple: ExtensionMorphism) -> IsoclinismWitness:
    """The witness (gamma, beta|) carried by an isoclinic triple."""
    rep = is_isoclinic_homomorphism(triple)
    if not rep:
        raise IsoclinismError("triple is not isoclinic: " + "; ".join(rep.reasons))
    if not rep.beta_prime.is_bijective:
        raise IsoclinismError("restricted beta is not onto the target Lie-commutator")
    return IsoclinismWitness(triple.gamma, rep.beta_prime)


def is_isoclinic_algebra_hom(beta: AlgebraMorphism) -> bool:
    """Algebra-level criterion: Ker(beta) misses [g,g]_Lie and
    Im(beta) + Z_Lie(h) = h."""
    com = lie_commutator_of(beta.source)
    if intersect(beta.kernel_space(), com).dim != 0:
        return False
    cover = subspace_sum(beta.image_space(), lie_center(beta.target))
    return cover.dim == beta.target.dim


def induced_canonical_witness(e1: CentralExtension, e2: CentralExtension,
                              w: IsoclinismWitness) -> IsoclinismWitness:
    """Transport a witness between extensions to one between the canonical
    extensions of their totals (same xi, induced eta on g/Z_Lie(g))."""
    c1 = canonical_extension(e1.g)
    c2 = canonical_extension(e2.g)
    f = e1.g.field
    m = c2.pi.matrix @ e2.section @ w.eta.matrix @ e1.pi.matrix
    for z in lie_center(e1.g).basis:
        if any(m.apply(z)):
            raise IsoclinismError("induced map is not constant on Lie-center cosets")
    eta_bar = AlgebraMorphism(c1.q, c2.q, m @ c1.section)
    return IsoclinismWitness(eta_bar, w.xi)


@value_class(frozen=False)
class IsoclinismClass:
    representative: int
    members: list
    witnesses: dict  # member index -> witness from the representative


@value_class(frozen=False)
class Classification:
    algebras: tuple
    extensions: tuple
    classes: list

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

    Each distinct algebra gets one canonical extension, shared by its copies.
    Isoclinism is a function of the datum (q, C) of each side: the quotient
    algebra and the commutator map in Lie-commutator coordinates, over one
    field.  The key and the search read nothing else, so the key is computed
    once per datum and the search runs once per pair of data.  A witness
    found for another pair with the same data is rebuilt on this pair's own
    quotients and Lie-commutators, so every class, member and witness is the
    one a search of this very pair would give.
    """
    algebras = tuple(algebras)
    ext_of, datum_of = {}, {}  # distinct algebra -> its extension, its datum's number
    numbers, keys = {}, []  # datum -> its number; number -> search key
    for a in algebras:
        if a in ext_of:
            continue
        e = ext_of[a] = canonical_extension(a)
        d = datum_of[a] = numbers.setdefault(_datum(e), len(numbers))
        if d == len(keys):
            keys.append(IsoclinismInvariants.from_extension(e).search_key())
    exts = tuple(ext_of[a] for a in algebras)
    data = tuple(datum_of[a] for a in algebras)
    searched = {}  # (datum of rep, datum of input) -> (rep, input, first witness or None)
    classes = []
    for idx, e in enumerate(exts):
        placed = False
        for cls in classes:
            rep = exts[cls.representative]
            pair = data[cls.representative], data[idx]
            if keys[pair[0]] != keys[pair[1]]:
                continue
            _check_search_preconditions(rep, e, max_gl)
            if pair not in searched:
                searched[pair] = rep, e, _first_witness(rep, e)
            rep0, e0, w = searched[pair]
            if w is not None:
                if rep0 is not rep or e0 is not e:
                    w = IsoclinismWitness(
                        AlgebraMorphism(rep.q, e.q, w.eta.matrix),
                        LinearMap(lie_commutator_of(rep.g), lie_commutator_of(e.g),
                                  w.xi.matrix))
                cls.members.append(idx)
                cls.witnesses[idx] = w
                placed = True
                break
        if not placed:
            classes.append(IsoclinismClass(idx, [idx], {idx: identity_witness(e)}))
    return Classification(algebras, exts, classes)


def _datum(e):
    """What the search and its key read of e: the field, the bracket of q,
    dim [g, g]_Lie and the commutator map in Lie-commutator coordinates."""
    return (e.g.field, e.q.structure, lie_commutator_of(e.g).dim,
            commutator_map(e).coord_table)
