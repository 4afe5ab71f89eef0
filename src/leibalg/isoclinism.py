"""Lie-isoclinism of Lie-central extensions: checking, search, classification.

A witness is a pair (eta, xi): an algebra isomorphism eta between the
quotients and a linear isomorphism xi between the Lie-commutators of the
totals that intertwines the commutator maps,

    xi(C1(x, y)) = C2(eta x, eta y)   for all x, y in q1.

Since the commutator-map values span the Lie-commutator, eta determines xi
uniquely whenever a compatible xi exists: derive_xi solves for it by exact
linear algebra, so search only ever enumerates eta.  The search is a
backtracking enumeration of basis images in lexicographic coordinate order,
pruned by rank, by partial bracket preservation, and by incremental
consistency of the forced xi; the first witness found is therefore the
lexicographically first one, and any concurrent evaluation of branches must
preserve that (the implementation here is sequential).

Two algebras are isoclinic when their canonical extensions by the Lie-center
are; classify() partitions a list of algebras by that relation.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field as dc_field

from .algebra import (
    AlgebraMorphism,
    LeibnizAlgebra,
    full_space,
    lie_center,
    lie_commutator_of,
)
from .extensions import (
    CentralExtension,
    CommutatorMap,
    ExtensionMorphism,
    canonical_extension,
    commutator_map,
)
from .fields import FieldError
from .linalg import (
    LinearMap,
    Matrix,
    Subspace,
    intersect,
    kernel,
    solve_linear_map,
    span,
    subspace_sum,
    TOTAL,
    INCONSISTENT,
)


class IsoclinismError(ValueError):
    pass


class SearchBoundError(IsoclinismError):
    """The requested search would enumerate more of GL(n, F_p) than allowed."""


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


@dataclass(frozen=True)
class IsoclinismWitness:
    eta: AlgebraMorphism  # q1 -> q2, isomorphism
    xi: LinearMap  # [g1,g1]_Lie -> [g2,g2]_Lie, isomorphism


@dataclass(frozen=True)
class WitnessReport:
    ok: bool
    failures: tuple
    surjectivity_automatic: bool  # xi surjectivity followed from injectivity

    def __bool__(self):
        return self.ok


def derive_xi(e1: CentralExtension, e2: CentralExtension, eta: AlgebraMorphism):
    """The unique xi compatible with eta, or None if the system is inconsistent.

    eta must be an isomorphism e1.q -> e2.q; the returned map need not be
    injective (callers decide whether a non-injective xi disqualifies eta).
    """
    if eta.source != e1.q or eta.target != e2.q:
        raise IsoclinismError("eta endpoints do not match the extensions")
    if not eta.is_bijective:
        raise IsoclinismError("eta is not an isomorphism")
    com1 = lie_commutator_of(e1.g)
    com2 = lie_commutator_of(e2.g)
    c1 = commutator_map(e1)
    c2 = commutator_map(e2)
    pairs = []
    for i in range(e1.q.dim):
        for j in range(i, e1.q.dim):
            pairs.append((c1.value_on_basis(i, j),
                          c2.value(eta.matrix.column(i), eta.matrix.column(j))))
    res = solve_linear_map(pairs, com1, com2)
    if res.status == INCONSISTENT:
        return None
    if res.status != TOTAL:
        raise IsoclinismError("commutator values failed to span the Lie-commutator")
    return res.linear_map


def check_witness(e1: CentralExtension, e2: CentralExtension,
                  witness: IsoclinismWitness) -> WitnessReport:
    """Full verification of a witness against two extensions.

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
    com1 = lie_commutator_of(e1.g)
    com2 = lie_commutator_of(e2.g)
    if xi.domain != com1 or xi.codomain != com2:
        failures.append("xi endpoints do not match the Lie-commutators")
        return WitnessReport(False, tuple(failures), False)
    eta_bij = eta.is_bijective
    if not eta_bij:
        failures.append("eta is not bijective")
    xi_inj = xi.is_injective
    if not xi_inj:
        failures.append("xi is not injective")
    c1 = commutator_map(e1)
    c2 = commutator_map(e2)
    compat = True
    for i in range(e1.q.dim):
        for j in range(i, e1.q.dim):
            lhs = xi.apply_ambient(c1.value_on_basis(i, j))
            rhs = c2.value(eta.matrix.column(i), eta.matrix.column(j))
            if lhs != rhs:
                compat = False
                failures.append(f"commutator squares disagree at basis pair ({i}, {j})")
    automatic = eta_bij and xi_inj and compat
    if automatic and not xi.is_surjective:
        # cannot happen mathematically; keep the check honest anyway
        failures.append("xi is not surjective")
        automatic = False
    return WitnessReport(not failures, tuple(failures), automatic)


@dataclass(frozen=True)
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
        # Squares and symmetric brackets span the same ideal when 2 is
        # invertible, and Field rejects characteristic 2: each Lie-commutator
        # is also the annihilator ideal.
        com = lie_commutator_of(e.g)
        q = e.q
        q_com = lie_commutator_of(q)
        return cls(
            q_dim=q.dim,
            commutator_dim=com.dim,
            c_radical_dim=commutator_map(e).radical().dim,
            q_center_dim=lie_center(q).dim,
            q_commutator_dim=q_com.dim,
            q_annihilator_dim=q_com.dim,
            g_dim=e.g.dim,
            g_center_dim=lie_center(e.g).dim,
            g_annihilator_dim=com.dim,
        )

    @classmethod
    def from_algebra(cls, g: LeibnizAlgebra) -> "IsoclinismInvariants":
        return cls.from_extension(canonical_extension(g))

    def search_key(self):
        return (self.q_dim, self.commutator_dim, self.c_radical_dim,
                self.q_center_dim, self.q_commutator_dim, self.q_annihilator_dim)


class _SearchEngine:
    """Backtracking enumeration of eta column images over F_p."""

    def __init__(self, e1, e2):
        self.e1, self.e2 = e1, e2
        p = e1.g.field.p
        self.p = p
        self.m = e1.q.dim
        self.feasible = e1.q.dim == e2.q.dim
        if not self.feasible:
            return
        self.c1_struct = e1.q.structure
        self.c2_struct = e2.q.structure
        com1 = lie_commutator_of(e1.g)
        com2 = lie_commutator_of(e2.g)
        self.d = com1.dim
        cm1, cm2 = commutator_map(e1), commutator_map(e2)
        self.c1_table = tuple(tuple(com1.coords_of(cm1.value_on_basis(i, j))
                                    for j in range(self.m)) for i in range(self.m))
        self.c2_table = tuple(tuple(com2.coords_of(cm2.value_on_basis(i, j))
                                    for j in range(self.m)) for i in range(self.m))
        # bracket pairs become checkable once every coordinate they touch is set
        self.bracket_pairs_at = [[] for _ in range(self.m)]
        for i in range(self.m):
            for j in range(self.m):
                val = self.c1_struct[i][j]
                support = [t for t in range(self.m) if val[t]]
                depth = max([i, j] + support)
                self.bracket_pairs_at[depth].append((i, j))
        self.xi_pairs_at = [[(i, k) for i in range(k + 1)] for k in range(self.m)]
        self.candidates = list(itertools.product(range(p), repeat=self.m))

    def q2_bracket(self, u, v):
        p, m = self.p, self.m
        out = [0] * m
        for a in range(m):
            ua = u[a]
            if ua:
                row = self.c2_struct[a]
                for b in range(m):
                    vb = v[b]
                    if vb:
                        w = row[b]
                        for t in range(m):
                            if w[t]:
                                out[t] = (out[t] + ua * vb * w[t]) % p
        return tuple(out)

    def c2_value(self, u, v):
        p, m, d = self.p, self.m, self.d
        out = [0] * d
        for a in range(m):
            ua = u[a]
            if ua:
                row = self.c2_table[a]
                for b in range(m):
                    vb = v[b]
                    if vb:
                        w = row[b]
                        for t in range(d):
                            if w[t]:
                                out[t] = (out[t] + ua * vb * w[t]) % p
        return tuple(out)

    @staticmethod
    def _reduce(row, echelon, p, width):
        row = list(row)
        for piv, r in echelon:
            c = row[piv]
            if c:
                for t in range(piv, width):
                    row[t] = (row[t] - c * r[t]) % p
        return row

    def _add_xi_row(self, row, xirows):
        """Append to the forward echelon; False on inconsistency."""
        p = self.p
        width = 2 * self.d
        row = self._reduce(row, xirows, p, width)
        piv = next((t for t in range(width) if row[t]), None)
        if piv is None:
            return True
        if piv >= self.d:
            return False
        inv = pow(row[piv], p - 2, p)
        row = [v * inv % p for v in row]
        xirows.append((piv, row))
        return True

    def run(self):
        """Yield full eta column assignments in lexicographic order.

        Every yielded assignment is an invertible bracket-preserving matrix
        whose xi constraint system is consistent; injectivity of the derived
        xi is left to the caller.
        """
        if not self.feasible:
            return
        cols = []

        def descend(depth, rank_rows, xirows):
            if depth == self.m:
                yield tuple(cols)
                return
            for v in self.candidates:
                red = self._reduce(v, rank_rows, self.p, self.m)
                piv = next((t for t in range(self.m) if red[t]), None)
                if piv is None:
                    continue
                cols.append(v)
                ok = True
                for (i, j) in self.bracket_pairs_at[depth]:
                    val = self.c1_struct[i][j]
                    lhs = tuple(
                        sum(val[t] * cols[t][r] for t in range(depth + 1) if val[t]) % self.p
                        for r in range(self.m))
                    if lhs != self.q2_bracket(cols[i], cols[j]):
                        ok = False
                        break
                new_xirows = xirows
                if ok and self.d:
                    new_xirows = list(xirows)
                    for (i, j) in self.xi_pairs_at[depth]:
                        row = list(self.c1_table[i][j]) + list(self.c2_value(cols[i], cols[j]))
                        if not self._add_xi_row(row, new_xirows):
                            ok = False
                            break
                if ok:
                    inv = pow(red[piv], self.p - 2, self.p)
                    norm = [x * inv % self.p for x in red]
                    yield from descend(depth + 1, rank_rows + [(piv, norm)], new_xirows)
                cols.pop()

        yield from descend(0, [], [])


def _witness_from_columns(e1, e2, columns) -> IsoclinismWitness | None:
    f = e1.g.field
    mat = (Matrix.from_columns(f, columns, nrows=e2.q.dim)
           if columns else Matrix.zeros(f, e2.q.dim, 0))
    eta = AlgebraMorphism(e1.q, e2.q, mat)
    xi = derive_xi(e1, e2, eta)
    if xi is None or not xi.is_injective:
        return None
    return IsoclinismWitness(eta, xi)


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
    engine = _SearchEngine(e1, e2)
    for columns in engine.run():
        w = _witness_from_columns(e1, e2, columns)
        if w is not None:
            return w
    return None


def enumerate_autoclinisms(e: CentralExtension, max_gl=None, verify=True):
    """All witnesses from e to itself, in lexicographic eta order.

    With verify=True the group axioms are spot-checked: identity present,
    closure under composition and inverse (exhaustively up to 256 witnesses,
    on a deterministic sample beyond that).
    """
    _check_search_preconditions(e, e, max_gl)
    engine = _SearchEngine(e, e)
    out = []
    for columns in engine.run():
        w = _witness_from_columns(e, e, columns)
        if w is not None:
            out.append(w)
    if verify and out:
        _verify_group_axioms(e, out)
    return out


def _verify_group_axioms(e, witnesses):
    keys = {w.eta.matrix.entries for w in witnesses}
    ident = Matrix.identity(e.g.field, e.q.dim)
    if ident.entries not in keys:
        raise IsoclinismError("autoclinism set misses the identity")
    idx = list(range(len(witnesses)))
    if len(witnesses) > 256:
        step = len(witnesses) // 16 or 1
        idx = idx[::step]
    for i in idx:
        wi = witnesses[i]
        inv = invert_witness(wi)
        if inv.eta.matrix.entries not in keys:
            raise IsoclinismError("autoclinism set is not closed under inverse")
        for j in idx:
            comp = compose_witnesses(wi, witnesses[j])
            if comp.eta.matrix.entries not in keys:
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


@dataclass(frozen=True)
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
    mat = Matrix.from_columns(f, cols, nrows=com2.dim) if cols else Matrix.zeros(f, com2.dim, 0)
    return IsoclinicHomReport(True, (), LinearMap(com1, com2, mat))


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


@dataclass
class IsoclinismClass:
    representative: int
    members: list
    witnesses: dict  # member index -> witness from the representative


@dataclass
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
    """
    algebras = tuple(algebras)
    exts = tuple(canonical_extension(a) for a in algebras)
    keys = [IsoclinismInvariants.from_extension(e).search_key() for e in exts]
    classes = []
    for idx, e in enumerate(exts):
        placed = False
        for cls in classes:
            if keys[cls.representative] != keys[idx]:
                continue
            w = search_isoclinism(exts[cls.representative], e, max_gl)
            if w is not None:
                cls.members.append(idx)
                cls.witnesses[idx] = w
                placed = True
                break
        if not placed:
            classes.append(IsoclinismClass(idx, [idx], {idx: identity_witness(e)}))
    return Classification(algebras, exts, classes)
