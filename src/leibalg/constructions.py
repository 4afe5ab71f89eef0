"""Morphisms of Lie-central extensions and the constructions built with them.

A morphism of extensions is a commuting triple (alpha, beta, gamma).  The
constructions here come with such triples: pulling an extension back along
an isomorphism of quotients, the diagonal pullback of two extensions, the
product with a Lie algebra, and the quotient by an ideal inside the kernel
part.  The backward extension g2 x_{q2} q1 and the diagonal pullback
g1 x_{q2} g2 are fibre products, and the product with a Lie algebra is a
product; all three are built by the same two private helpers, which also
give the projections (and, transposed, the embeddings) of their triples.

A triple is an isoclinic homomorphism when gamma is an isomorphism and beta
is injective on the Lie-commutator; is_isoclinic_homomorphism decides that
and triple_to_witness reads off the witness it carries.  Both
isoclinic-homomorphism tests restrict beta to the Lie-commutators with
algebra.restrict_to_lie_commutators, as homology.pi_prime restricts pi, and
read "Ker(beta) meets [g, g]_Lie trivially" as "the restriction is
injective".  The witness algebra (composition, inverses, the autoclinism
group of an extension) completes the module.  Its autoclinisms are
isoclinism.witnesses from an extension to itself, so they pass through the
search's one decision (same field, then the key, then the GL bound) like
every other search, and nothing here imports a private name of isoclinism.

Searching and classifying use none of this, so `isoclinic` and `classify`
never import it: leibalg.extensions and leibalg.isoclinism keep only what
they run, and a command without a bytecode cache compiles less.  For the
same reason the functions here that need leibalg.isoclinism import it where
they run: `extension product` runs no search and does not load it.
"""

from __future__ import annotations

from ._value import value_class
from .algebra import (
    AlgebraMorphism,
    LeibnizAlgebra,
    direct_product,
    has_trivial_lie_commutator,
    lie_center,
    quotient_algebra,
    restrict_to_lie_commutators,
    subalgebra,
)
from .errors import AlgebraError, ExtensionError, IsoclinismError
from .extensions import CentralExtension, canonical_extension
from .extensions import central_extension_from_ideal  # noqa: F401  (re-exported)
from .linalg import LinearMap, Matrix, Subspace, kernel, subspace_sum


@value_class
class ExtensionMorphism:
    """A commuting triple (alpha, beta, gamma) between two extensions."""

    source: CentralExtension
    target: CentralExtension
    alpha: AlgebraMorphism  # n1 -> n2
    beta: AlgebraMorphism  # g1 -> g2
    gamma: AlgebraMorphism  # q1 -> q2

    def __post_init__(self):
        s, t = self.source, self.target
        if (self.alpha.source, self.alpha.target) != (s.n, t.n):
            raise ExtensionError("alpha endpoints mismatch")
        if (self.beta.source, self.beta.target) != (s.g, t.g):
            raise ExtensionError("beta endpoints mismatch")
        if (self.gamma.source, self.gamma.target) != (s.q, t.q):
            raise ExtensionError("gamma endpoints mismatch")
        if self.beta.matrix @ s.chi.matrix != t.chi.matrix @ self.alpha.matrix:
            raise ExtensionError("left square does not commute (beta.chi1 != chi2.alpha)")
        if self.gamma.matrix @ s.pi.matrix != t.pi.matrix @ self.beta.matrix:
            raise ExtensionError("right square does not commute (gamma.pi1 != pi2.beta)")

    @property
    def is_isomorphism(self):
        return self.alpha.is_bijective and self.beta.is_bijective and self.gamma.is_bijective


def _product(a: LeibnizAlgebra, b: LeibnizAlgebra):
    """a x b with its projections onto a and onto b; their transposes are
    the embeddings."""
    f = a.field
    total = direct_product(a, b)
    onto_a = Matrix.identity(f, a.dim).hstack(Matrix.zeros(f, a.dim, b.dim))
    onto_b = Matrix.zeros(f, b.dim, a.dim).hstack(Matrix.identity(f, b.dim))
    return total, AlgebraMorphism(total, a, onto_a), AlgebraMorphism(total, b, onto_b)


def _fibre_product(a: LeibnizAlgebra, alpha: Matrix, b: LeibnizAlgebra, beta: Matrix):
    """a x_F b = {(x, y) in a x b : alpha x = beta y} for linear maps alpha,
    beta into a common space F: the kernel w of [alpha | -beta], the
    subalgebra of a x b on w and its projections onto a and onto b."""
    f = a.field
    w = kernel(alpha.hstack(Matrix.from_rows(f, [[-v for v in row] for row in beta.entries],
                                             beta.ncols)))
    sub = subalgebra(direct_product(a, b), w)
    total, rows = sub.algebra, sub.inclusion.matrix.entries
    return (w, total, AlgebraMorphism(total, a, Matrix(f, a.dim, w.dim, rows[:a.dim])),
            AlgebraMorphism(total, b, Matrix(f, b.dim, w.dim, rows[a.dim:])))


def _in_coordinates(w: Subspace, m: Matrix) -> Matrix:
    """The columns of m, each a vector of w, in w's basis coordinates."""
    return Matrix.from_columns(m.field, [w.coords_of(c) for c in m.columns()], nrows=w.dim)


def _block_diagonal(m1: Matrix, m2: Matrix) -> Matrix:
    """[[m1, 0], [0, m2]]."""
    f = m1.field
    return m1.hstack(Matrix.zeros(f, m1.nrows, m2.ncols)).vstack(
        Matrix.zeros(f, m2.nrows, m1.ncols).hstack(m2))


@value_class
class BackwardExtension:
    extension: CentralExtension
    iso: ExtensionMorphism  # from the built extension onto the original


def backward_extension(e2: CentralExtension, eta: AlgebraMorphism) -> BackwardExtension:
    """Pull e2 back along an isomorphism eta: q1 -> q2 of quotient algebras.

    The total algebra is the fibre product g2 x_{q2} q1 = {(g, x) :
    pi2(g) = eta(x)}; the result is an extension of q1 by n2 together with
    the isomorphism of extensions (id, (g, x) |-> g, eta) onto e2.
    """
    if eta.target != e2.q:
        raise ExtensionError("eta must land in the quotient of the extension")
    if not eta.is_bijective:
        raise ExtensionError("eta is not an isomorphism")
    q1 = eta.source
    f = e2.g.field
    w, total, beta, pi = _fibre_product(e2.g, e2.pi.matrix, q1, eta.matrix)
    chi = AlgebraMorphism(e2.n, total, _in_coordinates(
        w, e2.chi.matrix.vstack(Matrix.zeros(f, q1.dim, e2.n.dim))))
    # natural section: x |-> (s2(eta x), x)
    section = _in_coordinates(w, (e2.section @ eta.matrix).vstack(Matrix.identity(f, q1.dim)))
    ext = CentralExtension(e2.n, total, q1, chi, pi, section)
    iso = ExtensionMorphism(ext, e2, AlgebraMorphism.identity(e2.n), beta, eta)
    return BackwardExtension(ext, iso)


@value_class
class PullbackExtension:
    """Diagonal pullback of e1 and e2 along eta: q1 -> q2.

    total = g1 x_{q2} g2 = {(x, y) : eta(pi1 x) = pi2 y}, an extension of q1
    by n1 x n2; to_first and to_second are the projection triples
    (sigma_i, tau_i, gamma_i) with gamma_1 = id and gamma_2 = eta.
    """

    extension: CentralExtension
    to_first: ExtensionMorphism
    to_second: ExtensionMorphism


def diagonal_pullback(e1: CentralExtension, e2: CentralExtension,
                      eta: AlgebraMorphism) -> PullbackExtension:
    if eta.source != e1.q or eta.target != e2.q:
        raise ExtensionError("eta must map the first quotient onto the second")
    if not eta.is_bijective:
        raise ExtensionError("eta is not an isomorphism")
    w, total, tau1, tau2 = _fibre_product(e1.g, eta.matrix @ e1.pi.matrix, e2.g, e2.pi.matrix)
    n_prod, sigma1, sigma2 = _product(e1.n, e2.n)
    chi = AlgebraMorphism(n_prod, total, _in_coordinates(
        w, _block_diagonal(e1.chi.matrix, e2.chi.matrix)))
    rho = AlgebraMorphism(total, e1.q, e1.pi.matrix @ tau1.matrix)
    # natural section: x |-> (s1 x, s2 eta x)
    section = _in_coordinates(w, e1.section.vstack(e2.section @ eta.matrix))
    ext = CentralExtension(n_prod, total, e1.q, chi, rho, section)
    to_first = ExtensionMorphism(ext, e1, sigma1, tau1, AlgebraMorphism.identity(e1.q))
    to_second = ExtensionMorphism(ext, e2, sigma2, tau2, eta)
    return PullbackExtension(ext, to_first, to_second)


@value_class
class ProductExtension:
    """e x a for a Lie algebra a: 0 -> n x a -> g x a -> q -> 0."""

    extension: CentralExtension
    onto_original: ExtensionMorphism  # (projections, id)
    from_original: ExtensionMorphism  # (embeddings, id)


def product_with_abelian(e: CentralExtension, a: LeibnizAlgebra) -> ProductExtension:
    if not has_trivial_lie_commutator(a):
        raise ExtensionError("factor must have trivial Lie-commutator (a Lie algebra)")
    total, phi, _ = _product(e.g, a)
    n_new, phi_prime, _ = _product(e.n, a)
    chi = AlgebraMorphism(n_new, total,
                          _block_diagonal(e.chi.matrix, Matrix.identity(e.g.field, a.dim)))
    pi = AlgebraMorphism(total, e.q, e.pi.matrix @ phi.matrix)
    ext = CentralExtension(n_new, total, e.q, chi, pi, phi.matrix.transpose() @ e.section)
    identity = AlgebraMorphism.identity(e.q)
    onto = ExtensionMorphism(ext, e, phi_prime, phi, identity)
    mu_prime = AlgebraMorphism(e.n, n_new, phi_prime.matrix.transpose())
    mu = AlgebraMorphism(e.g, total, phi.matrix.transpose())
    fro = ExtensionMorphism(e, ext, mu_prime, mu, identity)
    return ProductExtension(ext, onto, fro)


@value_class
class QuotientExtension:
    extension: CentralExtension
    onto: ExtensionMorphism  # the natural epimorphism triple (nat', nat, id)


def quotient_extension_by_alpha(e: CentralExtension, alpha_image: Subspace) -> QuotientExtension:
    """Quotient an extension by an ideal sitting inside the kernel part.

    alpha_image is a subspace of the total algebra g; it must be a two-sided
    ideal of g contained in image(chi).  The result is
    0 -> n/chi^{-1}(alpha_image) -> g/alpha_image -> q -> 0 together with the
    natural epimorphism triple from e.  quotient_algebra decides
    two-sidedness, by its projection's bracket check.
    """
    if not alpha_image.is_subspace_of(e.chi.image_space()):
        raise ExtensionError("alpha image is not contained in the kernel part image(chi)")
    try:
        g_quot = quotient_algebra(e.g, alpha_image)
    except AlgebraError as exc:
        raise ExtensionError("alpha image is not a two-sided ideal of the total algebra") from exc
    # preimage in n: kernel of (project mod alpha_image) . chi
    pre = kernel(g_quot.structure.projection @ e.chi.matrix)
    n_quot = quotient_algebra(e.n, pre)
    chi_bar = AlgebraMorphism(
        n_quot.algebra, g_quot.algebra,
        g_quot.structure.projection @ e.chi.matrix @ n_quot.structure.section)
    pi_bar = AlgebraMorphism(g_quot.algebra, e.q, e.pi.matrix @ g_quot.structure.section)
    section = g_quot.structure.projection @ e.section
    ext = CentralExtension(n_quot.algebra, g_quot.algebra, e.q, chi_bar, pi_bar, section)
    onto = ExtensionMorphism(e, ext, n_quot.projection, g_quot.projection,
                             AlgebraMorphism.identity(e.q))
    return QuotientExtension(ext, onto)


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
    beta_prime = restrict_to_lie_commutators(triple.beta)
    if not beta_prime.is_injective:
        reasons.append("Ker(beta) meets the Lie-commutator nontrivially")
    return IsoclinicHomReport(not reasons, tuple(reasons), None if reasons else beta_prime)


def triple_to_witness(triple: ExtensionMorphism) -> IsoclinismWitness:
    """The witness (gamma, beta|) carried by an isoclinic triple."""
    from .isoclinism import IsoclinismWitness

    rep = is_isoclinic_homomorphism(triple)
    if not rep:
        raise IsoclinismError("triple is not isoclinic: " + "; ".join(rep.reasons))
    if not rep.beta_prime.is_bijective:
        raise IsoclinismError("restricted beta is not onto the target Lie-commutator")
    return IsoclinismWitness(triple.gamma, rep.beta_prime)


def is_isoclinic_algebra_hom(beta: AlgebraMorphism) -> bool:
    """Algebra-level criterion: Ker(beta) misses [g,g]_Lie and
    Im(beta) + Z_Lie(h) = h."""
    if not restrict_to_lie_commutators(beta).is_injective:
        return False
    cover = subspace_sum(beta.image_space(), lie_center(beta.target))
    return cover.dim == beta.target.dim


def induced_canonical_witness(e1: CentralExtension, e2: CentralExtension,
                              w: IsoclinismWitness) -> IsoclinismWitness:
    """Transport a witness between extensions to one between the canonical
    extensions of their totals (same xi, induced eta on g/Z_Lie(g))."""
    from .isoclinism import IsoclinismWitness

    c1 = canonical_extension(e1.g)
    c2 = canonical_extension(e2.g)
    m = c2.pi.matrix @ e2.section @ w.eta.matrix @ e1.pi.matrix
    for z in lie_center(e1.g).basis:
        if any(m.apply(z)):
            raise IsoclinismError("induced map is not constant on Lie-center cosets")
    eta_bar = AlgebraMorphism(c1.q, c2.q, m @ c1.section)
    return IsoclinismWitness(eta_bar, w.xi)


def enumerate_autoclinisms(e: CentralExtension, max_gl=None):
    """All witnesses from e to itself, in lexicographic eta order.

    The group axioms are spot-checked: identity present, closure under
    composition and inverse (exhaustively up to 256 witnesses, on a
    deterministic sample beyond that).
    """
    from .isoclinism import witnesses

    out = list(witnesses(e, e, max_gl))
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
    """classify's witness from a's canonical central extension to b's, or None."""
    from .isoclinism import classify

    return classify((a, b), max_gl).classes[0].witnesses.get(1)


def compose_witnesses(w1: IsoclinismWitness, w2: IsoclinismWitness) -> IsoclinismWitness:
    """w2 after w1 (componentwise composition)."""
    from .isoclinism import IsoclinismWitness

    return IsoclinismWitness(w2.eta.compose(w1.eta), w2.xi.compose(w1.xi))


def invert_witness(w: IsoclinismWitness) -> IsoclinismWitness:
    from .isoclinism import IsoclinismWitness

    return IsoclinismWitness(w.eta.inverse(), w.xi.inverse())
