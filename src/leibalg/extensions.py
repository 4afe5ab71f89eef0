"""Lie-central extensions of Leibniz algebras and their commutator maps.

An extension 0 -> n --chi--> g --pi--> q -> 0 is Lie-central when the image
of chi lies in the Lie-center of g, equivalently [chi(n), g]_Lie = 0.  The
commutator map C(x, y) = [x^, y^] + [y^, x^] on lifts is then independent of
the lifts and is the bilinear invariant that isoclinism matches up.  Its
values span [g, g]_Lie, so each extension keeps C as one table in
Lie-commutator coordinates, computed once from the section's columns by
algebra.commutator_table, the one reader of C.

This module holds what every extension command reads: the extension itself,
its validation, the canonical extension by the Lie-center, the commutator
map and the stem test.  An extension is stem when chi(n) lies in
[g, g]_Lie, that is when theta = chi^{-1}([g, g]_Lie) is all of n, and
is_stem_extension reads that off the theta image the extension keeps.
Morphisms of extensions and the constructions built with them (backward
extension, diagonal pullback, product with a Lie algebra, quotient by an
ideal) are in leibalg.constructions, which only the commands that build them
import.
"""

from __future__ import annotations

from functools import cached_property

from ._value import value_class
from .algebra import (
    AlgebraMorphism,
    LeibnizAlgebra,
    commutator_table,
    lie_center,
    lie_commutator_of,
    quotient_algebra,
    subalgebra,
)
from .errors import ExtensionError  # noqa: F401  (the layer's error, re-exported)
from .linalg import Matrix, Subspace, kernel, quotient


@value_class
class CentralExtension:
    """0 -> n --chi--> g --pi--> q -> 0 with a fixed linear section of pi.

    Not validated at construction so that broken candidates can be fed to
    validate_extension; every constructor in this module produces valid ones.
    The commutator table and the theta image are computed once, on first
    request, and kept; they take no part in equality.
    """

    n: LeibnizAlgebra
    g: LeibnizAlgebra
    q: LeibnizAlgebra
    chi: AlgebraMorphism
    pi: AlgebraMorphism
    section: Matrix  # (g.dim x q.dim), pi . section = id

    @cached_property
    def _commutator_map(self) -> tuple:
        return commutator_table(self.g, self.section.columns())

    @cached_property
    def _theta_image(self) -> Subspace:
        # homology.theta_image: the kernel of n -> g/[g,g]_Lie
        return kernel(quotient(lie_commutator_of(self.g)).projection @ self.chi.matrix)


@value_class
class ExtensionReport:
    ok: bool
    failures: tuple

    def __bool__(self):
        return self.ok


def validate_extension(e: CentralExtension) -> ExtensionReport:
    """Exactness, injectivity/surjectivity, Lie-centrality, section check;
    chi's rank is read off its image and pi's off its kernel."""
    failures = []
    if e.chi.source != e.n or e.chi.target != e.g:
        failures.append("chi endpoints do not match n -> g")
    if e.pi.source != e.g or e.pi.target != e.q:
        failures.append("pi endpoints do not match g -> q")
    image, ker = e.chi.image_space(), e.pi.kernel_space()
    if image.dim != e.chi.source.dim:
        failures.append("chi is not injective")
    if e.pi.source.dim - ker.dim != e.pi.target.dim:
        failures.append("pi is not surjective")
    if image != ker:
        failures.append("image(chi) != kernel(pi)")
    # chi(n) inside Z_Lie(g) says [chi(n), g]_Lie = 0: the ideal is generated
    # by the symmetric brackets with chi(n), and those vanish exactly then.
    # An image in another algebra than g is not inside Z_Lie(g).
    if image.ambient_dim != e.g.dim or not image.is_subspace_of(lie_center(e.g)):
        failures.append("[chi(n), g]_Lie != 0 (extension is not Lie-central)")
    prod = e.pi.matrix @ e.section
    if prod != Matrix.identity(e.g.field, e.q.dim):
        failures.append("section is not a right inverse of pi")
    return ExtensionReport(not failures, tuple(failures))


def central_extension_from_ideal(g: LeibnizAlgebra, n_space: Subspace,
                                 basis_names=()) -> CentralExtension:
    """0 -> n -> g -> g/n -> 0 for a bracket-closed ideal given as a subspace,
    n's basis named basis_names (the subalgebra default when empty).

    Lie-centrality is NOT enforced here; run validate_extension on the result
    (useful for exercising the validator on non-central candidates).
    """
    sub = subalgebra(g, n_space, basis_names)
    quot = quotient_algebra(g, n_space)
    return CentralExtension(sub.algebra, g, quot.algebra, sub.inclusion,
                            quot.projection, quot.structure.section)


def canonical_extension(g: LeibnizAlgebra) -> CentralExtension:
    """0 -> Z_Lie(g) -> g -> g/Z_Lie(g) -> 0."""
    z = lie_center(g)
    return central_extension_from_ideal(g, z, tuple(f"z{i + 1}" for i in range(z.dim)))


def commutator_map(e: CentralExtension) -> tuple:
    """The commutator map of e, computed once per extension: table[i][j] is
    C(b_i, b_j) = [s b_i, s b_j] + [s b_j, s b_i] in the coordinates of
    [g, g]_Lie, s the section.  C is symmetric and spans [g, g]_Lie."""
    return e._commutator_map


def is_stem_extension(e: CentralExtension) -> bool:
    """True when theta = chi^{-1}([g, g]_Lie) is all of n: chi(n) lies in
    [g, g]_Lie, the annihilator ideal of g (equivalently the liezations of g
    and q are isomorphic)."""
    return e._theta_image.dim == e.n.dim
