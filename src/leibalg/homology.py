"""The computable fragment of low-degree relative homology.

For a Lie-central extension 0 -> n -> g -> q -> 0 the pieces that are finite
dimensional without a free presentation are:

* HL1 of an algebra, its liezation g/[g,g]_Lie, read as a quotient space;
* the image of the connecting map theta, which equals n meet [g,g]_Lie
  (reported in n-coordinates through the injection chi);
* the tail  n -> HL1(g) -> HL1(q) -> 0  of the six-term sequence;
* the end  [g,g]_Lie -> [q,q]_Lie -> 0  of the extended sequence, whose
  kernel is exactly the theta image.

The second homology itself is out of reach here (its Hopf-type formula
quantifies over a free presentation), so the stem-cover question can only be
answered up to the data theta provides: stemness is decidable (theta is all
of n, extensions.is_stem_extension), the cover property is not, and
is_stem_cover_candidate says so explicitly.  pi_prime, the restriction of pi
to the Lie-commutators, is algebra.restrict_to_lie_commutators of pi.
"""

from __future__ import annotations

from ._value import value_class
from .algebra import lie_commutator_of, restrict_to_lie_commutators
from .errors import ExtensionError
from .extensions import CentralExtension, is_stem_extension
from .linalg import LinearMap, image, kernel, quotient, span


@value_class
class JunctionCheck:
    """Exactness data at one junction: incoming image vs outgoing kernel."""

    label: str
    space_dim: int
    image_dim: int
    kernel_dim: int
    exact: bool


@value_class
class SequenceReport:
    ok: bool
    junctions: tuple
    spaces: tuple  # (label, dim) pairs, in sequence order

    def __bool__(self):
        return self.ok


def theta_image(e: CentralExtension):
    """Image of the connecting map, as a subspace of n.

    Equals chi^{-1}(chi(n) meet [g,g]_Lie): the kernel of n -> g/[g,g]_Lie,
    chi followed by the projection.  chi is injective, so this is n meet
    [g,g]_Lie read in n-coordinates.  Computed once per extension.
    """
    return e._theta_image


def check_sequence_tail(e: CentralExtension) -> SequenceReport:
    """Exactness of  n -> HL1(g) -> HL1(q) -> 0.

    HL1(g) and HL1(q) are the quotient spaces g/[g,g]_Lie and q/[q,q]_Lie.
    The first map is chi followed by the projection to HL1(g).  The second
    is pi read through HL1(g)'s section, once pi is checked to map
    [g,g]_Lie into [q,q]_Lie (an ExtensionError otherwise, as a pi into
    another algebra than q can give).  Its rank is read off its kernel.
    """
    lz_g = quotient(lie_commutator_of(e.g))
    lz_q = quotient(lie_commutator_of(e.q))
    b = lz_q.projection @ e.pi.matrix
    if any(any(b.apply(v)) for v in lz_g.ideal.basis):
        raise ExtensionError("pi does not descend to the liezations")
    im_a = image(lz_g.projection @ e.chi.matrix)
    ker_b = kernel(b @ lz_g.section)
    rank_b = lz_g.dim - ker_b.dim
    middle = JunctionCheck("HL1(g)", lz_g.dim, im_a.dim, ker_b.dim, im_a == ker_b)
    end = JunctionCheck("HL1(q)", lz_q.dim, rank_b, lz_q.dim, rank_b == lz_q.dim)
    spaces = (("n", e.n.dim), ("HL1(g)", lz_g.dim), ("HL1(q)", lz_q.dim))
    return SequenceReport(middle.exact and end.exact, (middle, end), spaces)


def pi_prime(e: CentralExtension) -> LinearMap:
    """Restriction of pi to the Lie-commutators."""
    return restrict_to_lie_commutators(e.pi)


def check_sequence_nine(e: CentralExtension) -> SequenceReport:
    """Kernel and surjectivity of  [g,g]_Lie -> [q,q]_Lie -> 0.

    Exactness here is the computable consequence of the long sequence: the
    kernel of the restricted pi must be exactly the theta image, and the map
    must be onto.  Its rank is read off that kernel.
    """
    restricted = pi_prime(e)
    com_g, com_q = restricted.domain, restricted.codomain
    ker_coords = kernel(restricted.matrix)
    rank = com_g.dim - ker_coords.dim
    ker_ambient = span(e.g.field, e.g.dim,
                       [com_g.vector_from_coords(c) for c in ker_coords.basis])
    theta_ambient = span(e.g.field, e.g.dim, [e.chi.apply(v) for v in theta_image(e).basis])
    head = JunctionCheck("[g,g]_Lie", com_g.dim, theta_ambient.dim,
                         ker_ambient.dim, theta_ambient == ker_ambient)
    end = JunctionCheck("[q,q]_Lie", com_q.dim, rank, com_q.dim, rank == com_q.dim)
    spaces = (("[g,g]_Lie", com_g.dim), ("[q,q]_Lie", com_q.dim))
    return SequenceReport(head.exact and end.exact, (head, end), spaces)


NOT_STEM = "not_stem"
STEM = "stem"
UNDECIDABLE_COVER = "undecidable_cover"


@value_class
class StemCoverReport:
    """Stemness is decided; the cover property needs dim HL2, which is not
    computed, so for stem extensions the cover verdict is undecidable_cover
    together with the data theta does provide."""

    verdict: str  # NOT_STEM or STEM
    cover: str  # "not_applicable" or UNDECIDABLE_COVER
    n_dim: int
    theta_dim: int
    theta_surjective: bool  # theta_image = n; necessary for a cover


def is_stem_cover_candidate(e: CentralExtension) -> StemCoverReport:
    theta = theta_image(e)
    if not is_stem_extension(e):
        return StemCoverReport(NOT_STEM, "not_applicable", e.n.dim, theta.dim, False)
    return StemCoverReport(STEM, UNDECIDABLE_COVER, e.n.dim, theta.dim, True)
