import pytest

from leibalg.algebra import (
    LeibnizAlgebra,
    annihilator_ideal,
    ideal_closure,
    lie_center,
    lie_commutator_of,
    liezation,
)
from leibalg.constructions import central_extension_from_ideal
from leibalg.errors import ExtensionError
from leibalg.extensions import CentralExtension, canonical_extension
from leibalg.homology import (
    NOT_STEM,
    STEM,
    UNDECIDABLE_COVER,
    check_sequence_nine,
    check_sequence_tail,
    is_stem_cover_candidate,
    pi_prime,
    theta_image,
)
from leibalg.linalg import span

from conftest import F3, FQ, lie_r2, nilpotent_n2, paper_g1, paper_g2


def sub_center_extensions(suite, rng, count):
    """Valid extensions whose kernel is a random central ideal, not
    necessarily the whole Lie-center."""
    out = []
    for alg in suite:
        z = lie_center(alg)
        if z.dim == 0:
            continue
        picked = span(alg.field, alg.dim, [z.basis[rng.randrange(z.dim)]])
        out.append(central_extension_from_ideal(alg, ideal_closure(alg, picked)))
        if len(out) == count:
            break
    return out


# -- HL1 ------------------------------------------------------------------------


def hl1(g):
    """HL1(g), which is the liezation g / [g, g]_Lie."""
    return liezation(g).algebra


def test_hl1_fixture_dimensions():
    assert hl1(paper_g1(FQ)).dim == 1
    assert hl1(paper_g2(FQ)).dim == 2
    assert hl1(lie_r2(FQ)).dim == 2  # already Lie: nothing is collapsed
    assert hl1(nilpotent_n2(FQ)).dim == 1
    assert hl1(LeibnizAlgebra.abelian(F3, 3)).dim == 3


def test_hl1_is_always_lie(suite):
    for alg in suite[:50]:
        assert annihilator_ideal(hl1(alg)).dim == 0


# -- theta ----------------------------------------------------------------------


def test_theta_image_fixtures():
    assert theta_image(canonical_extension(paper_g1(FQ))).dim == 0
    assert theta_image(canonical_extension(paper_g2(FQ))).dim == 0
    tn = theta_image(canonical_extension(nilpotent_n2(FQ)))
    assert tn.basis == ((1,),)  # all of n


def test_theta_lives_inside_n(quotient_suite):
    for alg in quotient_suite[:40]:
        e = canonical_extension(alg)
        theta = theta_image(e)
        assert theta.ambient_dim == e.n.dim
        assert theta.dim <= e.n.dim


# -- exactness (tail and nine) -----------------------------------------------------


def test_sequence_tail_fixtures():
    for build in (paper_g1, paper_g2, nilpotent_n2, lie_r2):
        report = check_sequence_tail(canonical_extension(build(FQ)))
        assert report.ok and bool(report)
        labels = [j.label for j in report.junctions]
        assert labels == ["HL1(g)", "HL1(q)"]
    abelian = canonical_extension(LeibnizAlgebra.abelian(FQ, 2))
    assert check_sequence_tail(abelian).ok


def test_sequence_tail_on_random_extensions(suite, quotient_suite, rng):
    exts = [canonical_extension(a) for a in quotient_suite[:40]]
    exts += sub_center_extensions(suite, rng, 15)
    for e in exts:
        report = check_sequence_tail(e)
        assert report.ok, report
        for junction in report.junctions:
            assert junction.exact


def test_sequence_nine_on_random_extensions(suite, quotient_suite, rng):
    exts = [canonical_extension(a) for a in quotient_suite[:40]]
    exts += sub_center_extensions(suite, rng, 15)
    for e in exts:
        report = check_sequence_nine(e)
        assert report.ok, report
        head, end = report.junctions
        assert head.label == "[g,g]_Lie" and end.label == "[q,q]_Lie"
        assert head.image_dim == theta_image(e).dim


def test_commutator_dimension_identity(suite, quotient_suite, rng):
    # dim [g,g]_Lie = dim theta + dim [q,q]_Lie, the numeric shadow of
    # exactness
    exts = [canonical_extension(a) for a in quotient_suite[:40]]
    exts += sub_center_extensions(suite, rng, 15)
    for e in exts:
        com_g = lie_commutator_of(e.g).dim
        com_q = lie_commutator_of(e.q).dim
        assert com_g == theta_image(e).dim + com_q


def test_pi_prime_is_surjective(suite):
    for alg in suite[:30]:
        e = canonical_extension(alg)
        restricted = pi_prime(e)
        assert restricted.is_surjective
        for v in restricted.domain.basis:
            assert restricted.apply_ambient(v) == e.pi.apply(v)


# -- stem reports -----------------------------------------------------------------


def test_stem_report_fixtures():
    r1 = is_stem_cover_candidate(canonical_extension(paper_g1(FQ)))
    assert r1.verdict == STEM and r1.cover == UNDECIDABLE_COVER
    assert r1.n_dim == 0 and r1.theta_dim == 0 and r1.theta_surjective

    r2 = is_stem_cover_candidate(canonical_extension(paper_g2(FQ)))
    assert r2.verdict == NOT_STEM and r2.cover == "not_applicable"
    assert r2.n_dim == 1 and r2.theta_dim == 0 and not r2.theta_surjective

    rn = is_stem_cover_candidate(canonical_extension(nilpotent_n2(FQ)))
    assert rn.verdict == STEM and rn.cover == UNDECIDABLE_COVER
    assert rn.theta_surjective


def test_stem_report_consistency(suite, quotient_suite, rng):
    from leibalg.extensions import is_stem_extension
    exts = [canonical_extension(a) for a in quotient_suite[:30]]
    exts += sub_center_extensions(suite, rng, 10)
    for e in exts:
        report = is_stem_cover_candidate(e)
        assert (report.verdict == STEM) == is_stem_extension(e)
        assert report.theta_surjective == (report.theta_dim == report.n_dim)
        if report.verdict == NOT_STEM:
            assert report.cover == "not_applicable"
        else:
            assert report.cover == UNDECIDABLE_COVER


def test_a_pi_that_does_not_descend_to_the_liezations_is_an_extension_error():
    """pi lands in paper_g2's quotient, but the extension names an abelian q:
    the Lie-commutator of g does not map to 0 in HL1(q) = q."""
    e = canonical_extension(paper_g2(F3))
    other_q = LeibnizAlgebra.abelian(F3, e.q.dim)
    wrong = CentralExtension(e.n, e.g, other_q, e.chi, e.pi, e.section)
    with pytest.raises(ExtensionError, match="^pi does not descend to the liezations$"):
        check_sequence_tail(wrong)
