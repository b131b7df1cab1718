"""Unit tests for flow models, common covers, and chain certificates."""

from fractions import Fraction
from math import lcm

import pytest

from flowcomm import (
    ALMOST_EQUIVALENCE,
    BIRKHOFF_SECTION_23N,
    COMMENSURABILITY,
    GHYS_HASHIGUCHI,
    ChainCertificate,
    ChainLink,
    GeodesicCommonCover,
    GeodesicOrbifold,
    GeodesicSurface,
    HyperbolicMatrix,
    InvalidGenus,
    Mat2,
    NotHyperbolic,
    Suspension,
    almost_commensurability_chain,
    genus_model_matrix,
    mat_mul,
    orbifold_common_cover,
    orbifold_euler_characteristic,
    orbifold_model_matrix,
    verify_chain,
)

A = HyperbolicMatrix(2, 1, 1, 1)


def relink(link, **changes):
    fields = {
        "kind": link.kind,
        "source": link.source,
        "target": link.target,
        "evidence": link.evidence,
    }
    fields.update(changes)
    return ChainLink(**fields)


class TestModelMatrices:
    def test_genus_two(self):
        assert genus_model_matrix(2) == Mat2(7, 12, 4, 7)

    def test_genus_matrix_is_square_of_root(self):
        for g in range(2, 11):
            root = Mat2(g, g + 1, g - 1, g)
            assert genus_model_matrix(g) == mat_mul(root, root)
            assert genus_model_matrix(g).trace() == 4 * g * g - 2

    def test_genus_rejected(self):
        with pytest.raises(InvalidGenus):
            genus_model_matrix(1)

    def test_orbifold_matrix(self):
        for t in range(3, 50):
            m = orbifold_model_matrix(t)
            assert m.entries() == (0, 1, -1, t)
            assert m.det() == 1
            assert m.trace() == t

    def test_orbifold_matrix_rejected(self):
        with pytest.raises(NotHyperbolic):
            orbifold_model_matrix(2)


class TestModels:
    def test_suspension_coerces(self):
        s = Suspension(Mat2(2, 1, 1, 1))
        assert isinstance(s.monodromy, HyperbolicMatrix)
        assert s == Suspension(A)

    def test_suspension_rejects_bad_monodromy(self):
        with pytest.raises(NotHyperbolic):
            Suspension(Mat2(1, 1, 0, 1))

    def test_suspension_has_no_euler(self):
        with pytest.raises(TypeError):
            Suspension(A).euler_characteristic()

    def test_surface(self):
        assert GeodesicSurface(2).euler_characteristic() == Fraction(-2)
        assert GeodesicSurface(3).euler_characteristic() == Fraction(-4)
        with pytest.raises(InvalidGenus):
            GeodesicSurface(1)

    def test_orbifold(self):
        orb = GeodesicOrbifold(7)
        assert orb.cone_orders == (2, 3, 7)
        assert orb.euler_characteristic() == Fraction(-1, 42)
        assert GeodesicOrbifold(12).euler_characteristic() == Fraction(-1, 12)
        with pytest.raises(ValueError):
            GeodesicOrbifold(6)

    def test_orbifold_euler_formula(self):
        assert orbifold_euler_characteristic(0, (2, 3, 7)) == Fraction(-1, 42)
        assert orbifold_euler_characteristic(2, ()) == Fraction(-2)
        for n in range(7, 40):
            assert orbifold_euler_characteristic(0, (2, 3, n)) == (
                Fraction(1, n) - Fraction(1, 6)
            )

    def test_orbifold_euler_rejects(self):
        with pytest.raises(ValueError):
            orbifold_euler_characteristic(-1, ())
        with pytest.raises(ValueError):
            orbifold_euler_characteristic(0, (1, 3, 7))


def surface_cover(g1, g2):
    cover = orbifold_common_cover(GeodesicSurface(g1), GeodesicSurface(g2))
    return cover.cover_genus, cover.degree_source, cover.degree_target


class TestCommonCoverGenus:
    """Two surfaces: the least common cover has genus lcm(g1-1, g2-1) + 1."""

    def test_examples(self):
        assert surface_cover(2, 3) == (3, 2, 1)
        assert surface_cover(3, 5) == (5, 2, 1)
        assert surface_cover(3, 4) == (7, 3, 2)

    def test_self_cover(self):
        for g in range(2, 10):
            assert surface_cover(g, g) == (g, 1, 1)

    def test_euler_consistency(self):
        for g1 in range(2, 12):
            for g2 in range(2, 12):
                cover, d1, d2 = surface_cover(g1, g2)
                assert cover - 1 == lcm(g1 - 1, g2 - 1)
                assert d1 * (2 - 2 * g1) == 2 - 2 * cover
                assert d2 * (2 - 2 * g2) == 2 - 2 * cover

    def test_rejects_small_genus(self):
        with pytest.raises(InvalidGenus):
            surface_cover(1, 2)


class TestOrbifoldCommonCover:
    def test_integer_ratio_pair(self):
        cover = orbifold_common_cover(GeodesicOrbifold(12), GeodesicOrbifold(18))
        assert cover.cover_genus == 2
        assert (cover.degree_source, cover.degree_target) == (24, 18)
        assert cover.euler_cover == Fraction(-2)

    def test_fractional_ratio_pair(self):
        cover = orbifold_common_cover(GeodesicOrbifold(7), GeodesicOrbifold(11))
        assert cover.cover_genus == 6
        assert (cover.degree_source, cover.degree_target) == (420, 132)

    def test_surface_pair(self):
        cover = orbifold_common_cover(GeodesicSurface(3), GeodesicSurface(4))
        assert cover.cover_genus == lcm(3 - 1, 4 - 1) + 1
        assert (cover.degree_source, cover.degree_target) == (3, 2)
        assert cover.euler_cover == Fraction(-12)

    def test_arithmetic_identity(self):
        for n1 in range(7, 20):
            for n2 in range(7, 20):
                cover = orbifold_common_cover(
                    GeodesicOrbifold(n1), GeodesicOrbifold(n2)
                )
                assert cover.cover_genus >= 2
                assert (
                    cover.degree_source * cover.euler_source == cover.euler_cover
                )
                assert (
                    cover.degree_target * cover.euler_target == cover.euler_cover
                )


class TestChainConstruction:
    def test_same_class_surface_to_orbifold(self):
        chain = almost_commensurability_chain(GeodesicSurface(2), GeodesicOrbifold(18))
        assert len(chain.links) == 3
        assert verify_chain(chain) == (True, "ok")
        middle = chain.links[1]
        assert middle.kind == COMMENSURABILITY
        assert middle.target == Suspension(orbifold_model_matrix(14))
        assert (middle.evidence.power_a, middle.evidence.power_b) == (1, 1)

    def test_suspension_to_orbifold(self):
        chain = almost_commensurability_chain(Suspension(A), GeodesicOrbifold(11))
        assert len(chain.links) == 2
        assert verify_chain(chain) == (True, "ok")
        cert = chain.links[0].evidence
        assert (cert.power_a, cert.power_b) == (2, 1)

    def test_self_chain(self):
        chain = almost_commensurability_chain(Suspension(A), Suspension(A))
        assert len(chain.links) == 1
        assert verify_chain(chain) == (True, "ok")
        assert chain.links[0].evidence.intertwiner == Mat2.identity()

    def test_cross_class_orbifolds_collapse_to_cover(self):
        chain = almost_commensurability_chain(GeodesicOrbifold(7), GeodesicOrbifold(12))
        assert len(chain.links) == 1
        assert isinstance(chain.links[0].evidence, GeodesicCommonCover)
        assert verify_chain(chain) == (True, "ok")

    def test_cross_class_surfaces(self):
        chain = almost_commensurability_chain(GeodesicSurface(2), GeodesicSurface(3))
        assert len(chain.links) == 7
        assert verify_chain(chain) == (True, "ok")
        kinds = [link.kind for link in chain.links]
        assert kinds == [
            ALMOST_EQUIVALENCE,
            COMMENSURABILITY,
            ALMOST_EQUIVALENCE,
            COMMENSURABILITY,
            ALMOST_EQUIVALENCE,
            COMMENSURABILITY,
            ALMOST_EQUIVALENCE,
        ]

    def test_endpoints_recorded(self):
        m1, m2 = GeodesicSurface(2), GeodesicOrbifold(7)
        chain = almost_commensurability_chain(m1, m2)
        assert chain.endpoints == (m1, m2)
        assert chain.links[0].source == m1
        assert chain.links[-1].target == m2
        assert verify_chain(chain) == (True, "ok")

    def test_reversal_symmetry(self):
        pairs = [
            (GeodesicSurface(2), GeodesicOrbifold(18)),
            (GeodesicSurface(2), GeodesicSurface(3)),
            (Suspension(A), GeodesicOrbifold(9)),
        ]
        for m1, m2 in pairs:
            forward = almost_commensurability_chain(m1, m2)
            backward = almost_commensurability_chain(m2, m1)
            assert verify_chain(forward) == (True, "ok")
            assert verify_chain(backward) == (True, "ok")
            assert len(forward.links) == len(backward.links)


class TestVerifyChain:
    def _surface_chain(self):
        return almost_commensurability_chain(GeodesicSurface(2), GeodesicOrbifold(18))

    def test_empty_chain(self):
        chain = ChainCertificate(links=(), endpoints=(Suspension(A), Suspension(A)))
        assert verify_chain(chain) == (False, "chain_nonempty")

    def test_endpoints_shape(self):
        base = self._surface_chain()
        chain = ChainCertificate(links=base.links, endpoints=(GeodesicSurface(2),))
        assert verify_chain(chain) == (False, "endpoints_shape")

    def test_endpoints_match(self):
        base = self._surface_chain()
        chain = ChainCertificate(
            links=base.links, endpoints=(GeodesicSurface(3), GeodesicOrbifold(18))
        )
        assert verify_chain(chain) == (False, "endpoints_match")

    def test_broken_continuity(self):
        base = self._surface_chain()
        links = list(base.links)
        links[0] = relink(links[0], target=Suspension(orbifold_model_matrix(15)))
        chain = ChainCertificate(links=tuple(links), endpoints=base.endpoints)
        assert verify_chain(chain) == (False, "link 0: link_continuity")

    def test_retargeted_almost_equivalence(self):
        wrong = Suspension(orbifold_model_matrix(15))
        link = ChainLink(ALMOST_EQUIVALENCE, GeodesicSurface(2), wrong, GHYS_HASHIGUCHI)
        chain = ChainCertificate(links=(link,), endpoints=(GeodesicSurface(2), wrong))
        assert verify_chain(chain) == (False, "link 0: almost_equivalence_whitelist")

    def test_wrong_tag(self):
        susp = Suspension(genus_model_matrix(2))
        link = ChainLink(
            ALMOST_EQUIVALENCE, GeodesicSurface(2), susp, BIRKHOFF_SECTION_23N
        )
        chain = ChainCertificate(links=(link,), endpoints=(GeodesicSurface(2), susp))
        assert verify_chain(chain) == (False, "link 0: almost_equivalence_whitelist")

    def test_almost_equivalence_needs_suspension(self):
        link = ChainLink(
            ALMOST_EQUIVALENCE,
            GeodesicSurface(2),
            GeodesicSurface(3),
            GHYS_HASHIGUCHI,
        )
        chain = ChainCertificate(
            links=(link,), endpoints=(GeodesicSurface(2), GeodesicSurface(3))
        )
        assert verify_chain(chain) == (False, "link 0: almost_equivalence_endpoints")

    def test_mutated_certificate_inside_chain(self):
        base = self._surface_chain()
        links = list(base.links)
        cert = links[1].evidence
        from helpers import replace_cert_field

        links[1] = relink(
            links[1], evidence=replace_cert_field(cert, intertwiner_det=99)
        )
        chain = ChainCertificate(links=tuple(links), endpoints=base.endpoints)
        assert verify_chain(chain) == (
            False,
            "link 1: certificate_invalid: intertwiner_det_matches",
        )

    def test_certificate_endpoint_mismatch(self):
        base = almost_commensurability_chain(Suspension(A), Suspension(A))
        donor = almost_commensurability_chain(
            Suspension(orbifold_model_matrix(7)), Suspension(orbifold_model_matrix(7))
        )
        links = (relink(base.links[0], evidence=donor.links[0].evidence),)
        chain = ChainCertificate(links=links, endpoints=base.endpoints)
        assert verify_chain(chain) == (False, "link 0: certificate_endpoints")

    def test_missing_certificate(self):
        susp = Suspension(A)
        link = ChainLink(COMMENSURABILITY, susp, susp, GHYS_HASHIGUCHI)
        chain = ChainCertificate(links=(link,), endpoints=(susp, susp))
        assert verify_chain(chain) == (False, "link 0: certificate_missing")

    def test_mutated_cover_arithmetic(self):
        base = almost_commensurability_chain(GeodesicOrbifold(7), GeodesicOrbifold(12))
        cover = base.links[0].evidence
        mutated = GeodesicCommonCover(
            cover_genus=cover.cover_genus,
            degree_source=cover.degree_source + 1,
            degree_target=cover.degree_target,
            euler_source=cover.euler_source,
            euler_target=cover.euler_target,
            euler_cover=cover.euler_cover,
        )
        links = (relink(base.links[0], evidence=mutated),)
        chain = ChainCertificate(links=links, endpoints=base.endpoints)
        assert verify_chain(chain) == (False, "link 0: cover_arithmetic")

    def test_mutated_cover_genus(self):
        base = almost_commensurability_chain(GeodesicOrbifold(7), GeodesicOrbifold(12))
        cover = base.links[0].evidence
        mutated = GeodesicCommonCover(
            cover_genus=cover.cover_genus + 1,
            degree_source=cover.degree_source,
            degree_target=cover.degree_target,
            euler_source=cover.euler_source,
            euler_target=cover.euler_target,
            euler_cover=cover.euler_cover,
        )
        links = (relink(base.links[0], evidence=mutated),)
        chain = ChainCertificate(links=links, endpoints=base.endpoints)
        assert verify_chain(chain) == (False, "link 0: cover_euler_genus")

    def test_cover_between_mixed_kinds(self):
        base = almost_commensurability_chain(GeodesicOrbifold(7), GeodesicOrbifold(12))
        links = (relink(base.links[0], source=GeodesicSurface(2)),)
        chain = ChainCertificate(
            links=links, endpoints=(GeodesicSurface(2), GeodesicOrbifold(12))
        )
        assert verify_chain(chain) == (False, "link 0: commensurability_endpoints")

    def test_unknown_kind(self):
        susp = Suspension(A)
        link = ChainLink("almost-isomorphism", susp, susp, GHYS_HASHIGUCHI)
        chain = ChainCertificate(links=(link,), endpoints=(susp, susp))
        assert verify_chain(chain) == (False, "link 0: link_kind")
