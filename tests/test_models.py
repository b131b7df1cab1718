"""Unit tests for flow models, common covers, and chain certificates."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm

import pytest

import flowcomm.commensurability as commensurability
from flowcomm import (
    ALMOST_EQUIVALENCE,
    BIRKHOFF_SECTION_23N,
    COMMENSURABILITY,
    GHYS_HASHIGUCHI,
    ChainCertificate,
    ChainLink,
    CommensurabilityCertificate,
    GeodesicCommonCover,
    GeodesicOrbifold,
    HyperbolicMatrix,
    Mat2,
    NotHyperbolic,
    Suspension,
    almost_commensurability_chain,
    genus_model_matrix,
    mat_mul,
    orbifold_common_cover,
    orbifold_model_matrix,
    verify_chain,
)
from flowcomm.cli import _parse_model
from flowcomm.serialize import dumps, encode_chain
from helpers import (
    SURFACE_COVERS,
    _inverse_perm,
    hyperbolic_corpus,
    indented_text,
    least_common_cover,
    orbifold_chi,
    square_pow,
    surface_cover_genus,
)
from output_corpus import MODELS

A = HyperbolicMatrix(2, 1, 1, 1)


def assert_least_covers(chain):
    """Every cover link of the chain is the least common cover that the
    plain-integer oracle finds, cone-point divisibility included."""
    for link in chain.links:
        cover = link.evidence
        if isinstance(cover, GeodesicCommonCover):
            expected = least_common_cover(
                (link.source.genus, link.source.cone_orders),
                (link.target.genus, link.target.cone_orders),
            )
            got = (cover.cover_genus, cover.degree_source, cover.degree_target)
            assert got == expected, (link.source, link.target)


def certificate_links(chain):
    return sum(
        isinstance(link.evidence, CommensurabilityCertificate) for link in chain.links
    )


def count_intertwiner_searches(monkeypatch):
    """A one-item list counting find_intertwiner runs from here on."""
    calls, search = [0], commensurability.find_intertwiner

    def counted(*args):
        calls[0] += 1
        return search(*args)

    monkeypatch.setattr(commensurability, "find_intertwiner", counted)
    return calls


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
        """g = 2..10, and seeded g of up to 3,000 digits."""
        rng = random.Random(34)
        genera = [*range(2, 11)]
        genera += [rng.randrange(2, 10 ** rng.randint(2, 3000)) for _ in range(40)]
        for g in genera:
            root = Mat2(g, g + 1, g - 1, g)
            assert genus_model_matrix(g) == mat_mul(root, root)
            assert genus_model_matrix(g).trace() == 4 * g * g - 2

    def test_genus_rejected(self):
        with pytest.raises(ValueError):
            genus_model_matrix(1)

    def test_orbifold_matrix(self):
        for t in range(3, 50):
            m = orbifold_model_matrix(t)
            assert m.entries() == (0, 1, -1, t)
            assert m.det() == 1
            assert m.trace() == t

    def test_orbifold_matrix_rejected(self):
        with pytest.raises(NotHyperbolic, match=r"^trace 2 is not > 2$"):
            orbifold_model_matrix(2)


class TestModels:
    def test_suspension_coerces(self):
        s = Suspension(Mat2(2, 1, 1, 1))
        assert isinstance(s.monodromy, HyperbolicMatrix)
        assert s == Suspension(A)

    def test_suspension_rejects_bad_monodromy(self):
        with pytest.raises(NotHyperbolic):
            Suspension(Mat2(1, 1, 0, 1))

    def test_surface(self):
        """A surface is the signature with no cone points."""
        assert GeodesicOrbifold(2) == GeodesicOrbifold(2, ())
        assert GeodesicOrbifold(2).cone_orders == ()
        assert GeodesicOrbifold(2).euler_characteristic() == Fraction(-2)
        assert GeodesicOrbifold(3).euler_characteristic() == Fraction(-4)
        for genus in (0, 1):
            with pytest.raises(ValueError, match="not hyperbolic"):
                GeodesicOrbifold(genus)

    def test_orbifold(self):
        orb = GeodesicOrbifold(0, (2, 3, 7))
        assert orb.cone_orders == (2, 3, 7)
        assert orb.euler_characteristic() == Fraction(-1, 42)
        orb12 = GeodesicOrbifold(0, (2, 3, 12))
        assert orb12.euler_characteristic() == Fraction(-1, 12)
        assert GeodesicOrbifold(0, [7, 2, 3]) == orb
        assert hash(GeodesicOrbifold(0, [7, 2, 3])) == hash(orb)
        assert repr(orb) == "GeodesicOrbifold(genus=0, cone_orders=(2, 3, 7))"
        assert GeodesicOrbifold(1, (2,)).euler_characteristic() == Fraction(-1, 2)
        four = GeodesicOrbifold(0, (2, 2, 2, 3))
        assert four.euler_characteristic() == Fraction(-1, 6)
        # the spherical and Euclidean signatures have chi >= 0
        for orders in ((2, 3, 6), (2, 4, 4), (3, 3, 3), (2, 2, 2, 2), (2, 3, 5), (5, 7)):
            with pytest.raises(ValueError, match="not hyperbolic"):
                GeodesicOrbifold(0, orders)
        with pytest.raises(ValueError):
            GeodesicOrbifold(0, (1, 5, 7))
        with pytest.raises(ValueError):
            GeodesicOrbifold(-1, (2, 3, 7))

    def test_orbifold_euler_formula(self):
        assert GeodesicOrbifold(0, (2, 3, 7)).euler_characteristic() == Fraction(-1, 42)
        assert GeodesicOrbifold(2).euler_characteristic() == Fraction(-2)
        for n in range(7, 40):
            assert GeodesicOrbifold(0, (2, 3, n)).euler_characteristic() == (
                Fraction(1, n) - Fraction(1, 6)
            )

    def test_hyperbolic_by_signature(self, monkeypatch):
        """The signature rule agrees with the oracle's chi < 0 on every
        sorted signature of genus 0-2 with up to six cone orders from 2
        to 12, and on seeded ones of three and four orders, each 2, 3
        or 4 or of 3,000 digits; building a model sums no chi."""
        sums = count_chi_sums(monkeypatch)
        signatures = [
            (genus, orders)
            for genus in range(3)
            for count in range(7)
            for orders in combinations_with_replacement(range(2, 13), count)
        ]
        rng = random.Random(31)
        for _ in range(300):
            genus = rng.randint(0, 1)
            pool = (2, 3, 4, rng.randrange(10**2999, 10**3000))
            signatures.append((genus, [rng.choice(pool) for _ in range(rng.randint(3, 4))]))
        for genus, orders in signatures:
            if orbifold_chi(genus, orders) < 0:
                assert GeodesicOrbifold(genus, orders).cone_orders == tuple(sorted(orders))
            else:
                with pytest.raises(ValueError, match="has chi >= 0, so it is not hyperbolic"):
                    GeodesicOrbifold(genus, orders)
        assert sums == []

    def test_signature_errors_in_order(self):
        """A non-int genus, then a non-int order, then a negative genus,
        then the least order below 2, then chi >= 0."""
        with pytest.raises(TypeError, match="'str'"):
            GeodesicOrbifold("1", (1.5,))
        with pytest.raises(TypeError, match="'float'"):
            GeodesicOrbifold(-1, (1.5,))
        with pytest.raises(ValueError, match=r"^genus must be >= 0, got -1$"):
            GeodesicOrbifold(-1, (1, 0))
        with pytest.raises(ValueError, match=r"^cone orders must be >= 2, got -3$"):
            GeodesicOrbifold(0, (2, 1, -3))
        with pytest.raises(ValueError, match=r"^signature \(0; 2, 2, 9\) has chi >= 0, so"):
            GeodesicOrbifold(0, (9, 2, 2))

    def test_orbifold_euler_matches_oracle(self):
        """Seeded signatures of genus 0-4 with up to six cone orders from
        2 to 60, and up to twelve orders of up to 40 digits sharing
        factors, against the term-by-term Fraction sum; only those with
        chi < 0 build a model, so only those are compared."""
        rng = random.Random(175)
        signatures = []
        for _ in range(600):
            genus = rng.randint(0, 4)
            signatures.append((genus, [rng.randint(2, 60) for _ in range(rng.randint(0, 6))]))
        shared = [rng.randrange(2, 10**20) for _ in range(4)]
        for _ in range(50):
            genus = rng.randint(0, 4)
            orders = [
                rng.choice(shared) * rng.randrange(1, 10**20) for _ in range(rng.randint(1, 12))
            ]
            signatures.append((genus, orders))
        compared = 0
        for genus, orders in signatures:
            chi = orbifold_chi(genus, orders)
            if chi < 0:
                assert GeodesicOrbifold(genus, orders).euler_characteristic() == chi
                compared += 1
        assert compared > 500


def count_chi_sums(monkeypatch):
    """The signatures (genus, cone_orders) of the models whose chi is
    summed from now on, in a list the caller may clear."""
    sums = []
    real = GeodesicOrbifold.euler_characteristic

    def counted(model):
        sums.append((model.genus, model.cone_orders))
        return real(model)

    monkeypatch.setattr(GeodesicOrbifold, "euler_characteristic", counted)
    return sums


def _cover(genus):
    chi = Fraction(2 - 2 * genus)
    return GeodesicCommonCover(genus, 1, 1, chi, chi, chi)


def _tag_link(genus):
    suspension = Suspension(genus_model_matrix(genus))
    return ChainLink(ALMOST_EQUIVALENCE, GeodesicOrbifold(genus), suspension, GHYS_HASHIGUCHI)


def _one_link_chain(genus):
    link = _tag_link(genus)
    return ChainCertificate([link], [link.source, link.target])


# each model record: a maker of one value, and an unequal value
MODEL_RECORDS = {
    "Suspension": (lambda: Suspension(Mat2(2, 1, 1, 1)), Suspension(Mat2(5, 2, 2, 1))),
    "GeodesicOrbifold": (lambda: GeodesicOrbifold(0, (2, 3, 7)), GeodesicOrbifold(0, (2, 3, 8))),
    "GeodesicCommonCover": (lambda: _cover(2), _cover(3)),
    "ChainLink": (lambda: _tag_link(2), _tag_link(3)),
    "ChainCertificate": (lambda: _one_link_chain(2), _one_link_chain(3)),
}


@pytest.mark.parametrize("make, other", MODEL_RECORDS.values(), ids=MODEL_RECORDS)
def test_model_records_compare_and_hash_by_field(make, other):
    """Two separately built equal values are == with one hash, an
    unequal value is !=, and so is a value of another type."""
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b, other}) == 2
    assert a != other and not a == other
    assert a != object()


def test_model_records_differ_from_their_field_tuples():
    assert Suspension(A) != (A,)
    assert GeodesicOrbifold(2) != (2, ())
    assert ChainCertificate([], []) != ((), ())


def surface_cover(g1, g2):
    cover = orbifold_common_cover(GeodesicOrbifold(g1), GeodesicOrbifold(g2))
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
        with pytest.raises(ValueError, match="not hyperbolic"):
            surface_cover(1, 2)


class TestOrbifoldCommonCover:
    def test_integer_ratio_pair(self):
        cover = orbifold_common_cover(
            GeodesicOrbifold(0, (2, 3, 12)), GeodesicOrbifold(0, (2, 3, 18))
        )
        assert cover.cover_genus == 2
        assert (cover.degree_source, cover.degree_target) == (24, 18)
        assert cover.euler_cover == Fraction(-2)

    def test_fractional_ratio_pair(self):
        cover = orbifold_common_cover(
            GeodesicOrbifold(0, (2, 3, 7)), GeodesicOrbifold(0, (2, 3, 11))
        )
        assert cover.cover_genus == 6
        assert (cover.degree_source, cover.degree_target) == (420, 132)

    def test_surface_pair(self):
        cover = orbifold_common_cover(GeodesicOrbifold(3), GeodesicOrbifold(4))
        assert cover.cover_genus == lcm(3 - 1, 4 - 1) + 1
        assert (cover.degree_source, cover.degree_target) == (3, 2)
        assert cover.euler_cover == Fraction(-12)

    def test_arithmetic_identity(self):
        for n1 in range(7, 20):
            for n2 in range(7, 20):
                cover = orbifold_common_cover(
                    GeodesicOrbifold(0, (2, 3, n1)), GeodesicOrbifold(0, (2, 3, n2))
                )
                assert cover.cover_genus >= 2
                assert (
                    cover.degree_source * cover.euler_source == cover.euler_cover
                )
                assert (
                    cover.degree_target * cover.euler_target == cover.euler_cover
                )


class TestConePointDivisibility:
    def test_triangle_sweep(self):
        """(2,3,n) for n in 7..200 against (2,3,7) and the genus-2
        surface: each degree is a multiple of lcm(2, 3, n), at the least
        genus that allows it."""
        covers = 0
        for n in range(7, 201):
            for other in (GeodesicOrbifold(0, (2, 3, 7)), GeodesicOrbifold(2)):
                chain = almost_commensurability_chain(
                    GeodesicOrbifold(0, (2, 3, n)), other
                )
                assert_least_covers(chain)
                covers += sum(
                    isinstance(link.evidence, GeodesicCommonCover)
                    for link in chain.links
                )
        assert covers > 300

    def test_degree_twenty_over_2_3_15(self):
        """lcm(2, 3, 15) = 30 does not divide 20, so the genus-2 cover
        is refused; the least one has genus 4."""
        source = GeodesicOrbifold(0, (2, 3, 15))
        target = GeodesicOrbifold(0, (2, 3, 7))
        cover = orbifold_common_cover(source, target)
        assert (cover.cover_genus, cover.degree_source, cover.degree_target) == (
            4,
            60,
            252,
        )
        bad = GeodesicCommonCover(
            cover_genus=2,
            degree_source=20,
            degree_target=84,
            euler_source=Fraction(-1, 10),
            euler_target=Fraction(-1, 42),
            euler_cover=Fraction(-2),
        )
        link = ChainLink(COMMENSURABILITY, source, target, bad)
        chain = ChainCertificate(links=(link,), endpoints=(source, target))
        assert verify_chain(chain) == (False, "link 0: cover_cone_points")


# suspensions, surfaces, (2,3,n) and general signatures, among them genus
# >= 1 with cone points and four or more cone points
class TestCitedCovers:
    def test_smallest_corpus_covers_have_certificates(self):
        """The cover sides that the output corpus's chains write, each a
        (genus, cone orders, degree, cover genus), below degree 40 and
        over an orbifold with cone points, are the sides of
        SURFACE_COVERS, and each has a permutation certificate at exactly
        that degree and genus. (A surface covers itself at degree 1. The
        sides of degree 40, 48 and 84 and up need group constructions.)"""
        written = set()
        for i, a in enumerate(MODELS):
            for b in MODELS[i:]:
                chain = almost_commensurability_chain(_parse_model(a), _parse_model(b))
                for link in chain.links:
                    cover = link.evidence
                    if isinstance(cover, GeodesicCommonCover):
                        for model, degree in (
                            (link.source, cover.degree_source),
                            (link.target, cover.degree_target),
                        ):
                            written.add((model.genus, model.cone_orders, degree, cover.cover_genus))
        small = {side for side in written if side[1] and side[2] < 40}
        assert {side[:3] for side in small} == set(SURFACE_COVERS)
        for genus, orders, degree, cover_genus in small:
            handles, cones = SURFACE_COVERS[genus, orders, degree]
            assert len(cones[0]) == degree
            assert surface_cover_genus(genus, orders, handles, cones) == cover_genus

    def test_checker_rejects_a_broken_certificate(self):
        """Each check of surface_cover_genus fires: a cone permutation
        with a cycle of the wrong length, a relation that fails, and an
        intransitive action."""
        handles, cones = SURFACE_COVERS[0, (2, 3, 18), 18]
        assert surface_cover_genus(0, (2, 3, 18), handles, cones) == 2
        with pytest.raises(AssertionError, match="cycle lengths 9"):
            surface_cover_genus(0, (2, 3, 9), handles, cones)
        # the 18-cycle inverted: every cycle length holds, the relation fails
        inverted = _inverse_perm(cones[2])
        with pytest.raises(AssertionError, match="relation"):
            surface_cover_genus(0, (2, 3, 18), handles, (*cones[:2], inverted))
        # two disjoint copies of the degree-6 certificate: all but transitivity holds
        _, six = SURFACE_COVERS[0, (2, 2, 2, 2, 3), 6]
        twice = tuple(c + tuple(i + 6 for i in c) for c in six)
        with pytest.raises(AssertionError, match="transitive"):
            surface_cover_genus(0, (2, 2, 2, 2, 3), (), twice)


GENERAL_CORPUS = (
    [Suspension(Mat2(*m)) for m in hyperbolic_corpus(30, 6)]
    + [GeodesicOrbifold(g) for g in (2, 3, 4, 5)]
    + [GeodesicOrbifold(0, (2, 3, n)) for n in (7, 8, 9, 12, 15, 18)]
    + [
        GeodesicOrbifold(genus, orders)
        for genus, orders in (
            (0, (2, 4, 5)),
            (0, (2, 5, 5)),
            (0, (3, 3, 4)),
            (0, (7, 7, 7)),
            (0, (2, 2, 2, 3)),
            (0, (2, 2, 3, 3)),
            (0, (2, 2, 2, 2, 2)),
            (0, (2, 2, 2, 2, 3)),
            (1, (2,)),
            (1, (3,)),
            (1, (2, 2, 4)),
            (2, (3,)),
            (2, (2, 5)),
            (0, (4, 5, 6)),
        )
    ]
)


def _cited(model):
    """A suspension, a surface or a (0; 2, 3, n) orbifold."""
    if isinstance(model, Suspension) or not model.cone_orders:
        return True
    return (model.genus, len(model.cone_orders), model.cone_orders[:2]) == (0, 3, (2, 3))


class TestGeneralSignatures:
    def test_all_ordered_pairs(self, monkeypatch):
        """Every ordered pair gives a chain that verifies, built with
        one intertwiner search per certificate link, whose covers are
        the oracle's least ones; where neither end is a general
        signature, no cover joins a surface to an orbifold."""
        assert len(set(GENERAL_CORPUS)) == len(GENERAL_CORPUS) == 30
        calls = count_intertwiner_searches(monkeypatch)
        for m1 in GENERAL_CORPUS:
            for m2 in GENERAL_CORPUS:
                calls[0] = 0
                chain = almost_commensurability_chain(m1, m2)
                assert calls[0] == certificate_links(chain), (m1, m2)
                assert verify_chain(chain) == (True, "ok"), (m1, m2)
                assert_least_covers(chain)
                if _cited(m1) and _cited(m2):
                    for link in chain.links:
                        if isinstance(link.evidence, GeodesicCommonCover):
                            assert link.source.cone_orders and link.target.cone_orders

    def test_chain_bytes_pinned(self):
        """The chain documents of all 900 ordered pairs, without the
        generator header, hash to the value recorded for version 0.12.0,
        and re-indented as earlier versions wrote them, to the
        value recorded for 0.7.0: the content is unchanged since then. A
        deliberate change to chain bytes updates these digests."""
        compact, indented = hashlib.sha256(), hashlib.sha256()
        for m1 in GENERAL_CORPUS:
            for m2 in GENERAL_CORPUS:
                doc = encode_chain(almost_commensurability_chain(m1, m2))
                del doc["generator"]
                text = dumps(doc)
                compact.update(text.encode())
                indented.update(indented_text(json.loads(text)).encode())
        assert compact.hexdigest() == (
            "76181963e19053aa996ff636b9c08460a36a2f3fb916ee4ab4a42867e2fdc174"
        )
        assert indented.hexdigest() == (
            "263d91f2e660b0bf4964706c47f34edf285aefd28f0f5986525aabce607b4ec6"
        )

    def test_general_model_goes_through_its_least_surface(self):
        model = GeodesicOrbifold(1, (2,))
        chain = almost_commensurability_chain(model, Suspension(genus_model_matrix(2)))
        first, second = chain.links[:2]
        assert (first.kind, first.target) == (COMMENSURABILITY, GeodesicOrbifold(2))
        assert (first.evidence.degree_source, first.evidence.degree_target) == (4, 1)
        assert (second.kind, second.evidence) == (ALMOST_EQUIVALENCE, GHYS_HASHIGUCHI)
        assert len(chain.links) == 3

    def test_general_model_sums_its_chi_once_for_its_surface(self, monkeypatch):
        """The path reads the least covering surface's genus off one chi
        sum, building no cover record, and the cover link sums one per
        side: the chain of `chain orbifold:2,4,5 surface:g=2` sums 3."""
        sums = count_chi_sums(monkeypatch)
        chain = almost_commensurability_chain(GeodesicOrbifold(0, (2, 4, 5)), GeodesicOrbifold(2))
        assert sums == [(0, (2, 4, 5)), (0, (2, 4, 5)), (2, ())]
        assert chain.links[0].target == GeodesicOrbifold(2)


class TestChainConstruction:
    def test_same_class_surface_to_orbifold(self):
        chain = almost_commensurability_chain(
            GeodesicOrbifold(2), GeodesicOrbifold(0, (2, 3, 18))
        )
        assert len(chain.links) == 3
        assert verify_chain(chain) == (True, "ok")
        middle = chain.links[1]
        assert middle.kind == COMMENSURABILITY
        assert middle.target == Suspension(orbifold_model_matrix(14))
        assert (middle.evidence.power_a, middle.evidence.power_b) == (1, 1)

    def test_suspension_to_orbifold(self):
        chain = almost_commensurability_chain(
            Suspension(A), GeodesicOrbifold(0, (2, 3, 11))
        )
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
        chain = almost_commensurability_chain(
            GeodesicOrbifold(0, (2, 3, 7)), GeodesicOrbifold(0, (2, 3, 12))
        )
        assert len(chain.links) == 1
        assert isinstance(chain.links[0].evidence, GeodesicCommonCover)
        assert verify_chain(chain) == (True, "ok")

    def test_cross_class_surfaces(self):
        chain = almost_commensurability_chain(GeodesicOrbifold(2), GeodesicOrbifold(3))
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
        m1, m2 = GeodesicOrbifold(2), GeodesicOrbifold(0, (2, 3, 7))
        chain = almost_commensurability_chain(m1, m2)
        assert chain.endpoints == (m1, m2)
        assert chain.links[0].source == m1
        assert chain.links[-1].target == m2
        assert verify_chain(chain) == (True, "ok")

    def test_reversal_symmetry(self):
        pairs = [
            (GeodesicOrbifold(2), GeodesicOrbifold(0, (2, 3, 18))),
            (GeodesicOrbifold(2), GeodesicOrbifold(3)),
            (Suspension(A), GeodesicOrbifold(0, (2, 3, 9))),
            (GeodesicOrbifold(1, (2,)), GeodesicOrbifold(3)),
            (GeodesicOrbifold(0, (2, 4, 5)), GeodesicOrbifold(0, (2, 3, 9))),
            (GeodesicOrbifold(0, (2, 2, 2, 3)), Suspension(A)),
            (GeodesicOrbifold(2, (3,)), GeodesicOrbifold(0, (3, 3, 4))),
        ]
        for m1, m2 in pairs:
            forward = almost_commensurability_chain(m1, m2)
            backward = almost_commensurability_chain(m2, m1)
            assert verify_chain(forward) == (True, "ok")
            assert verify_chain(backward) == (True, "ok")
            assert [(link.source, link.target) for link in backward.links] == [
                (link.target, link.source) for link in reversed(forward.links)
            ]

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_each_certificate_built_once(self, monkeypatch, n):
        """Genus 2 and A^n lie in different square classes: one
        certificate on each bridge, and no search beyond them."""
        calls = count_intertwiner_searches(monkeypatch)
        chain = almost_commensurability_chain(GeodesicOrbifold(2), Suspension(Mat2(*square_pow(A.entries(), n))))
        assert certificate_links(chain) == 2
        assert calls[0] == 2


class TestVerifyChain:
    def _surface_chain(self):
        return almost_commensurability_chain(
            GeodesicOrbifold(2), GeodesicOrbifold(0, (2, 3, 18))
        )

    def test_empty_chain(self):
        chain = ChainCertificate(links=(), endpoints=(Suspension(A), Suspension(A)))
        assert verify_chain(chain) == (False, "chain_nonempty")

    def test_endpoints_shape(self):
        base = self._surface_chain()
        chain = ChainCertificate(links=base.links, endpoints=(GeodesicOrbifold(2),))
        assert verify_chain(chain) == (False, "endpoints_shape")

    def test_endpoints_match(self):
        base = self._surface_chain()
        chain = ChainCertificate(
            links=base.links,
            endpoints=(GeodesicOrbifold(3), GeodesicOrbifold(0, (2, 3, 18))),
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
        link = ChainLink(
            ALMOST_EQUIVALENCE, GeodesicOrbifold(2), wrong, GHYS_HASHIGUCHI
        )
        chain = ChainCertificate(links=(link,), endpoints=(GeodesicOrbifold(2), wrong))
        assert verify_chain(chain) == (False, "link 0: almost_equivalence_whitelist")

    def test_wrong_tag(self):
        susp = Suspension(genus_model_matrix(2))
        link = ChainLink(
            ALMOST_EQUIVALENCE, GeodesicOrbifold(2), susp, BIRKHOFF_SECTION_23N
        )
        chain = ChainCertificate(links=(link,), endpoints=(GeodesicOrbifold(2), susp))
        assert verify_chain(chain) == (False, "link 0: almost_equivalence_whitelist")

    def test_almost_equivalence_needs_suspension(self):
        link = ChainLink(
            ALMOST_EQUIVALENCE,
            GeodesicOrbifold(2),
            GeodesicOrbifold(3),
            GHYS_HASHIGUCHI,
        )
        chain = ChainCertificate(
            links=(link,), endpoints=(GeodesicOrbifold(2), GeodesicOrbifold(3))
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
        """A source degree moved by the lcm 42 of (2, 3, 7) keeps its cone
        points and breaks the arithmetic; moved by 1 it breaks both, and
        the cone points, checked first, are reported."""
        base = almost_commensurability_chain(
            GeodesicOrbifold(0, (2, 3, 7)), GeodesicOrbifold(0, (2, 3, 12))
        )
        cover = base.links[0].evidence
        for shift, clause in ((42, "cover_arithmetic"), (1, "cover_cone_points")):
            mutated = GeodesicCommonCover(
                cover_genus=cover.cover_genus,
                degree_source=cover.degree_source + shift,
                degree_target=cover.degree_target,
                euler_source=cover.euler_source,
                euler_target=cover.euler_target,
                euler_cover=cover.euler_cover,
            )
            links = (relink(base.links[0], evidence=mutated),)
            chain = ChainCertificate(links=links, endpoints=base.endpoints)
            assert verify_chain(chain) == (False, f"link 0: {clause}")

    def test_mutated_cover_genus(self):
        base = almost_commensurability_chain(
            GeodesicOrbifold(0, (2, 3, 7)), GeodesicOrbifold(0, (2, 3, 12))
        )
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
        """A surface and an orbifold may share a cover link, as long as
        its arithmetic is theirs."""
        surface, orbifold = GeodesicOrbifold(2), GeodesicOrbifold(0, (2, 3, 12))
        cover = orbifold_common_cover(surface, orbifold)
        link = ChainLink(COMMENSURABILITY, surface, orbifold, cover)
        chain = ChainCertificate(links=(link,), endpoints=(surface, orbifold))
        assert verify_chain(chain) == (True, "ok")
        base = almost_commensurability_chain(GeodesicOrbifold(0, (2, 3, 7)), orbifold)
        links = (relink(base.links[0], source=surface),)
        chain = ChainCertificate(links=links, endpoints=(surface, orbifold))
        assert verify_chain(chain) == (False, "link 0: cover_euler_endpoints")
        link = ChainLink(COMMENSURABILITY, surface, Suspension(A), GHYS_HASHIGUCHI)
        chain = ChainCertificate(links=(link,), endpoints=(surface, Suspension(A)))
        assert verify_chain(chain) == (False, "link 0: commensurability_endpoints")

    def test_unknown_kind(self):
        susp = Suspension(A)
        link = ChainLink("almost-isomorphism", susp, susp, GHYS_HASHIGUCHI)
        chain = ChainCertificate(links=(link,), endpoints=(susp, susp))
        assert verify_chain(chain) == (False, "link 0: link_kind")
