"""The verifier: verify_certificate and verify_chain re-check a document
from scratch, with no search, and answer (True, "ok") or (False, clause).

They trust the almost-equivalences that the citation tags
GHYS_HASHIGUCHI (a surface) and BIRKHOFF_SECTION_23N (a (0; 2, 3, n)
orbifold) name, with the matrices of models._designated; the existence
of a surface cover of the checked degrees and Euler characteristics
(Edmonds, Ewing and Kulkarni, Invent. Math. 69, 1982); and the unit
arithmetic (conjugacy._shared_units, _unit_divmod), input-size pair
(commensurability._input_size_pair), matrix product and canonical
lattice form (linalg.mat_mul, hnf) that they import, and nothing else.
"""

from fractions import Fraction

from .commensurability import CommensurabilityCertificate, _input_size_pair
from .conjugacy import _shared_units, _unit_divmod
from .errors import NotHyperbolic
from .linalg import HyperbolicMatrix, hnf, mat_mul
from .models import (
    ALMOST_EQUIVALENCE,
    COMMENSURABILITY,
    GeodesicCommonCover,
    GeodesicOrbifold,
    Suspension,
    _designated,
)

__all__ = ["verify_certificate", "verify_chain"]


def _powers_meet(lam_a, lam_b, d0, power_a, power_b):
    """lam_a**power_a == lam_b**power_b for units > 1 as in
    _least_exponents, by a Euclid on the units that the exponents guide.

    With g = gcd(power_a, power_b), the powers meet exactly when
    lam_a = eta**(power_b / g) and lam_b = eta**(power_a / g) for a unit
    eta. Then dividing the unit of exponent e by the unit of exponent f
    (_unit_divmod) gives e // f and eta**(e % f), which is 1 exactly
    when e % f = 0, and scaling the exponents by g keeps the quotients.
    Conversely, when each step gives the exponents' quotient and the two
    Euclids end together, running them back from the last divisor eta
    rebuilds both units as those powers of eta. The units strictly
    decrease, so the steps are bounded by their bits.
    """
    unit, e, divisor, f = lam_a, power_b, lam_b, power_a
    while f and divisor != (2, 0):
        q, rem = _unit_divmod(unit, divisor, d0)
        if q != e // f:
            return False
        unit, e, divisor, f = divisor, f, rem, e % f
    return f == 0 and divisor == (2, 0)


def verify_certificate(cert):
    """Re-check a certificate from scratch; (True, "ok") or (False, clause).

    Uses only unit and matrix products and canonical lattice forms, none
    of the search machinery that produced the certificate, and forms no
    power: power_traces_equal is _powers_meet, and intertwining_identity
    is X P = P Y on the input-size pair, which has the solutions of
    a**i P = P b**j once the power traces agree. So the work is
    polynomial in the certificate's bit size, whatever its powers.
    """
    for name, base in (("base_a", cert.base_a), ("base_b", cert.base_b)):
        try:
            HyperbolicMatrix.from_mat(base)
        except NotHyperbolic:
            return False, f"{name}_hyperbolic"
    if cert.power_a < 1 or cert.power_b < 1:
        return False, "powers_positive"
    t_a, t_b = cert.base_a.trace(), cert.base_b.trace()
    units = _shared_units(t_a, t_b)  # distinct classes share no power trace
    if units is None:
        return False, "power_traces_equal"
    shared, u_a, u_b = units
    if not _powers_meet((t_a, u_a), (t_b, u_b), shared, cert.power_a, cert.power_b):
        return False, "power_traces_equal"
    x, y = _input_size_pair(cert.base_a, cert.base_b, u_a, u_b)
    p = cert.intertwiner
    if mat_mul(x, p) != mat_mul(p, y):
        return False, "intertwining_identity"
    if p.det() == 0:
        return False, "intertwiner_nonsingular"
    if cert.intertwiner_det != p.det():
        return False, "intertwiner_det_matches"
    if cert.sublattice != hnf(p):
        return False, "sublattice_matches_intertwiner"
    if cert.stabilization < 1:
        return False, "stabilization_positive"
    # A1 P = P B1 and B1 Z^2 = Z^2 (A1, B1 the stated powers) give
    # A1 (P Z^2) = P Z^2, so 1 is the only minimal exponent
    if cert.stabilization != 1:
        return False, "stabilization_minimal"
    if cert.index_over_a != cert.power_a * abs(p.det()):
        return False, "index_over_a"
    if cert.index_over_b != cert.power_b:
        return False, "index_over_b"
    return True, "ok"


def _verify_almost_equivalence(link):
    ends = (link.source, link.target)
    for geodesic, suspension in (ends, ends[::-1]):
        if isinstance(suspension, Suspension) and not isinstance(
            geodesic, Suspension
        ):
            if _designated(geodesic) == (link.evidence, suspension.monodromy):
                return True, "ok"
            return False, "almost_equivalence_whitelist"
    return False, "almost_equivalence_endpoints"


def _verify_commensurability_link(link):
    source, target = link.source, link.target
    if isinstance(source, Suspension) and isinstance(target, Suspension):
        cert = link.evidence
        if not isinstance(cert, CommensurabilityCertificate):
            return False, "certificate_missing"
        if cert.base_a != source.monodromy or cert.base_b != target.monodromy:
            return False, "certificate_endpoints"
        ok, clause = verify_certificate(cert)
        if not ok:
            return False, f"certificate_invalid: {clause}"
        return True, "ok"
    if isinstance(source, GeodesicOrbifold) and isinstance(target, GeodesicOrbifold):
        cover = link.evidence
        if not isinstance(cover, GeodesicCommonCover):
            return False, "cover_missing"
        if cover.cover_genus < 2:
            return False, "cover_genus"
        if cover.degree_source < 1 or cover.degree_target < 1:
            return False, "cover_degrees"
        # one modulo per cone order, before any chi is summed: orders that
        # pass are bounded by the degrees, and so is the lcm chi sums over
        if any(cover.degree_source % n for n in source.cone_orders) or any(
            cover.degree_target % n for n in target.cone_orders
        ):
            return False, "cover_cone_points"
        if (
            cover.euler_source != source.euler_characteristic()
            or cover.euler_target != target.euler_characteristic()
        ):
            return False, "cover_euler_endpoints"
        if cover.euler_cover != Fraction(2 - 2 * cover.cover_genus):
            return False, "cover_euler_genus"
        if (
            cover.degree_source * cover.euler_source != cover.euler_cover
            or cover.degree_target * cover.euler_target != cover.euler_cover
        ):
            return False, "cover_arithmetic"
        return True, "ok"
    return False, "commensurability_endpoints"


def verify_chain(chain):
    """Re-check a chain from scratch; (True, "ok") or (False, clause).

    Endpoint continuity, the almost-equivalence whitelist, every
    certificate, and all cover arithmetic are verified; clause names
    are prefixed with the failing link's index."""
    links = chain.links
    if not links:
        return False, "chain_nonempty"
    if len(chain.endpoints) != 2:
        return False, "endpoints_shape"
    if links[0].source != chain.endpoints[0] or links[-1].target != chain.endpoints[1]:
        return False, "endpoints_match"
    for idx in range(len(links) - 1):
        if links[idx].target != links[idx + 1].source:
            return False, f"link {idx}: link_continuity"
    for idx, link in enumerate(links):
        if link.kind == ALMOST_EQUIVALENCE:
            ok, clause = _verify_almost_equivalence(link)
        elif link.kind == COMMENSURABILITY:
            ok, clause = _verify_commensurability_link(link)
        else:
            ok, clause = False, "link_kind"
        if not ok:
            return False, f"link {idx}: {clause}"
    return True, "ok"
