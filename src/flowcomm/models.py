"""Model flows and almost-commensurability chains between them.

Two families of models: suspensions of hyperbolic torus automorphisms,
and geodesic flows on closed orientable hyperbolic 2-orbifolds, one
signature (g; n_1, ..., n_k) with chi < 0, a surface being the case
with no cone points. A surface and a (0; 2, 3, n) orbifold have a
designated monodromy matrix; passing to the suspension of that matrix
is an almost-equivalence, recorded as a citation-tagged link and never
recomputed (the geometry behind the tags is trusted, not rebuilt).
Suspension-suspension links carry a full commensurability certificate.
Geodesic-geodesic links carry common-cover degree and
Euler-characteristic arithmetic; the existence of the actual cover is
likewise cited, the arithmetic is what gets verified.

almost_commensurability_chain joins any two models by one path of
models, walked from m1 to m2: each endpoint's path runs to its
suspension (any other orbifold through its least covering surface),
and the two suspensions are either commensurable (one certificate
link between them, decided by are_commensurable) or each path is
bridged on through its trace-t model suspension to that trace's
orbifold, and a cover joins the two orbifolds. Each link is formed
once, from its two neighbours, in the direction it is walked.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import index as _as_int

from .commensurability import (
    CommensurabilityCertificate,
    are_commensurable,
    verify_certificate,
)
from .errors import NotHyperbolic
from .linalg import HyperbolicMatrix, Mat2, _Record, mat_mul

__all__ = [
    "GHYS_HASHIGUCHI",
    "BIRKHOFF_SECTION_23N",
    "Suspension",
    "GeodesicOrbifold",
    "GeodesicCommonCover",
    "ChainLink",
    "ChainCertificate",
    "ALMOST_EQUIVALENCE",
    "COMMENSURABILITY",
    "orbifold_model_matrix",
    "genus_model_matrix",
    "orbifold_euler_characteristic",
    "orbifold_common_cover",
    "almost_commensurability_chain",
    "verify_chain",
]

# Citation tags for the two almost-equivalence facts taken on trust.
GHYS_HASHIGUCHI = "GHYS_HASHIGUCHI"
BIRKHOFF_SECTION_23N = "BIRKHOFF_SECTION_23N"

ALMOST_EQUIVALENCE = "almost-equivalence"
COMMENSURABILITY = "commensurability"


class Suspension(_Record):
    """Suspension flow of a hyperbolic torus automorphism."""

    __slots__ = _fields = ("monodromy",)

    def __init__(self, monodromy: Mat2):
        if not isinstance(monodromy, HyperbolicMatrix):
            monodromy = HyperbolicMatrix.from_mat(monodromy)
        self.monodromy = monodromy


class GeodesicOrbifold(_Record):
    """Geodesic flow on the closed orientable hyperbolic 2-orbifold of
    signature (genus; cone_orders), chi < 0; a surface has no cone
    points. Cone orders are kept sorted; chi is summed once, here, and
    is no part of equality, hashing or the repr."""

    _fields = ("genus", "cone_orders")
    __slots__ = _fields + ("_chi",)

    def __init__(self, genus: int, cone_orders: tuple = ()):
        self.genus = _as_int(genus)
        self.cone_orders = tuple(sorted(map(_as_int, cone_orders)))
        chi = orbifold_euler_characteristic(self.genus, self.cone_orders)
        if chi >= 0:
            raise ValueError(
                f"signature ({self.genus}; {', '.join(map(str, self.cone_orders))})"
                " has chi >= 0, so it is not hyperbolic"
            )
        self._chi = chi

    def euler_characteristic(self):
        return self._chi


class GeodesicCommonCover(_Record):
    """Degree and Euler-characteristic arithmetic for a common cover of
    two geodesic models. Existence of the covering surface is cited;
    the recorded arithmetic (degree x chi = chi of cover, and each
    degree a multiple of its side's cone orders) is the machine-checked
    part."""

    __slots__ = _fields = (
        "cover_genus",
        "degree_source",
        "degree_target",
        "euler_source",
        "euler_target",
        "euler_cover",
    )

    def __init__(
        self,
        cover_genus: int,
        degree_source: int,
        degree_target: int,
        euler_source: Fraction,
        euler_target: Fraction,
        euler_cover: Fraction,
    ):
        self.cover_genus = cover_genus
        self.degree_source = degree_source
        self.degree_target = degree_target
        self.euler_source = euler_source
        self.euler_target = euler_target
        self.euler_cover = euler_cover


class ChainLink(_Record):
    """One step of a chain. kind is ALMOST_EQUIVALENCE (evidence: a
    citation tag) or COMMENSURABILITY (evidence: a certificate between
    suspensions, or common-cover arithmetic between geodesic models)."""

    __slots__ = _fields = ("kind", "source", "target", "evidence")

    def __init__(self, kind: str, source: object, target: object, evidence: object):
        self.kind = kind
        self.source = source
        self.target = target
        self.evidence = evidence


class ChainCertificate(_Record):
    """The links of a chain, walked from endpoints[0] to endpoints[1]."""

    __slots__ = _fields = ("links", "endpoints")

    def __init__(self, links: tuple, endpoints: tuple):
        self.links = tuple(links)
        self.endpoints = tuple(endpoints)


def orbifold_model_matrix(t):
    """First-return matrix ((0,1),(-1,t)) of the (2,3,t+4) orbifold's
    geodesic flow over its Birkhoff section; det 1, trace t."""
    t = _as_int(t)
    if t <= 2:
        raise NotHyperbolic(f"trace parameter must be >= 3, got {t}")
    return HyperbolicMatrix(0, 1, -1, t)


def genus_model_matrix(g):
    """Monodromy ((g,g+1),(g-1,g))^2 whose suspension is almost
    equivalent to the genus-g geodesic flow; det 1, trace 4g^2 - 2."""
    g = _as_int(g)
    if g <= 1:
        raise ValueError(f"genus must be >= 2, got {g}")
    root = Mat2(g, g + 1, g - 1, g)
    return HyperbolicMatrix.from_mat(mat_mul(root, root))


def orbifold_euler_characteristic(genus, cone_orders):
    """chi = 2 - 2 genus - sum(1 - 1/n_i), exact."""
    genus = _as_int(genus)
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    chi = Fraction(2 - 2 * genus)
    for order in cone_orders:
        order = _as_int(order)
        if order < 2:
            raise ValueError(f"cone orders must be >= 2, got {order}")
        chi -= 1 - Fraction(1, order)
    return chi


def orbifold_common_cover(source, target):
    """Least common surface cover of two geodesic models, as arithmetic.

    Over a model with Euler characteristic chi, a genus-G surface cover
    has degree d = (2 - 2G)/chi, and each cone point of order m has d/m
    preimages (Riemann-Hurwitz), so d must be a multiple of the lcm of
    the cone orders. G is the least genus meeting both conditions on
    both sides. That such a cover exists is cited, not built: Edmonds,
    Ewing and Kulkarni, "Torsion free subgroups of Fuchsian groups and
    tessellations of surfaces", Invent. Math. 69 (1982). Its exact
    statement, including any exceptional signatures, was not checked
    against these conditions."""
    chi_s = source.euler_characteristic()
    chi_t = target.euler_characteristic()
    # d = (G - 1) p/q with p/q = -2/chi in lowest terms, so m = lcm(orders)
    # divides d exactly when G - 1 is a multiple of m q / gcd(p, m)
    sheets = 1
    for chi, model in ((chi_s, source), (chi_t, target)):
        ratio, m = Fraction(-2) / chi, lcm(*model.cone_orders)
        sheets = lcm(sheets, m * ratio.denominator // gcd(ratio.numerator, m))
    genus = sheets + 1
    return GeodesicCommonCover(
        cover_genus=genus,
        degree_source=int(sheets * -2 / chi_s),
        degree_target=int(sheets * -2 / chi_t),
        euler_source=chi_s,
        euler_target=chi_t,
        euler_cover=Fraction(2 - 2 * genus),
    )


def _designated(model):
    """(citation tag, monodromy) when the suspension of that monodromy
    is a cited almost-equivalence of the model: a surface (GHYS) or a
    (0; 2, 3, n) orbifold (Birkhoff section); None for any other model."""
    if not isinstance(model, GeodesicOrbifold):
        return None
    orders = model.cone_orders
    if not orders:
        return GHYS_HASHIGUCHI, genus_model_matrix(model.genus)
    if model.genus == 0 and len(orders) == 3 and orders[:2] == (2, 3):
        return BIRKHOFF_SECTION_23N, orbifold_model_matrix(orders[2] - 4)
    return None


def _path_to_suspension(model):
    """Models from the model to its suspension: the model, its least
    covering surface when it has no cited suspension, then that
    suspension (a suspension is its own path)."""
    if isinstance(model, Suspension):
        return [model]
    if not isinstance(model, GeodesicOrbifold):
        raise TypeError(f"not a model: {model!r}")
    designated = _designated(model)
    if designated is None:
        surface = GeodesicOrbifold(orbifold_common_cover(model, model).cover_genus)
        return [model] + _path_to_suspension(surface)
    return [model, Suspension(designated[1])]


def _bridge(path):
    """The path extended from its suspension to the trace-t suspension
    and the (2,3,t+4) orbifold; a path starting at that orbifold is the
    orbifold alone."""
    t = path[-1].monodromy.trace()
    orbifold = GeodesicOrbifold(0, (2, 3, t + 4))
    if path[0] == orbifold:
        return [orbifold]
    trace_susp = Suspension(orbifold_model_matrix(t))
    if path[-1] != trace_susp:
        path = path + [trace_susp]
    return path + [orbifold]


def _link(source, target):
    """The link from source to target, neighbours on a path: two
    suspensions (on a bridge, so of one trace) get are_commensurable's
    certificate, of least exponents (1, 1); two geodesic models their
    least common cover; and a geodesic model and its suspension the
    citation tag."""
    if isinstance(source, Suspension) and isinstance(target, Suspension):
        cert = are_commensurable(source.monodromy, target.monodromy).certificate
        return ChainLink(COMMENSURABILITY, source, target, cert)
    if isinstance(source, GeodesicOrbifold) and isinstance(target, GeodesicOrbifold):
        cover = orbifold_common_cover(source, target)
        return ChainLink(COMMENSURABILITY, source, target, cover)
    geodesic = target if isinstance(source, Suspension) else source
    return ChainLink(ALMOST_EQUIVALENCE, source, target, _designated(geodesic)[0])


def _links(path):
    return [_link(source, target) for source, target in zip(path, path[1:])]


def almost_commensurability_chain(m1, m2):
    """Chain of verified links between any two models, built as one
    path of models from m1 to m2, each link formed once from its two
    neighbours in the direction it is walked.

    Each endpoint's path runs to its suspension. Commensurable
    suspensions (t^2 - 4 in one square class) are joined by the
    certificate are_commensurable decided; the others are bridged
    through the trace-t model suspensions and a common cover of their
    orbifolds (certificates cannot cross a square class, the cover link
    is what does). The right half is m2's path reversed."""
    left, right = _path_to_suspension(m1), _path_to_suspension(m2)
    verdict = are_commensurable(left[-1].monodromy, right[-1].monodromy)
    if verdict.commensurable:
        middle = ChainLink(COMMENSURABILITY, left[-1], right[-1], verdict.certificate)
        links = _links(left) + [middle] + _links(right[::-1])
    else:
        links = _links(_bridge(left) + _bridge(right)[::-1])
    return ChainCertificate(links=tuple(links), endpoints=(m1, m2))


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
        if (
            cover.degree_source % lcm(*source.cone_orders)
            or cover.degree_target % lcm(*target.cone_orders)
        ):
            return False, "cover_cone_points"
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
