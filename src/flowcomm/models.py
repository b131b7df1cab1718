"""Model flows and almost-commensurability chains between them.

Two families of models: suspensions of hyperbolic torus automorphisms,
and geodesic flows on closed orientable hyperbolic 2-orbifolds, one
signature (g; n_1, ..., n_k) with chi < 0, a surface being the case
with no cone points. A surface and a (0; 2, 3, n) orbifold have a
designated monodromy matrix; passing to the suspension of that matrix
is an almost-equivalence, recorded as a citation-tagged link (the
geometry behind the tags is cited, not rebuilt). Suspension-suspension
links carry a full commensurability certificate, geodesic-geodesic
links the degree and Euler-characteristic arithmetic of a common cover
whose existence is likewise cited.

almost_commensurability_chain joins any two models by one path of
models, walked from m1 to m2: each endpoint's path runs to its
suspension (any other orbifold through its least covering surface),
and the two suspensions are either commensurable (then neighbours,
linked by are_commensurable's certificate) or each path is bridged on
through its trace-t model suspension to that trace's orbifold, and a
cover joins the two orbifolds. Every link is formed by _link, once,
from its two neighbours, in the direction it is walked.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import index as _as_int

from .commensurability import are_commensurable
from .conjugacy import _shared_units
from .linalg import HyperbolicMatrix, Mat2, _Record, _int_text

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
    "orbifold_common_cover",
    "almost_commensurability_chain",
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
        super().__init__(monodromy)


class GeodesicOrbifold(_Record):
    """Geodesic flow on the closed orientable hyperbolic 2-orbifold of
    signature (genus; cone_orders), chi < 0; a surface has no cone
    points. Cone orders are kept sorted. The constructor alone checks
    the signature, and reads hyperbolicity off it with no chi summed:
    the signatures with chi >= 0 are the sphere with at most two cone
    points, the torus, the triangles (p, q, r) with qr + pr + pq >= pqr
    and (0; 2, 2, 2, 2). euler_characteristic sums chi, only for cover
    arithmetic, each time it is asked for."""

    __slots__ = _fields = ("genus", "cone_orders")

    def __init__(self, genus: int, cone_orders: tuple = ()):
        genus, orders = _as_int(genus), tuple(sorted(map(_as_int, cone_orders)))
        if genus < 0:
            raise ValueError(f"genus must be >= 0, got {_int_text(genus)}")
        if orders and orders[0] < 2:
            raise ValueError(f"cone orders must be >= 2, got {_int_text(orders[0])}")
        if genus == 0 and len(orders) == 3:
            p, q, r = orders
            hyperbolic = q * r + p * r + p * q < p * q * r
        elif genus == 0 and len(orders) == 4:
            hyperbolic = orders[3] > 2
        else:
            hyperbolic = genus > 1 or len(orders) > (0 if genus else 4)
        if not hyperbolic:
            raise ValueError(
                f"signature ({genus}; {', '.join(map(_int_text, orders))})"
                " has chi >= 0, so it is not hyperbolic"
            )
        super().__init__(genus, orders)

    def euler_characteristic(self):
        """chi = 2 - 2 genus - sum(1 - 1/n_i), exact, as one fraction over
        the lcm m of the orders. Only cover arithmetic sums it, and the
        verbs bound m there: chain refuses an orbifold with no designated
        matrix whose lcm passes the digit limit before it builds a path
        (a designated (0; 2, 3, n) has m dividing 6n, the size of its
        input), and verify sums chi only after every order has divided a
        decoded cover degree; no model sums it when it is built."""
        orders = self.cone_orders
        m = lcm(*orders)
        return Fraction((2 - 2 * self.genus - len(orders)) * m + sum(m // n for n in orders), m)


class GeodesicCommonCover(_Record):
    """Degree and Euler-characteristic arithmetic for a common cover of
    two geodesic models. Existence of the covering surface is cited;
    the recorded arithmetic (degree x chi = chi of cover, and each
    degree a multiple of its side's cone orders) is the machine-checked
    part. The genus and the two degrees are ints, the three Euler
    characteristics Fractions."""

    __slots__ = _fields = (
        "cover_genus",
        "degree_source",
        "degree_target",
        "euler_source",
        "euler_target",
        "euler_cover",
    )


class ChainLink(_Record):
    """One step of a chain between two models, each a Suspension or a
    GeodesicOrbifold. kind is the str ALMOST_EQUIVALENCE (evidence: a
    citation tag str) or COMMENSURABILITY (evidence: a
    CommensurabilityCertificate between suspensions, or a
    GeodesicCommonCover between geodesic models)."""

    __slots__ = _fields = ("kind", "source", "target", "evidence")


class ChainCertificate(_Record):
    """The links of a chain, walked from endpoints[0] to endpoints[1]."""

    __slots__ = _fields = ("links", "endpoints")

    def __init__(self, links: tuple, endpoints: tuple):
        super().__init__(tuple(links), tuple(endpoints))


def orbifold_model_matrix(t):
    """First-return matrix ((0,1),(-1,t)) of the (2,3,t+4) orbifold's
    geodesic flow over its Birkhoff section; det 1, trace t, so a t
    below 3 raises NotHyperbolic."""
    return HyperbolicMatrix(0, 1, -1, t)


def genus_model_matrix(g):
    """Monodromy whose suspension is almost equivalent to the genus-g
    geodesic flow: the square of ((g,g+1),(g-1,g)), written out entry
    by entry, so no product is formed; det 1, trace 4g^2 - 2."""
    g = _as_int(g)
    if g <= 1:
        raise ValueError(f"genus must be >= 2, got {_int_text(g)}")
    return HyperbolicMatrix(2 * g * g - 1, 2 * g * (g + 1), 2 * g * (g - 1), 2 * g * g - 1)


def _genus_step(model, chi):
    """The genus step s of a model of Euler characteristic chi: the
    genus-G surfaces that meet its cover conditions are those with
    G - 1 a multiple of s. The degree is d = (G - 1) p/q with
    p/q = -2/chi in lowest terms, and m = lcm(orders) divides d exactly
    when m q / gcd(p, m) divides G - 1."""
    ratio, m = Fraction(-2) / chi, lcm(*model.cone_orders)
    return m * ratio.denominator // gcd(ratio.numerator, m)


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
    sheets = lcm(_genus_step(source, chi_s), _genus_step(target, chi_t))
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
        surface = GeodesicOrbifold(_genus_step(model, model.euler_characteristic()) + 1)
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
    suspensions (of one square class; on a bridge, of one trace) get
    are_commensurable's certificate; two geodesic models their least
    common cover; and a geodesic model and its suspension the citation
    tag."""
    if isinstance(source, Suspension) and isinstance(target, Suspension):
        cert = are_commensurable(source.monodromy, target.monodromy).certificate
        return ChainLink(COMMENSURABILITY, source, target, cert)
    if isinstance(source, GeodesicOrbifold) and isinstance(target, GeodesicOrbifold):
        cover = orbifold_common_cover(source, target)
        return ChainLink(COMMENSURABILITY, source, target, cover)
    geodesic = target if isinstance(source, Suspension) else source
    return ChainLink(ALMOST_EQUIVALENCE, source, target, _designated(geodesic)[0])


def almost_commensurability_chain(m1, m2):
    """Chain of verified links between any two models, built as one
    path of models from m1 to m2, each link formed once from its two
    neighbours in the direction it is walked.

    Each endpoint's path runs to its suspension. Commensurable
    suspensions (t^2 - 4 in one square class) are neighbours, and _link
    gives them are_commensurable's certificate; the others are bridged
    through the trace-t model suspensions and a common cover of their
    orbifolds (certificates cannot cross a square class, the cover link
    is what does). The right half is m2's path reversed."""
    left, right = _path_to_suspension(m1), _path_to_suspension(m2)
    traces = left[-1].monodromy.trace(), right[-1].monodromy.trace()
    if _shared_units(*traces) is None:
        left, right = _bridge(left), _bridge(right)
    path = left + right[::-1]
    links = [_link(source, target) for source, target in zip(path, path[1:])]
    return ChainCertificate(links=links, endpoints=(m1, m2))
