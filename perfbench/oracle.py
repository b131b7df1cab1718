"""Independent oracle for the benchmark: plain-integer arithmetic only.

Nothing here imports flowcomm. Matrices are (a, b, c, d) tuples, lattices
are (a, b, d) triples, documents are the parsed JSON the program printed.
Ground truth comes from how each input was built (a known conjugator, a
common root power, known exponents) and from direct arithmetic:

- two traces lie in one squarefree class exactly when (ta^2-4)(tb^2-4) is a
  perfect square (an isqrt test, no factoring);
- minimal exponents come from a double loop over the power traces;
- every returned conjugator and every certificate identity A^i P = P B^j is
  re-multiplied here.

Each ``check_*`` function returns None when the output agrees with the
oracle, or a short clause naming the first disagreement.
"""

import json
from fractions import Fraction
from math import gcd, isqrt

IDENTITY = (1, 0, 0, 1)
CERT_KIND = "commensurability-certificate"
CHAIN_KIND = "chain-certificate"
FORMAT_VERSION = "1"
CITATIONS = ("GHYS_HASHIGUCHI", "BIRKHOFF_SECTION_23N")
# the benchmark's own documents have stabilization 1; a bigger claim is
# rejected rather than checked power by power
_MAX_STABILIZATION = 64


# -- matrices -------------------------------------------------------------

def mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def det(m):
    return m[0] * m[3] - m[1] * m[2]


def trace(m):
    return m[0] + m[3]


def inverse(m):
    if det(m) != 1:
        raise ValueError("oracle inverse needs determinant 1")
    return (m[3], -m[1], -m[2], m[0])


def power(m, n):
    out = IDENTITY
    while n:
        if n & 1:
            out = mul(out, m)
        m = mul(m, m)
        n >>= 1
    return out


def conjugate(q, m):
    """q m q^-1."""
    return mul(mul(q, m), inverse(q))


def negate(m):
    return tuple(-e for e in m)


def fmt(m):
    """The CLI's matrix syntax."""
    return f"[[{m[0]},{m[1]}],[{m[2]},{m[3]}]]"


def strings(m):
    return [[str(m[0]), str(m[1])], [str(m[2]), str(m[3])]]


def parse(value):
    """2x2 matrix of decimal strings -> tuple."""
    (a, b), (c, d) = value
    return (int(a), int(b), int(c), int(d))


def word_matrix(pairs):
    """Value of R^r1 L^l1 ... R^rn L^ln."""
    out = IDENTITY
    for r, l in pairs:
        out = mul(out, (1, r, 0, 1))
        out = mul(out, (1, 0, l, 1))
    return out


def trace_matrix(t):
    """A positive determinant-1 matrix with trace t."""
    return (t - 1, 1, t - 2, 1)


def least_rotation(pairs):
    """Canonical cyclic word: the lexicographically least pair rotation."""
    pairs = tuple(pairs)
    return min(pairs[k:] + pairs[:k] for k in range(len(pairs)))


# -- squarefree class and exponents ---------------------------------------

def primes_below(n):
    flags = bytearray([1]) * n
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(n - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [p for p in range(n) if flags[p]]


SMALL_PRIMES = primes_below(10**4)


def is_probable_prime(n):
    """Miller-Rabin with the first twelve prime bases."""
    if n < 2:
        return False
    for p in SMALL_PRIMES[:12]:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for base in SMALL_PRIMES[:12]:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rough_part(n):
    """n with every prime below 10^4 divided out."""
    for p in SMALL_PRIMES:
        while n % p == 0:
            n //= p
    return n


def is_square(n):
    return n >= 0 and isqrt(n) ** 2 == n


def same_class(ta, tb):
    """sf(ta^2-4) == sf(tb^2-4), decided by one perfect-square test."""
    return is_square((ta * ta - 4) * (tb * tb - 4))


def in_class(t, sf):
    """sf is a positive representative of the class of t^2-4 (not
    necessarily its least one)."""
    disc = t * t - 4
    return sf > 0 and disc % sf == 0 and is_square(disc // sf)


def power_traces(t, count):
    """[trace(M^1), ..., trace(M^count)] for trace(M) = t."""
    out = [t]
    prev, cur = 2, t
    for _ in range(count - 1):
        prev, cur = cur, t * cur - prev
        out.append(cur)
    return out


def minimal_exponents(ta, tb, bound):
    """Least (i, j) with trace(A^i) == trace(B^j), by a double loop over
    i, j <= bound; None when there is none within the bound."""
    seq_a = power_traces(ta, bound)
    seq_b = power_traces(tb, bound)
    for i, x in enumerate(seq_a, 1):
        for j, y in enumerate(seq_b, 1):
            if x == y:
                return i, j
    return None


def normalized(m):
    """(matrix with trace > 2, squared flag), as the CLI normalizes inputs."""
    if trace(m) < -2:
        return mul(m, m), True
    return m, False


# -- lattices -------------------------------------------------------------

def lattice_contains(lat, x, y):
    a, b, d = lat
    if y % d:
        return False
    return (x - (y // d) * b) % a == 0


def lattice_invariant(m, lat):
    """m maps the lattice into itself (onto, when det m = +-1)."""
    a, b, d = lat
    return all(
        lattice_contains(lat, m[0] * x + m[1] * y, m[2] * x + m[3] * y)
        for x, y in ((a, 0), (b, d))
    )


# -- outputs --------------------------------------------------------------

def check_conjugator(a, b, q):
    """q has det 1 and q^-1 a q == b."""
    if det(q) != 1:
        return "conjugator_det"
    if mul(a, q) != mul(q, b):
        return "conjugator_identity"
    return None


def check_certificate(body, base_a=None, base_b=None):
    """Re-check every arithmetic claim of a certificate body."""
    try:
        a = parse(body["base_a"])
        b = parse(body["base_b"])
        i = int(body["power_a"])
        j = int(body["power_b"])
        p = parse(body["intertwiner"])
        det_p = int(body["intertwiner_det"])
        lat = tuple(int(body["sublattice"][k]) for k in ("a", "b", "d"))
        stab = int(body["stabilization"])
        index_a = int(body["index_over_a"])
        index_b = int(body["index_over_b"])
    except (KeyError, TypeError, ValueError):
        return "certificate_shape"
    if base_a is not None and a != base_a:
        return "base_a"
    if base_b is not None and b != base_b:
        return "base_b"
    for m in (a, b):
        if det(m) != 1 or trace(m) <= 2:
            return "base_hyperbolic"
    if i < 1 or j < 1 or stab < 1:
        return "positive_integers"
    if stab > _MAX_STABILIZATION:
        return "stabilization_too_large"
    a1 = power(a, i)
    b1 = power(b, j)
    if trace(a1) != trace(b1):
        return "power_traces_equal"
    if mul(a1, p) != mul(p, b1):
        return "intertwining_identity"
    if det(p) == 0 or det(p) != det_p:
        return "intertwiner_det"
    la, lb, ld = lat
    if la < 1 or ld < 1 or not 0 <= lb < la or la * ld != abs(det_p):
        return "sublattice_index"
    if not (lattice_contains(lat, p[0], p[2]) and lattice_contains(lat, p[1], p[3])):
        return "sublattice_span"
    cur = IDENTITY
    for k in range(1, stab + 1):
        cur = mul(cur, a1)
        if lattice_invariant(cur, lat) != (k == stab):
            return "stabilization"
    if index_a != i * stab * abs(det_p) or index_b != j * stab:
        return "indices"
    return None


def wrap_certificate(body):
    """Certificate document text for the body a commensurable verdict
    prints: the body plus the header fields, in the canonical dump form."""
    doc = dict(body, format_version=FORMAT_VERSION, kind=CERT_KIND)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- models and chains ----------------------------------------------------

def suspension_model(m):
    return {"type": "suspension", "monodromy": strings(m)}


def surface_model(g):
    return {"type": "surface", "genus": str(g)}


def orbifold_model(n):
    return {"type": "orbifold", "cone_orders": ["2", "3", str(n)]}


def genus_matrix(g):
    root = (g, g + 1, g - 1, g)
    return mul(root, root)


def orbifold_matrix(n):
    return (0, 1, -1, n - 4)


def euler(model):
    if model["type"] == "surface":
        return Fraction(2 - 2 * int(model["genus"]))
    if model["type"] == "orbifold":
        chi = Fraction(2)
        for order in model["cone_orders"]:
            chi -= 1 - Fraction(1, int(order))
        return chi
    return None


def _sanctioned(link):
    """An almost-equivalence link between a geodesic model and the
    suspension of its designated matrix, under the matching citation."""
    ends = (link["source"], link["target"])
    for geo, susp in (ends, ends[::-1]):
        if susp["type"] != "suspension" or geo["type"] == "suspension":
            continue
        m = parse(susp["monodromy"])
        if geo["type"] == "surface":
            return link["evidence"] == {"type": "citation", "tag": "GHYS_HASHIGUCHI"} and (
                m == genus_matrix(int(geo["genus"]))
            )
        return link["evidence"] == {"type": "citation", "tag": "BIRKHOFF_SECTION_23N"} and (
            m == orbifold_matrix(int(geo["cone_orders"][2]))
        )
    return False


def _cover_ok(link):
    ev = link["evidence"]
    try:
        genus = int(ev["cover_genus"])
        deg_s, deg_t = int(ev["degree_source"]), int(ev["degree_target"])
        chi_s, chi_t = Fraction(ev["euler_source"]), Fraction(ev["euler_target"])
        chi_c = Fraction(ev["euler_cover"])
    except (KeyError, TypeError, ValueError):
        return False
    return (
        genus >= 2
        and deg_s >= 1
        and deg_t >= 1
        and chi_s == euler(link["source"])
        and chi_t == euler(link["target"])
        and chi_c == 2 - 2 * genus
        and deg_s * chi_s == chi_c
        and deg_t * chi_t == chi_c
    )


def check_chain(doc, source=None, target=None):
    """Endpoints, continuity, the citation whitelist, every certificate
    and every common-cover equation of a chain document."""
    try:
        links = doc["links"]
        endpoints = doc["endpoints"]
        if doc["kind"] != CHAIN_KIND or doc["format_version"] != FORMAT_VERSION:
            return "chain_header"
        if not links:
            return "chain_empty"
        if source is not None and endpoints != [source, target]:
            return "chain_endpoints"
        if links[0]["source"] != endpoints[0] or links[-1]["target"] != endpoints[1]:
            return "chain_endpoints_match"
        for left, right in zip(links, links[1:]):
            if left["target"] != right["source"]:
                return "chain_continuity"
        for link in links:
            src, tgt, ev = link["source"], link["target"], link["evidence"]
            if link["kind"] == "almost-equivalence":
                if not _sanctioned(link):
                    return "chain_citation"
            elif link["kind"] != "commensurability":
                return "chain_link_kind"
            elif src["type"] == tgt["type"] == "suspension":
                if ev.get("type") != "certificate":
                    return "chain_certificate_missing"
                clause = check_certificate(
                    ev, parse(src["monodromy"]), parse(tgt["monodromy"])
                )
                if clause:
                    return "chain_" + clause
            elif src["type"] == tgt["type"] and ev.get("type") == "common-cover":
                if not _cover_ok(link):
                    return "chain_cover"
            else:
                return "chain_commensurability_endpoints"
    except (KeyError, TypeError, ValueError, AttributeError):
        return "chain_shape"
    return None


def check_document(text):
    """None when a certificate or chain document is valid."""
    try:
        doc = json.loads(text)
        kind = doc["kind"]
    except (ValueError, KeyError, TypeError):
        return "document_shape"
    if kind == CHAIN_KIND:
        return check_chain(doc)
    if kind != CERT_KIND or doc.get("format_version") != FORMAT_VERSION:
        return "document_header"
    return check_certificate(doc)


# -- tampering ------------------------------------------------------------

# Each edit breaks an equation every valid certificate satisfies, whatever
# the rest of the document holds: traces strictly increase with the power,
# the recorded determinant and indices are products of other fields, and a
# valid stabilization k is the least one, so k + 1 is never minimal.
_CERT_TAMPERS = (
    "power_a",
    "intertwiner_det",
    "stabilization",
    "index_over_a",
    "index_over_b",
)


def _bump(body, field):
    body[field] = str(int(body[field]) + 1)
    return field


def tamper(text, choice):
    """Copy of a valid document with one field changed so that it must be
    rejected; returns (text, field name). choice picks the field."""
    doc = json.loads(text)
    if doc["kind"] == CERT_KIND:
        field = _bump(doc, _CERT_TAMPERS[choice % len(_CERT_TAMPERS)])
    else:
        links = doc["links"]
        link = links[choice % len(links)]
        ev = link["evidence"]
        if ev["type"] == "certificate":
            field = _bump(ev, _CERT_TAMPERS[choice // len(links) % len(_CERT_TAMPERS)])
        elif ev["type"] == "common-cover":
            field = _bump(ev, "degree_source")
        else:
            ev["tag"] = CITATIONS[1 - CITATIONS.index(ev["tag"])]
            field = "tag"
    return json.dumps(doc, indent=2, sort_keys=True) + "\n", field
