"""Shared generators and brute-force oracles for the test suite.

Matrices here are plain (a, b, c, d) tuples so the oracles share no
code with the package under test.
"""

import random
from fractions import Fraction


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


def naive_pow(m, n):
    out = (1, 0, 0, 1)
    for _ in range(n):
        out = mul(out, m)
    return out


def square_pow(m, n):
    """m**n by repeated squaring of plain tuples, n >= 0."""
    out = (1, 0, 0, 1)
    while n:
        if n & 1:
            out = mul(out, m)
        m = mul(m, m)
        n >>= 1
    return out


def random_unimodular(rng, steps=6):
    m = (1, 0, 0, 1)
    for _ in range(steps):
        k = rng.randint(-3, 3)
        if rng.random() < 0.5:
            m = mul(m, (1, k, 0, 1))
        else:
            m = mul(m, (1, 0, k, 1))
    if rng.random() < 0.5:
        m = mul(m, (0, 1, -1, 0))
    return m


def random_hyperbolic(rng, max_trace=50, blocks=3):
    """Random conjugate of a positive R/L word with trace in (2, max_trace]."""
    while True:
        w = (1, 0, 0, 1)
        for _ in range(rng.randint(1, blocks)):
            w = mul(w, (1, rng.randint(1, 4), 0, 1))
            w = mul(w, (1, 0, rng.randint(1, 4), 1))
        if not 2 < trace(w) <= max_trace:
            continue
        q = random_unimodular(rng)
        return mul(mul(q, w), inverse(q))


def hyperbolic_corpus(seed, count, max_trace=50):
    rng = random.Random(seed)
    return [random_hyperbolic(rng, max_trace) for _ in range(count)]


def squarefree_oracle(n):
    """Squarefree part by full trial division; fine for small n."""
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no squarefree part")
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                out *= p
        p += 1
    return out * n


def merge_exponents(ta, tb):
    """Least (i, j) >= (1, 1) with trace(A**i) == trace(B**j) for traces
    ta, tb > 2, by merging the two strictly increasing power-trace
    sequences t_0 = 2, t_1 = t, t_k = t t_(k-1) - t_(k-2). Raises after
    10^5 steps (traces in distinct square classes never meet)."""
    prev_a, cur_a, prev_b, cur_b = 2, ta, 2, tb
    i = j = 1
    for _ in range(10**5):
        if cur_a == cur_b:
            return i, j
        if cur_a < cur_b:
            prev_a, cur_a, i = cur_a, ta * cur_a - prev_a, i + 1
        else:
            prev_b, cur_b, j = cur_b, tb * cur_b - prev_b, j + 1
    raise AssertionError("no common power trace within 10^5 steps")


def _lattice_within(basis, vectors):
    """True when every vector lies in the lattice spanned by the columns
    of a nonsingular basis: adj(basis) v is then divisible by det."""
    n = det(basis)
    return all(
        (basis[3] * x - basis[1] * y) % n == 0 and (basis[0] * y - basis[2] * x) % n == 0
        for x, y in vectors
    )


def _columns(m):
    return ((m[0], m[2]), (m[1], m[3]))


def reference_verify(fields):
    """(ok, clause) for a commensurability certificate given as plain
    values in field order: base_a, base_b, power_a, power_b,
    intertwiner, intertwiner_det, sublattice (a, b, d), stabilization,
    index_over_a, index_over_b; matrices as (a, b, c, d).

    The check that forms a**i and b**j and tests a**i P = P b**j and
    a**i L = L on them, as flowcomm 0.8.0 did, so its time grows with
    the stated powers. Sublattice equality is mutual containment, not a
    Hermite form. Precondition: the powers are small enough to form.
    """
    base_a, base_b, power_a, power_b, p, det_p, (la, lb, ld), stab, index_a, index_b = fields
    for name, m in (("base_a", base_a), ("base_b", base_b)):
        if det(m) != 1 or trace(m) <= 2:
            return False, f"{name}_hyperbolic"
    if power_a < 1 or power_b < 1:
        return False, "powers_positive"
    a1, b1 = square_pow(base_a, power_a), square_pow(base_b, power_b)
    if trace(a1) != trace(b1):
        return False, "power_traces_equal"
    if mul(a1, p) != mul(p, b1):
        return False, "intertwining_identity"
    if det(p) == 0:
        return False, "intertwiner_nonsingular"
    if det_p != det(p):
        return False, "intertwiner_det_matches"
    lattice = (la, lb, 0, ld)
    if not (_lattice_within(lattice, _columns(p)) and _lattice_within(p, _columns(lattice))):
        return False, "sublattice_matches_intertwiner"
    if stab < 1:
        return False, "stabilization_positive"
    if stab != 1:
        return False, "stabilization_minimal"
    if not _lattice_within(lattice, _columns(mul(a1, lattice))):
        return False, "lattice_stabilized"
    if index_a != power_a * abs(det(p)):
        return False, "index_over_a"
    if index_b != power_b:
        return False, "index_over_b"
    return True, "ok"


# a commensurability certificate's constructor arguments, in order
CERT_FIELDS = (
    "base_a",
    "base_b",
    "power_a",
    "power_b",
    "intertwiner",
    "intertwiner_det",
    "sublattice",
    "stabilization",
    "index_over_a",
    "index_over_b",
)


def replace_cert_field(cert, **changes):
    """Copy of a commensurability certificate with named fields swapped,
    made through its constructor (which rejects a misspelt name)."""
    fields = {name: getattr(cert, name) for name in CERT_FIELDS}
    return type(cert)(**{**fields, **changes})


def string_leaves_only(node):
    """True when every scalar leaf of a JSON tree is a string."""
    if isinstance(node, dict):
        return all(string_leaves_only(v) for v in node.values())
    if isinstance(node, list):
        return all(string_leaves_only(v) for v in node)
    return isinstance(node, str)


def intertwiner_rank(p):
    """Tie-break key of an intertwiner: sign-normalized so the first
    nonzero entry is positive, then least max-entry, sum, abs entries."""
    if p <= (0, 0, 0, 0):
        p = tuple(-e for e in p)
    sizes = tuple(abs(e) for e in p)
    return max(sizes), sum(sizes), sizes, p


def box_intertwiner(a, b, bound):
    """Least |det| and best-ranked nonzero P with a P = P b whose first
    column lies in [-bound, bound]^2, as (|det P|, P).

    The first column u fixes P: the first column of a P = P b reads
    a u = b[0] u + b[2] v, so v = (a - b[0]) u / b[2] (b[2] != 0 for a
    hyperbolic b) and P is integral exactly when b[2] divides it.
    """
    best = None
    for p in range(-bound, bound + 1):
        for r in range(-bound, bound + 1):
            top = (a[0] - b[0]) * p + a[1] * r
            bottom = a[2] * p + (a[3] - b[0]) * r
            if (p, r) == (0, 0) or top % b[2] or bottom % b[2]:
                continue
            cand = (p, top // b[2], r, bottom // b[2])
            key = (abs(det(cand)), intertwiner_rank(cand))
            if best is None or key < best[0]:
                best = (key, cand)
    return best[0][0], best[1]


def canonical_form(pairs):
    """Lexicographically least rotation of an (r, l) pair sequence."""
    pairs = tuple(pairs)
    return min(pairs[k:] + pairs[:k] for k in range(len(pairs)))


def enumerate_sublattices(n):
    """Hermite triples (a, b, d) of all sublattices of Z^2 of index n,
    sorted: one for each a | n and 0 <= b < a, sigma(n) in all."""
    if n < 1:
        raise ValueError(f"index must be positive, got {n}")
    return [(a, b, n // a) for a in range(1, n + 1) if n % a == 0 for b in range(a)]


def _spiral(bound):
    yield 0
    for v in range(1, bound + 1):
        yield v
        yield -v


def brute_force_conjugator(a, b, bound):
    """First det-1 Q with max|entry| <= bound and a Q = Q b, else None.

    Exhaustive over the box. With det Q = 1, qa != 0, qb and qc fix
    qd = (1 + qb qc) / qa, and qa = 0 forces qc = -qb = -+1.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    for qa in _spiral(bound):
        for qb in _spiral(bound):
            if qa == 0 and qb not in (1, -1):
                continue
            for x in _spiral(bound):  # qd when qa = 0, else qc
                if qa == 0:
                    q = (0, qb, -qb, x)
                else:
                    num = 1 + qb * x
                    if num % qa or abs(num // qa) > bound:
                        continue
                    q = (qa, qb, x, num // qa)
                if mul(a, q) == mul(q, b):
                    return q
    return None


def orbifold_chi(genus, orders):
    """Euler characteristic 2 - 2 genus - sum(1 - 1/n) of the orbifold
    (genus; orders)."""
    return Fraction(2 - 2 * genus) - sum(1 - Fraction(1, n) for n in orders)


def least_common_cover(sig_a, sig_b):
    """(G, d_a, d_b) for the least genus G >= 2 with a surface cover of
    both signatures (genus, orders), trying G = 2, 3, ... in turn.

    A genus-G cover of degree d over an orbifold with Euler
    characteristic chi has d chi = 2 - 2G (Riemann-Hurwitz), and each
    cone order n divides d (a cone point of order n has d / n
    preimages)."""
    sides = [(orbifold_chi(*sig), sig[1]) for sig in (sig_a, sig_b)]
    cover_genus = 2
    while True:
        degrees = []
        for chi, orders in sides:
            cover_chi = (2 - 2 * cover_genus) * chi.denominator
            degree, rest = divmod(cover_chi, chi.numerator)
            if rest == 0 and not any(degree % n for n in orders):
                degrees.append(degree)
        if len(degrees) == 2:
            return (cover_genus, *degrees)
        cover_genus += 1
