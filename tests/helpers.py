"""Shared generators and brute-force oracles for the test suite.

Matrices here are plain (a, b, c, d) tuples so the oracles share no
code with the package under test.
"""

import json
import math
import random
import re
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


def indented_text(doc):
    """The text form of versions before 0.12.0: json's indenter,
    sorted keys, two-space indent, a newline at the end."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# a JSON string literal, or a run of whitespace outside one
_STRING_OR_SPACE = re.compile(r'("(?:[^"\\]|\\.)*")|\s+')


def compact_text(doc):
    """The canonical text form, derived from indented_text rather than
    json's separators: every whitespace run outside a string deleted,
    then one newline at the end."""
    text = json.dumps(doc, indent=2, sort_keys=True)
    return _STRING_OR_SPACE.sub(lambda m: m.group(1) or "", text) + "\n"


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


def input_size_pair(a, b):
    """X = 2 u_b a and Y = (u_b t_a - u_a t_b) I + 2 u_a b for a pair in
    one square class, u = isqrt((t^2 - 4) / gcd(t_a^2 - 4, t_b^2 - 4))."""
    disc_a, disc_b = trace(a) ** 2 - 4, trace(b) ** 2 - 4
    d0 = math.gcd(disc_a, disc_b)
    u_a, u_b = math.isqrt(disc_a // d0), math.isqrt(disc_b // d0)
    assert u_a * u_a * d0 == disc_a and u_b * u_b * d0 == disc_b
    shift = u_b * trace(a) - u_a * trace(b)
    x = tuple(2 * u_b * e for e in a)
    y = (shift + 2 * u_a * b[0], 2 * u_a * b[1], 2 * u_a * b[2], shift + 2 * u_a * b[3])
    return x, y


def _xgcd(x, y):
    """(g, s, t) with g = s x + t y and g >= 0."""
    s, next_s, t, next_t = 1, 0, 0, 1
    while y:
        q = x // y
        x, y = y, x - q * y
        s, next_s = next_s, s - q * next_s
        t, next_t = next_t, t - q * next_t
    return (-x, -s, -t) if x < 0 else (x, s, t)


def column_kernel(a, b):
    """Saturated basis of the integer P = (p, q, r, s) with a P = P b, as
    4-tuples: the general unimodular column reduction of the 4x4 system
    that flowcomm used up to 0.12.0. The columns of the transform over
    the columns reduced to zero span the integer kernel."""
    rows = [
        (a[0] - b[0], -b[2], a[1], 0),
        (-b[1], a[0] - b[3], 0, a[1]),
        (a[2], 0, a[3] - b[0], -b[2]),
        (0, a[2], -b[1], a[3] - b[3]),
    ]
    cols = [[row[j] for row in rows] for j in range(4)]
    trans = [[int(i == j) for i in range(4)] for j in range(4)]
    pivot = 0
    for i in range(4):
        jpiv = next((j for j in range(pivot, 4) if cols[j][i]), None)
        if jpiv is None:
            continue
        for j in range(jpiv + 1, 4):
            if cols[j][i] == 0:
                continue
            g, s, t = _xgcd(cols[jpiv][i], cols[j][i])
            pg, qg = cols[jpiv][i] // g, cols[j][i] // g
            for m in (cols, trans):
                mp, mj = m[jpiv], m[j]
                m[jpiv] = [s * x + t * y for x, y in zip(mp, mj)]
                m[j] = [pg * y - qg * x for x, y in zip(mp, mj)]
        for m in (cols, trans):
            m[pivot], m[jpiv] = m[jpiv], m[pivot]
        pivot += 1
    assert not any(any(col) for col in cols[pivot:])
    return [tuple(col) for col in trans[pivot:]]


def span_coords(k1, k2, v):
    """Integer (x, y) with v = x k1 + y k2 for independent integer
    vectors k1, k2 of v's length, else None."""
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            minor = k1[i] * k2[j] - k2[i] * k1[j]
            if minor:
                x, rest_x = divmod(v[i] * k2[j] - k2[i] * v[j], minor)
                y, rest_y = divmod(k1[i] * v[j] - v[i] * k1[j], minor)
                if rest_x or rest_y or any(x * e + y * f != w for e, f, w in zip(k1, k2, v)):
                    return None
                return x, y
    raise ValueError("k1 and k2 are dependent")


def same_lattice(basis, other):
    """True when two bases of two independent vectors span one lattice."""
    return all(span_coords(*basis, v) is not None for v in other) and all(
        span_coords(*other, v) is not None for v in basis
    )


def lattice_period(m, triple):
    """Least k >= 1 with m**k carrying the lattice of Hermite triple
    (a, b, d) onto itself, for m of determinant +-1: m is applied to an
    unreduced basis of plain tuples until its columns span the starting
    lattice again."""
    a, b, d = triple
    start = (a, b, 0, d)
    cur, k = mul(m, start), 1
    while not same_lattice(_columns(cur), _columns(start)):
        cur, k = mul(m, cur), k + 1
    return k


def reduction_cycle_by_quotient(p, q, q_prev):
    """conjugacy.reduction_cycle one quotient at a time, on the first
    root (p + sqrt(p^2 + q q_prev)) / q of the form (q, -2p, -q_prev),
    with (w, period, states) as plain data: w is the product of the
    (a 1; 1 0) up to the first reduced complete quotient after an even
    number of steps, period is that quotient's least period, doubled
    when odd, as a flat list where reduction_cycle gives (r, l) blocks,
    and states[k] is the denominator q of the complete quotient after
    period[k]."""
    s = math.isqrt(p * p + q * q_prev)

    def step():
        nonlocal p, q, q_prev
        quo = (p + s + (q < 0)) // q
        p_next = quo * q - p
        p, q, q_prev = p_next, q_prev + quo * (p - p_next), q
        return quo

    w, steps = (1, 0, 0, 1), 0
    while steps % 2 or not (p <= s and s - p < q <= s + p):
        w, steps = mul(w, (step(), 1, 1, 0)), steps + 1
    start, period, states = (p, q), [step()], [q]
    while (p, q) != start:
        period.append(step())
        states.append(q)
    repeats = 1 + len(period) % 2
    return w, period * repeats, states * repeats


def canonical_form(pairs):
    """Lexicographically least rotation of an (r, l) pair sequence."""
    pairs = tuple(pairs)
    return min(pairs[k:] + pairs[:k] for k in range(len(pairs)))


def least_rotation_by_min(pairs):
    """conjugacy._least_rotation as the minimum over every rotation, each
    built as a fresh tuple: quadratic in len(pairs), the first of equal
    rotations."""
    return min(range(len(pairs)), key=lambda k: pairs[k:] + pairs[:k])


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


def _compose(*perms):
    """The permutation that applies perms from left to right; each is a
    tuple p of the points 0..d-1 with p[i] the image of i."""
    out = tuple(range(len(perms[0])))
    for p in perms:
        out = tuple(p[i] for i in out)
    return out


def _inverse_perm(p):
    out = [0] * len(p)
    for i, image in enumerate(p):
        out[image] = i
    return tuple(out)


def _cycle_lengths(p):
    seen, lengths = set(), []
    for start in range(len(p)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i, length = p[i], length + 1
        if length:
            lengths.append(length)
    return lengths


def surface_cover_genus(genus, orders, handles, cones):
    """Genus of the degree-d surface cover of the orbifold (genus;
    orders) that permutations of d points describe, after checking that
    they describe one; raises AssertionError if they do not.

    handles holds the images (a_i, b_i) of the generators of the genus
    and cones the images c_j of the loops around the cone points, as
    _compose takes them. Checked: the relation
    prod [a_i, b_i] prod c_j = 1, with [a, b] = a b a^-1 b^-1; every
    cycle of c_j of length exactly n_j, so that the point stabiliser is
    torsion free; and a transitive action, so that the cover is
    connected. The genus is Riemann-Hurwitz's: over each cone point lie
    as many points as c_j has cycles, so the cover has
    chi = d (2 - 2 genus - k) + the number of cycles of all the c_j."""
    perms = [p for pair in handles for p in pair] + list(cones)
    d = len(perms[0])
    assert len(handles) == genus and len(cones) == len(orders)
    assert all(sorted(p) == list(range(d)) for p in perms)
    word = [p for a, b in handles for p in (a, b, _inverse_perm(a), _inverse_perm(b))]
    assert _compose(*word, *cones) == tuple(range(d)), "relation"
    for c, n in zip(cones, orders):
        assert set(_cycle_lengths(c)) == {n}, f"cycle lengths {n}"
    reached, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for p in perms:
            if p[i] not in reached:
                reached.add(p[i])
                frontier.append(p[i])
    assert len(reached) == d, "transitive"
    chi = d * (2 - 2 * genus - len(orders)) + sum(len(_cycle_lengths(c)) for c in cones)
    assert chi % 2 == 0
    return (2 - chi) // 2


# permutation certificates of surface covers, by (genus, cone orders,
# degree): (handles, cones) as surface_cover_genus takes them, found by
# a seeded random search
SURFACE_COVERS = {
    (0, (2, 2, 2, 2, 3), 6): (
        (),
        (
            (1, 0, 3, 2, 5, 4),
            (4, 2, 1, 5, 0, 3),
            (1, 0, 3, 2, 5, 4),
            (1, 0, 5, 4, 3, 2),
            (5, 3, 1, 2, 0, 4),
        ),
    ),
    (1, (2, 3), 12): (
        (
            (
                (10, 7, 5, 4, 8, 9, 11, 1, 3, 2, 6, 0),
                (9, 6, 5, 4, 10, 2, 3, 11, 0, 1, 7, 8),
            ),
        ),
        (
            (5, 9, 8, 10, 11, 0, 7, 6, 2, 1, 3, 4),
            (9, 0, 3, 5, 10, 2, 4, 8, 11, 1, 6, 7),
        ),
    ),
    (0, (2, 3, 18), 18): (
        (),
        (
            (13, 6, 3, 2, 11, 7, 1, 5, 16, 15, 12, 4, 10, 0, 17, 9, 8, 14),
            (14, 17, 7, 9, 8, 12, 2, 6, 13, 11, 1, 3, 15, 4, 16, 5, 0, 10),
            (8, 12, 1, 4, 0, 9, 5, 3, 11, 2, 14, 15, 7, 16, 13, 10, 17, 6),
        ),
    ),
}
