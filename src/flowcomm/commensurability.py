"""Commensurability of torus-automorphism suspensions, with certificates.

Two suspensions are commensurable exactly when some powers of their
monodromies share a trace. Power traces satisfy the discriminant
identity t_i^2 - 4 = (t_1^2 - 4) u_i^2, so the square class of
t^2 - 4 (its value up to square factors) is a complete
commensurability invariant: one class guarantees a common power
trace, distinct classes rule one out. D_a and D_b lie in one class
exactly when D_a D_b is a perfect square, which one isqrt decides
without factoring either. In one class D_0 = gcd(D_a, D_b), and the
expanding eigenvalues (t + u sqrt(D_0)) / 2 are units of the order of
discriminant D_0, so the least common power is found by a Euclid on
those units rather than a search. Positive verdicts are backed by a
CommensurabilityCertificate whose data (an integer intertwiner, the
sublattice it spans, covering indices) is re-checkable from scratch
by verify_certificate. No power of either input is formed, by the
decision or by the verifier: both work on a pair of matrices of the
size of the inputs with the intertwiners of a**i and b**j, and the
verifier tests lam_a**i == lam_b**j by a Euclid on units guided by the
stated exponents.
"""

from math import gcd, isqrt
from operator import index as _as_int

from .conjugacy import reduction_cycle
from .errors import NotHyperbolic
from .linalg import (
    HyperbolicMatrix,
    Lattice2,
    Mat2,
    _Record,
    hnf,
    intertwiner_lattice,
    lattice_image,
    mat_mul,
)

__all__ = [
    "CommensurabilityCertificate",
    "CommensurabilityVerdict",
    "are_commensurable",
    "find_intertwiner",
    "stabilization_exponent",
    "verify_certificate",
]


class CommensurabilityCertificate(_Record):
    """Re-checkable witness that base_a**power_a and base_b**power_b
    generate a common finite cover.

    intertwiner P satisfies A1 P = P B1 (A1, B1 the stated powers);
    sublattice is the canonical form of the lattice P spans, fixed by
    A1**stabilization; the two indices describe the common cover over
    each suspension. Compared field by field, and not hashable.
    """

    __slots__ = _fields = (
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
    __hash__ = None

    def __init__(
        self,
        base_a: Mat2,
        base_b: Mat2,
        power_a: int,
        power_b: int,
        intertwiner: Mat2,
        intertwiner_det: int,
        sublattice: Lattice2,
        stabilization: int,
        index_over_a: int,
        index_over_b: int,
    ):
        self.base_a = base_a
        self.base_b = base_b
        self.power_a = power_a
        self.power_b = power_b
        self.intertwiner = intertwiner
        self.intertwiner_det = intertwiner_det
        self.sublattice = sublattice
        self.stabilization = stabilization
        self.index_over_a = index_over_a
        self.index_over_b = index_over_b

    def __repr__(self):
        # short: the full entries could pass the int/str digit limit
        return (
            f"CommensurabilityCertificate(powers=({self.power_a}, {self.power_b}), "
            f"det={self.intertwiner_det}, indices=({self.index_over_a}, "
            f"{self.index_over_b}))"
        )


class CommensurabilityVerdict(_Record):
    """Outcome of are_commensurable, compared by identity.

    squarefree_a and squarefree_b represent the square classes of
    D_a = t_a^2 - 4 and D_b = t_b^2 - 4 (traces after the squaring of
    a trace < -2 input), and are equal exactly when the verdict is
    positive. On a negative verdict they are D_a and D_b themselves;
    on a positive one both are gcd(D_a, D_b), since D_a / gcd and
    D_b / gcd are then squares. They are not the least (squarefree)
    representatives, which would need factoring.
    """

    __slots__ = _fields = (
        "commensurable",
        "minimal_exponents",
        "squarefree_a",
        "squarefree_b",
        "certificate",
        "squared_a",
        "squared_b",
    )
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        commensurable: bool,
        minimal_exponents: tuple | None,
        squarefree_a: int,
        squarefree_b: int,
        certificate: CommensurabilityCertificate | None,
        squared_a: bool = False,
        squared_b: bool = False,
    ):
        self.commensurable = commensurable
        self.minimal_exponents = minimal_exponents
        self.squarefree_a = squarefree_a
        self.squarefree_b = squarefree_b
        self.certificate = certificate
        self.squared_a = squared_a
        self.squared_b = squared_b


def _normalize_input(m):
    """Hyperbolic matrix plus a squared? flag; trace < -2 is squared."""
    if m.det() != 1:
        raise NotHyperbolic(f"determinant is {m.det()}, need 1")
    t = m.trace()
    if t > 2:
        return HyperbolicMatrix.from_mat(m), False
    if t < -2:
        return HyperbolicMatrix.from_mat(mat_mul(m, m)), True
    raise NotHyperbolic(f"|trace| = {abs(t)} is not > 2")


def _rank(p):
    entries = p.entries()
    sizes = tuple(abs(e) for e in entries)
    return max(sizes), sum(sizes), sizes, entries


def find_intertwiner(a1, b1):
    """Nonsingular integer P with a1 P = P b1, of least |det P|.

    a1 and b1 are any integer pair of one trace t and one determinant
    delta with t^2 - 4 delta not a square: two hyperbolic matrices of
    one trace, such as a**i and b**j, or the input-size pair that
    are_commensurable takes in their place. The solutions are
    P = x K1 + y K2 for a lattice basis (K1, K2), and
    det P = f(x, y) = alpha x^2 + beta xy + gamma y^2 is an indefinite
    form of discriminant disc > 0 with no zero (a singular nonzero P
    would give a rational eigenvector of a1, but t^2 - 4 delta is not a
    square). Every value m of f at a primitive (x, y) with
    |m| < sqrt(disc)/2 is the first coefficient of a reduced form in
    the cycle of f, so it is met at a convergent within one period of
    the continued fraction of the root (-beta + sqrt(disc)) / 2 alpha;
    and min |f| <= sqrt(disc/5) (Korkine-Zolotarev), so the least |f|
    over those convergents is the least |det| of every intertwiner.

    Ties are broken deterministically (least max-entry, then sum, then
    lexicographic, after sign normalization), so the result does not
    depend on the kernel basis. The minimal (x, y) are the orbits of
    those convergents under the period's automorph E (det 1,
    eigenvalues lam > 1 and 1/lam, f(E v) = f(v)). Along an orbit each
    entry of P is A lam^n + B lam^-n, whose absolute value falls, then
    rises, and so does their maximum; so the walk from each minimal
    convergent in both directions stops at the first strict rise, past
    which no point ties the least max-entry.
    """
    k1, k2 = intertwiner_lattice(a1, b1)

    def combine(x, y):
        p = Mat2(*(x * e1 + y * e2 for e1, e2 in zip(k1.entries(), k2.entries())))
        return p if p.entries() > (0, 0, 0, 0) else -p  # first nonzero entry > 0

    alpha, gamma = k1.det(), k2.det()
    beta = combine(1, 1).det() - alpha - gamma
    w, period = reduction_cycle(-beta, 2 * alpha, -2 * gamma)
    w_start, convergents = w, []
    for quo in period:
        w = mat_mul(w, Mat2(quo, 1, 1, 0))
        convergents.append((w.a, w.c))
    auto = mat_mul(w, w_start.inverse())
    least = min(abs(combine(x, y).det()) for x, y in convergents)
    candidates = []
    for e in (auto, auto.inverse()):
        for x, y in convergents:
            p = step = combine(x, y)
            while abs(p.det()) == least and _rank(step)[0] <= _rank(p)[0]:
                candidates.append(step)
                p = step
                x, y = e.a * x + e.b * y, e.c * x + e.d * y
                step = combine(x, y)
    return min(candidates, key=_rank)


def stabilization_exponent(a1, lat, k_max):
    """Least k >= 1 with a1**k fixing the lattice (orbits are cycles,
    so iterating the image until it returns suffices). Precondition:
    k_max at least the number of index-n sublattices."""
    cur = lat
    for k in range(1, _as_int(k_max) + 1):
        cur = lattice_image(a1, cur)
        if cur == lat:
            return k
    raise ValueError(f"no return within k_max={k_max}; bound below the orbit size")


def _shared_units(t_a, t_b):
    """(D0, u_a, u_b) when t_a^2 - 4 and t_b^2 - 4 share a square class,
    else None: D0 = gcd of the two, u = isqrt((t^2 - 4) / D0), so the
    expanding eigenvalue of a trace-t matrix is (t + u sqrt(D0)) / 2."""
    disc_a, disc_b = t_a * t_a - 4, t_b * t_b - 4
    product = disc_a * disc_b
    if isqrt(product) ** 2 != product:
        return None
    shared = gcd(disc_a, disc_b)
    return shared, isqrt(disc_a // shared), isqrt(disc_b // shared)


def _input_size_pair(a, b, u_a, u_b):
    """X = 2 u_b a and Y = (u_b t_a - u_a t_b) I + 2 u_a b.

    When lam_a**i == lam_b**j, where lam = (t + u sqrt(D0)) / 2 is the
    expanding eigenvalue of each base (see _shared_units), the integer
    solutions P of X P = P Y are exactly those of a**i P = P b**j.

    Proof. On b's eigenvectors Y acts by
    u_b t_a - u_a t_b + u_a (t_b +- u_b sqrt(D0)) = 2 u_b lam_a and
    2 u_b / lam_a, as X does on a's; so X and Y share one spectrum of
    two distinct irrational eigenvalues (and one trace, as
    intertwiner_lattice needs), and their rational solutions form a
    2-dimensional space. So do those of a**i P = P b**j, for the same
    reason. If X P = P Y then a P = P c with c = Y / (2 u_b) = r I + s b,
    r and s rational, which acts on b's expanding and contracting
    eigenvectors by lam_a and 1/lam_a. So c**i acts there as b**j does,
    by lam_a**i = lam_b**j and its inverse, hence c**i = b**j and
    a**i P = P c**i = P b**j. The first space lies in the second and
    has the same dimension, so the two are equal, and so are their
    integer points. For a nonsingular P both say that P^-1 a P is the
    element c of Q[b] whose eigenvalue on b's expanding eigenvector is
    lam_a.
    """
    x = Mat2(2 * u_b * a.a, 2 * u_b * a.b, 2 * u_b * a.c, 2 * u_b * a.d)
    shift = u_b * a.trace() - u_a * b.trace()
    y = Mat2(shift + 2 * u_a * b.a, 2 * u_a * b.b, 2 * u_a * b.c, shift + 2 * u_a * b.d)
    return x, y


def _unit_mul(x, y, d0):
    """Product of units (t + u sqrt(d0)) / 2 given as pairs (t, u)."""
    (t1, u1), (t2, u2) = x, y
    return (t1 * t2 + d0 * u1 * u2) // 2, (t1 * u2 + t2 * u1) // 2


def _least_exponents(lam_a, lam_b, d0):
    """Least (i, j) >= (1, 1) with lam_a**i == lam_b**j.

    lam = (t, u) stands for (t + u sqrt(d0)) / 2, u = isqrt((t^2 - 4) / d0),
    the expanding eigenvalue of a trace-t matrix: a unit of norm 1 in the
    order of discriminant d0, where the units > 1 are the powers of one
    fundamental unit. Euclid on their exponents: divide the larger unit
    by the largest power of the smaller that does not pass it (found by
    repeated squaring), carrying the exponent vector (x, y) of each
    remainder lam_a**x * lam_b**y. For units >= 1, larger trace means
    larger unit. The remainder 1 = (2, 0) has a primitive vector
    (x, y) with lam_a**x == lam_b**-y, which is +-(i, -j).
    """
    big, small = (lam_a, (1, 0)), (lam_b, (0, 1))
    if big[0][0] < small[0][0]:
        big, small = small, big
    while small[0] != (2, 0):
        squares = [small]
        while True:
            unit, (x, y) = squares[-1]
            square = _unit_mul(unit, unit, d0)
            if square[0] > big[0][0]:
                break
            squares.append((square, (2 * x, 2 * y)))
        rem, (rx, ry) = big
        for (t, u), (x, y) in reversed(squares):
            if t <= rem[0]:
                rem, rx, ry = _unit_mul(rem, (t, -u), d0), rx - x, ry - y
        big, small = small, (rem, (rx, ry))
    x, y = small[1]
    return abs(x), abs(y)


def are_commensurable(a, b):
    """Decide commensurability of the suspensions of a and b.

    Inputs need det 1 and |trace| > 2; a trace < -2 input is replaced
    by its square (flagged in the verdict). Negative verdicts rest on
    t_a^2 - 4 and t_b^2 - 4 lying in distinct square classes (their
    product is not a perfect square). Positive ones take the least
    exponent pair (i, j) with trace(a**i) == trace(b**j), of which
    every other such pair is a multiple, from a Euclid on the expanding
    eigenvalues as units of the order of discriminant
    gcd(t_a^2 - 4, t_b^2 - 4), after O(bits) unit products; and carry
    a full certificate, whose intertwiner comes from the input-size
    pair, so that no power of a or b is formed.
    """
    a1, squared_a = _normalize_input(a)
    b1, squared_b = _normalize_input(b)
    t_a, t_b = a1.trace(), b1.trace()
    units = _shared_units(t_a, t_b)
    if units is None:
        return CommensurabilityVerdict(
            False, None, t_a * t_a - 4, t_b * t_b - 4, None, squared_a, squared_b
        )
    shared, u_a, u_b = units
    i, j = _least_exponents((t_a, u_a), (t_b, u_b), shared)
    p = find_intertwiner(*_input_size_pair(a1, b1, u_a, u_b))
    certificate = CommensurabilityCertificate(
        base_a=a1,
        base_b=b1,
        power_a=i,
        power_b=j,
        intertwiner=p,
        intertwiner_det=p.det(),
        sublattice=hnf(p),
        stabilization=1,  # by theorem, see verify_certificate
        index_over_a=i * abs(p.det()),
        index_over_b=j,
    )
    return CommensurabilityVerdict(
        True, (i, j), shared, shared, certificate, squared_a, squared_b
    )


def _powers_meet(lam_a, lam_b, d0, power_a, power_b):
    """lam_a**power_a == lam_b**power_b for units > 1 as in
    _least_exponents, by a Euclid on the units that the exponents guide.

    With g = gcd(power_a, power_b), the powers meet exactly when
    lam_a = eta**(power_b / g) and lam_b = eta**(power_a / g) for a unit
    eta. The unit of exponent e is divided by the q-th power of the unit
    of exponent f <= e, q = e // f, leaving eta**(e - q f) if they meet:
    so a partial power past the dividend, or a remainder not in
    (1, divisor) while e - q f > 0, rejects; at e - q f = 0 the
    remainder, lam_a**x lam_b**y for a primitive (x, y) with
    x power_b + y power_a = 0, is 1 = (2, 0) exactly when they meet. The
    units strictly decrease, so the steps are bounded by their bits.
    """
    g = gcd(power_a, power_b)
    big, small = (lam_a, power_b // g), (lam_b, power_a // g)
    if big[1] < small[1]:
        big, small = small, big
    while True:
        (unit, e), (divisor, f) = big, small
        q, r = divmod(e, f)
        power = divisor
        for bit in bin(q)[3:]:  # repeated squaring; partial powers increase
            if power[0] > unit[0]:
                return False
            power = _unit_mul(power, power, d0)
            if bit == "1":
                power = _unit_mul(power, divisor, d0)
        if power[0] > unit[0]:
            return False
        rem = _unit_mul(unit, (power[0], -power[1]), d0)  # >= 1, as power <= unit
        if r == 0:
            return rem == (2, 0)
        if not 2 < rem[0] < divisor[0]:
            return False
        big, small = small, (rem, r)


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
