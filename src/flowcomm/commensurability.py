"""Commensurability of torus-automorphism suspensions, with certificates.

Two suspensions are commensurable exactly when some powers of their
monodromies share a trace. Power traces satisfy the second-order
recurrence t_{i+1} = t_1 t_i - t_{i-1} (t_0 = 2) and the discriminant
identity t_i^2 - 4 = (t_1^2 - 4) u_i^2, so the square class of
t^2 - 4 (its value up to square factors) is a complete
commensurability invariant: one class guarantees a common power
trace, distinct classes rule one out. D_a and D_b lie in one class
exactly when D_a D_b is a perfect square, which one isqrt decides
without factoring either. Positive verdicts are backed by a
CommensurabilityCertificate whose data (an integer intertwiner, the
sublattice it spans, covering indices) is re-checkable from scratch
by verify_certificate.
"""

from math import gcd, isqrt
from operator import index as _as_int

from .conjugacy import reduction_cycle
from .errors import (
    ComputationLimit,
    ExponentMismatch,
    NotHyperbolic,
    StepLimitExceeded,
)
from .linalg import (
    HyperbolicMatrix,
    Mat2,
    hnf,
    intertwiner_lattice,
    lattice_image,
    mat_mul,
    mat_pow,
)

__all__ = [
    "TraceSequence",
    "CommensurabilityCertificate",
    "CommensurabilityVerdict",
    "trace_power",
    "are_commensurable",
    "find_intertwiner",
    "stabilization_exponent",
    "build_certificate",
    "verify_certificate",
]

DEFAULT_MAX_STEPS = 10_000

# bits that verify_certificate lets a power of a document's base reach,
# estimated as power * bit length of the base trace (the entries of
# m**k have about k * log2(trace) bits)
MAX_POWER_BITS = 2**20


class TraceSequence:
    """Lazily extended traces of powers: t_0 = 2, t_1 = trace(A).

    Strictly increasing from index 1 on whenever t_1 > 2.
    """

    __slots__ = ("_values",)

    def __init__(self, base_trace):
        base_trace = _as_int(base_trace)
        if base_trace <= 2:
            raise ValueError(f"base trace must be > 2, got {base_trace}")
        self._values = [2, base_trace]

    def __getitem__(self, i):
        i = _as_int(i)
        if i < 0:
            raise IndexError("negative power")
        values = self._values
        while len(values) <= i:
            values.append(values[1] * values[-1] - values[-2])
        return values[i]


def trace_power(m, i):
    """trace(m**i) via the trace recurrence, without forming the power."""
    i = _as_int(i)
    if i < 0:
        raise ValueError("power must be >= 0")
    if i == 0:
        return 2
    t = m.trace()
    prev, cur = 2, t
    for _ in range(i - 1):
        prev, cur = cur, t * cur - prev
    return cur


class CommensurabilityCertificate:
    """Re-checkable witness that base_a**power_a and base_b**power_b
    generate a common finite cover.

    intertwiner P satisfies A1 P = P B1 (A1, B1 the stated powers);
    sublattice is the canonical form of the lattice P spans, fixed by
    A1**stabilization; the two indices describe the common cover over
    each suspension.
    """

    __slots__ = (
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

    def __init__(
        self,
        base_a,
        base_b,
        power_a,
        power_b,
        intertwiner,
        intertwiner_det,
        sublattice,
        stabilization,
        index_over_a,
        index_over_b,
    ):
        self.base_a = base_a
        self.base_b = base_b
        self.power_a = _as_int(power_a)
        self.power_b = _as_int(power_b)
        self.intertwiner = intertwiner
        self.intertwiner_det = _as_int(intertwiner_det)
        self.sublattice = sublattice
        self.stabilization = _as_int(stabilization)
        self.index_over_a = _as_int(index_over_a)
        self.index_over_b = _as_int(index_over_b)

    def __eq__(self, other):
        if not isinstance(other, CommensurabilityCertificate):
            return NotImplemented
        return all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__
        )

    def __repr__(self):
        return (
            f"CommensurabilityCertificate(powers=({self.power_a}, {self.power_b}), "
            f"det={self.intertwiner_det}, indices=({self.index_over_a}, "
            f"{self.index_over_b}))"
        )


class CommensurabilityVerdict:
    """Outcome of are_commensurable.

    squarefree_a and squarefree_b represent the square classes of
    D_a = t_a^2 - 4 and D_b = t_b^2 - 4 (traces after the squaring of
    a trace < -2 input), and are equal exactly when the verdict is
    positive. On a negative verdict they are D_a and D_b themselves;
    on a positive one both are gcd(D_a, D_b), since D_a / gcd and
    D_b / gcd are then squares. They are not the least (squarefree)
    representatives, which would need factoring.
    """

    __slots__ = (
        "commensurable",
        "minimal_exponents",
        "squarefree_a",
        "squarefree_b",
        "certificate",
        "squared_a",
        "squared_b",
    )

    def __init__(
        self,
        commensurable,
        minimal_exponents,
        squarefree_a,
        squarefree_b,
        certificate,
        squared_a=False,
        squared_b=False,
    ):
        self.commensurable = commensurable
        self.minimal_exponents = minimal_exponents
        self.squarefree_a = squarefree_a
        self.squarefree_b = squarefree_b
        self.certificate = certificate
        self.squared_a = squared_a
        self.squared_b = squared_b

    def __repr__(self):
        return (
            f"CommensurabilityVerdict(commensurable={self.commensurable}, "
            f"minimal_exponents={self.minimal_exponents}, "
            f"squarefree=({self.squarefree_a}, {self.squarefree_b}))"
        )


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

    The solutions are P = x K1 + y K2 for a lattice basis (K1, K2), and
    det P = f(x, y) = alpha x^2 + beta xy + gamma y^2 is an indefinite
    form of discriminant disc > 0 with no zero (a singular nonzero P
    would give a rational eigenvector of a1, but t^2 - 4 is never a
    square for t > 2). Every value m of f at a primitive (x, y) with
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


def build_certificate(a, b, power_a, power_b):
    """Assemble the commensurability certificate for given exponents.

    Raises ExponentMismatch unless trace(a**power_a) == trace(b**power_b).
    The stabilization exponent is 1 by theorem: with A1 = a**power_a
    and B1 = b**power_b, A1 P = P B1 and B1 Z^2 = Z^2 give
    A1 (P Z^2) = P B1 Z^2 = P Z^2, so A1 itself fixes the lattice.
    """
    a = a if isinstance(a, HyperbolicMatrix) else HyperbolicMatrix.from_mat(a)
    b = b if isinstance(b, HyperbolicMatrix) else HyperbolicMatrix.from_mat(b)
    power_a = _as_int(power_a)
    power_b = _as_int(power_b)
    if power_a < 1 or power_b < 1:
        raise ValueError("powers must be >= 1")
    if trace_power(a, power_a) != trace_power(b, power_b):
        raise ExponentMismatch(
            f"trace(a^{power_a}) = {trace_power(a, power_a)} != "
            f"trace(b^{power_b}) = {trace_power(b, power_b)}"
        )
    a1 = mat_pow(a, power_a)
    b1 = mat_pow(b, power_b)
    p = find_intertwiner(a1, b1)
    det_p = p.det()
    return CommensurabilityCertificate(
        base_a=a,
        base_b=b,
        power_a=power_a,
        power_b=power_b,
        intertwiner=p,
        intertwiner_det=det_p,
        sublattice=hnf(p),
        stabilization=1,
        index_over_a=power_a * abs(det_p),
        index_over_b=power_b,
    )


def are_commensurable(a, b, max_steps=DEFAULT_MAX_STEPS):
    """Decide commensurability of the suspensions of a and b.

    Inputs need det 1 and |trace| > 2; a trace < -2 input is replaced
    by its square (flagged in the verdict). Negative verdicts rest on
    t_a^2 - 4 and t_b^2 - 4 lying in distinct square classes (their
    product is not a perfect square); positive ones merge the two
    increasing trace sequences to their first common value, which
    gives the unique componentwise-minimal exponent pair, and carry a
    full certificate.
    """
    a1, squared_a = _normalize_input(a)
    b1, squared_b = _normalize_input(b)
    disc_a = a1.trace() ** 2 - 4
    disc_b = b1.trace() ** 2 - 4
    product = disc_a * disc_b
    if isqrt(product) ** 2 != product:
        return CommensurabilityVerdict(
            False, None, disc_a, disc_b, None, squared_a, squared_b
        )
    shared = gcd(disc_a, disc_b)
    seq_a = TraceSequence(a1.trace())
    seq_b = TraceSequence(b1.trace())
    i, j = 1, 1
    steps = 0
    while seq_a[i] != seq_b[j]:
        if seq_a[i] < seq_b[j]:
            i += 1
        else:
            j += 1
        steps += 1
        if steps > max_steps:
            raise StepLimitExceeded(
                f"no common power trace within {max_steps} merge steps",
                partial_a=tuple(seq_a[k] for k in range(1, i + 1)),
                partial_b=tuple(seq_b[k] for k in range(1, j + 1)),
            )
    certificate = build_certificate(a1, b1, i, j)
    return CommensurabilityVerdict(
        True, (i, j), shared, shared, certificate, squared_a, squared_b
    )


_CLAUSES_OK = (True, "ok")


def verify_certificate(cert):
    """Re-check a certificate from scratch; (True, "ok") or (False, clause).

    Uses only the base matrix operations (powers, products, canonical
    lattice forms, lattice membership), none of the search machinery that
    produced the certificate. Raises ComputationLimit, before any
    power is formed, when a power would pass MAX_POWER_BITS.
    """
    try:
        HyperbolicMatrix.from_mat(cert.base_a)
    except NotHyperbolic:
        return False, "base_a_hyperbolic"
    try:
        HyperbolicMatrix.from_mat(cert.base_b)
    except NotHyperbolic:
        return False, "base_b_hyperbolic"
    if cert.power_a < 1 or cert.power_b < 1:
        return False, "powers_positive"
    for name, base, power in (
        ("power_a", cert.base_a, cert.power_a),
        ("power_b", cert.base_b, cert.power_b),
    ):
        bits = power * base.trace().bit_length()
        if bits > MAX_POWER_BITS:
            raise ComputationLimit(
                f"{name} asks for a power of about {bits} bits, past the "
                f"verifier's budget of {MAX_POWER_BITS} bits"
            )
    a1 = mat_pow(cert.base_a, cert.power_a)
    b1 = mat_pow(cert.base_b, cert.power_b)
    if a1.trace() != b1.trace():
        return False, "power_traces_equal"
    p = cert.intertwiner
    if mat_mul(a1, p) != mat_mul(p, b1):
        return False, "intertwining_identity"
    if p.det() == 0:
        return False, "intertwiner_nonsingular"
    if cert.intertwiner_det != p.det():
        return False, "intertwiner_det_matches"
    if cert.sublattice != hnf(p):
        return False, "sublattice_matches_intertwiner"
    if cert.stabilization < 1:
        return False, "stabilization_positive"
    # the intertwining identity already makes a1 fix the lattice (see
    # build_certificate), so 1 is the only minimal exponent
    if cert.stabilization != 1:
        return False, "stabilization_minimal"
    # det a1 = 1, so a1 L inside L means a1 L = L
    image = mat_mul(a1, cert.sublattice.basis())
    if not (
        cert.sublattice.contains(image.a, image.c)
        and cert.sublattice.contains(image.b, image.d)
    ):
        return False, "lattice_stabilized"
    if cert.index_over_a != cert.power_a * abs(p.det()):
        return False, "index_over_a"
    if cert.index_over_b != cert.power_b:
        return False, "index_over_b"
    return _CLAUSES_OK
