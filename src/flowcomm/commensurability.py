"""Commensurability of torus-automorphism suspensions, with certificates.

Two suspensions are commensurable exactly when some powers of their
monodromies share a trace. Power traces satisfy the discriminant
identity t_i^2 - 4 = (t_1^2 - 4) u_i^2, so the square class of
t^2 - 4 (its value up to square factors) is a complete invariant: one
class guarantees a common power trace, distinct classes rule one out.
D_a and D_b lie in one class exactly when D_a D_b is a perfect square,
which one isqrt decides without factoring either. In one class the
expanding eigenvalues (t + u sqrt(D_0)) / 2, D_0 = gcd(D_a, D_b), are
units of the order of discriminant D_0, so a Euclid on those units,
not a search, finds the least common power. A positive verdict carries
a CommensurabilityCertificate (an integer intertwiner, the sublattice
it spans, covering indices). The decision forms no power of an input
but the square M M that replaces one of trace < -2: it takes the
intertwiner of a**i and b**j from a pair of matrices of the size of
the inputs (_input_size_pair).
"""

from operator import index as _as_int

from .conjugacy import _block, _shared_units, _unit_divmod, reduction_cycle
from .errors import NotHyperbolic
from .linalg import (
    HyperbolicMatrix,
    Mat2,
    _Record,
    _int_text,
    hnf,
    intertwiner_lattice,
    mat_mul,
)

__all__ = [
    "CommensurabilityCertificate",
    "CommensurabilityVerdict",
    "are_commensurable",
    "find_intertwiner",
    "stabilization_exponent",
]


class CommensurabilityCertificate(_Record):
    """Re-checkable witness that base_a**power_a and base_b**power_b
    generate a common finite cover.

    intertwiner P satisfies A1 P = P B1 (A1, B1 the stated powers);
    sublattice is the canonical form of the lattice P spans, fixed by
    A1**stabilization; the two indices describe the common cover over
    each suspension. derive computes the last five fields from the
    first five. base_a, base_b and intertwiner are Mat2 values,
    sublattice a Lattice2, the rest ints. Compared field by field, and
    not hashable.
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

    @classmethod
    def derive(cls, base_a, base_b, power_a, power_b, intertwiner):
        """The certificate of these five fields, the rest following: det P,
        hnf(P) (P nonsingular), 1, power_a |det P| and power_b."""
        det = intertwiner.det()
        # A1 P = P B1 and B1 Z^2 = Z^2 (A1, B1 the stated powers) give
        # A1 (P Z^2) = P Z^2, so 1 is the only minimal exponent
        derived = det, hnf(intertwiner), 1, power_a * abs(det), power_b
        return cls(base_a, base_b, power_a, power_b, intertwiner, *derived)


class CommensurabilityVerdict(_Record):
    """Outcome of are_commensurable, compared by identity.

    commensurable is a bool. On a positive verdict minimal_exponents is
    the least pair (i, j) of ints and certificate a
    CommensurabilityCertificate, else both are None. squared_a and
    squared_b are bools, true where that input was squared. The ints
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


def _normalize_input(m):
    """Hyperbolic matrix plus a squared? flag; trace < -2 is squared."""
    if m.det() != 1:
        raise NotHyperbolic(f"determinant is {_int_text(m.det())}, need 1")
    t = m.trace()
    if t > 2:
        return HyperbolicMatrix.from_mat(m), False
    if t < -2:
        return HyperbolicMatrix.from_mat(mat_mul(m, m)), True
    raise NotHyperbolic(f"|trace| = {abs(t)} is not > 2")


def _rank(entries):
    sizes = tuple(map(abs, entries))
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
    over those convergents is the least |det|. reduction_cycle returns
    the convergents that reach it, and P is formed only there and on the
    walk.

    Ties go to the least _rank (max-entry, then sum, then the tuple of
    absolute entries, then the signed entries, of P with its first
    nonzero entry positive), so P does not depend on the kernel basis.
    The minimal (x, y) are the orbits of those convergents under the
    period's automorph E (det 1, eigenvalues lam > 1 and 1/lam,
    f(E v) = f(v)). Along an orbit each entry of P is A lam^n +
    B lam^-n, whose absolute value falls, then rises, and so does their
    maximum; so the walk from each minimal convergent in both
    directions stops at the first strict rise, past which none ties.
    """
    k1, k2 = intertwiner_lattice(a1, b1)
    (u0, u1, u2, u3), (v0, v1, v2, v3) = k1.entries(), k2.entries()

    # steps are entry tuples (a, b, c, d); one Mat2 is built at the end
    def combine(x, y):
        p = (x * u0 + y * v0, x * u1 + y * v1, x * u2 + y * v2, x * u3 + y * v3)
        return p if p > (0, 0, 0, 0) else (-p[0], -p[1], -p[2], -p[3])  # first nonzero > 0

    alpha, gamma = k1.det(), k2.det()
    beta = u0 * v3 + v0 * u3 - u1 * v2 - v1 * u2  # the xy term of det(x K1 + y K2)
    w, blocks, least_at = reduction_cycle(alpha, beta, gamma)
    w_start, minimal = w, []
    for i, (r, l) in enumerate(blocks):
        w = mat_mul(w, _block(r, l))  # columns: the convergents after l and after r
        for k, x, y in (2 * i, w.b, w.d), (2 * i + 1, w.a, w.c):
            if k in least_at:
                minimal.append((x, y, combine(x, y)))
    auto = mat_mul(w, w_start.inverse())
    best = _rank(minimal[0][2])  # the walk's first step; min keeps the earlier on a tie
    for e in (auto, auto.inverse()):
        # |det| is constant along an orbit, so the walk compares max-entries only
        for x, y, step in minimal:
            top = max(map(abs, step))
            while (step_top := max(map(abs, step))) <= top:
                best = min(best, _rank(step))
                top = step_top
                x, y = e.a * x + e.b * y, e.c * x + e.d * y
                step = combine(x, y)
    return Mat2(*best[-1])


def stabilization_exponent(a1, lat, k_max):
    """Least k >= 1 with a1**k fixing the lattice (orbits are cycles,
    so iterating the image until it returns suffices). Preconditions:
    det a1 = +-1, and k_max at least the number of index-n sublattices."""
    cur = lat
    for k in range(1, _as_int(k_max) + 1):
        cur = hnf(mat_mul(a1, Mat2(cur.a, cur.b, 0, cur.d)))
        if cur == lat:
            return k
    raise ValueError(f"no return within k_max={k_max}; bound below the orbit size")


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


def _least_exponents(lam_a, lam_b, d0):
    """Least (i, j) >= (1, 1) with lam_a**i == lam_b**j.

    lam = (t, u) stands for (t + u sqrt(d0)) / 2, u = isqrt((t^2 - 4) / d0),
    the expanding eigenvalue of a trace-t matrix: a unit of norm 1 in the
    order of discriminant d0, where the units > 1 are the powers of one
    fundamental unit. Euclid on their exponents: divide one unit by the
    other (_unit_divmod; a first quotient 0 swaps them), carrying the
    exponent vector (x, y) of each remainder lam_a**x * lam_b**y. The
    remainder 1 = (2, 0) has a primitive vector (x, y) with
    lam_a**x == lam_b**-y, which is +-(i, -j).
    """
    big, small = (lam_a, (1, 0)), (lam_b, (0, 1))
    while small[0] != (2, 0):
        (unit, (x, y)), (divisor, (sx, sy)) = big, small
        q, rem = _unit_divmod(unit, divisor, d0)
        big, small = small, (rem, (x - q * sx, y - q * sy))
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
    certificate = CommensurabilityCertificate.derive(a1, b1, i, j, p)
    return CommensurabilityVerdict(
        True, (i, j), shared, shared, certificate, squared_a, squared_b
    )
