"""Conjugacy of hyperbolic matrices in SL2(Z) via cyclic RL-words.

Every matrix with det 1 and trace > 2 is conjugate to a product
R^r1 L^l1 ... R^rn L^ln with all exponents >= 1, where

    R = (1 1; 0 1),   L = (1 0; 1 1),

and the pair sequence is unique up to cyclic rotation. Two hyperbolic
matrices are conjugate in SL2(Z) exactly when their canonical
(lexicographically least) rotations agree, found by a two-pointer scan,
which turns the conjugacy problem into word comparison. The word is read
off the period of the continued fraction of the matrix's expanding fixed
point (Katok and Ugarcovici, "Symbolic dynamics for the modular
surface", 2007): each partial quotient is one whole R^k or L^k run,
found by one integer division. But each division is on integers of about
the matrix's bit size, and the cycle takes two per pair of the word's
period, so the work is quadratic in the length of a word that repeats no
shorter period (32,002 steps on a 16,000-pair word).

The division of units, the expanding eigenvalues, lives here
(_unit_divmod): it counts the repetitions of a word's period,
commensurability steps with it the Euclid that finds the least common
power (_least_exponents), and verify the check of a certificate's
stated powers (_powers_meet).

SL2(Z) conjugacy is equivalence of the suspensions through an
orientation-preserving torus map, and that is all are_equivalent
decides. A conjugator of det -1 is not looked for: sigma = (0 1; 1 0)
conjugates (13 10; 9 7), of word R L^2 R^3 L, to (7 9; 10 13), of word
R L R^2 L^3, yet are_equivalent returns a negative verdict on them.
"""

from functools import reduce
from math import gcd, isqrt
from operator import index as _as_int

from .linalg import HyperbolicMatrix, Mat2, _Record, _int_text, mat_mul

__all__ = [
    "RLWord",
    "EquivalenceVerdict",
    "rl_word",
    "reduction_cycle",
    "evaluate_word",
    "are_equivalent",
]

class RLWord(_Record):
    """Positive word in R and L, stored as ((r1, l1), ..., (rn, ln))."""

    __slots__ = _fields = ("pairs",)

    def __init__(self, pairs):
        pairs = tuple((_as_int(r), _as_int(l)) for r, l in pairs)
        if not pairs:
            raise ValueError("word must have at least one (r, l) pair")
        for r, l in pairs:
            if r < 1 or l < 1:
                raise ValueError(f"exponents must be >= 1, got ({_int_text(r)}, {_int_text(l)})")
        super().__init__(pairs)

    def __str__(self):
        return " ".join(f"R^{_int_text(r)} L^{_int_text(l)}" for r, l in self.pairs)


class EquivalenceVerdict(_Record):
    """Outcome of a conjugacy decision, compared by identity.

    equivalent is a bool. If it is true, `conjugator` is a Mat2 Q with
    det 1 and Q^-1 A Q = B; otherwise conjugator is None and the
    canonical words differ. canonical_a and canonical_b are RLWord
    values.
    """

    __slots__ = _fields = ("equivalent", "conjugator", "canonical_a", "canonical_b")
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _block(r, l):
    """R^r L^l = (r 1; 1 0)(l 1; 1 0): one word pair, or two quotients."""
    return Mat2(1 + r * l, r, l, 1)


def evaluate_word(word):
    """Matrix value of a word, the product of one _block per pair; det 1,
    trace > 2, entries > 0."""
    if not isinstance(word, RLWord):
        word = RLWord(word)
    return reduce(mat_mul, (_block(r, l) for r, l in word.pairs))


def _least_rotation(pairs):
    """Least k such that pairs[k:] + pairs[:k] is the least rotation, by a
    two-pointer scan: best start i, challenger j > i, shared prefix k. At
    the first differing pair the side with the greater pair loses its start
    and the k after it, so every start below j but i is beaten; i is the
    first least rotation once j reaches n, or once the two agree for n pairs
    (each later start then repeats one below j). i + j + k rises each step
    and stays below 3n, so the scan makes fewer than 6n pair comparisons."""
    n = len(pairs)
    i, j, k = 0, 1, 0
    while j < n and k < n:
        x, y = pairs[(i + k) % n], pairs[(j + k) % n]
        if x == y:
            k += 1
            continue
        if x > y:
            i, j = j, max(j, i + k) + 1
        else:
            j += k + 1
        k = 0
    return i


def reduction_cycle(a, b, c):
    """Continued fraction of the first root x = (-b + sqrt(disc)) / 2a of
    the binary quadratic form a x^2 + b xy + c y^2, disc = b^2 - 4ac.

    Needs disc > 0 not a square (so a != 0), or raises ValueError. Steps
    x_i = (n_i 1; 1 0) . x_{i+1}, n_i = floor(x_i), in det-1 blocks
    _block(n_i, n_{i+1}).
    Returns (w, blocks, least_at): det w is 1 and x = w . y (Moebius
    action) for the first reduced complete quotient y (y > 1, conjugate
    in (-1, 0)) after whole blocks; blocks is the tuple of y's quotients
    as (r, l) pairs up to its first return, its shortest period of even
    length; least_at is the tuple of the indices k of the period's
    convergents (2i after block i's r, 2i + 1 after its l) where the
    form's |f| is least: f is -q/2 at even k and q/2 at odd k (Lagrange),
    q > 0 the state after quotient k below, so q alone is compared.
    """
    # x_i = (p + sqrt(disc)) / q with disc = p^2 + q q_prev
    p, q, q_prev = -b, 2 * a, -2 * c
    disc = p * p + q * q_prev
    s = isqrt(max(disc, 0))
    if s * s >= disc:
        raise ValueError(f"discriminant {_int_text(disc)} is not a positive non-square")

    def step():
        nonlocal p, q, q_prev
        quo = (p + s + (q < 0)) // q  # floor, as sqrt(disc) is irrational
        p_next = quo * q - p
        p, q, q_prev = p_next, q_prev + quo * (p - p_next), q
        return quo

    w = Mat2.identity()
    while not (p <= s and s - p < q <= s + p):
        w = mat_mul(w, _block(step(), step()))
    # least starts at the start state's q, which the period's last convergent has
    start, quotients, least, least_at = (p, q), [], q, []
    while not quotients or len(quotients) % 2 or (p, q) != start:
        quotients.append(step())
        if q <= least:
            if q < least:
                least, least_at = q, []
            least_at.append(len(quotients) - 1)
    return w, tuple(zip(quotients[::2], quotients[1::2])), tuple(least_at)


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


def _unit_mul(x, y, d0):
    """Product of units (t + u sqrt(d0)) / 2 given as pairs (t, u)."""
    (t1, u1), (t2, u2) = x, y
    return (t1 * t2 + d0 * u1 * u2) // 2, (t1 * u2 + t2 * u1) // 2


def _unit_divmod(unit, divisor, d0):
    """(q, rem): the largest q with divisor**q <= unit, rem = unit / divisor**q,
    for units (t, u) = (t + u sqrt(d0)) / 2 of norm 1 as _shared_units
    gives them, unit >= 1 and divisor > 1. Larger trace means larger unit,
    so the squares divisor**(2**k) up to the unit and then q's bits from
    the top take O(bits of unit) unit products."""
    squares = [divisor]
    while (square := _unit_mul(squares[-1], squares[-1], d0))[0] <= unit[0]:
        squares.append(square)
    q, rem = 0, unit
    for t, u in reversed(squares):
        q *= 2
        if t <= rem[0]:
            q, rem = q + 1, _unit_mul(rem, (t, -u), d0)
    return q, rem


def rl_word(m):
    """Canonical cyclic RL-word of a hyperbolic matrix, with witness.

    Returns (word, witness) where witness has det 1 and
    witness^-1 m witness == evaluate_word(word). Raises NotHyperbolic
    for det != 1 or trace <= 2.

    Expands the expanding fixed point x = (a - d + sqrt(t^2 - 4)) / 2c,
    the first root of m's form (c, d - a, -b), with reduction_cycle,
    which gives x = W . y with det W = 1 and y reduced. A reduced y has
    a purely periodic expansion, y is the expanding fixed point of the
    period's value, and that value generates the positive-trace
    stabiliser of y in SL2(Z), so W^-1 m W is a power value**reps of it,
    and each (r, l) block of the period is one pair of the word. As
    units, lam_m = lam_value**reps, so reps is the quotient of
    _unit_divmod(lam_m, lam_value), with remainder 1, and value**reps is
    never formed.
    """
    HyperbolicMatrix.from_mat(m)
    witness, pairs, _ = reduction_cycle(m.c, m.d - m.a, -m.b)
    best = _least_rotation(pairs)
    word = RLWord(pairs[best:] + pairs[:best])
    value = evaluate_word(pairs[best:])
    if best:  # the rotated-off prefix moves into the witness
        prefix = evaluate_word(pairs[:best])
        witness, value = mat_mul(witness, prefix), mat_mul(value, prefix)
    tau, t = value.trace(), m.trace()
    shared, u_value, u_m = _shared_units(tau, t)
    reps, rem = _unit_divmod((t, u_m), (tau, u_value), shared)
    # conj commutes with value, so it is +-value**k; its trace t > 2 and
    # lam_m = lam_value**reps give k = +-reps, and value**-reps has b < 0
    assert rem == (2, 0) and (conj := mat_mul(mat_mul(witness.inverse(), m), witness)).b > 0
    assert mat_mul(conj, value) == mat_mul(value, conj)
    word.pairs *= reps  # the period, checked once above, repeated
    return word, witness


def are_equivalent(a, b):
    """Decide SL2(Z) conjugacy of two hyperbolic matrices: equivalence of
    their suspensions through an orientation-preserving torus map (a
    det -1 conjugacy gives a negative verdict; see the module docstring).

    Positive verdicts carry an exact det-1 conjugator assembled from
    the two witnesses; equality of canonical words is the criterion.
    """
    word_a, wit_a = rl_word(a)
    word_b, wit_b = rl_word(b)
    if word_a.pairs != word_b.pairs:
        return EquivalenceVerdict(False, None, word_a, word_b)
    q = mat_mul(wit_a, wit_b.inverse())
    assert mat_mul(mat_mul(q.inverse(), a), q) == b
    return EquivalenceVerdict(True, q, word_a, word_b)
