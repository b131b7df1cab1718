"""Conjugacy of hyperbolic matrices in SL2(Z) via cyclic RL-words.

Every matrix with det 1 and trace > 2 is conjugate to a product
R^r1 L^l1 ... R^rn L^ln with all exponents >= 1, where

    R = (1 1; 0 1),   L = (1 0; 1 1),

and the pair sequence is unique up to cyclic rotation. Two hyperbolic
matrices are conjugate in SL2(Z) exactly when their canonical
(lexicographically least) rotations agree, which turns the conjugacy
problem into word comparison. The word is read off the period of the
continued fraction of the matrix's expanding fixed point (Katok and
Ugarcovici, "Symbolic dynamics for the modular surface", 2007): each
partial quotient is one whole R^k or L^k block, found by one integer
division, so the work grows with the bit size of the matrix.
"""

from math import isqrt
from operator import index as _as_int

from .linalg import HyperbolicMatrix, Mat2, _Record, mat_mul

__all__ = [
    "R",
    "L",
    "RLWord",
    "EquivalenceVerdict",
    "rl_word",
    "reduction_cycle",
    "evaluate_word",
    "are_equivalent",
]

R = Mat2(1, 1, 0, 1)
L = Mat2(1, 0, 1, 1)


class RLWord:
    """Positive word in R and L, stored as ((r1, l1), ..., (rn, ln))."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        pairs = tuple((_as_int(r), _as_int(l)) for r, l in pairs)
        if not pairs:
            raise ValueError("word must have at least one (r, l) pair")
        for r, l in pairs:
            if r < 1 or l < 1:
                raise ValueError(f"exponents must be >= 1, got ({r}, {l})")
        self.pairs = pairs

    def exponents(self):
        """Flat exponent tuple (r1, l1, r2, l2, ...)."""
        return tuple(e for pair in self.pairs for e in pair)

    def __eq__(self, other):
        if not isinstance(other, RLWord):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"RLWord{self.exponents()!r}"

    def __str__(self):
        return " ".join(f"R^{r} L^{l}" for r, l in self.pairs)


class EquivalenceVerdict(_Record):
    """Outcome of a conjugacy decision, compared by identity.

    If equivalent, `conjugator` Q has det 1 and Q^-1 A Q = B;
    otherwise conjugator is None and the canonical words differ.
    """

    __slots__ = _fields = ("equivalent", "conjugator", "canonical_a", "canonical_b")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        equivalent: bool,
        conjugator: Mat2 | None,
        canonical_a: RLWord,
        canonical_b: RLWord,
    ):
        self.equivalent = equivalent
        self.conjugator = conjugator
        self.canonical_a = canonical_a
        self.canonical_b = canonical_b


def evaluate_word(word):
    """Matrix value of a word; always det 1, trace > 2, entries positive."""
    if not isinstance(word, RLWord):
        word = RLWord(word)
    result = Mat2.identity()
    for r, l in word.pairs:
        result = mat_mul(result, Mat2(1, r, 0, 1))
        result = mat_mul(result, Mat2(1, 0, l, 1))
    return result


def _least_rotation(pairs):
    return min(range(len(pairs)), key=lambda k: pairs[k:] + pairs[:k])


def reduction_cycle(p, q, q_prev):
    """Continued fraction of x = (p + sqrt(disc)) / q, disc = p^2 + q q_prev.

    Needs q != 0 and disc > 0 not a square. Returns (w, period): det w
    is 1 and x = w . y (Moebius action) for the first reduced complete
    quotient y (y > 1, conjugate in (-1, 0)) after an even number of
    steps x_i = (a_i 1; 1 0) . x_{i+1}, a_i = floor(x_i); period is one
    period of y's partial quotients, doubled when odd so that the
    product of the (a 1; 1 0) over it has det 1.
    """
    s = isqrt(p * p + q * q_prev)

    def step():
        nonlocal p, q, q_prev
        quo = (p + s + (q < 0)) // q  # floor, as sqrt(disc) is irrational
        p_next = quo * q - p
        p, q, q_prev = p_next, q_prev + quo * (p - p_next), q
        return quo

    w = Mat2.identity()
    parity = 0
    while parity or not (p <= s and s - p < q <= s + p):
        w = mat_mul(w, Mat2(step(), 1, 1, 0))
        parity ^= 1
    start = (p, q)
    period = [step()]
    while (p, q) != start:
        period.append(step())
    if len(period) % 2:  # an odd period closes with det -1
        period += period
    return w, period


def rl_word(m):
    """Canonical cyclic RL-word of a hyperbolic matrix, with witness.

    Returns (word, witness) where witness has det 1 and
    witness^-1 m witness == evaluate_word(word). Raises NotHyperbolic
    for det != 1 or trace <= 2.

    Expands the expanding fixed point x = (a - d + sqrt(t^2 - 4)) / 2c
    of m with reduction_cycle, which gives x = W . y with det W = 1
    and y reduced. A reduced y has a purely periodic expansion, y is
    the expanding fixed point of the period's value, and that value
    generates the positive-trace stabiliser of y in SL2(Z), so
    W^-1 m W is a power of it. Two consecutive quotients form one
    (r, l) pair, since (r 1; 1 0)(l 1; 1 0) = R^r L^l.
    """
    HyperbolicMatrix.from_mat(m)
    witness, period = reduction_cycle(m.a - m.d, 2 * m.c, 2 * m.b)
    pairs = tuple(zip(period[::2], period[1::2]))

    best = _least_rotation(pairs)
    if best:
        witness = mat_mul(witness, evaluate_word(pairs[:best]))
    pairs = pairs[best:] + pairs[:best]
    value = evaluate_word(pairs)
    power, reps = value, 1
    while power.trace() < m.trace():
        power = mat_mul(power, value)
        reps += 1
    assert mat_mul(mat_mul(witness.inverse(), m), witness) == power
    return RLWord(pairs * reps), witness


def are_equivalent(a, b):
    """Decide SL2(Z) conjugacy of two hyperbolic matrices.

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
