"""Unit tests for canonical RL-words and SL2(Z) conjugacy decisions."""

import random
import tracemalloc
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowcomm.conjugacy
from flowcomm import (
    Mat2,
    NotHyperbolic,
    RLWord,
    are_equivalent,
    evaluate_word,
    mat_mul,
    reduction_cycle,
    rl_word,
)
from flowcomm.conjugacy import _least_rotation, _shared_units, _unit_divmod
from helpers import (
    brute_force_conjugator,
    canonical_form,
    hyperbolic_corpus,
    least_rotation_by_min,
    random_unimodular,
    reduction_cycle_by_quotient,
    square_pow,
)


def conj(q, m):
    return mat_mul(mat_mul(q.inverse(), m), q)


class TestRLWord:
    def test_pairs(self):
        w = RLWord(((2, 1), (1, 3)))
        assert w.pairs == ((2, 1), (1, 3))

    def test_repr_evaluates_back(self):
        w = RLWord(((2, 1), (1, 3)))
        assert repr(w) == "RLWord(pairs=((2, 1), (1, 3)))"
        assert eval(repr(w)) == w

    def test_str(self):
        assert str(RLWord(((2, 1),))) == "R^2 L^1"
        assert str(RLWord(((2, 1), (2, 1)))) == "R^2 L^1 R^2 L^1"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RLWord(())

    def test_rejects_nonpositive_exponents(self):
        with pytest.raises(ValueError):
            RLWord(((0, 1),))
        with pytest.raises(ValueError):
            RLWord(((1, -2),))


class TestEvaluateWord:
    def test_single_pair(self):
        assert evaluate_word(RLWord(((2, 1),))) == Mat2(3, 2, 1, 1)
        assert evaluate_word(RLWord(((1, 1),))) == Mat2(2, 1, 1, 1)

    def test_accepts_raw_pairs(self):
        assert evaluate_word(((1, 1),)) == Mat2(2, 1, 1, 1)

    def test_concatenation_multiplies(self):
        u = RLWord(((2, 3),))
        v = RLWord(((1, 4),))
        uv = RLWord(u.pairs + v.pairs)
        assert evaluate_word(uv) == mat_mul(evaluate_word(u), evaluate_word(v))

    def test_always_hyperbolic(self):
        rng = random.Random(201)
        for _ in range(50):
            pairs = tuple(
                (rng.randint(1, 5), rng.randint(1, 5))
                for _ in range(rng.randint(1, 4))
            )
            m = evaluate_word(RLWord(pairs))
            assert m.det() == 1
            assert m.trace() > 2


class TestReductionCycle:
    """reduction_cycle expands the first root of a form in blocks of two
    quotients; it returns what the one-quotient-at-a-time reference
    returns, its quotients taken in pairs, and the convergents of the
    period at which the form's absolute value is least."""

    def test_odd_period_comes_back_doubled(self):
        # (1 + sqrt 5) / 2 = [1; 1, 1, ...] and 1 + sqrt 2 = [2; 2, 2, ...];
        # x^2 - xy - y^2 is -1 at (1, 1) and 1 at (2, 1), and x^2 - 2xy - y^2
        # is -1 at (2, 1) and 1 at (5, 2), so |f| is least at both
        assert reduction_cycle(1, -1, -1) == (Mat2.identity(), ((1, 1),), (0, 1))
        assert reduction_cycle(1, -2, -1) == (Mat2.identity(), ((2, 2),), (0, 1))

    def test_negative_leading_coefficient(self):
        # -x^2 + x + 1 has the first root (1 - sqrt 5) / 2 = [-1; 2, 1, 1, ...],
        # and (-1 1; 1 0)(2 1; 1 0) carries (1 + sqrt 5) / 2 to it; the form
        # is -1 at (-2, 3) and 1 at (-3, 5)
        assert reduction_cycle(-1, 1, 1) == (Mat2(-1, -1, 2, 1), ((1, 1),), (0, 1))

    def test_matches_the_quotient_reference(self):
        rng = random.Random(206)
        cases = 0
        while cases < 400:
            bound = rng.choice((20, 500))
            p, q, q_prev = (rng.randint(-bound, bound) for _ in range(3))
            disc = p * p + q * q_prev
            if q == 0 or disc <= 0 or isqrt(disc) ** 2 == disc:
                continue
            # (p + sqrt(disc)) / q is the first root of the form (q, -2p, -q_prev)
            w, blocks, least_at = reduction_cycle(q, -2 * p, -q_prev)
            w_ref, period, states = reduction_cycle_by_quotient(p, q, q_prev)
            assert (w.entries(), blocks) == (w_ref, tuple(zip(period[::2], period[1::2])))
            # |f| at the k-th convergent is the reference's k-th state
            least = min(states)
            assert least_at == tuple(k for k, state in enumerate(states) if state == least)
            cases += 1

    def test_least_at_is_where_the_form_is_least(self):
        """least_at is where a x^2 + b xy + c y^2 has its least absolute
        value over the period's convergents, each a column of w times a
        prefix of the blocks, and the form is negative at the even ones
        and positive at the odd ones: seeded forms of either sign of a,
        with odd and even periods."""
        rng = random.Random(207)
        signs, odd_periods, cases = set(), 0, 300
        for _ in range(cases):
            a, b, c = (rng.randint(-400, 400) for _ in range(3))
            disc = b * b - 4 * a * c
            if a == 0 or disc <= 0 or isqrt(disc) ** 2 == disc:
                continue
            w, blocks, least_at = reduction_cycle(a, b, c)
            values = []
            for r, l in blocks:
                w = mat_mul(w, Mat2(1 + r * l, r, l, 1))  # R^r L^l
                values += (a * x * x + b * x * y + c * y * y for x, y in ((w.b, w.d), (w.a, w.c)))
            least = min(map(abs, values))
            assert least_at == tuple(k for k, value in enumerate(values) if abs(value) == least)
            assert all((value > 0) == (k % 2 == 1) for k, value in enumerate(values))
            signs.add(a > 0)
            # a least period of odd length comes back doubled
            flat = [quo for block in blocks for quo in block]
            half = len(flat) // 2
            odd_periods += half % 2 == 1 and flat[:half] == flat[half:]
        assert signs == {True, False}
        assert 0 < odd_periods < cases

    def test_period_matches_sympy(self):
        """sympy's periodic continued fraction of the first root
        (-b + sqrt(disc)) / 2a, its period doubled when of odd length, is
        reduction_cycle's period up to rotation, on seeded forms with
        entries in [-12, 12], a != 0 and disc > 0 not a square (sympy
        takes about 10 ms a form, so the box is sampled)."""
        pytest.importorskip("sympy")
        from sympy.ntheory.continued_fraction import continued_fraction_periodic

        rng, cases = random.Random(208), 0
        while cases < 200:
            a, b, c = (rng.randint(-12, 12) for _ in range(3))
            disc = b * b - 4 * a * c
            if a == 0 or disc <= 0 or isqrt(disc) ** 2 == disc:
                continue
            period = list(continued_fraction_periodic(-b, 2 * a, disc)[-1])
            if len(period) % 2:
                period *= 2
            flat = [quo for block in reduction_cycle(a, b, c)[1] for quo in block]
            rotations = [period[k:] + period[:k] for k in range(len(period))]
            assert flat in rotations, (a, b, c)
            cases += 1

    def test_rl_word_memory_is_not_quadratic(self):
        """The cycle keeps no value per quotient: rl_word's peak memory on
        the seeded word (exponents 1 to 3) conjugated by a shear grows
        less than 8 times from 2,000 to 8,000 pairs, where one integer of
        the matrix's size per quotient made it about 15 times."""
        peaks = []
        for n in (2000, 8000):
            rng = random.Random(7)
            word = evaluate_word([(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(n)])
            m = conj(Mat2(1, 5, 0, 1), word)
            tracemalloc.start()
            try:
                rl_word(m)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 8 * peaks[0], peaks


class TestCanonicalForm:
    def test_rotation_examples(self):
        assert canonical_form(((2, 1), (1, 3))) == ((1, 3), (2, 1))
        assert canonical_form(((1, 3), (2, 1))) == ((1, 3), (2, 1))
        assert canonical_form(((1, 1),)) == ((1, 1),)

    def test_rotation_invariance(self):
        rng = random.Random(202)
        for _ in range(100):
            pairs = tuple(
                (rng.randint(1, 4), rng.randint(1, 4))
                for _ in range(rng.randint(1, 5))
            )
            n = len(pairs)
            k = rng.randrange(n)
            rotated = pairs[k:] + pairs[:k]
            assert canonical_form(pairs) == canonical_form(rotated)


class CountedPair(tuple):
    """An (r, l) pair that counts each of its six rich comparisons in a
    shared list."""

    calls = []
    __hash__ = tuple.__hash__


def _counted(name):
    compare = getattr(tuple, name)

    def counted(self, other):
        self.calls.append(name)
        return compare(self, other)

    return counted


for _name in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
    setattr(CountedPair, _name, _counted(_name))


class TestLeastRotation:
    """_least_rotation (the two-pointer scan) against the quadratic
    minimum over every rotation."""

    def test_agrees_with_the_min_over_rotations(self):
        """Seeded words of 1 to 4,096 pairs with exponents up to 1, 2
        or 3: few distinct pairs give long runs of equal ones."""
        rng = random.Random(26)
        for n in [*range(1, 65), 100, 255, 256, 1000, 1024, 4096]:
            for top in (1, 2, 3):
                pairs = tuple((rng.randint(1, top), rng.randint(1, top)) for _ in range(n))
                assert _least_rotation(pairs) == least_rotation_by_min(pairs), (n, top)

    def test_repeated_words(self):
        """A rotated power of a word has several least rotations; both
        return the first."""
        rng = random.Random(27)
        for _ in range(500):
            base = tuple((rng.randint(1, 2), rng.randint(1, 2)) for _ in range(rng.randint(1, 6)))
            pairs = base * rng.randint(1, 8)
            k = rng.randrange(len(pairs))
            pairs = pairs[k:] + pairs[:k]
            assert _least_rotation(pairs) == least_rotation_by_min(pairs), pairs

    def test_comparisons_are_linear(self):
        """At most 6n pair comparisons, of all six kinds, on seeded words
        of n = 2^k pairs, k = 4..12. Over every word of up to 16 pairs
        drawn from two distinct pairs, the most is 46, at n = 16."""
        rng = random.Random(28)
        for k in range(4, 13):
            n = 2**k
            for top in (1, 2, 3):
                pairs = tuple(CountedPair((rng.randint(1, top), rng.randint(1, top))) for _ in range(n))
                CountedPair.calls.clear()
                _least_rotation(pairs)
                assert len(CountedPair.calls) <= 6 * n, (n, top, len(CountedPair.calls))


class TestRlWord:
    def test_simplest_matrix(self):
        word, witness = rl_word(Mat2(2, 1, 1, 1))
        assert word.pairs == ((1, 1),)
        assert witness == Mat2.identity()

    def test_genus_two_matrix(self):
        word, witness = rl_word(Mat2(7, 12, 4, 7))
        assert word.pairs == ((2, 1), (2, 1))
        assert evaluate_word(word) == Mat2(11, 8, 4, 3)
        assert witness.det() == 1
        assert conj(witness, Mat2(7, 12, 4, 7)) == evaluate_word(word)

    def test_witness_identity_on_corpus(self):
        for entries in hyperbolic_corpus(203, 60):
            m = Mat2(*entries)
            word, witness = rl_word(m)
            assert witness.det() == 1
            assert conj(witness, m) == evaluate_word(word)
            assert word.pairs == canonical_form(word.pairs)

    def test_conjugation_invariance(self):
        rng = random.Random(204)
        for entries in hyperbolic_corpus(205, 40):
            m = Mat2(*entries)
            q = Mat2(*random_unimodular(rng))
            word_m, _ = rl_word(m)
            word_c, _ = rl_word(conj(q, m))
            assert word_m == word_c

    def test_huge_block(self):
        n = 2**64
        m = evaluate_word(((n, 1),))
        for q in (Mat2.identity(), Mat2(1, 2**63, 0, 1), Mat2(1, 0, -(2**63), 1)):
            word, witness = rl_word(conj(q, m))
            assert word.pairs == ((n, 1),)
            assert conj(witness, conj(q, m)) == m

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            rl_word(Mat2(1, 1, 0, 1))
        with pytest.raises(NotHyperbolic):
            rl_word(Mat2(2, 0, 0, 2))
        with pytest.raises(NotHyperbolic):
            rl_word(Mat2(-2, -1, -1, -1))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
            min_size=1,
            max_size=4,
        )
    )
    def test_word_round_trip(self, pairs):
        """Evaluating a word and re-reading it recovers its rotation class."""
        word, _ = rl_word(evaluate_word(RLWord(pairs)))
        assert word.pairs == canonical_form(pairs)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 2**64), st.integers(1, 2**64)),
            min_size=1,
            max_size=5,
        ),
        st.lists(
            st.tuples(st.booleans(), st.integers(-(2**64), 2**64)),
            max_size=6,
        ),
    )
    def test_large_exponents_under_conjugation(self, pairs, moves):
        """Words with exponents up to 2^64, conjugated by a random
        product of elementary matrices, come back as their least
        rotation with an exact det-1 witness."""
        pairs = tuple(pairs)
        q = Mat2.identity()
        for upper, k in moves:
            q = mat_mul(q, Mat2(1, k, 0, 1) if upper else Mat2(1, 0, k, 1))
        m = conj(q, evaluate_word(pairs))
        word, witness = rl_word(m)
        assert word.pairs == min(pairs[k:] + pairs[:k] for k in range(len(pairs)))
        assert witness.det() == 1
        assert conj(witness, m) == evaluate_word(word)

    def test_repetitions_cost_no_products(self, monkeypatch):
        """The repetition count comes from the unit Euclid, so the
        mat_mul calls do not grow with the power of the period."""
        calls = []

        def counting_mat_mul(x, y):
            calls.append(1)
            return mat_mul(x, y)

        monkeypatch.setattr(flowcomm.conjugacy, "mat_mul", counting_mat_mul)
        counts = []
        for n in (1024, 4096):
            calls.clear()
            word, _ = rl_word(Mat2(*square_pow((2, 1, 1, 1), n)))
            assert word.pairs == ((1, 1),) * n
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 8

    def test_powers_of_conjugated_words(self):
        """Seeded words raised to powers 1-64 and conjugated by a random
        unimodular Q come back as their least rotation repeated, with a
        det-1 witness."""
        rng = random.Random(206)
        for reps in range(1, 65):
            pairs = tuple(
                (rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))
            )
            m = Mat2(*square_pow(evaluate_word(pairs).entries(), reps))
            m = conj(Mat2(*random_unimodular(rng)), m)
            word, witness = rl_word(m)
            assert word.pairs == canonical_form(pairs) * reps
            assert witness.det() == 1
            assert conj(witness, m) == evaluate_word(word)


def unit_times(x, y, d0):
    """(t + u sqrt(d0)) / 2 units multiplied out, independently of _unit_mul."""
    return (x[0] * y[0] + d0 * x[1] * y[1]) // 2, (x[0] * y[1] + x[1] * y[0]) // 2


def brute_divmod(unit, divisor, d0):
    """_unit_divmod by repeated multiplication: one product per unit of q."""
    q, power = 0, (2, 0)
    while (nxt := unit_times(power, divisor, d0))[0] <= unit[0]:
        q, power = q + 1, nxt
    return q, unit_times(unit, (power[0], -power[1]), d0)


class TestUnitDivmod:
    """_unit_divmod against repeated multiplication, on the eigenvalue
    units lam**p and lam**q of seeded hyperbolic matrices: the quotient
    is p // q and the remainder lam**(p % q), of trace trace(m**(p % q))."""

    def units(self, m, p, q):
        t_p, t_q = (Mat2(*square_pow(m.entries(), n)).trace() for n in (p, q))
        d0, u_p, u_q = _shared_units(t_p, t_q)
        return (t_p, u_p), (t_q, u_q), d0

    def test_against_repeated_multiplication(self):
        rng = random.Random(2101)
        quotients = set()
        for entries in hyperbolic_corpus(2102, 40):
            m = Mat2(*entries)
            q = rng.randint(1, 6)
            # p = 0 is the unit 1; p < q gives quotient 0, p = k q an exact power
            multiple = rng.randint(2, 8) * q
            for p in (0, rng.randint(1, q), q, rng.randint(q, 40), multiple):
                unit, divisor, d0 = self.units(m, p, q)
                got = _unit_divmod(unit, divisor, d0)
                assert got == brute_divmod(unit, divisor, d0), (entries, p, q)
                assert got[0] == p // q and got[1][0] == self.units(m, p % q, q)[0][0]
                quotients.add(min(got[0], 2))
        assert quotients == {0, 1, 2}

    def test_repetitions_of_a_power_of_two(self):
        """rl_word's division: lam**(2**k) by lam is (2**k, 1)."""
        a = Mat2(2, 1, 1, 1)
        for k in range(0, 14):
            unit, divisor, d0 = self.units(a, 2**k, 1)
            assert _unit_divmod(unit, divisor, d0) == (2**k, (2, 0))


class TestSharedUnits:
    def test_square_classes_match_sympy(self):
        """_shared_units(t_a, t_b) is None exactly when t_a^2 - 4 and
        t_b^2 - 4 have distinct squarefree parts, as sympy's factorint
        gives them: seeded trace pairs, about a third of them t_a against
        the trace of a power of a trace-t_a matrix, so that many share a
        class."""
        pytest.importorskip("sympy")
        from sympy import factorint

        def squarefree(n):
            return prod(p for p, e in factorint(n).items() if e % 2)

        def power_trace(t, k):
            before, trace = 2, t  # trace(M^0), trace(M^1)
            for _ in range(k - 1):
                before, trace = trace, t * trace - before
            return trace

        rng, shared = random.Random(209), 0
        for _ in range(3000):
            t_a = rng.randint(3, 300)
            if rng.random() < 0.3:
                t_b = power_trace(t_a, rng.randint(1, 4))
            else:
                t_b = rng.randint(3, 300)
            same = squarefree(t_a * t_a - 4) == squarefree(t_b * t_b - 4)
            assert (_shared_units(t_a, t_b) is not None) == same, (t_a, t_b)
            shared += same
        assert 500 < shared < 2500


class TestAreEquivalent:
    def test_positive_pair(self):
        a = Mat2(7, 12, 4, 7)
        q = Mat2(2, 1, 1, 1)
        verdict = are_equivalent(a, conj(q, a))
        assert verdict.equivalent
        assert conj(verdict.conjugator, a) == conj(q, a)
        assert verdict.canonical_a == verdict.canonical_b

    def test_negative_pair(self):
        verdict = are_equivalent(Mat2(3, 1, 2, 1), Mat2(3, 2, 1, 1))
        assert not verdict.equivalent
        assert verdict.conjugator is None
        assert verdict.canonical_a.pairs == ((1, 2),)
        assert verdict.canonical_b.pairs == ((2, 1),)

    def test_symmetry(self):
        rng = random.Random(206)
        corpus = [Mat2(*e) for e in hyperbolic_corpus(207, 20)]
        for _ in range(40):
            a, b = rng.choice(corpus), rng.choice(corpus)
            va = are_equivalent(a, b)
            vb = are_equivalent(b, a)
            assert va.equivalent == vb.equivalent

    def test_conjugates_on_corpus(self):
        rng = random.Random(208)
        for entries in hyperbolic_corpus(209, 30):
            m = Mat2(*entries)
            q = Mat2(*random_unimodular(rng))
            verdict = are_equivalent(m, conj(q, m))
            assert verdict.equivalent
            assert conj(verdict.conjugator, m) == conj(q, m)

    def test_det_minus_one_conjugacy_is_not_equivalence(self):
        """sigma = [[0,1],[1,0]] (det -1, its own inverse) conjugates
        [[13,10],[9,7]] to [[7,9],[10,13]], but are_equivalent decides
        equivalence through an orientation-preserving torus map only:
        the words are not rotations of each other, the verdict is
        negative, and no det-1 conjugator lies in a small box."""
        a, b = Mat2(13, 10, 9, 7), Mat2(7, 9, 10, 13)
        sigma = Mat2(0, 1, 1, 0)
        assert sigma.det() == -1 and conj(sigma, a) == b
        verdict = are_equivalent(a, b)
        assert not verdict.equivalent and verdict.conjugator is None
        assert verdict.canonical_a.pairs == ((1, 2), (3, 1))
        assert verdict.canonical_b.pairs == ((1, 1), (2, 3))
        assert brute_force_conjugator(a.entries(), b.entries(), 12) is None

    def test_verdict_compares_by_identity_and_is_hashable(self):
        pair = (Mat2(3, 1, 2, 1), Mat2(3, 2, 1, 1))
        first, second = are_equivalent(*pair), are_equivalent(*pair)
        assert first == first and first != second
        assert len({first, second, first}) == 2

    def test_verdict_repr_lists_every_field_in_order(self):
        assert repr(are_equivalent(Mat2(3, 1, 2, 1), Mat2(3, 2, 1, 1))) == (
            "EquivalenceVerdict(equivalent=False, conjugator=None,"
            " canonical_a=RLWord(pairs=((1, 2),)), canonical_b=RLWord(pairs=((2, 1),)))"
        )


class TestBruteForceConjugator:
    def test_agrees_on_positives(self):
        rng = random.Random(210)
        for entries in hyperbolic_corpus(211, 10, max_trace=20):
            m = Mat2(*entries)
            q = Mat2(*random_unimodular(rng, steps=3))
            other = conj(q, m)
            found = brute_force_conjugator(entries, other.entries(), 30)
            assert found is not None
            assert Mat2(*found).det() == 1
            assert conj(Mat2(*found), m) == other

    def test_worked_negative_at_large_bound(self):
        assert brute_force_conjugator((3, 1, 2, 1), (3, 2, 1, 1), 50) is None

    def test_agrees_with_word_verdict(self):
        corpus = [Mat2(*e) for e in hyperbolic_corpus(212, 8, max_trace=15)]
        for a in corpus:
            for b in corpus:
                verdict = are_equivalent(a, b)
                found = brute_force_conjugator(a.entries(), b.entries(), 8)
                if found is not None:
                    assert verdict.equivalent
                if verdict.equivalent:
                    # the verdict's own conjugator is exact even when the
                    # brute search bound is too small to see one
                    assert conj(verdict.conjugator, a) == b

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            brute_force_conjugator((2, 1, 1, 1), (2, 1, 1, 1), 0)
