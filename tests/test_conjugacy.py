"""Unit tests for canonical RL-words and SL2(Z) conjugacy decisions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcomm import (
    L,
    Mat2,
    NotHyperbolic,
    R,
    RLWord,
    are_equivalent,
    evaluate_word,
    mat_mul,
    rl_word,
)
from helpers import (
    brute_force_conjugator,
    canonical_form,
    hyperbolic_corpus,
    random_unimodular,
)


def conj(q, m):
    return mat_mul(mat_mul(q.inverse(), m), q)


class TestRLWord:
    def test_generators(self):
        assert R.entries() == (1, 1, 0, 1)
        assert L.entries() == (1, 0, 1, 1)

    def test_pairs_and_exponents(self):
        w = RLWord(((2, 1), (1, 3)))
        assert w.pairs == ((2, 1), (1, 3))
        assert w.exponents() == (2, 1, 1, 3)

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

    def test_verdict_compares_by_identity_and_is_hashable(self):
        pair = (Mat2(3, 1, 2, 1), Mat2(3, 2, 1, 1))
        first, second = are_equivalent(*pair), are_equivalent(*pair)
        assert first == first and first != second
        assert len({first, second, first}) == 2

    def test_verdict_repr_lists_every_field_in_order(self):
        assert repr(are_equivalent(Mat2(3, 1, 2, 1), Mat2(3, 2, 1, 1))) == (
            "EquivalenceVerdict(equivalent=False, conjugator=None,"
            " canonical_a=RLWord(1, 2), canonical_b=RLWord(2, 1))"
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
