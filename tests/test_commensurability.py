"""Unit tests for commensurability decisions and their certificates."""

import random
import sys
import tracemalloc
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcomm import (
    HyperbolicMatrix,
    Lattice2,
    Mat2,
    NotHyperbolic,
    are_commensurable,
    evaluate_word,
    find_intertwiner,
    hnf,
    mat_mul,
    rl_word,
    stabilization_exponent,
    verify_certificate,
)
from flowcomm import commensurability, conjugacy, linalg
from flowcomm.cli import run
from flowcomm.conjugacy import _unit_mul
from helpers import (
    box_intertwiner,
    enumerate_sublattices,
    hyperbolic_corpus,
    input_size_pair as tuple_input_size_pair,
    intertwiner_rank,
    inverse,
    lattice_period,
    merge_exponents,
    mul,
    random_hyperbolic,
    random_unimodular,
    reference_verify,
    replace_cert_field as replace,
    square_pow,
    squarefree_oracle,
)

A = HyperbolicMatrix(2, 1, 1, 1)
GENUS2 = HyperbolicMatrix(7, 12, 4, 7)


def companion(t):
    return HyperbolicMatrix(0, 1, -1, t)


def power(m, n):
    """m**n, formed by the plain-tuple oracle."""
    return Mat2(*square_pow(m.entries(), n))


def negated(m):
    return Mat2(*(-e for e in m.entries()))


def entry_bits(*mats):
    return max(abs(e).bit_length() for m in mats for e in m.entries())


def record_product_bits(patch):
    """Wrap mat_mul as bound in commensurability and in conjugacy (whose
    reduction_cycle find_intertwiner runs); returns the list that the
    entry bits of every product formed through them are appended to."""
    bits = []

    def recording(x, y):
        product = linalg.mat_mul(x, y)
        bits.append(entry_bits(product))
        return product

    for module in (commensurability, conjugacy):
        patch.setattr(module, "mat_mul", recording)
    return bits


def unit_traces(t, n):
    """Traces T_0..T_n of the powers of the unit (t + sqrt(t^2 - 4)) / 2,
    formed with the unit product that are_commensurable's Euclid uses."""
    d0, unit, power = t * t - 4, (t, 1), (2, 0)
    out = [2]
    for _ in range(n):
        power = _unit_mul(power, unit, d0)
        out.append(power[0])
    return out


class TestTraceSequence:
    """The trace sequence t_i = trace(a**i), read off the eigenvalue units."""

    def test_frozen_prefix(self):
        assert unit_traces(3, 6) == [2, 3, 7, 18, 47, 123, 322]

    def test_matches_matrix_powers(self):
        rng = random.Random(401)
        for entries in hyperbolic_corpus(402, 10):
            m = Mat2(*entries)
            i = rng.randint(1, 40)
            assert unit_traces(m.trace(), i)[i] == power(m, i).trace()

    def test_strictly_increasing(self):
        """Larger power, larger trace: the order the Euclid compares by."""
        for t in (3, 5, 14, 47):
            seq = unit_traces(t, 30)
            for i in range(1, 30):
                assert seq[i + 1] > seq[i]

    def test_rejects_negative_index(self, capsys):
        """trace-seq refuses a negative index."""
        assert run(["trace-seq", "[[2,1],[1,1]]", "-1"]) == 2
        assert capsys.readouterr().out == ""


class TestTracePower:
    def test_against_matrix_power(self):
        for entries in hyperbolic_corpus(403, 15):
            m = Mat2(*entries)
            traces = unit_traces(m.trace(), 11)
            for i in range(0, 12):
                assert traces[i] == power(m, i).trace()


class TestFindIntertwiner:
    def test_self_pair_gives_identity(self):
        assert find_intertwiner(A, A) == Mat2.identity()
        assert find_intertwiner(GENUS2, GENUS2) == Mat2.identity()

    def test_worked_cross_class_pair(self):
        p = find_intertwiner(power(A, 2), companion(7))
        assert p == Mat2(1, 1, -2, 1)
        assert p.det() == 3

    def test_intertwines_conjugate_pairs(self):
        rng = random.Random(404)
        from helpers import random_unimodular

        for entries in hyperbolic_corpus(405, 20):
            a = Mat2(*entries)
            q = Mat2(*random_unimodular(rng))
            b = mat_mul(mat_mul(q.inverse(), a), q)
            p = find_intertwiner(a, b)
            assert p.det() != 0
            assert mat_mul(a, p) == mat_mul(p, b)

    def test_walk_keeps_one_candidate(self):
        """The A^4096 bridge pair, A^4096 against the companion of its
        trace: the walk's memory does not grow with its length."""
        a = power(A, 4096)
        tracemalloc.start()
        try:
            find_intertwiner(a, companion(a.trace()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_search_bound_refused(self):
        with pytest.raises(TypeError):
            find_intertwiner(power(A, 2), companion(7), search_bound=1)

    def test_det_one_beyond_coefficient_32(self):
        """A conjugate pair whose det-1 intertwiners all have kernel-basis
        coefficients above 32: a coefficient box of radius 32 finds
        det -7 at best."""
        a, b = Mat2(5, 1, 4, 1), Mat2(-605, 2009, -184, 611)
        p = find_intertwiner(a, b)
        assert abs(p.det()) == 1
        assert mat_mul(a, p) == mat_mul(p, b)
        cert = are_commensurable(a, b).certificate
        assert abs(cert.intertwiner_det) == 1
        assert cert.index_over_a == 1
        assert verify_certificate(cert) == (True, "ok")

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32), st.booleans(), st.booleans())
    def test_least_det_against_box_oracle(self, seed, companion_pair, swap):
        """Conjugated pairs, and same-trace pairs with the companion
        matrix (often in another conjugacy class): the |det| is the
        least in a box that contains the returned P, and no P in the
        box ranks better."""
        rng = random.Random(seed)
        a = random_hyperbolic(rng, max_trace=30)
        if companion_pair:
            b = (0, 1, -1, a[0] + a[3])
        else:
            q = random_unimodular(rng, steps=rng.randint(1, 4))
            b = mul(mul(inverse(q), a), q)
        if swap:
            a, b = b, a
        p = find_intertwiner(Mat2(*a), Mat2(*b))
        assert type(p) is Mat2  # the search walks tuples; none leaks out
        assert mat_mul(Mat2(*a), p) == mat_mul(p, Mat2(*b))
        least, best = box_intertwiner(a, b, max(30, *map(abs, p.entries())))
        assert abs(p.det()) == least
        assert intertwiner_rank(p.entries()) <= intertwiner_rank(best)

    def test_deterministic(self):
        pairs = [(power(A, 2), companion(7)), (GENUS2, companion(14))]
        for a1, b1 in pairs:
            assert find_intertwiner(a1, b1) == find_intertwiner(a1, b1)

    def test_forms_p_only_at_the_least_det(self):
        """reduction_cycle reports where the least |det| is reached, so P
        is formed (combine) only there and on the walk: 3 times
        for a seeded 1,000-pair word against its trace model, where one
        P per convergent of the period took 2,003."""
        rng = random.Random(7)
        word = evaluate_word([(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(1000)])
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call" and frame.f_code.co_name == "combine"

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            p = find_intertwiner(word, companion(word.trace()))
        finally:
            sys.setprofile(previous)
        assert calls == 3
        assert mat_mul(word, p) == mat_mul(p, companion(word.trace()))


class TestStabilizationExponent:
    def test_full_lattice(self):
        assert stabilization_exponent(A, hnf(Mat2.identity()), 1) == 1

    def test_matches_orbit_oracle(self):
        for entries in hyperbolic_corpus(406, 8, max_trace=20):
            m = Mat2(*entries)
            for n in (2, 3, 4, 6):
                for triple in enumerate_sublattices(n):
                    period = lattice_period(entries, triple)
                    assert stabilization_exponent(m, Lattice2(*triple), 50) == period

    def test_bound_too_small(self):
        m = Mat2(2, 1, 1, 1)
        for triple in enumerate_sublattices(5):
            lat = Lattice2(*triple)
            k = stabilization_exponent(m, lat, 50)
            if k > 1:
                with pytest.raises(ValueError):
                    stabilization_exponent(m, lat, k - 1)
                break
        else:
            pytest.fail("expected a nontrivial orbit at index 5")


class TestBuildCertificate:
    def test_worked_pair(self):
        cert = are_commensurable(A, companion(7)).certificate
        assert (cert.power_a, cert.power_b) == (2, 1)
        assert cert.intertwiner == Mat2(1, 1, -2, 1)
        assert cert.intertwiner_det == 3
        assert (cert.sublattice.a, cert.sublattice.b, cert.sublattice.d) == (3, 1, 1)
        assert cert.stabilization == 1
        assert cert.index_over_a == 6
        assert cert.index_over_b == 1

    def test_genus_two_pair(self):
        cert = are_commensurable(GENUS2, companion(14)).certificate
        assert (cert.power_a, cert.power_b) == (1, 1)
        assert abs(cert.intertwiner_det) == 4
        assert cert.stabilization == 1
        assert cert.index_over_a == 4
        assert cert.index_over_b == 1

    def test_verify_accepts_exactly_multiples_of_least_exponents(self):
        """The least certificate restated at other powers verifies exactly
        when the power traces agree, that is at multiples of the least
        exponents; across square classes there is no certificate."""
        accepted = 0
        for a, b in ((A, companion(7)), (companion(7), A), (companion(18), companion(7))):
            cert = are_commensurable(a, b).certificate
            det = abs(cert.intertwiner_det)
            for power_a in range(1, 7):
                for power_b in range(1, 7):
                    restated = replace(
                        cert,
                        power_a=power_a,
                        power_b=power_b,
                        index_over_a=power_a * det,
                        index_over_b=power_b,
                    )
                    equal = power(a, power_a).trace() == power(b, power_b).trace()
                    expected = (True, "ok") if equal else (False, "power_traces_equal")
                    assert verify_certificate(restated) == expected, (a, b, power_a, power_b)
                    accepted += equal
        assert accepted == 8
        assert not are_commensurable(A, GENUS2).commensurable

    def test_rejects_trace_mismatch(self):
        """The worked pair's power traces differ at (1, 1), so its
        certificate restated there is refused; across square classes
        no certificate is built at all."""
        cert = are_commensurable(A, companion(7)).certificate
        restated = replace(cert, power_a=1, index_over_a=abs(cert.intertwiner_det))
        assert verify_certificate(restated) == (False, "power_traces_equal")
        verdict = are_commensurable(A, GENUS2)
        assert verdict.certificate is None and verdict.minimal_exponents is None

    def test_mismatch_past_digit_limit_is_a_clause(self):
        """Past the int/str digit limit the power traces could not be
        printed: a mismatch there is a clause, and so is one whose
        power trace would have millions of bits."""
        cert = are_commensurable(A, companion(7)).certificate
        restated = replace(cert, power_a=12000, index_over_a=12000 * 3)
        assert power(A, 12000).trace().bit_length() * 0.30103 > 4300
        assert verify_certificate(restated) == (False, "power_traces_equal")
        restated = replace(cert, power_b=2**20 // 3 + 1)
        assert verify_certificate(restated) == (False, "power_traces_equal")

    def test_exponent_mismatch_is_exact(self):
        """A certificate exists exactly when some power traces agree, and
        the pairs that agree are exactly the multiples of its least
        exponents."""
        for a, b in ((A, companion(7)), (companion(7), A), (A, GENUS2), (companion(18), companion(7))):
            verdict = are_commensurable(a, b)
            agreeing = 0
            for power_a in range(1, 7):
                for power_b in range(1, 7):
                    equal = power(a, power_a).trace() == power(b, power_b).trace()
                    if not verdict.commensurable:
                        assert not equal, (a, b, power_a, power_b)
                        continue
                    i, j = verdict.minimal_exponents
                    multiple = power_a % i == 0 and power_a // i * j == power_b
                    assert equal == multiple, (a, b, power_a, power_b)
                    agreeing += equal
            assert (verdict.certificate is not None) == verdict.commensurable
            assert verdict.commensurable == (agreeing > 0)

    def test_no_power_formed_past_old_budget(self):
        """Least powers of millions of bits (past the 2^20-bit budget of
        0.8.0) are decided and verified with every product below 4 times
        the input's entry bits: neither the decision nor the verifier
        forms a power, whose entries would have about 10^6 bits."""
        pairs = (
            (power(A, 900), power(A, 899)),
            (power(A, 899), power(A, 900)),
        )
        with pytest.MonkeyPatch.context() as patch:
            bits = record_product_bits(patch)
            for a, b in pairs:
                bits.clear()
                verdict = are_commensurable(a, b)
                i, j = verdict.minimal_exponents
                assert {i, j} == {899, 900} and i * a.trace().bit_length() > 2**20
                assert verify_certificate(verdict.certificate) == (True, "ok")
                assert bits and max(bits) < 4 * entry_bits(a, b), max(bits)
        assert are_commensurable(power(A, 300), power(A, 299)).minimal_exponents == (299, 300)

    def test_rejects_nonpositive_powers(self):
        """Built certificates state positive powers; a zero or negative
        power on either side is the powers_positive clause."""
        cert = are_commensurable(A, A).certificate
        assert (cert.power_a, cert.power_b) == (1, 1)
        for power_a, power_b in ((0, 1), (1, 0), (-1, 1), (1, -2)):
            bad = replace(cert, power_a=power_a, power_b=power_b)
            assert verify_certificate(bad) == (False, "powers_positive")

    def test_stabilization_always_one_for_built_certs(self):
        """The spanned lattice is invariant under the stated power of a
        by construction, so every certificate are_commensurable builds
        states 1."""
        corpus = [Mat2(*e) for e in hyperbolic_corpus(407, 12)]
        for a in corpus:
            for b in corpus:
                verdict = are_commensurable(a, b)
                if verdict.commensurable:
                    assert verdict.certificate.stabilization == 1


class TestAreCommensurable:
    def test_worked_positive(self):
        verdict = are_commensurable(A, companion(7))
        assert verdict.commensurable
        assert verdict.minimal_exponents == (2, 1)
        assert verdict.squarefree_a == 5
        assert verdict.squarefree_b == 5
        assert not verdict.squared_a and not verdict.squared_b
        assert verify_certificate(verdict.certificate) == (True, "ok")

    def test_worked_negative(self):
        verdict = are_commensurable(A, GENUS2)
        assert not verdict.commensurable
        assert verdict.minimal_exponents is None
        assert verdict.certificate is None
        # t^2 - 4 themselves on a negative verdict: 3^2 - 4 and 14^2 - 4
        assert (verdict.squarefree_a, verdict.squarefree_b) == (5, 192)

    def test_self_commensurable(self):
        verdict = are_commensurable(A, A)
        assert verdict.minimal_exponents == (1, 1)
        assert verdict.certificate.intertwiner == Mat2.identity()
        assert verdict.certificate.index_over_a == 1
        assert verdict.certificate.index_over_b == 1

    def test_power_absorption(self):
        for n in range(2, 7):
            verdict = are_commensurable(power(A, n), A)
            assert verdict.commensurable
            assert verdict.minimal_exponents == (1, n)

    def test_symmetric_verdicts(self):
        corpus = [Mat2(*e) for e in hyperbolic_corpus(408, 10)]
        for a in corpus:
            for b in corpus:
                va = are_commensurable(a, b)
                vb = are_commensurable(b, a)
                assert va.commensurable == vb.commensurable
                if va.commensurable:
                    assert va.minimal_exponents == tuple(
                        reversed(vb.minimal_exponents)
                    )

    def test_negative_trace_input_squared(self):
        neg = Mat2(-2, -1, -1, -1)
        verdict = are_commensurable(neg, A)
        assert verdict.squared_a and not verdict.squared_b
        assert verdict.commensurable
        # exponents refer to the squared replacement, trace 7
        i, j = verdict.minimal_exponents
        assert power(companion(7), i).trace() == power(A, j).trace()

    def test_rejects_bad_inputs(self):
        with pytest.raises(NotHyperbolic):
            are_commensurable(Mat2(2, 0, 0, 2), A)
        with pytest.raises(NotHyperbolic):
            are_commensurable(Mat2(1, 1, 0, 1), A)
        with pytest.raises(NotHyperbolic):
            are_commensurable(Mat2(0, 1, -1, 0), A)

    def test_far_common_power(self):
        """A common power 12000 steps away, past any merge-step cap."""
        verdict = are_commensurable(A, power(A, 12000))
        assert verdict.minimal_exponents == (12000, 1)
        assert verify_certificate(verdict.certificate) == (True, "ok")
        with pytest.raises(TypeError):
            are_commensurable(A, companion(47), max_steps=2)

    def test_minimality_of_exponents(self):
        """No componentwise-smaller exponent pair matches traces."""
        corpus = [Mat2(*e) for e in hyperbolic_corpus(409, 8)]
        for a in corpus:
            for b in corpus:
                verdict = are_commensurable(a, b)
                if not verdict.commensurable:
                    continue
                i, j = verdict.minimal_exponents
                for ii in range(1, i + 1):
                    for jj in range(1, j + 1):
                        if (ii, jj) != (i, j):
                            assert power(a, ii).trace() != power(b, jj).trace()


class TestRecords:
    def test_certificate_compares_by_field_and_is_unhashable(self):
        cert = are_commensurable(A, companion(7)).certificate
        assert cert == are_commensurable(A, companion(7)).certificate
        assert cert != replace(cert, power_a=4) and cert != cert.power_a
        with pytest.raises(TypeError, match="unhashable"):
            hash(cert)

    def test_certificate_repr_lists_every_field_in_order(self):
        """The shared record repr: every field, and an entry past the
        int/str digit limit named by its size (printed in full when the
        limit is off)."""
        cert = are_commensurable(A, companion(7)).certificate
        assert repr(cert) == (
            "CommensurabilityCertificate(base_a=HyperbolicMatrix(2, 1, 1, 1),"
            " base_b=HyperbolicMatrix(0, 1, -1, 7), power_a=2, power_b=1,"
            " intertwiner=Mat2(1, 1, -2, 1), intertwiner_det=3,"
            " sublattice=Lattice2(a=3, b=1, d=1), stabilization=1,"
            " index_over_a=6, index_over_b=1)"
        )
        huge = replace(cert, base_a=Mat2(10**5000, 0, 0, 1))
        limit = sys.get_int_max_str_digits()
        entry = "an integer of 16610 bits" if 0 < limit <= 5000 else str(10**5000)
        assert repr(huge) == repr(cert).replace(
            "HyperbolicMatrix(2, 1, 1, 1)", f"Mat2({entry}, 0, 0, 1)"
        )

    def test_verdict_compares_by_identity_and_is_hashable(self):
        first, second = are_commensurable(A, companion(7)), are_commensurable(A, companion(7))
        assert first == first and first != second
        assert len({first, second, first}) == 2

    def test_verdict_repr_lists_every_field_in_order(self):
        assert repr(are_commensurable(A, GENUS2)) == (
            "CommensurabilityVerdict(commensurable=False, minimal_exponents=None,"
            " squarefree_a=5, squarefree_b=192, certificate=None, squared_a=False,"
            " squared_b=False)"
        )


class TestMinimalExponents:
    """minimal_exponents against the plain-integer merge oracle."""

    @staticmethod
    def normalized_trace(m):
        t = m.trace()
        return t if t > 2 else t * t - 2  # a trace < -2 input is squared

    def test_conjugated_powers(self):
        rng = random.Random(411)
        for entries in hyperbolic_corpus(412, 12, max_trace=20):
            m = Mat2(*entries)
            for _ in range(8):
                p, q = rng.randint(1, 60), rng.randint(1, 60)
                conj = Mat2(*random_unimodular(rng))
                a = power(m, p)
                b = mat_mul(mat_mul(conj.inverse(), power(m, q)), conj)
                if rng.random() < 0.3:
                    a = negated(a)
                verdict = are_commensurable(a, b)
                expected = merge_exponents(self.normalized_trace(a), b.trace())
                assert verdict.minimal_exponents == expected, (entries, p, q)

    def test_companion_pairs_of_one_class(self):
        pairs = []
        for ta in range(3, 401):
            for tb in range(ta + 1, 401):
                product = (ta * ta - 4) * (tb * tb - 4)
                if isqrt(product) ** 2 == product:
                    pairs.append((ta, tb))
        assert len(pairs) == 38
        # traces of powers j < k <= 10 of one matrix meet at (k, j) / gcd(j, k)
        for t in range(3, 41):
            powers = [power(companion(t), k).trace() for k in range(1, 11)]
            pairs += [(ta, tb) for x, ta in enumerate(powers) for tb in powers[x + 1 :]]
        for ta, tb in pairs:
            verdict = are_commensurable(companion(ta), companion(tb))
            assert verdict.minimal_exponents == merge_exponents(ta, tb), (ta, tb)
        # 3, 7, 18, 123 are the traces of e, e^2, e^3, e^5 for one unit e
        assert are_commensurable(companion(7), companion(18)).minimal_exponents == (3, 2)
        assert are_commensurable(companion(18), companion(123)).minimal_exponents == (5, 3)
        assert are_commensurable(companion(11), companion(119)).minimal_exponents == (2, 1)


def input_size_pair(a, b):
    """helpers.input_size_pair on two Mat2, as two Mat2."""
    x, y = tuple_input_size_pair(a.entries(), b.entries())
    return Mat2(*x), Mat2(*y)


class TestInputSizeIntertwiner:
    """The decision takes its intertwiner from the input-size pair
    (X, Y), whose integer solutions are those of a^i P = P b^j."""

    def check(self, a, b):
        verdict = are_commensurable(a, b)
        i, j = verdict.minimal_exponents
        x, y = input_size_pair(a, b)
        p = find_intertwiner(x, y)
        assert p == find_intertwiner(power(a, i), power(b, j)), (a, b)
        assert p == verdict.certificate.intertwiner
        assert mat_mul(x, p) == mat_mul(p, y)

    def test_powers_of_a(self):
        powers = [power(A, p) for p in range(1, 30)]
        for a in powers:
            for b in powers:
                self.check(a, b)

    def test_companions_of_one_class(self):
        traces = range(3, 130)
        pairs = 0
        for ta in traces:
            for tb in traces:
                product = (ta * ta - 4) * (tb * tb - 4)
                if isqrt(product) ** 2 == product:
                    self.check(companion(ta), companion(tb))
                    pairs += 1
        assert pairs > len(traces)  # more than the pairs (t, t)

    def test_conjugated_powers(self):
        rng = random.Random(6)
        for entries in hyperbolic_corpus(606, 12, max_trace=20):
            m = Mat2(*entries)
            for _ in range(5):
                conj = Mat2(*random_unimodular(rng))
                a = power(m, rng.randint(1, 12))
                b = mat_mul(mat_mul(conj.inverse(), power(m, rng.randint(1, 12))), conj)
                self.check(a, b)

    def test_decision_forms_no_power(self, monkeypatch):
        """Every product the decision forms on A^600 vs A^599 stays below
        4 times the input's entry bits; its certificate verifies."""
        a, b = power(A, 600), power(A, 599)
        with monkeypatch.context() as patch:
            bits = record_product_bits(patch)
            verdict = are_commensurable(a, b)
        assert bits and max(bits) < 4 * entry_bits(a, b), max(bits)
        assert verdict.minimal_exponents == (599, 600)
        assert verify_certificate(verdict.certificate) == (True, "ok")


class TestUnitProductGuard:
    """Unit products are counted, not timed: on A^(2^k) against
    A^(2^k - 1) for k = 6..13, rl_word, are_commensurable and
    verify_certificate each make a number of them that grows by a fixed
    1 or 2 per step of k, linear in the bits of the exponents. Every
    product goes through conjugacy._unit_mul, the one binding patched
    here; a loop with one product per unit of an exponent would add
    2^k per step."""

    def test_counts_grow_linearly_in_bits(self, monkeypatch):
        calls = []

        def counting(x, y, d0):
            calls.append(1)
            return _unit_mul(x, y, d0)

        monkeypatch.setattr(conjugacy, "_unit_mul", counting)
        counts = {"rl_word": [], "are_commensurable": [], "verify_certificate": []}

        def count(name, call):
            calls.clear()
            result = call()
            counts[name].append(len(calls))
            return result

        for k in range(6, 14):
            a, b = power(A, 2**k), power(A, 2**k - 1)
            count("rl_word", lambda: rl_word(a))
            verdict = count("are_commensurable", lambda: are_commensurable(a, b))
            assert verdict.minimal_exponents == (2**k - 1, 2**k)
            check = count("verify_certificate", lambda: verify_certificate(verdict.certificate))
            assert check == (True, "ok")
        for name, seq in counts.items():
            steps = {later - earlier for earlier, later in zip(seq, seq[1:])}
            assert len(steps) == 1 and steps <= {1, 2} and seq[0] <= 14, (name, seq)


class TestSquareClass:
    """The verdict is positive exactly when t_a^2 - 4 and t_b^2 - 4 have
    one squarefree part, and the reported representatives agree then."""

    def test_agrees_with_oracle_on_traces_to_400(self):
        part = {t: squarefree_oracle(t * t - 4) for t in range(3, 401)}
        for ta in range(3, 401):
            for tb in range(ta, 401):
                verdict = are_commensurable(companion(ta), companion(tb))
                assert verdict.commensurable == (part[ta] == part[tb]), (ta, tb)

    def test_random_trace_pairs(self):
        rng = random.Random(303)
        for _ in range(80):
            ta, tb = rng.randint(3, 10**5), rng.randint(3, 10**5)
            same = squarefree_oracle(ta * ta - 4) == squarefree_oracle(tb * tb - 4)
            assert are_commensurable(companion(ta), companion(tb)).commensurable == same

    def test_representatives(self):
        rng = random.Random(304)
        for _ in range(60):
            ta, tb = rng.randint(3, 2000), rng.randint(3, 2000)
            da, db = ta * ta - 4, tb * tb - 4
            verdict = are_commensurable(companion(ta), companion(tb))
            if verdict.commensurable:
                assert verdict.squarefree_a == verdict.squarefree_b
                rep = verdict.squarefree_a
                assert squarefree_oracle(rep) == squarefree_oracle(da)
                assert da % rep == 0 and db % rep == 0
            else:
                assert (verdict.squarefree_a, verdict.squarefree_b) == (da, db)

    def test_power_traces_share_class(self):
        """Traces of powers keep the square class of t^2 - 4."""
        for t in (3, 7, 14, 47):
            for i in range(1, 8):
                ti = power(companion(t), i).trace()
                verdict = are_commensurable(companion(t), companion(ti))
                assert verdict.minimal_exponents == (i, 1)
                assert verdict.squarefree_a == verdict.squarefree_b == t * t - 4

    def test_huge_trace_fast_path(self):
        """A 90-plus digit power trace is placed in its class at once,
        with no factoring of t^2 - 4."""
        t = 47
        seq = [2, t]
        for _ in range(60):
            seq.append(t * seq[-1] - seq[-2])
        big = seq[-1]
        assert big > 10**90
        verdict = are_commensurable(companion(t), companion(big))
        assert verdict.minimal_exponents == (61, 1)
        assert not are_commensurable(companion(t), companion(big + 1)).commensurable


class TestVerifyCertificate:
    def _good(self):
        return are_commensurable(A, companion(7)).certificate

    def test_accepts_built_certificates(self):
        corpus = [Mat2(*e) for e in hyperbolic_corpus(410, 10)]
        for a in corpus:
            for b in corpus:
                verdict = are_commensurable(a, b)
                if verdict.commensurable:
                    assert verify_certificate(verdict.certificate) == (True, "ok")

    def test_perturbed_intertwiner(self):
        cert = self._good()
        bad = replace(cert, intertwiner=Mat2(1, 1, -2, 2))
        ok, clause = verify_certificate(bad)
        assert not ok
        assert clause == "intertwining_identity"

    def test_wrong_det_field(self):
        bad = replace(self._good(), intertwiner_det=4)
        assert verify_certificate(bad) == (False, "intertwiner_det")

    def test_wrong_sublattice(self):
        from flowcomm import Lattice2

        bad = replace(self._good(), sublattice=Lattice2(3, 2, 1))
        assert verify_certificate(bad) == (False, "sublattice")

    def test_padded_stabilization(self):
        bad = replace(self._good(), stabilization=2)
        assert verify_certificate(bad) == (False, "stabilization")

    def test_zero_stabilization(self):
        bad = replace(self._good(), stabilization=0)
        assert verify_certificate(bad) == (False, "stabilization")

    def test_wrong_indices(self):
        bad = replace(self._good(), index_over_a=7)
        assert verify_certificate(bad) == (False, "index_over_a")
        bad = replace(self._good(), index_over_b=2)
        assert verify_certificate(bad) == (False, "index_over_b")

    def test_wrong_powers(self):
        bad = replace(self._good(), power_a=3)
        assert verify_certificate(bad) == (False, "power_traces_equal")
        bad = replace(self._good(), power_a=0)
        assert verify_certificate(bad) == (False, "powers_positive")

    def test_huge_powers_at_input_size(self):
        """Stated powers of thousands of digits are checked at once, with
        no power formed: mismatched ones are power_traces_equal, matched
        ones go on to the index clauses, and the certificate restated at
        a huge multiple of its least exponents verifies."""
        big = 10**4000
        for power_a, power_b in (
            (2**19 + 1, 1),
            (2_000_001, 1_000_000),
            (big + 1, big),
            (big, big + 1),
            (1, big),
            (big, 1),
        ):
            bad = replace(self._good(), power_a=power_a, power_b=power_b)
            assert verify_certificate(bad) == (False, "power_traces_equal")
        bad = replace(self._good(), power_a=2_000_000, power_b=1_000_000)
        assert verify_certificate(bad) == (False, "index_over_a")
        good = self._good()  # least exponents (2, 1), |det P| = 3
        restated = replace(good, power_a=2 * big, power_b=big, index_over_a=6 * big, index_over_b=big)
        assert verify_certificate(restated) == (True, "ok")
        assert verify_certificate(replace(restated, power_a=2 * big + 2)) == (False, "power_traces_equal")

    def test_non_hyperbolic_base(self):
        bad = replace(self._good(), base_a=Mat2(1, 1, 0, 1))
        assert verify_certificate(bad) == (False, "base_a_hyperbolic")
        bad = replace(self._good(), base_b=Mat2(2, 0, 0, 2))
        assert verify_certificate(bad) == (False, "base_b_hyperbolic")

    def test_singular_intertwiner(self):
        cert = self._good()
        bad = replace(
            cert,
            base_b=cert.base_a,
            power_b=cert.power_a,
            intertwiner=Mat2(0, 0, 0, 0),
        )
        ok, clause = verify_certificate(bad)
        assert not ok
        assert clause == "intertwiner_nonsingular"


def plain_fields(cert):
    """A certificate's fields as the plain values reference_verify takes."""
    lat = cert.sublattice
    return (
        cert.base_a.entries(),
        cert.base_b.entries(),
        cert.power_a,
        cert.power_b,
        cert.intertwiner.entries(),
        cert.intertwiner_det,
        (lat.a, lat.b, lat.d),
        cert.stabilization,
        cert.index_over_a,
        cert.index_over_b,
    )


INTEGER_FIELDS = ("power_a", "power_b", "intertwiner_det", "stabilization", "index_over_a", "index_over_b")


def one_field_mutations(cert):
    """The certificate and each copy with one field changed: an integer
    field shifted by -2, -1, +1, +2 or +7, or doubled; one intertwiner
    entry bumped; the intertwiner negated."""
    yield cert
    for name in INTEGER_FIELDS:
        value = getattr(cert, name)
        for new in (value - 2, value - 1, value + 1, value + 2, value + 7, 2 * value):
            yield replace(cert, **{name: new})
    entries = cert.intertwiner.entries()
    for k in range(4):
        bumped = list(entries)
        bumped[k] += 1
        yield replace(cert, intertwiner=Mat2(*bumped))
    yield replace(cert, intertwiner=negated(cert.intertwiner))


class TestReferenceAgreement:
    """verify_certificate, which forms no power, gives the clause of the
    reference verifier that forms a**i and b**j on every certificate of
    the corpus and every one-field mutation of each. The corpus: A^p
    against A^q for p, q <= 24, seeded conjugated powers, and companions
    of trace 3..59; its powers stay far inside the 2^20-bit budget that
    0.8.0 set, so the reference forms them at once."""

    @staticmethod
    def corpus():
        powers = [power(A, p) for p in range(1, 25)]
        pairs = [(a, b) for a in powers for b in powers]
        rng = random.Random(1111)
        for entries in hyperbolic_corpus(1112, 12, max_trace=20):
            m = Mat2(*entries)
            for _ in range(8):
                conj = Mat2(*random_unimodular(rng))
                b = mat_mul(mat_mul(conj.inverse(), power(m, rng.randint(1, 12))), conj)
                pairs.append((power(m, rng.randint(1, 12)), b))
        pairs += [(companion(ta), companion(tb)) for ta in range(3, 60) for tb in range(3, 60)]
        for a, b in pairs:
            verdict = are_commensurable(a, b)
            if verdict.commensurable:
                yield verdict.certificate

    def test_agrees_with_reference(self):
        certificates = cases = accepted = 0
        for cert in self.corpus():
            certificates += 1
            for doc in one_field_mutations(cert):
                expected = reference_verify(plain_fields(doc))
                assert verify_certificate(doc) == expected, doc
                cases += 1
                accepted += expected[0]
        assert certificates > 700 and cases == 42 * certificates
        assert certificates < accepted < cases // 2
