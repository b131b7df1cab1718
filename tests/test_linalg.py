"""Unit tests for exact 2x2 linear algebra and lattice canonicalization."""

import random
from math import isqrt

import pytest

from flowcomm import (
    HyperbolicMatrix,
    Lattice2,
    Mat2,
    NotHyperbolic,
    hnf,
    intertwiner_lattice,
    mat_mul,
)
from helpers import (
    column_kernel,
    det,
    enumerate_sublattices,
    input_size_pair,
    inverse,
    mul,
    naive_pow,
    random_hyperbolic,
    random_unimodular,
    same_lattice,
    span_coords,
    square_pow,
    trace,
)


def sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def contains_oracle(basis, x, y):
    """Membership of (x, y) in the column span, by solving over Q."""
    d = basis.det()
    s = basis.d * x - basis.b * y
    t = -basis.c * x + basis.a * y
    return s % d == 0 and t % d == 0


class TestMat2:
    def test_entries_and_invariants(self):
        m = Mat2(7, 12, 4, 7)
        assert m.entries() == (7, 12, 4, 7)
        assert m.det() == 1
        assert m.trace() == 14

    def test_mul_against_schoolbook(self):
        rng = random.Random(101)
        for _ in range(200):
            x = tuple(rng.randint(-9, 9) for _ in range(4))
            y = tuple(rng.randint(-9, 9) for _ in range(4))
            assert mat_mul(Mat2(*x), Mat2(*y)).entries() == mul(x, y)

    def test_repeated_mul_against_power_oracles(self):
        """Repeated mat_mul agrees with square_pow and naive_pow, the
        plain-tuple powers the other tests take as their oracles."""
        rng = random.Random(102)
        for _ in range(50):
            x = tuple(rng.randint(-5, 5) for _ in range(4))
            n = rng.randint(0, 12)
            power = Mat2.identity()
            for _ in range(n):
                power = mat_mul(power, Mat2(*x))
            assert power.entries() == square_pow(x, n) == naive_pow(x, n)

    def test_inverse(self):
        m = Mat2(2, 1, 1, 1)
        assert mat_mul(m, m.inverse()) == Mat2.identity()
        w = Mat2(0, 1, -1, 0)
        assert w.det() == 1
        assert mat_mul(w, w.inverse()) == Mat2.identity()
        flip = Mat2(0, 1, 1, 0)
        assert flip.det() == -1
        assert mat_mul(flip, flip.inverse()) == Mat2.identity()

    def test_inverse_rejects_nonunimodular(self):
        with pytest.raises(ValueError):
            Mat2(2, 0, 0, 2).inverse()

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            Mat2(1.5, 0, 0, 1)

    def test_hashable_and_eq(self):
        assert Mat2(1, 2, 3, 4) == Mat2(1, 2, 3, 4)
        assert Mat2(1, 2, 3, 4) != Mat2(1, 2, 3, 5)
        assert len({Mat2(1, 0, 0, 1), Mat2.identity()}) == 1

    def test_eq_against_other_types(self):
        """A Mat2 is never equal to a non-Mat2, its entry tuple included,
        and comparing raises nothing."""
        assert (Mat2(1, 0, 0, 1) == (1, 0, 0, 1)) is False
        assert (Mat2(1, 0, 0, 1) != "x") is True


class TestPowerOracles:
    """The suite takes every matrix power from square_pow or naive_pow on
    plain tuples; both are checked here against repeated mat_mul."""

    # determinants 1, -1, 0 and others; traces of either sign and 0
    MATRICES = [
        (2, 1, 1, 1), (0, 1, -1, 7), (-3, 1, -1, 0), (1, 1, 0, 1), (-1, 0, 0, -1),
        (0, 1, 1, 1), (1, 2, 1, 1), (0, 1, 1, -4),
        (0, 0, 0, 0), (0, 1, 0, 0), (2, 4, 1, 2), (3, 0, 0, 0),
        (2, 0, 0, 3), (1, 2, 3, 4), (-5, 3, 2, 7), (0, -2, 1, 0), (4, 0, 0, 4),
    ]

    @staticmethod
    def repeated(x, n):
        power = Mat2.identity()
        for _ in range(n):
            power = mat_mul(power, Mat2(*x))
        return power.entries()

    def test_every_power_to_64(self):
        assert {det(x) for x in self.MATRICES} >= {1, -1, 0, 2, -2, 6, -41}
        for x in self.MATRICES:
            for n in range(65):
                assert square_pow(x, n) == self.repeated(x, n), (x, n)
                if n < 20:
                    assert square_pow(x, n) == naive_pow(x, n), (x, n)

    def test_seeded_large_powers(self):
        rng = random.Random(6)
        for _ in range(40):
            x = tuple(rng.randint(-9, 9) for _ in range(4))
            n = rng.choice([rng.randint(65, 300), rng.randint(300, 3000), 2 ** rng.randint(7, 11)])
            assert square_pow(x, n) == self.repeated(x, n), (x, n)

    def test_zero_power_is_identity(self):
        identity = Mat2.identity()
        for x in self.MATRICES:
            assert square_pow(x, 0) == naive_pow(x, 0) == identity.entries()
            assert mat_mul(identity, Mat2(*x)) == Mat2(*x) == mat_mul(Mat2(*x), identity)

    def test_hyperbolic_product_is_plain_mat2(self):
        """mat_mul returns a Mat2 even for hyperbolic factors; from_mat
        rewraps a power, which stays hyperbolic."""
        a = HyperbolicMatrix(2, 1, 1, 1)
        product = mat_mul(a, a)
        assert type(product) is Mat2
        assert product.entries() == square_pow(a.entries(), 2)
        assert type(HyperbolicMatrix.from_mat(product)) is HyperbolicMatrix


class TestHyperbolicMatrix:
    def test_accepts_hyperbolic(self):
        m = HyperbolicMatrix(2, 1, 1, 1)
        assert m.trace() == 3

    def test_rejects_wrong_det(self):
        with pytest.raises(NotHyperbolic):
            HyperbolicMatrix(2, 0, 0, 2)

    def test_rejects_small_trace(self):
        with pytest.raises(NotHyperbolic):
            HyperbolicMatrix(1, 1, 0, 1)
        with pytest.raises(NotHyperbolic):
            HyperbolicMatrix(-2, -1, -1, -1)

    def test_from_mat(self):
        m = HyperbolicMatrix.from_mat(Mat2(7, 12, 4, 7))
        assert isinstance(m, HyperbolicMatrix)
        assert m.entries() == (7, 12, 4, 7)


class TestLattice2:
    def test_validation(self):
        with pytest.raises(ValueError):
            Lattice2(0, 0, 1)
        with pytest.raises(ValueError):
            Lattice2(1, 0, 0)
        with pytest.raises(ValueError):
            Lattice2(2, 2, 1)
        with pytest.raises(ValueError):
            Lattice2(2, -1, 1)


class TestHnf:
    def test_identity(self):
        assert hnf(Mat2.identity()) == Lattice2(1, 0, 1)

    def test_index_is_abs_det(self):
        rng = random.Random(105)
        for _ in range(300):
            m = Mat2(*(rng.randint(-9, 9) for _ in range(4)))
            if m.det() == 0:
                continue
            lat = hnf(m)
            assert lat.a * lat.d == abs(m.det())

    def test_worked_example(self):
        lat = hnf(Mat2(1, 1, -2, 1))
        assert (lat.a, lat.b, lat.d) == (3, 1, 1)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            hnf(Mat2(2, 4, 1, 2))

    def test_membership_preserved(self):
        """The canonical lattice has exactly the original column span."""
        rng = random.Random(106)
        for _ in range(40):
            m = Mat2(*(rng.randint(-6, 6) for _ in range(4)))
            if m.det() == 0:
                continue
            lat = hnf(m)
            for x in range(-6, 7):
                for y in range(-6, 7):
                    assert contains_oracle(canonical_basis(lat), x, y) == contains_oracle(m, x, y)

    def test_column_operation_invariance(self):
        """Right-multiplying the basis by a unimodular matrix fixes hnf."""
        rng = random.Random(107)
        for _ in range(1000):
            m = Mat2(*(rng.randint(-9, 9) for _ in range(4)))
            if m.det() == 0:
                continue
            u = Mat2(*random_unimodular(rng))
            assert hnf(mat_mul(m, u)) == hnf(m)


def sublattices(n):
    return [Lattice2(*triple) for triple in enumerate_sublattices(n)]


def canonical_basis(lat):
    """The canonical basis: columns (a, 0) and (b, d)."""
    return Mat2(lat.a, lat.b, 0, lat.d)


def image(u, lat):
    """The canonical form of u applied to lat, for u of nonzero determinant."""
    return hnf(mat_mul(u, canonical_basis(lat)))


class TestEnumerateSublattices:
    def test_counts_are_sigma(self):
        for n in range(1, 60):
            assert len(enumerate_sublattices(n)) == sigma(n)

    def test_index_one(self):
        assert sublattices(1) == [Lattice2(1, 0, 1)]

    def test_distinct_and_correct_index(self):
        for n in (6, 12, 30):
            lats = sublattices(n)
            assert len(set(lats)) == len(lats)
            assert all(lat.a * lat.d == n for lat in lats)
            assert all(hnf(canonical_basis(lat)) == lat for lat in lats)

    def test_sorted_by_triple(self):
        triples = enumerate_sublattices(12)
        assert triples == sorted(triples)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_sublattices(0)


class TestLatticeImage:
    """The image of a lattice under u, as hnf(u basis)."""

    def test_identity_fixes(self):
        for lat in sublattices(8):
            assert image(Mat2.identity(), lat) == lat

    def test_permutes_index_class(self):
        rng = random.Random(108)
        for n in (4, 6, 9):
            lats = sublattices(n)
            for _ in range(20):
                u = Mat2(*random_unimodular(rng))
                images = [image(u, lat) for lat in lats]
                assert sorted((l.a, l.b, l.d) for l in images) == enumerate_sublattices(n)

    def test_composition(self):
        rng = random.Random(109)
        lat = Lattice2(4, 3, 2)
        for _ in range(50):
            u = Mat2(*random_unimodular(rng))
            v = Mat2(*random_unimodular(rng))
            assert image(mat_mul(u, v), lat) == image(u, image(v, lat))

    def test_nonunimodular_image_scales_index(self):
        """For det u = k != 0 the image has index |k| n and holds u (x, y)
        for each point (x, y) of the lattice."""
        rng = random.Random(110)
        for n in (1, 4, 6):
            for lat in sublattices(n):
                for _ in range(10):
                    u = Mat2(*(rng.randint(-5, 5) for _ in range(4)))
                    if u.det() == 0:
                        continue
                    img = image(u, lat)
                    assert img.a * img.d == abs(u.det()) * n
                    for x in range(-4, 5):
                        for y in range(-4, 5):
                            if contains_oracle(canonical_basis(lat), x, y):
                                ux, uy = u.a * x + u.b * y, u.c * x + u.d * y
                                assert contains_oracle(canonical_basis(img), ux, uy)


class TestIntertwinerLattice:
    def test_solutions_satisfy_identity(self):
        rng = random.Random(110)
        for _ in range(40):
            a = Mat2(*random_hyperbolic(rng, max_trace=30))
            q = Mat2(*random_unimodular(rng))
            b = mat_mul(mat_mul(q.inverse(), a), q)
            k1, k2 = intertwiner_lattice(a, b)
            for x, y in ((1, 0), (0, 1), (2, -3), (5, 7)):
                p = Mat2(
                    x * k1.a + y * k2.a,
                    x * k1.b + y * k2.b,
                    x * k1.c + y * k2.c,
                    x * k1.d + y * k2.d,
                )
                assert mat_mul(a, p) == mat_mul(p, b)

    def test_saturated(self):
        """Every integer solution in a box is an integer combination, for
        a conjugate pair and for input-size pairs X, Y (det X = det Y is
        not 1), found by enumerating all four entries."""
        a = (2, 1, 1, 1)
        pairs = [
            (a, mul(mul(inverse((1, 1, 0, 1)), a), (1, 1, 0, 1))),
            input_size_pair(a, square_pow(a, 2)),
            input_size_pair(a, mul(mul(inverse((1, 0, 1, 1)), square_pow(a, 3)), (1, 0, 1, 1))),
            input_size_pair(square_pow(a, 2), (0, 1, -1, 3)),
            input_size_pair((0, 1, -1, 3), (0, 1, -1, 7)),
            input_size_pair((0, 1, -1, 7), (0, 1, -1, 18)),
            input_size_pair((0, 1, -1, 4), (0, 1, -1, 14)),
        ]
        for x, y in pairs:
            basis = [k.entries() for k in intertwiner_lattice(Mat2(*x), Mat2(*y))]
            found = 0
            for p in _box(6):
                if mul(x, p) != mul(p, y) or p == (0, 0, 0, 0):
                    continue
                found += 1
                assert span_coords(*basis, p) is not None, (x, y, p)
            assert found > 1, (x, y)

    def test_spans_the_oracle_lattice(self):
        """The basis spans the lattice that the general 4x4 column
        reduction of tests/helpers.py finds, on seeded conjugate pairs,
        pairs with the trace-t matrix [[0,1],[-1,t]], pairs of one trace
        drawn apart, and input-size pairs of powers and of companions."""
        rng = random.Random(16)
        pairs = []
        by_trace = {}
        for _ in range(300):
            a = random_hyperbolic(rng, max_trace=40)
            q = random_unimodular(rng)
            b = mul(mul(inverse(q), a), q)
            companion = (0, 1, -1, trace(a))
            pairs += [(a, b), (a, companion), (companion, b)]
            pairs.append(input_size_pair(a, square_pow(b, rng.randint(1, 5))))
            by_trace.setdefault(trace(a), []).append(a)
        for same in by_trace.values():
            pairs += list(zip(same, same[1:]))
        for ta in range(3, 200):
            for tb in range(3, 200):
                product = (ta * ta - 4) * (tb * tb - 4)
                if isqrt(product) ** 2 == product:
                    pairs.append(input_size_pair((0, 1, -1, ta), (0, 1, -1, tb)))
        assert len(pairs) >= 1000
        for x, y in pairs:
            basis = [k.entries() for k in intertwiner_lattice(Mat2(*x), Mat2(*y))]
            for k in basis:
                assert mul(x, k) == mul(k, y), (x, y, k)
            assert same_lattice(basis, column_kernel(x, y)), (x, y)

    def test_trace_mismatch(self):
        with pytest.raises(ValueError):
            intertwiner_lattice(Mat2(2, 1, 1, 1), Mat2(5, 2, 2, 1))

    def test_determinant_mismatch(self):
        """One trace, determinants 1 and 0: only P = 0 intertwines."""
        with pytest.raises(ValueError):
            intertwiner_lattice(Mat2(2, 1, 1, 1), Mat2(1, 2, 1, 2))
        assert column_kernel((2, 1, 1, 1), (1, 2, 1, 2)) == []


def _box(radius):
    span = range(-radius, radius + 1)
    for a in span:
        for b in span:
            for c in span:
                for d in span:
                    yield (a, b, c, d)
