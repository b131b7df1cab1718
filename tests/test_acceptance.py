"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every test re-derives its expected values from independent
oracles (exhaustive enumeration and search, repeated multiplication of
plain tuples) rather than from the code under test.
"""

import json
import random
import time
from fractions import Fraction

from flowcomm import (
    GeodesicCommonCover,
    GeodesicOrbifold,
    HyperbolicMatrix,
    Lattice2,
    Mat2,
    Suspension,
    almost_commensurability_chain,
    are_commensurable,
    are_equivalent,
    genus_model_matrix,
    hnf,
    mat_mul,
    orbifold_model_matrix,
    rl_word,
    stabilization_exponent,
    verify_certificate,
    verify_chain,
)
from flowcomm.cli import run
from helpers import (
    brute_force_conjugator,
    enumerate_sublattices,
    hyperbolic_corpus,
    least_common_cover,
    lattice_period,
    mul,
    naive_pow,
    random_hyperbolic,
    random_unimodular,
    replace_cert_field,
    square_pow,
    trace,
)

A = HyperbolicMatrix(2, 1, 1, 1)
F7 = HyperbolicMatrix(0, 1, -1, 7)


def report(n, elapsed, detail):
    print(f"criterion {n}: PASS ({detail}; {elapsed:.2f}s)")


def conj(q, m):
    return mat_mul(mat_mul(q.inverse(), m), q)


def box_corpus():
    """Every det-1 matrix with entries in [-10, 10] and trace in (2, 20]."""
    out = []
    span = range(-10, 11)
    for a in span:
        for b in span:
            for c in span:
                for d in span:
                    if a * d - b * c == 1 and 2 < a + d <= 20:
                        out.append(Mat2(a, b, c, d))
    return out


def test_criterion_1_equivalence_criterion():
    start = time.monotonic()
    corpus = box_corpus()
    assert len(corpus) == 348

    groups = {}
    for m in corpus:
        word, _ = rl_word(m)
        groups.setdefault(word.pairs, []).append(m)

    positives = 0
    for members in groups.values():
        for a in members:
            for b in members:
                verdict = are_equivalent(a, b)
                assert verdict.equivalent
                assert verdict.conjugator.det() == 1
                assert conj(verdict.conjugator, a) == b
                positives += 1

    reps = [members[0] for members in groups.values()]
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            assert not are_equivalent(a, b).equivalent

    left, right = Mat2(3, 1, 2, 1), Mat2(3, 2, 1, 1)
    assert not are_equivalent(left, right).equivalent
    assert brute_force_conjugator(left.entries(), right.entries(), 50) is None

    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(
        1,
        elapsed,
        f"{len(corpus)} matrices, {len(groups)} classes, "
        f"{positives} exact conjugators, curated negative at bound 50",
    )


def commensurable_corpus():
    return [Mat2(*e) for e in hyperbolic_corpus(20260819, 50, max_trace=12)]


def power_traces(m, bound):
    """trace(m**i) for i = 0..bound, by repeated products of tuples."""
    out, power = [], (1, 0, 0, 1)
    for _ in range(bound + 1):
        out.append(trace(power))
        power = mul(power, m.entries())
    return out


def oracle_minimal_exponents(a, b, bound=20):
    """First common power trace by double loop over repeated products."""
    ta, tb = power_traces(a, bound), power_traces(b, bound)
    best = None
    for i in range(1, bound + 1):
        for j in range(1, bound + 1):
            if ta[i] == tb[j] and (best is None or (i + j, i) < best[0]):
                best = ((i + j, i), (i, j))
    return None if best is None else best[1]


def test_criterion_2_minimal_exponents():
    start = time.monotonic()
    corpus = commensurable_corpus()
    assert len(corpus) == 50

    positives = 0
    for x, a in enumerate(corpus):
        for b in corpus[x:]:
            verdict = are_commensurable(a, b)
            expected = oracle_minimal_exponents(a, b)
            if verdict.commensurable:
                assert max(verdict.minimal_exponents) <= 20
                assert verdict.minimal_exponents == expected
                positives += 1
            else:
                assert expected is None

    worked = are_commensurable(A, F7)
    assert worked.minimal_exponents == (2, 1)
    assert trace(naive_pow(A.entries(), 2)) == trace(F7.entries()) == 7

    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(2, elapsed, f"1275 pairs against the double-loop oracle, {positives} positive")


def certificate_mutants(cert):
    """One mutated copy per field; every one must be rejected."""
    p = cert.intertwiner
    if cert.sublattice.a > 1:
        other_lat = Lattice2(
            cert.sublattice.a,
            (cert.sublattice.b + 1) % cert.sublattice.a,
            cert.sublattice.d,
        )
    elif cert.sublattice.d > 1:
        other_lat = Lattice2(cert.sublattice.d, 0, cert.sublattice.a)
    else:
        other_lat = Lattice2(2, 0, 1)
    return [
        ("base_a", replace_cert_field(cert, base_a=mat_mul(cert.base_a, cert.base_a))),
        ("base_b", replace_cert_field(cert, base_b=mat_mul(cert.base_b, cert.base_b))),
        ("power_a", replace_cert_field(cert, power_a=cert.power_a + 1)),
        ("power_b", replace_cert_field(cert, power_b=cert.power_b + 1)),
        (
            "intertwiner",
            replace_cert_field(
                cert, intertwiner=Mat2(p.a + 1, p.b, p.c, p.d + 1)
            ),
        ),
        (
            "intertwiner_det",
            replace_cert_field(cert, intertwiner_det=cert.intertwiner_det + 1),
        ),
        ("sublattice", replace_cert_field(cert, sublattice=other_lat)),
        ("stabilization", replace_cert_field(cert, stabilization=cert.stabilization + 1)),
        ("index_over_a", replace_cert_field(cert, index_over_a=cert.index_over_a + 1)),
        ("index_over_b", replace_cert_field(cert, index_over_b=cert.index_over_b + 1)),
    ]


def test_criterion_3_certificates():
    start = time.monotonic()
    corpus = commensurable_corpus()

    built = 0
    mutations = 0
    for x, a in enumerate(corpus):
        for b in corpus[x:]:
            verdict = are_commensurable(a, b)
            if not verdict.commensurable:
                continue
            i, j = verdict.minimal_exponents
            cert = verdict.certificate
            assert verify_certificate(cert) == (True, "ok")
            p = cert.intertwiner.entries()
            assert mul(square_pow(a.entries(), i), p) == mul(p, square_pow(b.entries(), j))
            assert abs(cert.intertwiner_det) >= 1
            assert cert.stabilization == 1
            assert cert.index_over_a == i * abs(cert.intertwiner_det)
            built += 1
            for field, mutant in certificate_mutants(cert):
                ok, clause = verify_certificate(mutant)
                assert not ok, f"mutated {field} slipped through as {clause}"
                mutations += 1

    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(3, elapsed, f"{built} certificates verified, {mutations}/{mutations} mutations rejected")


def big_trace_corpus(count=100):
    rng = random.Random(212)
    out = []
    for k in range(count):
        if k % 2 == 0:
            t = rng.randint(3, 10**6)
            q = Mat2(*random_unimodular(rng))
            out.append(conj(q, Mat2(0, 1, -1, t)))
        else:
            out.append(Mat2(*random_hyperbolic(rng, max_trace=10**6, blocks=6)))
    return out


def test_criterion_4_discriminant_invariance():
    start = time.monotonic()
    corpus = big_trace_corpus()
    assert len(corpus) == 100
    assert max(m.trace() for m in corpus) > 10**5

    # t_i^2 - 4 = (t_1^2 - 4) u_i^2 with u_0 = 0, u_1 = 1 and
    # u_{i+1} = t_1 u_i - u_{i-1}, so every power lies in one square class
    for m in corpus:
        t1 = m.trace()
        disc = t1 * t1 - 4
        u_prev, u = 0, 1
        for i in range(1, 11):
            power = naive_pow(m.entries(), i)
            t_i = trace(power)
            assert t_i * t_i - 4 == disc * u * u
            assert are_commensurable(m, Mat2(*power)).minimal_exponents == (i, 1)
            u_prev, u = u, t1 * u - u_prev

    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(4, elapsed, "100 matrices with traces up to 1e6, powers 1..10, D_i = D_1 u_i^2 each")


def test_criterion_5_model_matrices():
    start = time.monotonic()

    m2 = genus_model_matrix(2)
    assert m2 == Mat2(7, 12, 4, 7)
    assert m2.trace() == 14 == 4 * 2**2 - 2
    for g in range(2, 11):
        assert genus_model_matrix(g).trace() == 4 * g * g - 2
    for t in range(3, 51):
        m = orbifold_model_matrix(t)
        assert m.det() == 1
        assert m.trace() == t
    assert GeodesicOrbifold(0, (2, 3, 12)).euler_characteristic() == Fraction(-1, 12)

    elapsed = time.monotonic() - start
    report(5, elapsed, "model matrices g=2..10 and t=3..50, chi(0;2,3,12) = -1/12")


def test_criterion_6_chains_for_all_pairs():
    start = time.monotonic()
    rng = random.Random(435)
    models = (
        [Suspension(Mat2(*random_hyperbolic(rng))) for _ in range(20)]
        + [GeodesicOrbifold(g) for g in range(2, 6)]
        + [GeodesicOrbifold(0, (2, 3, n)) for n in range(7, 13)]
    )
    assert len(models) == 30

    pairs = covers = 0
    for x, m1 in enumerate(models):
        for m2 in models[x + 1 :]:
            chain = almost_commensurability_chain(m1, m2)
            assert verify_chain(chain) == (True, "ok")
            pairs += 1
            for link in chain.links:
                cover = link.evidence
                if isinstance(cover, GeodesicCommonCover):
                    ends = [(m.genus, m.cone_orders) for m in (link.source, link.target)]
                    assert least_common_cover(*ends) == (
                        cover.cover_genus,
                        cover.degree_source,
                        cover.degree_target,
                    )
                    covers += 1
    assert pairs == 435

    chain = almost_commensurability_chain(
        GeodesicOrbifold(2), GeodesicOrbifold(0, (2, 3, 18))
    )
    assert verify_chain(chain) == (True, "ok")
    via = Suspension(orbifold_model_matrix(14))
    assert any(
        link.target == via or link.source == via for link in chain.links
    )
    middle = chain.links[1]
    assert middle.target == via
    assert (middle.evidence.power_a, middle.evidence.power_b) == (1, 1)

    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(
        6,
        elapsed,
        f"435 chains verified, {covers} least common covers; "
        "genus-2 to (2,3,18) passes through trace 14",
    )


def test_criterion_7_lattice_layer():
    start = time.monotonic()

    def sigma(n):
        return sum(d for d in range(1, n + 1) if n % d == 0)

    for n in range(1, 201):
        assert len(enumerate_sublattices(n)) == sigma(n)

    rng = random.Random(7)
    checked = 0
    while checked < 1000:
        m = Mat2(*(rng.randint(-9, 9) for _ in range(4)))
        if m.det() == 0:
            continue
        u = Mat2(*random_unimodular(rng))
        assert hnf(mat_mul(m, u)) == hnf(m)
        checked += 1

    matrices = [Mat2(*e) for e in hyperbolic_corpus(77, 50)]
    stabilizations = 0
    for m in matrices:
        for n in range(1, 13):
            for triple in enumerate_sublattices(n):
                period = lattice_period(m.entries(), triple)
                assert stabilization_exponent(m, Lattice2(*triple), sigma(n)) == period
                stabilizations += 1

    elapsed = time.monotonic() - start
    report(
        7,
        elapsed,
        f"sigma counts to 200, 1000 basis changes, {stabilizations} orbit periods",
    )


def test_criterion_8_cli_round_trips(tmp_path, capsys):
    start = time.monotonic()

    rng = random.Random(8)
    pairs = []
    while len(pairs) < 20:
        m = Mat2(*random_hyperbolic(rng, max_trace=30))
        q = Mat2(*random_unimodular(rng))
        if len(pairs) % 2 == 0:
            pairs.append((m, conj(q, m)))
        else:
            pairs.append((m, mat_mul(m, m)))

    def matrix_arg(m):
        return f"[[{m.a},{m.b}],[{m.c},{m.d}]]"

    for idx, (a, b) in enumerate(pairs):
        path = tmp_path / f"cert{idx}.json"
        assert run(["cover", matrix_arg(a), matrix_arg(b), "-o", str(path)]) == 0
        assert run(["verify", "--quiet", str(path)]) == 0

        doc = json.loads(path.read_text())
        doc["index_over_b"] = str(int(doc["index_over_b"]) + 1)
        tampered = tmp_path / f"tampered{idx}.json"
        tampered.write_text(json.dumps(doc))
        assert run(["verify", "--quiet", str(tampered)]) == 1

    malformed = tmp_path / "malformed.json"
    malformed.write_text("{]")
    assert run(["verify", malformed.as_posix()]) == 2
    assert run(["cover", "[[1,1],[0,1]]", matrix_arg(A)]) == 2

    a, b = pairs[0]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert run(["cover", matrix_arg(a), matrix_arg(b), "-o", str(first)]) == 0
    assert run(["cover", matrix_arg(a), matrix_arg(b), "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    capsys.readouterr()
    elapsed = time.monotonic() - start
    report(8, elapsed, "20 cover/verify round trips, tampering exits 1, malformed exits 2")
