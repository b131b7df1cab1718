"""Seeded workload generators and the expected answer of every operation.

A workload is an endless sequence of passes. Pass k of a workload is a
list of decisions (``canon``, ``equiv``, ``commensurable``, ``cover``,
``chain``) built from ``random.Random(f"{name}:{seed}:{k}")`` and k, so
the same seed always yields the same argv lists. The program only ever sees those
argv lists and the document files the checker writes; each operation
carries an expectation built from how its inputs were constructed, which
judges the exit code and stdout with the plain-integer oracle.
"""

import functools
import json
import random
from math import gcd

import oracle as o

A = (2, 1, 1, 1)


class Workload:
    """name, the pass generator and the tail percentile the report reads
    for decisions and for checks. BENCHMARK.json records why each workload
    exists."""

    def __init__(self, name, build_pass, tail):
        self.name = name
        self.build_pass = build_pass
        self.tail = tail

    def ops(self, seed, index):
        """The decisions of pass `index` for this seed."""
        return self.build_pass(random.Random(f"{self.name}:{seed}:{index}"), index)


class Op:
    """One decision: the argv handed to flowcomm.cli.run, its expectation,
    and which field the checker tampers in each document it emits."""

    __slots__ = ("argv", "expect", "tamper")

    def __init__(self, argv, expect, tamper):
        self.argv = argv
        self.expect = expect
        self.tamper = tamper


# -- expectations ---------------------------------------------------------
#
# judge(rc, out) runs only for exit codes 0 and 1 (a verdict) and returns
# (clause, documents): clause is None when the verdict and stdout agree
# with the oracle, documents are the certificate texts the checker then
# verifies.

def _word(pairs):
    return [[str(r), str(l)] for r, l in pairs]


def _json(out):
    try:
        return json.loads(out)
    except ValueError:
        return None


class Canon:
    def __init__(self, pairs):
        self.pairs = o.least_rotation(pairs)

    def judge(self, rc, out):
        doc = _json(out)
        if rc != 0 or doc is None or doc.get("canonical_word") != _word(self.pairs):
            return "canonical_word", []
        return None, []


class Equiv:
    def __init__(self, a, b, pairs_a, pairs_b):
        self.a, self.b = a, b
        self.word_a = o.least_rotation(pairs_a)
        self.word_b = o.least_rotation(pairs_b)

    def judge(self, rc, out):
        doc = _json(out)
        positive = self.word_a == self.word_b
        if doc is None or rc != (0 if positive else 1) or doc.get("equivalent") is not positive:
            return "equivalent", []
        if doc.get("canonical_a") != _word(self.word_a) or doc.get(
            "canonical_b"
        ) != _word(self.word_b):
            return "canonical_words", []
        if not positive:
            return (None if doc.get("conjugator") is None else "conjugator"), []
        try:
            q = o.parse(doc["conjugator"])
        except (TypeError, ValueError, KeyError):
            return "conjugator_shape", []
        return o.check_conjugator(self.a, self.b, q), []


class Commensurable:
    """exponents is the minimal pair known from construction, or None for
    a pair in distinct squarefree classes; verb is commensurable or cover."""

    def __init__(self, a, b, exponents, verb):
        self.a, self.b = a, b
        self.a1, self.squared_a = o.normalized(a)
        self.b1, self.squared_b = o.normalized(b)
        self.exponents = exponents
        self.verb = verb

    def _certificate(self, body):
        clause = o.check_certificate(body, self.a1, self.b1)
        if clause is None and (int(body["power_a"]), int(body["power_b"])) != self.exponents:
            clause = "certificate_powers"
        return clause

    def judge(self, rc, out):
        positive = self.exponents is not None
        if rc != (0 if positive else 1):
            return "commensurable", []
        if self.verb == "cover":
            if not positive:
                return (None if out == "" else "cover_output"), []
            doc = _json(out)
            if doc is None or doc.get("kind") != o.CERT_KIND or doc.get(
                "format_version"
            ) != o.FORMAT_VERSION:
                return "cover_header", []
            return self._certificate(doc), [out]
        doc = _json(out)
        if doc is None or doc.get("commensurable") is not positive:
            return "commensurable", []
        if doc.get("squared_a") is not self.squared_a or doc.get(
            "squared_b"
        ) is not self.squared_b:
            return "squared_flags", []
        try:
            sf_a, sf_b = int(doc["squarefree_a"]), int(doc["squarefree_b"])
        except (KeyError, TypeError, ValueError):
            return "squarefree_shape", []
        if not (o.in_class(o.trace(self.a1), sf_a) and o.in_class(o.trace(self.b1), sf_b)):
            return "squarefree_class", []
        if (sf_a == sf_b) is not positive:
            return "squarefree_verdict", []
        if not positive:
            ok = doc.get("minimal_exponents") is None and doc.get("certificate") is None
            return (None if ok else "negative_fields"), []
        if doc.get("minimal_exponents") != [str(k) for k in self.exponents]:
            return "minimal_exponents", []
        body = doc.get("certificate")
        if not isinstance(body, dict):
            return "certificate_missing", []
        return self._certificate(body), [o.wrap_certificate(body)]


class Chain:
    def __init__(self, source, target):
        self.source, self.target = source, target

    def judge(self, rc, out):
        doc = _json(out)
        if rc != 0 or doc is None:
            return "chain", []
        return o.check_chain(doc, self.source, self.target), [out]


class Verify:
    """The checker's side: a document the oracle finds valid must verify,
    any other must be rejected."""

    def __init__(self, text):
        self.valid = o.check_document(text) is None

    def judge(self, rc, out):
        if self.valid:
            ok = rc == 0 and out == "verified\n"
        else:
            ok = rc == 1 and out.startswith("rejected: ")
        return (None if ok else "verify_verdict"), []


# -- input generators -----------------------------------------------------

def random_word(rng, blocks=3, top=4):
    return [(rng.randint(1, top), rng.randint(1, top)) for _ in range(rng.randint(1, blocks))]


def small_word(rng, max_trace=50):
    """Random positive word with trace in (2, max_trace]."""
    while True:
        pairs = random_word(rng)
        if o.trace(o.word_matrix(pairs)) <= max_trace:
            return pairs


def random_unimodular(rng, steps=6):
    m = o.IDENTITY
    for _ in range(steps):
        k = rng.randint(-3, 3)
        m = o.mul(m, (1, k, 0, 1) if rng.random() < 0.5 else (1, 0, k, 1))
    if rng.random() < 0.5:
        m = o.mul(m, (0, 1, -1, 0))
    return m


def rotate(pairs, k):
    return pairs[k:] + pairs[:k]


def _conj(rng, pairs):
    return o.conjugate(random_unimodular(rng), o.word_matrix(pairs))


def _comm_ops(rng, a, b, exponents, verbs):
    return [
        Op([verb, o.fmt(a), o.fmt(b)], Commensurable(a, b, exponents, verb), rng.randrange(60))
        for verb in verbs
    ]


def _positive_pair(rng):
    """Conjugates of W^a and W^b, one of them possibly negated; the
    minimal exponents are (b'/g, a'/g) after squaring negated inputs,
    which the double loop over power traces must confirm."""
    pairs = small_word(rng, 30)
    ea, eb = rng.randint(1, 3), rng.randint(1, 3)
    a = o.conjugate(random_unimodular(rng), o.power(o.word_matrix(pairs), ea))
    b = o.conjugate(random_unimodular(rng), o.power(o.word_matrix(pairs), eb))
    if rng.random() < 0.2:
        a, ea = o.negate(a), 2 * ea
    g = gcd(ea, eb)
    exponents = (eb // g, ea // g)
    looped = o.minimal_exponents(o.trace(o.normalized(a)[0]), o.trace(b), 8)
    if looped != exponents:
        raise RuntimeError(f"oracle disagrees with itself: {looped} != {exponents}")
    return a, b, exponents


def _negative_pair(rng):
    while True:
        a, b = _conj(rng, small_word(rng)), _conj(rng, small_word(rng))
        if not o.same_class(o.trace(a), o.trace(b)):
            return a, b


def _equiv_negative(rng, pairs):
    """A word in another class, of the same trace when one turns up
    within twenty tries."""
    t = o.trace(o.word_matrix(pairs))
    canon = o.least_rotation(pairs)
    other = None
    tries = 0
    while other is None or (tries < 20 and o.trace(o.word_matrix(other)) != t):
        cand = small_word(rng)
        tries += 1
        if o.least_rotation(cand) != canon and (
            other is None or o.trace(o.word_matrix(cand)) == t
        ):
            other = cand
    return other


def _small_model(rng):
    kind = rng.randrange(3)
    if kind == 0:
        m = _conj(rng, small_word(rng))
        return "suspension:" + o.fmt(m), o.suspension_model(m)
    if kind == 1:
        g = rng.randint(2, 4)
        return f"surface:g={g}", o.surface_model(g)
    n = rng.randint(7, 30)
    return f"orbifold:2,3,{n}", o.orbifold_model(n)


def small_mix_pass(rng, index):
    ops = []
    for _ in range(20):
        pairs = small_word(rng)
        m = _conj(rng, pairs)
        ops.append(Op(["canon", o.fmt(m)], Canon(pairs), 0))
    for i in range(20):
        pairs = small_word(rng)
        other = rotate(pairs, rng.randrange(len(pairs))) if i % 2 == 0 else _equiv_negative(rng, pairs)
        a, b = _conj(rng, pairs), _conj(rng, other)
        ops.append(Op(["equiv", o.fmt(a), o.fmt(b)], Equiv(a, b, pairs, other), 0))
    for i in range(20):
        if i % 2 == 0:
            a, b, exps = _positive_pair(rng)
        else:
            (a, b), exps = _negative_pair(rng), None
        ops += _comm_ops(rng, a, b, exps, ["commensurable"])
    for i in range(8):
        if i % 4 == 3:
            (a, b), exps = _negative_pair(rng), None
        else:
            a, b, exps = _positive_pair(rng)
        ops += _comm_ops(rng, a, b, exps, ["cover"])
    for _ in range(8):
        (arg_a, model_a), (arg_b, model_b) = _small_model(rng), _small_model(rng)
        ops.append(Op(["chain", arg_a, arg_b], Chain(model_a, model_b), rng.randrange(60)))
    rng.shuffle(ops)
    return ops


# R^N L for N = 2^6 .. 2^15, A^p vs A^(p-1) for p = 2^4 .. 2^7,
# and chain surface:g=2 suspension:A^n for n = 4 .. 16: each rung doubles
# (or, for the chain, steps) the bit size, so a loop linear in an integer's
# value shows as a cost that doubles per rung instead of growing by a step.
# A pass holds an odd number (25) of decisions, so the median of whole
# passes is the middle decision's own time, not the mean of two rungs.
LADDER_N = (2**6, 2**9, 2**12, 2**15)
LADDER_P = (16, 32, 64, 128)
LADDER_CHAIN = (4, 8, 10, 12, 16)


def bit_ladder_pass(rng, index):
    """The rungs are fixed; the seed picks the conjugating power R^k, the
    tampered field of each chain and the order."""
    ops = []
    for n in LADDER_N:
        m = (1 + n, n, 1, 1)
        k = n // 2 + rng.randrange(n // 8)
        c = o.mul(o.mul((1, -k, 0, 1), m), (1, k, 0, 1))
        word = [(n, 1)]
        ops.append(Op(["canon", o.fmt(m)], Canon(word), 0))
        ops.append(Op(["canon", o.fmt(c)], Canon(word), 0))
        ops.append(Op(["equiv", o.fmt(m), o.fmt(c)], Equiv(m, c, word, word), 0))
    for i, p in enumerate(LADDER_P):
        a, b = o.power(A, p), o.power(A, p - 1)
        for verb in ("commensurable", "cover"):
            ops.append(Op([verb, o.fmt(a), o.fmt(b)], Commensurable(a, b, (p - 1, p), verb), i))
    for n in LADDER_CHAIN:
        m = o.power(A, n)
        ops.append(
            Op(
                ["chain", "surface:g=2", "suspension:" + o.fmt(m)],
                Chain(o.surface_model(2), o.suspension_model(m)),
                rng.randrange(60),
            )
        )
    rng.shuffle(ops)
    return ops


# The program finds the squarefree class of t^2 - 4 by factoring t - 2 and
# t + 2, and a cofactor it cannot split within its default effort ends the
# call in exit 3, which the benchmark counts as a failed operation. Most
# random traces above 128 bits have such a cofactor, so the traces here are
# built to factor within that effort while still taking the Pollard-Brent
# path: t - 2 is a 10^4-smooth number times two primes of up to
# WIDE_RHO_BITS bits, whose product the program must split, and t + 2 is
# 10^4-smooth times at most one prime. For M^2 the program factors t^2 (a
# square) and (t - 2)(t + 2), which splits the same way. The cost depends on
# the trace alone, so the traces come from a fixed corpus of three passes'
# worth (pass k uses slice k mod 3) and every run factors the same numbers.
WIDE_BITS = tuple(range(40, 201, 16))
WIDE_RHO_BITS = 24
WIDE_CORPUS_SLICES = 3


def random_prime(rng, bits):
    while True:
        n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        if o.is_probable_prime(n):
            return n


def wide_trace(rng, bits):
    """A trace of `bits` bits whose discriminant factors as described above."""
    rho_bits = min(WIDE_RHO_BITS, (bits - 4) // 2)
    while True:
        n = random_prime(rng, rho_bits) * random_prime(rng, rho_bits)
        while n.bit_length() < bits:
            q = rng.choice(o.SMALL_PRIMES)
            n *= q if (n * q).bit_length() <= bits else 2
        t = n + 2
        rough = o.rough_part(t + 2)
        if t.bit_length() == bits and (rough == 1 or o.is_probable_prime(rough)):
            return t


@functools.lru_cache(maxsize=None)
def wide_corpus(index):
    """(trace, trace of another class) for each of WIDE_BITS."""
    rng = random.Random(f"wide-traces-corpus:{index}")
    out = []
    for bits in WIDE_BITS:
        t = wide_trace(rng, bits)
        other = wide_trace(rng, bits)
        while o.same_class(t, other):
            other = wide_trace(rng, bits)
        out.append((t, other))
    return tuple(out)


def wide_traces_pass(rng, index):
    """The seed picks the conjugator of each cross-class partner and the
    order. The tampered field cycles with the pass, so every run checks
    the same mix of rejections."""
    ops = []
    for i, (t, other) in enumerate(wide_corpus(index % WIDE_CORPUS_SLICES)):
        # M = trace_matrix(t) and M^2 themselves: for some conjugates of M
        # (about one in several thousand, and often when M^2 is conjugated
        # again) the intertwiner search misses the det-1 intertwiner and
        # build_certificate then loops over |det P| (around 10^36) values;
        # small-mix and bit-ladder time that path, this workload times the
        # squarefree-class layer
        a, a2 = o.trace_matrix(t), o.power(o.trace_matrix(t), 2)
        argv = ["commensurable", o.fmt(a), o.fmt(a2)]
        ops.append(Op(argv, Commensurable(a, a2, (2, 1), "commensurable"), index + i))
        b = o.conjugate(random_unimodular(rng), o.trace_matrix(other))
        ops += _comm_ops(rng, a, b, None, ["commensurable"])
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-mix",
            small_mix_pass,
            tail={"decide": 99, "check": 99},
        ),
        Workload(
            "bit-ladder",
            bit_ladder_pass,
            tail={"decide": 95, "check": 95},
        ),
        Workload(
            "wide-traces",
            wide_traces_pass,
            tail={"decide": 95, "check": 95},
        ),
    )
}
