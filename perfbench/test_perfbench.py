"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import compare  # noqa: E402
import oracle as o  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Verify  # noqa: E402

import flowcomm  # noqa: E402
import flowcomm.cli as cli  # noqa: E402

README_A = (2, 1, 1, 1)
README_B = (0, 1, -1, 7)


def _docs(ops):
    """Run the decisions in-process; the emitted documents, in order."""
    session = run.Session(cli, workdir=None, check_repeats=0)
    docs = []
    for op in ops:
        docs += session._judge("decide", op.argv, op.expect)
    assert session.failed == 0, session.reasons
    return docs


def test_same_seed_same_argv_and_documents():
    for workload in WORKLOADS.values():
        first, again = workload.ops(7, 0), workload.ops(7, 0)
        assert [op.argv for op in first] == [op.argv for op in again]
        assert [op.argv for op in first] != [op.argv for op in workload.ops(8, 0)]
        docs = _docs(first)
        assert docs and docs == _docs(again)


def test_wide_traces_are_built_as_described():
    for index in range(workloads.WIDE_CORPUS_SLICES):
        corpus = workloads.wide_corpus(index)
        assert [t.bit_length() for t, _ in corpus] == list(workloads.WIDE_BITS)
        for t, other in corpus:
            assert not o.same_class(t, other)
            for x in (t, other):
                rough = o.rough_part(x - 2)
                assert rough.bit_length() > 27 and not o.is_probable_prime(rough)
                high = o.rough_part(x + 2)
                assert high == 1 or o.is_probable_prime(high)


def test_oracle_readme_pair():
    assert o.same_class(o.trace(README_A), o.trace(README_B))
    assert o.minimal_exponents(o.trace(README_A), o.trace(README_B), 10) == (2, 1)
    assert o.least_rotation([(1, 1)]) == ((1, 1),)
    assert o.word_matrix([(1, 1)]) == README_A


def test_oracle_hand_picked():
    # traces 3 and 4: t^2 - 4 = 5 and 12 lie in distinct classes
    assert not o.same_class(3, 4)
    assert o.in_class(4, 3) and o.in_class(4, 12) and not o.in_class(4, 2)
    assert o.minimal_exponents(3, 4, 12) is None
    # A^3 and A^2 first share a trace at A^6
    a3, a2 = o.power(README_A, 3), o.power(README_A, 2)
    assert o.minimal_exponents(o.trace(a3), o.trace(a2), 10) == (2, 3)
    assert o.least_rotation([(2, 1), (1, 3)]) == ((1, 3), (2, 1))
    q = (1, 2, 0, 1)
    assert o.check_conjugator(README_A, o.conjugate(o.inverse(q), README_A), q) is None
    assert o.check_conjugator(README_A, README_A, q) == "conjugator_identity"


def test_oracle_accepts_certificate_and_rejects_every_tamper():
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.run(["cover", o.fmt(README_A), o.fmt(README_B)]) == 0
    text = out.getvalue()
    assert o.check_document(text) is None
    doc = json.loads(text)
    assert (doc["power_a"], doc["power_b"]) == ("2", "1")
    fields = set()
    for choice in range(10):
        bad, field = o.tamper(text, choice)
        fields.add(field)
        assert o.check_document(bad) is not None
        assert not Verify(bad).valid
    assert len(fields) == 5


def test_oracle_checks_chains():
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.run(["chain", "surface:g=2", "orbifold:2,3,18"]) == 0
    text = out.getvalue()
    assert o.check_chain(json.loads(text), o.surface_model(2), o.orbifold_model(18)) is None
    for choice in range(6):
        assert o.check_document(o.tamper(text, choice)[0]) is not None


def _bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "flowcomm" or name.startswith("flowcomm.")
        for attr, value in vars(mod).items()
    }


def test_traced_run_restores_every_function():
    before = _bindings()
    tracer = Tracer()
    session = run.Session(cli, workdir=None, check_repeats=0)
    session.tracer = tracer
    ops = WORKLOADS["small-mix"].ops(3, 0)[:12]
    with tracer:
        assert flowcomm.linalg.hnf is not before[("flowcomm.linalg", "hnf")]
        for op in ops:
            session._judge("decide", op.argv, op.expect)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, "__wrapped__") for v in after.values() if callable(v))
    metrics = tracer.metrics(1)
    assert metrics["cli.run.calls"][0] == 12
    assert metrics["linalg.mat_mul.calls"][0] > 0
    spans = tracer.spans
    assert all(s[2] is not None for s in spans)  # every span names its operation
    ids = {s[0] for s in spans}
    assert all(s[1] is None or s[1] in ids for s in spans)


def test_traced_metrics_are_the_listed_per_layer_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        listed = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    measured = {name: unit for name, (_, unit) in Tracer().metrics(1).items()}
    measured.update(
        interp_floor_s="s", import_s="s", **{"trace_overhead.decide_s": "s", "trace_overhead.check_s": "s"}
    )
    assert measured == listed


def test_tracer_tolerates_a_removed_function(monkeypatch):
    monkeypatch.delattr(flowcomm.commensurability, "stabilization_exponent")
    with Tracer() as tracer:
        assert cli.run(["trace-seq", "--quiet", o.fmt(README_A), "3"]) == 0
    metrics = tracer.metrics(1)
    assert metrics["commensurability.stabilization_exponent.calls"][0] == 0
    assert metrics["commensurability.stabilization_exponent.trivial_ratio"][0] == 0


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 1001))
    assert run.tail(values, 99) == (990, 99)
    assert run.tail(values[:100], 99) == (90, 90)
    assert run.tail(values[:15], 99) == (8, 50)


def test_meta_records_each_workloads_tail():
    with open(os.path.join(HERE, "META.json"), encoding="utf-8") as handle:
        meta = json.load(handle)
    assert meta["tail_percentiles"] == {name: w.tail for name, w in WORKLOADS.items()}
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_compare_rule():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    same = [10.1, 9.9, 10.0, 10.2, 9.9, 10.0, 10.1, 9.8, 10.2, 10.0]
    assert compare.classify(parent, same, "lower", 0.1)[0] == "unchanged"
    assert compare.classify(parent, [v * 0.8 for v in parent], "lower", 0.1)[0] == "improved"
    assert compare.classify(parent, [v * 1.2 for v in parent], "lower", 0.1)[0] == "worse"
    assert compare.classify(parent, [v * 1.2 for v in parent], "higher", 0.1)[0] == "improved"
    wide = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.classify(wide, same, "lower", 0.1)[0] == "unresolved"
    assert compare.classify(parent, [v * 1.2 for v in parent], "lower", None)[0] == "worse"
