"""Unit tests for the certificate document format."""

import json
import random

import pytest

from flowcomm import (
    ChainLink,
    CommensurabilityCertificate,
    DocumentError,
    GeodesicCommonCover,
    GeodesicOrbifold,
    HyperbolicMatrix,
    Mat2,
    Suspension,
    Lattice2,
    almost_commensurability_chain,
    are_commensurable,
    verify_chain,
)
from flowcomm.serialize import (
    CERTIFICATE_KIND,
    CHAIN_KIND,
    FORMAT_VERSION,
    decode_document,
    dumps,
    encode_certificate,
    encode_chain,
    encode_verdict,
    loads,
)
from flowcomm import serialize
from flowcomm.cli import run
from helpers import (
    compact_text,
    hyperbolic_corpus,
    random_hyperbolic,
    square_pow,
    string_leaves_only,
)
from output_corpus import MODELS
from test_models import GENERAL_CORPUS, count_chi_sums

A = HyperbolicMatrix(2, 1, 1, 1)
F7 = HyperbolicMatrix(0, 1, -1, 7)


def sample_certificate():
    return are_commensurable(A, F7).certificate


def sample_chains():
    pairs = [
        (GeodesicOrbifold(2), GeodesicOrbifold(0, (2, 3, 18))),
        (GeodesicOrbifold(2), GeodesicOrbifold(3)),
        (GeodesicOrbifold(0, (2, 3, 7)), GeodesicOrbifold(0, (2, 3, 12))),
        (Suspension(A), Suspension(A)),
        (GeodesicOrbifold(1, (2, 3)), GeodesicOrbifold(0, (2, 2, 2, 3))),
    ]
    return [almost_commensurability_chain(m1, m2) for m1, m2 in pairs]


class TestCertificateDocuments:
    def test_round_trip(self):
        cert = sample_certificate()
        assert decode_document(encode_certificate(cert)) == cert

    def test_header_fields(self):
        doc = encode_certificate(sample_certificate())
        assert doc["format_version"] == FORMAT_VERSION == "1"
        assert doc["kind"] == CERTIFICATE_KIND
        assert isinstance(doc["generator"], str)

    def test_all_scalars_are_strings(self):
        doc = encode_certificate(sample_certificate())
        assert string_leaves_only(doc)
        reparsed = json.loads(dumps(doc))
        assert string_leaves_only(reparsed)

    def test_big_integers_survive(self):
        cert = are_commensurable(Mat2(*square_pow(A.entries(), 9)), A).certificate
        round_tripped = decode_document(loads(dumps(encode_certificate(cert))))
        assert round_tripped == cert

    def test_generator_optional_and_ignored(self):
        doc = encode_certificate(sample_certificate())
        del doc["generator"]
        assert decode_document(doc) == sample_certificate()
        doc["generator"] = "someone else 9.9"
        assert decode_document(doc) == sample_certificate()

    def test_generator_must_be_string(self):
        doc = encode_certificate(sample_certificate())
        doc["generator"] = 5
        with pytest.raises(DocumentError):
            decode_document(doc)

    def test_wrong_version(self):
        doc = encode_certificate(sample_certificate())
        doc["format_version"] = "2"
        with pytest.raises(DocumentError):
            decode_document(doc)

    def test_wrong_kind(self):
        doc = encode_certificate(sample_certificate())
        doc["kind"] = CHAIN_KIND
        with pytest.raises(DocumentError):
            decode_document(doc)

    def test_missing_field(self):
        doc = encode_certificate(sample_certificate())
        del doc["intertwiner"]
        with pytest.raises(DocumentError):
            decode_document(doc)

    def test_native_number_rejected(self):
        doc = encode_certificate(sample_certificate())
        doc["power_a"] = 2
        with pytest.raises(DocumentError):
            decode_document(doc)

    def test_non_numeric_string_rejected(self):
        doc = encode_certificate(sample_certificate())
        doc["power_a"] = "two"
        with pytest.raises(DocumentError):
            decode_document(doc)

    def test_trailing_newline_rejected(self):
        doc = encode_certificate(sample_certificate())
        doc["power_a"] = "2\n"
        with pytest.raises(DocumentError, match="power_a"):
            decode_document(doc)

    def test_bad_matrix_shape(self):
        doc = encode_certificate(sample_certificate())
        doc["intertwiner"] = [["1", "1", "0"], ["0", "1", "0"]]
        with pytest.raises(DocumentError):
            decode_document(doc)

    def test_bad_lattice(self):
        doc = encode_certificate(sample_certificate())
        doc["sublattice"] = {"a": "3", "b": "5", "d": "1"}
        with pytest.raises(DocumentError):
            decode_document(doc)


MATRIX = "expected a 2x2 matrix of decimal strings"
INTEGER = "expected a decimal-string integer, got 7"
LATTICE = "expected an object"
FRACTION = "expected a 'p/q' rational string, got 7"
# every field of a certificate document and of a chain's common-cover
# evidence (links[0] of the (2,3,7)-(2,3,12) chain), with the error a
# native JSON number in it gives
RECORD_FIELDS = [
    ("certificate", "base_a", MATRIX),
    ("certificate", "base_b", MATRIX),
    ("certificate", "power_a", INTEGER),
    ("certificate", "power_b", INTEGER),
    ("certificate", "intertwiner", MATRIX),
    ("certificate", "intertwiner_det", INTEGER),
    ("certificate", "sublattice", LATTICE),
    ("certificate", "stabilization", INTEGER),
    ("certificate", "index_over_a", INTEGER),
    ("certificate", "index_over_b", INTEGER),
    ("links[0].evidence", "cover_genus", INTEGER),
    ("links[0].evidence", "degree_source", INTEGER),
    ("links[0].evidence", "degree_target", INTEGER),
    ("links[0].evidence", "euler_source", FRACTION),
    ("links[0].evidence", "euler_target", FRACTION),
    ("links[0].evidence", "euler_cover", FRACTION),
]


@pytest.mark.parametrize("change", ["drop", "native"])
@pytest.mark.parametrize("context, field, native_error", RECORD_FIELDS)
def test_record_field_errors(context, field, native_error, change):
    if context == "certificate":
        doc = record = encode_certificate(sample_certificate())
    else:
        doc = encode_chain(sample_chains()[2])
        record = doc["links"][0]["evidence"]
    if change == "drop":
        del record[field]
        expected = f"{context}: missing field {field!r}"
    else:
        record[field] = 7
        expected = f"{context}.{field}: {native_error}"
    with pytest.raises(DocumentError) as excinfo:
        decode_document(doc)
    assert str(excinfo.value) == expected


class TestChainDocuments:
    def test_round_trips(self):
        for chain in sample_chains():
            assert decode_document(encode_chain(chain)) == chain

    def test_all_scalars_are_strings(self):
        for chain in sample_chains():
            assert string_leaves_only(encode_chain(chain))

    def test_fractions_encoded_exactly(self):
        chain = almost_commensurability_chain(
            GeodesicOrbifold(0, (2, 3, 7)), GeodesicOrbifold(0, (2, 3, 12))
        )
        doc = encode_chain(chain)
        evidence = doc["links"][0]["evidence"]
        assert evidence["type"] == "common-cover"
        assert evidence["euler_source"] == "-1/42"
        assert evidence["euler_cover"] == "-2"
        assert evidence["degree_source"] == "84"
        assert evidence["degree_target"] == "24"

    def test_unknown_citation_tag(self):
        chain = sample_chains()[0]
        doc = encode_chain(chain)
        doc["links"][0]["evidence"]["tag"] = "FOLKLORE"
        with pytest.raises(DocumentError):
            decode_document(doc)

    def test_unknown_link_kind(self):
        doc = encode_chain(sample_chains()[0])
        doc["links"][0]["kind"] = "almost-isomorphism"
        with pytest.raises(DocumentError):
            decode_document(doc)

    def test_unknown_model_type(self):
        doc = encode_chain(sample_chains()[0])
        doc["endpoints"][0]["type"] = "torus"
        with pytest.raises(DocumentError):
            decode_document(doc)

    def test_non_23n_orbifold_rejected(self):
        """Any hyperbolic signature decodes; a (2,5,18) orbifold has no
        cited suspension, so the verifier rejects the Birkhoff link."""
        doc = encode_chain(sample_chains()[0])
        for model in (doc["links"][-1]["target"], doc["endpoints"][1]):
            model["cone_orders"] = ["2", "5", "18"]
        chain = decode_document(doc)
        assert chain.endpoints[1] == GeodesicOrbifold(0, (2, 5, 18))
        assert verify_chain(chain) == (False, "link 2: almost_equivalence_whitelist")
        for orders, message in (
            ([], "expected a nonempty list"),
            ("2,3,7", "expected a nonempty list"),
            (["2", "3", "6"], "not hyperbolic"),
            (["1", "3", "7"], "cone orders must be >= 2"),
            (["2", 3, "7"], r"cone_orders\[1\]: expected a decimal-string"),
        ):
            doc["endpoints"][1]["cone_orders"] = orders
            with pytest.raises(DocumentError, match=message):
                decode_document(doc)

    def test_general_signature_fields(self):
        """No cone points: a surface. Otherwise sorted cone orders, and a
        genus only when it is not 0."""
        doc = encode_chain(sample_chains()[4])
        assert doc["endpoints"] == [
            {"type": "orbifold", "genus": "1", "cone_orders": ["2", "3"]},
            {"type": "orbifold", "cone_orders": ["2", "2", "2", "3"]},
        ]
        assert {"type": "surface", "genus": "2"} in [
            link["target"] for link in doc["links"]
        ]
        doc["endpoints"][0]["genus"] = "-1"
        with pytest.raises(DocumentError, match=r"endpoints\[0\]: genus must be >= 0"):
            decode_document(doc)

    def test_endpoints_shape(self):
        doc = encode_chain(sample_chains()[0])
        doc["endpoints"] = doc["endpoints"][:1]
        with pytest.raises(DocumentError):
            decode_document(doc)

    def test_bad_fraction_rejected(self):
        chain = almost_commensurability_chain(
            GeodesicOrbifold(0, (2, 3, 7)), GeodesicOrbifold(0, (2, 3, 12))
        )
        doc = encode_chain(chain)
        doc["links"][0]["evidence"]["euler_source"] = "-1/0"
        with pytest.raises(DocumentError):
            decode_document(doc)

    def test_fraction_trailing_newline_rejected(self):
        doc = encode_chain(sample_chains()[2])
        doc["links"][0]["evidence"]["euler_source"] = "-1/42\n"
        with pytest.raises(DocumentError, match="euler_source"):
            decode_document(doc)

    def test_mutated_documents_still_decode(self):
        """Wrong values in well-formed fields decode fine; rejection is
        the verifier's job, not the parser's."""
        doc = encode_chain(sample_chains()[0])
        doc["links"][0]["evidence"]["tag"] = "BIRKHOFF_SECTION_23N"
        chain = decode_document(doc)
        ok, clause = verify_chain(chain)
        assert not ok
        assert clause == "link 0: almost_equivalence_whitelist"


class TestTextForm:
    def test_dumps_deterministic(self):
        doc = encode_certificate(sample_certificate())
        assert dumps(doc) == dumps(json.loads(dumps(doc)))
        assert dumps(doc).endswith("\n")

    def test_dumps_sorted_keys(self):
        """Every object's keys, in the order they appear in the text, are sorted."""
        objects = []

        def keep(pairs):
            objects.append([key for key, _ in pairs])
            return dict(pairs)

        for doc in [encode_certificate(sample_certificate())] + [
            encode_chain(chain) for chain in sample_chains()
        ]:
            json.loads(dumps(doc), object_pairs_hook=keep)
        assert len(objects) > 20
        assert all(keys == sorted(keys) for keys in objects)

    def test_loads_rejects_invalid_json(self):
        with pytest.raises(DocumentError):
            loads("{not json")

    def test_loads_rejects_non_object(self):
        with pytest.raises(DocumentError):
            loads("[1, 2]")

    def test_decode_document_dispatch(self):
        cert = sample_certificate()
        chain = sample_chains()[0]
        assert decode_document(encode_certificate(cert)) == cert
        assert decode_document(encode_chain(chain)) == chain

    def test_decode_document_unknown_kind(self):
        """Kinds are compared, not looked up, so an unhashable kind is
        unknown too."""
        doc = encode_certificate(sample_certificate())
        for kind in ("waiver", [CHAIN_KIND], {CHAIN_KIND: CHAIN_KIND}, None):
            doc["kind"] = kind
            with pytest.raises(DocumentError) as excinfo:
                decode_document(doc)
            assert str(excinfo.value) == f"kind: unknown document kind {kind!r}"

    def test_header_checked_before_the_body(self):
        """kind, then format_version, then generator, then the body: each
        repair of the first bad field gives the next one's error."""
        doc = {"generator": 7, "format_version": "2", "kind": "waiver"}
        for error, field, repair in (
            ("kind: unknown document kind 'waiver'", "kind", CHAIN_KIND),
            ("format_version: expected '1', got '2'", "format_version", FORMAT_VERSION),
            ("generator: expected a string when present", "generator", "someone"),
        ):
            with pytest.raises(DocumentError) as excinfo:
                decode_document(doc)
            assert str(excinfo.value) == error
            doc[field] = repair
        with pytest.raises(DocumentError, match="^document: missing field 'endpoints'$"):
            decode_document(doc)


def matrix_arg(m):
    return "[[%d,%d],[%d,%d]]" % m


def assert_canonical(text, doc):
    """text is doc's canonical form, which is a single line."""
    assert text == compact_text(doc)
    assert text.count("\n") == 1


class TestCanonicalText:
    """dumps gives compact_text, which helpers derives from the indented
    form by deleting whitespace, not from json's separators."""

    def test_certificates_and_verdicts(self):
        corpus = hyperbolic_corpus(14, 12) + [A.entries(), F7.entries()]
        for a in corpus:
            for b in corpus:
                verdict = are_commensurable(Mat2(*a), Mat2(*b))
                docs = [encode_verdict(verdict)]
                if verdict.certificate is not None:
                    docs.append(encode_certificate(verdict.certificate))
                for doc in docs:
                    assert_canonical(dumps(doc), doc)

    def test_canon_and_equiv_output(self, capsys):
        rng = random.Random(14)
        matrices = [random_hyperbolic(rng) for _ in range(12)]
        for a, b in zip(matrices, matrices[1:] + matrices[:1]):
            for argv in (["canon", matrix_arg(a)], ["equiv", matrix_arg(a), matrix_arg(a)],
                         ["equiv", matrix_arg(a), matrix_arg(b)]):
                assert run(argv) in (0, 1), argv
                out = capsys.readouterr().out
                assert_canonical(out, json.loads(out))

    def test_general_corpus_chains(self):
        for m1 in GENERAL_CORPUS:
            for m2 in GENERAL_CORPUS:
                doc = encode_chain(almost_commensurability_chain(m1, m2))
                assert_canonical(dumps(doc), doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            [],
            {"a": {}, "b": [], "c": [[]], "d": [{}], "e": [[], {}, [[{}]]]},
            {"": "", "z": "last", "A": "first", "é": "key past ASCII"},
            "caf\u00e9 \u2028 \U0001f600",
            {"control": "\x00\x01\x1f\x7f\t\n\r\b\f", "quote": '"\\/'},
            [True, False, None],
            {"t": True, "f": False, "n": None, "nested": {"deeper": [None, [True]]}},
            True,
            False,
            None,
            [0, -5, 10**30, 1.5],
            ("a", ("b", ())),
        ],
        ids=[
            "empty-object", "empty-list", "empty-containers", "keys", "non-ascii",
            "control-characters", "literals", "literals-in-objects", "true", "false",
            "null", "numbers", "tuples",
        ],
    )
    def test_edge_documents(self, doc):
        assert_canonical(dumps(doc), doc)


class TestDecodeWork:
    """Decoding a chain is counted, not timed: each model is decoded
    once, a link's source taken from the previous link's target and the
    endpoints from the first source and the last target when their raw
    JSON is equal, with a bounded number of comparisons."""

    def counted_decode_model(self, monkeypatch):
        """The fields of every _decode_model call from now on, through the
        module's name or a field table that binds it."""
        calls, decode = [], serialize._decode_model

        def counting(value, field):
            calls.append(field)
            return decode(value, field)

        monkeypatch.setattr(serialize, "_decode_model", counting)
        for name, table in vars(serialize).copy().items():
            if name.endswith("_FIELDS") and isinstance(table, tuple):
                rows = tuple((n, e, counting if d is decode else d) for n, e, d in table)
                monkeypatch.setattr(serialize, name, rows)
        return calls

    def test_corpus_chains_decode_each_model_once(self, monkeypatch, tmp_path):
        """Each of the 66 chains between MODELS, of n links, decodes n + 1
        models, the endpoints none."""
        calls = self.counted_decode_model(monkeypatch)
        path = tmp_path / "chain.json"
        for i, a in enumerate(MODELS):
            for b in MODELS[i:]:
                assert run(["chain", a, b, "--quiet", "-o", str(path)]) == 0
                doc = loads(path.read_text())
                calls.clear()
                chain = decode_document(doc)
                assert len(calls) == len(chain.links) + 1, (a, b, calls)
                assert not any(field.startswith("endpoints") for field in calls)

    def test_distinct_models_take_linear_work(self, monkeypatch):
        """10,000 links, no source equal to the previous target and no
        endpoint to the first source or the last target: at most 2n + 2
        model decodes, and at most two raw-model comparisons per link
        plus two for the endpoints."""
        calls = self.counted_decode_model(monkeypatch)
        compared = []

        class Counted(dict):
            def __eq__(self, other):
                compared.append(1)
                return dict.__eq__(self, other)

            def __ne__(self, other):
                compared.append(1)
                return dict.__ne__(self, other)

        def surface(genus):
            return Counted(type="surface", genus=str(genus))

        n = 10_000
        links = [
            {
                "kind": "almost-equivalence",
                "source": surface(2 * i + 2),
                "target": surface(2 * i + 3),
                "evidence": {"type": "citation", "tag": "GHYS_HASHIGUCHI"},
            }
            for i in range(n)
        ]
        doc = {
            "kind": CHAIN_KIND,
            "format_version": FORMAT_VERSION,
            "endpoints": [surface(2 * n + 2), surface(2 * n + 3)],
            "links": links,
        }
        chain = decode_document(doc)
        assert len(chain.links) == n
        assert chain.endpoints == (GeodesicOrbifold(2 * n + 2), GeodesicOrbifold(2 * n + 3))
        assert len(calls) <= 2 * n + 2
        assert 0 < len(compared) <= 2 * n + 2

    def test_decode_tables_follow_record_fields(self):
        """Decoding builds each record by position, so each table lists
        its record's _fields in order; _decode_chain reads a link's fields
        by hand, in ChainLink._fields order."""
        for table, record in (
            (serialize._LATTICE_FIELDS, Lattice2),
            (serialize._CERTIFICATE_FIELDS, CommensurabilityCertificate),
            (serialize._COMMON_COVER_FIELDS, GeodesicCommonCover),
        ):
            assert tuple(name for name, _, _ in table) == record._fields
        assert ChainLink._fields == ("kind", "source", "target", "evidence")

    def test_no_chi_summed_to_decode_or_reject_by_cone_points(self, monkeypatch):
        """A 1-link chain between two genus-0 orbifolds of three 3,001-digit
        cone orders each: decoding reads hyperbolicity off each signature
        and sums no chi, and verify_chain rejects the cover by its cone
        points without summing any either."""
        big = 10**3000

        def orbifold(*offsets):
            return {"type": "orbifold", "cone_orders": [str(big + k) for k in offsets]}

        source, target = orbifold(1, 3, 7), orbifold(1, 3, 9)
        cover = {
            "type": "common-cover",
            "cover_genus": "2",
            "degree_source": "1",
            "degree_target": "1",
            "euler_source": "-1",
            "euler_target": "-1",
            "euler_cover": "-2",
        }
        doc = {
            "kind": CHAIN_KIND,
            "format_version": FORMAT_VERSION,
            "endpoints": [json.loads(json.dumps(m)) for m in (source, target)],
            "links": [
                {"kind": "commensurability", "source": source, "target": target, "evidence": cover}
            ],
        }
        sums = count_chi_sums(monkeypatch)
        chain = decode_document(doc)
        assert sums == []
        assert verify_chain(chain) == (False, "link 0: cover_cone_points")
        assert sums == []
