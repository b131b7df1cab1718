"""Stable JSON document format for certificates and chains, and the
header-less JSON that equiv, canon and commensurable print, which is
never read back (encode_verdict, encode_word).

Every numeric field is a decimal string so arbitrary-precision
integers survive round trips through any JSON tooling; a rational is
"p/q" in lowest terms, or "p" when q = 1. Each number shape, integer
or rational, has one codec, which the field tables name. Documents
carry a "kind" discriminator and a "format_version" pinned to "1". The
"generator" header records the producing tool and is ignored by
verification, so regenerated documents differing only there still
verify identically.
The text is compact canonical JSON: sorted keys and no whitespace
between tokens (the layout of RFC 8785, with non-ASCII escaped), so
output is byte-reproducible. A geodesic model with no cone points is
a "surface" with its "genus"; any other is an "orbifold" with its
sorted "cone_orders" and, when nonzero, its "genus".

Decoding is strict: unknown kinds, missing fields, native JSON
numbers where strings are required, malformed values, or values a
record's own checks reject (a sublattice off its normal form, a
monodromy that is not hyperbolic, a signature with chi >= 0) raise
DocumentError naming the offending field. So do integers longer than
the interpreter's int/str conversion limit (sys.get_int_max_str_digits,
4300 digits by default), which is kept as it is; encoding an integer
past that limit raises ComputationLimit.

A chain's models are each decoded once: a link's source repeats the
previous link's target, and the endpoints the first source and the last
target, so a model whose JSON equals the one it repeats is taken from
it, one comparison each, and the first error reported does not change.
"""

import json
import re
import sys
from fractions import Fraction
from functools import partial

from . import __version__
from .commensurability import CommensurabilityCertificate
from .conjugacy import EquivalenceVerdict
from .errors import ComputationLimit, DocumentError, NotHyperbolic
from .linalg import Lattice2, Mat2
from .models import (
    ALMOST_EQUIVALENCE,
    BIRKHOFF_SECTION_23N,
    COMMENSURABILITY,
    ChainCertificate,
    ChainLink,
    GeodesicCommonCover,
    GeodesicOrbifold,
    GHYS_HASHIGUCHI,
    Suspension,
)

__all__ = [
    "FORMAT_VERSION",
    "CERTIFICATE_KIND",
    "CHAIN_KIND",
    "encode_verdict",
    "encode_word",
    "encode_certificate",
    "encode_chain",
    "decode_document",
    "dumps",
    "loads",
    "digit_limit_message",
]

FORMAT_VERSION = "1"
CERTIFICATE_KIND = "commensurability-certificate"
CHAIN_KIND = "chain-certificate"

_CITATION_TAGS = (GHYS_HASHIGUCHI, BIRKHOFF_SECTION_23N)


def digit_limit_message():
    """Why a well-formed decimal integer could not be converted."""
    return (
        f"integer has more than {sys.get_int_max_str_digits()} digits, "
        "the interpreter's int/str conversion limit"
    )


def _decimal(value):
    """str(value), or ComputationLimit when the digit limit forbids it."""
    try:
        return str(value)
    except ValueError:
        raise ComputationLimit(digit_limit_message()) from None


def _number_codec(convert, pattern, expected):
    """(encode, decode) of one number shape: the decimal text of convert(value),
    and convert of a string matching pattern, naming the field on a rejection."""
    pattern = re.compile(pattern)

    def encode(value):
        return _decimal(convert(value))

    def decode(value, field):
        if not isinstance(value, str) or not pattern.fullmatch(value):
            raise DocumentError(f"{field}: expected {expected}, got {value!r}")
        try:
            return convert(value)
        except ValueError:
            raise DocumentError(f"{field}: {digit_limit_message()}") from None

    return encode, decode


_INT = _number_codec(int, r"-?[0-9]+", "a decimal-string integer")
_RATIONAL = _number_codec(Fraction, r"-?[0-9]+(/[1-9][0-9]*)?", "a 'p/q' rational string")
_encode_int, _decode_int = _INT


def _encode_ints(values):
    return [_encode_int(k) for k in values]


def _encode_matrix(m):
    return [_encode_ints((m.a, m.b)), _encode_ints((m.c, m.d))]


def _decode_matrix(value, field):
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in value)
    ):
        raise DocumentError(f"{field}: expected a 2x2 matrix of decimal strings")
    (a, b), (c, d) = value
    return Mat2(
        _decode_int(a, f"{field}[0][0]"),
        _decode_int(b, f"{field}[0][1]"),
        _decode_int(c, f"{field}[1][0]"),
        _decode_int(d, f"{field}[1][1]"),
    )


def _get(doc, key, context="document"):
    if not isinstance(doc, dict):
        raise DocumentError(f"{context}: expected an object")
    if key not in doc:
        raise DocumentError(f"{context}: missing field {key!r}")
    return doc[key]


def _encode_fields(fields, record):
    return {name: encode(getattr(record, name)) for name, encode, _ in fields}


def _decode_fields(fields, cls, doc, context):
    _get(doc, fields[0][0], context)  # an object, with the first field
    try:
        values = [decode(doc[name], f"{context}.{name}") for name, _, decode in fields]
    except KeyError as exc:
        raise DocumentError(f"{context}: missing field {exc.args[0]!r}") from None
    try:
        return cls(*values)
    except ValueError as exc:
        raise DocumentError(f"{context}: {exc}") from exc


# (name, encode, decode) of each field, a number's codec named by its shape,
# in the order of its record's _fields, which decoding passes by position;
# decoding walks the table in order, so the first bad field is reported
_LATTICE_FIELDS = (
    ("a", *_INT),
    ("b", *_INT),
    ("d", *_INT),
)
_CERTIFICATE_FIELDS = (
    ("base_a", _encode_matrix, _decode_matrix),
    ("base_b", _encode_matrix, _decode_matrix),
    ("power_a", *_INT),
    ("power_b", *_INT),
    ("intertwiner", _encode_matrix, _decode_matrix),
    ("intertwiner_det", *_INT),
    (
        "sublattice",
        partial(_encode_fields, _LATTICE_FIELDS),
        partial(_decode_fields, _LATTICE_FIELDS, Lattice2),
    ),
    ("stabilization", *_INT),
    ("index_over_a", *_INT),
    ("index_over_b", *_INT),
)
_COMMON_COVER_FIELDS = (
    ("cover_genus", *_INT),
    ("degree_source", *_INT),
    ("degree_target", *_INT),
    ("euler_source", *_RATIONAL),
    ("euler_target", *_RATIONAL),
    ("euler_cover", *_RATIONAL),
)


def _encode_pairs(word):
    return [_encode_ints(pair) for pair in word.pairs]


def encode_verdict(verdict):
    """The equiv or the commensurable document of a verdict."""
    if isinstance(verdict, EquivalenceVerdict):
        conjugator = verdict.conjugator
        return {
            "equivalent": verdict.equivalent,
            "conjugator": None if conjugator is None else _encode_matrix(conjugator),
            "canonical_a": _encode_pairs(verdict.canonical_a),
            "canonical_b": _encode_pairs(verdict.canonical_b),
        }
    exponents, certificate = verdict.minimal_exponents, verdict.certificate
    return {
        "commensurable": verdict.commensurable,
        "minimal_exponents": None if exponents is None else _encode_ints(exponents),
        "squarefree_a": _encode_int(verdict.squarefree_a),
        "squarefree_b": _encode_int(verdict.squarefree_b),
        "squared_a": verdict.squared_a,
        "squared_b": verdict.squared_b,
        "certificate": (
            None if certificate is None else _encode_fields(_CERTIFICATE_FIELDS, certificate)
        ),
    }


def encode_word(word):
    """canon's document: the RLWord's (r, l) pairs and its display text."""
    return {"canonical_word": _encode_pairs(word), "display": str(word)}


def encode_certificate(cert):
    return {**_header(CERTIFICATE_KIND), **_encode_fields(_CERTIFICATE_FIELDS, cert)}


def _encode_model(model):
    if isinstance(model, Suspension):
        return {"type": "suspension", "monodromy": _encode_matrix(model.monodromy)}
    if isinstance(model, GeodesicOrbifold):
        if not model.cone_orders:
            return {"type": "surface", "genus": _encode_int(model.genus)}
        doc = {"type": "orbifold", "cone_orders": _encode_ints(model.cone_orders)}
        if model.genus:
            doc["genus"] = _encode_int(model.genus)
        return doc
    raise TypeError(f"not a model: {model!r}")


def _decode_model(value, field):
    kind = _get(value, "type", field)
    try:
        if kind == "suspension":
            return Suspension(_decode_matrix(_get(value, "monodromy", field), f"{field}.monodromy"))
        if kind == "surface":
            return GeodesicOrbifold(_decode_int(_get(value, "genus", field), f"{field}.genus"))
        if kind == "orbifold":
            orders = _get(value, "cone_orders", field)
            if not isinstance(orders, list) or not orders:
                raise DocumentError(f"{field}.cone_orders: expected a nonempty list")
            return GeodesicOrbifold(
                _decode_int(value.get("genus", "0"), f"{field}.genus"),
                [_decode_int(k, f"{field}.cone_orders[{i}]") for i, k in enumerate(orders)],
            )
    except (ValueError, NotHyperbolic) as exc:
        raise DocumentError(f"{field}: {exc}") from exc
    raise DocumentError(f"{field}.type: unknown model type {kind!r}")


def _encode_evidence(evidence):
    if isinstance(evidence, str):
        return {"type": "citation", "tag": evidence}
    if isinstance(evidence, CommensurabilityCertificate):
        return {"type": "certificate", **_encode_fields(_CERTIFICATE_FIELDS, evidence)}
    if isinstance(evidence, GeodesicCommonCover):
        return {"type": "common-cover", **_encode_fields(_COMMON_COVER_FIELDS, evidence)}
    raise TypeError(f"not chain-link evidence: {evidence!r}")


def _decode_evidence(value, field):
    kind = _get(value, "type", field)
    if kind == "citation":
        tag = _get(value, "tag", field)
        if tag not in _CITATION_TAGS:
            raise DocumentError(f"{field}.tag: unknown citation tag {tag!r}")
        return tag
    if kind == "certificate":
        return _decode_fields(
            _CERTIFICATE_FIELDS, CommensurabilityCertificate, value, field
        )
    if kind == "common-cover":
        return _decode_fields(_COMMON_COVER_FIELDS, GeodesicCommonCover, value, field)
    raise DocumentError(f"{field}.type: unknown evidence type {kind!r}")


def encode_chain(chain):
    return {
        **_header(CHAIN_KIND),
        "endpoints": [_encode_model(m) for m in chain.endpoints],
        "links": [
            {
                "kind": link.kind,
                "source": _encode_model(link.source),
                "target": _encode_model(link.target),
                "evidence": _encode_evidence(link.evidence),
            }
            for link in chain.links
        ],
    }


def _decode_chain(doc):
    """The chain a document holds, each model decoded once: a link's
    source that equals the previous link's raw target, and an endpoint
    that equals the first raw source or the last raw target, takes that
    model (equal JSON decodes to an equal model). That is one == per
    link and per endpoint, against one raw model each, so the work stays
    linear. The links are read before the endpoints, each link's fields
    in ChainLink._fields order, so the first bad field is reported."""
    endpoints = _get(doc, "endpoints")
    if not isinstance(endpoints, list) or len(endpoints) != 2:
        raise DocumentError("endpoints: expected exactly two models")
    links = _get(doc, "links")
    if not isinstance(links, list):
        raise DocumentError("links: expected a list of links")
    decoded = []
    for i, link in enumerate(links):
        context = f"links[{i}]"
        kind = _get(link, "kind", context)
        if kind not in (ALMOST_EQUIVALENCE, COMMENSURABILITY):
            raise DocumentError(f"{context}.kind: unknown link kind {kind!r}")
        raw = _get(link, "source", context)
        if i and raw == raw_target:
            source = target
        else:
            source = _decode_model(raw, f"{context}.source")
        raw_target = _get(link, "target", context)
        target = _decode_model(raw_target, f"{context}.target")
        evidence = _decode_evidence(_get(link, "evidence", context), f"{context}.evidence")
        decoded.append(ChainLink(kind, source, target, evidence))
    start, end = endpoints
    if decoded and start == links[0]["source"]:
        start = decoded[0].source
    else:
        start = _decode_model(start, "endpoints[0]")
    if decoded and end == raw_target:
        end = target
    else:
        end = _decode_model(end, "endpoints[1]")
    return ChainCertificate(links=tuple(decoded), endpoints=(start, end))


def _header(kind):
    generator = f"flowcomm {__version__}"
    return {"format_version": FORMAT_VERSION, "generator": generator, "kind": kind}


def decode_document(doc):
    """The certificate or chain that a document holds: its kind, format
    version and generator checked in that order, then its body read."""
    kind = _get(doc, "kind")
    if kind not in (CERTIFICATE_KIND, CHAIN_KIND):  # by ==, so a list or object is unknown too
        raise DocumentError(f"kind: unknown document kind {kind!r}")
    version = _get(doc, "format_version")
    if version != FORMAT_VERSION:
        raise DocumentError(f"format_version: expected {FORMAT_VERSION!r}, got {version!r}")
    generator = doc.get("generator")
    if generator is not None and not isinstance(generator, str):
        raise DocumentError("generator: expected a string when present")
    if kind == CHAIN_KIND:
        return _decode_chain(doc)
    return _decode_fields(_CERTIFICATE_FIELDS, CommensurabilityCertificate, doc, "certificate")


def dumps(doc):
    """Canonical text form: sorted keys, no whitespace between tokens,
    non-ASCII escaped, one line plus a newline. json emits it through
    its C encoder; loads takes any whitespace, so documents written
    with an indent still read the same."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    except ValueError:
        raise DocumentError(digit_limit_message()) from None
    except RecursionError:
        raise DocumentError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise DocumentError("document: expected a JSON object")
    return doc
