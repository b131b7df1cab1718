"""A seeded corpus of flowcomm command lines and the sha256 of what
run() does with them, so that a refactor can show it moved no byte.

Each call is recorded as (argv, exit code, stdout, stderr, and the
text -o wrote), with the working directory written as <dir> and the
version in "flowcomm X.Y.Z" masked. The corpus covers every verb on
hyperbolic pairs from tests/helpers.py, chains between suspension,
surface and (2,3,n) models, verify of every written document and of a
tampered copy, the --quiet and -o forms, and flowcomm's own error
messages. It leaves out every text argparse writes (help, usage and
its errors) and every digit-limit case, since both vary with the
interpreter; the digest is the same on CPython 3.10 to 3.13.

decode_digest is the sha256 of what decode_document makes of every
single-leaf mutation of a few chain and cover documents that run()
writes: the decoded record's repr, or the DocumentError's message.

Runs without pytest: PYTHONPATH=src:tests python tests/output_corpus.py
prints the number of calls and the digest, then the number of decodes
and the decode digest.
"""

import hashlib
import io
import json
import random
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from flowcomm.cli import run
from flowcomm.errors import DocumentError
from flowcomm.serialize import decode_document
from helpers import hyperbolic_corpus, inverse, mul, random_unimodular, square_pow

_VERSION_RE = re.compile(r"flowcomm [0-9]+\.[0-9]+\.[0-9]+")

MODELS = (
    "suspension:2,1;1,1",
    "suspension:[[0,1],[-1,7]]",
    "suspension:[[3,1],[2,1]]",
    "surface:g=2",
    "surface:g=3",
    "orbifold:2,3,7",
    "orbifold:2,3,8",
    "orbifold:2,3,15",
    "orbifold:2,4,5",
    "orbifold:g=1,2,3",
    "orbifold:2,2,2,2,3",
)

# flowcomm's own rejections of a command line, none of them argparse's
BAD_CALLS = (
    ["canon", "x"],
    ["canon", "[[1,2],[3]]"],
    ["canon", "1,2;3"],
    ["canon", "1,2;3,x"],
    ["canon", "1,0;0,1"],
    ["canon", "2,0;0,1"],
    ["equiv", "2,1;1,1", "[[1,1],[0,1]]"],
    ["commensurable", "2,1;1,1", "0,0;0,0"],
    ["cover", "2,1;1,1", "[[0,1],[-1,4]]"],
    ["cover", "--quiet", "2,1;1,1", "[[0,1],[-1,4]]"],
    ["chain", "disk:1", "surface:g=2"],
    ["chain", "torus", "surface:g=2"],
    ["chain", "surface:g=1", "surface:g=2"],
    ["chain", "orbifold:1,2", "surface:g=2"],
    ["chain", "orbifold:2,3,6", "surface:g=2"],
    ["chain", "suspension:1,1;0,1", "surface:g=2"],
    ["trace-seq", "2,1;1,1", "0"],
    ["trace-seq", "2,1;1,1", "x"],
)

# verify's input errors, one document text each
BAD_DOCUMENTS = (
    "",
    "[1, 2]",
    '{"kind": "commensurability-certificate"}',
    '{"format_version": "1", "kind": "unknown"}',
    '{"format_version": "2", "kind": "chain-certificate"}',
    '{"format_version": "1", "generator": 7, "kind": "chain-certificate"}',
)


def _text(m, style):
    return "[[%d,%d],[%d,%d]]" % m if style else "%d,%d;%d,%d" % m


def _conjugate(rng, m):
    q = random_unimodular(rng)
    return mul(mul(q, m), inverse(q))


def _matrix_calls(seed):
    rng = random.Random(seed)
    calls = []
    mats = hyperbolic_corpus(seed, 12)
    for i, m in enumerate(mats):
        style = i % 2
        calls.append(["canon", _text(m, style)])
        calls.append(["trace-seq", _text(m, style), str(rng.randint(1, 12))])
        pairs = (
            (m, mats[(i + 1) % len(mats)]),
            (m, _conjugate(rng, m)),
            (m, _conjugate(rng, square_pow(m, rng.randint(2, 3)))),
            (tuple(-e for e in m), _conjugate(rng, m)),
        )
        for a, b in pairs:
            args = [_text(a, style), _text(b, 1 - style)]
            calls.append(["equiv", *args])
            calls.append(["commensurable", *args])
            calls.append(["cover", *args])
    return calls


def _tampered(text):
    doc = json.loads(text)
    if "links" in doc:
        doc["endpoints"].reverse()
    else:
        doc["index_over_b"] = str(int(doc["index_over_b"]) + 1)
    return json.dumps(doc)


def corpus_digest(workdir, seed=24):
    """(number of calls, sha256 hex digest) of the corpus, run in-process
    through run() with the documents it writes kept under workdir."""
    workdir = Path(workdir)
    digest = hashlib.sha256()
    count = 0

    def mask(text):
        return _VERSION_RE.sub("flowcomm X.Y.Z", text.replace(str(workdir), "<dir>"))

    def call(argv, written=None):
        nonlocal count
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        document = None
        if written is not None and written.exists():
            document = written.read_text(encoding="utf-8")
        record = [mask(a) for a in argv], code, mask(out.getvalue()), mask(err.getvalue())
        digest.update(json.dumps([*record, document and mask(document)]).encode() + b"\n")
        count += 1
        return document

    def verify(text):
        path = workdir / f"verify{count}.json"
        path.write_text(text, encoding="utf-8")
        for quiet in ([], ["--quiet"]):
            call(["verify", *quiet, str(path)])

    documents = []
    chains = [["chain", a, b] for i, a in enumerate(MODELS) for b in MODELS[i:]]
    for argv in _matrix_calls(seed) + chains:
        for quiet in ([], ["--quiet"]):
            call([*argv, *quiet])
        if argv[0] in ("cover", "chain"):
            for quiet in ([], ["--quiet"]):
                path = workdir / f"doc{count}.json"
                document = call([*argv, "-o", str(path), *quiet], written=path)
                if document is not None and not quiet:
                    documents.append(document)
    for document in documents:
        verify(document)
        verify(_tampered(document))
    for argv in BAD_CALLS:
        call(argv)
    for text in BAD_DOCUMENTS:
        verify(text)
    cover = next(doc for doc in documents if "links" not in doc)
    for field, value in (("power_a", 3), ("power_a", "1.5"), ("sublattice", "x")):
        verify(json.dumps({**json.loads(cover), field: value}))
    chain = json.loads(next(doc for doc in documents if '"common-cover"' in doc))
    evidence = next(
        link["evidence"] for link in chain["links"] if link["evidence"]["type"] == "common-cover"
    )
    for value in ("1/0", "-2/4/1", 2):
        evidence["euler_cover"] = value
        verify(json.dumps(chain))
    return count, digest.hexdigest()


# the documents decode_digest mutates: chains through every kind of link
# and evidence, of two to seven links, and two cover documents
DECODE_CALLS = (
    ["chain", "surface:g=2", "suspension:[[3,1],[2,1]]"],
    ["chain", "surface:g=2", "suspension:[[34,21],[21,13]]"],
    ["chain", "orbifold:2,3,7", "orbifold:2,4,5"],
    ["chain", "orbifold:g=1,2,3", "suspension:2,1;1,1"],
    ["chain", "orbifold:2,2,2,2,3", "surface:g=3"],
    ["chain", "suspension:[[0,1],[-1,7]]", "orbifold:2,3,15"],
    ["chain", "suspension:2,1;1,1", "suspension:[[3,1],[2,1]]"],
    ["chain", "orbifold:2,4,5", "orbifold:g=1,2,3"],
    ["chain", "surface:g=3", "orbifold:2,3,8"],
    ["cover", "2,1;1,1", "5,3;3,2"],
    ["cover", "2,1;1,1", "0,1;-1,7"],
)

# what each leaf is replaced by in turn, before it is deleted
LEAF_VALUES = (5, "x", "-0", None, [], {}, True, "2")


def _leaves(node):
    """(container, key) of every leaf under node, depth first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        if isinstance(node[key], (dict, list)):
            yield from _leaves(node[key])
        else:
            yield node, key


def decode_digest(workdir):
    """(number of decodes, sha256 hex digest) of decode_document on each
    single-leaf mutation of the documents DECODE_CALLS write under
    workdir: every leaf replaced by each of LEAF_VALUES, then deleted
    from its object or list. Each mutation is undone in place; a key put
    back moves to the end of its object, which decoding never reads in
    order."""
    digest = hashlib.sha256()
    count = 0

    def decode(doc):
        nonlocal count
        try:
            outcome = repr(decode_document(doc))
        except DocumentError as exc:
            outcome = f"error: {exc}"
        digest.update(outcome.encode() + b"\n")
        count += 1

    path = Path(workdir) / "decode.json"
    for argv in DECODE_CALLS:
        with redirect_stdout(io.StringIO()):
            if run([*argv, "-o", str(path)]) != 0:
                raise RuntimeError(f"{argv} wrote no document")
        doc = json.loads(path.read_text(encoding="utf-8"))
        decode(doc)
        for node, key in list(_leaves(doc)):
            leaf = node[key]
            for value in LEAF_VALUES:
                node[key] = value
                decode(doc)
            del node[key]
            decode(doc)
            if isinstance(node, list):
                node.insert(key, leaf)
            else:
                node[key] = leaf
    return count, digest.hexdigest()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        count, hexdigest = corpus_digest(workdir)
        decodes, decoded = decode_digest(workdir)
    print(f"{count} calls, sha256 {hexdigest} (Python {sys.version.split()[0]})")
    print(f"{decodes} decodes, sha256 {decoded}")
