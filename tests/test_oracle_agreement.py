"""flowcomm verify against an oracle that shares no code with it.

perfbench/oracle.py imports nothing from flowcomm and re-multiplies
every certificate identity in plain integers. Here it judges every
certificate and chain document that the output corpus writes, the
one-field tampers of each that oracle.tamper makes, each chain with one
link kind or citation tag unknown, and each certificate or certificate
link with a non-canonical sublattice, and each verdict must be the one
`flowcomm verify` gives. The oracle is loaded by its file path,
without writing bytecode next to it.
"""

import importlib.util
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

from flowcomm.cli import run
from output_corpus import MODELS, _matrix_calls

ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
# oracle.tamper's choices: one per tamperable certificate field, and for
# a chain enough to reach every link with each certificate field
CERTIFICATE_TAMPERS = range(5)
CHAIN_TAMPERS = range(60)


def load_oracle(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_independent_oracle", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def corpus_documents(workdir):
    """The text of every document that the output corpus's cover and
    chain calls write."""
    chains = [["chain", a, b] for i, a in enumerate(MODELS) for b in MODELS[i:]]
    calls = [argv for argv in _matrix_calls(24) if argv[0] == "cover"] + chains
    documents = []
    for count, argv in enumerate(calls):
        path = workdir / f"doc{count}.json"
        with redirect_stdout(io.StringIO()):
            run([*argv, "-o", str(path)])
        if path.exists():
            documents.append(path.read_text(encoding="utf-8"))
    return documents


def surface_orbifold_cover(doc):
    """Whether a chain has a cover link between a surface and an
    orbifold, which oracle.check_chain does not accept yet."""
    return any(
        link["evidence"]["type"] == "common-cover"
        and {link["source"]["type"], link["target"]["type"]} == {"surface", "orbifold"}
        for link in doc.get("links", ())
    )


def test_verify_agrees_with_the_independent_oracle(monkeypatch, tmp_path):
    """38 certificates and 36 chains are judged, each with its tampers
    (2,424 documents in all); the 30 chains with a surface-orbifold
    cover link are left out."""
    oracle = load_oracle(monkeypatch)
    judged, left_out, variants, disagreements = 0, 0, 0, []
    path = tmp_path / "judged.json"
    for text in corpus_documents(tmp_path):
        doc = json.loads(text)
        if surface_orbifold_cover(doc):
            left_out += 1
            continue
        judged += 1
        choices = CHAIN_TAMPERS if "links" in doc else CERTIFICATE_TAMPERS
        for variant in [text] + [oracle.tamper(text, choice)[0] for choice in choices]:
            path.write_text(variant, encoding="utf-8")
            code = run(["verify", "--quiet", str(path)])
            clause = oracle.check_document(variant)
            if code not in (0, 1) or (code == 0) != (clause is None):
                disagreements.append((doc["kind"], variants, code, clause))
            variants += 1
    assert (judged, left_out, variants) == (74, 30, 2424)
    assert disagreements == []


def test_unknown_kinds_and_tags_are_rejections(monkeypatch, tmp_path):
    """Each judged chain with one link's kind set to "equivalence", or
    one citation's tag to "FOLKLORE": the oracle calls each variant
    invalid (chain_link_kind, chain_citation), so verify must exit 1,
    a rejection, not 2, an input error."""
    oracle = load_oracle(monkeypatch)
    counts, disagreements = {"kind": 0, "tag": 0}, []
    path = tmp_path / "judged.json"
    for text in corpus_documents(tmp_path):
        doc = json.loads(text)
        if "links" not in doc or surface_orbifold_cover(doc):
            continue
        for link in doc["links"]:
            edits = [("kind", link, "equivalence")]
            if link["evidence"]["type"] == "citation":
                edits.append(("tag", link["evidence"], "FOLKLORE"))
            for field, node, value in edits:
                kept, node[field] = node[field], value
                variant = json.dumps(doc)
                node[field] = kept
                path.write_text(variant, encoding="utf-8")
                code = run(["verify", "--quiet", str(path)])
                clause = oracle.check_document(variant)
                if code != 1 or clause is None:
                    disagreements.append((field, code, clause))
                counts[field] += 1
    assert counts == {"kind": 113, "tag": 55}
    assert disagreements == []


def test_non_canonical_sublattices_are_rejections(monkeypatch, tmp_path):
    """Each judged certificate (38), and each certificate link of each
    judged chain (36), with its sublattice made non-canonical (b = a,
    a = 0 or b = -1; 222 variants): the oracle calls each variant
    invalid (sublattice_index), so verify must exit 1, a rejection, not
    2, an input error."""
    oracle = load_oracle(monkeypatch)
    counts, variants, disagreements = {"certificate": 0, "link": 0}, 0, []
    path = tmp_path / "judged.json"
    for text in corpus_documents(tmp_path):
        doc = json.loads(text)
        if surface_orbifold_cover(doc):
            continue
        if "links" in doc:
            bodies = [link["evidence"] for link in doc["links"]]
            bodies = [body for body in bodies if body["type"] == "certificate"]
            counts["link"] += len(bodies)
        else:
            bodies = [doc]
            counts["certificate"] += 1
        for body in bodies:
            lattice = body["sublattice"]
            for key, value in (("b", lattice["a"]), ("a", "0"), ("b", "-1")):
                kept, lattice[key] = lattice[key], value
                variant = json.dumps(doc)
                lattice[key] = kept
                path.write_text(variant, encoding="utf-8")
                code = run(["verify", "--quiet", str(path)])
                clause = oracle.check_document(variant)
                if code != 1 or clause not in ("sublattice_index", "chain_sublattice_index"):
                    disagreements.append((key, value, code, clause))
                variants += 1
    assert (counts, variants) == ({"certificate": 38, "link": 36}, 222)
    assert disagreements == []
