"""flowcomm verify against an oracle that shares no code with it.

perfbench/oracle.py imports nothing from flowcomm and re-multiplies
every certificate identity in plain integers. Here it judges every
certificate and chain document that the output corpus writes, and the
one-field tampers of each that oracle.tamper makes, and each verdict
must be the one `flowcomm verify` gives. The oracle is loaded by its
file path, without writing bytecode next to it.
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
