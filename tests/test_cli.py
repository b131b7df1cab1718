"""End-to-end tests for the command line interface."""

import argparse
import hashlib
import io
import json
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcomm import (
    BIRKHOFF_SECTION_23N,
    GHYS_HASHIGUCHI,
    CommensurabilityCertificate,
    GeodesicCommonCover,
    Suspension,
    cli,
    commensurability,
    conjugacy,
    linalg,
    verify,
)
from flowcomm.cli import INTERNAL_ERROR, main, run
from flowcomm.serialize import digit_limit_message
from helpers import (
    hyperbolic_corpus,
    indented_text,
    inverse,
    mul,
    naive_pow,
    square_pow,
    string_leaves_only,
    trace,
)
from output_corpus import _VERSION_RE, MODELS, corpus_digest, decode_digest
from test_models import GENERAL_CORPUS, count_chi_sums
from test_package import rejections

A_JSON = "[[2,1],[1,1]]"
A_SEMI = "2,1;1,1"
F7 = "[[0,1],[-1,7]]"
F47 = "[[0,1],[-1,47]]"
GENUS2 = "[[7,12],[4,7]]"
# trace 2 above a semiprime of two eight-digit primes, which the square
# class test decides without splitting
HARD_TRACE = str(10000019 * 10000079 + 2)
# one digit past the interpreter's int/str conversion limit; 0 when the
# limit is off, and then the tests that need the limit are skipped
DIGIT_LIMIT = sys.get_int_max_str_digits()
TOO_LONG = "1" + "0" * DIGIT_LIMIT
# a matrix of det 10^(2e) - 1 whose entries are under the limit and
# whose determinant, at about twice their digits, is past it; sized at
# the default limit when the limit is off, so that the module collects
_E = (DIGIT_LIMIT or 4300) - 100
HUGE_DET = f"1{'0' * _E},1;1,1{'0' * _E}"
HUGE_DET_BITS = (10 ** (2 * _E) - 1).bit_length()
HUGE_DET_MESSAGE = f"determinant is an integer of {HUGE_DET_BITS} bits, need 1"
# its twin of det 1 - 10^(2e), named with its sign
HUGE_NEGATIVE_DET = f"1,1{'0' * _E};1{'0' * _E},1"
HUGE_NEGATIVE_DET_MESSAGE = f"determinant is a negative integer of {HUGE_DET_BITS} bits, need 1"


# `chain orbifold:2,3,15 orbifold:2,3,7` as version 0.6.0 printed it
DEGREE_TWENTY_CHAIN = """{
  "endpoints": [
    {"cone_orders": ["2", "3", "15"], "type": "orbifold"},
    {"cone_orders": ["2", "3", "7"], "type": "orbifold"}
  ],
  "format_version": "1",
  "generator": "flowcomm 0.6.0",
  "kind": "chain-certificate",
  "links": [
    {
      "evidence": {
        "cover_genus": "2",
        "degree_source": "20",
        "degree_target": "84",
        "euler_cover": "-2",
        "euler_source": "-1/10",
        "euler_target": "-1/42",
        "type": "common-cover"
      },
      "kind": "commensurability",
      "source": {"cone_orders": ["2", "3", "15"], "type": "orbifold"},
      "target": {"cone_orders": ["2", "3", "7"], "type": "orbifold"}
    }
  ]
}
"""


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestParsing:
    def test_matrix_syntaxes_agree(self, capsys):
        code_a, doc_a = run_json(capsys, ["canon", A_JSON])
        code_b, doc_b = run_json(capsys, ["canon", A_SEMI])
        assert code_a == code_b == 0
        assert doc_a == doc_b

    def test_malformed_matrix(self, capsys):
        for bad in ("[[2,1],[1]]", "2,1;1", "2,1,1,1", "[[2,1],[1,x]]", "[2,1,1,1]"):
            assert run(["canon", bad]) == 2
            err = capsys.readouterr().err
            assert "error:" in err

    def test_deeply_nested_matrix(self, capsys):
        assert run(["canon", "[" * 100000]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed matrix: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "entry, code",
        [("+2", 0), ("0_2", 0), ("\u0662", 0)]
        + [(entry, 2) for entry in ("1.0", "true", '"2"', "0x2", "")],
    )
    def test_syntaxes_read_entries_alike(self, capsys, entry, code):
        """[[a,b],[c,d]] reads each entry as a,b;c,d does: 0_2 is 2,
        and so is the Arabic-Indic digit two."""
        outcomes = []
        for text in (f"[[{entry},1],[1,1]]", f"{entry},1;1,1"):
            status = run(["canon", text])
            outcomes.append((status, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == code
        if code == 2:
            assert outcomes[0][2] == f"error: not an integer: {entry!r}\n"

    @pytest.mark.parametrize(
        "template",
        [["canon", "M"], ["trace-seq", "M", "5"]]
        + [[verb, "M", A_SEMI] for verb in ("equiv", "commensurable", "cover")]
        + [[verb, A_SEMI, "M"] for verb in ("equiv", "commensurable", "cover")],
        ids=" ".join,
    )
    def test_leading_negative_entry(self, capsys, template):
        """An argument that starts with '-' and a digit is a matrix, not
        an option: -1,1;-5,4 reads as [[-1,1],[-5,4]] does, in either
        position of a two-matrix verb."""
        outcomes = []
        for m in ("-1,1;-5,4", "[[-1,1],[-5,4]]"):
            status = run([m if arg == "M" else arg for arg in template])
            outcomes.append((status, capsys.readouterr().out))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 0 and outcomes[0][1]

    def test_non_hyperbolic_input(self, capsys):
        assert run(["canon", "[[1,1],[0,1]]"]) == 2
        assert run(["equiv", A_JSON, "[[1,0],[0,1]]"]) == 2
        capsys.readouterr()

    def test_unknown_verb_and_flag(self, capsys):
        assert run(["frobnicate", A_JSON]) == 2
        assert run(["canon", A_JSON, "--frobnicate"]) == 2
        capsys.readouterr()
        # '-' and a letter is still an option, before or after the matrices
        two = [[verb, A_SEMI, A_SEMI] for verb in ("equiv", "commensurable", "cover")]
        for verb, *args in [["canon", A_SEMI], ["trace-seq", A_SEMI, "5"], *two]:
            for option in ("--bogus", "-x"):
                assert run([verb, *args, option]) == 2
                assert run([verb, option, *args]) == 2
                captured = capsys.readouterr()
                assert captured.out == "" and captured.err.startswith("error: ")

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "flowcomm" in capsys.readouterr().out


def parser_cases(tmp_path):
    """argv lists that reach every parser path: each verb's help, the
    top-level help and an empty argv, an unknown verb, a first token that
    is an option or '--', missing and extra positionals, a leading
    negative entry, -o with and without its file, abbreviated options,
    '--' after the verb, and a help flag before a positional."""
    cover = str(tmp_path / "cover.json")
    return (
        [[name, "--help"] for name, *_ in cli._VERBS]
        + [["--help"], ["-h"], [], ["bogus"], ["bogus", A_JSON], ["-x"]]
        + [["--", "canon", A_JSON], ["--quiet", "canon", A_JSON], ["canon", "-h"]]
        + [["canon"], ["equiv", A_JSON], ["trace-seq", A_JSON], ["chain"], ["verify"]]
        + [["canon", A_JSON, A_JSON], ["equiv", A_JSON, A_JSON, A_JSON]]
        + [["canon", "-1,1;-5,4"], ["canon", "--", "-1,1;-5,4"], ["canon", A_JSON, "--bogus"]]
        + [["cover", A_JSON, F7, "-o"], ["cover", A_JSON, F7, "-o", cover], ["verify", cover]]
        + [["canon", A_JSON, "--quiet"], ["chain", "surface:g=2", "orbifold:2,3,7"]]
        + [["canon", "--qu", A_JSON], ["cover", A_JSON, F7, "--o", cover]]
        + [["cover", A_JSON, F7, "--out", cover], ["canon", "--", A_JSON]]
        + [["canon", A_JSON, "--", "--quiet"], ["trace-seq", A_JSON, "-3"]]
        + [["trace-seq", A_JSON, "--", "-3"], ["verify", "--quiet", cover], ["chain", "-h", "x"]]
    )


def outcome(call):
    """(exit code, stdout, stderr) of call(); a SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestParserPath:
    """run() builds only the parser of the verb argv[0] names, and the
    top-level parser with all seven verbs as sub-parsers when argv[0]
    names none. Which one it builds must not show in any exit code,
    stdout or stderr."""

    def outcomes(self, monkeypatch, tmp_path):
        """run(argv) for each case, then main() with sys.argv patched."""
        results = []
        for argv in parser_cases(tmp_path):
            results.append(outcome(lambda: run(argv)))
            with monkeypatch.context() as patch:
                patch.setattr(sys, "argv", ["flowcomm", *argv])
                results.append(outcome(main))
        return results

    def test_verb_parser_matches_all_seven(self, monkeypatch, tmp_path):
        one = self.outcomes(monkeypatch, tmp_path)
        monkeypatch.setattr(cli, "_parser_for", lambda argv: (cli._build_parser(), argv))
        assert self.outcomes(monkeypatch, tmp_path) == one
        assert {code for code, _, _ in one} == {0, 2}

    @pytest.mark.parametrize("through_main", [False, True])
    def test_parsers_built(self, monkeypatch, tmp_path, through_main):
        """add_parser runs 0 times when argv[0] is a verb, else once per
        verb; a verb's call constructs one _Parser."""
        names, parsers = [], []
        add_parser, init = argparse._SubParsersAction.add_parser, cli._Parser.__init__

        def counting_add_parser(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        def counting_init(self, *args, **kwargs):
            parsers.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        verbs = [name for name, *_ in cli._VERBS]
        for argv in parser_cases(tmp_path):
            names.clear()
            parsers.clear()
            if through_main:
                monkeypatch.setattr(sys, "argv", ["flowcomm", *argv])
                outcome(main)
            else:
                outcome(lambda: run(argv))
            if argv and argv[0] in verbs:
                assert (names, parsers) == ([], [f"flowcomm {argv[0]}"]), argv
            else:
                assert names == verbs and len(parsers) == 1 + len(verbs), argv


class TestEquiv:
    def test_positive(self, capsys):
        code, doc = run_json(capsys, ["equiv", GENUS2, "[[11,8],[4,3]]"])
        assert code == 0
        assert doc["equivalent"] is True
        assert doc["conjugator"] is not None
        assert doc["canonical_a"] == doc["canonical_b"] == [["2", "1"], ["2", "1"]]

    def test_negative(self, capsys):
        code, doc = run_json(capsys, ["equiv", "[[3,1],[2,1]]", "[[3,2],[1,1]]"])
        assert code == 1
        assert doc["equivalent"] is False
        assert doc["conjugator"] is None

    def test_quiet(self, capsys):
        assert run(["equiv", "--quiet", GENUS2, "[[11,8],[4,3]]"]) == 0
        assert capsys.readouterr().out == ""


class TestCanon:
    def test_word(self, capsys):
        code, doc = run_json(capsys, ["canon", GENUS2])
        assert code == 0
        assert doc["canonical_word"] == [["2", "1"], ["2", "1"]]
        assert doc["display"] == "R^2 L^1 R^2 L^1"


class TestCommensurable:
    def test_positive(self, capsys):
        code, doc = run_json(capsys, ["commensurable", A_JSON, F7])
        assert code == 0
        assert doc["commensurable"] is True
        assert doc["minimal_exponents"] == ["2", "1"]
        assert doc["squarefree_a"] == doc["squarefree_b"] == "5"
        assert doc["certificate"]["intertwiner_det"] == "3"

    def test_negative(self, capsys):
        code, doc = run_json(capsys, ["commensurable", A_JSON, GENUS2])
        assert code == 1
        assert doc["commensurable"] is False
        assert doc["certificate"] is None

    def test_negative_trace_input(self, capsys):
        code, doc = run_json(capsys, ["commensurable", "[[-2,-1],[-1,-1]]", F7])
        assert code == 0
        assert doc["squared_a"] is True

    def test_far_common_power_exits_zero(self, capsys):
        """A^4001 and A^3999 first meet at A^(4001 * 3999): found at
        once, with a certificate whose stated powers have millions of
        bits, though no power is formed."""
        a, b = (naive_pow((2, 1, 1, 1), n) for n in (4001, 3999))
        for verb in ("commensurable", "cover"):
            start = time.monotonic()
            code = run([verb, "%d,%d;%d,%d" % a, "%d,%d;%d,%d" % b])
            assert time.monotonic() - start < 1
            assert code == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            doc = json.loads(captured.out)
            cert = doc["certificate"] if verb == "commensurable" else doc
            assert (cert["power_a"], cert["power_b"]) == ("3999", "4001")

    def test_hard_trace_decided(self, capsys):
        argv = ["commensurable", A_JSON, f"[[0,1],[-1,{HARD_TRACE}]]"]
        assert run(argv) in (0, 1)
        assert "limit:" not in capsys.readouterr().err
        assert run(argv + ["--factor-effort", "1"]) == 2
        assert "--factor-effort" in capsys.readouterr().err

    def test_search_bound_not_accepted(self, capsys):
        for verb in ("commensurable", "cover"):
            for flag in ("--search-bound", "--max-steps"):
                for value in ("1", "-1"):
                    assert run([verb, A_JSON, F7, flag, value]) == 2
                    assert flag in capsys.readouterr().err

    def test_negative_max_steps_exits_two(self, capsys):
        for verb in ("commensurable", "cover"):
            assert run([verb, A_JSON, F7, "--max-steps", "-1"]) == 2
            assert "--max-steps" in capsys.readouterr().err


class TestCoverAndVerify:
    def test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        assert run(["cover", A_JSON, F7, "-o", str(path)]) == 0
        assert run(["verify", str(path)]) == 0
        assert capsys.readouterr().out.strip().endswith("verified")

    def test_emitted_document_is_decimal_strings(self, capsys):
        code = run(["cover", A_JSON, F7])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert string_leaves_only(doc)

    def test_negative_pair_exits_one(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        assert run(["cover", A_JSON, GENUS2, "-o", str(path)]) == 1
        assert not path.exists()
        assert "not commensurable" in capsys.readouterr().err

    def test_tampered_document_rejected(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        assert run(["cover", A_JSON, F7, "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["intertwiner_det"] = "4"
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "rejected: intertwiner_det" in out

    def test_trailing_newline_field_exits_two(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        assert run(["cover", A_JSON, F7, "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["power_a"] = "2\n"
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path)]) == 2
        assert "power_a" in capsys.readouterr().err

    def test_malformed_document_exits_two(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text("{broken")
        assert run(["verify", str(path)]) == 2
        path.write_text('{"format_version": "1", "kind": "mystery"}')
        assert run(["verify", str(path)]) == 2
        capsys.readouterr()

    def test_missing_file_exits_two(self, capsys, tmp_path):
        assert run(["verify", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_unwritable_output_exits_two(self, capsys, tmp_path):
        for argv in (
            ["cover", A_JSON, F7, "-o", str(tmp_path / "absent" / "c.json")],
            ["chain", "surface:2", "surface:3", "-o", str(tmp_path)],
        ):
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert "cannot write" in captured.err
            assert "Traceback" not in captured.err and captured.out == ""

    def test_empty_output_path_exits_two(self, capsys):
        """-o '' names a file that cannot be opened, as verify '' does; it
        asks neither for stdout nor for no output."""
        for argv in (
            ["cover", A_SEMI, "0,1;-1,7", "-o", ""],
            ["chain", "surface:g=2", "surface:g=3", "-o", "", "--quiet"],
        ):
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: cannot write '': ")

    def test_non_utf8_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_bytes(b'{"kind": "\xff\xfe"}')
        assert run(["verify", str(path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_deeply_nested_document_exits_two(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text("[" * 100000)
        assert run(["verify", str(path)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_powers_past_old_budget(self, capsys, tmp_path):
        """A^870 against A^869, whose certificate states powers past the
        2^20-bit budget of 0.8.0, is covered and verified; a document
        whose powers have thousands of digits is rejected at once."""
        path = tmp_path / "cert.json"
        a, b = (naive_pow((2, 1, 1, 1), n) for n in (870, 869))
        assert run(["cover", "%d,%d;%d,%d" % a, "%d,%d;%d,%d" % b, "-o", str(path)]) == 0
        assert json.loads(path.read_text())["power_a"] == "869"
        assert run(["verify", str(path)]) == 0
        assert capsys.readouterr().out == "verified\n"
        assert run(["cover", A_JSON, F7, "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        for power_a, power_b in (("2000001", "1000000"), ("1" + "0" * 4000, "1" + "0" * 3999 + "1")):
            doc["power_a"], doc["power_b"] = power_a, power_b
            path.write_text(json.dumps(doc))
            start = time.monotonic()
            assert run(["verify", str(path)]) == 1
            assert time.monotonic() - start < 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("rejected: power_traces_equal\n", "")

    def test_byte_identical_reruns(self, capsys):
        assert run(["cover", A_JSON, F7]) == 0
        first = capsys.readouterr().out
        assert run(["cover", A_JSON, F7]) == 0
        assert capsys.readouterr().out == first


class TestChain:
    def test_surface_to_orbifold(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        assert run(["chain", "surface:g=2", "orbifold:2,3,18", "-o", str(path)]) == 0
        assert run(["verify", str(path)]) == 0
        capsys.readouterr()

    def test_model_syntaxes(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        for model_a in ("surface:g=3", "surface:3"):
            assert run(["chain", model_a, f"suspension:{A_JSON}", "-o", str(path)]) == 0
            assert run(["verify", str(path)]) == 0
        capsys.readouterr()

    def test_suspension_pair(self, capsys):
        assert run(["chain", f"suspension:{A_SEMI}", f"suspension:{F7}"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "chain-certificate"
        assert len(doc["links"]) == 1

    def test_malformed_model(self, capsys):
        for bad in (
            "surface:g=1",
            "orbifold:2,4,4",
            "orbifold:2,3",
            "orbifold:g=1",
            "orbifold:1,5,7",
            "orbifold:g=-1,2,3,7",
            "orbifold:2,g=1,3",
            "orbifold:",
            "disk:3",
            "surface:",
        ):
            assert run(["chain", bad, "orbifold:2,3,9"]) == 2
        capsys.readouterr()

    def test_general_signatures(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        for model in ("orbifold:2,4,5", "orbifold:g=1,2", "orbifold: g=2 , 5, 2"):
            assert run(["chain", model, "surface:g=2", "-o", str(path)]) == 0
            assert run(["verify", str(path)]) == 0
        endpoint = json.loads(path.read_text())["endpoints"][0]
        assert endpoint == {"type": "orbifold", "genus": "2", "cone_orders": ["2", "5"]}
        capsys.readouterr()
        assert run(["chain", "orbifold:7,3,2", "surface:2"]) == 0
        first = capsys.readouterr().out
        assert run(["chain", "orbifold:2,3,7", "surface:2"]) == 0
        assert capsys.readouterr().out == first

    def test_cover_breaking_cone_points_rejected(self, capsys, tmp_path):
        """A version-0.6.0 document: its genus-2 cover has degree 20 over
        (2,3,15), which lcm(2, 3, 15) = 30 does not divide."""
        path = tmp_path / "chain.json"
        path.write_text(DEGREE_TWENTY_CHAIN)
        assert run(["verify", str(path)]) == 1
        assert capsys.readouterr().out == "rejected: link 0: cover_cone_points\n"

    def test_tampered_chain_rejected(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        assert run(["chain", "surface:g=2", "orbifold:2,3,18", "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["links"][0]["evidence"]["tag"] = "BIRKHOFF_SECTION_23N"
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path)]) == 1
        assert "almost_equivalence_whitelist" in capsys.readouterr().out

    @pytest.mark.parametrize("monodromy", [[["2", "1"], ["0", "1"]], [["1", "1"], ["0", "1"]]])
    def test_non_hyperbolic_suspension_named(self, capsys, tmp_path, monodromy):
        """A link's suspension of det 2, or of trace 2, is an input
        error that names the link's field."""
        path = tmp_path / "chain.json"
        assert run(["chain", f"suspension:{A_SEMI}", "surface:g=2", "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["links"][0]["source"]["monodromy"] = monodromy
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: links[0].source: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "model_a, model_b", [(a, b) for i, a in enumerate(MODELS) for b in MODELS[i:]]
    )
    def test_every_tampered_link_rejected(self, capsys, tmp_path, model_a, model_b):
        """Each chain between the corpus models, its middle link changed
        by one value of its evidence: a cover degree, a citation tag or
        a certificate power. Reversing the endpoints, as the corpus
        does, leaves a chain from a model to itself valid."""
        path = tmp_path / "chain.json"
        assert run(["chain", model_a, model_b, "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        index = len(doc["links"]) // 2
        evidence = doc["links"][index]["evidence"]
        if evidence["type"] == "citation":
            swap = {GHYS_HASHIGUCHI: BIRKHOFF_SECTION_23N, BIRKHOFF_SECTION_23N: GHYS_HASHIGUCHI}
            evidence["tag"] = swap[evidence["tag"]]
        else:
            field = "degree_source" if evidence["type"] == "common-cover" else "power_a"
            evidence[field] = str(int(evidence[field]) + 1)
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path)]) == 1
        assert capsys.readouterr().out.startswith(f"rejected: link {index}: ")

    def test_byte_identical_reruns(self, capsys):
        assert run(["chain", "surface:g=2", "surface:g=3"]) == 0
        first = capsys.readouterr().out
        assert run(["chain", "surface:g=2", "surface:g=3"]) == 0
        assert capsys.readouterr().out == first

    def test_effort_flags_not_accepted(self, capsys):
        for flag in ("--max-steps", "--search-bound", "--factor-effort"):
            assert run(["chain", "surface:g=2", "orbifold:2,3,18", flag, "1"]) == 2
        capsys.readouterr()

    def test_huge_orbifold(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        argv = ["chain", "orbifold:2,3," + "9" * 200, "surface:2", "-o", str(path)]
        assert run(argv) == 0
        assert run(["verify", str(path)]) == 0
        capsys.readouterr()

    def test_hostile_cone_orders(self, capsys, tmp_path, monkeypatch):
        """One orbifold of a chain document given 200 random 4,000-digit
        cone orders is rejected by its cone points, one modulo per order,
        and no Euler characteristic is summed on the way."""
        path = tmp_path / "chain.json"
        assert run(["chain", "orbifold:2,4,5", "surface:g=2", "-o", str(path)]) == 0
        rng = random.Random(14)
        orders = [str(rng.randrange(10**3999, 10**4000)) for _ in range(200)]
        doc = json.loads(path.read_text())
        for model in (doc["endpoints"][0], doc["links"][0]["source"]):
            model["cone_orders"] = orders
        path.write_text(json.dumps(doc))
        sums = count_chi_sums(monkeypatch)
        assert run(["verify", str(path)]) == 1
        assert capsys.readouterr().out == "rejected: link 0: cover_cone_points\n"
        assert sums == []

    def test_large_power_suspension(self, capsys, tmp_path):
        a, b, c, d = naive_pow((2, 1, 1, 1), 24)
        path = tmp_path / "chain.json"
        argv = ["chain", "surface:g=2", f"suspension:[[{a},{b}],[{c},{d}]]"]
        assert run(argv + ["-o", str(path)]) == 0
        assert run(["verify", str(path)]) == 0
        capsys.readouterr()


def model_arg(model):
    """A model as the command line writes it."""
    if isinstance(model, Suspension):
        return "suspension:[[%d,%d],[%d,%d]]" % model.monodromy.entries()
    if not model.cone_orders:
        return f"surface:g={model.genus}"
    return "orbifold:" + ",".join([f"g={model.genus}", *map(str, model.cone_orders)])


def verify_edited(capsys, tmp_path, argv, edit):
    """(exit code, stdout, stderr) of verify on the document that argv
    writes, once edit has changed it in place."""
    path = tmp_path / "doc.json"
    assert run([*argv, "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    code = run(["verify", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def replace_at(path, value):
    """The edit that replaces the value at path, a key or index per level."""

    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return edit


class TestHostileDocuments:
    """Hostile documents for verifier and decoder branches, each run
    through verify and pinned by its exit code and its whole output;
    TestEveryClauseReachable reaches every verifier clause again, from
    one certificate and one chain."""

    def _chain_link(self, capsys, tmp_path, edit):
        def edit_link(doc):
            edit(doc["links"][0])

        argv = ["chain", "orbifold:2,4,5", "surface:g=2"]
        return verify_edited(capsys, tmp_path, argv, edit_link)

    def test_bases_in_distinct_square_classes(self, capsys, tmp_path):
        def edit(doc):
            doc["base_b"] = [["0", "1"], ["-1", "4"]]

        result = verify_edited(capsys, tmp_path, ["cover", A_JSON, F7], edit)
        assert result == (1, "rejected: power_traces_equal\n", "")

    def test_orbifold_link_without_a_cover(self, capsys, tmp_path):
        def edit(link):
            link["evidence"] = {"type": "citation", "tag": "GHYS_HASHIGUCHI"}

        result = self._chain_link(capsys, tmp_path, edit)
        assert result == (1, "rejected: link 0: cover_missing\n", "")

    def test_cover_of_genus_one(self, capsys, tmp_path):
        def edit(link):
            link["evidence"]["cover_genus"] = "1"

        result = self._chain_link(capsys, tmp_path, edit)
        assert result == (1, "rejected: link 0: cover_genus\n", "")

    @pytest.mark.parametrize("field, value", [("degree_source", "0"), ("degree_target", "-3")])
    def test_cover_degree_not_positive(self, capsys, tmp_path, field, value):
        def edit(link):
            link["evidence"][field] = value

        result = self._chain_link(capsys, tmp_path, edit)
        assert result == (1, "rejected: link 0: cover_degrees\n", "")

    @pytest.mark.skipif(DIGIT_LIMIT == 0, reason="int/str digit limit disabled")
    def test_rational_past_the_digit_limit(self, capsys, tmp_path):
        def edit(link):
            link["evidence"]["euler_source"] = "1" * (DIGIT_LIMIT + 700) + "/2"

        result = self._chain_link(capsys, tmp_path, edit)
        field = "links[0].evidence.euler_source"
        assert result == (2, "", f"error: {field}: {digit_limit_message()}\n")

    @pytest.mark.skipif(DIGIT_LIMIT == 0, reason="int/str digit limit disabled")
    def test_determinant_past_the_digit_limit(self, capsys, tmp_path):
        """A base or a monodromy whose determinant str() would refuse: a
        certificate is rejected, and a chain's model is an input error
        that names the determinant by its size."""
        huge = [row.split(",") for row in HUGE_DET.split(";")]

        def edit_base(doc):
            doc["base_a"] = huge

        result = verify_edited(capsys, tmp_path, ["cover", A_JSON, F7], edit_base)
        assert result == (1, "rejected: base_a_hyperbolic\n", "")

        def edit_monodromy(doc):
            doc["links"][0]["source"]["monodromy"] = huge

        argv = ["chain", f"suspension:{A_SEMI}", "surface:g=2"]
        result = verify_edited(capsys, tmp_path, argv, edit_monodromy)
        assert result == (2, "", f"error: links[0].source: {HUGE_DET_MESSAGE}\n")

    def test_unknown_evidence_type(self, capsys, tmp_path):
        def edit(link):
            link["evidence"]["type"] = "zzz"

        result = self._chain_link(capsys, tmp_path, edit)
        assert result == (2, "", "error: links[0].evidence.type: unknown evidence type 'zzz'\n")

    def test_links_not_a_list(self, capsys, tmp_path):
        def edit(doc):
            doc["links"] = {}

        argv = ["chain", "orbifold:2,4,5", "surface:g=2"]
        result = verify_edited(capsys, tmp_path, argv, edit)
        assert result == (2, "", "error: links: expected a list of links\n")


IDENTITY = [["1", "0"], ["0", "1"]]
A_ENTRIES = [["2", "1"], ["1", "1"]]
CITATION = {"type": "citation", "tag": GHYS_HASHIGUCHI}
# the documents the clauses are reached from: a certificate, and a chain
# whose link 0 is a citation, link 1 a certificate between suspensions
# and link 3 a common cover of (0; 2, 3, 18), of degrees 144 and 114
REACHED_FROM = {"cover": ["cover", A_JSON, F7], "chain": ["chain", "surface:g=2", "surface:g=3"]}
COVER_EVIDENCE = ("links", 3, "evidence")
# clause: (document, path to the one value replaced, value, what verify
# prints after "rejected: ")
REACHING = {
    "base_a_hyperbolic": ("cover", ("base_a",), IDENTITY, "base_a_hyperbolic"),
    "base_b_hyperbolic": ("cover", ("base_b",), IDENTITY, "base_b_hyperbolic"),
    "powers_positive": ("cover", ("power_a",), "0", "powers_positive"),
    "power_traces_equal": ("cover", ("base_b",), [["0", "1"], ["-1", "4"]], "power_traces_equal"),
    "intertwining_identity": ("cover", ("intertwiner",), IDENTITY, "intertwining_identity"),
    "intertwiner_nonsingular": (
        "cover",
        ("intertwiner",),
        [["0", "0"], ["0", "0"]],
        "intertwiner_nonsingular",
    ),
    "intertwiner_det": ("cover", ("intertwiner_det",), "4", "intertwiner_det"),
    "sublattice": ("cover", ("sublattice",), {"a": "1", "b": "0", "d": "3"}, "sublattice"),
    "stabilization": ("cover", ("stabilization",), "2", "stabilization"),
    "index_over_a": ("cover", ("index_over_a",), "7", "index_over_a"),
    "index_over_b": ("cover", ("index_over_b",), "2", "index_over_b"),
    "chain_nonempty": ("chain", ("links",), [], "chain_nonempty"),
    "endpoints_match": ("chain", ("endpoints", 0, "genus"), "4", "endpoints_match"),
    "link_continuity": (
        "chain",
        ("links", 0, "target", "monodromy"),
        A_ENTRIES,
        "link 0: link_continuity",
    ),
    "link_kind": ("chain", ("links", 0, "kind"), "equivalence", "link 0: link_kind"),
    "almost_equivalence_whitelist": (
        "chain",
        ("links", 0, "evidence", "tag"),
        "FOLKLORE",
        "link 0: almost_equivalence_whitelist",
    ),
    "almost_equivalence_endpoints": (
        "chain",
        ("links", 3, "kind"),
        "almost-equivalence",
        "link 3: almost_equivalence_endpoints",
    ),
    "commensurability_endpoints": (
        "chain",
        ("links", 0, "kind"),
        "commensurability",
        "link 0: commensurability_endpoints",
    ),
    "certificate_missing": (
        "chain",
        ("links", 1, "evidence"),
        CITATION,
        "link 1: certificate_missing",
    ),
    "certificate_endpoints": (
        "chain",
        ("links", 1, "evidence", "base_a"),
        A_ENTRIES,
        "link 1: certificate_endpoints",
    ),
    "certificate_invalid": (
        "chain",
        ("links", 1, "evidence", "intertwiner_det"),
        "4",
        "link 1: certificate_invalid: intertwiner_det",
    ),
    "cover_missing": ("chain", COVER_EVIDENCE, CITATION, "link 3: cover_missing"),
    "cover_genus": ("chain", COVER_EVIDENCE + ("cover_genus",), "1", "link 3: cover_genus"),
    "cover_degrees": ("chain", COVER_EVIDENCE + ("degree_source",), "0", "link 3: cover_degrees"),
    "cover_cone_points": (
        "chain",
        COVER_EVIDENCE + ("degree_source",),
        "145",
        "link 3: cover_cone_points",
    ),
    "degree_source": (
        "chain",
        COVER_EVIDENCE + ("degree_source",),
        "288",
        "link 3: degree_source",
    ),
    "degree_target": (
        "chain",
        COVER_EVIDENCE + ("degree_target",),
        "228",
        "link 3: degree_target",
    ),
    "euler_source": ("chain", COVER_EVIDENCE + ("euler_source",), "-1/8", "link 3: euler_source"),
    "euler_target": ("chain", COVER_EVIDENCE + ("euler_target",), "-1/8", "link 3: euler_target"),
    "euler_cover": ("chain", COVER_EVIDENCE + ("euler_cover",), "-14", "link 3: euler_cover"),
}


# the clauses verify.py formats: the two bases' _hyperbolic, and
# link_continuity and certificate_invalid with a link index before them
FORMATTED_CLAUSES = {
    "base_a_hyperbolic",
    "base_b_hyperbolic",
    "link_continuity",
    "certificate_invalid",
}
# the fields a mismatch with derive is named by: a certificate's last
# five, and every cover field but the genus (verify reads the two chi
# it derives from off the link's models, not off the stated fields)
DERIVED_CLAUSES = {*CommensurabilityCertificate._fields[5:], *GeodesicCommonCover._fields[1:]}


class TestEveryClauseReachable:
    """For every clause that verify.py can return, one edited document
    makes `flowcomm verify` print it with exit 1: the decoder rejects
    only what no record can hold, so no clause is dead code."""

    def test_table_covers_every_clause(self):
        """Each (False, "<clause>") constant in verify.py, each clause it
        formats and each field it compares with derive's."""
        clauses = rejections(Path(verify.__file__)) | FORMATTED_CLAUSES | DERIVED_CLAUSES
        assert clauses == set(REACHING)

    @pytest.mark.parametrize("clause", sorted(REACHING))
    def test_clause_reached(self, capsys, tmp_path, clause):
        name, path, value, rejection = REACHING[clause]
        result = verify_edited(capsys, tmp_path, REACHED_FROM[name], replace_at(path, value))
        assert result == (1, f"rejected: {rejection}\n", "")

    @pytest.mark.parametrize(
        "name, path, rejection",
        [
            ("cover", ("sublattice",), "sublattice"),
            (
                "chain",
                ("links", 1, "evidence", "sublattice"),
                "link 1: certificate_invalid: sublattice",
            ),
        ],
        ids=["certificate", "chain_link"],
    )
    @pytest.mark.parametrize(
        "key, value",
        [("b", None), ("a", "0"), ("b", "-1")],  # None: b takes a's value
        ids=["b_is_a", "a_zero", "b_negative"],
    )
    def test_non_canonical_sublattice(self, capsys, tmp_path, name, path, rejection, key, value):
        """A sublattice triple off the canonical form (b = a, a = 0 or
        b = -1) decodes, and verify rejects it as unequal to hnf(P)."""

        def edit(doc):
            for step in path:
                doc = doc[step]
            doc[key] = doc["a"] if value is None else value

        result = verify_edited(capsys, tmp_path, REACHED_FROM[name], edit)
        assert result == (1, f"rejected: {rejection}\n", "")

    @pytest.mark.parametrize(
        "value, message",
        [
            pytest.param("1", "certificate.sublattice: expected an object", id="not_an_object"),
            pytest.param(
                {"a": "3", "b": "1"},
                "certificate.sublattice: missing field 'd'",
                id="missing_entry",
            ),
            pytest.param(
                {"a": 3, "b": "1", "d": "1"},
                "certificate.sublattice.a: expected a decimal-string integer, got 3",
                id="native_number",
            ),
            pytest.param(
                {"a": "3", "b": TOO_LONG, "d": "1"},
                f"certificate.sublattice.b: {digit_limit_message()}",
                id="past_digit_limit",
                marks=pytest.mark.skipif(DIGIT_LIMIT == 0, reason="int/str digit limit disabled"),
            ),
        ],
    )
    def test_malformed_sublattice_exits_two(self, capsys, tmp_path, value, message):
        """A sublattice that is not an object of three decimal-string
        integers within the digit limit is an input error."""
        edit = replace_at(("sublattice",), value)
        result = verify_edited(capsys, tmp_path, REACHED_FROM["cover"], edit)
        assert result == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("links", 1, "kind"), 3, "links[1].kind: expected a string, got 3"),
            (
                ("links", 1, "evidence", "tag"),
                None,
                "links[1].evidence.tag: expected a string, got None",
            ),
            (
                ("links", 1, "evidence", "type"),
                "folklore",
                "links[1].evidence.type: unknown evidence type 'folklore'",
            ),
            (
                ("links", 1, "source", "type"),
                "torus",
                "links[1].source.type: unknown model type 'torus'",
            ),
            (("kind",), "chain", "kind: unknown document kind 'chain'"),
            (("format_version",), "2", "format_version: expected '1', got '2'"),
        ],
        ids=["kind", "tag", "evidence_type", "model_type", "document_kind", "format_version"],
    )
    def test_what_no_record_holds_exits_two(self, capsys, tmp_path, path, value, message):
        """The chain from orbifold:2,3,7 to surface:g=2, whose link 1 is a
        citation, with one value that no record can hold: an input error,
        not a rejection."""
        argv = ["chain", "orbifold:2,3,7", "surface:g=2"]
        result = verify_edited(capsys, tmp_path, argv, replace_at(path, value))
        assert result == (2, "", f"error: {message}\n")


class TestOutputDigest:
    """flowcomm's own output, pinned: the sha256 of every call of the
    seeded corpus in output_corpus.py (argv, exit code, stdout, stderr
    and the -o document, version masked). A change that moves any of
    those bytes on purpose records the new digest here; the corpus
    leaves out argparse's texts and the digit limit, so the digest is
    the same on every supported interpreter."""

    def test_corpus_digest(self, tmp_path):
        digest = "13d264d204ff0bb79d98e55bf084f38c7b2f19dc4406e6028a4100c517e69f9b"
        assert corpus_digest(tmp_path) == (1154, digest)

    def test_decode_digest(self, tmp_path):
        """What decode_document makes of each single-leaf mutation of the
        documents that output_corpus.DECODE_CALLS write: the decoded
        record's repr, which shows every field, or the error message.
        Reusing a decoded model across a chain's links and endpoints moved
        no outcome of this corpus. Pinned where a link's kind and a
        citation's tag decode as any string, so their string mutations
        decode and the others are "expected a string" errors, and where a
        sublattice decodes as any three integers, so a mutation that makes
        its triple non-canonical decodes too."""
        digest = "fa9771db41588b2390737d9b047f075ace44fe8fac117b860de534b070c4f128"
        assert decode_digest(tmp_path) == (8552, digest)

    def test_long_word_digest(self, tmp_path):
        """The corpus holds no word longer than three pairs. Here seeded
        50-, 200- and 1,000-pair words, each conjugated by a shear, write
        the cover document against their trace model [[0,1],[-1,t]] and
        the chain document to surface:g=3, version masked. Pinned where
        find_intertwiner formed P at every convergent of the period."""
        digest, rng, shear = hashlib.sha256(), random.Random(32), (1, 1, 0, 1)
        path = tmp_path / "doc.json"
        for n in (50, 200, 1000):
            word = (1, 0, 0, 1)
            for _ in range(n):
                r, l = rng.randint(1, 3), rng.randint(1, 3)
                word = mul(word, (1 + r * l, r, l, 1))  # R^r L^l
            m = "%d,%d;%d,%d" % mul(mul(inverse(shear), word), shear)
            model = f"[[0,1],[-1,{trace(word)}]]"
            for argv in (["cover", m, model], ["chain", f"suspension:{m}", "surface:g=3"]):
                assert run([*argv, "--quiet", "-o", str(path)]) == 0
                digest.update(_VERSION_RE.sub("flowcomm X.Y.Z", path.read_text()).encode())
        expected = "94f13bbc6f5e96eb5ad1cf0f67eb58784417c3402ed01401349da83bf01d773b"
        assert digest.hexdigest() == expected


class TestIndentedDocuments:
    """Documents as versions before 0.12.0 wrote them, indented, still
    verify: every cover and chain document emitted here, re-indented."""

    def assert_verifies_indented(self, capsys, path):
        text = path.read_text()
        assert text.count("\n") == 1
        path.write_text(indented_text(json.loads(text)))
        assert run(["verify", str(path)]) == 0, text
        assert capsys.readouterr().out == "verified\n"

    def test_cover_documents(self, capsys, tmp_path):
        corpus = hyperbolic_corpus(15, 10) + [(2, 1, 1, 1), (0, 1, -1, 7)]
        path = tmp_path / "cert.json"
        emitted = 0
        for a in corpus:
            for b in corpus:
                argv = ["cover", "[[%d,%d],[%d,%d]]" % a, "[[%d,%d],[%d,%d]]" % b]
                if run(argv + ["-o", str(path)]) == 0:
                    self.assert_verifies_indented(capsys, path)
                    emitted += 1
                capsys.readouterr()
        assert emitted >= len(corpus)

    def test_chain_documents(self, capsys, tmp_path):
        """Each model of the general corpus against the next one, the
        genus-2 surface and a suspension."""
        path = tmp_path / "chain.json"
        partners = [GENERAL_CORPUS[0], GENERAL_CORPUS[6]]
        for m1, m2 in zip(GENERAL_CORPUS, GENERAL_CORPUS[1:] + GENERAL_CORPUS[:1]):
            for other in [m2] + partners:
                assert run(["chain", model_arg(m1), model_arg(other), "-o", str(path)]) == 0
                self.assert_verifies_indented(capsys, path)


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="int/str digit limit disabled")
class TestDigitLimit:
    def _assert_named(self, err):
        assert f"more than {DIGIT_LIMIT} digits" in err
        assert TOO_LONG not in err
        assert "Traceback" not in err

    def test_json_matrix(self, capsys):
        assert run(["canon", f"[[1,{TOO_LONG}],[0,1]]"]) == 2
        self._assert_named(capsys.readouterr().err)

    def test_semicolon_matrix(self, capsys):
        assert run(["canon", f"1,{TOO_LONG};0,1"]) == 2
        err = capsys.readouterr().err
        self._assert_named(err)
        assert "not an integer" not in err

    def test_document_field(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        assert run(["cover", A_JSON, F7, "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["power_a"] = TOO_LONG
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        self._assert_named(err)
        assert "power_a" in err

    def test_document_native_number(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(f'{{"kind": {TOO_LONG}}}')
        assert run(["verify", str(path)]) == 2
        self._assert_named(capsys.readouterr().err)

    HUGE_DET_ARGVS = [
        ["canon", HUGE_DET],
        ["equiv", HUGE_DET, A_SEMI],
        ["commensurable", A_SEMI, HUGE_DET],
        ["cover", HUGE_DET, A_SEMI],
        ["chain", "surface:g=2", f"suspension:{HUGE_DET}"],
        ["trace-seq", HUGE_DET, "3"],
    ]

    @pytest.mark.parametrize("argv", HUGE_DET_ARGVS, ids=lambda argv: argv[0])
    def test_determinant_past_the_limit(self, capsys, argv):
        """Every verb that reads a matrix names a determinant that str()
        would refuse by its size, as an input error."""
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {HUGE_DET_MESSAGE}\n")

    @pytest.mark.parametrize("argv", HUGE_DET_ARGVS, ids=lambda argv: argv[0])
    def test_negative_determinant_past_the_limit(self, capsys, argv):
        """A negative determinant past the limit is named with its sign."""
        argv = [arg.replace(HUGE_DET, HUGE_NEGATIVE_DET) for arg in argv]
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {HUGE_NEGATIVE_DET_MESSAGE}\n")

    def test_verdict_output(self, capsys):
        # t^2 - 4 has about twice the digits of t, and a negative verdict
        # reports it
        trace = "1" + "0" * (DIGIT_LIMIT // 2 + 1)
        assert run(["commensurable", A_JSON, f"[[0,1],[-1,{trace}]]"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        self._assert_named(captured.err)

    def test_quiet_exit_carries_the_verdict(self, capsys, tmp_path):
        """--quiet without -o builds no document, so an output integer
        past the limit cannot turn a decided verdict into exit 3: t^2 - 4
        of two random 4,000-digit traces (negative), the squared base of
        a trace < -2 input (cover) and the cover degree of a chain's
        bridge (chain). With -o the document is still built."""
        rng = random.Random(17)
        digits = min(4000, DIGIT_LIMIT)
        n, m = (rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(2))
        half = "1" + "0" * (DIGIT_LIMIT // 2 + 1)
        cases = [
            (["commensurable", f"[[0,1],[-1,{n}]]", f"[[0,1],[-1,{m}]]"], 1),
            (["cover", f"[[0,1],[-1,-{half}]]", f"[[0,1],[-1,-{half}]]"], 0),
            (["chain", f"suspension:[[0,1],[-1,{'9' * DIGIT_LIMIT}]]", "surface:g=2"], 0),
        ]
        for argv, status in cases:
            assert run(argv) == 3
            self._assert_named(capsys.readouterr().err)
            assert run(argv + ["--quiet"]) == status
            assert capsys.readouterr() == ("", "")
        path = tmp_path / "cert.json"
        assert run(cases[1][0] + ["--quiet", "-o", str(path)]) == 3
        self._assert_named(capsys.readouterr().err)
        assert not path.exists()

    def test_trace_seq_output(self, capsys):
        # traces of A^i have about 0.418 i digits, so the last value is
        # past the limit; nothing may be printed before the exit
        count = str(DIGIT_LIMIT * 5 // 2)
        assert run(["trace-seq", A_JSON, count]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        self._assert_named(captured.err)
        assert run(["trace-seq", A_JSON, count, "--quiet"]) == 3
        capsys.readouterr()

    def test_chain_cone_orders_past_the_limit(self, capsys, monkeypatch):
        """An orbifold with no designated matrix is linked to its least
        covering surface by a printed degree that the lcm of its cone
        orders divides. With 25 random 4,000-digit orders that lcm
        passes the limit after two of them, so chain exits 3 with the
        digit-limit line before it builds a path or sums any chi."""
        rng = random.Random(16)
        orders = [str(rng.randrange(10**3999, 10**4000)) for _ in range(25)]
        monkeypatch.setattr(cli, "almost_commensurability_chain", self._unreached)
        sums = count_chi_sums(monkeypatch)
        start = time.perf_counter()
        assert run(["chain", "orbifold:" + ",".join(orders), "surface:g=2"]) == 3
        assert time.perf_counter() - start < 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"limit: integer has more than {DIGIT_LIMIT} digits, "
            "the interpreter's int/str conversion limit\n"
        )
        assert sums == []

    def test_chain_gate_boundary(self, capsys, monkeypatch):
        """Cone orders of lcm 10^limit are refused, those of lcm
        10^limit - 1 reach the chain, and no lcm is refused when the
        limit is off; orbifolds with a designated matrix are not gated."""
        reached = []

        class Reached(Exception):
            pass

        def spy(m1, m2):
            reached.append(m1)
            raise Reached

        refused = f"orbifold:2,{2**DIGIT_LIMIT},{5**DIGIT_LIMIT}"
        monkeypatch.setattr(cli, "almost_commensurability_chain", self._unreached)
        assert run(["chain", refused, "surface:g=2"]) == 3
        assert run(["chain", "surface:g=2", refused]) == 3
        assert capsys.readouterr().err.count(f"more than {DIGIT_LIMIT} digits") == 2
        monkeypatch.setattr(cli, "almost_commensurability_chain", spy)
        below = 10**DIGIT_LIMIT - 1
        for model in (f"orbifold:3,9,{below}", f"orbifold:2,3,{below}"):
            with pytest.raises(Reached):
                run(["chain", model, "surface:g=2"])
        assert [m.cone_orders[-1] for m in reached] == [below, below]
        try:
            sys.set_int_max_str_digits(0)
            with pytest.raises(Reached):
                run(["chain", refused, "surface:g=2"])
        finally:
            sys.set_int_max_str_digits(DIGIT_LIMIT)
        assert len(reached) == 3

    @staticmethod
    def _unreached(m1, m2):
        raise AssertionError("the chain was built")


class TestTraceSeq:
    def test_values(self, capsys):
        assert run(["trace-seq", A_JSON, "6"]) == 0
        out = capsys.readouterr().out
        assert out.split() == ["3", "7", "18", "47", "123", "322"]

    @pytest.mark.skipif(DIGIT_LIMIT == 0, reason="int/str digit limit disabled")
    @pytest.mark.parametrize("nine", ["9", "\u0669", "\uff19"], ids=["ascii", "arabic-indic", "fullwidth"])
    def test_bad_count(self, capsys, nine):
        """The count goes through the parser of matrix entries: the same
        digit-limit and not-an-integer messages, and one range check.
        int() reads the decimal digits of every script, and so does the
        test that names the digit limit."""
        long_count = nine * 5000
        assert run(["canon", f"{long_count},1;1,1"]) == 2
        entry_err = capsys.readouterr().err
        assert entry_err == f"error: {digit_limit_message()}\n"
        for count, err in (
            (long_count, entry_err),
            ("x", "error: not an integer: 'x'\n"),
            ("-1", "error: count must be >= 1, got -1\n"),
            ("0", "error: count must be >= 1, got 0\n"),
        ):
            assert run(["trace-seq", A_JSON, count]) == 2
            assert capsys.readouterr() == ("", err)
        assert run(["trace-seq", A_JSON, " +3 "]) == 0
        assert capsys.readouterr().out.split() == ["3", "7", "18"]

    def test_rejects_small_base(self, capsys):
        for m in ("[[1,1],[0,1]]", "[[0,1],[-1,2]]"):
            assert run(["trace-seq", m, "3"]) == 2
        assert capsys.readouterr().out == ""

    def test_matches_matrix_powers(self, capsys):
        """Strictly increasing, and equal to the traces of the powers."""
        for entries in hyperbolic_corpus(402, 10):
            assert run(["trace-seq", "[[%d,%d],[%d,%d]]" % entries, "40"]) == 0
            values = [int(v) for v in capsys.readouterr().out.split()]
            assert values == [trace(naive_pow(entries, i)) for i in range(1, 41)]
            assert all(x < y for x, y in zip(values, values[1:]))


def quiet_run(argv):
    """run(argv) with its output discarded; exceptions propagate."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return run(argv)


def leaf_paths(node, path=()):
    """Paths of every dict value and list element of a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for key, child in items:
        out.append(path + (key,))
        out.extend(leaf_paths(child, path + (key,)))
    return out


def emitted_document(tmp_path_factory, argv):
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    assert quiet_run(argv + ["-o", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    return {
        "cover": emitted_document(tmp_path_factory, ["cover", A_JSON, F7]),
        # crosses square classes, so it holds citation, certificate and
        # common-cover links
        "chain": emitted_document(tmp_path_factory, ["chain", "surface:g=2", "surface:g=3"]),
        # general signatures: cone_orders lists of other lengths, the
        # optional genus key, and a surface-orbifold cover link
        "general": emitted_document(
            tmp_path_factory, ["chain", "orbifold:g=1,2,3", "orbifold:2,2,2,2,3"]
        ),
    }


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


# replacement values: small or huge decimal strings (the verifier forms
# no power, so a power of any size is checked at once), other JSON
# types, and text
FIELD_VALUES = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.sampled_from(["0", "-1", "2000000", str(2**64), "1" + "0" * 5000, "2/3", "1/0"]),
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=12),
    st.lists(st.integers(-5, 5).map(str), max_size=3),
    st.dictionaries(st.sampled_from(["a", "b", "d", "type", "tag"]), st.just("1"), max_size=2),
)

MATRIX_TOKEN = st.one_of(
    st.integers().map(str),
    st.text(alphabet="0123456789-+_ []x,;", max_size=6),
)
MATRIX_TEXT = st.one_of(
    st.text(max_size=30),
    st.text(alphabet="[]0123456789,;- ", max_size=30),
    st.tuples(*[MATRIX_TOKEN] * 4).map(lambda e: "[[%s,%s],[%s,%s]]" % e),
    st.tuples(*[MATRIX_TOKEN] * 4).map(lambda e: "%s,%s;%s,%s" % e),
)
MODEL_TEXT = st.one_of(
    st.text(max_size=30),
    st.tuples(
        st.sampled_from(
            ["suspension:", "surface:", "surface:g=", "orbifold:", "orbifold:g=", "ORBIFOLD:", "disk:", ""]
        ),
        st.one_of(MATRIX_TEXT, st.integers(-10, 10**6).map(str), st.text(alphabet="0123456789, ", max_size=12)),
    ).map("".join),
)


class TestBoundaryFuzz:
    """Any document or argument ends in exit 0, 1, 2 or 3 (verify, which
    prints no integer, in 0, 1 or 2), never in an exception out of run()."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["cover", "chain", "general"]),
        pick=st.integers(min_value=0),
        delete=st.booleans(),
        value=FIELD_VALUES,
    )
    def test_mutated_document(self, documents, doc_path, kind, pick, delete, value):
        doc = json.loads(json.dumps(documents[kind]))
        paths = leaf_paths(doc)
        path = paths[pick % len(paths)]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if delete:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        doc_path.write_text(json.dumps(doc))
        assert quiet_run(["verify", str(doc_path)]) in (0, 1, 2)

    @settings(max_examples=150, deadline=None)
    @given(text=MATRIX_TEXT)
    def test_matrix_argument(self, text):
        assert quiet_run(["canon", text]) in (0, 2)

    @settings(max_examples=150, deadline=None)
    @given(text=MODEL_TEXT)
    def test_model_argument(self, text):
        assert quiet_run(["chain", text, "surface:g=2"]) in (0, 2, 3)


# 100 KB arguments that each verb echoes in its error, as the parser, the
# model reader, open() and argparse report them
HOSTILE_ARGV = (
    ["canon", "[" * 100000],
    ["canon", ",".join(["1"] * 50000)],
    ["equiv", "1" * 100000, A_SEMI],
    ["chain", "x" * 100000, "surface:g=2"],
    ["chain", "orbifold:" + "2;" * 50000, "surface:g=2"],
    ["verify", "p" * 100000],
    ["x" * 100000],
)


class TestBoundedStderr:
    """A stderr line keeps the head of a long message and states its
    length, so an echoed 100 KB argument writes under 1 KB; a short
    message is written whole."""

    @pytest.mark.parametrize("argv", HOSTILE_ARGV, ids=lambda argv: argv[0][:8])
    def test_hostile_argument(self, capsys, argv):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(" characters)\n")
        assert len(err.encode()) < 1024

    def test_internal_error_keeps_its_location(self, monkeypatch, capsys):
        def broken(*args):
            raise RuntimeError("x" * 100000)

        monkeypatch.setattr(cli, "rl_word", broken)
        with pytest.raises(SystemExit):
            main(["canon", A_JSON])
        err = capsys.readouterr().err
        assert err.startswith(f"{INTERNAL_ERROR}: RuntimeError: xxx")
        assert "... (100014 characters) (at test_cli.py:" in err
        assert err.endswith(" in broken)\n") and len(err.encode()) < 1024

    def test_message_at_the_limit_is_whole(self, capsys):
        tail = ": expected suspension:, surface:, or orbifold:"
        text = "y" * (cli._MESSAGE_LIMIT - len(f"error: malformed model ''{tail}"))
        assert run(["chain", text, "surface:g=2"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: malformed model {text!r}{tail}\n"
        assert len(err) == cli._MESSAGE_LIMIT + 1
        assert run(["chain", text + "y", "surface:g=2"]) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"... ({cli._MESSAGE_LIMIT + 1} characters)\n")


class TestCatchAll:
    """An exception no verb expects is a bug. main() turns it into exit 2
    with an internal error line; run() raises it, so no in-process test
    (the fuzzer, the exit-2 tests) can pass on a crash."""

    @staticmethod
    def plant(monkeypatch, name):
        def broken(*args):
            raise RuntimeError("planted")

        monkeypatch.setattr(cli, name, broken)

    def test_main_exits_two_without_traceback(self, monkeypatch, capsys):
        self.plant(monkeypatch, "rl_word")
        with pytest.raises(SystemExit) as exit_info:
            main(["canon", A_JSON])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{INTERNAL_ERROR}: RuntimeError: planted (at test_cli.py:")
        assert captured.err.endswith(" in broken)\n")

    def test_main_passes_exit_codes_through(self, capsys):
        for argv, code in ((["canon", A_JSON], 0), (["canon", "[[1,1],[0,1]]"], 2)):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == code
        assert INTERNAL_ERROR not in capsys.readouterr().err

    def test_run_raises_where_input_errors_exit_two(self, monkeypatch):
        """The bad inputs of test_non_hyperbolic_input exit 2; a bug on
        their path raises instead, so that test cannot pass on it."""
        self.plant(monkeypatch, "_parse_matrix")
        for argv in (["canon", "[[1,1],[0,1]]"], ["equiv", A_JSON, "[[1,0],[0,1]]"]):
            with pytest.raises(RuntimeError, match="planted"):
                run(argv)
            with pytest.raises(RuntimeError, match="planted"):
                quiet_run(argv)


class TestMatMulGuard:
    """Matrix products are counted, not timed: through run(), each verb
    on A^(2^k) against A^(2^k - 1) for k = 6..12 (canon on the first,
    equiv also against a conjugate of the first, chain from surface:g=2
    to the suspension of the first, verify on the cover and chain
    documents) makes the same number of mat_mul calls at every k, so
    none forms a power of its input; canon and equiv on a word of n
    pairs make O(n). The patch replaces mat_mul in every flowcomm module
    that binds it. find_intertwiner's walk steps along an orbit by entry
    tuples, not by mat_mul, so the mat_mul guards do not see the walk;
    the walk guard counts its steps instead."""

    def counted_mat_mul(self, monkeypatch):
        """The list that every mat_mul call of flowcomm appends to."""
        calls, mat_mul = [], linalg.mat_mul

        def counting(x, y):
            calls.append(1)
            return mat_mul(x, y)

        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("flowcomm.") and getattr(module, "mat_mul", None) is mat_mul:
                monkeypatch.setattr(module, "mat_mul", counting)
        return calls

    def test_counts_do_not_grow_with_the_exponent(self, monkeypatch, tmp_path):
        calls = self.counted_mat_mul(monkeypatch)
        counts = {}
        for k in range(6, 13):
            power = square_pow((2, 1, 1, 1), 2**k)
            a, b = ("%d,%d;%d,%d" % m for m in (power, square_pow((2, 1, 1, 1), 2**k - 1)))
            shear = (1, 1, 0, 1)
            conjugate = "%d,%d;%d,%d" % mul(inverse(shear), mul(power, shear))
            cover, chain = str(tmp_path / f"cover{k}.json"), str(tmp_path / f"chain{k}.json")
            for verb, argv in (
                ("canon", ["canon", a]),
                ("equiv", ["equiv", a, b]),
                ("equiv conjugate", ["equiv", a, conjugate]),
                ("commensurable", ["commensurable", a, b]),
                ("cover", ["cover", a, b, "-o", cover]),
                ("chain", ["chain", "surface:g=2", f"suspension:{a}", "-o", chain]),
                ("verify cover", ["verify", cover]),
                ("verify chain", ["verify", chain]),
            ):
                calls.clear()
                assert quiet_run(argv) == (1 if verb == "equiv" else 0), argv
                counts.setdefault(verb, []).append(len(calls))
        for verb, seq in counts.items():
            assert len(set(seq)) == 1 and seq[0] > 0, (verb, seq)

    def test_words_take_linear_counts(self, monkeypatch):
        """Seeded random words of n = 2^k pairs, k = 6..10, each
        conjugated by a shear: canon takes at most n + 16 products (one
        per pair: the rotated-off prefix and the rest are each evaluated
        once, and the word's value is their product; n + 5 measured) and
        equiv against the word's own value at most 2n + 32 (2n + 12
        measured). canon on R^(2^k) L, one pair, takes the same count
        for k = 6..13."""
        calls = self.counted_mat_mul(monkeypatch)
        rng, shear = random.Random(25), (1, 1, 0, 1)
        for k in range(6, 11):
            n, value = 2**k, (1, 0, 0, 1)
            for _ in range(n):
                r, l = rng.randint(1, 3), rng.randint(1, 3)
                value = mul(value, (1 + r * l, r, l, 1))
            m, w = ("%d,%d;%d,%d" % x for x in (mul(inverse(shear), mul(value, shear)), value))
            for argv, bound in ((["canon", m], n + 16), (["equiv", m, w], 2 * n + 32)):
                calls.clear()
                assert quiet_run(argv) == 0, argv[0]
                assert len(calls) <= bound, (argv[0], n, len(calls), bound)
        counts = []
        for k in range(6, 14):
            calls.clear()
            assert quiet_run(["canon", "%d,%d;%d,%d" % (1 + 2**k, 2**k, 1, 1)]) == 0
            counts.append(len(calls))
        assert len(set(counts)) == 1 and counts[0] > 0, counts

    def test_hostile_certificates_take_work_linear_in_their_bits(self, monkeypatch, tmp_path):
        """verify makes at most one _unit_mul or mat_mul per 256 bits of
        a cover document at the digit limit: A^9570 against A^9569, whose
        bases have 4,000-digit entries, as written (24 products,
        measured) and with its powers swapped, so that one square class
        holds powers that do not meet; with a 4,000-digit power_a against
        power_b 1, the reverse, and two 4,000-digit powers; and with
        base_b moved to the next trace, one square class apart. Each is
        read alone and as the evidence of a one-link chain document
        between the suspensions of its bases. A unit division by one
        product per unit of its quotient would take over 9,000 products
        on the first document, past the bound."""
        calls = self.counted_mat_mul(monkeypatch)
        unit_mul = conjugacy._unit_mul

        def counting(x, y, d0):
            calls.append(1)
            return unit_mul(x, y, d0)

        monkeypatch.setattr(conjugacy, "_unit_mul", counting)
        a, b = ("%d,%d;%d,%d" % square_pow((2, 1, 1, 1), n) for n in (9570, 9569))
        path = tmp_path / "cover.json"
        assert quiet_run(["cover", a, b, "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert max(len(entry) for row in doc["base_a"] for entry in row) == 4000
        big = "1" + "0" * 3999
        (b11, _), (_, b22) = doc["base_b"]
        next_trace = [["0", "1"], ["-1", str(int(b11) + int(b22) + 1)]]
        header = {key: doc.pop(key) for key in ("format_version", "generator", "kind")}
        counts = []
        for edit, code in (
            ({}, 0),
            ({"power_a": doc["power_b"], "power_b": doc["power_a"]}, 1),
            ({"power_a": big, "power_b": "1"}, 1),
            ({"power_a": "1", "power_b": big}, 1),
            ({"power_a": big, "power_b": big[:-1] + "1"}, 1),
            ({"base_b": next_trace}, 1),
        ):
            cert = {**doc, **edit}
            ends = [{"type": "suspension", "monodromy": cert[key]} for key in ("base_a", "base_b")]
            link = {"kind": "commensurability", "source": ends[0], "target": ends[1]}
            link["evidence"] = {"type": "certificate", **cert}
            chain = {**header, "kind": "chain-certificate", "endpoints": ends, "links": [link]}
            for document in ({**header, **cert}, chain):
                text = json.dumps(document)
                path.write_text(text)
                calls.clear()
                assert quiet_run(["verify", str(path)]) == code, (document["kind"], sorted(edit))
                counts.append(len(calls))
                assert len(calls) <= 8 * len(text) // 256, (sorted(edit), len(calls), len(text))
        # a chain reaches its certificate's verification, and costs no more
        assert counts[0] > 0 and counts[0::2] == counts[1::2], counts

    def test_walk_does_not_grow_with_the_exponent(self, monkeypatch, tmp_path):
        """commensurability._rank runs once for the walk's start and once
        per step, so its calls count the walk. commensurable and cover on
        A^(2^k) against A^(2^k - 1) take the same number (9) at every k.
        The chain from surface:g=2 to the suspension of A^p still walks
        about p + 11 steps on its bridge link (75, 139, 267, 523, 1035
        and 2059 at k = 6..11); this guard does not assert that growth."""
        calls, rank = [], commensurability._rank

        def counting(entries):
            calls.append(1)
            return rank(entries)

        monkeypatch.setattr(commensurability, "_rank", counting)
        counts = {}
        for k in range(6, 13):
            a, b = ("%d,%d;%d,%d" % square_pow((2, 1, 1, 1), n) for n in (2**k, 2**k - 1))
            for verb, argv in (
                ("commensurable", ["commensurable", a, b]),
                ("cover", ["cover", a, b, "-o", str(tmp_path / f"cover{k}.json")]),
            ):
                calls.clear()
                assert quiet_run(argv) == 0, argv
                counts.setdefault(verb, []).append(len(calls))
        for verb, seq in counts.items():
            assert len(set(seq)) == 1 and seq[0] > 0, (verb, seq)


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flowcomm.cli", "canon", A_JSON],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "canonical_word" in proc.stdout

    def test_installed_script(self):
        from shutil import which

        script = which("flowcomm")
        if script is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [script, "equiv", A_JSON, GENUS2], capture_output=True, text=True
        )
        assert proc.returncode == 1
