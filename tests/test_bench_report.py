"""Smoke test of scripts/bench_report.py: its two timer scripts run on
this checkout, one rung each with small hostile inputs, so a public name
they use cannot leave the package unnoticed."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import bench_report  # noqa: E402


def test_timer():
    out = bench_report.run_timer(bench_report.TIMER, ROOT, 1, json.dumps([128]), 10**50)
    assert set(out) == {"rows", "hostile_ms", "hostile_result"}
    (row,) = out["rows"]  # the script asserts that the certificate verifies
    assert set(row) == {"p", "are_commensurable_ms", "verify_certificate_ms", "document_bytes"}
    assert row["p"] == 128 and row["document_bytes"] > 0
    # A^2 and [[0,1],[-1,7]] share trace 7, so the powers meet only at (2k, k)
    assert out["hostile_result"] == [False, "power_traces_equal"]


def test_chain_timer():
    out = bench_report.run_timer(
        bench_report.CHAIN_TIMER, ROOT, 1, json.dumps([4]), json.dumps([3, 50, 14])
    )
    assert set(out) == {"rows", "hostile_decode_ms", "hostile_verify_ms", "hostile_result"}
    (row,) = out["rows"]  # the script asserts that the chain verifies
    layers = ("almost_commensurability_chain", "encode_chain", "dumps", "decode_document",
              "verify_chain")
    assert set(row) == {"n", "document_bytes", *(f"{layer}_ms" for layer in layers)}
    assert row["n"] == 4 and row["document_bytes"] > 0
    # three random 50-digit cone orders divide no cover degree of the link
    assert out["hostile_result"] == [False, "link 0: cover_cone_points"]
