"""Before/after report of a verifier change: library timings of the
A^p against A^(p-1) ladder and of a hostile-power document, plus the
perfbench comparison of interleaved parent/change runs, as one JSON file.

    python3 scripts/bench_report.py --parent PARENT_CHECKOUT --change CHANGE_CHECKOUT \\
        --runs PARENT.jsonl CHANGE.jsonl [--fresh PARENT.jsonl CHANGE.jsonl] \\
        [--trace PARENT.jsonl CHANGE.jsonl] --describe TEXT --hardware TEXT \\
        --claimed TEXT -o BENCH.json

A checkout is a directory holding src/flowcomm and perfbench/. Each
checkout's library is timed in its own interpreter, while nothing else
runs. The .jsonl files are what `perfbench/run.py --save` appends:
--runs holds the interleaved pairs (one line per workload and seed),
--fresh the pairs of a seed not used while building the change, --trace
one `--trace 1` run per side. The classification is perfbench/compare.py's,
with the change checkout's BENCHMARK.json bounds.
"""

import argparse
import json
import os
import subprocess
import sys

LADDER = (128, 300, 600, 869, 1024, 2048, 4096, 8192)
HOSTILE = 10**4000

# run inside each checkout's interpreter; prints one JSON object
TIMER = r"""
import json, sys, time
sys.path.insert(0, "src")
from flowcomm import (
    CommensurabilityCertificate, ComputationLimit, Mat2, are_commensurable, verify_certificate,
)

repeats, ladder, hostile = int(sys.argv[1]), json.loads(sys.argv[2]), int(sys.argv[3])

REFUSED = "exit 3 (ComputationLimit)"

# least time in ms over the repeats, and the result (REFUSED when the
# call raised ComputationLimit)
def best(call):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        try:
            out = call()
        except ComputationLimit:
            out = REFUSED
        times.append(time.perf_counter() - start)
    return round(min(times) * 1e3, 3), out

# A^n by square-and-multiply of plain-integer tuples, so that the ladder
# is built the same way in every checkout
def mul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])

def power(n, m=(2, 1, 1, 1)):
    out = (1, 0, 0, 1)
    while n:
        if n & 1:
            out = mul(out, m)
        m, n = mul(m, m), n >> 1
    return Mat2(*out)

a = power(1)
rows = []
for p in ladder:
    x, y = power(p), power(p - 1)
    decide_ms, verdict = best(lambda: are_commensurable(x, y))
    if verdict == REFUSED:  # no certificate to verify
        rows.append({"p": p, "are_commensurable_ms": REFUSED, "verify_certificate_ms": REFUSED})
        continue
    verify_ms, clause = best(lambda: verify_certificate(verdict.certificate))
    assert clause == (True, "ok"), clause
    rows.append({"p": p, "are_commensurable_ms": decide_ms, "verify_certificate_ms": verify_ms})
cert = are_commensurable(a, Mat2(0, 1, -1, 7)).certificate
# through the constructor, which every checkout's certificate takes by name
doc = CommensurabilityCertificate(
    base_a=cert.base_a, base_b=cert.base_b, power_a=hostile + 1, power_b=hostile,
    intertwiner=cert.intertwiner, intertwiner_det=cert.intertwiner_det,
    sublattice=cert.sublattice, stabilization=cert.stabilization,
    index_over_a=cert.index_over_a, index_over_b=cert.index_over_b,
)
hostile_ms, result = best(lambda: verify_certificate(doc))
print(json.dumps({"rows": rows, "hostile_ms": hostile_ms, "hostile_result": result}))
"""


def time_checkout(checkout, repeats):
    proc = subprocess.run(
        [sys.executable, "-c", TIMER, str(repeats), json.dumps(LADDER), str(HOSTILE)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def functions(parent_dir, change_dir):
    parent, change = time_checkout(parent_dir, 3), time_checkout(change_dir, 5)
    rows = []
    for p_row, c_row in zip(parent["rows"], change["rows"]):
        rows.append({
            "p": p_row["p"],
            "parent_are_commensurable_ms": p_row["are_commensurable_ms"],
            "change_are_commensurable_ms": c_row["are_commensurable_ms"],
            "parent_verify_certificate_ms": p_row["verify_certificate_ms"],
            "change_verify_certificate_ms": c_row["verify_certificate_ms"],
        })
    return {
        "what": "are_commensurable(A^p, A^(p-1)) and verify_certificate of its certificate, "
                "A = [[2,1],[1,1]], called in-process through the library",
        "how": "time.perf_counter around each call, best of 3 runs for the parent and of 5 "
               "for the change, while no benchmark ran; the parent refuses p >= 870 with "
               "ComputationLimit (CLI exit 3), before forming any power",
        "rows": rows,
        "hostile_document": {
            "what": "the are_commensurable(A, [[0,1],[-1,7]]) certificate with power_a = "
                    "10^4000 + 1 and power_b = 10^4000, through verify_certificate",
            "parent_ms": parent["hostile_ms"],
            "parent_result": parent["hostile_result"],
            "change_ms": change["hostile_ms"],
            "change_result": change["hostile_result"],
        },
    }


def load_compare(change_dir):
    sys.path.insert(0, os.path.join(change_dir, "perfbench"))
    import compare

    return compare


def benchmark(compare, parent_path, change_path):
    spec = compare.load_spec()
    parent, change = compare.load_runs(parent_path), compare.load_runs(change_path)
    with open(os.path.join(compare.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        end_to_end = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    rows = []
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        for metric, spec_row in end_to_end.items():
            direction, bound = spec[metric]
            values = [(parent[workload][s][metric], change[workload][s][metric]) for s in seeds]
            verdict, f = compare.classify([p for p, _ in values], [c for _, c in values],
                                          direction, bound)
            rows.append({
                "workload": workload, "metric": metric, "unit": spec_row["unit"],
                "better": direction, "verdict": verdict,
                "parent_median": round(f["parent"], 6), "change_median": round(f["change"], 6),
                "change_vs_parent": compare.pct(f["change"] - f["parent"], f["parent"]),
                "parent_quartile_distance": round(f["iqr"], 6),
                "change_better_pairs": f["wins"], "change_worse_pairs": f["losses"],
                "pairs": f["pairs"], "bound": bound,
            })
    return rows


def each_run(path, metrics):
    """The named metrics of every saved line, in file order (load_runs
    would keep one run per seed)."""
    with open(path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    return [
        {"workload": row["workload"], "seed": row["seed"],
         **{m: row["result"]["metrics"][m]["value"] for m in metrics}}
        for row in rows
    ]


def trace(compare, parent_path, change_path):
    picked = ("interp_floor_s", "import_s",
              "cli.run.total_s", "cli.run.self_s", "commensurability.are_commensurable.total_s",
              "commensurability.find_intertwiner.total_s",
              "commensurability.verify_certificate.calls",
              "commensurability.verify_certificate.total_s",
              "commensurability.verify_certificate.self_s", "linalg.mat_mul.calls")
    out = {}
    for side, path in (("parent", parent_path), ("change", change_path)):
        ((workload, by_seed),) = compare.load_runs(path).items()
        (values,) = by_seed.values()
        out["workload"] = workload
        out[side] = {m: round(values[m], 5) for m in picked if m in values}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--runs", nargs=2, required=True)
    parser.add_argument("--fresh", nargs=2)
    parser.add_argument("--trace", nargs=2)
    parser.add_argument("--describe", required=True, help="what the change does")
    parser.add_argument("--hardware", required=True, help="machine and interpreter")
    parser.add_argument("--claimed", required=True, help="the claimed workload and metric")
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args(argv)
    compare = load_compare(args.change)
    report = {
        "change": args.describe,
        "hardware": args.hardware,
        "functions": functions(args.parent, args.change),
        "benchmark": {
            "what": "perfbench/run.py --workload W --seconds 30 --trace 0 for each workload "
                    "W, one run per seed and side, parent and change alternately (the parent "
                    "first on odd seeds), classified by perfbench/compare.py",
            "claimed": args.claimed,
            "rows": benchmark(compare, *args.runs),
        },
    }
    if args.fresh:
        fresh_rows = benchmark(compare, *args.fresh)
        shown = list(dict.fromkeys(row["metric"] for row in fresh_rows))
        report["benchmark"]["fresh_seed"] = {
            "what": "runs on seeds not used while building the change, classified as above, "
                    "and the end-to-end metrics of every run in file order",
            "rows": fresh_rows,
            "parent": each_run(args.fresh[0], shown),
            "change": each_run(args.fresh[1], shown),
        }
    if args.trace:
        traced = trace(compare, *args.trace)
        report["trace"] = {
            "what": f"perfbench/run.py --workload {traced.pop('workload')} --seconds 30 "
                    "--trace 1, one run per side; per-pass figures (seconds are per pass of "
                    "the workload), and setup_s split into interpreter floor and import (raw "
                    "CPU seconds, not scaled)",
            **traced,
        }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print(f"wrote {args.output}: {len(report['benchmark']['rows'])} benchmark rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
