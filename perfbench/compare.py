"""Compare two sets of benchmark runs, or summarize one.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py --summary RUNS.jsonl

Each file holds the JSON lines that ``run.py --save`` appends. Runs are
paired by workload and seed. For every workload and metric the comparison
prints one row: improved, unchanged, worse or unresolved, under this rule:

- improved: the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ, in the better direction, by more
  than the distance between the parent's quartiles;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json (per-layer metrics have no bound: they
  are worse by the mirror of the improved rule);
- unresolved: not worse, but the parent's own spread (quartile distance
  over median) is wider than the bound, and not every run of the change
  reads better than every run of the parent;
- unchanged: otherwise.

Every ratio is printed with its base: the parent median it divides by.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return metrics


def load_runs(path):
    """{workload: {seed: {metric: value}}}"""
    runs = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                row = json.loads(line)
                values = {k: v["value"] for k, v in row["result"]["metrics"].items()}
                runs.setdefault(row["workload"], {}).setdefault(row["seed"], {}).update(values)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def better(a, b, direction):
    """a reads better than b."""
    return a < b if direction == "lower" else a > b


def classify(parent, change, direction, bound):
    """Verdict for paired lists of values, plus the figures behind it."""
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    gain = mp - mc if direction == "lower" else mc - mp
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    losses = sum(better(p, c, direction) for p, c in pairs)
    spread = iqr / abs(mp) if mp else float("inf") if iqr else 0.0
    figures = {"parent": mp, "change": mc, "iqr": iqr, "wins": wins, "losses": losses,
               "pairs": len(pairs), "gain": gain}
    if wins >= 0.9 * len(pairs) and gain > iqr:
        return "improved", figures
    if bound is None:
        if losses >= 0.9 * len(pairs) and -gain > iqr:
            return "worse", figures
        return "unchanged", figures
    if -gain > bound * abs(mp):
        return "worse", figures
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", figures
    return "unchanged", figures


def pct(x, base):
    return f"{100 * x / base:+.2f}%" if base else "n/a"


def compare(parent_path, change_path, out=sys.stdout):
    spec = load_spec()
    parent, change = load_runs(parent_path), load_runs(change_path)
    verdicts = {}
    print(f"{'workload':<12} {'metric':<56} {'verdict':<10} detail", file=out)
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        for metric, (direction, bound) in spec.items():
            rows = [(parent[workload][s].get(metric), change[workload][s].get(metric)) for s in seeds]
            rows = [(p, c) for p, c in rows if p is not None and c is not None]
            if not rows:
                continue
            verdict, f = classify([p for p, _ in rows], [c for _, c in rows], direction, bound)
            verdicts[(workload, metric)] = verdict
            detail = (
                f"change median {f['change']:.6g} vs parent median {f['parent']:.6g}: "
                f"{pct(f['change'] - f['parent'], f['parent'])} of parent median; "
                f"change better in {f['wins']}/{f['pairs']} pairs, worse in "
                f"{f['losses']}/{f['pairs']}; parent quartile distance {f['iqr']:.6g} "
                f"({pct(f['iqr'], f['parent'])} of parent median)"
            )
            if bound is not None:
                detail += f"; bound {100 * bound:g}% of parent median, {direction} is better"
            print(f"{workload:<12} {metric:<56} {verdict:<10} {detail}", file=out)
    return verdicts


def summary(path, out=sys.stdout):
    """Median, quartiles and spread of every metric, per workload; flags an
    end-to-end spread at or above a third of its bound."""
    spec = load_spec()
    runs = load_runs(path)
    print(f"{'workload':<12} {'metric':<56} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} spread", file=out)
    for workload in sorted(runs):
        by_seed = runs[workload]
        for metric, (_, bound) in spec.items():
            values = [v[metric] for v in by_seed.values() if metric in v]
            if not values:
                continue
            med = statistics.median(values)
            q1, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            flag = ""
            if bound is not None:
                flag = f"  bound {bound:g}" + ("  <-- above bound/3" if spread >= bound / 3 else "")
            print(
                f"{workload:<12} {metric:<56} {len(values):>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                f"{spread:.4f}{flag}",
                file=out,
            )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--summary", action="store_true", help="summarize one set of runs")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    if args.summary:
        for path in args.files:
            summary(path)
        return 0
    if len(args.files) != 2:
        parser.error("compare needs PARENT.jsonl and CHANGE.jsonl")
    compare(*args.files)
    return 0


if __name__ == "__main__":
    sys.exit(main())
