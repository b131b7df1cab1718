"""flowcomm benchmark: decide and check latency through the public CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload small-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py ... --save runs.jsonl               # keep the result

A closed loop with one client, one process and no threads drives
``flowcomm.cli.run(argv)`` in-process. Pass k of the workload (see
workloads.py) is a seeded list of decisions; every certificate a decision
emits is then verified by the checker, together with a copy that has one
field tampered. Each output is judged by the oracle in oracle.py, which
shares no code with flowcomm. Whole passes run until ``--seconds`` have
elapsed. An operation's latency is the CPU time of its thread inside
``cli.run``: the program is single-threaded and does no I/O beyond reading
the document it verifies, and on a shared host wall time adds every pause
the host's scheduler imposes, which in the tail dwarfs the program's own
time. Timings are scaled to a reference work measured in the same run
(see Reference); each raw figure is printed beside its metric.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced run of each pass and prints the per-layer metrics,
per pass, plus the tracing overhead, and writes the spans to
``.perfbench_out/``. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter, thread_time

from oracle import tamper
from tracing import Tracer
from workloads import WORKLOADS, Verify

STARTUP_SAMPLES = 21
REF_MS = 3.5
REF_INTERVAL_S = 0.05
REF_BURST = 10
REF_WINDOW = 20
# an operation still running after this long is stopped and counted failed,
# so a call that never returns cannot stall a run
OP_DEADLINE_S = 20
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
CHECKS_BETWEEN_DECISIONS = 2
IMPORT_CODE = "import sys; sys.path.insert(0, 'src'); import flowcomm.cli"


_REF_DOC = json.dumps(
    {"links": [{"m": [[str(3**i), str(5**i)], ["7", "9"]], "tag": "x" * 20} for i in range(30)]}
)
_REF_MODULUS = (1 << 521) - 1


def reference_sample():
    """Seconds for one run of fixed reference work that shares no code
    with flowcomm: an argparse parser built and used, a JSON round trip
    and big-integer modular squaring. The squaring is about 40% of it: on
    a shared machine big-integer code and interpreter-bound code slow
    down by different amounts, and this mix tracks both the argparse-bound
    small-mix and the factoring-bound wide-traces."""
    start = thread_time()
    parser = argparse.ArgumentParser(prog="reference")
    subs = parser.add_subparsers(dest="verb")
    for verb in "abcdefg":
        sub = subs.add_parser(verb, help="-")
        sub.add_argument("x")
        sub.add_argument("--y", type=int, default=3)
        sub.add_argument("--quiet", action="store_true")
    parser.parse_args(["c", "1", "--y", "4"])
    json.dumps(json.loads(_REF_DOC), indent=2, sort_keys=True)
    y = 2
    for _ in range(800):
        y = (y * y + 1) % _REF_MODULUS
    return thread_time() - start


class Reference:
    """Samples the reference work about every REF_INTERVAL_S seconds of a
    run. On a shared machine the speed can drift by a third within
    minutes, for the workloads and the reference alike; each
    operation's time is scaled by REF_MS over the median reference time of
    its window of REF_WINDOW samples (about a second), so timings read
    as milliseconds on a machine where the reference takes REF_MS."""

    def __init__(self):
        self.samples = []
        self.last = perf_counter()

    def maybe_sample(self):
        """One sample per REF_INTERVAL_S elapsed since the last ones, up to
        REF_BURST at a time, so samples stay even in time around long
        operations."""
        due = int((perf_counter() - self.last) / REF_INTERVAL_S)
        if due:
            for _ in range(min(due, REF_BURST)):
                self.samples.append(reference_sample())
            self.last = perf_counter()

    def scales(self):
        """Factor per window that turns a duration into reference time."""
        windows = [
            self.samples[i : i + REF_WINDOW] for i in range(0, len(self.samples), REF_WINDOW)
        ]
        if len(windows) > 1 and len(windows[-1]) < REF_WINDOW // 2:
            windows[-2] += windows.pop()
        return [REF_MS / (statistics.median(w) * 1e3) for w in windows]


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def startup_times(code, samples, reference):
    """Median CPU time of a fresh interpreter running code, after one
    unmeasured run that fills the bytecode cache."""
    argv = [sys.executable, "-c", code]
    subprocess.run(argv, check=True)
    times = []
    for _ in range(samples):
        start = _children_cpu()
        subprocess.run(argv, check=True)
        times.append(_children_cpu() - start)
        reference.samples.append(reference_sample())
    return statistics.median(times)


def tail(values, pct):
    """(value, percentile): the highest percentile from pct down that
    leaves at least ten samples beyond it (the median when none does),
    by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        idx = math.ceil(p / 100 * n) - 1
        if p <= pct and n - 1 - idx >= 10 or p == 50:
            return ordered[idx], p


class Deadline(BaseException):
    """Raised by SIGALRM inside an operation that ran past OP_DEADLINE_S."""


def _expire(signum, frame):
    raise Deadline


class Session:
    """The client: runs decisions and checks, judges every output.
    deadline (seconds) needs the SIGALRM handler main installs."""

    def __init__(self, cli, workdir, check_repeats, deadline=None):
        self.cli = cli
        self.deadline = deadline
        self.reference = Reference()
        self.workdir = workdir
        self.check_repeats = check_repeats
        self.latency = {"decide": [], "check": []}
        self.position = {"decide": [], "check": []}  # reference samples before each
        self.doc_bytes = []
        self.pending = deque()  # (document text, expectation) to verify
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons = {}
        self.tracer = None
        self.op_id = 0

    def _call(self, argv):
        self.op_id += 1
        if self.tracer is not None:
            self.tracer.op = self.op_id
        out, err = io.StringIO(), io.StringIO()
        exc = None
        with redirect_stdout(out), redirect_stderr(err):
            start = thread_time()
            try:
                if self.deadline:
                    signal.setitimer(signal.ITIMER_REAL, self.deadline)
                rc = self.cli.run(argv)
            except (Exception, Deadline) as error:  # a failed operation
                rc, exc = None, error
            finally:
                if self.deadline:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = thread_time() - start
        self.reference.maybe_sample()
        return rc, out.getvalue(), elapsed, exc

    def _judge(self, kind, argv, expect):
        """Run one operation; return the documents it emitted."""
        self.position[kind].append(len(self.reference.samples))
        rc, out, elapsed, exc = self._call(argv)
        self.latency[kind].append(elapsed)
        self.attempted += 1
        if isinstance(exc, Deadline):
            reason = f"{argv[0]}: timeout ({self.deadline} s)"
        elif exc is not None:
            reason = f"{argv[0]}: exception {type(exc).__name__}"
        elif rc == 3:
            reason = f"{argv[0]}: exit 3 (limit)"
        elif rc not in (0, 1):
            reason = f"{argv[0]}: exit {rc}"
        else:
            clause, docs = expect.judge(rc, out)
            if clause is None:
                return docs
            reason = f"{argv[0]}: wrong {clause}"
            self.wrong += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return []

    def _emitted(self, text, choice):
        """Queue check_repeats verifications of a document and of a copy
        with one field tampered."""
        bad, _ = tamper(text, choice)
        self.doc_bytes.append(len(text.encode()))
        jobs = ((text, Verify(text)), (bad, Verify(bad)))
        self.pending.extend(jobs * self.check_repeats)

    def _verify(self, body, expect):
        path = os.path.join(self.workdir, "doc.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(body)
        self._judge("check", ["verify", path], expect)

    def run_pass(self, ops):
        """Decide every op and check what it emits; (decide_s, check_s).
        At most CHECKS_BETWEEN_DECISIONS checks run after each decision, so
        repeated checks of one document spread over the pass."""
        before = {k: len(v) for k, v in self.latency.items()}
        for op in ops:
            for text in self._judge("decide", op.argv, op.expect):
                self._emitted(text, op.tamper)
            for _ in range(min(CHECKS_BETWEEN_DECISIONS, len(self.pending))):
                self._verify(*self.pending.popleft())
        while self.pending:
            self._verify(*self.pending.popleft())
        return tuple(sum(self.latency[k][before[k]:]) for k in ("decide", "check"))


def end_to_end(session, workload, setup):
    """Metrics in reference time (see Reference); the raw figure is noted."""
    setup_s, setup_scale = setup
    metrics = {"setup_s": (setup_s * setup_scale, "s", f"raw {setup_s:.6g} s")}
    scales = session.reference.scales()
    for kind in ("decide", "check"):
        raw = session.latency[kind]
        if not raw:
            continue
        pos = session.position[kind]
        lat = [t * scales[min(p // REF_WINDOW, len(scales) - 1)] for t, p in zip(raw, pos)]
        n = len(lat)
        value, pct = tail(lat, workload.tail[kind])
        raw_tail, _ = tail(raw, workload.tail[kind])
        metrics[f"{kind}_ops_per_s"] = (
            n / sum(lat), "1/s", f"raw {n / sum(raw):.6g} 1/s, n={n}"
        )
        metrics[f"{kind}_p50_ms"] = (
            statistics.median(lat) * 1e3, "ms", f"raw {statistics.median(raw) * 1e3:.6g} ms, n={n}"
        )
        metrics[f"{kind}_tail_ms"] = (
            value * 1e3, "ms", f"raw {raw_tail * 1e3:.6g} ms, p{pct:g}, n={n}"
        )
    if session.doc_bytes:
        metrics["doc_bytes_mean"] = (
            statistics.fmean(session.doc_bytes),
            "bytes",
            f"n={len(session.doc_bytes)}",
        )
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mib"] = (rss, "MiB", "")
    return metrics


def measure(args, workload, cli):
    """Run the workload; returns (session, metrics)."""
    workdir = os.path.join(".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    session = Session(cli, workdir, 1, OP_DEADLINE_S)
    # objects alive before the loop are the interpreter's and the
    # benchmark's; freezing them keeps full collections from scanning them
    gc.collect()
    gc.freeze()
    try:
        start = perf_counter()
        k = 0
        if not args.trace:
            while k == 0 or perf_counter() - start < args.seconds:
                session.run_pass(workload.ops(args.seed, k))
                k += 1
            return session, end_to_end(session, workload, (args.setup_s, args.setup_scale))
        tracer = Tracer()
        overhead = [0.0, 0.0]
        while k == 0 or perf_counter() - start < args.seconds:
            ops = workload.ops(args.seed, k)
            plain = session.run_pass(ops)
            session.tracer = tracer
            with tracer:
                traced = session.run_pass(ops)
            session.tracer = None
            overhead = [o + t - p for o, t, p in zip(overhead, traced, plain)]
            k += 1
        metrics = {name: (v, unit, "") for name, (v, unit) in tracer.metrics(k).items()}
        metrics["interp_floor_s"] = (args.floor_s, "s", "")
        metrics["import_s"] = (args.setup_s - args.floor_s, "s", "")
        metrics["trace_overhead.decide_s"] = (overhead[0] / k, "s", "")
        metrics["trace_overhead.check_s"] = (overhead[1] / k, "s", "")
        write_trace(args, tracer, metrics, k)
        return session, metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it


def write_trace(args, tracer, metrics, passes):
    os.makedirs(".perfbench_out", exist_ok=True)
    path = os.path.join(".perfbench_out", f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "passes": passes,
                "span_fields": ["id", "parent", "op", "name", "start", "end"],
                "spans": tracer.spans,
                "spans_dropped": tracer.dropped,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
            },
            handle,
        )
    print(f"trace written to {path} ({len(tracer.spans)} spans)")


def report(args, session, metrics):
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    if not args.trace:
        ref = statistics.median(session.reference.samples) * 1e3
        print(f"  reference work: median {ref:.4g} ms over {len(session.reference.samples)} "
              f"samples; times below are scaled to {REF_MS:g} ms")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<58} {value:>14.6g} {unit:<6} {note}")
    ratio = session.failed / session.attempted
    print(f"  {'failed_ratio':<58} {ratio:>14.6g} ratio  ({session.failed}/{session.attempted})")
    print(f"  {'wrong_verdicts':<58} {session.wrong:>14d} count")
    for reason, count in sorted(session.reasons.items()):
        print(f"    failed: {reason} x{count}")
    result = {
        "correct": session.wrong == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    if args.save:
        with open(args.save, "a", encoding="utf-8") as handle:
            row = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
            handle.write(json.dumps(dict(row, result=result)) + "\n")
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process, so peak memory stays its own."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace)] + (["--save", args.save] if args.save else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="append the result as a JSON line to this file")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "flowcomm", "cli.py")):
        print("perfbench: run from the root of a flowcomm checkout (no src/flowcomm)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGALRM, _expire)
    reference = Reference()
    args.setup_s = startup_times(IMPORT_CODE, STARTUP_SAMPLES, reference)
    args.setup_scale = REF_MS / (statistics.median(reference.samples) * 1e3)
    args.floor_s = startup_times("pass", STARTUP_SAMPLES, reference) if args.trace else 0.0
    sys.path.insert(0, os.path.abspath("src"))
    import flowcomm.cli as cli

    session, metrics = measure(args, WORKLOADS[args.workload], cli)
    report(args, session, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
