"""Benchmark for sternsums: one closed-loop caller, one thread, one process.

    python3 perfbench/run.py --workload verify-band --seed 1 --seconds 30 --trace 0

Each query is an in-process call of ``sternsums.cli.main(argv)``; the next
call starts when the previous one returns.  A pass runs the workload's
queries once, each called back to back until its calls add up to the
workload's ``MIN_QUERY_S`` (workloads.py), and takes the median call as the
query's latency; passes repeat while another fits in ``--seconds``.
Outputs are checked after each call, outside its timed interval.  Every
reported time is corrected for the host's speed (see hostspeed.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` calls every
query once, so that call counts are exact, and alternates an untraced and a
traced pass and reports per-layer call counts and self times
(see tracing.py); spans are written to perfbench/out/ at the end.
``--workload all`` runs every workload in its own process and prints all of
their metrics.  The last line of standard output is always one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, SPAN_NAMES, Tracer  # noqa: E402

SETUP_REPEATS = 7
# A query is called at most this often in one pass, however cheap it is.
MAX_CALLS = 25

# Run in a fresh interpreter: the package import and input generation, timed
# from the first statement, then corrected by kernel timings taken after.
_SETUP_PROBE = """
import time
start = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import workloads
workloads.prepare(sys.argv[2], int(sys.argv[3]))
seconds = time.perf_counter() - start
import hostspeed, statistics
kernel = statistics.median(hostspeed.kernel_seconds() for _ in range(25))
print(seconds * hostspeed.REFERENCE_S / kernel)
"""


def measure_setup(name: str, seed: int) -> list:
    """Corrected set-up seconds of SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(workloads.BENCH_DIR), name, str(seed)],
            check=True,
            stdout=subprocess.PIPE,
            text=True,
        )
        times.append(float(proc.stdout))
    return times


class Runner:
    """Runs passes over one workload's queries and keeps what they did."""

    def __init__(self, package, queries, checker, min_query_s=0.0):
        self.cli = package.cli
        self.queries = queries
        self.checker = checker
        self.min_query_s = min_query_s
        self.top_degree = max(q.degree for q in queries)
        # (pass, query id, degree, [(start, end) of each call], failed calls)
        self.records = []
        self.passes = 0
        self.failures = {}  # query label -> (count, reason)
        self.problems = []  # wrong outputs; any makes the run incorrect

    def run_pass(self, tracer=None) -> int:
        """Run every query, back to back until its calls add up to
        min_query_s or MAX_CALLS; return the pass number."""
        self.passes += 1
        for query in self.queries:
            qid = len(self.records)
            intervals, failed = [], 0
            while True:
                start, outcome = self._call(query, tracer, qid)
                intervals.append((start, start + outcome.seconds))
                failed += self._judge(query, outcome)
                spent = sum(e - s for s, e in intervals)
                if spent >= self.min_query_s or len(intervals) >= MAX_CALLS:
                    break
            self.records.append((self.passes, qid, query.degree, intervals, failed))
        return self.passes

    def _judge(self, query, outcome) -> bool:
        """Check one call's output; True if the call failed."""
        try:
            failed, problem = self.checker.check(query, outcome)
        except (ValueError, KeyError, TypeError) as exc:
            failed, problem = True, f"unreadable output: {exc!r}"
        if failed:
            reason = problem or "int-to-str digit limit (known defect)"
            count, _ = self.failures.get(query.label, (0, reason))
            self.failures[query.label] = (count + 1, reason)
        if problem:
            self.problems.append(f"{query.label}: {problem}")
        return failed

    def _call(self, query, tracer, qid) -> tuple:
        """(start time, outcome) of one in-process CLI call."""
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.query = qid
        with tracer or nullcontext(), redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(query.argv))
            except Exception:  # a crash is recorded as a failed query
                traceback.print_exc()
                code = -1
            seconds = time.perf_counter() - start
        return start, workloads.Outcome(code, out.getvalue(), err.getvalue(), seconds)


def percentile(values: list, p: float) -> float:
    """Percentile interpolated between the closest ranks, as numpy's default."""
    ordered = sorted(values)
    pos = p * (len(ordered) - 1)
    lo, frac = int(pos), pos - int(pos)
    if not frac or ordered[lo] == math.inf:
        return ordered[lo]
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * frac


def run_budget(seconds: float, one_round) -> None:
    """Call one_round at least once, then again while another round fits."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return


def pass_totals(runner: Runner, times: dict, top_only: bool = False) -> dict:
    """Pass number -> summed corrected time of its (top-degree) queries."""
    totals = {}
    for p, qid, degree, *_ in runner.records:
        if not top_only or degree == runner.top_degree:
            totals[p] = totals.get(p, 0.0) + times[qid]
    return totals


def end_to_end_metrics(runner: Runner, times: dict, setup_times: list) -> dict:
    """times: query id -> corrected seconds of its median call.

    A query counts once here however often it was called; a query with a
    failed call is failed.
    """
    timed = sum(times.values())
    # A failed query never answered: it ranks after every answered one, and
    # a percentile that lands on it reads as the whole timed phase.
    lat = [math.inf if failed else times[qid] for _, qid, *_, failed in runner.records]
    attempted = len(runner.records)
    answered = sum(not failed for *_, failed in runner.records)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (statistics.median(pass_totals(runner, times).values()), "s"),
        "top_degree_s": (statistics.median(pass_totals(runner, times, True).values()), "s"),
        "queries_per_s": (answered / timed, "1/s"),
        "query_p50_s": (min(percentile(lat, 0.5), timed), "s"),
        "query_p90_s": (min(percentile(lat, 0.9), timed), "s"),
        "ok_frac": (answered / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(runner: Runner, tracer: Tracer, times: dict, traced_passes: set) -> dict:
    """Per-layer counts and corrected self times, per traced pass."""
    # traced runs call every query once
    scales = {qid: times[qid] / (end - start) for _, qid, _, [(start, end)], _ in runner.records}
    calls, self_s, per_query = tracer.layer_totals(scales)
    n = len(traced_passes)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name] // n, "count")
        metrics[f"{name}.self_s"] = (self_s[name] / n, "s")
    for mod, fns in LAYERS.items():
        metrics[f"{mod}.self_s"] = (sum(self_s[f"{mod}.{fn}"] for fn in fns) / n, "s")

    degrees = {qid: d for p, qid, d, *_ in runner.records if p in traced_passes}

    def per(name, subset, weight=lambda d: 1):
        denom = sum(weight(degrees[q]) for q in subset)
        return sum(per_query[q, name] for q in subset) / denom if denom else 0.0

    ids = list(degrees)
    odd = [q for q in ids if degrees[q] % 2]
    even = [q for q in ids if not degrees[q] % 2]
    for name in ("forms.phi_matrix", "forms.sym_quotient", "linalg.minpoly"):
        metrics[f"{name}.calls_per_degree"] = (per(name, ids), "count")
    metrics["linalg.charpoly.calls_per_odd_degree"] = (per("linalg.charpoly", odd), "count")
    metrics["linalg.charpoly.calls_per_even_degree"] = (per("linalg.charpoly", even), "count")
    for name in ("recurrences.fit_recurrence", "linalg.solve_linear"):
        # a degree-d query covers d // 2 + 1 monomial classes
        metrics[f"{name}.calls_per_class"] = (per(name, ids, lambda d: d // 2 + 1), "count")
    totals = pass_totals(runner, times)
    traced = statistics.median(t for p, t in totals.items() if p in traced_passes)
    untraced = statistics.median(t for p, t in totals.items() if p not in traced_passes)
    metrics["trace.overhead_frac"] = (traced / untraced - 1, "ratio")
    return metrics


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }


def run_workload(args) -> int:
    try:
        package = workloads.import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    min_query_s = 0.0 if args.trace else workloads.MIN_QUERY_S[args.workload]
    runner = Runner(package, *workloads.prepare(args.workload, args.seed), min_query_s)
    tracer = Tracer(package) if args.trace else None
    traced_passes = set()

    def one_round():
        runner.run_pass()
        if tracer is not None:
            traced_passes.add(runner.run_pass(tracer))

    with hostspeed.HostSpeed() as speed:
        run_budget(args.seconds, one_round)
    times = {
        qid: statistics.median(speed.correct(start, end) for start, end in intervals)
        for _, qid, _, intervals, _ in runner.records
    }
    if tracer is not None:
        metrics = per_layer_metrics(runner, tracer, times, traced_passes)
        out_dir = workloads.BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end_metrics(runner, times, setup_times)

    calls = [c for *_, intervals, _ in runner.records for c in intervals]
    raw = sum(end - start for start, end in calls)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{runner.passes} passes of {len(runner.queries)} queries, {len(calls)} calls")
    print("environment: " + json.dumps(environment()))
    print(f"host speed: reference kernel median {speed.median_kernel_s() * 1e3:.4f} ms, "
          f"corrected to {hostspeed.REFERENCE_S * 1e3:g} ms; calls took {raw:.3f} s "
          f"of wall time; the queries' median calls sum to {sum(times.values()):.3f} s "
          f"corrected")
    for label, (count, reason) in sorted(runner.failures.items()):
        print(f"FAILED x{count}: {label[:120]}: {reason}")
    for problem in runner.problems:
        print(f"WRONG: {problem[:300]}")
    if tracer is not None:
        shares = sorted(((metrics[f"{n}.self_s"][0], n) for n in SPAN_NAMES), reverse=True)
        whole = sum(v for v, _ in shares) or 1.0
        for v, name in shares[:5]:
            print(f"self-time share {name}: {v / whole:.3f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not runner.problems,
        "attempted": len(calls),
        "failed": sum(failed for *_, failed in runner.records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; their lines, then one summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
