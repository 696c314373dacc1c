"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/baseline.py --seeds 1 10 [--workload W ...] [--traced]
                                  [--compare OLD.json] [--write NEW.json]

Runs ``run.py`` once per seed and workload, one run at a time, from the
repository root.  For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json.  ``--compare`` checks that no median is
worse than an earlier summary's by more than the bound.  ``--traced`` adds
one traced run per workload.  ``--write`` stores the summary with the
environment it was measured in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def worse_by(old: float, new: float, better: str) -> float:
    """How much worse new is than old, as a share of old (negative: better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"))
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--compare", type=Path)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.seeds[0], args.seeds[1] + 1)
    old = json.loads(args.compare.read_text()) if args.compare else None

    summary = {
        "environment": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "int_max_str_digits": sys.get_int_max_str_digits(),
        },
        "run_seconds": spec["run_seconds"],
        "seeds": [seeds[0], seeds[-1]],
        "workloads": {},
    }
    ok = True
    for name in names:
        results = [run_once(name, s, spec["run_seconds"], 0) for s in seeds]
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {},
        }
        ok &= entry["correct"]
        print(f"{name}: correct {entry['correct']}, failed {entry['failed']}")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            stats = summarise([r["metrics"][key]["value"] for r in results])
            entry["end_to_end"][key] = stats
            line = (f"  {key:14} median {stats['median']:.6g} {metric['unit']}  "
                    f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                    f"spread {stats['spread']:.4f} (bound {bound}, third {bound / 3:.4f})")
            if key != "setup_s" and stats["spread"] > bound:
                line += "  SPREAD OVER BOUND"
                ok = False
            if old is not None:
                before = old["workloads"][name]["end_to_end"][key]["median"]
                drift = worse_by(before, stats["median"], metric["better"])
                line += f"  vs earlier {drift:+.4f}"
                if drift > bound:
                    line += "  WORSE THAN BOUND"
                    ok = False
            print(line, flush=True)
        if args.traced:
            traced = run_once(name, seeds[0], spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][name] = entry
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
