"""Repeat the benchmark over several seeds, report its spread, record a baseline.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads a,b] [--seconds S]
                                  [--trace-seed 1] [--write]

Each (workload, seed) is one fresh `run.py --trace 0` process; then one
`--trace 1` process per workload on --trace-seed. For every end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.

With --write it stores, per workload, the summary and the traced per-layer
numbers in perfbench/baseline.json, together with the git commit, nproc and
the Python and NumPy versions, and adds the artifact digests of every seed
run to perfbench/digests.json. Workloads not run keep their entries.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".perfbench_work", "results")


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed for {workload} seed {seed}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        result["digests"] = json.load(fh)["digests"]
    return result


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values),
            "values": values}


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="seed of the traced run; omit to skip it")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary: Dict[str, dict] = {}
    digests: Dict[str, Dict[str, dict]] = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        failed = sum(r["failed"] for r in runs)
        entry = {"seeds": seeds, "ops_failed": failed,
                 "ops_total": sum(r["attempted"] for r in runs),
                 "end_to_end": {}}
        digests[workload] = {str(seed): r["digests"] for seed, r in zip(seeds, runs)
                             if r["failed"] == 0}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            print(f"SPREAD {workload} {name}: median {stats['median']:.4f}"
                  f" {stats['unit']} q1 {stats['q1']:.4f} q3 {stats['q3']:.4f}"
                  f" spread {stats['spread']:.2%} (bound {bound:.0%},"
                  f" a third {bound / 3:.2%})", flush=True)
        print(f"SPREAD {workload} ops_failed {failed}/{entry['ops_total']}",
              flush=True)
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed,
                                  "ops_failed": traced["failed"],
                                  "metrics": traced["metrics"]}
        summary[workload] = entry

    if args.write:
        path = os.path.join(HERE, "baseline.json")
        record = {"workloads": {}}
        if os.path.isfile(path):
            with open(path) as fh:
                record = json.load(fh)
        record.update({
            "commit": git_commit(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "run_seconds": args.seconds,
        })
        record["workloads"].update(summary)
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        path = os.path.join(HERE, "digests.json")
        table = {}
        if os.path.isfile(path):
            with open(path) as fh:
                table = json.load(fh)
        for workload, by_seed in digests.items():
            table.setdefault(workload, {}).update(by_seed)
        with open(path, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
