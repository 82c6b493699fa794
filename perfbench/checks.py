"""Correctness checks applied to every program run the benchmark makes.

Two kinds:
- digests: sha256 of each deterministic artifact. They must match the
  digests recorded in digests.json for the seed when it has an entry, and
  otherwise every run in one benchmark invocation must agree with the first.
  manifest.json is excluded because it records the wall-clock duration.
- seed-independent invariants: for the strategy and for each comparison
  benchmark, the final balance equals the initial balance plus the fsum of
  the ledger's net_pnl (all positions are closed at each month end); a
  sweep has one row per (alpha, lambda) point of the grid.

The artifacts are read with the csv module rather than the program's own
readers, so a change to those readers cannot hide a wrong result.
"""

import csv
import hashlib
import json
import math
import os
from typing import Dict, List, Optional

DIGESTED = ("equity.csv", "ledger.csv", "rebalance_log.json", "metrics.json",
            "regime_metrics.csv", "sweep.csv")
DIGESTED_PER_BENCHMARK = ("equity.csv", "ledger.csv")
INITIAL_BALANCE = 100_000.0
BALANCE_REL_TOL = 1e-9
SWEEP_ALPHAS = ("1.0", "1.5", "2.0", "2.5", "3.0", "3.5", "4.0", "4.5", "5.0")
SWEEP_LAMBDAS = ("0.5", "0.7", "0.8")

DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def artifact_digests(out_dir: str) -> Dict[str, str]:
    """Relative path -> sha256 for each deterministic artifact present."""
    digests = {}
    for name in DIGESTED:
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            digests[name] = sha256_file(path)
    bench_root = os.path.join(out_dir, "benchmarks")
    if os.path.isdir(bench_root):
        for bench in sorted(os.listdir(bench_root)):
            for name in DIGESTED_PER_BENCHMARK:
                path = os.path.join(bench_root, bench, name)
                if os.path.isfile(path):
                    digests[f"benchmarks/{bench}/{name}"] = sha256_file(path)
    return digests


def recorded_digests(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Digests recorded for (workload, seed), or None when there are none."""
    if not os.path.isfile(DIGESTS_FILE):
        return None
    with open(DIGESTS_FILE) as fh:
        table = json.load(fh)
    return table.get(workload, {}).get(str(seed))


def compare_digests(got: Dict[str, str], want: Dict[str, str],
                    what: str) -> List[str]:
    problems = []
    for name in sorted(set(got) | set(want)):
        if got.get(name) != want.get(name):
            problems.append(f"{name}: digest differs from {what}")
    return problems


def _read_rows(path: str) -> List[List[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def check_balance_identity(run_dir: str) -> List[str]:
    """Final balance == initial balance + fsum(ledger net_pnl), one account."""
    equity_path = os.path.join(run_dir, "equity.csv")
    ledger_path = os.path.join(run_dir, "ledger.csv")
    for path in (equity_path, ledger_path):
        if not os.path.isfile(path):
            return [f"{path}: missing"]
    equity = _read_rows(equity_path)
    ledger = _read_rows(ledger_path)
    try:
        initial = float(equity[1][1])
        final = float(equity[-1][1])
        col = ledger[0].index("net_pnl")
        total = math.fsum(float(row[col]) for row in ledger[1:])
    except (IndexError, ValueError) as exc:
        return [f"{run_dir}: unreadable equity or ledger ({exc})"]
    if initial != INITIAL_BALANCE:
        return [f"{equity_path}: initial balance {initial!r},"
                f" expected {INITIAL_BALANCE!r}"]
    gap = abs(final - (initial + total))
    if gap > BALANCE_REL_TOL * initial:
        return [f"{run_dir}: final balance {final!r} != initial + sum(net_pnl)"
                f" {initial + total!r} (gap {gap:.3g})"]
    return []


def check_backtest(out_dir: str) -> List[str]:
    problems = check_balance_identity(out_dir)
    bench_root = os.path.join(out_dir, "benchmarks")
    if os.path.isdir(bench_root):
        for bench in sorted(os.listdir(bench_root)):
            problems += check_balance_identity(os.path.join(bench_root, bench))
    return problems


def check_sweep(out_dir: str) -> List[str]:
    path = os.path.join(out_dir, "sweep.csv")
    if not os.path.isfile(path):
        return [f"{path}: missing"]
    rows = _read_rows(path)
    if not rows or rows[0][:2] != ["alpha", "lambda"]:
        return [f"{path}: expected alpha,lambda leading columns"]
    points = [tuple(row[:2]) for row in rows[1:]]
    want = [(a, lam) for a in SWEEP_ALPHAS for lam in SWEEP_LAMBDAS]
    if points != want:
        return [f"{path}: rows are not the 9 x 3 alpha x lambda grid"]
    return []


def check_outputs(command: str, out_dir: str) -> List[str]:
    """Seed-independent checks for one `backtest` or `sweep` output dir."""
    if command == "sweep":
        return check_sweep(out_dir)
    return check_backtest(out_dir)
