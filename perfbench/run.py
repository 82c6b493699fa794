"""Benchmark of the adaptivetrend backtester, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all` to run each in turn.
The universe for (workload, seed) is generated before anything is timed and
kept under .perfbench_work/ for reuse. Every program run is a fresh process
of the real CLI with PYTHONPATH pointing at this checkout's src/, at
--jobs 1 unless stated.

--trace 0 measures end-to-end metrics with tracing off:
  run_s        time of one `backtest`/`sweep` process, spawn to exit
  setup_s      time of a process that imports the package, resolves the
               workload config and runs cli.load_universe, then exits
  peak_rss_mb  peak RSS of the run process, from wait4
The two times are the process's CPU time rescaled to a fixed CPU speed by
speed.py: every process runs pinned to one CPU beside a probe that measures
how fast that CPU is running, because on a shared host the wall time of the
same run moves by half or more with the neighbours' load. Wall medians are
printed beside them. Set-up and run samples alternate until S seconds have
passed, with at least 1 run and at least 3 set-ups (more for a quick set-up,
up to 5 s of them); each metric is the median of its samples.

--trace 1 makes one untraced run, one run under tracer.py and one traced run
at --jobs 2, and reports the per-layer metrics of tracer.LAYER_METRICS.

Every program run is checked (see checks.py); `attempted` counts program
processes and `failed` those that exited non-zero or failed a check. The
last line of output is one JSON object with keys correct, attempted, failed
and metrics. Without the package sources next to this directory the
benchmark exits with status 2 and prints no result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import checks
import speed
import tracer
from workloads import WORKLOADS, Workload, ensure_universe, write_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

E2E_METRICS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Set-up samples: at least MIN_SETUPS, and more while they add up to less
# than SETUP_SECONDS, since a half-second process is noisy on a shared box.
MIN_SETUPS = 3
MAX_SETUPS = 15
SETUP_SECONDS = 5.0
# One invocation must end within 180 s; program processes still running at
# this many seconds after the start are killed and counted as failed.
TIME_LIMIT_S = 170.0


@dataclass
class Proc:
    wall: float
    exit_code: int
    rss_mb: float
    log: str
    cpu_s: float  # user + system time of the process
    started: float  # time.monotonic() at spawn and at exit
    ended: float


@dataclass
class Session:
    """State of one workload measurement: inputs, deadline and op tally."""

    workload: Workload
    seconds: float
    config: str
    env: Dict[str, str]
    deadline: float
    reference: Optional[Dict[str, str]]
    reference_source: str
    tamper: Optional[Callable[[str], None]] = None
    stop: float = 0.0  # end of the measuring time, set when measuring starts
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, what: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: List[str], env: Dict[str, str], log_path: str,
          deadline: float) -> Proc:
    """Run argv to completion in its own process group and time it.

    The wall time spans spawn to reaped exit. Anything left in the group
    afterwards (pool workers of a crashed run) is killed and waited for.
    """
    with open(log_path, "wb") as log:
        started = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - t0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    with open(log_path, errors="replace") as fh:
        text = fh.read()
    return Proc(wall, proc.returncode, usage.ru_maxrss / 1024.0, text,
                usage.ru_utime + usage.ru_stime, started, ended)


def _exit_problems(proc: Proc) -> List[str]:
    if proc.exit_code == 0:
        return []
    tail = " | ".join(proc.log.strip().splitlines()[-3:])
    return [f"exit code {proc.exit_code}: {tail}"]


def run_setup(s: Session, tag: str) -> Proc:
    log = os.path.join(WORK_DIR, f"{s.workload.name}-{tag}.log")
    proc = spawn([sys.executable, os.path.join(HERE, "probe_setup.py"), s.config],
                 s.env, log, s.deadline)
    problems = _exit_problems(proc)
    u = s.workload.universe
    want = f"symbols={u.symbols} bars={u.symbols * u.bars}"
    if not problems and want not in proc.log:
        problems.append(f"expected '{want}' from the probe, got {proc.log.strip()!r}")
    s.record(f"setup {tag}", problems)
    return proc


def run_program(s: Session, tag: str, jobs: int = 1,
                trace_path: Optional[str] = None) -> Tuple[Proc, str]:
    """One CLI process on the workload; its artifacts are checked."""
    out_dir = os.path.join(WORK_DIR, "runs", s.workload.name, tag)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(os.path.dirname(out_dir), exist_ok=True)
    args = list(s.workload.command) + ["--config", s.config, "--out", out_dir,
                                       "--jobs", str(jobs)]
    if trace_path is None:
        argv = [sys.executable, "-m", "adaptivetrend.cli"] + args
    else:
        argv = [sys.executable, os.path.join(HERE, "tracer.py"), trace_path] + args
    proc = spawn(argv, s.env, out_dir + ".log", s.deadline)
    problems = _exit_problems(proc)
    if not problems:
        if s.tamper is not None:
            s.tamper(out_dir)
        digests = checks.artifact_digests(out_dir)
        if s.reference is None:
            s.reference = digests
            s.reference_source = "the first run of this invocation"
        problems += checks.compare_digests(digests, s.reference, s.reference_source)
        problems += checks.check_outputs(s.workload.command[0], out_dir)
    s.record(f"run {tag}", problems)
    return proc, out_dir


def _fits(s: Session, runs: List[Proc]) -> bool:
    now = time.perf_counter()
    if not runs:
        return True
    expected = statistics.mean(p.wall for p in runs)
    return now + expected <= min(s.stop, s.deadline)


def measure_end_to_end(s: Session) -> Dict[str, dict]:
    setups: List[Proc] = []
    runs: List[Proc] = []
    with speed.Probe() as probe:
        s.stop = time.perf_counter() + s.seconds
        while True:
            progressed = False
            if len(setups) < MIN_SETUPS or (
                    len(setups) < MAX_SETUPS
                    and sum(p.wall for p in setups) < SETUP_SECONDS):
                setups.append(run_setup(s, f"setup{len(setups)}"))
                progressed = True
            if _fits(s, runs):
                runs.append(run_program(s, f"run{len(runs)}")[0])
                progressed = True
            if not progressed:
                break
    run_times = [probe.normalise(p.started, p.ended, p.cpu_s) for p in runs]
    setup_times = [probe.normalise(p.started, p.ended, p.cpu_s) for p in setups]
    values = {
        "run_s": statistics.median(run_times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(p.rss_mb for p in runs),
    }
    print(f"run_s        {values['run_s']:.4f} s   median of n={len(runs)};"
          f" max {max(run_times):.4f} s; no percentile above the median has 10"
          f" samples beyond it at n={len(runs)}; CPU median"
          f" {statistics.median(p.cpu_s for p in runs):.4f} s, wall median"
          f" {statistics.median(p.wall for p in runs):.4f} s on CPU {probe.cpu}")
    print(f"setup_s      {values['setup_s']:.4f} s   median of n={len(setups)};"
          f" wall median {statistics.median(p.wall for p in setups):.4f} s")
    print(f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB  median of n={len(runs)}")
    return {k: {"value": v, "unit": E2E_METRICS[k]} for k, v in values.items()}


def _bytes_under(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _load_trace(path: str) -> Optional[dict]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def measure_layers(s: Session) -> Dict[str, dict]:
    trace_dir = os.path.join(WORK_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    untraced, _ = run_program(s, "untraced")
    paths = {tag: os.path.join(trace_dir, f"{s.workload.name}-{tag}.json")
             for tag in ("traced", "jobs2")}
    for path in paths.values():
        if os.path.exists(path):
            os.remove(path)
    traced, traced_out = run_program(s, "traced", trace_path=paths["traced"])
    run_program(s, "jobs2", jobs=2, trace_path=paths["jobs2"])
    trace, jobs2 = _load_trace(paths["traced"]), _load_trace(paths["jobs2"])
    if trace is None or jobs2 is None:
        metrics = {name: {"value": None, "unit": unit, "absent": True}
                   for name, (unit, _) in tracer.LAYER_METRICS.items()}
    else:
        metrics = tracer.layer_metrics(trace, jobs2, traced.wall, untraced.wall,
                                       _bytes_under(traced_out))
        for name in trace["missing"]:
            print(f"hook {name}: not found; metrics that need it are absent")
    for name, m in metrics.items():
        shown = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:34s} {shown} {m['unit']}")
    wall = metrics["trace.wall_s"]["value"]
    layers = ("market_data.load_s", "rebalancer.s", "benchmarks.s",
              "signal_engine.month_sim_s", "analytics.metrics_s", "cli.write_s")
    shares = {n: metrics[n]["value"] / wall for n in layers
              if wall and metrics[n]["value"] is not None}
    if shares:
        print("share of traced wall time: " + ", ".join(
            f"{n} {v:.1%}" for n, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    return metrics


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def bench_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                   tamper: Optional[Callable[[str], None]] = None) -> dict:
    """Measure one workload; returns the result object for the last line."""
    start = time.perf_counter()
    os.makedirs(WORK_DIR, exist_ok=True)
    data_dir, generated = ensure_universe(WORK_DIR, workload.universe, seed)
    config = write_config(WORK_DIR, workload, data_dir)
    reference = checks.recorded_digests(workload.name, seed)
    source = f"digests.json for seed {seed}" if reference else ""
    s = Session(workload, seconds, config, program_env(),
                start + TIME_LIMIT_S, reference, source, tamper)
    u = workload.universe
    print(f"== {workload.name} seed {seed} trace {int(trace)}: {u.symbols} symbols"
          f" x {u.bars} bars every {u.interval} s, universe"
          f" {'generated' if generated else 'reused'} in"
          f" {time.perf_counter() - start:.2f} s (not timed)")
    metrics = measure_layers(s) if trace else measure_end_to_end(s)
    print(f"ops_failed   {s.failed}/{s.attempted} count  (ops_total"
          f" {s.attempted}; digests compared with"
          f" {s.reference_source or 'nothing: no run succeeded'})")
    for problem in s.problems:
        print(f"FAILED {problem}")
    result = {"correct": s.failed == 0, "attempted": s.attempted,
              "failed": s.failed, "metrics": metrics}
    _save_record(workload.name, seed, trace, result, s.reference)
    return result


def _save_record(name: str, seed: int, trace: bool, result: dict,
                 digests: Optional[Dict[str, str]]) -> None:
    """Keep the result and the artifact digests for tools that collect runs."""
    out = os.path.join(WORK_DIR, "results")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"{name}-seed{seed}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump(dict(result, digests=digests), fh, indent=1, sort_keys=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "adaptivetrend", "cli.py")):
        print(f"error: no adaptivetrend sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: bench_workload(WORKLOADS[name], args.seed, args.seconds,
                                    bool(args.trace)) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
