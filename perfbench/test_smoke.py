"""Smoke test of the benchmark itself, on shrunken workloads.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload is cut to 5 symbols, 90 days of bars and one rebalance, so
the whole file runs in well under a minute. The checks: every metric that
BENCHMARK.json declares is reported and printed with its unit, a traced
function that no longer exists makes its metrics absent, a tampered
ledger.csv is counted in `failed`, and the benchmark refuses to run without
the package sources. The speed probe pins and unpins this process and
stops its own process.
"""

import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import speed
import tracer
from workloads import WORKLOADS, Universe

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def shrink(name: str) -> run.Workload:
    workload = WORKLOADS[name]
    u = workload.universe
    bars_per_regime = 30 * 86_400 // u.interval
    small = Universe(5, u.interval, tuple((bars_per_regime, mu, vol)
                                          for _, mu, vol in u.regimes))
    config = dict(workload.config, **{"run.end": "2022-02-28"})
    return dataclasses.replace(workload, name=f"{name}-smoke", universe=small,
                               config=config)


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_declarations_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert declared("end_to_end") == run.E2E_METRICS
    assert declared("per_layer") == {k: unit for k, (unit, _)
                                     in tracer.LAYER_METRICS.items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_its_unit(name, trace, capsys):
    result = run.bench_workload(shrink(name), seed=3, seconds=0.1, trace=trace)
    printed = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0, printed
    assert result["attempted"] >= (3 if trace else 4)
    want = declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(want)
    for metric, unit in want.items():
        assert result["metrics"][metric]["unit"] == unit
        assert isinstance(result["metrics"][metric]["value"], (int, float))
        line = next(ln for ln in printed.splitlines() if ln.startswith(metric + " "))
        assert f" {unit}" in line, line


def test_a_removed_function_makes_its_metrics_absent(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(run.ROOT, "src"))
    for module_name, attr, *_ in tracer.HOOKS:
        # Registered so that teardown undoes the wrappers install() sets.
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        monkeypatch.setattr(module, attr, getattr(module, attr))
    rebalancer = importlib.import_module(f"{tracer.PACKAGE}.rebalancer")
    monkeypatch.delattr(rebalancer, "evaluate_cell")
    trace = tracer.Trace()
    tracer.install(trace)
    assert trace.missing == ["rebalancer.evaluate_cell"]
    metrics = tracer.layer_metrics(trace.to_json(), trace.to_json(), 1.0, 1.0, 0)
    absent = {name for name, m in metrics.items() if m["value"] is None}
    assert absent == {"rebalancer.cells", "rebalancer.cells_per_s",
                      "rebalancer.usable_cell_ratio",
                      "rebalancer.distinct_cell_ratio"}
    assert all(metrics[name].get("absent") for name in absent)


def test_speed_probe_pins_and_stops():
    before = os.sched_getaffinity(0)
    with speed.Probe() as probe:
        assert os.sched_getaffinity(0) == {probe.cpu}
        start = time.monotonic()
        time.sleep(0.3)
        end = time.monotonic()
    assert os.sched_getaffinity(0) == before
    assert probe._proc.returncode is not None
    assert len(probe.samples) >= 5
    one = probe.normalise(start, end, 1.0)
    assert one > 0
    assert probe.normalise(start, end, 2.0) == pytest.approx(2 * one)


def _tamper_ledger(out_dir: str) -> None:
    path = os.path.join(out_dir, "ledger.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    col = header.index("net_pnl")
    row[col] = repr(float(row[col]) + 1.0)
    lines[1] = ",".join(row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_tampered_ledger_is_counted_as_failed(capsys):
    result = run.bench_workload(shrink("grid_small"), seed=3, seconds=0.1,
                                trace=False, tamper=_tamper_ledger)
    printed = capsys.readouterr().out
    failed_runs = {ln.split(":")[0] for ln in printed.splitlines()
                   if ln.startswith("FAILED ")}
    assert not result["correct"]
    assert result["failed"] >= 1
    assert failed_runs == {f"FAILED run run{i}" for i in range(result["failed"])}
    assert "initial + sum(net_pnl)" in printed


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
