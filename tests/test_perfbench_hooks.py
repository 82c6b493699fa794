"""Every function the benchmark's tracer hooks exists, and a run still goes
through the ones behind the load, aggregate and write layers, so a refactor
cannot silently blank or zero its per-layer metrics (perfbench/tracer.py
reports a missing hook as an absent metric, not as a failure, and a hook
that is never called reads 0)."""

import importlib
import importlib.util
import os

from adaptivetrend.cli import main

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_hook_resolves():
    tracer = load_tracer()
    assert tracer.HOOKS
    missing = [f"{module}.{attr}" for module, attr, *_ in tracer.HOOKS
               if not callable(getattr(importlib.import_module(
                   f"{tracer.PACKAGE}.{module}"), attr, None))]
    assert missing == []


def test_a_backtest_runs_the_load_aggregate_and_write_hooks(tmp_path,
                                                            monkeypatch):
    tracer = load_tracer()
    watched = {("cli", "load_universe"), ("backtester", "union_timeline"),
               ("cli", "save_equity"), ("cli", "write_ledger")}
    trace = tracer.Trace()
    for module_name, attr, name, _kind, _after in tracer.HOOKS:
        if (module_name, attr) in watched:
            module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
            monkeypatch.setattr(module, attr,
                                trace.timed(f"{module_name}.{attr}",
                                            getattr(module, attr)))
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--seed", "3", "--symbols", "3",
                 "--regimes", "200:0.5:0.4"]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data.dir = {data}\nrun.start = 2022-02-01\n"
                   "run.end = 2022-02-20\nbenchmarks.kinds = btc_bh\n"
                   "grid.theta_entry = 0.02\ngrid.theta_entry_short = 0.02\n"
                   "grid.alpha = 2.0\ngrid.lookback = 4\n")
    assert main(["backtest", "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == 0
    called = {span[0] for span in trace.spans}
    assert called == {f"{m}.{a}" for m, a in watched}
    # strategy and benchmark: one timeline and one of each file per run
    names = [span[0] for span in trace.spans]
    assert names.count("backtester.union_timeline") == 2
    assert names.count("cli.save_equity") == names.count("cli.write_ledger") == 2
