"""Every function the benchmark's tracer hooks exists, and a run still goes
through the ones behind the load, rebalance, aggregate and write layers, so
a refactor cannot silently blank or zero its per-layer metrics
(perfbench/tracer.py reports a missing hook as an absent metric, not as a
failure, and a hook that is never called reads 0). The cap filter runs
through its hook once per reoptimized month. The loaded universe's
timeline is built once per backtest and once per sweep group, each series'
running true-range sums once per backtest, each run books
a window's positions in one aggregate call, and the month simulations of a
sweep (each month's cell_positions) search each traded cell once."""

import importlib
import importlib.util
import json
import os

from adaptivetrend import backtester, signal_engine
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


def watch(monkeypatch, tracer, watched):
    """Wrap the watched hooks in one trace, as the tracer does."""
    trace = tracer.Trace()
    for module_name, attr, name, _kind, _after in tracer.HOOKS:
        if (module_name, attr) in watched:
            module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
            monkeypatch.setattr(module, attr,
                                trace.timed(f"{module_name}.{attr}",
                                            getattr(module, attr)))
    return trace


def tiny_run_config(tmp_path, bars=200, end="2022-02-20", kinds="btc_bh"):
    """A 3-symbol universe of 6-hour bars and a one-cell config over it,
    one month long by default."""
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--seed", "3", "--symbols", "3",
                 "--regimes", f"{bars}:0.5:0.4"]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data.dir = {data}\nrun.start = 2022-02-01\n"
                   f"run.end = {end}\nbenchmarks.kinds = {kinds}\n"
                   "grid.theta_entry = 0.02\ngrid.theta_entry_short = 0.02\n"
                   "grid.alpha = 2.0\ngrid.lookback = 4\n")
    return cfg


def test_a_backtest_runs_the_load_aggregate_and_write_hooks(tmp_path,
                                                            monkeypatch):
    tracer = load_tracer()
    watched = {("cli", "load_universe"), ("backtester", "union_timeline"),
               ("backtester", "run_backtest"), ("backtester", "run_rebalance"),
               ("cli", "run_benchmark"), ("cli", "_write_run_artifacts"),
               ("cli", "save_equity"), ("cli", "write_ledger"),
               ("analytics", "compute_metrics")}
    trace = watch(monkeypatch, tracer, watched)
    cfg = tiny_run_config(tmp_path)
    assert main(["backtest", "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == 0
    called = {span[0] for span in trace.spans}
    assert called == {f"{m}.{a}" for m, a in watched}
    # strategy and benchmark share one timeline; one writer and one of each
    # file per run, the strategy's and btc_bh's
    names = [span[0] for span in trace.spans]
    assert names.count("backtester.union_timeline") == 1
    assert names.count("backtester.run_backtest") == 1
    assert names.count("cli.run_benchmark") == 1
    assert names.count("analytics.compute_metrics") == 2
    writers = [i for i, span in enumerate(trace.spans)
               if span[0] == "cli._write_run_artifacts"]
    assert len(writers) == 2
    for name in ("cli.save_equity", "cli.write_ledger"):
        assert sorted(trace.spans[i][3] for i, span in enumerate(trace.spans)
                      if span[0] == name) == writers
    assert (tmp_path / "run" / "benchmarks" / "btc_bh" / "equity.csv").is_file()


def test_a_cap_filtered_backtest_filters_once_per_reoptimized_month(
        tmp_path, monkeypatch):
    # rebalancer.filter_s is the time of the filter hook's spans: each month
    # that ranks the caps and reoptimizes calls it once, from its rebalance,
    # so the metric cannot read 0 while the cap filter runs.
    tracer = load_tracer()
    trace = watch(monkeypatch, tracer, {("backtester", "run_rebalance"),
                                        ("rebalancer", "filter_universe")})
    cfg = tiny_run_config(tmp_path, bars=480, end="2022-04-20")
    out = tmp_path / "run"
    assert main(["backtest", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "rebalance_log.json") as fh:
        reoptimized = [r["month"] for r in json.load(fh) if r["reoptimized"]]
    assert reoptimized == ["2022-02", "2022-03", "2022-04"]
    rebalances = [i for i, span in enumerate(trace.spans)
                  if span[0] == "backtester.run_rebalance"]
    filtered = [span[3] for span in trace.spans
                if span[0] == "rebalancer.filter_universe"]
    assert filtered == rebalances and len(rebalances) == len(reoptimized)


def test_a_backtest_builds_each_series_atr_sums_once(tmp_path, monkeypatch):
    # The optimizer and the trader share one set of running true-range sums
    # per series, the checkpoints every ATR window is resumed from; a series
    # is known by its close column.
    calls = []
    true_range = signal_engine.true_range

    def counted(high, low, close):
        calls.append(id(close))
        return true_range(high, low, close)

    monkeypatch.setattr(signal_engine, "true_range", counted)
    cfg = tiny_run_config(tmp_path)
    assert main(["backtest", "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == 0
    assert calls
    assert len(calls) == len(set(calls))


def test_a_sweep_builds_one_timeline_for_every_point(tmp_path, monkeypatch):
    tracer = load_tracer()
    trace = watch(monkeypatch, tracer, {("backtester", "union_timeline")})
    cfg = tiny_run_config(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", "alpha_lambda"]) == 0
    assert [span[0] for span in trace.spans] == ["backtester.union_timeline"]
    with open(out / "sweep.csv") as fh:
        assert len(fh.read().splitlines()) == 1 + 27
    with open(out / "manifest.json") as fh:
        counters = json.load(fh)["counters"]
    # the three lambda points of each alpha share every problem, and the
    # nine alpha points of a problem share one search of their union grid
    assert counters["optimizer.solved"] > 0
    assert counters["optimizer.problems"] == 3 * counters["optimizer.solved"]
    assert counters["optimizer.solved"] == 9 * counters["optimizer.searches"]


def test_a_backtest_books_each_window_in_one_ledger_pass(tmp_path,
                                                        monkeypatch):
    # Each run, the strategy's and each benchmark's, calls the aggregate
    # hook once per window with marks (three months; buy-and-hold holds one
    # window), and the hold_position counter counts benchmark positions.
    tracer = load_tracer()
    trace = watch(monkeypatch, tracer, {
        ("backtester", "run_backtest"), ("cli", "run_benchmark"),
        ("backtester", "aggregate_results"), ("benchmarks", "hold_position")})
    cfg = tiny_run_config(tmp_path, bars=480, end="2022-04-20",
                          kinds="tsmom_1m,btc_bh,ew_bh")
    out = tmp_path / "run"
    assert main(["backtest", "--config", str(cfg), "--out", str(out)]) == 0
    runs = [i for i, span in enumerate(trace.spans)
            if span[0] in ("backtester.run_backtest", "cli.run_benchmark")]
    booked = [sum(span[0] == "backtester.aggregate_results" and span[3] == i
                  for span in trace.spans) for i in runs]
    assert booked == [3, 3, 1, 3]
    positions = 0
    for kind in ("tsmom_1m", "btc_bh", "ew_bh"):
        with open(out / "benchmarks" / kind / "ledger.csv") as fh:
            positions += len(fh.read().splitlines()) - 1
    held = [span for span in trace.spans
            if span[0] == "benchmarks.hold_position"]
    assert positions > 3 and len(held) == positions


def test_a_sweep_searches_each_month_simulation_once(tmp_path, monkeypatch):
    # The lambda points of an alpha trade the same cells at other sizes;
    # only the ledger reads the size, so each (symbol, cell, window) of the
    # month simulations is searched once.
    month_sim = backtester.cell_positions
    find_trades_stacked = signal_engine.find_trades_stacked
    sims, searches, inside = [], [], []

    def traded(asked, window, **kwargs):
        sims.extend((series.symbol, params, window)
                    for series, params, _ in asked)
        inside.append(True)
        try:
            return month_sim(asked, window, **kwargs)
        finally:
            inside.pop()

    def searched(problems, **kwargs):
        if inside:
            searches.extend((id(series), bounds, tuple(cells))
                            for series, bounds, cells in problems)
        return find_trades_stacked(problems, **kwargs)

    monkeypatch.setattr(backtester, "cell_positions", traded)
    monkeypatch.setattr(signal_engine, "find_trades_stacked", searched)
    cfg = tiny_run_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--out",
                 str(tmp_path / "sweep"), "--axis", "alpha_lambda"]) == 0
    assert len(sims) > len(set(sims))  # the sweep repeats simulations
    assert len(searches) == len(set(searches)) == len(set(sims))
