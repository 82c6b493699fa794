"""Layer trace of one `adaptivetrend` CLI run, taken from outside the program.

Run as a script, it installs wrappers on public functions of the package's
modules by replacing the module attributes their callers look up, runs
`adaptivetrend.cli.main` with the remaining arguments, and writes the trace
as JSON:

    python3 perfbench/tracer.py TRACE.json backtest --config C --out O

Spans are kept in memory (name, start, end, parent span) and written when the
run ends. Functions called more than ~10k times in a run (evaluate_cell,
atr, momentum, rolling_sharpe, funding_events) get counters only: timing
wrappers on them add seconds to a ten-second run.

A hook whose attribute no longer exists (a later change removed or renamed
the function) is listed under "missing", and the metrics that depend on it
are reported as absent instead of failing the run.
"""

import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional

PACKAGE = "adaptivetrend"


class Trace:
    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index or None]
        self.counts: Dict[str, List[int]] = {}
        self.cell_keys: set = set()
        self.missing: List[str] = []
        self._open: List[int] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts.setdefault(name, [0])[0] += n

    def timed(self, name: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, time.perf_counter(), None, parent])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][2] = time.perf_counter()
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def counted(self, name: str, fn: Callable,
                after: Optional[Callable] = None) -> Callable:
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def to_json(self) -> dict:
        return {"spans": self.spans,
                "counts": {k: v[0] for k, v in self.counts.items()},
                "distinct_cells": len(self.cell_keys),
                "missing": self.missing}


def _loaded_bars(trace: Trace, args, result) -> None:
    universe, _caps = result
    trace.count("market_data.bars", sum(len(s) for s in universe.values()))


def _rebalance_outcome(trace: Trace, args, result) -> None:
    _portfolio, record = result
    trace.count("rebalancer.optimized", len(record.get("optimized", [])))
    trace.count("rebalancer.admitted", len(record.get("selected_longs", []))
                + len(record.get("selected_shorts", [])))


def _cell_outcome(trace: Trace, args, result) -> None:
    # (series, params, side, window, cost_cfg, rf_annual): the series is keyed
    # by its symbol, everything else is a hashable value.
    trace.cell_keys.add(tuple(getattr(a, "symbol", a) for a in args))
    if result is not None:
        trace.count("rebalancer.usable_cells")


def _month_bars(trace: Trace, args, result) -> None:
    trace.count("signal_engine.month_sim_bars", len(result.timestamps))


# (module, attribute, span or counter name, "span" | "count", after-hook).
# The attribute is replaced in the module that calls it, so e.g.
# backtester.run_single_asset is the month simulation while the optimizer's
# own calls through rebalancer.run_single_asset are left alone.
HOOKS = (
    ("cli", "load_universe", "market_data.load", "span", _loaded_bars),
    ("backtester", "run_backtest", "backtester.run_backtest", "span", None),
    ("backtester", "run_rebalance", "rebalancer.run", "span", _rebalance_outcome),
    ("rebalancer", "filter_universe", "rebalancer.filter", "span", None),
    ("rebalancer", "evaluate_cell", "rebalancer.cells", "count", _cell_outcome),
    ("signal_engine", "atr", "indicators.atr_calls", "count", None),
    ("signal_engine", "momentum", "indicators.momentum_calls", "count", None),
    ("rebalancer", "rolling_sharpe", "indicators.sharpe_calls", "count", None),
    ("analytics", "rolling_sharpe", "indicators.sharpe_calls", "count", None),
    ("cost_model", "funding_events", "cost_model.funding_events_calls", "count",
     None),
    ("backtester", "run_single_asset", "signal_engine.month_sim", "span",
     _month_bars),
    ("backtester", "union_timeline", "backtester.aggregate", "span", None),
    ("backtester", "aggregate_results", "backtester.aggregate", "span", None),
    ("cli", "run_benchmark", "benchmarks.run", "span", None),
    ("benchmarks", "hold_position", "benchmarks.hold_position_calls", "count",
     None),
    ("analytics", "compute_metrics", "analytics.metrics", "span", None),
    ("cli", "classify_regimes", "analytics.regimes", "span", None),
    ("cli", "regime_metrics", "analytics.regimes", "span", None),
    ("cli", "_write_run_artifacts", "cli.write", "span", None),
    ("cli", "save_equity", "cli.write", "span", None),
    ("cli", "write_ledger", "cli.write", "span", None),
    ("cli", "write_json", "cli.write", "span", None),
    ("cli", "atomic_write_text", "cli.write", "span", None),
    ("cli", "write_regime_csv", "cli.write", "span", None),
)


def install(trace: Trace) -> None:
    for module_name, attr, name, kind, after in HOOKS:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        fn = getattr(module, attr, None)
        if not callable(fn):
            trace.missing.append(f"{module_name}.{attr}")
            continue
        wrap = trace.timed if kind == "span" else trace.counted
        setattr(module, attr, wrap(name, fn, after))


# ---------------------------------------------------------------------------
# Per-layer metrics from a written trace
# ---------------------------------------------------------------------------

# name -> (unit, hooks it needs). The hooks decide absence.
LAYER_METRICS = {
    "market_data.load_s": ("s", ["cli.load_universe"]),
    "market_data.bars": ("count", ["cli.load_universe"]),
    "market_data.bars_per_s": ("1/s", ["cli.load_universe"]),
    "rebalancer.s": ("s", ["backtester.run_rebalance"]),
    "rebalancer.jobs2_s": ("s", ["backtester.run_rebalance"]),
    "rebalancer.cells": ("count", ["rebalancer.evaluate_cell"]),
    "rebalancer.cells_per_s": ("1/s", ["rebalancer.evaluate_cell",
                                       "backtester.run_rebalance"]),
    "rebalancer.usable_cell_ratio": ("ratio", ["rebalancer.evaluate_cell"]),
    "rebalancer.distinct_cell_ratio": ("ratio", ["rebalancer.evaluate_cell"]),
    "rebalancer.admitted_ratio": ("ratio", ["backtester.run_rebalance"]),
    "rebalancer.filter_s": ("s", ["rebalancer.filter_universe"]),
    "indicators.atr_calls": ("count", ["signal_engine.atr"]),
    "indicators.momentum_calls": ("count", ["signal_engine.momentum"]),
    "indicators.sharpe_calls": ("count", ["rebalancer.rolling_sharpe",
                                          "analytics.rolling_sharpe"]),
    "cost_model.funding_events_calls": ("count", ["cost_model.funding_events"]),
    "signal_engine.month_sim_s": ("s", ["backtester.run_single_asset"]),
    "signal_engine.month_sim_bars": ("count", ["backtester.run_single_asset"]),
    "backtester.aggregate_s": ("s", ["backtester.union_timeline",
                                     "backtester.aggregate_results"]),
    "backtester.self_s": ("s", ["backtester.run_backtest",
                                "backtester.run_rebalance",
                                "backtester.run_single_asset",
                                "backtester.union_timeline",
                                "backtester.aggregate_results"]),
    "benchmarks.s": ("s", ["cli.run_benchmark"]),
    "benchmarks.hold_position_calls": ("count", ["benchmarks.hold_position"]),
    "analytics.metrics_s": ("s", ["analytics.compute_metrics"]),
    "analytics.regimes_s": ("s", ["cli.classify_regimes", "cli.regime_metrics"]),
    "cli.write_s": ("s", ["cli._write_run_artifacts", "cli.save_equity",
                          "cli.write_ledger", "cli.write_json",
                          "cli.atomic_write_text", "cli.write_regime_csv"]),
    "cli.bytes_written": ("bytes", []),
    "trace.wall_s": ("s", []),
    "trace.overhead_s": ("s", []),
}


def span_total(spans: List[list], name: str) -> float:
    """Summed duration of `name` spans not nested inside another `name` span."""
    total = 0.0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            total += span[2] - span[1]
    return total


def self_time(spans: List[list], name: str) -> float:
    """Summed duration of `name` spans minus the time their child spans cover.

    The program is single-threaded in the traced process, so direct children
    of one span never overlap.
    """
    child_time: Dict[int, float] = {}
    for span in spans:
        if span[3] is not None:
            child_time[span[3]] = child_time.get(span[3], 0.0) + span[2] - span[1]
    return sum(span[2] - span[1] - child_time.get(i, 0.0)
               for i, span in enumerate(spans) if span[0] == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, jobs2_trace: dict, traced_wall: float,
                  untraced_wall: float, bytes_written: int) -> Dict[str, dict]:
    """Metric name -> {"value", "unit"}; absent metrics get value None."""
    spans, counts = trace["spans"], trace["counts"]
    c = lambda name: counts.get(name, 0)  # noqa: E731
    load_s = span_total(spans, "market_data.load")
    rebalance_s = span_total(spans, "rebalancer.run")
    values = {
        "market_data.load_s": load_s,
        "market_data.bars": c("market_data.bars"),
        "market_data.bars_per_s": _ratio(c("market_data.bars"), load_s),
        "rebalancer.s": rebalance_s,
        "rebalancer.jobs2_s": span_total(jobs2_trace["spans"], "rebalancer.run"),
        "rebalancer.cells": c("rebalancer.cells"),
        "rebalancer.cells_per_s": _ratio(c("rebalancer.cells"), rebalance_s),
        "rebalancer.usable_cell_ratio": _ratio(c("rebalancer.usable_cells"),
                                               c("rebalancer.cells")),
        "rebalancer.distinct_cell_ratio": _ratio(trace["distinct_cells"],
                                                 c("rebalancer.cells")),
        "rebalancer.admitted_ratio": _ratio(c("rebalancer.admitted"),
                                            c("rebalancer.optimized")),
        "rebalancer.filter_s": span_total(spans, "rebalancer.filter"),
        "indicators.atr_calls": c("indicators.atr_calls"),
        "indicators.momentum_calls": c("indicators.momentum_calls"),
        "indicators.sharpe_calls": c("indicators.sharpe_calls"),
        "cost_model.funding_events_calls": c("cost_model.funding_events_calls"),
        "signal_engine.month_sim_s": span_total(spans, "signal_engine.month_sim"),
        "signal_engine.month_sim_bars": c("signal_engine.month_sim_bars"),
        "backtester.aggregate_s": span_total(spans, "backtester.aggregate"),
        "backtester.self_s": self_time(spans, "backtester.run_backtest"),
        "benchmarks.s": span_total(spans, "benchmarks.run"),
        "benchmarks.hold_position_calls": c("benchmarks.hold_position_calls"),
        "analytics.metrics_s": span_total(spans, "analytics.metrics"),
        "analytics.regimes_s": span_total(spans, "analytics.regimes"),
        "cli.write_s": span_total(spans, "cli.write"),
        "cli.bytes_written": bytes_written,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    missing = set(trace["missing"]) | set(jobs2_trace["missing"])
    out = {}
    for name, (unit, hooks) in LAYER_METRICS.items():
        if missing.intersection(hooks):
            out[name] = {"value": None, "unit": unit, "absent": True}
        else:
            out[name] = {"value": values[name], "unit": unit}
    return out


def main(argv: List[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    trace = Trace()
    install(trace)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    status = cli.main(cli_args)
    with open(trace_path, "w") as fh:
        json.dump(trace.to_json(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
