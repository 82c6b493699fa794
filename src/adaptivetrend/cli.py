"""Command-line entry point.

Subcommands:
  validate-data  check every data file in a directory against its schema
  synth          generate a deterministic synthetic data directory
  backtest       run the full pipeline and write run artifacts
  sweep          rerun the backtest along a parameter axis, one CSV row each
  bootstrap      Sharpe-difference significance test between two runs
  report         render run artifacts into a markdown report + plot CSVs

Configuration is a flat text file of `key = value` lines with dotted keys
(full-line # comments allowed). Every strategy constant is a key with its
default documented in CONFIG_SCHEMA; unknown keys are rejected by name.
Every file is written atomically, into a directory made by the first
write, and reruns with identical inputs produce byte-identical results
(the run manifest, which records wall-clock duration, is the one
exception). Commands raise on rejected input (a ValueError) or a failed
write (an OSError); `main` alone turns either into `error: …` and exit 1.
"""

import argparse
import csv
import inspect
import json
import logging
import os
import resource
import sys
import time
from collections import Counter
from dataclasses import fields, replace
from datetime import datetime, timezone
from itertools import chain, islice
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# run_backtest is called as backtester.run_backtest, so that a hook patched
# onto the module (perfbench's tracer) sees every run.
from . import __version__, backtester
from .analytics import (classify_regimes, bootstrap_sharpe_test, regime_metrics,
                        write_regime_csv, RegimeSeries, REGIME_CSV_HEADER,
                        REGIME_WINDOW_DAYS)
from .backtester import (BacktestConfig, BacktestResult, EquityCurve, Market,
                         ablation_config, load_equity, save_equity,
                         ABLATION_VARIANTS)
from .benchmarks import (BenchmarkSpec, buy_hold_symbol, run_benchmark,
                         top_cap_symbol)
from .cost_model import CostConfig, load_funding_rates
from .market_data import (DEFAULT_INTERVAL, CapIndex, DataError, PriceSeries,
                          SyntheticSpec, atomic_write_text, bars_per_year,
                          generate_synthetic_universe, load_market_caps,
                          load_price_series, opened, read_csv,
                          resample_series, save_market_caps, save_price_series,
                          step_gcd, write_columns)
from .rebalancer import Optimizer, ParamGrid, RebalanceConfig
from .signal_engine import write_ledger

logger = logging.getLogger(__name__)

DATA_DIR_ENV = "ADAPTIVETREND_DATA_DIR"
CAPS_FILE = "market_caps.csv"
FUNDING_FILE = "funding_rates.csv"

SWEEP_ALPHA_GRID = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
SWEEP_LAMBDA_GRID = (0.5, 0.7, 0.8)
SWEEP_FEE_GRID = (0.0, 4.0, 8.0, 12.0)
SWEEP_TIMEFRAME_GRID = (3600, 14400, 21600, 28800, 43200, 86400)
# sweep axis -> the sweep.csv columns naming its point
SWEEP_HEADERS = {"alpha_lambda": ["alpha", "lambda"], "fee_bps": ["fee_bps"],
                 "timeframe": ["timeframe_s"]}

METRIC_COLUMNS = ["ann_return", "ann_vol", "sharpe", "sortino", "calmar",
                  "mdd", "win_rate", "avg_trade_pnl", "profit_factor",
                  "trades_per_month", "turnover"]


class ConfigError(ValueError):
    """Invalid or unknown configuration."""


# ---------------------------------------------------------------------------
# Config file handling
# ---------------------------------------------------------------------------

def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_timestamp(s: str) -> int:
    """Epoch seconds, or a YYYY-MM-DD date taken as 00:00 UTC."""
    s = s.strip()
    try:
        return int(s)
    except ValueError:
        pass
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _parse_float(s: str) -> float:
    """A finite float (the config is echoed into strict-JSON manifests)."""
    x = float(s)
    if not np.isfinite(x):
        raise ValueError(f"not a finite number: {s.strip()!r}")
    return x


def _parse_floats(s: str) -> Tuple[float, ...]:
    return tuple(_parse_float(x) for x in s.split(",") if x.strip())


def _parse_ints(s: str) -> Tuple[int, ...]:
    return tuple(int(x) for x in s.split(",") if x.strip())


def _parse_str(s: str) -> str:
    return s.strip()


def _parse_strs(s: str) -> Tuple[str, ...]:
    return tuple(x.strip() for x in s.split(",") if x.strip())


def _known(what: str, name: str, names: Sequence[str]) -> str:
    if name not in names:
        raise ValueError(f"unknown {what} {name!r}; expected one of"
                         f" {tuple(names)}")
    return name


def _parse_regimes(s: str) -> Tuple[Tuple[int, float, float], ...]:
    """synth --regimes: comma-separated bars:annual_drift:annual_vol."""
    regimes = []
    for part in s.split(","):
        try:
            dur, drift, vol = part.split(":")
            regimes.append((int(dur), _parse_float(drift), _parse_float(vol)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad regime segment {part!r}; expected finite"
                " bars:annual_drift:annual_vol") from None
    return tuple(regimes)


# key -> (parser, default value or None for "unset"). A default that lands
# in a library dataclass field is read from that field, so it is defined once.
CONFIG_SCHEMA = {
    "data.dir": (_parse_str, None),
    "data.interval": (int, BacktestConfig.interval),
    "run.start": (_parse_timestamp, None),
    "run.end": (_parse_timestamp, None),
    "run.initial_balance": (_parse_float, BacktestConfig.initial_balance),
    "run.variant": (lambda s: _known("ablation variant", s.strip(),
                                     ABLATION_VARIANTS), "full"),
    "run.label": (_parse_str, None),
    "engine.intrabar_stop_fill": (_parse_bool,
                                  BacktestConfig.intrabar_stop_fill),
    "rebalance.k_long": (int, RebalanceConfig.k_long),
    "rebalance.k_short": (int, RebalanceConfig.k_short),
    "rebalance.gamma_long": (_parse_float, RebalanceConfig.gamma_long),
    "rebalance.gamma_short": (_parse_float, RebalanceConfig.gamma_short),
    "rebalance.long_ratio": (_parse_float, RebalanceConfig.long_ratio),
    "rebalance.buffer_bars": (int, RebalanceConfig.buffer_bars),
    "rebalance.rf_annual": (_parse_float, RebalanceConfig.rf_annual),
    "grid.theta_entry": (_parse_floats, ParamGrid.theta_entry),
    "grid.theta_entry_short": (_parse_floats, ParamGrid.theta_entry_short),
    "grid.alpha": (_parse_floats, ParamGrid.alpha),
    "grid.lookback": (_parse_ints, ParamGrid.lookback),
    "grid.atr_window": (int, ParamGrid.atr_window),
    "costs.taker_fee_bps": (_parse_float, CostConfig.taker_fee_bps),
    "costs.slip_coeff": (_parse_float, CostConfig.slip_coeff),
    "costs.slip_cap_bps": (_parse_float, CostConfig.slip_cap_bps),
    "costs.funding_rate_per_8h": (_parse_float,
                                  CostConfig.funding_rate_per_8h),
    "costs.funding_hours": (_parse_ints, CostConfig.funding_hours),
    "costs.funding_rates_file": (_parse_str, None),
    "benchmarks.kinds": (lambda s: tuple(_known("benchmark", name, BENCHMARKS)
                                         for name in _parse_strs(s)), ()),
    "benchmarks.universe_size": (int, BenchmarkSpec.universe_size),
    "benchmarks.vol_target": (_parse_float, BenchmarkSpec.vol_target_annual),
    "benchmarks.buy_hold_symbol": (_parse_str, BenchmarkSpec.symbol),
    "regimes.enabled": (_parse_bool, True),
    "regimes.reference_symbol": (_parse_str, None),
    "regimes.window_days": (int, REGIME_WINDOW_DAYS),
}

# benchmarks.kinds name -> (label, fixed BenchmarkSpec arguments,
# BenchmarkSpec arguments taken from config keys); every spec also takes
# benchmarks.universe_size
BENCHMARKS = {
    "tsmom_1m": ("TSMOM (1M)", {"kind": "tsmom", "lookback_months": 1}, {}),
    "tsmom_3m": ("TSMOM (3M)", {"kind": "tsmom", "lookback_months": 3}, {}),
    "vol_scaled_tsmom": ("Vol-Scaled TSMOM", {"kind": "vol_scaled_tsmom"},
                         {"vol_target_annual": "benchmarks.vol_target"}),
    "btc_bh": ("BTC Buy & Hold", {"kind": "buy_hold"},
               {"symbol": "benchmarks.buy_hold_symbol"}),
    "ew_bh": ("Equal-Weight Buy & Hold", {"kind": "equal_weight_buy_hold"}, {}),
}


def read_config_file(path: str) -> Dict[str, str]:
    raw: Dict[str, str] = {}
    with opened(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}: line {lineno}: expected key = value")
            key, _, value = stripped.partition("=")
            raw[key.strip()] = value.strip()
    return raw


def resolve_config(path: Optional[str],
                   overrides: Optional[Dict[str, str]] = None) -> Dict[str, object]:
    """Merge file values over schema defaults; reject unknown keys by name."""
    raw = read_config_file(path) if path else {}
    if overrides:
        raw.update(overrides)
    unknown = sorted(k for k in raw if k not in CONFIG_SCHEMA)
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))
    resolved: Dict[str, object] = {}
    for key, (parse, default) in CONFIG_SCHEMA.items():
        if key not in raw:
            resolved[key] = default
            continue
        try:
            resolved[key] = parse(raw[key])
        except ValueError as exc:
            raise ConfigError(f"config key {key}: {exc}") from exc
    return resolved


def config_snapshot(cfg: Dict[str, object]) -> Dict[str, object]:
    """JSON-safe view of a resolved config (tuples become lists)."""
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.items()}


def _fields(cfg: Dict[str, object], section: str, cls: type) -> dict:
    """The dataclass cls's fields that config keys ``section.<field>`` set,
    by field name."""
    keys = {f.name: f"{section}.{f.name}" for f in fields(cls)}
    return {name: cfg[key] for name, key in keys.items() if key in cfg}


def build_backtest_config(cfg: Dict[str, object]) -> BacktestConfig:
    if cfg["run.start"] is None or cfg["run.end"] is None:
        raise ConfigError("run.start and run.end are required")
    grid = ParamGrid(**_fields(cfg, "grid", ParamGrid))
    rebalance = RebalanceConfig(grid=grid,
                                **_fields(cfg, "rebalance", RebalanceConfig))
    path = cfg["costs.funding_rates_file"]
    costs = CostConfig(funding_rates=load_funding_rates(path) if path
                       else None,
                       **_fields(cfg, "costs", CostConfig))
    bt_cfg = BacktestConfig(
        start=cfg["run.start"],
        end=cfg["run.end"],
        initial_balance=cfg["run.initial_balance"],
        interval=cfg["data.interval"],
        rebalance=rebalance,
        costs=costs,
        intrabar_stop_fill=cfg["engine.intrabar_stop_fill"],
    )
    return ablation_config(bt_cfg, cfg["run.variant"])


def run_label(cfg: Dict[str, object], bt_cfg: BacktestConfig) -> str:
    """run.label, or the long/short split that bt_cfg runs and the variant."""
    if cfg["run.label"]:
        return str(cfg["run.label"])
    variant = cfg["run.variant"]
    lam = bt_cfg.rebalance.long_ratio
    label = f"AdaptiveTrend ({round(lam * 100)}/{round(100 - lam * 100)})"
    if variant != "full":
        label += f" [{variant}]"
    return label


# ---------------------------------------------------------------------------
# Data directory handling
# ---------------------------------------------------------------------------

def data_dir_from(cfg: Optional[Dict[str, object]],
                  flag_value: Optional[str]) -> str:
    if flag_value:
        return flag_value
    if cfg and cfg.get("data.dir"):
        return str(cfg["data.dir"])
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return env
    raise ConfigError(
        f"no data directory: set data.dir, --data-dir, or ${DATA_DIR_ENV}")


def read_data_dir(data_dir: str, declared: Optional[int] = None,
                  funding: bool = False) -> Tuple[Dict[str, object], int]:
    """Each *.csv file of data_dir by name, parsed once: market_caps.csv as a
    CapIndex, funding_rates.csv (when ``funding``) as its table, any other as
    a PriceSeries, a bad file as a DataError naming it; and the bar interval
    found, the gcd of every series' steps (0 without a step). Every series is
    at it (else at ``declared`` or the default), so a sparse one loads with
    gaps. A declared interval that differs is a DataError. When more than
    half of all steps are gaps at the interval found (a bar off the others'
    phase lowers it), a warning names the first shortest step's bars. Series
    on one bar clock share one read-only timestamp array (see PriceSeries),
    whose steps are diffed once for all of them."""
    if not os.path.isdir(data_dir):
        raise DataError(f"data directory not found: {data_dir}")
    readers = {CAPS_FILE: load_market_caps, FUNDING_FILE: load_funding_rates}
    files: Dict[str, object] = {}
    for name in sorted(os.listdir(data_dir)):
        if not name.endswith(".csv") or (name == FUNDING_FILE and not funding):
            continue
        path = os.path.join(data_dir, name)
        read = readers.get(name, lambda p: load_price_series(p, None))
        try:
            files[name] = read(path)
        except DataError as exc:
            files[name] = exc
    # Series on one bar clock share its timestamp array: each clock's steps
    # are counted once, weighted by the number of series that share it.
    clocks: Dict[int, List[PriceSeries]] = {}
    for s in files.values():
        if isinstance(s, PriceSeries):
            clocks.setdefault(id(s.timestamps), []).append(s)
    found = step_gcd(shared[0].timestamps for shared in clocks.values())
    if found and declared not in (None, found):
        raise DataError(f"bars are {found} s apart; data.interval is {declared}")
    gaps = total = 0
    shortest = (np.inf, None, 0)  # the first shortest step
    for shared in clocks.values():  # one clock's steps at a time
        s, weight = shared[0], len(shared)
        steps = np.diff(s.timestamps)
        total += weight * len(steps)
        gaps += weight * int((steps > found).sum())
        if len(steps) and steps.min() < shortest[0]:
            shortest = (steps.min(), s, int(np.argmin(steps)))
    if 2 * gaps > total:
        step, s, j = shortest
        logger.warning("%s: bars %d and %d are %d s apart; at a bar interval"
                       " of %d s, %d of %d steps are gaps", s.symbol,
                       s.timestamps[j], s.timestamps[j + 1], step, found,
                       gaps, total)
    interval = found or declared or DEFAULT_INTERVAL
    for name, s in files.items():  # the columns are shared, not copied
        if isinstance(s, PriceSeries) and s.interval != interval:
            files[name] = PriceSeries(s.symbol, interval, *s.columns())
    return files, found


def load_universe(data_dir: str, interval: Optional[int] = None
                  ) -> Tuple[Dict[str, PriceSeries], CapIndex]:
    """The series and caps of data_dir (see read_data_dir), checked against
    a declared ``interval`` if one is given; the first bad file raises."""
    files, _ = read_data_dir(data_dir, interval)
    for item in files.values():
        if isinstance(item, DataError):
            raise item
    universe = {s.symbol: s for s in files.values() if isinstance(s, PriceSeries)}
    if not universe:
        raise DataError(f"no OHLCV files found in {data_dir}")
    return universe, files.get(CAPS_FILE, CapIndex())


def digest_dir(data_dir: str) -> Dict[str, str]:
    import hashlib  # here, a run's last step: it maps about 3 MB of libcrypto
    digests = {}
    for name in sorted(os.listdir(data_dir)):
        path = os.path.join(data_dir, name)
        if not os.path.isfile(path):
            continue
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        # The name's own bytes as UTF-8, as load_price_series reads it; a
        # name that is not UTF-8 keeps its escapes.
        digests[os.fsencode(name).decode("utf-8", "surrogateescape")] = \
            h.hexdigest()
    return digests


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------

def check_out(out: str, data_dir: Optional[str]) -> None:
    """Reject an --out that is a file or lies below one, or that is the
    run's data directory (None for a command that reads none), where the
    next load would read the run's CSV files as data, before any run."""
    path = os.path.abspath(out)
    while not os.path.lexists(path):  # the nearest part of it that exists
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out {out}: {path} is not a directory")
    if data_dir is not None and (os.path.realpath(out)
                                 == os.path.realpath(data_dir)):
        raise ConfigError(f"--out {out} is the data directory {data_dir}")


JSON_CHUNKS_PER_WRITE = 1024  # encoder chunks write_json joins per write


def write_json(path: str, payload: object) -> None:
    """Write payload as strict JSON: a NaN or infinity raises ValueError.

    The bytes are json.dumps(payload, indent=2, sort_keys=True) and a
    newline. They come from the encoder json.dumps runs with an indent, one
    chunk at a time, streamed through atomic_write_text, so the text is
    never held whole and a failure mid-payload leaves no file. The chunks,
    mostly single tokens, are joined JSON_CHUNKS_PER_WRITE at a time, which
    keeps the write as fast as json.dumps."""
    encoder = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)
    chunks = chain(encoder.iterencode(payload), ["\n"])
    atomic_write_text(path, map("".join, iter(
        lambda: list(islice(chunks, JSON_CHUNKS_PER_WRITE)), [])))


def optimizer_counters(optimizer: Optimizer) -> Dict[str, int]:
    """manifest.json["counters"]: grid-search problems asked, distinct
    problems solved (the rest were answered from the optimizer's memo), the
    distinct problems searched to solve them, and the batched searches
    (grid_sharpes_stacked calls) that searched those."""
    return {"optimizer.problems": optimizer.problems,
            "optimizer.solved": optimizer.solved,
            "optimizer.searches": optimizer.searches,
            "optimizer.batches": optimizer.batches}


def _write_manifest(out: str, command: str, cfg: Dict[str, object],
                    data_dir: str, t0: float, counters: Dict[str, int],
                    **extra: object) -> None:
    """manifest.json of a run directory: what ran, on which inputs, for how
    long (since the monotonic time t0), the process's peak RSS and CPU
    time so far (its own getrusage, taken after the input digests), with
    ``extra`` keys per command."""
    digests = digest_dir(data_dir)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    write_json(os.path.join(out, "manifest.json"), {
        "engine_version": __version__,
        "command": command,
        "config": config_snapshot(cfg),
        "data_dir": os.path.abspath(data_dir),
        "input_digests": digests,
        "duration_seconds": round(time.monotonic() - t0, 3),
        "resources": {"peak_rss_mb": round(usage.ru_maxrss / 1024, 2),
                      "cpu_s": round(usage.ru_utime + usage.ru_stime, 3)},
        "counters": counters,
        **extra,
    })


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_validate_data(args) -> int:
    data_dir = data_dir_from(None, args.data_dir)
    files, found = read_data_dir(data_dir, funding=True)
    if not files:
        raise DataError(f"no data files found in {data_dir}")
    failed = [n for n, item in files.items() if isinstance(item, DataError)]
    for name, item in files.items():
        print(f"{name}: FAIL: {item}" if name in failed else f"{name}: OK")
    print(f"bar interval: {found} s" if found
          else "bar interval: none (no series has two bars)")
    print(f"{len(files) - len(failed)}/{len(files)} files valid")
    if failed:
        raise DataError(f"{len(failed)} of {len(files)} files invalid")
    return 0


def cmd_synth(args) -> int:
    spec = SyntheticSpec(
        seed=args.seed, n_symbols=args.symbols, regimes=args.regimes,
        interval=args.interval, start=args.start,
    )
    series_list, caps = generate_synthetic_universe(spec)
    for series in series_list:
        save_price_series(series, os.path.join(args.out, f"{series.symbol}.csv"))
    save_market_caps(caps, os.path.join(args.out, CAPS_FILE))
    print(f"wrote {len(series_list)} symbols x {spec.n_bars} bars to {args.out}")
    return 0


def _write_run_artifacts(out_dir: str, label: str, variant: str,
                         result: BacktestResult) -> None:
    """equity.csv, ledger.csv and metrics.json of one run: the strategy's
    or a benchmark's."""
    save_equity(result.equity, os.path.join(out_dir, "equity.csv"))
    write_ledger(result.trades, os.path.join(out_dir, "ledger.csv"))
    write_json(os.path.join(out_dir, "metrics.json"),
               {"label": label, "variant": variant,
                "bankrupt": result.equity.bankrupt,
                "metrics": result.metrics.to_dict()})


def cmd_backtest(args) -> int:
    t0 = time.monotonic()
    cfg = resolve_config(args.config)
    bt_cfg = build_backtest_config(cfg)
    variant = str(cfg["run.variant"])
    benchmarks = []
    for name in cfg["benchmarks.kinds"]:
        bench_label, fixed, from_cfg = BENCHMARKS[name]
        benchmarks.append((name, bench_label, BenchmarkSpec(
            universe_size=cfg["benchmarks.universe_size"], **fixed,
            **{arg: cfg[key] for arg, key in from_cfg.items()})))
    data_dir = data_dir_from(cfg, None)
    check_out(args.out, data_dir)
    market = Market(*load_universe(data_dir, bt_cfg.interval))
    first = market.months(bt_cfg)[0]
    if "btc_bh" in cfg["benchmarks.kinds"]:
        buy_hold_symbol(cfg["benchmarks.buy_hold_symbol"], market, first,
                        data_dir)
    regimes = (_regime_labels(cfg, market, first)
               if cfg["regimes.enabled"] else None)

    label = run_label(cfg, bt_cfg)
    result = backtester.run_backtest(market, bt_cfg)
    out = args.out
    _write_run_artifacts(out, label, variant, result)
    write_json(os.path.join(out, "rebalance_log.json"), result.rebalance_log)

    if regimes is not None:
        eq = result.equity
        per_regime = regime_metrics(
            eq.timestamps[1:], eq.returns(), regimes, ledger=result.trades,
            rf_annual=bt_cfg.rebalance.rf_annual,
            bars_per_year=bars_per_year(market.interval))
        write_regime_csv(per_regime, os.path.join(out, "regime_metrics.csv"))

    for name, bench_label, spec in benchmarks:
        _write_run_artifacts(os.path.join(out, "benchmarks", name), bench_label,
                             name, run_benchmark(spec, market, bt_cfg))

    _write_manifest(out, "backtest", cfg, data_dir, t0,
                    optimizer_counters(market.optimizer))
    print(f"backtest complete: {label}; final balance"
          f" {result.equity.balances[-1]:.2f}; artifacts in {out}")
    return 0


def _regime_labels(cfg, market: Market,
                   first_month: int) -> Optional[RegimeSeries]:
    """The reference series' regime labels, taken before the run so that a
    bad window fails first; None, with a warning, without a series to label."""
    ref_symbol = cfg["regimes.reference_symbol"]
    if ref_symbol is None:
        ref_symbol = top_cap_symbol(market.caps, first_month)
        if ref_symbol is None:
            logger.warning("regimes: no cap snapshot to pick a reference symbol")
            return None
    ref = market.series.get(ref_symbol)
    if ref is None:
        logger.warning("regimes: reference symbol %s not in universe", ref_symbol)
        return None
    regimes = classify_regimes(ref, window_days=cfg["regimes.window_days"])
    if len(regimes.timestamps) == 0:
        logger.warning("regimes: reference series too short to label")
        return None
    return regimes


def sweep_groups(axis: str, base: BacktestConfig,
                 universe: Dict[str, PriceSeries]):
    """The points of a sweep axis, grouped by the universe they trade: yields
    (series, [(row prefix, config), ...]). cmd_sweep runs each group over one
    Market, told every point's grid, so the points solve a repeated grid
    search once, and problems that differ only in the grid (the alpha points
    of an alpha_lambda sweep) share one search."""
    if axis == "alpha_lambda":
        yield universe, [
            ([alpha, lam], replace(base, rebalance=replace(
                base.rebalance, long_ratio=lam,
                grid=replace(base.rebalance.grid, alpha=(alpha,)))))
            for alpha in SWEEP_ALPHA_GRID for lam in SWEEP_LAMBDA_GRID]
    elif axis == "fee_bps":
        yield universe, [
            ([fee_bps], replace(base, costs=replace(base.costs,
                                                    taker_fee_bps=fee_bps)))
            for fee_bps in SWEEP_FEE_GRID]
    else:
        for tf in SWEEP_TIMEFRAME_GRID:
            resampled = {sym: resample_series(s, tf)
                         for sym, s in universe.items()}
            rcfg = replace(base.rebalance, buffer_bars=max(1, 86_400 // tf))
            yield resampled, [([tf], replace(base, rebalance=rcfg))]


def cmd_sweep(args) -> int:
    t0 = time.monotonic()
    cfg = resolve_config(args.config)
    if (args.axis == "alpha_lambda"
            and cfg["run.variant"] == "symmetric_allocation"):
        raise ConfigError("the alpha_lambda axis sets the long ratio that"
                          " run.variant symmetric_allocation fixes at 0.5")
    base_cfg = build_backtest_config(cfg)
    data_dir = data_dir_from(cfg, None)
    check_out(args.out, data_dir)
    universe, caps = load_universe(data_dir, base_cfg.interval)

    header = SWEEP_HEADERS[args.axis] + METRIC_COLUMNS
    rows: List[List[object]] = []
    counters: Counter = Counter()
    for series, points in sweep_groups(args.axis, base_cfg, universe):
        market = Market(series, caps, [p.rebalance.grid for _, p in points])
        for prefix, point in points:
            metrics = backtester.run_backtest(market, point).metrics.to_dict()
            rows.append(prefix + [metrics[c] for c in METRIC_COLUMNS])
        counters.update(optimizer_counters(market.optimizer))

    write_columns(os.path.join(args.out, "sweep.csv"), header,
                  list(zip(*rows)))
    _write_manifest(args.out, "sweep", cfg, data_dir, t0, dict(counters),
                    axis=args.axis)
    print(f"sweep complete: {len(rows)} rows in {args.out}/sweep.csv")
    return 0


def cmd_bootstrap(args) -> int:
    check_out(args.out, None)
    cfg = resolve_config(args.config)
    eq_a = load_equity(os.path.join(args.run_a, "equity.csv"))
    eq_b = load_equity(os.path.join(args.run_b, "equity.csv"))
    if len(eq_a) != len(eq_b):
        raise DataError(f"equity curves differ in length"
                        f" ({len(eq_a)} vs {len(eq_b)})")
    mismatch = np.flatnonzero(eq_a.timestamps != eq_b.timestamps)
    if len(mismatch) > 0:
        i = int(mismatch[0])
        raise DataError(f"timestamps misaligned at index {i}:"
                        f" {int(eq_a.timestamps[i])} vs {int(eq_b.timestamps[i])}")
    # The anchor sample may be off the bars' phase, so it is left out.
    interval = step_gcd([eq_a.timestamps[1:]])
    if interval == 0:
        raise DataError("no two equity samples after the anchor")
    result = bootstrap_sharpe_test(
        eq_a.returns(), eq_b.returns(), n_reps=args.reps,
        block_len=args.block, seed=args.seed,
        rf_annual=cfg["rebalance.rf_annual"],
        bars_per_year=bars_per_year(interval),
    )
    write_json(os.path.join(args.out, "bootstrap.json"), {
        "delta_sr": result.delta_sr,
        "p_value": result.p_value,
        "n_reps": result.n_reps,
        "block_len": result.block_len,
        "seed": args.seed,
        "run_a": os.path.abspath(args.run_a),
        "run_b": os.path.abspath(args.run_b),
    })
    print(f"delta_sr={result.delta_sr:.4f} p_value={result.p_value:.4f}"
          f" (reps={result.n_reps}, block={result.block_len})")
    return 0


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _md_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [header, ["---"] * len(header)] + list(rows)
    return "\n".join("| " + " | ".join(line) + " |" for line in lines)


def _fmt_metric(value: object) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _fmt_regime_cell(cell: str) -> str:
    """Render a regime CSV cell: counts stay whole, ratios get 4 decimals."""
    if not cell:
        return "n/a"
    if cell.isdigit():
        return cell
    try:
        return f"{float(cell):.4f}"
    except ValueError:
        return cell


def _read_json(path: str, keys: Dict[str, tuple]) -> Optional[dict]:
    """The JSON object in ``path``, None without the file; a DataError naming
    the path when it is not valid JSON or lacks one of ``keys`` (a dotted key
    names a field of a nested object) or a value of one of its types."""
    if not os.path.exists(path):
        return None
    with opened(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from exc
    for key, types in keys.items():
        obj = data
        for part in key.split("."):
            if not isinstance(obj, dict) or part not in obj:
                raise DataError(f"{path}: missing key {key!r}")
            obj = obj[part]
        if isinstance(obj, bool) or not isinstance(obj, types):
            raise DataError(f"{path}: key {key!r} holds a value of the"
                            f" wrong type: {json.dumps(obj)}")
    return data


def _read_sweep(path: str) -> Optional[Tuple[List[str], List[List[str]]]]:
    """sweep.csv's alpha, lambda and sharpe names and columns; None without
    the file or those columns. Rows are checked against the file's own
    header, which depends on the sweep's axis: a DataError names the path
    and line of a row of another width."""
    if not os.path.exists(path):
        return None
    with opened(path, newline="") as fh:
        header = next(csv.reader(fh), [])
    surface = ["alpha", "lambda", "sharpe"]
    if not set(surface) <= set(header):
        return None
    rows = read_csv(path, header, list)
    return surface, [[row[header.index(c)] for row in rows] for c in surface]


def cmd_report(args) -> int:
    out = args.out
    if not os.path.isdir(out):
        raise DataError(f"no such run directory: {out}")
    gaps: List[str] = []
    sections: List[str] = ["# Backtest Report", ""]

    # One pass over the strategy's and each benchmark's directory reads its
    # metrics (a table row) and its equity curve (for the plot CSV).
    entries: List[dict] = []
    curves: List[Tuple[str, EquityCurve]] = []
    bench_root = os.path.join(out, "benchmarks")
    names = sorted(os.listdir(bench_root)) if os.path.isdir(bench_root) else []
    for run_dir in [out] + [os.path.join(bench_root, n) for n in names]:
        meta = _read_json(os.path.join(run_dir, "metrics.json"), {
            "label": (str,), **{f"metrics.{c}": (int, float, type(None))
                                for c in METRIC_COLUMNS}})
        if meta is None:
            if run_dir == out:
                gaps.append("metrics.json missing: no strategy metrics")
            continue
        entries.append(meta)
        eq_path = os.path.join(run_dir, "equity.csv")
        if os.path.exists(eq_path):
            curves.append((meta["label"], load_equity(eq_path)))

    # Main comparison table (strategy + any benchmarks present).
    sections += ["## Performance comparison", ""]
    if entries:
        rows = [[e["label"]] + [_fmt_metric(e["metrics"][c])
                                for c in METRIC_COLUMNS] for e in entries]
        sections.append(_md_table(["strategy"] + METRIC_COLUMNS, rows))
    else:
        sections.append("_no metrics available_")

    # Regime table.
    sections += ["", "## Regime decomposition", ""]
    regime_path = os.path.join(out, "regime_metrics.csv")
    if os.path.exists(regime_path):
        rows = read_csv(regime_path, REGIME_CSV_HEADER,
                        lambda row: [_fmt_regime_cell(c) for c in row])
        if rows:
            sections.append(_md_table(REGIME_CSV_HEADER, rows))
        else:
            sections.append("_no labeled regimes_")
    else:
        gaps.append("regime_metrics.csv missing: regime table omitted")
        sections.append("_regime decomposition: not available_")

    # Significance.
    sections += ["", "## Significance", ""]
    boot = _read_json(os.path.join(out, "bootstrap.json"), dict.fromkeys(
        ["delta_sr", "p_value", "n_reps", "block_len"], (int, float)))
    sections.append("significance: not run" if boot is None else
                    f"Sharpe difference {boot['delta_sr']:.4f}, two-sided"
                    f" p = {boot['p_value']:.4f} (circular block bootstrap,"
                    f" {boot['n_reps']} replications, block length"
                    f" {boot['block_len']}).")
    sections.append("")
    sweep = _read_sweep(os.path.join(out, "sweep.csv"))

    # Plot-ready equity CSV.
    if curves:
        write_columns(os.path.join(out, "report_equity.csv"),
                      ["strategy", "timestamp", "balance"],
                      [[label for label, c in curves for _ in c.timestamps],
                       np.concatenate([c.timestamps for _, c in curves]),
                       np.concatenate([c.balances for _, c in curves])])
        sections.append(f"Equity curves: report_equity.csv"
                        f" ({len(curves)} strategies).")
    else:
        gaps.append("equity.csv missing: no equity export")

    # Sensitivity surface from an alpha x lambda sweep.
    if sweep is not None:
        write_columns(os.path.join(out, "sensitivity.csv"), *sweep)
        sections.append("Sensitivity surface: sensitivity.csv.")
    sections.append("")

    if gaps:
        sections += ["## Gaps", ""] + [f"- {gap}" for gap in gaps] + [""]

    atomic_write_text(os.path.join(out, "report.md"),
                      ["\n".join(sections).rstrip() + "\n"])
    print(f"report written to {os.path.join(out, 'report.md')}"
          + (f" ({len(gaps)} gaps)" if gaps else ""))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptivetrend",
        description="Deterministic backtester for adaptive crypto trend"
                    " following with monthly Sharpe-filtered selection.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-data", help="validate every file in a data dir")
    p.add_argument("--data-dir", help=f"data directory (or ${DATA_DIR_ENV})")
    p.set_defaults(func=cmd_validate_data)

    p = sub.add_parser("synth", help="generate a synthetic data directory")
    p.add_argument("--out", required=True, help="output data directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--symbols", type=int, default=25)
    p.add_argument("--interval", type=int, default=DEFAULT_INTERVAL)
    p.add_argument("--start", type=_parse_timestamp,
                   default=SyntheticSpec.start,
                   help="series start (bars begin one interval later)")
    p.add_argument("--regimes", type=_parse_regimes,
                   default="360:0.5:0.6,360:-0.4:0.8,360:0.1:0.4",
                   help="comma list of bars:annual_drift:annual_vol segments")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("backtest", help="run the strategy and write artifacts")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    # No effect (the grid search is in-process); perfbench/run.py passes it.
    p.add_argument("--jobs", type=int, default=None, help="ignored")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("sweep", help="rerun the backtest along one axis")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--axis", required=True, choices=list(SWEEP_HEADERS))
    # No effect (the grid search is in-process); perfbench/run.py passes it.
    p.add_argument("--jobs", type=int, default=None, help="ignored")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bootstrap",
                       help="Sharpe-difference significance between two runs")
    p.add_argument("--run-a", required=True, help="first run directory")
    p.add_argument("--run-b", required=True, help="second run directory")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    boot = inspect.signature(bootstrap_sharpe_test).parameters
    p.add_argument("--reps", type=int, default=boot["n_reps"].default)
    p.add_argument("--block", type=int, default=boot["block_len"].default)
    p.add_argument("--seed", type=int, default=boot["seed"].default)
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("report", help="render run artifacts to markdown")
    p.add_argument("--out", required=True, help="run directory to render")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # Rejected input or a failed write; an EngineError is a RuntimeError.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
