"""Comparison strategies sharing the engine's data, cost model, and metrics.

Four kinds:
  - tsmom: per asset in the top-cap set, go long (short) for one month when
    the trailing lookback-month return is positive (negative); equal weight
    across assets with a signal.
  - vol_scaled_tsmom: tsmom signs with weight magnitude scaled by
    vol_target / realized vol, capped at a multiple of equal weight.
  - buy_hold: the whole balance in one symbol for the whole run.
  - equal_weight_buy_hold: 1/universe_size in each top-cap asset,
    re-equal-weighted at every month boundary.

Monthly variants close and reopen positions at month boundaries, paying the
fill costs both ways; tsmom variants additionally accrue funding while held
(they are leveraged long/short exposures), buy-and-hold variants do not
(plain spot holdings).

There is one accounting path: each position is one forced trade booked by
the signal engine's ledger (``book_trades``), and the balance rolls over the
months in the backtester's window loop (``run_windows``), the same code that
charges, marks and rolls the strategy. Every kind, buy-and-hold included,
therefore halts at the first balance <= 0. What differs between the
strategies is only the decision rule: the trade search, the TSMOM signs and
weights, or a plain hold.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .analytics import MetricsReport, compute_metrics
from .backtester import (BacktestConfig, EquityCurve, month_starts_between,
                         month_windows, run_windows)
from .cost_model import LONG, SHORT, CostConfig
from .market_data import (DataError, MarketCapRecord, PriceSeries,
                          bars_per_year, date_of_ts, month_add)
from .rebalancer import CapIndex, cap_snapshot
from .signal_engine import SingleAssetResult, TradeRecord, book_trades

BENCHMARK_KINDS = ("tsmom", "vol_scaled_tsmom", "buy_hold",
                   "equal_weight_buy_hold")


@dataclass(frozen=True)
class BenchmarkSpec:
    kind: str
    lookback_months: int = 1
    vol_target_annual: float = 0.10
    universe_size: int = 20
    symbol: Optional[str] = None
    vol_window_days: int = 60
    vol_ratio_cap: float = 4.0

    def __post_init__(self) -> None:
        if self.kind not in BENCHMARK_KINDS:
            raise ValueError(f"kind must be one of {BENCHMARK_KINDS},"
                             f" got {self.kind!r}")
        if self.lookback_months < 1:
            raise ValueError("lookback_months must be >= 1")
        if self.vol_target_annual <= 0:
            raise ValueError("vol_target_annual must be > 0")
        if self.universe_size < 1:
            raise ValueError("universe_size must be >= 1")


@dataclass
class BenchmarkRun:
    kind: str
    equity: EquityCurve
    metrics: MetricsReport
    trades: List[TradeRecord]


def hold_position(
    series: PriceSeries,
    side: str,
    size: float,
    window: Tuple[int, int],
    cost_cfg: Optional[CostConfig],
    charge_funding: bool,
) -> SingleAssetResult:
    """Buy at the window's first bar close, sell at its last; no stops.

    One forced trade booked by the engine's ledger, so it is charged and
    marked to market exactly as the strategy's trades are. Fewer than two bars
    in the window yields an empty result (a position cannot open and close on
    one bar).
    """
    arr = series.arrays
    i0, i1 = arr.slice_indices(window[0], window[1])
    n = i1 - i0
    trades = [(0, n - 1, float(arr.close[i1 - 1]), side, True)] if n >= 2 else []
    return book_trades(series, (i0, i1), trades, size, cost_cfg,
                       np.full(n, np.nan), charge_funding=charge_funding)


# ---------------------------------------------------------------------------
# Signals
# ---------------------------------------------------------------------------

def top_cap_symbol(caps: Sequence[MarketCapRecord],
                   month_start: int) -> Optional[str]:
    """The largest-cap symbol (ties: the smaller name) on the latest cap
    snapshot before month_start; None without one. buy_hold holds it."""
    snapshot = cap_snapshot(caps, date_of_ts(month_start - 1))
    if not snapshot:
        return None
    return min(snapshot, key=lambda s: (-snapshot[s], s))


def trailing_month_return(series: PriceSeries, month_start: int,
                          lookback_months: int) -> Optional[float]:
    """Return over the trailing lookback calendar months ending at month_start."""
    ts, close = series.arrays.timestamps, series.arrays.close
    i_now = int(np.searchsorted(ts, month_start, side="right")) - 1
    past = month_add(month_start, -lookback_months)
    i_past = int(np.searchsorted(ts, past, side="right")) - 1
    if i_past < 0 or i_now <= i_past:
        return None
    return float(close[i_now] / close[i_past] - 1.0)


def realized_vol(series: PriceSeries, month_start: int, window_days: int,
                 bpy: float) -> Optional[float]:
    """Annualized close-to-close volatility over the trailing window_days."""
    ts, close = series.arrays.timestamps, series.arrays.close
    lo = int(np.searchsorted(ts, month_start - window_days * 86_400, side="left"))
    hi = int(np.searchsorted(ts, month_start, side="right"))
    if hi - lo < 3:
        return None
    window = close[lo:hi]
    rets = window[1:] / window[:-1] - 1.0
    return float(np.std(rets, ddof=1)) * math.sqrt(bpy)


def _month_weights(
    spec: BenchmarkSpec,
    universe: Dict[str, PriceSeries],
    caps: Sequence[MarketCapRecord],
    month_start: int,
    bpy: float,
) -> List[Tuple[str, str, float]]:
    """(symbol, side, |weight|) rows for one month of a monthly-rebalanced kind."""
    snapshot = cap_snapshot(caps, date_of_ts(month_start - 1))
    if snapshot is None:
        return []
    members = sorted(snapshot, key=lambda s: (-snapshot[s], s))[: spec.universe_size]

    if spec.kind == "equal_weight_buy_hold":
        return [(sym, LONG, 1.0 / spec.universe_size)
                for sym in members if sym in universe]

    signals: List[Tuple[str, str, float]] = []
    for sym in members:
        series = universe.get(sym)
        if series is None:
            continue
        ret = trailing_month_return(series, month_start, spec.lookback_months)
        if ret is None or ret == 0.0:
            continue
        side = LONG if ret > 0 else SHORT
        if spec.kind == "tsmom":
            signals.append((sym, side, 1.0))
        else:
            sigma = realized_vol(series, month_start, spec.vol_window_days, bpy)
            if sigma is None:
                continue
            ratio = (spec.vol_ratio_cap if sigma == 0.0
                     else min(spec.vol_target_annual / sigma, spec.vol_ratio_cap))
            signals.append((sym, side, ratio))
    if not signals:
        return []
    n = len(signals)
    return [(sym, side, mag / n) for sym, side, mag in signals]


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def run_benchmark(
    spec: BenchmarkSpec,
    universe: Dict[str, PriceSeries],
    caps: Sequence[MarketCapRecord],
    cfg: BacktestConfig,
) -> BenchmarkRun:
    """Run one benchmark over cfg's window with cfg's cost model."""
    bpy = bars_per_year(cfg.interval)
    caps = CapIndex(caps)
    months = month_starts_between(cfg.start, cfg.end)
    if not months:
        raise DataError("no month boundary inside [start, end]")

    if spec.kind == "buy_hold":
        symbol = spec.symbol
        if symbol is None:
            symbol = top_cap_symbol(caps, months[0])
            if symbol is None:
                raise DataError("buy_hold needs a cap snapshot to pick a symbol")
        series = universe.get(symbol)
        if series is None:
            raise ValueError(f"buy_hold symbol {symbol!r} not in universe")
        windows = [(months[0], cfg.end)]

        def simulate(window: Tuple[int, int], balance: float):
            return [hold_position(series, LONG, balance, window, cfg.costs,
                                  charge_funding=False)]
    else:
        charge_funding = spec.kind in ("tsmom", "vol_scaled_tsmom")
        windows = month_windows(months, cfg.end)

        def simulate(window: Tuple[int, int], balance: float):
            weights = _month_weights(spec, universe, caps, window[0], bpy)
            return [hold_position(universe[sym], side, w * balance, window,
                                  cfg.costs, charge_funding)
                    for sym, side, w in weights if w > 0.0]

    equity, trades, _ = run_windows(universe, windows, cfg.initial_balance,
                                    cfg.interval, simulate, net_first=False)
    metrics = compute_metrics(equity, trades, rf_annual=cfg.rebalance.rf_annual,
                              bars_per_year=bpy)
    return BenchmarkRun(kind=spec.kind, equity=equity, metrics=metrics,
                        trades=trades)
