"""Comparison strategies sharing the engine's data, cost model, and metrics.

Four kinds, whose top-cap sets and largest-cap symbol come from the
market's CapIndex, the ranking the strategy's cap filter reads:
  - tsmom: per asset in the top-cap set, go long (short) for one month when
    the trailing lookback-month return is positive (negative); equal weight
    across assets with a signal.
  - vol_scaled_tsmom: tsmom signs with weight magnitude scaled by
    vol_target / realized vol, capped at a multiple of equal weight.
  - buy_hold: the whole balance in one symbol for the whole run
    (``buy_hold_symbol``).
  - equal_weight_buy_hold: 1/universe_size in each top-cap asset,
    re-equal-weighted at every month boundary.

Monthly variants close and reopen positions at month boundaries, paying the
fill costs both ways; tsmom variants additionally accrue funding while held
(they are leveraged long/short exposures), buy-and-hold variants do not
(plain spot holdings).

There is one accounting path: each position is one forced trade at a weight
(``hold_position``), which the backtester's window loop (``run_windows``)
sizes at the month-start balance, books with the month's others in one
ledger pass and rolls over the months, the same code that sizes, charges,
marks, rolls and scores the strategy. A benchmark run therefore returns
the strategy's ``BacktestResult``, balance decomposition and metrics
included, over the same month calendar (``Market.months``), and every kind,
buy-and-hold included, halts at the first balance <= 0. What differs between
the strategies is only the plan, each window's weighted positions: the trade
search, the TSMOM signs and weights, or a plain hold.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .backtester import (BacktestConfig, BacktestResult, Market,
                         month_windows, run_windows)
from .cost_model import LONG, SHORT
from .market_data import (CapIndex, DataError, PriceSeries, bars_per_year,
                          month_add, month_id)
from .signal_engine import NO_TRADES, Position, Trades

BENCHMARK_KINDS = ("tsmom", "vol_scaled_tsmom", "buy_hold",
                   "equal_weight_buy_hold")

# vol_scaled_tsmom: realized vol over the trailing 60 days, and a weight of
# at most 4x equal weight.
VOL_WINDOW_DAYS = 60
VOL_RATIO_CAP = 4.0


@dataclass(frozen=True)
class BenchmarkSpec:
    kind: str
    lookback_months: int = 1
    vol_target_annual: float = 0.10
    universe_size: int = 20
    symbol: Optional[str] = None

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


def hold_position(series: PriceSeries, side: str, weight: float,
                  window: Tuple[int, int]) -> Position:
    """Buy at the window's first bar close, sell at its last; no stops.

    One forced trade at ``weight`` (run_windows sizes it at the balance) for
    the window's ledger pass, which charges and marks it exactly as the
    strategy's trades. Fewer than two bars in the window yield no trade (a
    position cannot open and close on one bar).
    """
    i0, i1 = series.slice_indices(window[0], window[1])
    n = i1 - i0
    found = NO_TRADES
    if n >= 2:
        found = Trades(cell=np.zeros(1, np.intp), entry=np.zeros(1, np.intp),
                       exit=np.array([n - 1]), exit_px=series.close[i1 - 1:i1],
                       forced=np.array([True]), short=np.array([side == SHORT]))
    return Position(series, (i0, i1), found, weight)


# ---------------------------------------------------------------------------
# Signals
# ---------------------------------------------------------------------------

def top_cap_symbol(caps: CapIndex, month_start: int) -> Optional[str]:
    """The first of the cap ranking in force at month_start (the largest
    cap, ties to the smaller name); None without one."""
    ranking = caps.ranking(month_start)
    return ranking[0] if ranking else None


def buy_hold_symbol(symbol: Optional[str], market: Market, month_start: int,
                    data_dir: str = "the loaded data") -> str:
    """The symbol buy_hold holds from month_start: ``symbol`` when given,
    else the top_cap_symbol. Raises ValueError (DataError when the data
    lacks it) if there is none or it has no series in the market."""
    if symbol is not None:
        if symbol not in market.series:
            raise ValueError(f"benchmarks.buy_hold_symbol {symbol!r} is not"
                             f" in the universe in {data_dir}")
        return symbol
    symbol = top_cap_symbol(market.caps, month_start)
    if symbol is None:
        raise DataError(f"btc_bh: no market-cap snapshot in {data_dir} before"
                        f" {month_id(month_start)} to pick a symbol from; set"
                        " benchmarks.buy_hold_symbol")
    if symbol not in market.series:
        raise DataError(f"btc_bh: largest-cap symbol {symbol!r} before"
                        f" {month_id(month_start)} has no OHLCV file in"
                        f" {data_dir}")
    return symbol


def trailing_month_return(series: PriceSeries, month_start: int,
                          lookback_months: int) -> Optional[float]:
    """Return over the trailing lookback calendar months ending at month_start."""
    ts, close = series.timestamps, series.close
    i_now = int(np.searchsorted(ts, month_start, side="right")) - 1
    past = month_add(month_start, -lookback_months)
    i_past = int(np.searchsorted(ts, past, side="right")) - 1
    if i_past < 0 or i_now <= i_past:
        return None
    return float(close[i_now] / close[i_past] - 1.0)


def realized_vol(series: PriceSeries, month_start: int,
                 window_days: int) -> Optional[float]:
    """Annualized close-to-close volatility over the trailing window_days."""
    ts, close = series.timestamps, series.close
    lo = int(np.searchsorted(ts, month_start - window_days * 86_400, side="left"))
    hi = int(np.searchsorted(ts, month_start, side="right"))
    if hi - lo < 3:
        return None
    window = close[lo:hi]
    rets = window[1:] / window[:-1] - 1.0
    return (float(np.std(rets, ddof=1))
            * math.sqrt(bars_per_year(series.interval)))


def _month_weights(spec: BenchmarkSpec, market: Market, month_start: int
                   ) -> List[Tuple[str, str, float]]:
    """(symbol, side, |weight|) rows for one month of a monthly-rebalanced kind."""
    universe = market.series
    ranking = market.caps.ranking(month_start)
    if ranking is None:
        return []
    members = ranking[: spec.universe_size]

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
            sigma = realized_vol(series, month_start, VOL_WINDOW_DAYS)
            if sigma is None:
                continue
            ratio = (VOL_RATIO_CAP if sigma == 0.0
                     else min(spec.vol_target_annual / sigma, VOL_RATIO_CAP))
            signals.append((sym, side, ratio))
    if not signals:
        return []
    n = len(signals)
    return [(sym, side, mag / n) for sym, side, mag in signals]


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def run_benchmark(spec: BenchmarkSpec, market: Market,
                  cfg: BacktestConfig) -> BacktestResult:
    """Run one benchmark over cfg's window with cfg's cost model."""
    universe = market.series
    months = market.months(cfg)

    if spec.kind == "buy_hold":
        series = universe[buy_hold_symbol(spec.symbol, market, months[0])]
        windows = [(months[0], cfg.end)]
        plan = [[hold_position(series, LONG, 1.0, windows[0])]]
    else:
        windows = month_windows(months, cfg.end)
        plan = ([hold_position(universe[sym], side, w, window)
                 for sym, side, w in _month_weights(spec, market, window[0])
                 if w > 0.0] for window in windows)
    return run_windows(market, windows, plan, cfg, net_first=False,
                       charge_funding=spec.kind in ("tsmom",
                                                    "vol_scaled_tsmom"))
