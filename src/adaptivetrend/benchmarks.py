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
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .analytics import MetricsReport, compute_metrics
from .backtester import (BacktestConfig, EquityCurve, aggregate_results,
                         month_starts_between, union_timeline)
from .cost_model import LONG, SHORT, CostConfig, fee, funding, slippage
from .market_data import (MarketCapRecord, PriceSeries, bars_per_year,
                          date_of_ts, month_add)
from .rebalancer import CapIndex, cap_snapshot
from .signal_engine import SingleAssetResult, TradeRecord, gross_pnl

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

    Produces the same per-bar decomposition as the signal engine so the
    account aggregation code is shared. Fewer than two bars in the window
    yields an empty result (a position cannot open and close on one bar).
    """
    arr = series.arrays
    i0, i1 = arr.slice_indices(window[0], window[1])
    n = i1 - i0
    timestamps = arr.timestamps[i0:i1].copy()
    empty = SingleAssetResult(
        symbol=series.symbol, timestamps=timestamps,
        position=np.zeros(n, dtype=np.int8), stop=np.full(n, np.nan),
        gross_returns=np.zeros(n), net_returns=np.zeros(n),
        costs=np.zeros(n), realized_cum=np.zeros(n), open_mtm=np.zeros(n),
        open_costs=np.zeros(n), trades=[],
    )
    if n < 2:
        return empty
    res = empty
    sign = 1 if side == LONG else -1
    entry_px = float(arr.close[i0])
    entry_ts = int(arr.timestamps[i0])
    exit_px = float(arr.close[i1 - 1])
    exit_ts = int(arr.timestamps[i1 - 1])

    pos_fee = pos_slip = pos_funding = 0.0
    if cost_cfg is not None:
        pos_fee = fee(size, cost_cfg)
        pos_slip = slippage(size, arr.bar(i0), cost_cfg, series.interval)
    res.costs[0] = pos_fee + pos_slip
    res.position[:] = sign
    res.position[-1] = 0

    for local in range(1, n):
        i = i0 + local
        bar_cost = 0.0
        if cost_cfg is not None and charge_funding:
            f = funding(side, size, int(arr.timestamps[i - 1]),
                        int(arr.timestamps[i]), cost_cfg, series.symbol)
            pos_funding += f
            bar_cost += f
        res.gross_returns[local] = sign * (arr.close[i] / arr.close[i - 1] - 1.0)
        if local == n - 1 and cost_cfg is not None:
            exit_notional = size * exit_px / entry_px
            exit_fee = fee(exit_notional, cost_cfg)
            exit_slip = slippage(exit_notional, arr.bar(i), cost_cfg,
                                 series.interval)
            pos_fee += exit_fee
            pos_slip += exit_slip
            bar_cost += exit_fee + exit_slip
        res.costs[local] = bar_cost
        if local < n - 1:
            res.open_mtm[local] = gross_pnl(side, size, entry_px,
                                            float(arr.close[i]))
            res.open_costs[local] = pos_fee + pos_slip + pos_funding

    gross = gross_pnl(side, size, entry_px, exit_px)
    net = gross - pos_fee - pos_slip - pos_funding
    trade = TradeRecord(
        symbol=series.symbol, side=side, entry_ts=entry_ts, entry_px=entry_px,
        exit_ts=exit_ts, exit_px=exit_px, size=size, gross_pnl=gross,
        fee_cost=pos_fee, slippage_cost=pos_slip, funding_cost=pos_funding,
        net_pnl=net, forced=True,
    )
    res.trades.append(trade)
    res.realized_cum[-1] = net
    res.net_returns[:] = res.gross_returns - res.costs / size
    res.open_costs[0] = res.costs[0]
    return res


# ---------------------------------------------------------------------------
# Signals
# ---------------------------------------------------------------------------

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
        raise ValueError("no month boundary inside [start, end]")
    first_month = months[0]
    anchor_ts = first_month - cfg.interval

    ts_chunks = [np.array([anchor_ts], dtype=np.int64)]
    bal_chunks = [np.array([cfg.initial_balance])]
    trades: List[TradeRecord] = []

    if spec.kind == "buy_hold":
        symbol = spec.symbol
        if symbol is None:
            snapshot = cap_snapshot(caps, date_of_ts(first_month - 1))
            if not snapshot:
                raise ValueError("buy_hold needs a cap snapshot to pick a symbol")
            symbol = sorted(snapshot, key=lambda s: (-snapshot[s], s))[0]
        series = universe.get(symbol)
        if series is None:
            raise ValueError(f"buy_hold symbol {symbol!r} not in universe")
        window = (first_month, cfg.end)
        res = hold_position(series, LONG, cfg.initial_balance, window,
                            cfg.costs, charge_funding=False)
        trades.extend(res.trades)
        timeline = union_timeline(universe, window)
        realized, mtm, ocost = aggregate_results(timeline, [res])
        ts_chunks.append(timeline)
        bal_chunks.append(cfg.initial_balance + realized + mtm - ocost)
    else:
        charge_funding = spec.kind in ("tsmom", "vol_scaled_tsmom")
        balance = cfg.initial_balance
        for m in months:
            window = (m, min(month_add(m, 1) - 1, cfg.end))
            weights = _month_weights(spec, universe, caps, m, bpy)
            results = []
            for sym, side, w in weights:
                if w <= 0.0:
                    continue
                res = hold_position(universe[sym], side, w * balance, window,
                                    cfg.costs, charge_funding)
                results.append(res)
                trades.extend(res.trades)
            timeline = union_timeline(universe, window)
            if len(timeline) == 0:
                continue
            realized, mtm, ocost = aggregate_results(timeline, results)
            balances_m = balance + realized + mtm - ocost
            nonpositive = np.flatnonzero(balances_m <= 0.0)
            if len(nonpositive) > 0:
                stop_at = nonpositive[0] + 1
                timeline, balances_m = timeline[:stop_at], balances_m[:stop_at]
            ts_chunks.append(timeline)
            bal_chunks.append(balances_m)
            balance = float(balances_m[-1])
            if balance <= 0:
                break

    equity = EquityCurve(timestamps=np.concatenate(ts_chunks),
                         balances=np.concatenate(bal_chunks),
                         bankrupt=bal_chunks[-1][-1] <= 0)
    trades.sort(key=lambda t: (t.entry_ts, t.exit_ts, t.symbol, t.side))
    metrics = compute_metrics(equity, trades, rf_annual=cfg.rebalance.rf_annual,
                              bars_per_year=bpy)
    return BenchmarkRun(kind=spec.kind, equity=equity, metrics=metrics,
                        trades=trades)
