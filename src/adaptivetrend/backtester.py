"""Account-level simulation: the monthly rebalance loop over a universe.

Each month: build (or carry) a MonthlyPortfolio, size every sleeve position
as weight x month-start balance, trade each symbol over the month's bars,
and mark the account to market on the union of all symbols' bar closes.
Positions are force-closed at month end, so each month's PnL is fully
realized before the next month is sized. Capital freed by an intra-month
exit idles until the month ends (weights are set once per month).

Ablation variants toggle one pipeline component each and reuse the same loop.
The loop over months itself (``run_windows``: marking, the balance roll, the
halt at bankruptcy and the metrics) is shared with the comparison benchmarks,
and its ``BacktestResult`` is the one result of every run. Every run over one
loaded universe reads it through one ``Market``, which builds what the runs
share once (the cap index, the timeline and the optimizer) and checks each
run's month calendar (``Market.months``). A month's rebalance takes that
market and the run's BacktestConfig whole
(``run_rebalance(market, month_start, cfg)``).
"""

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import analytics
from .analytics import MetricsReport
from .cost_model import CostConfig
from .market_data import (DEFAULT_INTERVAL, CapIndex, DataError, PriceSeries,
                          bars_per_year, month_add, month_floor, month_id,
                          read_csv, write_columns)
from .rebalancer import (MonthlyPortfolio, Optimizer, ParamGrid,
                         RebalanceConfig, run_rebalance)
from .signal_engine import SingleAssetResult, TradeRecord, run_single_asset

logger = logging.getLogger(__name__)

EQUITY_HEADER = ["timestamp", "balance"]

ABLATION_VARIANTS = ("full", "no_trailing_stop", "no_cap_filter",
                     "no_sharpe_filter", "symmetric_allocation", "fixed_params")


@dataclass(frozen=True)
class BacktestConfig:
    start: int
    end: int
    initial_balance: float = 100_000.0
    interval: int = DEFAULT_INTERVAL
    rebalance: RebalanceConfig = field(default_factory=RebalanceConfig)
    costs: CostConfig = field(default_factory=CostConfig)
    trailing_stop_enabled: bool = True
    cap_filter_enabled: bool = True
    reoptimize_enabled: bool = True
    intrabar_stop_fill: bool = False

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError("start must precede end")
        if not 0 < self.initial_balance < math.inf:
            raise ValueError("initial_balance must be > 0 and finite, got"
                             f" {self.initial_balance}")
        if self.interval <= 0:
            raise ValueError("interval must be > 0")


@dataclass
class EquityCurve:
    """Account balance sampled at bar closes; bankrupt marks a halted run."""

    timestamps: np.ndarray
    balances: np.ndarray
    bankrupt: bool = False

    def __len__(self) -> int:
        return len(self.timestamps)

    def returns(self) -> np.ndarray:
        """Per-sample simple returns."""
        return self.balances[1:] / self.balances[:-1] - 1.0


@dataclass
class BacktestResult:
    """A strategy's or a benchmark's run; a benchmark has no rebalance log."""

    equity: EquityCurve
    trades: List[TradeRecord]
    # Currency decomposition aligned with equity: balance = equity.balances[0]
    # + realized + open_mtm - open_costs at every sample.
    realized: np.ndarray
    open_mtm: np.ndarray
    open_costs: np.ndarray
    metrics: MetricsReport
    rebalance_log: List[dict] = field(default_factory=list)
    portfolios: List[MonthlyPortfolio] = field(default_factory=list)


def snap_to_month(ts: int) -> int:
    """ts if it is a month boundary, else the next month's start."""
    floor = month_floor(ts)
    return floor if floor == ts else month_add(floor, 1)


def month_starts_between(start: int, end: int) -> List[int]:
    """Calendar month boundaries covering [snap_to_month(start), end]."""
    months = []
    m = snap_to_month(start)
    while m <= end:
        months.append(m)
        m = month_add(m, 1)
    return months


def union_timeline(universe: Dict[str, PriceSeries],
                   window: Tuple[int, int]) -> np.ndarray:
    """Sorted union of every symbol's bar timestamps inside the window."""
    chunks = [np.empty(0, dtype=np.int64)]
    for series in universe.values():
        i0, i1 = series.slice_indices(window[0], window[1])
        chunks.append(series.timestamps[i0:i1])
    # The chunks are sorted runs, which a stable sort merges faster than
    # np.unique's hash; then drop the repeats.
    merged = np.sort(np.concatenate(chunks), kind="stable")
    first = np.ones(len(merged), dtype=bool)
    first[1:] = merged[1:] != merged[:-1]
    return merged[first]


class Market:
    """One loaded universe and what every run over it shares, each built once.

    ``series`` maps symbol to PriceSeries, ``caps`` is their CapIndex,
    ``timeline`` the sorted union of every bar close (run_windows slices each
    window out of it), and ``optimizer`` the Optimizer whose memo every run
    over the market shares, so no month, sweep point or ablation solves a
    grid search that another has solved. ``grids`` are the grids of the runs
    that will go over the market, if they are known: the optimizer then
    searches the problems of all of them at once (see Optimizer). The series
    must not change while the market is in use.
    """

    def __init__(self, series: Dict[str, PriceSeries], caps: CapIndex,
                 grids: Sequence[ParamGrid] = ()) -> None:
        self.series = series
        self.caps = caps
        every = np.iinfo(np.int64)
        self.timeline = union_timeline(series, (every.min, every.max))
        self.optimizer = Optimizer(series, grids)

    def months(self, cfg: BacktestConfig) -> List[int]:
        """The month starts of a run over [cfg.start, cfg.end]; DataError
        unless every series has the run's bar interval and the bars reach
        from the month before the first into the last."""
        for symbol, series in self.series.items():
            if series.interval != cfg.interval:
                raise DataError(f"{symbol}: bar interval {series.interval} s"
                                f" differs from the run's {cfg.interval} s")
        months = month_starts_between(cfg.start, cfg.end)
        if not months:
            raise DataError("no month boundary inside [start, end]")
        if len(self.timeline) == 0:
            raise DataError("universe has no bars")
        earliest, latest = int(self.timeline[0]), int(self.timeline[-1])
        prev = month_add(months[0], -1)
        if earliest > prev + cfg.interval:
            raise DataError(
                "insufficient history: need data from the month before the"
                f" first rebalance ({prev}), earliest bar is {earliest}"
            )
        if latest < months[-1]:
            raise DataError("insufficient history: no data in the final month"
                            f" ({months[-1]})")
        return months


def aggregate_results(
    timeline: np.ndarray,
    results: Sequence[SingleAssetResult],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward-fill each result's decomposition onto a shared timeline.

    Returns (realized, open_mtm, open_costs) currency arrays summed across
    results; before a result's first bar its contribution is zero.
    """
    realized = np.zeros(len(timeline))
    mtm = np.zeros(len(timeline))
    ocost = np.zeros(len(timeline))
    for res in results:
        if len(res.timestamps) == 0:
            continue
        idx = np.searchsorted(res.timestamps, timeline, side="right") - 1
        live = idx >= 0
        pick = np.maximum(idx, 0)
        realized += np.where(live, res.realized_cum[pick], 0.0)
        mtm += np.where(live, res.open_mtm[pick], 0.0)
        ocost += np.where(live, res.open_costs[pick], 0.0)
    return realized, mtm, ocost


def month_windows(months: Sequence[int], end: int) -> List[Tuple[int, int]]:
    """(start, end) of each calendar month, the last one cut at ``end``."""
    return [(m, min(month_add(m, 1) - 1, end)) for m in months]


def run_windows(
    timeline: np.ndarray,
    windows: Sequence[Tuple[int, int]],
    cfg: BacktestConfig,
    simulate: Callable[[Tuple[int, int], float], List[SingleAssetResult]],
    *,
    net_first: bool,
) -> BacktestResult:
    """Roll the balance over consecutive windows; the loop every run shares.

    ``simulate(window, balance)`` trades one window with positions sized on
    the balance at its start and returns their results. The account is
    marked on the window's slice of ``timeline``, the union of every universe
    symbol's closes (so it does not depend on what was traded), and the
    balance at the window's last close carries into the next window. A
    window with no bars is skipped with a warning; if every window is, there
    is nothing to score and DataError is raised. A balance <= 0 halts the run
    there and flags the curve.

    The strategy adds a window's net change to its starting balance in one
    step (net_first), the benchmarks add realized PnL, open MTM and open
    costs in turn; the two orders round differently, and both runs' equity
    is kept bit for bit.

    Returns the result: the equity curve, anchored at cfg.initial_balance one
    interval before the first window, the trades sorted by (entry, exit,
    symbol, side), the curve's realized / open_mtm / open_costs decomposition,
    and its metrics at cfg's risk-free rate and bar interval.
    """
    balance = cfg.initial_balance
    realized_total = 0.0
    ts_chunks = [np.array([windows[0][0] - cfg.interval], dtype=np.int64)]
    bal_chunks = [np.array([balance])]
    realized_chunks = [np.zeros(1)]
    mtm_chunks = [np.zeros(1)]
    ocost_chunks = [np.zeros(1)]
    trades: List[TradeRecord] = []
    bankrupt = False

    for window in windows:
        results = simulate(window, balance)
        for res in results:
            trades.extend(res.trades)
        marks = timeline[np.searchsorted(timeline, window[0]):
                         np.searchsorted(timeline, window[1], side="right")]
        if len(marks) == 0:
            logger.warning("%s: no bars in [%d, %d]; period skipped",
                           month_id(window[0]), window[0], window[1])
            continue
        realized, mtm, ocost = aggregate_results(marks, results)
        if net_first:
            balances = balance + (realized + mtm - ocost)
        else:
            balances = balance + realized + mtm - ocost
        nonpositive = np.flatnonzero(balances <= 0.0)
        if len(nonpositive) > 0:
            stop_at = nonpositive[0] + 1
            marks, balances, realized, mtm, ocost = (
                a[:stop_at] for a in (marks, balances, realized, mtm, ocost))
            bankrupt = True
            logger.warning("balance depleted at %d; halting run",
                           int(marks[-1]))

        ts_chunks.append(marks)
        bal_chunks.append(balances)
        realized_chunks.append(realized_total + realized)
        mtm_chunks.append(mtm)
        ocost_chunks.append(ocost)
        if bankrupt:
            break
        balance = float(balances[-1])
        realized_total += float(realized[-1])

    if len(ts_chunks) == 1:
        raise DataError(f"no bars in [{windows[0][0]}, {windows[-1][1]}]:"
                        " nothing to backtest")
    equity = EquityCurve(timestamps=np.concatenate(ts_chunks),
                         balances=np.concatenate(bal_chunks), bankrupt=bankrupt)
    trades.sort(key=lambda t: (t.entry_ts, t.exit_ts, t.symbol, t.side))
    metrics = analytics.compute_metrics(
        equity, trades, rf_annual=cfg.rebalance.rf_annual,
        bars_per_year=bars_per_year(cfg.interval))
    return BacktestResult(
        equity, trades, np.concatenate(realized_chunks),
        np.concatenate(mtm_chunks), np.concatenate(ocost_chunks), metrics)


def run_backtest(market: Market, cfg: BacktestConfig) -> BacktestResult:
    """Run the monthly loop over [start, end] (end-inclusive bar timestamps).

    The start is snapped forward to a calendar month boundary. The balance
    rolls across months; a balance <= 0 halts the run and flags the curve.
    The grid searches go to the market's optimizer, so runs over one market
    solve a repeated problem once.
    """
    month_starts = market.months(cfg)
    portfolio: Optional[MonthlyPortfolio] = None
    rebalance_log: List[dict] = []
    portfolios: List[MonthlyPortfolio] = []

    def simulate(window: Tuple[int, int], balance: float
                 ) -> List[SingleAssetResult]:
        nonlocal portfolio
        m = window[0]
        if cfg.reoptimize_enabled or portfolio is None:
            portfolio, record = run_rebalance(market, m, cfg)
        else:
            carried_from = portfolios[0].month
            portfolio = replace(portfolio, month=month_id(m))
            record = {
                "month": portfolio.month, "reoptimized": False,
                "carried_from": carried_from,
                "selected_longs": [a.symbol for a in portfolio.longs],
                "selected_shorts": [a.symbol for a in portfolio.shorts],
                "cash_weight": portfolio.cash_weight,
            }
        record["balance_start"] = balance
        rebalance_log.append(record)
        portfolios.append(portfolio)

        return [run_single_asset(
            market.series[alloc.symbol], alloc.params, window=window,
            size=alloc.weight * balance, cost_cfg=cfg.costs,
            trailing=cfg.trailing_stop_enabled,
            intrabar_stop_fill=cfg.intrabar_stop_fill)
            for alloc in portfolio.longs + portfolio.shorts]

    result = run_windows(market.timeline, month_windows(month_starts, cfg.end),
                         cfg, simulate, net_first=True)
    return replace(result, rebalance_log=rebalance_log, portfolios=portfolios)


def ablation_config(cfg: BacktestConfig, variant: str) -> BacktestConfig:
    """The base config with exactly one pipeline component toggled."""
    if variant == "full":
        return cfg
    if variant == "no_trailing_stop":
        return replace(cfg, trailing_stop_enabled=False)
    if variant == "no_cap_filter":
        return replace(cfg, cap_filter_enabled=False)
    if variant == "no_sharpe_filter":
        # Thresholds of -inf admit every candidate with a defined Sharpe.
        return replace(cfg, rebalance=replace(cfg.rebalance,
                                              gamma_long=float("-inf"),
                                              gamma_short=float("-inf")))
    if variant == "symmetric_allocation":
        return replace(cfg, rebalance=replace(cfg.rebalance, long_ratio=0.5))
    if variant == "fixed_params":
        return replace(cfg, reoptimize_enabled=False)
    raise ValueError(f"unknown ablation variant {variant!r};"
                     f" expected one of {ABLATION_VARIANTS}")


def run_ablation(market: Market, cfg: BacktestConfig,
                 variant: str) -> BacktestResult:
    """Run one ablation variant.

    Variants run over one market share its solved grid searches."""
    return run_backtest(market, ablation_config(cfg, variant))


# ---------------------------------------------------------------------------
# Equity curve serialization
# ---------------------------------------------------------------------------

def save_equity(curve: EquityCurve, path: str) -> None:
    write_columns(path, EQUITY_HEADER,
                  [curve.timestamps.tolist(), curve.balances.tolist()])


def load_equity(path: str) -> EquityCurve:
    rows = read_csv(path, EQUITY_HEADER,
                    lambda row: (int(row[0]), float(row[1])))
    return EquityCurve(timestamps=np.array([t for t, _ in rows], dtype=np.int64),
                       balances=np.array([b for _, b in rows], dtype=np.float64))
