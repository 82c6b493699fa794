"""Account-level simulation: the monthly rebalance loop over a universe.

Each month: build (or carry) a MonthlyPortfolio, size every sleeve position
as weight x month-start balance, run the per-symbol state machines over the
month's bars, and mark the account to market on the union of all symbols'
bar closes. Positions are force-closed at month end, so each month's PnL is
fully realized before the next month is sized. Capital freed by an intra-
month exit idles until the month ends (weights are set once per month).

Ablation variants toggle one pipeline component each and reuse the same loop.
"""

import logging
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cost_model import CostConfig
from .market_data import (DEFAULT_INTERVAL, DataError, MarketCapRecord,
                          PriceSeries, month_add, month_floor, month_id,
                          read_csv, write_csv)
from .rebalancer import (MonthlyPortfolio, RebalanceConfig, run_rebalance)
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
    sharpe_filter_enabled: bool = True
    reoptimize_enabled: bool = True
    intrabar_stop_fill: bool = False
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError("start must precede end")
        if self.initial_balance <= 0:
            raise ValueError("initial_balance must be > 0")
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
    equity: EquityCurve
    trades: List[TradeRecord]
    rebalance_log: List[dict]
    portfolios: List[MonthlyPortfolio]
    # Currency decomposition aligned with equity: balance = initial
    # + realized + open_mtm - open_costs at every sample.
    realized: np.ndarray
    open_mtm: np.ndarray
    open_costs: np.ndarray
    initial_balance: float


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
    ts_set = set()
    for series in universe.values():
        i0, i1 = series.slice_indices(window[0], window[1])
        ts_set.update(int(t) for t in series.arrays().timestamps[i0:i1])
    return np.array(sorted(ts_set), dtype=np.int64)


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


def _check_history(universe: Dict[str, PriceSeries], first_month: int,
                   last_month: int, interval: int) -> None:
    live = [s for s in universe.values() if len(s) > 0]
    if not live:
        raise DataError("universe has no bars")
    earliest = min(s.bars[0].timestamp for s in live)
    latest = max(s.bars[-1].timestamp for s in live)
    prev = month_add(first_month, -1)
    if earliest > prev + interval:
        raise DataError(
            "insufficient history: need data from the month before the first"
            f" rebalance ({prev}), earliest bar is {earliest}"
        )
    if latest < last_month:
        raise DataError(
            f"insufficient history: no data in the final month ({last_month})"
        )


def run_backtest(
    universe: Dict[str, PriceSeries],
    caps: Sequence[MarketCapRecord],
    cfg: BacktestConfig,
) -> BacktestResult:
    """Run the monthly loop over [start, end] (end-inclusive bar timestamps).

    The start is snapped forward to a calendar month boundary. The balance
    rolls across months; a balance <= 0 halts the run and flags the curve.
    """
    rcfg = cfg.rebalance
    if not cfg.sharpe_filter_enabled:
        rcfg = replace(rcfg, gamma_long=float("-inf"), gamma_short=float("-inf"))

    month_starts = month_starts_between(cfg.start, cfg.end)
    if not month_starts:
        raise DataError("no month boundary inside [start, end]")
    first_month = month_starts[0]
    _check_history(universe, first_month, month_starts[-1], cfg.interval)

    balance = cfg.initial_balance
    realized_total = 0.0
    portfolio: Optional[MonthlyPortfolio] = None

    anchor_ts = first_month - cfg.interval
    ts_chunks = [np.array([anchor_ts], dtype=np.int64)]
    bal_chunks = [np.array([balance])]
    realized_chunks = [np.zeros(1)]
    mtm_chunks = [np.zeros(1)]
    ocost_chunks = [np.zeros(1)]
    trades: List[TradeRecord] = []
    rebalance_log: List[dict] = []
    portfolios: List[MonthlyPortfolio] = []
    bankrupt = False

    for m in month_starts:
        window = (m, min(month_add(m, 1) - 1, cfg.end))
        if cfg.reoptimize_enabled or portfolio is None:
            portfolio, record = run_rebalance(
                universe, caps, m, rcfg, cfg.costs, cfg.interval,
                jobs=cfg.jobs, cap_filter_enabled=cfg.cap_filter_enabled,
            )
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

        month_results: List[SingleAssetResult] = []
        for side, allocations in (("long", portfolio.longs),
                                  ("short", portfolio.shorts)):
            for alloc in allocations:
                series = universe.get(alloc.symbol)
                if series is None:
                    continue
                res = run_single_asset(
                    series, alloc.params, side_enabled=side, window=window,
                    size=alloc.weight * balance, cost_cfg=cfg.costs,
                    trailing=cfg.trailing_stop_enabled,
                    intrabar_stop_fill=cfg.intrabar_stop_fill,
                )
                month_results.append(res)
                trades.extend(res.trades)

        # Mark to market on the union of every universe symbol's closes so the
        # equity timeline does not depend on what happened to be selected.
        month_ts = union_timeline(universe, window)
        if len(month_ts) == 0:
            continue
        realized_m, mtm_m, ocost_m = aggregate_results(month_ts, month_results)
        contrib = realized_m + mtm_m - ocost_m

        balances_m = balance + contrib
        nonpositive = np.flatnonzero(balances_m <= 0.0)
        if len(nonpositive) > 0:
            stop_at = nonpositive[0] + 1
            month_ts = month_ts[:stop_at]
            balances_m = balances_m[:stop_at]
            realized_m, mtm_m, ocost_m = (a[:stop_at] for a in
                                          (realized_m, mtm_m, ocost_m))
            bankrupt = True
            logger.warning("balance depleted at %d; halting run", int(month_ts[-1]))

        ts_chunks.append(month_ts)
        bal_chunks.append(balances_m)
        realized_chunks.append(realized_total + realized_m)
        mtm_chunks.append(mtm_m)
        ocost_chunks.append(ocost_m)

        if bankrupt:
            break
        balance = float(balances_m[-1])
        realized_total += float(realized_m[-1])

    equity = EquityCurve(
        timestamps=np.concatenate(ts_chunks),
        balances=np.concatenate(bal_chunks),
        bankrupt=bankrupt,
    )
    trades.sort(key=lambda t: (t.entry_ts, t.exit_ts, t.symbol, t.side))
    return BacktestResult(
        equity=equity,
        trades=trades,
        rebalance_log=rebalance_log,
        portfolios=portfolios,
        realized=np.concatenate(realized_chunks),
        open_mtm=np.concatenate(mtm_chunks),
        open_costs=np.concatenate(ocost_chunks),
        initial_balance=cfg.initial_balance,
    )


def ablation_config(cfg: BacktestConfig, variant: str) -> BacktestConfig:
    """The base config with exactly one pipeline component toggled."""
    if variant == "full":
        return cfg
    if variant == "no_trailing_stop":
        return replace(cfg, trailing_stop_enabled=False)
    if variant == "no_cap_filter":
        return replace(cfg, cap_filter_enabled=False)
    if variant == "no_sharpe_filter":
        return replace(cfg, sharpe_filter_enabled=False)
    if variant == "symmetric_allocation":
        return replace(cfg, rebalance=replace(cfg.rebalance, long_ratio=0.5))
    if variant == "fixed_params":
        return replace(cfg, reoptimize_enabled=False)
    raise ValueError(f"unknown ablation variant {variant!r};"
                     f" expected one of {ABLATION_VARIANTS}")


def run_ablation(
    universe: Dict[str, PriceSeries],
    caps: Sequence[MarketCapRecord],
    cfg: BacktestConfig,
    variant: str,
):
    """Run one ablation variant; returns (MetricsReport, BacktestResult)."""
    from .analytics import compute_metrics  # deferred: analytics uses EquityCurve
    from .market_data import bars_per_year

    result = run_backtest(universe, caps, ablation_config(cfg, variant))
    report = compute_metrics(result.equity, result.trades,
                             rf_annual=cfg.rebalance.rf_annual,
                             bars_per_year=bars_per_year(cfg.interval))
    return report, result


# ---------------------------------------------------------------------------
# Equity curve serialization
# ---------------------------------------------------------------------------

def save_equity(curve: EquityCurve, path: str) -> None:
    write_csv(path, EQUITY_HEADER, ([int(ts), bal] for ts, bal
                                    in zip(curve.timestamps, curve.balances)))


def load_equity(path: str) -> EquityCurve:
    rows = read_csv(path, EQUITY_HEADER,
                    lambda row: (int(row[0]), float(row[1])))
    return EquityCurve(timestamps=np.array([t for t, _ in rows], dtype=np.int64),
                       balances=np.array([b for _, b in rows], dtype=np.float64))
