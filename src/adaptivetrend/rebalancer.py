"""Monthly portfolio construction.

Four stages, run at each month boundary:
  1. filter_universe: rank symbols by the most recent market-cap snapshot;
     top-K become long candidates, bottom-K short candidates.
  2. optimize_params: per candidate, grid-search entry/stop parameters on the
     preceding calendar month (ending one buffer before the month start),
     maximizing the annualized Sharpe of the candidate's net per-bar returns
     under the execution model the month trades with.
  3. select_and_allocate: admit candidates whose optimized Sharpe clears the
     per-side threshold; split capital long_ratio / (1 - long_ratio) across
     the two sleeves, equal weight within each.
The result is a MonthlyPortfolio; anything not allocated stays in cash.
"""

import bisect
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import date
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .cost_model import CostConfig
from .indicators import rolling_sharpe
from .market_data import (MarketCapRecord, PriceSeries, SeriesArrays,
                          bars_per_year, date_of_ts, month_add, month_id)
from .signal_engine import StrategyParams, grid_sharpes, run_single_asset

logger = logging.getLogger(__name__)

INF = float("inf")

DEFAULT_THETA_GRID = (0.01, 0.02, 0.03, 0.05, 0.08)
DEFAULT_ALPHA_GRID = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
DEFAULT_LOOKBACK_GRID = (4, 8, 12, 20, 28)


@dataclass(frozen=True)
class ParamGrid:
    """Candidate values for the grid search; the ATR window is held fixed."""

    theta_entry: Tuple[float, ...] = DEFAULT_THETA_GRID
    theta_entry_short: Tuple[float, ...] = DEFAULT_THETA_GRID
    alpha: Tuple[float, ...] = DEFAULT_ALPHA_GRID
    lookback: Tuple[int, ...] = DEFAULT_LOOKBACK_GRID
    atr_window: int = 14

    def __post_init__(self) -> None:
        for name in ("theta_entry", "theta_entry_short", "alpha", "lookback"):
            if not getattr(self, name):
                raise ValueError(f"grid axis {name} must be nonempty")
        if self.atr_window < 1:
            raise ValueError("atr_window must be >= 1")


@dataclass(frozen=True)
class RebalanceConfig:
    k_long: int = 15
    k_short: int = 15
    gamma_long: float = 1.3
    gamma_short: float = 1.7
    long_ratio: float = 0.7
    grid: ParamGrid = field(default_factory=ParamGrid)
    buffer_bars: int = 4
    rf_annual: float = 0.045

    def __post_init__(self) -> None:
        if self.k_long < 1 or self.k_short < 1:
            raise ValueError("candidate counts must be >= 1")
        if not 0.0 <= self.long_ratio <= 1.0:
            raise ValueError("long_ratio must lie in [0, 1]")
        if self.buffer_bars < 0:
            raise ValueError("buffer_bars must be >= 0")


@dataclass(frozen=True)
class Allocation:
    symbol: str
    params: StrategyParams
    weight: float


@dataclass(frozen=True)
class CandidateResult:
    symbol: str
    params: StrategyParams
    sharpe: float


@dataclass(frozen=True)
class MonthlyPortfolio:
    """One rebalance outcome; weights are fractions of the month-start balance."""

    month: str
    longs: Tuple[Allocation, ...]
    shorts: Tuple[Allocation, ...]
    cash_weight: float


# ---------------------------------------------------------------------------
# Stage 1: market-cap filtering
# ---------------------------------------------------------------------------

class CapIndex(tuple):
    """Cap records (a tuple) plus each date's snapshot in date order, so that
    cap_snapshot bisects instead of scanning. Build one per run; building one
    from a CapIndex returns it unchanged."""

    def __new__(cls, caps: Iterable[MarketCapRecord]) -> "CapIndex":
        if isinstance(caps, cls):
            return caps
        self = super().__new__(cls, caps)
        self.snapshots: Dict[date, Dict[str, float]] = {}
        for r in sorted(self, key=lambda r: r.date):  # stable: file order
            self.snapshots.setdefault(r.date, {})[r.symbol] = r.cap
        self.dates = list(self.snapshots)
        return self


def cap_snapshot(caps: Sequence[MarketCapRecord],
                 as_of: date) -> Optional[Dict[str, float]]:
    """symbol -> cap on the most recent snapshot date at or before as_of."""
    index = CapIndex(caps)
    k = bisect.bisect_right(index.dates, as_of)
    return dict(index.snapshots[index.dates[k - 1]]) if k else None


def filter_universe(
    caps: Sequence[MarketCapRecord],
    as_of: date,
    cfg: RebalanceConfig,
) -> Optional[Tuple[List[str], List[str]]]:
    """Top-k_long / bottom-k_short symbols by cap on the latest snapshot <= as_of.

    Ties rank the lexicographically smaller symbol first on both sides. A
    symbol qualifying for both sides stays a long candidate only. Returns
    None when no snapshot exists on or before as_of (skip the rebalance).
    """
    snapshot = cap_snapshot(caps, as_of)
    if snapshot is None:
        return None
    by_cap_desc = sorted(snapshot, key=lambda s: (-snapshot[s], s))
    by_cap_asc = sorted(snapshot, key=lambda s: (snapshot[s], s))
    long_candidates = by_cap_desc[: cfg.k_long]
    short_candidates = by_cap_asc[: cfg.k_short]
    overlap = set(long_candidates)
    short_candidates = [s for s in short_candidates if s not in overlap]
    return long_candidates, short_candidates


# ---------------------------------------------------------------------------
# Stage 2: per-candidate grid search
# ---------------------------------------------------------------------------

def grid_cells(grid: ParamGrid, side: str) -> List[StrategyParams]:
    """All parameter cells for one side, in tie-break order.

    Cells are ordered by (entry threshold, alpha, lookback) ascending; the
    optimizer keeps the first cell achieving the maximum Sharpe, so earlier
    cells win ties. The opposite side's threshold is disabled via +inf.
    """
    thetas = grid.theta_entry if side == "long" else grid.theta_entry_short
    cells = []
    for theta in sorted(thetas):
        for alpha in sorted(grid.alpha):
            for lookback in sorted(grid.lookback):
                if side == "long":
                    cells.append(StrategyParams(theta, INF, alpha, lookback,
                                                grid.atr_window))
                else:
                    cells.append(StrategyParams(INF, theta, alpha, lookback,
                                                grid.atr_window))
    return cells


def evaluate_cell(
    series: PriceSeries,
    params: StrategyParams,
    side: str,
    window: Tuple[int, int],
    cost_cfg: Optional[CostConfig],
    rf_annual: float,
    *,
    trailing: bool = True,
    intrabar_stop_fill: bool = False,
) -> Optional[float]:
    """Annualized Sharpe of the cell's net per-bar returns; None if unusable.

    Zero trades in the window, or a return series whose Sharpe is undefined,
    disqualify the cell. This is the one-cell reference that the batched
    search in optimize_params is tested against.
    """
    result = run_single_asset(series, params, side_enabled=side, window=window,
                              size=1.0, cost_cfg=cost_cfg, trailing=trailing,
                              intrabar_stop_fill=intrabar_stop_fill)
    if not result.trades:
        return None
    return rolling_sharpe(result.net_returns, rf_annual,
                          bars_per_year(series.interval))


def optimize_params(
    series: PriceSeries,
    side: str,
    window: Tuple[int, int],
    grid: ParamGrid,
    cost_cfg: Optional[CostConfig],
    rf_annual: float = 0.045,
    *,
    trailing: bool = True,
    intrabar_stop_fill: bool = False,
) -> Optional[CandidateResult]:
    """Exhaustive grid search for one candidate on one side.

    Requires the window to hold at least twice the largest momentum lookback
    in bars; shorter windows disqualify the candidate (logged). Returns the
    best cell with its Sharpe, or None when no cell produced a defined one.
    Every cell is scored as evaluate_cell would score it under the same
    execution flags, in one batched pass (signal_engine.grid_sharpes); the
    first cell with the maximum wins.
    """
    return _optimize(series.symbol, series.interval, series.arrays, side,
                     window, grid, cost_cfg, rf_annual, trailing,
                     intrabar_stop_fill)


def _optimize(
    symbol: str,
    interval: int,
    arr: SeriesArrays,
    side: str,
    window: Tuple[int, int],
    grid: ParamGrid,
    cost_cfg: Optional[CostConfig],
    rf_annual: float,
    trailing: bool,
    intrabar_stop_fill: bool,
) -> Optional[CandidateResult]:
    i0, i1 = arr.slice_indices(window[0], window[1])
    needed = 2 * max(grid.lookback)
    if i1 - i0 < needed:
        logger.info("%s: optimization window has %d bars, needs %d; excluded",
                    symbol, i1 - i0, needed)
        return None
    cells = grid_cells(grid, side)
    sharpes = grid_sharpes(arr, interval, symbol, cells, side, (i0, i1),
                           cost_cfg, rf_annual, trailing=trailing,
                           intrabar_stop_fill=intrabar_stop_fill)
    scores = np.where(np.isnan(sharpes), -INF, sharpes)
    best = int(np.argmax(scores))
    if not scores[best] > -INF:
        return None
    return CandidateResult(symbol, cells[best], float(sharpes[best]))


# ---------------------------------------------------------------------------
# Stage 3: selection and allocation
# ---------------------------------------------------------------------------

def select_and_allocate(
    month: str,
    long_results: Sequence[CandidateResult],
    short_results: Sequence[CandidateResult],
    cfg: RebalanceConfig,
) -> MonthlyPortfolio:
    """Threshold the optimized Sharpes and split capital across the sleeves.

    Admission is inclusive (sharpe >= gamma). Each admitted long receives
    long_ratio / n_longs of the balance, each short (1 - long_ratio) /
    n_shorts; an empty sleeve's share stays in cash. A sleeve whose share is
    0 (long_ratio 0 or 1) admits nothing, since a position needs a size.
    """
    longs = sorted((r for r in long_results if r.sharpe >= cfg.gamma_long),
                   key=lambda r: r.symbol)
    shorts = sorted((r for r in short_results if r.sharpe >= cfg.gamma_short),
                    key=lambda r: r.symbol)
    lam = cfg.long_ratio
    for side, admitted, share in (("long", longs, lam),
                                  ("short", shorts, 1.0 - lam)):
        if share == 0.0 and admitted:
            logger.info("%s: the %s sleeve has no capital; %d candidates"
                        " not admitted", month, side, len(admitted))
            admitted.clear()
    long_alloc = tuple(Allocation(r.symbol, r.params, lam / len(longs))
                       for r in longs)
    short_alloc = tuple(Allocation(r.symbol, r.params, (1.0 - lam) / len(shorts))
                        for r in shorts)
    cash = 1.0 - math.fsum(a.weight for a in long_alloc) \
               - math.fsum(a.weight for a in short_alloc)
    return MonthlyPortfolio(month=month, longs=long_alloc, shorts=short_alloc,
                            cash_weight=cash)


# ---------------------------------------------------------------------------
# The full monthly pipeline
# ---------------------------------------------------------------------------

def optimization_window(month_start: int, interval: int,
                        buffer_bars: int) -> Tuple[int, int]:
    """[preceding month start, month start - buffer] as inclusive timestamps."""
    return month_add(month_start, -1), month_start - buffer_bars * interval


def has_month_history(series: PriceSeries, window_start: int) -> bool:
    """True when the series starts early enough to cover the whole window."""
    return (len(series) > 0
            and int(series.arrays.timestamps[0]) <= window_start + series.interval)


def _candidate_task(args) -> Tuple[str, Optional[CandidateResult]]:
    # args: _optimize's positional arguments, the symbol first
    return args[0], _optimize(*args)


def _optimize_side(
    symbols: Sequence[str],
    side: str,
    universe: Dict[str, PriceSeries],
    window: Tuple[int, int],
    cfg: RebalanceConfig,
    cost_cfg: Optional[CostConfig],
    jobs: int,
    execution: Tuple[bool, bool],
) -> List[CandidateResult]:
    eligible = []
    for sym in symbols:
        series = universe.get(sym)
        if series is None or not has_month_history(series, window[0]):
            logger.info("%s: lacks a full month of history; excluded", sym)
            continue
        eligible.append(series)
    tasks = [(s.symbol, s.interval, s.arrays, side, window, cfg.grid,
              cost_cfg, cfg.rf_annual, *execution) for s in eligible]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_candidate_task, tasks))
    else:
        outcomes = [_candidate_task(t) for t in tasks]
    return [res for _, res in outcomes if res is not None]


def run_rebalance(
    universe: Dict[str, PriceSeries],
    caps: Sequence[MarketCapRecord],
    month_start: int,
    cfg: RebalanceConfig,
    cost_cfg: Optional[CostConfig],
    interval: int,
    jobs: int = 1,
    cap_filter_enabled: bool = True,
    trailing: bool = True,
    intrabar_stop_fill: bool = False,
) -> Tuple[MonthlyPortfolio, dict]:
    """One month's full pipeline; returns the portfolio and an audit record.

    Caps are snapshotted as of the day before the month starts (the rebalance
    happens at 00:00 UTC on day 1, before that day's data exists). With the
    cap filter disabled every symbol is a candidate for both sides. The
    grid search scores cells with the execution flags the month will trade.
    """
    month = month_id(month_start)
    if cap_filter_enabled:
        filtered = filter_universe(caps, date_of_ts(month_start - 1), cfg)
    else:
        everything = sorted(universe)
        filtered = (everything, list(everything))
    if filtered is None:
        logger.warning("%s: no market-cap snapshot on or before month start;"
                       " holding cash", month)
        portfolio = MonthlyPortfolio(month=month, longs=(), shorts=(),
                                     cash_weight=1.0)
        return portfolio, {
            "month": month, "skipped": "no market-cap data",
            "reoptimized": False, "long_candidates": [], "short_candidates": [],
            "optimized": [], "selected_longs": [], "selected_shorts": [],
            "cash_weight": 1.0,
        }
    long_candidates, short_candidates = filtered
    window = optimization_window(month_start, interval, cfg.buffer_bars)
    execution = (trailing, intrabar_stop_fill)
    long_results = _optimize_side(long_candidates, "long", universe, window,
                                  cfg, cost_cfg, jobs, execution)
    short_results = _optimize_side(short_candidates, "short", universe, window,
                                   cfg, cost_cfg, jobs, execution)
    portfolio = select_and_allocate(month, long_results, short_results, cfg)
    record = {
        "month": month,
        "reoptimized": True,
        "window": list(window),
        "long_candidates": list(long_candidates),
        "short_candidates": list(short_candidates),
        "optimized": (
            [{"symbol": r.symbol, "side": "long", "sharpe": r.sharpe,
              "params": params_to_dict(r.params)} for r in long_results]
            + [{"symbol": r.symbol, "side": "short", "sharpe": r.sharpe,
                "params": params_to_dict(r.params)} for r in short_results]
        ),
        "selected_longs": [
            {"symbol": a.symbol, "weight": a.weight,
             "params": params_to_dict(a.params)} for a in portfolio.longs
        ],
        "selected_shorts": [
            {"symbol": a.symbol, "weight": a.weight,
             "params": params_to_dict(a.params)} for a in portfolio.shorts
        ],
        "cash_weight": portfolio.cash_weight,
    }
    return portfolio, record


def params_to_dict(params: StrategyParams) -> dict:
    """JSON-safe form; disabled (+inf) thresholds serialize as null."""
    def enc(x: float) -> Optional[float]:
        return None if math.isinf(x) else x
    return {
        "theta_entry": enc(params.theta_entry),
        "theta_entry_short": enc(params.theta_entry_short),
        "alpha": params.alpha,
        "lookback": params.lookback,
        "atr_window": params.atr_window,
    }
