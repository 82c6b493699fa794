"""Monthly portfolio construction.

Three stages, run at each month boundary by run_rebalance(market,
month_start, cfg), which reads everything it needs from one Market (caps,
series, optimizer) and one BacktestConfig:
  1. filter_universe: the market's CapIndex ranks the symbols of the cap
     snapshot in force at the month start; top-K become long candidates,
     bottom-K short candidates.
  2. Optimizer.solve: per candidate, grid-search entry/stop parameters on
     the preceding calendar month (ending one buffer before the month
     start), maximizing the annualized Sharpe of the candidate's net per-bar
     returns under the execution model the month trades with. The market's
     Optimizer, asked by symbol, solves each such problem once for every run
     that shares it, and searches the problems of runs that differ only in
     the grid once, over the union of their grids. The month's unsolved
     problems are searched together, a batch per side and window length.
  3. select_and_allocate: admit candidates whose optimized Sharpe clears the
     per-side threshold; split capital long_ratio / (1 - long_ratio) across
     the two sleeves, equal weight within each.
The result is a MonthlyPortfolio; anything not allocated stays in cash.
"""

import functools
import logging
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cost_model import CostConfig
from .indicators import rolling_sharpe
from .market_data import (DEFAULT_RF_ANNUAL, CapIndex, PriceSeries,
                          bars_per_year, month_add, month_id)
from .signal_engine import (CellTable, StrategyParams, grid_sharpes_stacked,
                            run_single_asset)

if TYPE_CHECKING:
    from .backtester import BacktestConfig, Market

logger = logging.getLogger(__name__)

INF = float("inf")

# The cells x bars of one batched grid search (a grid_sharpes_stacked call).
# A call has a fixed cost that a batch shares: on a 2-vCPU x86-64 host, a
# one-cell problem over 649 hourly bars took 0.7-0.9 ms alone, about 0.17
# ms a problem in batches of 8 and about 0.10 ms in batches of 32 (20,768
# cells x bars). A default 225-cell problem over a month of 6-hour bars
# (109-121 bars, 24,525-27,225 cells x bars) goes 4 or 5 to a call: over
# grid_small's 75 such problems (medians of 9 in-process runs) the search
# took 113 ms one to a call before the grids' cell tables, and with them
# 71 ms at 2^16 (2 to a call), 59 ms at 2^17, 54 ms at 2^18 (8 to 10) and
# 64 ms at 2^19. The run's peak RSS was 39.4 MB up to 2^16, 40.4 MB at
# 2^17 and 42.6 MB at 2^18.
SEARCH_BATCH_CELL_BARS = 1 << 17


@dataclass(frozen=True)
class ParamGrid:
    """Candidate values for the grid search; the ATR window is held fixed."""

    theta_entry: Tuple[float, ...] = (0.01, 0.02, 0.03, 0.05, 0.08)
    theta_entry_short: Tuple[float, ...] = theta_entry
    alpha: Tuple[float, ...] = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
    lookback: Tuple[int, ...] = (4, 8, 12, 20, 28)
    atr_window: int = StrategyParams.atr_window

    def __post_init__(self) -> None:
        # Equal grids must yield identical cells (grid_cells and the
        # Optimizer memo are keyed by grid), so 2 and 2.0 are stored alike.
        for name, kind in (("theta_entry", float), ("theta_entry_short", float),
                           ("alpha", float), ("lookback", operator.index)):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"grid axis {name} must be nonempty")
            object.__setattr__(self, name, tuple(kind(v) for v in values))
        if not 1 <= self.atr_window <= 10**6:
            raise ValueError("atr_window must lie in [1, 1000000]")
        # A value that StrategyParams rejects fails with the grid, not
        # mid-run when the optimizer first builds the cells.
        for side in ("long", "short"):
            grid_cells(self, side)


@dataclass(frozen=True)
class RebalanceConfig:
    k_long: int = 15
    k_short: int = 15
    gamma_long: float = 1.3
    gamma_short: float = 1.7
    long_ratio: float = 0.7
    grid: ParamGrid = field(default_factory=ParamGrid)
    buffer_bars: int = 4
    rf_annual: float = DEFAULT_RF_ANNUAL

    def __post_init__(self) -> None:
        if self.k_long < 1 or self.k_short < 1:
            raise ValueError("candidate counts must be >= 1")
        if not 0.0 <= self.long_ratio <= 1.0:
            raise ValueError("long_ratio must lie in [0, 1]")
        if self.buffer_bars < 0:
            raise ValueError("buffer_bars must be >= 0")
        # -inf gamma admits every candidate (the no_sharpe_filter variant).
        for name in ("gamma_long", "gamma_short"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must not be NaN")
        if not abs(self.rf_annual) <= 1:
            raise ValueError("rf_annual must lie in [-1, 1], got"
                             f" {self.rf_annual}")


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

def filter_universe(
    caps: CapIndex,
    month_start: int,
    cfg: RebalanceConfig,
) -> Optional[Tuple[List[str], List[str]]]:
    """Top-k_long / bottom-k_short symbols of the cap ranking in force at
    month_start (CapIndex.ranking: ties rank the smaller name first on both
    sides). A symbol qualifying for both sides stays a long candidate only.
    Returns None without a snapshot in force (skip the rebalance).
    """
    largest = caps.ranking(month_start)
    if largest is None:
        return None
    long_candidates = largest[: cfg.k_long]
    overlap = set(long_candidates)
    smallest = caps.ranking(month_start, largest=False)[: cfg.k_short]
    short_candidates = [s for s in smallest if s not in overlap]
    return long_candidates, short_candidates


# ---------------------------------------------------------------------------
# Stage 2: per-candidate grid search
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def grid_cells(grid: ParamGrid, side: str) -> CellTable:
    """All parameter cells for one side, in tie-break order, as a CellTable.

    Cells are ordered by (entry threshold, alpha, lookback) ascending; the
    optimizer keeps the first cell achieving the maximum Sharpe, so earlier
    cells win ties. The opposite side's threshold is +inf, which turns it off.
    Built once per (grid, side): the result is an immutable tuple of
    StrategyParams that also carries the entry and stop rule columns and
    row maps of its cells, so no search over the grid builds them again.
    """
    long = side == "long"
    return CellTable(
        StrategyParams(theta if long else INF, INF if long else theta, alpha,
                       lookback, grid.atr_window)
        for theta in sorted(grid.theta_entry if long else grid.theta_entry_short)
        for alpha in sorted(grid.alpha) for lookback in sorted(grid.lookback))


@functools.lru_cache(maxsize=64)
def _columns(grid: ParamGrid, search: ParamGrid, side: str) -> np.ndarray:
    """The position of each of grid's cells among search's, for a grid
    whose every cell is one of search's."""
    column = {cell: k for k, cell in enumerate(grid_cells(search, side))}
    return np.array([column[cell] for cell in grid_cells(grid, side)])


def evaluate_cell(
    series: PriceSeries,
    params: StrategyParams,
    window: Tuple[int, int],
    cost_cfg: CostConfig,
    rf_annual: float,
    *,
    trailing: bool = True,
    intrabar_stop_fill: bool = False,
) -> Optional[float]:
    """Annualized Sharpe of the cell's net per-bar returns on the sides its
    thresholds turn on (below +inf); None if unusable.

    Zero trades in the window, or a return series whose Sharpe is undefined,
    disqualify the cell. This is the one-cell reference that the
    Optimizer's batched search is tested against.
    """
    result = run_single_asset(series, params, window=window, size=1.0,
                              cost_cfg=cost_cfg, trailing=trailing,
                              intrabar_stop_fill=intrabar_stop_fill)
    if not result.trades:
        return None
    return rolling_sharpe(result.net_returns, rf_annual,
                          bars_per_year(series.interval))


def union_grid(grids: Sequence[ParamGrid]) -> Optional[ParamGrid]:
    """The per-axis union of grids that share one ATR window, or None when
    there are none or their ATR windows differ."""
    if len({g.atr_window for g in grids}) != 1:
        return None
    return ParamGrid(**{
        name: tuple(sorted({v for g in grids for v in getattr(g, name)}))
        for name in ("theta_entry", "theta_entry_short", "alpha", "lookback")
    }, atr_window=grids[0].atr_window)


class Optimizer:
    """Solves the grid-search problems of one universe, each one once.

    A problem is one candidate's search: (symbol, side, window, grid, cost
    config with the symbol's funding records, rf_annual, execution flags).
    Its result is memoised, so every month, sweep point and ablation run that
    shares this optimizer answers a repeated problem from the memo.
    Candidates are named by symbol and looked up in the optimizer's own
    universe, whose series share one bar interval (as a Market's do) and
    which must not change while the optimizer is in use.

    ``grids`` are the grids of the runs that will share the optimizer. When
    they hold two or more distinct grids that share one ATR window, a
    problem with any of them is searched over their per-axis union
    (union_grid), and the search's Sharpe row is kept under the problem's
    key with the union in place of the grid; problems that differ only in
    their told grid then share one search. Any other grid is
    searched alone, and its row, which no other problem reads, is not kept.
    A cell's Sharpe does not depend on the other cells of its search, and
    each grid picks from its own cells of the row in its own order, so every
    result equals that of the grid searched alone.
    """

    def __init__(self, universe: Dict[str, PriceSeries],
                 grids: Sequence[ParamGrid] = ()) -> None:
        self.universe = universe
        self.problems = 0  # problems asked
        self.solved = 0    # distinct problems answered
        self.searches = 0  # distinct problems searched
        self.batches = 0   # grid_sharpes_stacked calls that searched them
        self._memo: Dict[tuple, Optional[CandidateResult]] = {}
        self._rows: Dict[tuple, np.ndarray] = {}
        union = union_grid(grids) if len(set(grids)) > 1 else None
        self._search_grid = ({} if union is None
                             else dict.fromkeys(grids, union))

    def solve(
        self,
        candidates: Sequence[Tuple[str, str]],
        window: Tuple[int, int],
        cfg: "BacktestConfig",
    ) -> List[Optional[CandidateResult]]:
        """The best cell of each (symbol, side), in candidate order, for
        cfg's grid, rf, costs and execution flags; None for a candidate
        without one.

        A candidate's window must hold at least twice the grid's largest
        momentum lookback in bars; a shorter one disqualifies it (logged).
        Every cell is scored as evaluate_cell would score it under the same
        execution flags, and the first cell with the maximum Sharpe wins; a
        cell without a defined Sharpe never does. The problems of one call
        that are not in the memo are scored together by
        signal_engine.grid_sharpes_stacked, which takes stacks of one side
        and one window length, in calls of at most SEARCH_BATCH_CELL_BARS
        cells x bars (and at least one problem) each.
        """
        grid = cfg.rebalance.grid
        keys = []
        for symbol, side in candidates:
            # CostConfig equality ignores funding_rates: key by the records.
            funding = (cfg.costs.funding_rates or {}).get(symbol)
            scoring = (cfg.costs, tuple(funding or ()), cfg.rebalance.rf_annual,
                       cfg.trailing_stop_enabled, cfg.intrabar_stop_fill)
            keys.append((symbol, side, window, grid, scoring))
        self.problems += len(keys)
        misses = [key for key in dict.fromkeys(keys) if key not in self._memo]
        self.solved += len(misses)
        search = self._search_grid.get(grid, grid)
        rows = self._search(misses, search, cfg)
        for key in misses:
            self._memo[key] = _best(key, search, rows.get(key))
        return [self._memo[key] for key in keys]

    def _search(self, misses: Sequence[tuple], search: ParamGrid,
                cfg: "BacktestConfig") -> Dict[tuple, np.ndarray]:
        """The Sharpe row over search's cells of each problem whose window
        is long enough, from the kept rows or from a search."""
        rows, groups = {}, {}
        for key in misses:
            symbol, side, window, grid, scoring = key
            series = self.universe[symbol]
            i0, i1 = series.slice_indices(*window)
            needed = 2 * max(grid.lookback)
            if i1 - i0 < needed:
                logger.info("%s: optimization window has %d bars, needs %d;"
                            " excluded", symbol, i1 - i0, needed)
                continue
            row_key = (symbol, side, window, search, scoring)
            if row_key in self._rows:
                rows[key] = self._rows[row_key]
            else:
                groups.setdefault((side, i1 - i0), []).append(
                    (key, row_key, (series, (i0, i1), grid_cells(search, side))))
        for (side, bars), group in groups.items():
            size = max(1, SEARCH_BATCH_CELL_BARS
                       // (len(grid_cells(search, side)) * bars))
            for b in range(0, len(group), size):
                batch = group[b:b + size]
                found = grid_sharpes_stacked(
                    [problem for _, _, problem in batch], cfg.costs,
                    cfg.rebalance.rf_annual,
                    trailing=cfg.trailing_stop_enabled,
                    intrabar_stop_fill=cfg.intrabar_stop_fill)
                self.batches += 1
                self.searches += len(batch)
                for (key, row_key, _), row in zip(batch, found):
                    rows[key] = row
                    if key[3] in self._search_grid:
                        self._rows[row_key] = row
        return rows


def _best(key: tuple, search: ParamGrid,
          row: Optional[np.ndarray]) -> Optional[CandidateResult]:
    """The first of the key's grid cells with the maximum Sharpe in its
    search's row; None without a row or a defined Sharpe."""
    if row is None:
        return None
    symbol, side, _, grid, _ = key
    sharpes = row[_columns(grid, search, side)]
    scores = np.where(np.isnan(sharpes), -INF, sharpes)
    best = int(np.argmax(scores))
    if not scores[best] > -INF:
        return None
    return CandidateResult(symbol, grid_cells(grid, side)[best],
                           float(sharpes[best]))


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
    n_shorts; an empty sleeve's share stays in cash. A sleeve whose share
    per position is 0 (long_ratio 0 or 1, or a share too small to split, such
    as long_ratio 5e-324 over two longs) admits nothing, since a position
    needs a size.
    """
    lam = cfg.long_ratio
    sleeves = []
    for side, results, gamma, share in (
            ("long", long_results, cfg.gamma_long, lam),
            ("short", short_results, cfg.gamma_short, 1.0 - lam)):
        admitted = sorted((r for r in results if r.sharpe >= gamma),
                          key=lambda r: r.symbol)
        if admitted and share / len(admitted) == 0.0:
            logger.info("%s: the %s sleeve has no capital; %d candidates"
                        " not admitted", month, side, len(admitted))
            admitted = []
        sleeves.append(tuple(Allocation(r.symbol, r.params,
                                        share / len(admitted))
                             for r in admitted))
    long_alloc, short_alloc = sleeves
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
            and int(series.timestamps[0]) <= window_start + series.interval)


def run_rebalance(market: "Market", month_start: int, cfg: "BacktestConfig"
                  ) -> Tuple[MonthlyPortfolio, dict]:
    """One month's full pipeline; returns the portfolio and an audit record.

    Caps, series, their bar interval and the optimizer come from ``market``;
    grid, rf, buffer, k and gamma from ``cfg.rebalance``; costs, the cap
    filter and the execution flags the month will trade (which the grid search scores
    with) from ``cfg``. The cap filter ranks the snapshot in force at the
    month start, the latest dated before it (CapIndex.ranking). Without the
    cap filter every symbol is a candidate for both sides.
    """
    rcfg = cfg.rebalance
    month = month_id(month_start)
    if cfg.cap_filter_enabled:
        filtered = filter_universe(market.caps, month_start, rcfg)
    else:
        everything = sorted(market.series)
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
    window = optimization_window(month_start, market.interval, rcfg.buffer_bars)
    batch = []
    for side, symbols in (("long", long_candidates),
                          ("short", short_candidates)):
        for sym in symbols:
            series = market.series.get(sym)
            if series is None:
                logger.info("%s: has no price series; excluded", sym)
            elif not has_month_history(series, window[0]):
                logger.info("%s: lacks a full month of history; excluded", sym)
            else:
                batch.append((sym, side))
    solved = market.optimizer.solve(batch, window, cfg)
    found = {side: [r for (_, s), r in zip(batch, solved)
                    if s == side and r is not None]
             for side in ("long", "short")}
    portfolio = select_and_allocate(month, found["long"], found["short"], rcfg)
    allocated = {"long": portfolio.longs, "short": portfolio.shorts}
    return portfolio, {
        "month": month,
        "reoptimized": True,
        "window": list(window),
        "long_candidates": list(long_candidates),
        "short_candidates": list(short_candidates),
        "optimized": [{"symbol": r.symbol, "side": side, "sharpe": r.sharpe,
                       "params": params_to_dict(r.params)}
                      for side, results in found.items() for r in results],
        **{f"selected_{side}s": [{"symbol": a.symbol, "weight": a.weight,
                                  "params": params_to_dict(a.params)}
                                 for a in allocs]
           for side, allocs in allocated.items()},
        "cash_weight": portfolio.cash_weight,
    }


def params_to_dict(params: StrategyParams) -> dict:
    """JSON-safe form, in field order; disabled (+inf) thresholds serialize
    as null."""
    return {k: None if math.isinf(v) else v for k, v in vars(params).items()}
