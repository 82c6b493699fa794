"""Account-level simulation: the monthly rebalance loop over a universe.

A run plans, then books. A month is decided without the balance: build (or
carry) a MonthlyPortfolio and find its weighted positions' trades in one
search. The window loop sizes them at weight x month-start balance and
books and marks them in one ledger pass (``aggregate_results``, pricing
fills and funding through cost_model) on the union of all symbols' bar
closes; a run sorts the passes' ``Ledger``s in one stable lexsort.
Positions are force-closed at month end, or at the mark where a run halts,
so each month's PnL is realized before the next month is sized. Capital
freed by an intra-month exit idles until the month ends.

An ablation variant is a config, ``ablation_config(cfg, variant)``, with one
pipeline component toggled, and ``run_backtest`` runs it like any other.
The loop over months itself (``run_windows``: sizing, marking, the balance
roll, the halt at bankruptcy and the metrics) is shared with the benchmarks,
and its ``BacktestResult`` is the one result of every run. Every run over one
loaded universe reads it through one ``Market``, which builds what the runs
share once (the cap index, the timeline and the optimizer) and checks each
run's month calendar (``Market.months``). Runs read the bar interval from
the market (``Market.interval``); a BacktestConfig's ``interval`` is a
declaration that only the loader checks. A month's rebalance takes that
market and the run's BacktestConfig whole
(``run_rebalance(market, month_start, cfg)``).
"""

import logging
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import analytics
from .analytics import MetricsReport
from .cost_model import LONG, SHORT, CostConfig, funding_paid, trade_fills
from .market_data import (CapIndex, DataError, PriceSeries,
                          bars_per_year, month_add, month_floor, month_id,
                          read_csv, write_columns)
from .rebalancer import (MonthlyPortfolio, Optimizer, ParamGrid,
                         RebalanceConfig, run_rebalance)
from .signal_engine import (NO_LEDGER, EngineError, Ledger, Position,
                            cell_positions, cut_position)
# Only for perfbench's signal_engine.month_sim hook, until it is re-pointed.
from .signal_engine import run_single_asset  # noqa: F401

logger = logging.getLogger(__name__)

EQUITY_HEADER = ["timestamp", "balance"]
MAX_INITIAL_BALANCE = 1e15  # keeps compute_metrics' sums far from overflow

ABLATION_VARIANTS = ("full", "no_trailing_stop", "no_cap_filter",
                     "no_sharpe_filter", "symmetric_allocation", "fixed_params")


@dataclass(frozen=True)
class BacktestConfig:
    start: int
    end: int
    initial_balance: float = 100_000.0
    # data.interval, a declaration only the loader checks (None: the data's)
    interval: Optional[int] = None
    rebalance: RebalanceConfig = field(default_factory=RebalanceConfig)
    costs: CostConfig = field(default_factory=CostConfig)
    trailing_stop_enabled: bool = True
    cap_filter_enabled: bool = True
    reoptimize_enabled: bool = True
    intrabar_stop_fill: bool = False

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError("start must precede end")
        if not 0 < self.initial_balance <= MAX_INITIAL_BALANCE:
            raise ValueError(f"initial_balance must be > 0 and at most"
                             f" {MAX_INITIAL_BALANCE:g}, got"
                             f" {self.initial_balance}")
        if self.interval is not None and self.interval <= 0:
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
    trades: Ledger
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


def union_timeline(universe: Dict[str, PriceSeries]) -> np.ndarray:
    """Sorted union of every symbol's bar timestamps, folded in one series
    at a time. A series whose timestamps are a run of the union so far (as
    every series' are when the series share one clock, and so one read-only
    timestamp array) costs one comparison; any other is merged into it by a
    stable sort of the two sorted runs that drops the repeats. The union
    may be a series' read-only timestamps."""
    timeline = np.empty(0, dtype=np.int64)
    for series in universe.values():
        stamps = series.timestamps.astype(np.int64, copy=False)
        if not len(stamps):
            continue
        j = int(np.searchsorted(timeline, stamps[0]))
        if np.array_equal(timeline[j:j + len(stamps)], stamps):
            continue
        if not len(timeline):
            timeline = stamps
            continue
        merged = np.sort(np.concatenate((timeline, stamps)), kind="stable")
        first = np.ones(len(merged), dtype=bool)
        first[1:] = merged[1:] != merged[:-1]
        timeline = merged[first]
    return timeline


class Market:
    """One loaded universe and what every run over it shares, each built once.

    ``series`` maps symbol to PriceSeries, ``interval`` is the bar interval
    they all share (DataError unless there is at least one and they share
    one), ``caps`` their CapIndex, ``timeline`` the sorted union of every bar
    close, folded series by series (see union_timeline; over series on one
    clock it is their shared read-only array), which run_windows
    slices each window out of, and ``optimizer`` the
    Optimizer whose memo every run over the market shares, so no month,
    sweep point or ablation solves a grid search that another has solved.
    ``grids`` are the grids of the runs that will go over the market, if
    they are known: the optimizer then searches the problems of all of them
    at once (see Optimizer). The series must not change while the market is
    in use.
    """

    def __init__(self, series: Dict[str, PriceSeries], caps: CapIndex,
                 grids: Sequence[ParamGrid] = ()) -> None:
        if not series:
            raise DataError("a market needs at least one price series,"
                            " got none")
        intervals = sorted({s.interval for s in series.values()})
        if len(intervals) != 1:
            raise DataError(f"series at bar intervals {intervals} s")
        self.series = series
        self.interval = intervals[0]
        self.caps = caps
        self.timeline = union_timeline(series)
        self.optimizer = Optimizer(series, grids)

    def months(self, cfg: BacktestConfig) -> List[int]:
        """The month starts of a run over [cfg.start, cfg.end]; DataError
        unless the bars reach from the month before the first into the last."""
        months = month_starts_between(cfg.start, cfg.end)
        if not months:
            raise DataError("no month boundary inside [start, end]")
        if len(self.timeline) == 0:
            raise DataError("universe has no bars")
        earliest, latest = int(self.timeline[0]), int(self.timeline[-1])
        prev = month_add(months[0], -1)
        if earliest > prev + self.interval:
            raise DataError(
                "insufficient history: need data from the month before the"
                f" first rebalance ({prev}), earliest bar is {earliest}"
            )
        if latest < months[-1]:
            raise DataError("insufficient history: no data in the final month"
                            f" ({months[-1]})")
        return months


def aggregate_results(
    marks: np.ndarray,
    positions: Sequence[Position],
    cost_cfg: CostConfig,
    *,
    charge_funding: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Ledger]:
    """Book a window's positions together: the (realized, open_mtm,
    open_costs) currency arrays on ``marks`` and the Ledger of their trades.

    Bit for bit, that is book_trades of each position (funding charged when
    ``charge_funding``), forward-filled onto the marks (zero before its first
    bar) and summed from zeros in position order: the ledger's float
    operations, in its order, over every trade of the window at once, with
    the fills and funding priced by cost_model's one pricing step. The
    positions' bars are laid end to end, and one searchsorted per position
    places every mark on that position's bars."""
    positions = [p for p in positions if len(p.found.cell)]  # others book 0
    if not positions:
        return (*np.zeros((3, len(marks))), NO_LEDGER)
    k = np.arange(len(positions))
    n, m = np.array([(p.bounds[1] - p.bounds[0], len(p.found.cell))
                     for p in positions]).T  # bars and trades
    base, owner = np.cumsum(n) - n, np.repeat(k, m)  # first bar, trade's owner
    ts, close, volume = (np.concatenate([getattr(p.series, name)[
        slice(*p.bounds)] for p in positions]) for name in (
            "timestamps", "close", "volume"))
    e, x, exit_px, short, forced = (np.concatenate([
        getattr(p.found, name) for p in positions]) for name in (
            "entry", "exit", "exit_px", "short", "forced"))
    e, x = e + base[owner], x + base[owner]
    sizes = np.array([p.size for p in positions])
    size, entry_px = sizes[owner], close[e]
    fees, slips = trade_fills(
        close, volume, e, x, exit_px, size,
        np.array([p.series.interval for p in positions])[owner], cost_cfg)
    hold = x - e  # a trade holds its position after bars [e, x)
    row = np.repeat(np.arange(len(e)), hold)
    step = np.arange(len(row)) - np.repeat(np.cumsum(hold) - hold, hold)
    bar, width = e[row] + step, hold.max() + 1
    cell = row * width + step  # in a (trades x width) grid, flat
    # Funding accrues along each trade's row from a zero column, in order.
    accrued = np.zeros(len(e) * width)
    if charge_funding:
        paid = funding_paid(ts, base, n, [p.series.symbol for p in positions],
                            sizes, cost_cfg)
        accrued[cell + 1] = np.where(short[row], 0.0 - paid[bar + 1],
                                     paid[bar + 1])
        accrued = np.cumsum(accrued.reshape(-1, width), axis=1).ravel()
    funded = accrued[np.arange(len(e)) * width + hold]
    moved, closed = close[bar] / entry_px[row], exit_px / entry_px
    gross = size * np.where(short, 1.0 - closed, closed - 1.0)
    fee, slip = fees[:len(e)] + fees[len(e):], slips[:len(e)] + slips[len(e):]
    net = gross - fee - slip - funded
    nets = np.zeros((len(positions), m.max()))  # each position's, in order
    col = np.arange(len(e)) - (np.cumsum(m) - m)[owner]
    nets[owner, col] = net
    running = np.append(np.cumsum(nets, axis=1)[owner, col], 0.0)
    # A mark reads each position's last bar at or before it and last exit;
    # before its first bar, the last of the one before, where none is held.
    per_bar = np.zeros((2, len(ts) + 1))  # the last column reads zero
    per_bar[0, bar] = size[row] * np.where(short[row], 1.0 - moved, moved - 1.0)
    per_bar[1, bar] = (fees + slips)[row] + accrued[cell]
    last = (base - 1)[:, None] + np.array([np.searchsorted(
        p.series.timestamps[slice(*p.bounds)], marks, side="right")
        for p in positions])
    exited = np.searchsorted(x, last, side="right") - 1
    rows = np.zeros((3, len(positions) + 1, len(marks)))
    rows[0, 1:] = np.where(np.append(owner, -1)[exited] == k[:, None],
                           running[exited], 0.0)
    rows[1:, 1:] = np.take(per_bar, last, axis=1)
    ledger = Ledger(
        np.array([p.series.symbol for p in positions])[owner],
        np.where(short, SHORT, LONG), ts[e], entry_px, ts[x], exit_px, size,
        gross, fee, slip, funded, net, forced)
    return (*np.cumsum(rows, axis=1)[:, -1], ledger)


def month_windows(months: Sequence[int], end: int) -> List[Tuple[int, int]]:
    """(start, end) of each calendar month, the last one cut at ``end``."""
    return [(m, min(month_add(m, 1) - 1, end)) for m in months]


def run_windows(
    market: Market,
    windows: Sequence[Tuple[int, int]],
    plan: Iterable[List[Position]],
    cfg: BacktestConfig,
    *,
    net_first: bool,
    charge_funding: bool = True,
) -> BacktestResult:
    """Roll the balance over consecutive windows; the loop every run shares.

    ``plan`` yields each window's unbooked positions, each ``size`` a
    weight, pulled one window at a time (so a lazy plan decides none after
    a halt); each is sized at weight x the window's start balance
    (EngineError unless > 0). aggregate_results books them under cfg's
    costs (funding if ``charge_funding``) and marks them on the window's
    slice of ``market.timeline``, the union of every universe symbol's
    closes (so it does not depend on what was traded). The balance at the
    window's last close carries into the next window. A window with no bars
    is skipped with a warning; if every window is, there is nothing to
    score and DataError is raised. The first mark whose balance is <= 0
    halts the run and flags the curve: each position is cut there
    (cut_position) and the window booked again up to that mark, which ends
    the curve whatever balance the close-out then gives it.

    The strategy adds a window's net change to its starting balance in one
    step (net_first), the benchmarks add realized PnL, open MTM and open
    costs in turn; the two orders round differently, and both runs' equity
    is kept bit for bit.

    Returns the result: the equity curve, anchored at cfg.initial_balance one
    bar interval before the first window, the trades sorted by (entry, exit,
    symbol, side), the curve's realized / open_mtm / open_costs decomposition,
    and its metrics at cfg's risk-free rate and the market's interval.
    """
    timeline = market.timeline
    balance = cfg.initial_balance
    realized_total = 0.0
    ts_chunks = [np.array([windows[0][0] - market.interval], dtype=np.int64)]
    bal_chunks = [np.array([balance])]
    realized_chunks = [np.zeros(1)]
    mtm_chunks = [np.zeros(1)]
    ocost_chunks = [np.zeros(1)]
    ledgers: List[Ledger] = []
    bankrupt = False

    def book(marks, positions):
        realized, mtm, ocost, ledger = aggregate_results(
            marks, positions, cfg.costs, charge_funding=charge_funding)
        if net_first:
            balances = balance + (realized + mtm - ocost)
        else:
            balances = balance + realized + mtm - ocost
        return balances, realized, mtm, ocost, ledger

    for window, weighted in zip(windows, plan):
        positions = [p._replace(size=p.size * balance) for p in weighted]
        for p in positions:
            if not p.size > 0:
                raise EngineError(f"size must be > 0, got {p.size}")
        marks = timeline[np.searchsorted(timeline, window[0]):
                         np.searchsorted(timeline, window[1], side="right")]
        if len(marks) == 0:  # so no position has a bar either
            logger.warning("%s: no bars in [%d, %d]; period skipped",
                           month_id(window[0]), window[0], window[1])
            continue
        balances, realized, mtm, ocost, ledger = book(marks, positions)
        nonpositive = np.flatnonzero(balances <= 0.0)
        if len(nonpositive) > 0:
            marks = marks[:nonpositive[0] + 1]
            balances, realized, mtm, ocost, ledger = book(marks, [
                cut_position(p, int(marks[-1])) for p in positions])
            bankrupt = True
            logger.warning("balance depleted at %d; halting run",
                           int(marks[-1]))
        ledgers.append(ledger)

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
    trades = Ledger(*map(np.concatenate, zip(*(
        ledger.columns() for ledger in ledgers))))
    trades = trades.take(np.lexsort(
        (trades.side, trades.symbol, trades.exit_ts, trades.entry_ts)))
    metrics = analytics.compute_metrics(
        equity, trades, rf_annual=cfg.rebalance.rf_annual,
        bars_per_year=bars_per_year(market.interval))
    return BacktestResult(
        equity, trades, np.concatenate(realized_chunks),
        np.concatenate(mtm_chunks), np.concatenate(ocost_chunks), metrics)


def run_backtest(market: Market, cfg: BacktestConfig) -> BacktestResult:
    """Run the monthly loop over [start, end] (end-inclusive bar timestamps).

    The start is snapped forward to a calendar month boundary. The plan
    decides (or carries) each month when run_windows pulls it, so a balance
    <= 0, which halts the run and flags the curve, leaves the later months
    undecided. A record's ``balance_start`` is the curve's last balance
    before its month. Runs over one market share the optimizer's searches.
    """
    windows = month_windows(market.months(cfg), cfg.end)
    rebalance_log: List[dict] = []
    portfolios: List[MonthlyPortfolio] = []

    def plan() -> Iterator[List[Position]]:
        for window in windows:
            if cfg.reoptimize_enabled or not portfolios:
                portfolio, record = run_rebalance(market, window[0], cfg)
            else:
                portfolio = replace(portfolios[-1], month=month_id(window[0]))
                record = {
                    "month": portfolio.month, "reoptimized": False,
                    "carried_from": portfolios[0].month,
                    "selected_longs": [a.symbol for a in portfolio.longs],
                    "selected_shorts": [a.symbol for a in portfolio.shorts],
                    "cash_weight": portfolio.cash_weight,
                }
            rebalance_log.append(record)
            portfolios.append(portfolio)
            yield cell_positions(
                [(market.series[alloc.symbol], alloc.params, alloc.weight)
                 for alloc in portfolio.longs + portfolio.shorts], window,
                trailing=cfg.trailing_stop_enabled,
                intrabar_stop_fill=cfg.intrabar_stop_fill)

    result = run_windows(market, windows, plan(), cfg, net_first=True)
    curve = result.equity
    for record, (start, _) in zip(rebalance_log, windows):
        record["balance_start"] = float(
            curve.balances[np.searchsorted(curve.timestamps, start) - 1])
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


# ---------------------------------------------------------------------------
# Equity curve serialization
# ---------------------------------------------------------------------------

def save_equity(curve: EquityCurve, path: str) -> None:
    write_columns(path, EQUITY_HEADER, [curve.timestamps, curve.balances])


def load_equity(path: str) -> EquityCurve:
    """An equity.csv; a balance that is not finite is a DataError."""
    rows = read_csv(path, EQUITY_HEADER,
                    lambda row: (int(row[0]), float(row[1])))
    balances = np.array([b for _, b in rows], dtype=np.float64)
    if not np.isfinite(balances).all():
        raise DataError(f"{path}: balances must be finite")
    return EquityCurve(np.array([t for t, _ in rows], dtype=np.int64), balances)
