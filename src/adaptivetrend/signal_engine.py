"""Per-asset trading: momentum entries, ATR trailing stops, exits, and the ledger.

One symbol, one parameter set, at most one open position. Entries and stop
exits fill at the close of the triggering bar (signals are evaluated on bar
closes; an optional intrabar mode fills stop exits pessimistically at the
stop level). Re-entry is allowed from the next bar after an exit, never on
the exit bar itself.

One trade search (``find_trades_stacked``) finds the trades of a stack of
problems, each any number of cells over one series' window, at once, in
array passes: a next-entry table per entry rule, an exit table per stop
rule (binary lifting over a sparse table of minima per problem), then one
walk in which every cell jumps from entry to exit to next entry. A cell
trades the sides whose thresholds are below +inf; no caller names a side.
One problem is a stack of one. A problem's cells are read as a
``CellTable``, which holds their entry and stop rules as rows built once
per table, so a grid's rows are built with its cells
(``rebalancer.grid_cells``), not by each search. Each series' running
true-range sum is kept at every ATR_STRIDE-th bar (``_tr_checkpoints``),
built once and shared by every search over it, which resumes its windows'
ATRs from there in one pass (``_window_atrs``); so a series holds one ATR
float per ATR_STRIDE bars, not a float per bar per ATR window. That memo
and the one-cell trade memo (``cell_positions``, which searches a month's
misses in one call) are keyed weakly by the series. The trades stay
the search's ``Trades`` columns, held with their series, bars and size as a
``Position`` (a comparison benchmark's is one forced trade), up to the
ledger, a ``Ledger`` of one array per ``ledger.csv`` column. A backtest
books all positions of a month window in one array pass
(``backtester.aggregate_results``); ``book_trades`` books one position with
the same float operations and is its reference. ``run_single_asset`` is the
one-symbol, per-bar view of that booking: it returns the closed trades
(with full cost attribution) and per-bar series, strategy returns for
Sharpe evaluation plus currency-denominated realized / mark-to-market /
cost components that let a caller audit account equity exactly.
``grid_sharpes_stacked`` scores the one-sided cells of a stack of problems
of one window length and bar interval at once for the monthly grid search
with the same search, so the optimizer scores the execution model that
trades. It prices fills and funding with cost_model's one pricing step, as
the window ledger does, so every booking pays the same costs. The cells'
net returns are one matrix that the scorer owns and scores in place
(``indicators.sharpe_rows_in_place``), so a batch's memory is that matrix
and not two. ``write_ledger`` hands the ledger's arrays to the streaming
CSV writer, which formats them a block of rows at a time.
"""

import functools
import math
import weakref
from dataclasses import dataclass, fields
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from .cost_model import (LONG, SHORT, ZERO_COSTS, CostConfig, funding_paid,
                         trade_fills)
from .indicators import (atr, momentum, sharpe_rows_in_place,
                         true_range)
from .market_data import PriceSeries, bars_per_year, write_columns


class EngineError(RuntimeError):
    """Caller contract breach inside the trading engine."""


@dataclass(frozen=True)
class StrategyParams:
    """Tunable per-asset parameters.

    theta_entry / theta_entry_short are fractional-return entry thresholds
    (momentum must exceed theta_entry to open a long, fall below
    -theta_entry_short to open a short); +inf turns the side off, the only
    switch there is: every search reads a cell's sides off its thresholds.
    alpha scales the ATR stop distance; lookback is the momentum window and
    atr_window the ATR window, both in bars.
    """

    theta_entry: float
    theta_entry_short: float
    alpha: float
    lookback: int
    atr_window: int = 14

    def __post_init__(self) -> None:
        if math.isnan(self.theta_entry) or math.isnan(self.theta_entry_short):
            raise ValueError("entry thresholds must not be NaN")
        if self.theta_entry_short <= 0:
            raise ValueError("theta_entry_short must be > 0")
        if not 0 < self.alpha <= 1000:
            raise ValueError("alpha must be > 0 and at most 1000, got"
                             f" {self.alpha}")
        if self.lookback < 1:
            raise ValueError("lookback must be >= 1")
        if self.atr_window < 1:
            raise ValueError("atr_window must be >= 1")


@dataclass(frozen=True, eq=False)
class Ledger:
    """Closed trades as one array per ledger.csv column (LEDGER_HEADER, in
    order); ``len()`` is the trade count. Each row is checked when the
    ledger is built: exit after entry, and net_pnl is gross_pnl - fee -
    slippage - funding (funding may be negative, a rebate); the first bad
    row raises an EngineError naming its symbol. ``forced`` marks a close at
    the trading window's end rather than by a stop."""

    symbol: np.ndarray
    side: np.ndarray
    entry_ts: np.ndarray
    entry_px: np.ndarray
    exit_ts: np.ndarray
    exit_px: np.ndarray
    size: np.ndarray
    gross_pnl: np.ndarray
    fee: np.ndarray
    slippage: np.ndarray
    funding: np.ndarray
    net_pnl: np.ndarray
    forced: np.ndarray

    def __post_init__(self) -> None:
        early = self.exit_ts <= self.entry_ts
        with np.errstate(over="ignore", invalid="ignore"):  # as floats do
            expected = self.gross_pnl - self.fee - self.slippage - self.funding
        bad = early | (self.net_pnl != expected)
        if bad.any():
            i = int(bad.argmax())
            if early[i]:
                raise EngineError(f"{self.symbol[i]}: exit_ts"
                                  f" {self.exit_ts[i]} not after entry_ts"
                                  f" {self.entry_ts[i]}")
            raise EngineError(f"{self.symbol[i]}: net_pnl {self.net_pnl[i]}"
                              f" != gross - costs {expected[i]}")

    def __len__(self) -> int:
        return len(self.symbol)

    def columns(self) -> Tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in LEDGER_HEADER)

    def take(self, index) -> "Ledger":
        """The rows at ``index`` (indices or a mask), in its order."""
        return Ledger(*(column[index] for column in self.columns()))


LEDGER_HEADER = [f.name for f in fields(Ledger)]
NO_LEDGER = Ledger(*(np.zeros(0, dtype=t) for t in (
    [str, str, np.int64, float, np.int64] + [float] * 7 + [bool])))


def gross_pnl(side: str, size: float, entry_px: float, exit_px):
    """Currency PnL of a position of quote notional ``size`` before costs;
    ``exit_px`` may be an array of prices."""
    if side == LONG:
        return size * (exit_px / entry_px - 1.0)
    return size * (1.0 - exit_px / entry_px)


@dataclass
class SingleAssetResult:
    """Per-bar output of one (symbol, params, window) run.

    position: side after the bar (+1 long, -1 short, 0 flat).
    stop: active stop level after the bar, NaN when flat.
    gross_returns / net_returns: per-bar strategy return = position sign
        entering the bar times the bar's close-to-close return (exit fills
        substitute the fill price), gross and net of costs scaled by size.
    costs: currency costs charged on the bar (fills + funding).
    realized_cum / open_mtm / open_costs: currency decomposition for equity
        audits: cumulative net PnL of closed trades, mark-to-market gross PnL
        of the open position, and the open position's costs incurred so far.
    """

    symbol: str
    timestamps: np.ndarray
    position: np.ndarray
    stop: np.ndarray
    gross_returns: np.ndarray
    net_returns: np.ndarray
    costs: np.ndarray
    realized_cum: np.ndarray
    open_mtm: np.ndarray
    open_costs: np.ndarray
    trades: Ledger


class Trades(NamedTuple):
    """Found trades as columns, grouped by cell and in time order within a
    cell: the cell's index, the entry and exit bars (local to the window), the
    exit fill price, whether the window's end forced the exit, and whether
    the trade is short. The entry fills at the entry bar's close."""

    cell: np.ndarray
    entry: np.ndarray
    exit: np.ndarray
    exit_px: np.ndarray
    forced: np.ndarray
    short: np.ndarray


NO_TRADES = Trades(*(np.zeros(0, dtype=t)
                     for t in (np.intp, np.intp, np.intp, float, bool, bool)))


def book_trades(
    series: PriceSeries,
    bounds: Tuple[int, int],
    found: Trades,
    size: float,
    cost_cfg: CostConfig,
    *,
    charge_funding: bool = True,
) -> SingleAssetResult:
    """Account for one cell's trades in one window of bars [i0, i1); the
    ``cell`` column is not read.

    The one-position reference of the ledger: backtester.aggregate_results
    books a window's positions with the same float operations. Each trade
    pays fee and slippage on its entry fill (notional ``size``) and on its
    exit fill (the position's value at the exit price), plus funding on the
    bars it is held entering, (entry, exit], when ``charge_funding``. Trades
    must be in time order and must not overlap. The ledger knows no stop
    rule: the result's stop path is all NaN for the caller to fill.
    """
    i0, i1 = bounds
    n, m = i1 - i0, len(found.cell)
    timestamps = series.timestamps[i0:i1]
    close = series.close[i0:i1]
    position = np.zeros(n, dtype=np.int8)
    stop = np.full(n, np.nan)
    gross_returns, costs, realized_cum, open_mtm, open_costs = np.zeros((5, n))
    entry, exit_px = found.entry, found.exit_px
    fees, slips = trade_fills(close, series.volume[i0:i1], entry, found.exit,
                              exit_px, size, series.interval, cost_cfg)
    paid = (funding_paid(timestamps, [0], [n], [series.symbol], [size],
                         cost_cfg) if charge_funding and m else np.zeros(n))
    funding = (paid, 0.0 - paid)  # long, short
    funded = np.zeros(m)
    for k, (e, x, short) in enumerate(zip(
            entry.tolist(), found.exit.tolist(), found.short.tolist())):
        position[e:x] = -1 if short else 1
        moves = close[e + 1:x + 1] / close[e:x] - 1.0
        moves[-1] = exit_px[k] / close[x - 1] - 1.0
        gross_returns[e + 1:x + 1] = -moves if short else moves
        open_mtm[e:x] = gross_pnl(SHORT if short else LONG, size, close[e],
                                  close[e:x])
        costs[e] = fees[k] + slips[k]
        open_costs[e:x] = costs[e]
        costs[e + 1:x + 1] = fund = funding[short][e + 1:x + 1]
        accrued = np.cumsum(fund)
        open_costs[e + 1:x] += accrued[:-1]
        funded[k] = accrued[-1]
        costs[x] += fees[m + k] + slips[m + k]
    closed = exit_px / close[entry]
    gross = size * np.where(found.short, 1.0 - closed, closed - 1.0)
    fee, slip = fees[:m] + fees[m:], slips[:m] + slips[m:]
    net = gross - fee - slip - funded
    for x, realized in zip(found.exit.tolist(), np.cumsum(net).tolist()):
        realized_cum[x:] = realized
    ledger = Ledger(
        np.full(m, series.symbol), np.where(found.short, SHORT, LONG),
        timestamps[entry], close[entry], timestamps[found.exit], exit_px,
        np.full(m, size), gross, fee, slip, funded, net, found.forced)
    return SingleAssetResult(series.symbol, timestamps.copy(),
                             position, stop, gross_returns,
                             gross_returns - costs / size, costs, realized_cum,
                             open_mtm, open_costs, ledger)


# ---------------------------------------------------------------------------
# The trade search
# ---------------------------------------------------------------------------

# A series' running true-range sum from its first bar, the sum that
# indicators.atr differences, is kept at every ATR_STRIDE-th bar, so a series
# holds one float per ATR_STRIDE bars for every ATR window, and a search sums
# at most ATR_STRIDE - 1 true ranges before the first one it needs. On a
# 2-vCPU x86-64 host, at strides 16, 64 and 256, the ATR pass of grid_small's
# 22 searches took 1.9, 2.0 and 3.9 ms (medians of 15), universe_large's 33
# took 8.0, 7.5 and 7.9 ms, and its 56 searched series held 245,504, 61,376
# and 15,680 bytes of checkpoints.
ATR_STRIDE = 64

_tr_sums: "weakref.WeakKeyDictionary[PriceSeries, np.ndarray]" = (
    weakref.WeakKeyDictionary())


def _tr_checkpoints(series: PriceSeries) -> np.ndarray:
    """Element k: the running sum of the series' true ranges over bars
    [0, k * ATR_STRIDE), for k = 0 .. len(series) // ATR_STRIDE, each the
    float that indicators.atr's running sum holds there. Built once per
    series, and shared by every search over it, the optimizer's and the
    trader's, in a memo keyed weakly by the series (hashed by identity)."""
    sums = _tr_sums.get(series)
    if sums is None:
        running = np.cumsum(true_range(series.high, series.low, series.close))
        sums = _tr_sums[series] = np.append(
            0.0, running[ATR_STRIDE - 1::ATR_STRIDE])
    return sums


def _rows(keys: List[tuple], width: int) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct keys of ``width`` numbers in first-seen order, one float
    row each, and the row of each key."""
    rows: Dict[tuple, int] = {}
    row_of = np.fromiter((rows.setdefault(k, len(rows)) for k in keys),
                         np.intp, len(keys))
    return np.array(list(rows), dtype=float).reshape(len(rows), width), row_of


class CellTable(tuple):
    """Cells as a tuple of StrategyParams, in their order, with the columns
    that the trade search reads, computed once when the table is built:

    - ``entry``: the distinct entry rules, rows of (theta_entry,
      theta_entry_short, lookback, atr_window) in first-seen order, and
      ``entry_of``, each cell's row;
    - ``exit``: the distinct stop rules, rows of (alpha, atr_window), and
      ``exit_of``, each cell's row;
    - ``sides``: the (long on, short on) pairs of its cells.

    A cell's columns are entry[entry_of[k]] and exit[exit_of[k]]. Building a
    table from a table returns it, so every search takes any sequence of
    cells and builds nothing for a table, such as rebalancer.grid_cells'.
    """

    def __new__(cls, cells: Iterable[StrategyParams]) -> "CellTable":
        if isinstance(cells, CellTable):
            return cells
        self = super().__new__(cls, cells)
        self.entry, self.entry_of = _rows([
            (c.theta_entry, c.theta_entry_short, c.lookback, c.atr_window)
            for c in self], 4)
        self.exit, self.exit_of = _rows(
            [(c.alpha, c.atr_window) for c in self], 2)
        self.sides = frozenset((c.theta_entry < math.inf,
                                c.theta_entry_short < math.inf) for c in self)
        return self


def _stacked(rows: List[np.ndarray], row_of: List[np.ndarray],
             counts: List[int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One row map of each table of a stack (its rows, and the row of each
    of its ``counts`` cells), as one: each row's table, the rows, and each
    cell's row in the stack (its row in its table, offset by the rows of the
    tables before it)."""
    sizes = [len(r) for r in rows]
    first = np.cumsum(sizes) - sizes
    return (np.repeat(np.arange(len(rows)), sizes), np.concatenate(rows),
            np.concatenate(row_of) + np.repeat(first, counts))


def _reversed_min(a: np.ndarray) -> np.ndarray:
    """Row-wise running minimum from the right."""
    return np.minimum.accumulate(a[:, ::-1], axis=1)[:, ::-1]


# A search problem: a series, the bounds [i0, i1) of its window's bars and
# the cells to trade there, any sequence of StrategyParams (a CellTable is
# read as it is).
Problem = Tuple[PriceSeries, Tuple[int, int], Sequence[StrategyParams]]

NO_PROBLEMS = np.zeros(0, dtype=np.intp)


def find_trades_stacked(
    problems: Sequence[Problem],
    *,
    trailing: bool = True,
    intrabar_stop_fill: bool = False,
) -> Tuple[np.ndarray, Trades]:
    """The trades of a stack of problems under one execution model, each
    problem a (series, bounds, cells) triple: its cells traded in its
    series' window of bars [i0, i1). Returns each trade's problem and the
    trades, grouped by problem, then by cell (``cell`` counts from 0 within
    each problem), in time order within a cell. A problem's trades do not
    depend on the rest of its stack.

    A cell enters at the close of a bar whose momentum passes one of its
    thresholds, from its first bar with defined indicators on, never on the
    window's final bar, and again only from the bar after an exit. A +inf
    threshold turns its side off; a cell with both sides on enters on the
    earlier side's signal, long on a tie. The search covers every side that
    any of its cells turns on.
    Entering on bar e sets the stop to the candidate close -/+ alpha * ATR.
    With ``trailing`` the stop after bar j is the running max (long) or min
    (short) of the candidates of bars e..j, else it stays at bar e's. The
    exit is the first bar j > e that closes beyond the stop after bar j,
    filled at the close; with ``intrabar_stop_fill``, the first whose low
    (long) or high (short) breaches the stop after bar j - 1, filled at that
    stop or at a worse open. A stop hit on the final bar is a stop exit; a
    position still open after it is forced at the close. Prices are compared
    as s * price with s = +1 long and -1 short, so the long rule serves both
    sides (negation is exact).

    The search is a few array passes shared by all problems, each padded
    to the longest window: no cell enters past its problem's window, and no
    stop is breached there. A problem's cells are read as a CellTable (a
    table is used as it is, any other sequence becomes one here): the cells
    of a problem with equal entry parameters share a row of next-entry
    slots, those with equal (alpha, ATR window) a row of exits for every
    entry bar (see _exits). The stack's rows are its tables' rows, end to
    end, so no call builds them from the cells again. All cells then
    walk their chains together, one trade per step: a gather of the exit of
    (the cell's exit row, entry), then of the next entry of (the cell's
    entry row, exit + 1). No arithmetic beyond the stop candidates is done
    on prices, and that element by element, so the trades are exact.
    """
    live = [k for k, (_, (i0, i1), cells) in enumerate(problems)
            if i1 - i0 >= 2 and len(cells)]
    if not live:
        return NO_PROBLEMS, NO_TRADES
    stack = [(series, bounds, CellTable(cells))
             for series, bounds, cells in (problems[k] for k in live)]
    n = np.array([i1 - i0 for _, (i0, i1), _ in stack])
    width = int(n.max())
    tables = [cells for _, _, cells in stack]
    counts = [len(cells) for cells in tables]
    owner = np.repeat(np.arange(len(stack)), counts)  # each cell's problem
    entry_prob, entry_keys, entry_of = _stacked(
        [t.entry for t in tables], [t.entry_of for t in tables], counts)
    theta_long, theta_short, lookback, atr_window = entry_keys.T
    # The sides that any cell turns on: side k holds row k of the stop
    # candidates and block k of the exits and entry slots.
    shorts = [short for short in (False, True)
              if ((theta_short if short else theta_long) < math.inf).any()]
    if not shorts:
        return NO_PROBLEMS, NO_TRADES
    exit_prob, exit_keys, exit_of = _stacked(
        [t.exit for t in tables], [t.exit_of for t in tables], counts)
    alpha = exit_keys[:, 0]

    # Entry slots: row u, column p is the first entry at or after bar p of
    # the cells of entry row u. A slot is the entry bar plus k * (width + 1)
    # for side k; the last slot, ``none``, means none. The columns from the
    # window's final bar on hold it, so a walk that reaches them stops.
    none = len(shorts) * (width + 1) - 1
    moms: Dict[Tuple[int, int], np.ndarray] = {}
    rows = []
    for p, bars in zip(entry_prob.tolist(), lookback.astype(int).tolist()):
        if (p, bars) not in moms:
            series, (i0, i1), _ = stack[p]
            lo = max(i0 - bars, 0)  # the bars momentum reads, no more
            moms[p, bars] = momentum(series.close[lo:i1 - 1],
                                     bars)[i0 - lo:]
        rows.append(moms[p, bars])
    mom = _padded(rows, width + 2)  # NaN enters nowhere
    # The bars before momentum and ATR are both defined, local to the window
    warm = np.maximum(lookback, atr_window - 1) - np.array(
        [i0 for _, (i0, _), _ in stack])[entry_prob]
    columns = np.arange(width + 2)
    if warm.max() > 0:
        mom[columns < warm[:, None]] = np.nan
    nexts = []
    for short in shorts:
        signal = (mom < -theta_short[:, None] if short
                  else mom > theta_long[:, None])
        nexts.append(_reversed_min(np.where(signal, columns, width)))
    slots = nexts[0]
    if len(nexts) == 2:
        slots = np.where(nexts[0] <= nexts[1], nexts[0],
                         nexts[1] + width + 1)
        slots[slots == width] = none

    # The stack's prices, and each exit row's ATR, row atr_of[a] of atrs.
    windows = sorted({int(w) for w in exit_keys[:, 1].tolist()})
    high, low, close, atrs = _window_atrs(stack, windows, width)
    atr_of = exit_prob + len(stack) * np.searchsorted(windows, exit_keys[:, 1])

    # Exits: row a holds, for each side, the exit bar of a trade entered on
    # each bar, n (its problem's window length) if none, with n in column
    # ``width``.
    within = columns[:width] < n[:, None]  # each problem's bars
    cands, exit_tables = [], []
    for short in shorts:
        price = -close if short else close
        tested = price
        if intrabar_stop_fill:
            tested = -high if short else low
        cands.append(price[exit_prob] - alpha[:, None] * atrs[atr_of])
        exit_tables.append(_exits(np.where(within, tested, np.inf),
                                  cands[-1], exit_prob, n[exit_prob],
                                  trailing))
    exits = np.concatenate(exit_tables, axis=1)

    # The walk, one step per trade. A cell with no entry left sits on slot
    # ``none``, whose next entry is ``none`` again.
    exit_flat, slot_flat = exits.ravel(), slots.ravel()
    exit_row = exit_of * (none + 1)
    slot_row = entry_of * (width + 2)
    slot = slot_flat[slot_row]
    slot_row += 1  # the next entry is looked up from the bar after the exit
    walked, exited = [], []
    while slot.min() < none:
        x = exit_flat[exit_row + slot]
        walked.append(slot)
        exited.append(x)
        slot = slot_flat[slot_row + x]
    if not walked:
        return NO_PROBLEMS, NO_TRADES
    steps = np.array(walked).T  # each cell's slots, in cell order
    traded = steps != none
    cell = traded.nonzero()[0]
    slot = steps[traded]
    x = np.array(exited).T[traded]
    side = (slot > width).astype(np.intp)
    entry = slot - side * (width + 1)
    short = np.array(shorts)[side]
    prob = owner[cell]
    forced = x == n[prob]
    exit_bar = np.minimum(x, n[prob] - 1)
    exit_px = close[prob, exit_bar]
    if intrabar_stop_fill:
        hit = ~forced
        args = (side[hit], exit_of[cell[hit]], entry[hit], x[hit])
        stop = (_stop_max(np.stack(cands), *args) if trailing
                else np.stack(cands)[args[:3]])
        sign = np.where(short[hit], -1.0, 1.0)
        exit_px[hit] = sign * np.minimum(
            sign * _padded([series.open[i0:i1] for series, (i0, i1), _
                            in stack], width)[prob[hit], x[hit]], stop)
    first = np.cumsum(counts) - counts  # each problem's first cell
    return np.array(live)[prob], Trades(cell - first[prob], entry, exit_bar,
                                        exit_px, forced, short)


def _padded(rows: List[np.ndarray], width: int) -> np.ndarray:
    """Rows of any lengths as the rows of a NaN matrix ``width`` wide, each
    from the first column."""
    out = np.full((len(rows), width), np.nan)
    if len({len(row) for row in rows}) == 1:  # one assignment, the quickest
        out[:, :len(rows[0])] = rows
    else:
        for k, row in enumerate(rows):
            out[k, :len(row)] = row
    return out


def _window_atrs(stack: Sequence[Problem], windows: Sequence[int],
                 width: int
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The high, low and close of each problem's bars [i0, i1) as rows of
    NaN matrices ``width`` wide, and row k * len(stack) + p of a fourth:
    the ATR of window windows[k] over problem p's bars, bit for bit
    indicators.atr of the whole series sliced to [i0, i1), NaN past i1.

    The ATR at bar j is (K[j] - K[j - w]) / w, K the running true-range sum
    from the series' first bar (K[-1] = 0), and NaN before bar w - 1. Each
    problem's K is resumed from its series' checkpoint (_tr_checkpoints) at
    or before the first K that the widest window differences, in one pass
    over the stack: the true ranges as one matrix, zero before each row's
    checkpoint sum, summed along the rows by np.cumsum, which adds in bar
    order as indicators.atr's own np.cumsum does, so every K is the same
    float. The price rows start before bar i0 for this, and the three price
    matrices are views of them. Prices are positive and low <= close <=
    high on every bar, so a bar's true range max(high - low, |high - prev
    close|, |low - prev close|) is max(high, prev close) - min(low, prev
    close), the same float: each difference rounds monotonically. The bar
    before a series' first reads its first bar, so the first bar's true
    range is its high - low."""
    i0 = np.array([bounds[0] for _, bounds, _ in stack])
    checkpoint = np.maximum(i0 - windows[-1] + 1, 0) // ATR_STRIDE
    lead = i0 + 1 - checkpoint * ATR_STRIDE  # bars from K[checkpoint bar - 1]
    before = int(lead.max())  # the column of bar i0
    high, low, close = (_padded([
        _from(getattr(series, name), a - before, b)
        for series, (a, b), _ in stack], before + width)
        for name in ("high", "low", "close"))
    sums = np.empty_like(high)
    prev = close[:, :-1]
    np.maximum(high[:, 1:], prev, out=sums[:, 1:])
    sums[:, 1:] -= np.minimum(low[:, 1:], prev)
    seed = before - lead  # the column of each problem's checkpoint sum
    early = np.arange(before) < seed[:, None]
    sums[:, :before][early] = 0.0
    sums[np.arange(len(stack)), seed] = [
        _tr_checkpoints(series)[k]
        for (series, _, _), k in zip(stack, checkpoint.tolist())]
    sums = np.cumsum(sums, axis=1)
    sums[:, :before][early] = np.nan  # so a bar before w - 1 reads NaN
    atrs = np.empty((len(windows), len(stack), width))
    for k, w in enumerate(windows):
        skip = min(max(w - before, 0), width)  # K[j - w] before the columns
        atrs[k, :, :skip] = np.nan
        np.subtract(sums[:, before + skip:],
                    sums[:, before + skip - w:before + width - w],
                    out=atrs[k, :, skip:])
        atrs[k] /= w
    return (high[:, before:], low[:, before:], close[:, before:],
            atrs.reshape(len(windows) * len(stack), width))


def _from(column: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """column[lo:hi], where a bar before the first (lo < 0) reads the
    first."""
    if lo >= 0:
        return column[lo:hi]
    return np.concatenate((np.full(-lo, column[0]), column[:hi]))


def _exits(tested: np.ndarray, cand: np.ndarray, prob: np.ndarray,
           n: np.ndarray, trailing: bool) -> np.ndarray:
    """Row a, column e: the exit bar of a trade entered on bar e of
    problem prob[a], whose window holds n[a] bars, with stop candidates
    cand[a] (s * close - alpha * ATR) against the problem's tested prices
    tested[prob[a]] (s * the close or the bar's adverse extreme, +inf past
    the window); n[a] if the stop is never hit. The last column holds n.

    f(e), the first j > e with tested[j] < cand[e], is found for every
    (a, e) at once by binary lifting: level k of a sparse table holds the
    minimum of each problem's ``tested`` over bars [i, i + 2^k), +inf past
    its ``width`` columns, and each level moves every position past a
    block with no breach. The table holds levels x problems x (width + 1)
    floats. Level k is the minimum of level k - 1 at bars i and i +
    2^(k-1) for i < width - 2^(k-1), and level k - 1 at bar i above that,
    where the second bar lies past the columns; column ``width`` is +inf on
    every level. A lifted position is clamped at that column, where it
    stays, since no block from there holds a breach; the cap at n reads it
    as it reads any position past the window. A fixed stop exits at f(e).

    A trailing stop's level is the running max of the trade's candidates,
    and x < max(a, b) exactly when x < a or x < b, so a trailing stop exits
    on the first bar that breaches any one candidate of the trade so far:
    at min(f(i) for i >= e). Filling intrabar, bar j is tested against the
    candidates of bars e..j-1, which is that rule. At the close it is also
    tested against its own candidate, which a close never breaches (alpha *
    ATR >= 0), so the rule is the same.

    Neither f nor the identity holds for a NaN candidate: a comparison with
    NaN is false, so the lifting stops at f(e) = e + 1, and max(NaN, b) is
    NaN. NaN candidates exist only before the ATR warm-up, where no cell
    enters, and past the window, where f(e) > n; the running minimum from
    the right never reaches back past an entry, so no trade reads them.
    """
    rows, width = cand.shape
    levels = width.bit_length()  # 2^levels > width - 1, the longest run
    span = width + 1
    level = np.empty((len(tested), span))  # problem p's bar i at [p, i]
    level[:, :width] = tested
    level[:, width] = np.inf
    mins = [level.ravel()]  # and at p * span + i
    for k in range(1, levels):
        half = 1 << (k - 1)
        below, level = level, np.empty_like(level)
        # One contiguous pass over the flat rows, which NumPy runs without
        # the buffers (up to 192 kB) it takes for strided rows: the last
        # ``half`` columns of a row read the next row there, and are copied
        # from below instead.
        np.minimum(mins[-1][:-half], mins[-1][half:],
                   out=level.ravel()[:-half])
        level[:, width - half:] = below[:, width - half:]
        mins.append(level.ravel())
    offset = (prob * span)[:, None]
    pos = offset + np.arange(1, width + 1)
    last = offset + width
    for k in reversed(range(levels)):
        pos += (mins[k][pos] >= cand).astype(np.intp) << k
        np.minimum(pos, last, out=pos)
    pos -= offset
    exits = np.empty((rows, width + 1), dtype=np.intp)
    np.minimum(_reversed_min(pos) if trailing else pos, n[:, None],
               out=exits[:, :width])
    exits[:, width] = n
    return exits


def _stop_max(cands: np.ndarray, side: np.ndarray, row: np.ndarray,
              lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(cands[side, row, lo:hi]) for each query (lo < hi < n), exactly.

    One np.maximum.reduceat over the flattened candidates takes the queries'
    (lo, hi) flat offsets interleaved: every second result is a query's max,
    and the ones between, over the gap to the next query (or a single value
    when the next query lies before), are dropped."""
    n = cands.shape[-1]
    base = (side * cands.shape[1] + row) * n
    offsets = np.stack((base + lo, base + hi), axis=1).ravel()
    return np.maximum.reduceat(cands.ravel(), offsets)[::2]


class Position(NamedTuple):
    """A window's position, not booked: series, bars [i0, i1), trades and
    size, a weight in a plan and the quote notional once run_windows sizes
    it; ``book_trades(*position, cost_cfg)`` books it alone."""

    series: PriceSeries
    bounds: Tuple[int, int]
    found: Trades
    size: float


_trades_memo: "weakref.WeakKeyDictionary[PriceSeries, Dict[tuple, Trades]]" = (
    weakref.WeakKeyDictionary())


@functools.lru_cache(maxsize=1024)
def _one_cell(params: StrategyParams) -> CellTable:
    """The table of one cell, built once for every month that trades it."""
    return CellTable((params,))


def cell_positions(asked: Sequence[Tuple[PriceSeries, StrategyParams, float]],
                   window: Optional[Tuple[int, int]], *,
                   trailing: bool = True,
                   intrabar_stop_fill: bool = False) -> List[Position]:
    """Each (series, cell, size)'s Position over the bars in [window start,
    end] (all bars without a window), in order; a backtest's sizes are
    weights. The search does not read the size, so each (series, bounds,
    cell, execution flags) is searched once, in a memo keyed weakly by the
    series whose found columns are read-only, and the misses of one call
    are searched in one find_trades_stacked call."""
    keyed, misses = [], {}
    for series, params, size in asked:
        if size <= 0:
            raise EngineError(f"size must be > 0, got {size}")
        bounds = ((0, len(series)) if window is None
                  else series.slice_indices(*window))
        memo = _trades_memo.setdefault(series, {})
        key = (bounds, params, trailing, intrabar_stop_fill)
        if key not in memo:
            misses[id(series), key] = (memo, key,
                                       (series, bounds, _one_cell(params)))
        keyed.append((memo, key, bounds))
    if misses:
        problem, found = find_trades_stacked(
            [miss[2] for miss in misses.values()], trailing=trailing,
            intrabar_stop_fill=intrabar_stop_fill)
        ends = np.searchsorted(problem, np.arange(len(misses) + 1))
        for k, (memo, key, _) in enumerate(misses.values()):
            memo[key] = Trades(*(column[ends[k]:ends[k + 1]]
                                 for column in found))
            for column in memo[key]:
                column.flags.writeable = False
    return [Position(series, bounds, memo[key], size) for (
        series, _, size), (memo, key, bounds) in zip(asked, keyed)]


def cut_position(position: Position, halt_ts: int) -> Position:
    """The position with its window ended at its last bar at or before
    ``halt_ts``: the trades entered on or after that bar are dropped and the
    ones still open after it forced at its close. That equals the trade
    search over the cut window, since no cell enters on a window's final
    bar and a position open after it is forced there."""
    series, (i0, i1), found, size = position
    i1 = i0 + int(np.searchsorted(series.timestamps[i0:i1], halt_ts,
                                  side="right"))
    last = i1 - i0 - 1
    kept = Trades(*(column[found.entry < last] for column in found))
    held = kept.exit > last
    return Position(series, (i0, i1), kept._replace(
        exit=np.where(held, last, kept.exit),
        exit_px=np.where(held, series.close[i0:i1][-1:], kept.exit_px),
        forced=kept.forced | held), size)


def run_single_asset(
    series: PriceSeries,
    params: StrategyParams,
    *,
    window: Optional[Tuple[int, int]] = None,
    size: float = 1.0,
    cost_cfg: CostConfig = ZERO_COSTS,
    trailing: bool = True,
    intrabar_stop_fill: bool = False,
) -> SingleAssetResult:
    """Trade one cell over the bars with timestamps in [window start, end],
    on the sides whose thresholds are below +inf.

    Indicators are computed on the full series so history before the window
    provides warm-up; bars inside the window whose indicators are still
    undefined take no entry. The one-symbol, per-bar view of a backtest's
    booking: the cell's Position from cell_positions, booked by book_trades.
    """
    position = cell_positions([(series, params, size)], window,
                              trailing=trailing,
                              intrabar_stop_fill=intrabar_stop_fill)[0]
    (i0, i1), found = position.bounds, position.found
    result = book_trades(*position, cost_cfg)
    # The stop in force after each bar of a trade, into the ledger's
    # all-NaN stop path (NaN when flat).
    stop = result.stop
    if len(found.cell):
        close = series.close[i0:i1]
        risk = params.alpha * atr(series.high, series.low, series.close,
                                  params.atr_window)[i0:i1]
        cands = (close - risk, -close - risk)  # long, short
        for e, x, short in zip(found.entry.tolist(), found.exit.tolist(),
                               found.short.tolist()):
            if trailing:
                np.maximum.accumulate(cands[short][e:x], out=stop[e:x])
            else:
                stop[e:x] = cands[short][e]
            if short:
                np.negative(stop[e:x], out=stop[e:x])
    return result


# ---------------------------------------------------------------------------
# Batched grid search
# ---------------------------------------------------------------------------

def grid_sharpes_stacked(
    problems: Sequence[Problem],
    cost_cfg: CostConfig,
    rf_annual: float,
    *,
    trailing: bool = True,
    intrabar_stop_fill: bool = False,
) -> List[np.ndarray]:
    """Each problem's row of Sharpes of its cells' net per-bar returns on
    its bars [i0, i1), one per cell; NaN if unusable. A problem is a
    (series, bounds, cells) triple.

    Every cell must turn on one side, the same for all cells of all
    problems, by its threshold below +inf, and the other off with +inf, and
    every problem's window must hold the same number of bars of series at
    the same bar interval; an EngineError says otherwise. Element k of a
    problem's row equals, bit for bit, the Sharpe of run_single_asset with
    its cells[k], size 1.0 and the same execution flags over the same bars,
    and is NaN where that run has no trade or an undefined Sharpe.

    The cells are read as CellTables, whose sides are known when a table
    is built, so a table such as rebalancer.grid_cells' costs no pass over
    its cells. One find_trades_stacked call finds every cell's trades. The
    problems with trades are laid end to end, as in
    backtester.aggregate_results, for one trade_fills and one funding_paid
    call. The returns of the traded cells are then netted as one matrix, one
    row per cell, which this call owns: the trades are freed, and one
    sharpe_rows_in_place call scores the matrix in place, so scoring adds a
    bool mask (an eighth of the matrix's bytes) and no second matrix. Every
    row's Sharpe equals that row scored alone by sharpe_rows_in_place.
    """
    problems = [(series, bounds, CellTable(cells))
                for series, bounds, cells in problems]
    sides = frozenset().union(*(cells.sides for _, _, cells in problems))
    if sides not in ({(True, False)}, {(False, True)}):
        raise EngineError("grid_sharpes_stacked needs cells that all turn on"
                          " one side, long or short, and the other off with"
                          " +inf")
    shapes = {(i1 - i0, series.interval) for series, (i0, i1), _ in problems}
    if len(shapes) != 1:
        raise EngineError("grid_sharpes_stacked needs windows of one length"
                          " at one bar interval, got (bars, interval) pairs"
                          f" {sorted(shapes)}")
    [(bars, interval)] = shapes
    counts = [len(cells) for _, _, cells in problems]
    ends = np.cumsum(counts)
    sharpes = np.full(sum(counts), np.nan)
    rows_of = [sharpes[end - count:end]
               for count, end in zip(counts, ends.tolist())]
    traded, net = _net_returns(
        problems, ends - counts, bars, interval, sides == {(False, True)},
        cost_cfg, trailing=trailing, intrabar_stop_fill=intrabar_stop_fill)
    if len(traded):
        sharpes[traded] = sharpe_rows_in_place(net, rf_annual,
                                               bars_per_year(interval))
    return rows_of


def _net_returns(problems: Sequence[Problem], first: np.ndarray, bars: int,
                 interval: int, short: bool, cost_cfg: CostConfig, *,
                 trailing: bool, intrabar_stop_fill: bool
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """The cells with trades, numbered through the stack (problem k's
    from first[k]), and their net per-bar returns, one row each, for
    problems of ``bars`` bars whose cells all trade one side, short or long.
    Only these two arrays outlive the call, so the trades are freed before
    scoring."""
    problem, found = find_trades_stacked(
        problems, trailing=trailing, intrabar_stop_fill=intrabar_stop_fill)
    m = len(found.cell)
    if not m:
        return NO_PROBLEMS, np.zeros((0, bars))

    # The problems with trades, laid end to end: laid problem q's bars start
    # at base[q]. Each of their traded cells is a row of returns, in order.
    new_problem = _starts(problem)
    laid = [problems[p] for p in problem[new_problem].tolist()]
    q = np.cumsum(new_problem) - 1
    base = np.arange(len(laid)) * bars
    ts, close, volume = (np.concatenate([
        getattr(series, name)[i0:i1] for series, (i0, i1), _ in laid])
        for name in ("timestamps", "close", "volume"))
    cell = first[problem] + found.cell
    starts = _starts(cell)
    traded = cell[starts]
    row = np.cumsum(starts) - 1  # each trade's row
    e, x = found.entry, found.exit
    ent, ext = e + base[q], x + base[q]
    gross = np.zeros(len(close))  # no trade holds a problem's first bar
    gross[1:] = close[1:] / close[:-1] - 1.0
    exit_gross = found.exit_px / close[ext - 1] - 1.0  # fills at exit_px
    fund = funding_paid(ts, base, np.full(len(laid), bars),
                        [s.symbol for s, _, _ in laid], np.ones(len(laid)),
                        cost_cfg)
    if short:
        np.negative(gross, out=gross)
        np.negative(exit_gross, out=exit_gross)
        fund = 0.0 - fund
    fees, slips = trade_fills(close, volume, ent, ext, found.exit_px, 1.0,
                              interval, cost_cfg)
    fill_cost = fees + slips

    # A trade holds its position entering bars e+1 .. x: a row is flat from
    # its first bar, flips to held at e+1 and back at x+1, and the next
    # entry flips it at x+2 at the earliest. Column ``bars`` flips once
    # more, which makes every row's flips even, so one running parity over
    # the rows laid end to end marks each row's own flat bars. Costs are
    # summed in book_trades' order (funding, then the fill) so that every
    # net return is the same float.
    flat = np.zeros((len(traded), bars + 1), dtype=bool)
    flat[:, 0] = True
    flat[row, e + 1] = True
    flat[row, x + 1] = True
    np.logical_not(flat[:, bars], out=flat[:, bars])
    np.logical_xor.accumulate(flat.ravel(), out=flat.ravel())
    net = (gross - fund).reshape(-1, bars)[q[starts]]
    np.copyto(net, 0.0, where=flat[:, :bars])
    net[row, e] = 0.0 - fill_cost[:m]
    net[row, x] = exit_gross - (fund[ext] + fill_cost[m:])
    return traded, net


def _starts(ids: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a nonempty array begins."""
    starts = np.empty(len(ids), dtype=bool)
    starts[0] = True
    np.not_equal(ids[1:], ids[:-1], out=starts[1:])
    return starts


# ---------------------------------------------------------------------------
# Ledger serialization
# ---------------------------------------------------------------------------

def write_ledger(ledger: Ledger, path: str) -> None:
    """ledger.csv: the ledger's columns, ``forced`` written as 0 or 1."""
    write_columns(path, LEDGER_HEADER,
                  [*ledger.columns()[:-1], ledger.forced.astype(int)])
