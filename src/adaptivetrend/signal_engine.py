"""Per-asset trading: momentum entries, ATR trailing stops, exits, and the ledger.

One symbol, one parameter set, at most one open position. Entries and stop
exits fill at the close of the triggering bar (signals are evaluated on bar
closes; an optional intrabar mode fills stop exits pessimistically at the
stop level). Re-entry is allowed from the next bar after an exit, never on
the exit bar itself.

One trade search (``find_trades``) finds the trades of any number of cells
at once, in array passes: a next-entry table per entry rule, an exit table
per stop rule (binary lifting over a sparse table of minima), then one walk
in which every cell jumps from entry to exit to next entry. A cell trades
the sides whose thresholds are below +inf; no caller names a side. Each
series' ATR is computed once per ATR window (``series_atr``) and shared by
every search over it; that memo and the one-cell trade memo
(``_cell_trades``) are keyed weakly by the series. The trades stay the
search's ``Trades`` columns up to one ledger (``book_trades``, shared with
the comparison benchmarks, whose positions are one-row ``Trades``), which
accounts for them. ``run_single_asset`` is the two in turn: it returns the
closed trades (with full cost attribution) and per-bar series, strategy
returns for Sharpe evaluation plus currency-denominated realized /
mark-to-market / cost components that let a caller audit account equity
exactly. ``grid_sharpes`` scores many one-sided cells at once for the
monthly grid search with the same search, so the optimizer scores the
execution model that trades. It and the ledger price fills with one step
(``_fills``), so both pay the same costs.
"""

import math
import weakref
from dataclasses import dataclass, fields
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .cost_model import (LONG, SHORT, ZERO_COSTS, CostConfig, fill_costs,
                         funding_schedule)
from .indicators import atr, momentum, sharpe_rows
from .market_data import PriceSeries, bars_per_year, read_csv, write_columns

LEDGER_HEADER = [
    "symbol", "side", "entry_ts", "entry_px", "exit_ts", "exit_px", "size",
    "gross_pnl", "fee", "slippage", "funding", "net_pnl", "forced",
]


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
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be > 0 and finite, got {self.alpha}")
        if self.lookback < 1:
            raise ValueError("lookback must be >= 1")
        if self.atr_window < 1:
            raise ValueError("atr_window must be >= 1")

    def warmup_bars(self) -> int:
        """Bars before momentum and ATR are both defined."""
        return max(self.lookback, self.atr_window - 1)


@dataclass(frozen=True)
class TradeRecord:
    """Closed trade with exact cost attribution.

    net_pnl is definitionally gross_pnl - fee_cost - slippage_cost -
    funding_cost (funding may be negative, a rebate). ``forced`` marks
    positions closed by the end of the trading window rather than by a stop.
    """

    symbol: str
    side: str
    entry_ts: int
    entry_px: float
    exit_ts: int
    exit_px: float
    size: float
    gross_pnl: float
    fee_cost: float
    slippage_cost: float
    funding_cost: float
    net_pnl: float
    forced: bool

    def __post_init__(self) -> None:
        if self.exit_ts <= self.entry_ts:
            raise EngineError(
                f"{self.symbol}: exit_ts {self.exit_ts} not after entry_ts {self.entry_ts}"
            )
        expected = self.gross_pnl - self.fee_cost - self.slippage_cost - self.funding_cost
        if self.net_pnl != expected:
            raise EngineError(
                f"{self.symbol}: net_pnl {self.net_pnl} != gross - costs {expected}"
            )


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
    trades: List[TradeRecord]


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


def _fills(series: PriceSeries, bounds: Tuple[int, int], found: Trades,
           size: float, cost_cfg: CostConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Fee and slippage of every fill of the found trades: the m entries,
    then the m exits. An entry's notional is ``size``, an exit's the
    position's value at its fill price."""
    i0, i1 = bounds
    close = series.close[i0:i1]
    fill_bars = np.concatenate((found.entry, found.exit))
    notional = np.concatenate((np.full(len(found.cell), size),
                               size * found.exit_px / close[found.entry]))
    return fill_costs(notional, series.volume[i0:i1][fill_bars],
                      close[fill_bars], cost_cfg, series.interval)


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

    Every strategy's trades go through here, so all of them pay the same
    fills and funding and are marked to market the same way. Each trade
    pays fee and slippage on its entry fill (notional ``size``) and on its
    exit fill (the position's value at the exit price), plus funding on the
    bars it is held entering, (entry, exit], when ``charge_funding``. Trades
    must be in time order and must not overlap. The ledger knows no stop
    rule: the result's stop path is all NaN for the caller to fill.
    """
    i0, i1 = bounds
    n = i1 - i0
    timestamps = series.timestamps[i0:i1]
    close = series.close[i0:i1]
    position = np.zeros(n, dtype=np.int8)
    stop = np.full(n, np.nan)
    gross_returns = np.zeros(n)
    costs = np.zeros(n)
    realized_cum = np.zeros(n)
    open_mtm = np.zeros(n)
    open_costs = np.zeros(n)
    records: List[TradeRecord] = []
    funding_of: Dict[str, np.ndarray] = {}
    realized = 0.0
    m = len(found.cell)
    if m:
        fill_fees, fill_slips = (c.tolist() for c in _fills(
            series, bounds, found, size, cost_cfg))
    for k, (e, x, exit_px, short, forced) in enumerate(zip(
            found.entry.tolist(), found.exit.tolist(),
            found.exit_px.tolist(), found.short.tolist(),
            found.forced.tolist())):
        side = SHORT if short else LONG
        entry_px = float(close[e])
        position[e:x] = -1 if short else 1
        moves = close[e + 1:x + 1] / close[e:x] - 1.0
        moves[-1] = exit_px / close[x - 1] - 1.0
        gross_returns[e + 1:x + 1] = -moves if short else moves
        open_mtm[e:x] = gross_pnl(side, size, entry_px, close[e:x])
        entry_fee, exit_fee = fill_fees[k], fill_fees[m + k]
        entry_slip, exit_slip = fill_slips[k], fill_slips[m + k]
        fees, slips = entry_fee + exit_fee, entry_slip + exit_slip
        costs[e] = entry_fee + entry_slip
        open_costs[e:x] = costs[e]
        funded = 0.0
        if charge_funding:
            if side not in funding_of:
                funding_of[side] = funding_schedule(
                    timestamps, cost_cfg, series.symbol, side, size)
            paid = funding_of[side][e + 1:x + 1]
            accrued = np.cumsum(paid)
            costs[e + 1:x + 1] = paid
            open_costs[e + 1:x] += accrued[:-1]
            funded = float(accrued[-1])
        costs[x] += exit_fee + exit_slip
        gross = gross_pnl(side, size, entry_px, exit_px)
        net = gross - fees - slips - funded
        realized += net
        realized_cum[x:] = realized
        records.append(TradeRecord(
            symbol=series.symbol, side=side,
            entry_ts=int(timestamps[e]), entry_px=entry_px,
            exit_ts=int(timestamps[x]), exit_px=exit_px, size=size,
            gross_pnl=gross, fee_cost=fees, slippage_cost=slips,
            funding_cost=funded, net_pnl=net, forced=forced,
        ))
    return SingleAssetResult(series.symbol, timestamps.copy(),
                             position, stop, gross_returns,
                             gross_returns - costs / size, costs, realized_cum,
                             open_mtm, open_costs, records)


# ---------------------------------------------------------------------------
# The trade search
# ---------------------------------------------------------------------------

_atr_memo: "weakref.WeakKeyDictionary[PriceSeries, Dict[int, np.ndarray]]" = (
    weakref.WeakKeyDictionary())


def series_atr(series: PriceSeries, window: int) -> np.ndarray:
    """ATR of the whole series, computed once per (series, ATR window) and
    shared by every search over it: the optimizer's and the trader's. A
    window-only ATR would differ in its last bits, because the running sum
    starts at the series' first bar. The memo is keyed weakly by the
    series (hashed by identity), so an entry lives as long as its series and
    holds only what that series' prices determine."""
    memo = _atr_memo.setdefault(series, {})
    if window not in memo:
        memo[window] = atr(series.high, series.low, series.close, window)
    return memo[window]


def _rows(keys: List[tuple]) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct keys in first-seen order, one row each, and the row of
    each key."""
    rows: Dict[tuple, int] = {}
    row_of = np.fromiter((rows.setdefault(k, len(rows)) for k in keys),
                         np.intp, len(keys))
    return np.array(list(rows)), row_of


def _reversed_min(a: np.ndarray) -> np.ndarray:
    """Row-wise running minimum from the right."""
    return np.minimum.accumulate(a[:, ::-1], axis=1)[:, ::-1]


def find_trades(
    series: PriceSeries,
    bounds: Tuple[int, int],
    cells: Sequence[StrategyParams],
    *,
    trailing: bool = True,
    intrabar_stop_fill: bool = False,
) -> Trades:
    """The trades of every cell in one window of bars [i0, i1), under one
    execution model.

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

    The search is a few array passes shared by all cells. Cells with equal
    entry parameters share a row of next-entry slots, cells with equal
    (alpha, ATR window) a row of exits for every entry bar (see _exits).
    All cells then walk their chains together, one trade per step: a gather
    of the exit of (the cell's exit row, entry), then of the next entry of
    (the cell's entry row, exit + 1). No arithmetic beyond the stop
    candidates is done on prices, so the trades are exact.
    """
    i0, i1 = bounds
    n = i1 - i0
    if n < 2 or not cells:
        return NO_TRADES
    entry_keys, entry_of = _rows([
        (c.theta_entry, c.theta_entry_short, c.lookback, c.atr_window)
        for c in cells])
    theta_long, theta_short, lookback, atr_window = entry_keys.T
    # The sides that any cell turns on: side k holds row k of the stop
    # candidates and block k of the exits and entry slots.
    shorts = [short for short in (False, True)
              if ((theta_short if short else theta_long) < math.inf).any()]
    if not shorts:
        return NO_TRADES
    exit_keys, exit_of = _rows([(c.alpha, c.atr_window) for c in cells])

    # Entry slots: row u, column p is the first entry at or after bar p of
    # the cells of entry row u. A slot is the entry bar plus k * (n + 1) for
    # side k; the last slot, ``none``, means none. Columns n and n + 1 hold
    # it, so a walk that reaches them stops.
    none = len(shorts) * (n + 1) - 1
    lookbacks = lookback.astype(int).tolist()
    moms: Dict[int, np.ndarray] = {}
    for bars in lookbacks:
        if bars not in moms:
            lo = max(i0 - bars, 0)  # the bars momentum reads, no more
            moms[bars] = momentum(series.close[lo:i1 - 1], bars)[i0 - lo:]
    mom = np.full((len(entry_keys), n + 2), np.nan)  # NaN enters nowhere
    mom[:, :n - 1] = [moms[bars] for bars in lookbacks]
    # StrategyParams.warmup_bars, local to the window
    warm = np.maximum(lookback, atr_window - 1) - i0
    if warm.max() > 0:
        mom[np.arange(n + 2) < warm[:, None]] = np.nan
    nexts = []
    for short in shorts:
        signal = (mom < -theta_short[:, None] if short
                  else mom > theta_long[:, None])
        nexts.append(_reversed_min(np.where(signal, np.arange(n + 2), n)))
    slots = nexts[0]
    if len(nexts) == 2:
        slots = np.where(nexts[0] <= nexts[1], nexts[0], nexts[1] + n + 1)
        slots[slots == n] = none

    # Exits: row a holds, for each side, the exit bar of a trade entered on
    # each bar, n if none, with n in column n.
    close = series.close[i0:i1]
    alpha, exit_atr_window = exit_keys.T
    atrs = np.array([series_atr(series, w)[i0:i1]
                     for w in exit_atr_window.astype(int).tolist()])
    cands, exit_tables = [], []
    for short in shorts:
        price = -close if short else close
        tested = price
        if intrabar_stop_fill:
            tested = -series.high[i0:i1] if short else series.low[i0:i1]
        cands.append(price - alpha[:, None] * atrs)
        exit_tables.append(_exits(tested, cands[-1], trailing))
    exits = np.concatenate(exit_tables, axis=1)

    # The walk, one step per trade. A cell with no entry left sits on slot
    # ``none``, whose exit is n and whose next entry is ``none`` again.
    exit_flat, slot_flat = exits.ravel(), slots.ravel()
    exit_row = exit_of * (none + 1)
    slot_row = entry_of * (n + 2)
    slot = slot_flat[slot_row]
    slot_row += 1  # the next entry is looked up from the bar after the exit
    walked, exited = [], []
    while slot.min() < none:
        x = exit_flat[exit_row + slot]
        walked.append(slot)
        exited.append(x)
        slot = slot_flat[slot_row + x]
    if not walked:
        return NO_TRADES
    steps = np.array(walked).T  # each cell's slots, in cell order
    live = steps != none
    cell = live.nonzero()[0]
    slot = steps[live]
    x = np.array(exited).T[live]
    side = (slot > n).astype(np.intp)
    entry = slot - side * (n + 1)
    short = np.array(shorts)[side]
    forced = x == n
    exit_bar = np.minimum(x, n - 1)
    exit_px = close[exit_bar]
    if intrabar_stop_fill:
        hit = ~forced
        args = (side[hit], exit_of[cell[hit]], entry[hit], x[hit])
        stop = (_stop_max(np.stack(cands), *args) if trailing
                else np.stack(cands)[args[:3]])
        sign = np.where(short[hit], -1.0, 1.0)
        exit_px[hit] = sign * np.minimum(sign * series.open[i0:i1][x[hit]],
                                         stop)
    return Trades(cell, entry, exit_bar, exit_px, forced, short)


def _exits(tested: np.ndarray, cand: np.ndarray,
           trailing: bool) -> np.ndarray:
    """Row a, column e: the exit bar of a trade entered on bar e with stop
    candidates cand[a] (s * close - alpha * ATR) against tested prices
    ``tested`` (s * the close or the bar's adverse extreme), n if the stop
    is never hit; column n holds n.

    f(e), the first j > e with tested[j] < cand[e], is found for every
    (a, e) at once by binary lifting: level k of a sparse table holds the
    minimum of ``tested`` over bars [i, i + 2^k), padded with +inf so that
    every gather fits, and each level moves every position past a block
    with no breach. A fixed stop exits at f(e).

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
    enters, and the running minimum from the right never reaches back past
    an entry, so no trade reads them.
    """
    rows, n = cand.shape
    levels = n.bit_length()  # 2^levels > n - 1, the longest run to skip
    mins = np.full((levels, n + (1 << levels)), np.inf)
    mins[0, :n] = tested
    for k in range(1, levels):
        half = 1 << (k - 1)
        np.minimum(mins[k - 1, :n], mins[k - 1, half:n + half],
                   out=mins[k, :n])
    pos = np.repeat(np.arange(1, n + 1)[None], rows, axis=0)
    for k in reversed(range(levels)):
        pos += (mins[k][pos] >= cand).astype(np.intp) << k
    exits = np.full((rows, n + 1), n)
    np.minimum(_reversed_min(pos) if trailing else pos, n, out=exits[:, :n])
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


_trades_memo: "weakref.WeakKeyDictionary[PriceSeries, Dict[tuple, Trades]]" = (
    weakref.WeakKeyDictionary())


def _cell_trades(series: PriceSeries, bounds: Tuple[int, int],
                 params: StrategyParams, trailing: bool,
                 intrabar_stop_fill: bool) -> Trades:
    """find_trades of one cell, run once per (series, bounds, cell,
    execution flags): the runs that trade a cell at different sizes (the
    lambda points of a sweep) share it, since only the ledger reads the
    size. Keyed weakly by the series, as series_atr is; the found columns
    are made read-only, since every caller shares them."""
    memo = _trades_memo.setdefault(series, {})
    key = (bounds, params, trailing, intrabar_stop_fill)
    if key not in memo:
        found = find_trades(series, bounds, (params,), trailing=trailing,
                            intrabar_stop_fill=intrabar_stop_fill)
        for column in found:
            column.flags.writeable = False
        memo[key] = found
    return memo[key]


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
    undefined take no entry. find_trades finds the trades under the given
    execution model, once for every size (_cell_trades), and book_trades
    accounts for them.
    """
    if size <= 0:
        raise EngineError(f"size must be > 0, got {size}")
    bounds = ((0, len(series)) if window is None
              else series.slice_indices(*window))
    i0, i1 = bounds
    found = _cell_trades(series, bounds, params, trailing, intrabar_stop_fill)
    result = book_trades(series, bounds, found, size, cost_cfg)
    # The stop in force after each bar of a trade, into the ledger's
    # all-NaN stop path (NaN when flat).
    stop = result.stop
    if len(found.cell):
        close = series.close[i0:i1]
        risk = params.alpha * series_atr(series, params.atr_window)[i0:i1]
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

def grid_sharpes(
    series: PriceSeries,
    cells: Sequence[StrategyParams],
    bounds: Tuple[int, int],
    cost_cfg: CostConfig,
    rf_annual: float,
    *,
    trailing: bool = True,
    intrabar_stop_fill: bool = False,
) -> np.ndarray:
    """Sharpe of each cell's net per-bar returns on bars [i0, i1); NaN if unusable.

    Every cell must turn on one side, the same for all, by its threshold
    below +inf, and the other off with +inf; an EngineError says otherwise.
    Element k equals, bit for bit, the Sharpe of run_single_asset with
    cells[k], size 1.0 and the same execution flags over the same bars, and
    is NaN where that run has no trade or an undefined Sharpe. One
    find_trades call finds every cell's trades; the returns of all cells are
    then netted as one matrix.
    """
    sides = {(c.theta_entry < math.inf, c.theta_entry_short < math.inf)
             for c in cells}
    if sides not in ({(True, False)}, {(False, True)}):
        raise EngineError("grid_sharpes needs cells that all turn on one"
                          " side, long or short, and the other off with +inf")
    side = LONG if sides == {(True, False)} else SHORT
    i0, i1 = bounds
    n = i1 - i0
    sharpes = np.full(len(cells), np.nan)
    found = find_trades(series, bounds, cells, trailing=trailing,
                        intrabar_stop_fill=intrabar_stop_fill)
    m = len(found.cell)
    if not m:
        return sharpes

    # The trades come grouped by cell: one row of returns per traded cell.
    starts = np.empty(m, dtype=bool)
    starts[0] = True
    np.not_equal(found.cell[1:], found.cell[:-1], out=starts[1:])
    traded = found.cell[starts]
    rows = np.cumsum(starts) - 1
    ent, ext, exit_px = found.entry, found.exit, found.exit_px
    # A trade holds its position entering bars e+1 .. x: the held flag
    # flips at e+1 and back at x+1, and the next entry flips it at x+2 at
    # the earliest.
    held = np.zeros((len(traded), n + 1), dtype=bool)
    held[rows, ent + 1] = True
    held[rows, ext + 1] = True
    held = np.logical_xor.accumulate(held, axis=1)[:, :n]

    close = series.close[i0:i1]
    gross = np.zeros(n)
    gross[1:] = close[1:] / close[:-1] - 1.0
    exit_gross = exit_px / close[ext - 1] - 1.0  # the exit fills at exit_px
    if side == SHORT:
        np.negative(gross, out=gross)
        np.negative(exit_gross, out=exit_gross)
    fund = funding_schedule(series.timestamps[i0:i1], cost_cfg, series.symbol,
                            side, 1.0)
    fees, slips = _fills(series, bounds, found, 1.0, cost_cfg)
    fill_cost = fees + slips
    net = np.zeros((len(traded), n))
    np.copyto(net, gross - fund, where=held)
    # Costs are summed in book_trades' order (funding, then the fill) so
    # that every net return is the same float.
    net[rows, ent] = 0.0 - fill_cost[:m]
    net[rows, ext] = exit_gross - (fund[ext] + fill_cost[m:])
    sharpes[traded] = sharpe_rows(net, rf_annual,
                                  bars_per_year(series.interval))
    return sharpes


# ---------------------------------------------------------------------------
# Ledger serialization
# ---------------------------------------------------------------------------

def write_ledger(trades: List[TradeRecord], path: str) -> None:
    # TradeRecord's fields are the ledger's columns, in order.
    columns = [[getattr(t, f.name) for t in trades]
               for f in fields(TradeRecord)]
    columns[-1] = [int(forced) for forced in columns[-1]]
    write_columns(path, LEDGER_HEADER, columns)


def _parse_trade(row: List[str]) -> TradeRecord:
    return TradeRecord(
        symbol=row[0], side=row[1],
        entry_ts=int(row[2]), entry_px=float(row[3]),
        exit_ts=int(row[4]), exit_px=float(row[5]),
        size=float(row[6]), gross_pnl=float(row[7]),
        fee_cost=float(row[8]), slippage_cost=float(row[9]),
        funding_cost=float(row[10]), net_pnl=float(row[11]),
        forced=bool(int(row[12])),
    )


def read_ledger(path: str) -> List[TradeRecord]:
    return read_csv(path, LEDGER_HEADER, _parse_trade)
