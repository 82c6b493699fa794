"""Per-asset trading: momentum entries, ATR trailing stops, exits, and the ledger.

One symbol, one parameter set, at most one open position. Entries and stop
exits fill at the close of the triggering bar (signals are evaluated on bar
closes; an optional intrabar mode fills stop exits pessimistically at the
stop level). Re-entry is allowed from the next bar after an exit, never on
the exit bar itself.

One trade search (``TradeSearch``) finds a cell's trades by jumping from
each entry to its exit; one ledger (``book_trades``, shared with the
comparison benchmarks) accounts for them. ``run_single_asset`` is the two in
turn: it returns the closed trades (with full cost attribution) and per-bar
series, strategy returns for Sharpe evaluation plus currency-denominated
realized / mark-to-market / cost components that let a caller audit account
equity exactly. ``grid_sharpes`` scores many cells of one side at once for
the monthly grid search with the same search, so the optimizer scores the
execution model that trades.
"""

import math
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cost_model import LONG, SHORT, CostConfig, fill_costs, funding_schedule
from .indicators import atr, momentum, sharpe_rows
from .market_data import (PriceSeries, SeriesArrays, bars_per_year, read_csv,
                          write_columns)

SIDE_CHOICES = ("long", "short", "both")

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
    -theta_entry_short to open a short); +inf disables the side. alpha scales
    the ATR stop distance; lookback is the momentum window and atr_window the
    ATR window, both in bars.
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
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
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


# A trade as the ledger takes it: entry bar, exit bar (both local to the
# window), exit price, side and the forced flag. The entry fills at the entry
# bar's close.
Trade = Tuple[int, int, float, str, bool]


def book_trades(
    series: PriceSeries,
    bounds: Tuple[int, int],
    trades: Sequence[Trade],
    size: float,
    cost_cfg: Optional[CostConfig],
    stop: np.ndarray,
    *,
    charge_funding: bool = True,
) -> SingleAssetResult:
    """Account for the trades of one window of bars [i0, i1).

    Every strategy's trades go through here, so all of them pay the same
    fills and funding and are marked to market the same way. Each trade
    pays fee and slippage on its entry fill (notional ``size``) and on its
    exit fill (the position's value at the exit price), plus funding on the
    bars it is held entering, (entry, exit], when ``charge_funding``. Trades
    must be in time order and must not overlap; ``stop`` is the stop path to
    report. With cost_cfg None all costs are zero and net equals gross.
    """
    arr = series.arrays
    i0, i1 = bounds
    n = i1 - i0
    close = arr.close[i0:i1]
    position = np.zeros(n, dtype=np.int8)
    gross_returns = np.zeros(n)
    costs = np.zeros(n)
    realized_cum = np.zeros(n)
    open_mtm = np.zeros(n)
    open_costs = np.zeros(n)
    records: List[TradeRecord] = []
    funding_of: Dict[str, np.ndarray] = {}
    realized = 0.0
    m = len(trades)
    if cost_cfg is not None and m:
        # All of the window's fills at once: the m entries, then the m exits.
        ent, ext, exit_pxs = (np.array(col) for col in list(zip(*trades))[:3])
        fill_bars = i0 + np.concatenate((ent, ext))
        notional = np.concatenate((np.full(m, size),
                                   size * exit_pxs / close[ent]))
        fill_fees, fill_slips = (c.tolist() for c in fill_costs(
            notional, arr.volume[fill_bars], arr.close[fill_bars], cost_cfg,
            series.interval))
    for k, (e, x, exit_px, side, forced) in enumerate(trades):
        long = side == LONG
        entry_px = float(close[e])
        position[e:x] = 1 if long else -1
        moves = close[e + 1:x + 1] / close[e:x] - 1.0
        moves[-1] = exit_px / close[x - 1] - 1.0
        gross_returns[e + 1:x + 1] = moves if long else -moves
        open_mtm[e:x] = gross_pnl(side, size, entry_px, close[e:x])
        fees = slips = funded = 0.0
        if cost_cfg is not None:
            entry_fee, exit_fee = fill_fees[k], fill_fees[m + k]
            entry_slip, exit_slip = fill_slips[k], fill_slips[m + k]
            fees, slips = entry_fee + exit_fee, entry_slip + exit_slip
            costs[e] = entry_fee + entry_slip
            open_costs[e:x] = costs[e]
            if charge_funding:
                if side not in funding_of:
                    funding_of[side] = funding_schedule(
                        arr.timestamps[i0:i1], cost_cfg, series.symbol, side,
                        size)
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
            entry_ts=int(arr.timestamps[i0 + e]), entry_px=entry_px,
            exit_ts=int(arr.timestamps[i0 + x]), exit_px=exit_px, size=size,
            gross_pnl=gross, fee_cost=fees, slippage_cost=slips,
            funding_cost=funded, net_pnl=net, forced=forced,
        ))
    return SingleAssetResult(series.symbol, arr.timestamps[i0:i1].copy(),
                             position, stop, gross_returns,
                             gross_returns - costs / size, costs, realized_cum,
                             open_mtm, open_costs, records)


# ---------------------------------------------------------------------------
# The trade search
# ---------------------------------------------------------------------------

class TradeSearch:
    """The trades of any number of cells in one window of bars [i0, i1),
    under one execution model.

    A cell enters at the close of a bar whose momentum passes the side's
    threshold, from its first bar with defined indicators on, never on the
    window's final bar, and again only from the bar after an exit; with
    side_enabled "both" the earlier side's signal enters, long on a tie.
    Entering on bar e sets the stop to the candidate close -/+ alpha * ATR.
    With ``trailing`` the stop after bar j is the running max (long) or min
    (short) of the candidates of bars e..j, else it stays at bar e's. The
    exit is the first bar j > e that closes beyond the stop after bar j,
    filled at the close; with ``intrabar_stop_fill``, the first whose low
    (long) or high (short) breaches the stop after bar j - 1, filled at that
    stop or at a worse open. A stop hit on the final bar is a stop exit; a
    position still open after it is forced at the close. Prices are compared
    as sign * price, so the long rule serves both sides (negation is exact).
    Indicators, next-signal indexes, stop candidates and exits are memoised
    by what they depend on, so the cells of a grid share them.
    """

    def __init__(self, arr: SeriesArrays, bounds: Tuple[int, int],
                 trailing: bool = True, intrabar_stop_fill: bool = False):
        self.arr = arr
        self.i0, i1 = bounds
        self.n = i1 - self.i0
        self.trailing = trailing
        self.intrabar = intrabar_stop_fill
        close, low, high, open_ = (col[self.i0:i1] for col in
                                   (arr.close, arr.low, arr.high, arr.open))
        self.close = close
        # sign * (close, open, and the price a stop is tested against: the
        # close, or the adverse extreme of the bar when filling intrabar)
        self.prices = {
            LONG: (close, open_, low if intrabar_stop_fill else close),
            SHORT: (-close, -open_, -high if intrabar_stop_fill else -close)}
        self._atrs: Dict[int, np.ndarray] = {}
        self._moms: Dict[int, np.ndarray] = {}
        self._next_entry: Dict[tuple, List[int]] = {}
        self._stops: Dict[tuple, Tuple[np.ndarray, Dict[int, Trade]]] = {}

    def trades(self, cell: StrategyParams, side_enabled: str) -> List[Trade]:
        """The cell's trades in time order."""
        n = self.n
        if n < 2:
            return []
        if side_enabled == "both":
            sides = (LONG, SHORT)
            first = self.next_entries(cell, LONG)
            nxt = list(map(min, first, self.next_entries(cell, SHORT)))
            stops = (self.stops(cell, LONG), self.stops(cell, SHORT))
        else:
            sides = (side_enabled,)
            first = nxt = self.next_entries(cell, side_enabled)
            stops = (self.stops(cell, side_enabled),)
        found: List[Trade] = []
        e = nxt[0]
        while e < n:
            i = first[e] != e  # the first side unless only the second signals
            trade = stops[i][1].get(e)
            if trade is None:
                trade = stops[i][1][e] = self._trade(stops[i][0], sides[i], e)
            found.append(trade)
            e = nxt[trade[1] + 1]
        return found

    def stop_path(self, cell: StrategyParams,
                  trades: Sequence[Trade]) -> np.ndarray:
        """The stop in force after each bar of the window; NaN when flat."""
        stop = np.full(self.n, np.nan)
        for e, x, _, side, _ in trades:
            cand = self.stops(cell, side)[0][e:x]
            sign = 1.0 if side == LONG else -1.0
            stop[e:x] = sign * (np.maximum.accumulate(cand) if self.trailing
                                else cand[0])
        return stop

    def next_entries(self, cell: StrategyParams, side: str) -> List[int]:
        """Element j: the first entry signal bar at or after j, n if none."""
        theta = cell.theta_entry if side == LONG else cell.theta_entry_short
        key = (side, theta, cell.lookback, cell.atr_window)
        nxt = self._next_entry.get(key)
        if nxt is None:
            n, last = self.n, self.n - 1
            if cell.lookback not in self._moms:
                self._moms[cell.lookback] = momentum(
                    self.arr.close, cell.lookback)[self.i0:self.i0 + n]
            first = max(cell.warmup_bars() - self.i0, 0)
            mom = self._moms[cell.lookback][first:last]
            signal = np.zeros(n + 1, dtype=bool)
            signal[first:last] = mom > theta if side == LONG else mom < -theta
            slots = np.where(signal, np.arange(n + 1), n)
            nxt = np.minimum.accumulate(slots[::-1])[::-1].tolist()
            self._next_entry[key] = nxt
        return nxt

    def stops(self, cell: StrategyParams, side: str) -> Tuple[np.ndarray, dict]:
        """sign * (close -/+ alpha * ATR) of the window's bars, the stop
        candidates, and the memo of the trades using them by entry bar."""
        key = (side, cell.alpha, cell.atr_window)
        memo = self._stops.get(key)
        if memo is None:
            if cell.atr_window not in self._atrs:
                a = self.arr
                self._atrs[cell.atr_window] = atr(
                    a.high, a.low, a.close,
                    cell.atr_window)[self.i0:self.i0 + self.n]
            cand = self.prices[side][0] - cell.alpha * self._atrs[cell.atr_window]
            memo = self._stops[key] = (cand, {})
        return memo

    def _trade(self, cand: np.ndarray, side: str, e: int) -> Trade:
        """The trade entered on bar e with stop candidates ``cand``."""
        _, open_, tested = self.prices[side]
        if not self.trailing:
            stops = cand[e]
        elif self.intrabar:  # the stop in force during each bar: last bar's
            stops = np.maximum.accumulate(cand[e:-1])
        else:  # the stop set at each bar's close
            stops = np.maximum.accumulate(cand[e:])[1:]
        hit = tested[e + 1:] < stops
        k = int(hit.argmax())
        x = e + 1 + k
        if not hit[k]:
            return e, self.n - 1, float(self.close[-1]), side, True
        if self.intrabar:
            stop = stops if not self.trailing else stops[k]
            sign = 1.0 if side == LONG else -1.0
            return e, x, sign * min(float(open_[x]), float(stop)), side, False
        return e, x, float(self.close[x]), side, False


def run_single_asset(
    series: PriceSeries,
    params: StrategyParams,
    side_enabled: str = "both",
    window: Optional[Tuple[int, int]] = None,
    *,
    size: float = 1.0,
    cost_cfg: Optional[CostConfig] = None,
    trailing: bool = True,
    intrabar_stop_fill: bool = False,
) -> SingleAssetResult:
    """Trade one cell over the bars with timestamps in [window start, end].

    Indicators are computed on the full series so history before the window
    provides warm-up; bars inside the window whose indicators are still
    undefined take no entry. TradeSearch finds the trades under the given
    execution model and book_trades accounts for them.

    With cost_cfg None, all costs are zero and net equals gross everywhere.
    """
    if size <= 0:
        raise EngineError(f"size must be > 0, got {size}")
    if side_enabled not in SIDE_CHOICES:
        raise EngineError(f"side_enabled must be one of {SIDE_CHOICES}")
    arr = series.arrays
    bounds = (0, len(series)) if window is None else arr.slice_indices(*window)
    search = TradeSearch(arr, bounds, trailing, intrabar_stop_fill)
    trades = search.trades(params, side_enabled)
    return book_trades(series, bounds, trades, size, cost_cfg,
                       search.stop_path(params, trades))


# ---------------------------------------------------------------------------
# Batched grid search
# ---------------------------------------------------------------------------

def grid_sharpes(
    arr: SeriesArrays,
    interval: int,
    symbol: str,
    cells: Sequence[StrategyParams],
    side: str,
    bounds: Tuple[int, int],
    cost_cfg: Optional[CostConfig],
    rf_annual: float,
    *,
    trailing: bool = True,
    intrabar_stop_fill: bool = False,
) -> np.ndarray:
    """Sharpe of each cell's net per-bar returns on bars [i0, i1); NaN if unusable.

    Element k equals, bit for bit, the Sharpe of run_single_asset with
    cells[k], side_enabled=side, size 1.0 and the same execution flags over
    the same bars, and is NaN where that run has no trade or an undefined
    Sharpe. One TradeSearch finds every cell's trades, sharing its memos
    across cells; the returns of all cells are then netted as one matrix.
    """
    if side not in (LONG, SHORT):
        raise EngineError(f"side must be '{LONG}' or '{SHORT}', got {side!r}")
    i0, i1 = bounds
    n = i1 - i0
    sharpes = np.full(len(cells), np.nan)
    search = TradeSearch(arr, bounds, trailing, intrabar_stop_fill)
    trade_cell: List[int] = []
    trades: List[Trade] = []
    for k, cell in enumerate(cells):
        found = search.trades(cell, side)
        trade_cell += [k] * len(found)
        trades += found
    if not trades:
        return sharpes

    traded, rows = np.unique(trade_cell, return_inverse=True)
    ent, ext, exit_px = (np.array(col) for col in list(zip(*trades))[:3])
    # A trade holds its position entering bars e+1 .. x.
    held = np.zeros((len(traded), n + 1), dtype=np.int8)
    held[rows, ent + 1] = 1
    held[rows, ext + 1] = -1
    np.cumsum(held, axis=1, out=held)
    held = held[:, :n].astype(bool)

    close = search.close
    gross = np.zeros(n)
    gross[1:] = close[1:] / close[:-1] - 1.0
    exit_gross = exit_px / close[ext - 1] - 1.0  # the exit fills at exit_px
    if side == SHORT:
        np.negative(gross, out=gross)
        np.negative(exit_gross, out=exit_gross)
    m = len(trades)
    if cost_cfg is None:  # x - 0.0 == x, as in book_trades
        fund, fill_cost = np.zeros(n), np.zeros(2 * m)
    else:
        fund = funding_schedule(arr.timestamps[i0:i1], cost_cfg, symbol,
                                side, 1.0)
        fill_bars = np.concatenate((ent, ext))
        fees, slips = fill_costs(
            np.concatenate((np.ones(m), exit_px / close[ent])),
            arr.volume[i0:i1][fill_bars], close[fill_bars], cost_cfg, interval)
        fill_cost = fees + slips
    net = np.zeros((len(traded), n))
    np.copyto(net, gross - fund, where=held)
    # Costs are summed in book_trades' order (funding, then the fill) so
    # that every net return is the same float.
    net[rows, ent] = 0.0 - fill_cost[:m]
    net[rows, ext] = exit_gross - (fund[ext] + fill_cost[m:])
    sharpes[traded] = sharpe_rows(net, rf_annual, bars_per_year(interval))
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
