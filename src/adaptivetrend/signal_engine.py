"""Per-asset position state machine: momentum entries, ATR trailing stops, exits.

One symbol, one parameter set, at most one open position. Entries and stop
exits fill at the close of the triggering bar (signals are evaluated on bar
closes; an optional intrabar mode fills stop exits pessimistically at the
stop level). Re-entry is allowed from the next bar after an exit, never on
the exit bar itself.

``run_single_asset`` drives the machine over a timestamp window and returns
both the closed-trade ledger (with full cost attribution) and per-bar series:
strategy returns for Sharpe evaluation, plus currency-denominated realized /
mark-to-market / cost components that let a caller audit account equity
exactly. ``grid_sharpes`` scores many parameter cells of one side at once for
the monthly grid search, with the same result as running the machine once
per cell.
"""

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cost_model import (LONG, SHORT, CostConfig, fee, fill_costs, funding,
                         slippage)
from .indicators import atr, momentum, sharpe_rows
from .market_data import (Bar, PriceSeries, SeriesArrays, bars_per_year,
                          read_csv, write_csv)

SIDE_CHOICES = ("long", "short", "both")

LEDGER_HEADER = [
    "symbol", "side", "entry_ts", "entry_px", "exit_ts", "exit_px", "size",
    "gross_pnl", "fee", "slippage", "funding", "net_pnl", "forced",
]


class EngineError(RuntimeError):
    """Caller contract breach inside the trading state machine."""


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


@dataclass
class Position:
    """Open position; ``stop`` ratchets in the position's favor while open."""

    symbol: str
    side: str
    entry_time: int
    entry_price: float
    size: float
    stop: float


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


def gross_pnl(side: str, size: float, entry_px: float, exit_px: float) -> float:
    """Currency PnL of a position of quote notional ``size`` before costs."""
    if side == LONG:
        return size * (exit_px / entry_px - 1.0)
    return size * (1.0 - exit_px / entry_px)


def _close_position(pos: Position, exit_ts: int, exit_px: float,
                    forced: bool) -> TradeRecord:
    g = gross_pnl(pos.side, pos.size, pos.entry_price, exit_px)
    return TradeRecord(
        symbol=pos.symbol, side=pos.side,
        entry_ts=pos.entry_time, entry_px=pos.entry_price,
        exit_ts=exit_ts, exit_px=exit_px, size=pos.size,
        gross_pnl=g, fee_cost=0.0, slippage_cost=0.0, funding_cost=0.0,
        net_pnl=g, forced=forced,
    )


def step(
    state: Optional[Position],
    bar: Bar,
    mom: float,
    atr_value: float,
    params: StrategyParams,
    side_enabled: str = "both",
    *,
    symbol: str = "",
    size: float = 1.0,
    trailing: bool = True,
    intrabar_stop_fill: bool = False,
) -> Tuple[Optional[Position], Optional[TradeRecord]]:
    """Advance the state machine by one bar.

    Returns the new state and, when a position closes this bar, a TradeRecord
    carrying gross PnL only (the caller attributes fees/slippage/funding).
    An open position is managed first (stop ratchet, exit check); entries are
    evaluated only when flat at the start of the bar, long side first.
    """
    if side_enabled not in SIDE_CHOICES:
        raise EngineError(f"side_enabled must be one of {SIDE_CHOICES}")
    if math.isnan(mom) or math.isnan(atr_value):
        raise EngineError(f"bar {bar.timestamp}: indicator undefined (warm-up not skipped)")

    if state is not None:
        if state.side == LONG:
            if intrabar_stop_fill:
                # The stop in force during the bar is last bar's; it can only
                # ratchet once the bar has closed without a breach.
                if bar.low < state.stop:
                    px = min(bar.open, state.stop)
                    return None, _close_position(state, bar.timestamp, px, forced=False)
                if trailing:
                    state.stop = max(state.stop, bar.close - params.alpha * atr_value)
                return state, None
            if trailing:
                state.stop = max(state.stop, bar.close - params.alpha * atr_value)
            if bar.close < state.stop:
                return None, _close_position(state, bar.timestamp, bar.close, forced=False)
            return state, None
        if intrabar_stop_fill:
            if bar.high > state.stop:
                px = max(bar.open, state.stop)
                return None, _close_position(state, bar.timestamp, px, forced=False)
            if trailing:
                state.stop = min(state.stop, bar.close + params.alpha * atr_value)
            return state, None
        if trailing:
            state.stop = min(state.stop, bar.close + params.alpha * atr_value)
        if bar.close > state.stop:
            return None, _close_position(state, bar.timestamp, bar.close, forced=False)
        return state, None

    if side_enabled in ("both", "long") and mom > params.theta_entry:
        return Position(
            symbol=symbol, side=LONG, entry_time=bar.timestamp,
            entry_price=bar.close, size=size,
            stop=bar.close - params.alpha * atr_value,
        ), None
    if side_enabled in ("both", "short") and mom < -params.theta_entry_short:
        return Position(
            symbol=symbol, side=SHORT, entry_time=bar.timestamp,
            entry_price=bar.close, size=size,
            stop=bar.close + params.alpha * atr_value,
        ), None
    return None, None


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

    def equity_contribution(self) -> np.ndarray:
        """Per-bar currency PnL of this run relative to an idle allocation."""
        return self.realized_cum + self.open_mtm - self.open_costs


def _mark_to_market(pos: Position, close: float) -> float:
    return gross_pnl(pos.side, pos.size, pos.entry_price, close)


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
    """Run the state machine over bars with timestamps in [window start, end].

    Indicators are computed on the full series so history before the window
    provides warm-up; bars inside the window whose indicators are still
    undefined are skipped. No entry is taken on the window's final bar (it
    would have to be closed at the same instant); a position still open after
    the final bar is force-closed at that bar's close and flagged.

    With cost_cfg None, all costs are zero and net equals gross everywhere.
    """
    if size <= 0:
        raise EngineError(f"size must be > 0, got {size}")
    if side_enabled not in SIDE_CHOICES:
        raise EngineError(f"side_enabled must be one of {SIDE_CHOICES}")

    arr = series.arrays()
    if window is None:
        i0, i1 = 0, len(series)
    else:
        i0, i1 = series.slice_indices(window[0], window[1])
    n = i1 - i0

    timestamps = arr.timestamps[i0:i1].copy()
    position = np.zeros(n, dtype=np.int8)
    stop = np.full(n, np.nan)
    gross_returns = np.zeros(n)
    net_returns = np.zeros(n)
    costs = np.zeros(n)
    realized_cum = np.zeros(n)
    open_mtm = np.zeros(n)
    open_costs = np.zeros(n)
    trades: List[TradeRecord] = []

    if n == 0:
        return SingleAssetResult(series.symbol, timestamps, position, stop,
                                 gross_returns, net_returns, costs, realized_cum,
                                 open_mtm, open_costs, trades)

    mom_full = momentum(arr.close, params.lookback)
    atr_full = atr(arr.high, arr.low, arr.close, params.atr_window)
    first_defined = params.warmup_bars()

    state: Optional[Position] = None
    realized = 0.0
    pos_fee = pos_slip = pos_funding = 0.0

    def finalize_trade(trade: TradeRecord, bar: Bar) -> Tuple[TradeRecord, float]:
        """Attach exit-fill and accrued costs to a gross-only trade record.

        Returns the completed record plus the exit fill's fee+slippage (the
        only cost not yet charged to the current bar by the caller).
        """
        nonlocal realized, pos_fee, pos_slip, pos_funding
        exit_fill_cost = 0.0
        if cost_cfg is not None:
            exit_notional = size * trade.exit_px / trade.entry_px
            exit_fee = fee(exit_notional, cost_cfg)
            exit_slip = slippage(exit_notional, bar, cost_cfg, series.interval)
            pos_fee += exit_fee
            pos_slip += exit_slip
            exit_fill_cost = exit_fee + exit_slip
        net = trade.gross_pnl - pos_fee - pos_slip - pos_funding
        trade = replace(trade, fee_cost=pos_fee, slippage_cost=pos_slip,
                        funding_cost=pos_funding, net_pnl=net)
        realized += net
        pos_fee = pos_slip = pos_funding = 0.0
        return trade, exit_fill_cost

    for local, i in enumerate(range(i0, i1)):
        bar = series.bars[i]
        held = 0 if state is None else (1 if state.side == LONG else -1)
        bar_cost = 0.0

        # Funding accrues on every bar the position was held entering,
        # covering events in (previous bar close, this bar close].
        if held != 0 and cost_cfg is not None:
            f = funding(state.side, size, int(arr.timestamps[i - 1]),
                        bar.timestamp, cost_cfg, series.symbol)
            pos_funding += f
            bar_cost += f

        exit_px: Optional[float] = None
        last_bar = local == n - 1
        if i >= first_defined and not (state is None and last_bar):
            prev_state = state
            state, trade = step(
                state, bar, float(mom_full[i]), float(atr_full[i]), params,
                side_enabled, symbol=series.symbol, size=size,
                trailing=trailing, intrabar_stop_fill=intrabar_stop_fill,
            )
            if trade is not None:
                trade, exit_fill_cost = finalize_trade(trade, bar)
                trades.append(trade)
                exit_px = trade.exit_px
                bar_cost += exit_fill_cost
            if state is not None and prev_state is None and cost_cfg is not None:
                entry_fee = fee(size, cost_cfg)
                entry_slip = slippage(size, bar, cost_cfg, series.interval)
                pos_fee += entry_fee
                pos_slip += entry_slip
                bar_cost += entry_fee + entry_slip

        if state is not None and last_bar:
            trade = _close_position(state, bar.timestamp, bar.close, forced=True)
            state = None
            trade, exit_fill_cost = finalize_trade(trade, bar)
            trades.append(trade)
            bar_cost += exit_fill_cost

        if held != 0:
            ref_px = exit_px if exit_px is not None else bar.close
            gross_returns[local] = held * (ref_px / float(arr.close[i - 1]) - 1.0)

        position[local] = 0 if state is None else (1 if state.side == LONG else -1)
        stop[local] = state.stop if state is not None else np.nan
        costs[local] = bar_cost
        net_returns[local] = gross_returns[local] - bar_cost / size
        realized_cum[local] = realized
        open_mtm[local] = _mark_to_market(state, bar.close) if state is not None else 0.0
        open_costs[local] = pos_fee + pos_slip + pos_funding if state is not None else 0.0

    return SingleAssetResult(series.symbol, timestamps, position, stop,
                             gross_returns, net_returns, costs, realized_cum,
                             open_mtm, open_costs, trades)


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
) -> np.ndarray:
    """Sharpe of each cell's net per-bar returns on bars [i0, i1); NaN if unusable.

    Element k equals, bit for bit, the Sharpe of run_single_asset with
    cells[k], side_enabled=side, size 1.0, trailing stops and close fills
    over the same bars, and is NaN where that run has no trade or an
    undefined Sharpe. Indicators come from the whole series, as there.

    Instead of stepping every cell bar by bar, each cell's trades are found
    by jumping: the next entry is read from a next-signal index of its
    (threshold, lookback), and the exit is the first close beyond the
    running max (long) or min (short) of the stop candidates close -/+
    alpha * ATR since entry, or the final bar. Exits are shared by all cells
    with the same alpha that enter on the same bar.
    """
    if side not in (LONG, SHORT):
        raise EngineError(f"side must be '{LONG}' or '{SHORT}', got {side!r}")
    i0, i1 = bounds
    n = i1 - i0
    sharpes = np.full(len(cells), np.nan)
    if n < 2:
        return sharpes
    long = side == LONG
    close = arr.close[i0:i1]
    last = n - 1  # local index of the final bar; no entry is taken there

    moms: Dict[int, np.ndarray] = {}
    atrs: Dict[int, np.ndarray] = {}
    next_entry: Dict[tuple, List[int]] = {}
    stop_cands: Dict[tuple, np.ndarray] = {}
    exits: Dict[tuple, int] = {}
    slots = np.arange(n + 1)

    def exit_of(stop_key: tuple, e: int) -> int:
        cand = stop_cands[stop_key]
        if long:
            hit = close[e + 1:] < np.maximum.accumulate(cand[e:])[1:]
        else:
            hit = close[e + 1:] > np.minimum.accumulate(cand[e:])[1:]
        k = int(hit.argmax())
        return e + 1 + k if hit[k] else last

    trade_cell: List[int] = []
    entries: List[int] = []
    exit_bars: List[int] = []
    for k, cell in enumerate(cells):
        theta = cell.theta_entry if long else cell.theta_entry_short
        sig_key = (theta, cell.lookback, cell.atr_window)
        stop_key = (cell.alpha, cell.atr_window)
        if cell.atr_window not in atrs:
            atrs[cell.atr_window] = atr(arr.high, arr.low, arr.close,
                                        cell.atr_window)[i0:i1]
        if sig_key not in next_entry:
            if cell.lookback not in moms:
                moms[cell.lookback] = momentum(arr.close, cell.lookback)[i0:i1]
            first = max(cell.warmup_bars() - i0, 0)
            mom = moms[cell.lookback][first:last]
            signal = np.zeros(n + 1, dtype=bool)
            signal[first:last] = mom > theta if long else mom < -theta
            # nxt[j]: first signal bar at or after j, n when there is none.
            nxt = np.where(signal, slots, n)
            next_entry[sig_key] = np.minimum.accumulate(nxt[::-1])[::-1].tolist()
        if stop_key not in stop_cands:
            offset = cell.alpha * atrs[cell.atr_window]
            stop_cands[stop_key] = close - offset if long else close + offset
        nxt = next_entry[sig_key]
        e = nxt[0]
        while e < n:
            x = exits.get((stop_key, e))
            if x is None:
                x = exits[(stop_key, e)] = exit_of(stop_key, e)
            trade_cell.append(k)
            entries.append(e)
            exit_bars.append(x)
            e = nxt[x + 1]
    if not trade_cell:
        return sharpes

    traded, rows = np.unique(trade_cell, return_inverse=True)
    ent = np.array(entries)
    ext = np.array(exit_bars)
    # A trade holds its position entering bars e+1 .. x.
    held = np.zeros((len(traded), n + 1), dtype=np.int8)
    held[rows, ent + 1] = 1
    held[rows, ext + 1] = -1
    np.cumsum(held, axis=1, out=held)
    held = held[:, :n].astype(bool)

    gross = np.zeros(n)
    gross[1:] = close[1:] / close[:-1] - 1.0
    if not long:
        np.negative(gross, out=gross)
    net = np.zeros((len(traded), n))
    if cost_cfg is None:
        np.copyto(net, gross, where=held)
    else:
        # Funding depends only on the bar's timestamps, so it is computed
        # once per bar that any cell holds, not once per cell.
        ts = arr.timestamps
        fund = np.zeros(n)
        for j in np.flatnonzero(held.any(axis=0)).tolist():
            fund[j] = funding(side, 1.0, int(ts[i0 + j - 1]), int(ts[i0 + j]),
                              cost_cfg, symbol)
        np.copyto(net, gross - fund, where=held)
        volume = arr.volume[i0:i1]
        entry_cost = fill_costs(np.ones(len(ent)), volume[ent], close[ent],
                                cost_cfg, interval)
        exit_cost = fill_costs(close[ext] / close[ent], volume[ext],
                               close[ext], cost_cfg, interval)
        # Costs are summed in run_single_asset's order (funding, then the
        # fill) so that every net return is the same float.
        net[rows, ent] = 0.0 - entry_cost
        net[rows, ext] = gross[ext] - (fund[ext] + exit_cost)
    sharpes[traded] = sharpe_rows(net, rf_annual, bars_per_year(interval))
    return sharpes


# ---------------------------------------------------------------------------
# Ledger serialization
# ---------------------------------------------------------------------------

def write_ledger(trades: List[TradeRecord], path: str) -> None:
    write_csv(path, LEDGER_HEADER, (
        [t.symbol, t.side, t.entry_ts, t.entry_px, t.exit_ts, t.exit_px,
         t.size, t.gross_pnl, t.fee_cost, t.slippage_cost, t.funding_cost,
         t.net_pnl, int(t.forced)]
        for t in trades))


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
