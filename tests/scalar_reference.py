"""Row-by-row and bar-by-bar reference implementations.

These are the loader, the resampler and the cap ranking as they were when a
series was a tuple of Bar objects: every CSV row parsed with int()/float(),
every bar validated by its own call, bars grouped into dict buckets, and
every cap lookup a scan over all records, sorted by cap. Then the cap loader
and the CSV writer as they were before they worked in columns (one
``MarketCapRecord`` per cap row, csv.writer for every file), and the
bootstrap scoring one replicate at a time. Then the accounting as it was
before the engine and the benchmarks shared one ledger: the scalar fee and
slippage of one fill, funding summed per holding interval, the per-bar state
machine (one branch per side) that trades were found with before there was
one trade search, the engine charging every cost bar by bar, the benchmarks'
own hold loop, and the two month loops (the strategy's and the benchmarks'),
with the aggregation that forward-filled one booked result at a time onto
the marks, before a window's positions were booked together. Last, the trade
search that jumped from each entry to its exit one cell at a time, before it
found the trades of all cells in array passes. The scalar engine books a
trade as a ``TradeRecord``, one ledger row, as the package did before its
ledger was columns; ``records`` and ``as_ledger`` turn a ``Ledger`` into
rows and back, and the ledger reader (``read_ledger``) is here too, since
only the tests read a ledger back. The tests check the code in
``adaptivetrend`` against them.
"""

import bisect
import csv
import logging
import math
from dataclasses import astuple, dataclass, replace
from datetime import date
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from adaptivetrend.analytics import (BootstrapResult, MetricsReport,
                                     _circular_block_indices, compute_metrics)
from adaptivetrend.backtester import (EQUITY_HEADER, BacktestConfig,
                                      BacktestResult, EquityCurve, Market,
                                      month_starts_between,
                                      union_timeline)
from adaptivetrend.benchmarks import BenchmarkSpec, _month_weights
from adaptivetrend.cost_model import FIVE_MINUTES, LONG, SHORT, CostConfig
from adaptivetrend.indicators import atr, momentum, rolling_sharpe
from adaptivetrend.market_data import (DEFAULT_INTERVAL, MARKET_CAP_HEADER,
                                       OHLCV_HEADER, Bar, CapColumns,
                                       CapIndex, DataError, PriceSeries,
                                       bars_per_year, date_of_ts, month_add,
                                       month_id, read_csv)
from adaptivetrend.rebalancer import MonthlyPortfolio, run_rebalance
from adaptivetrend.signal_engine import (LEDGER_HEADER, NO_LEDGER,
                                         EngineError, Ledger,
                                         SingleAssetResult, StrategyParams,
                                         gross_pnl)

INF = math.inf

# The sides a reference run may trade. The engine itself has no such
# switch: a cell's +inf threshold turns its side off.
SIDE_CHOICES = ("long", "short", "both")

# A trade as TradeSearch finds it: entry bar, exit bar (both local to the
# window), exit price, side and the forced flag.
Trade = Tuple[int, int, float, str, bool]


def validate_bar(bar: Bar) -> None:
    if not (0 < bar.open < INF and 0 < bar.high < INF
            and 0 < bar.low < INF and 0 < bar.close < INF):
        raise DataError(f"bar {bar.timestamp}: prices must be strictly positive"
                        " and finite")
    if not 0 <= bar.volume < INF:
        raise DataError(f"bar {bar.timestamp}: volume must be non-negative"
                        " and finite")
    if bar.low > bar.high:
        raise DataError(f"bar {bar.timestamp}: low {bar.low} exceeds high {bar.high}")
    if bar.high < max(bar.open, bar.close):
        raise DataError(f"bar {bar.timestamp}: high {bar.high} below max(open, close)")
    if bar.low > min(bar.open, bar.close):
        raise DataError(f"bar {bar.timestamp}: low {bar.low} above min(open, close)")


def check_bars(symbol: str, interval: int, bars: Sequence[Bar]) -> None:
    """Validate bar by bar, as PriceSeries did."""
    if interval <= 0:
        raise DataError(f"{symbol}: interval must be positive")
    prev_ts = None
    for bar in bars:
        validate_bar(bar)
        if prev_ts is not None:
            delta = bar.timestamp - prev_ts
            if delta == 0:
                raise DataError(f"{symbol}: duplicate timestamp {bar.timestamp}")
            if delta < 0:
                raise DataError(
                    f"{symbol}: timestamps not ascending at {bar.timestamp}")
            if delta % interval != 0:
                raise DataError(
                    f"{symbol}: gap {prev_ts} -> {bar.timestamp} is not a"
                    f" multiple of interval {interval}")
        prev_ts = bar.timestamp


def parse_bar(row: List[str]) -> Bar:
    return Bar(int(row[0]), float(row[1]), float(row[2]), float(row[3]),
               float(row[4]), float(row[5]))


def load_price_series(path: str, interval: int, symbol: str) -> List[Bar]:
    """The bars of an OHLCV file, or the DataError the loader raised."""
    bars = read_csv(path, OHLCV_HEADER, parse_bar)
    bars.sort(key=lambda b: b.timestamp)
    try:
        check_bars(symbol, interval, bars)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return bars


def columns(bars: Sequence[Bar]) -> Tuple[np.ndarray, ...]:
    """The columns a series of these bars holds, in PriceSeries order."""
    cols = list(zip(*bars)) or [()] * len(Bar._fields)
    return (np.array(cols[0], dtype=np.int64),
            *(np.array(col, dtype=np.float64) for col in cols[1:]))


def resample_bars(bars: Sequence[Bar], interval: int,
                  target_interval: int) -> List[Bar]:
    """Complete buckets of a bar list, grouped in a dict by bucket id."""
    m = target_interval // interval
    buckets: Dict[int, List[Bar]] = {}
    for bar in bars:
        bucket = -(-bar.timestamp // target_interval)  # ceil division
        buckets.setdefault(bucket, []).append(bar)
    out = []
    for bucket in sorted(buckets):
        group = buckets[bucket]
        if len(group) != m:
            continue  # partial or gapped bucket
        volume = 0
        for b in group:  # sum() of floats, left to right (Python <= 3.11)
            volume += b.volume
        out.append(Bar(
            timestamp=bucket * target_interval,
            open=group[0].open,
            high=max(b.high for b in group),
            low=min(b.low for b in group),
            close=group[-1].close,
            volume=volume,
        ))
    return out


@dataclass(frozen=True)
class MarketCapRecord:
    """Daily market-capitalization snapshot for one symbol."""

    symbol: str
    date: date
    cap: float


def cap_columns(caps: Sequence[MarketCapRecord]) -> CapColumns:
    """Records as the package's cap columns, in their order."""
    return (np.array([r.date for r in caps], dtype="datetime64[D]"),
            [r.symbol for r in caps],
            np.array([r.cap for r in caps], dtype=np.float64))


def cap_records(caps: CapColumns) -> List[MarketCapRecord]:
    """Cap columns as records, in their order."""
    days, symbols, values = caps
    return list(map(MarketCapRecord, symbols, days.tolist(), values.tolist()))


def cap_index(caps: Sequence[MarketCapRecord]) -> CapIndex:
    """The package's CapIndex of the records."""
    return CapIndex(*cap_columns(caps))


def cap_ranking(caps: Sequence[MarketCapRecord], month_start: int,
                largest: bool = True) -> Optional[List[str]]:
    """Scan every record for the latest snapshot date on or before the day
    before month_start, the last record of a (symbol, date) winning, and
    sort its symbols by cap (ties: the smaller name)."""
    as_of = date_of_ts(month_start - 1)
    dates = [r.date for r in caps if r.date <= as_of]
    if not dates:
        return None
    snapshot_date = max(dates)
    snapshot = {r.symbol: r.cap for r in caps if r.date == snapshot_date}
    sign = -1 if largest else 1
    return sorted(snapshot, key=lambda s: (sign * snapshot[s], s))


def load_market_caps(path: str) -> List[MarketCapRecord]:
    """Cap records of a market-cap file, one csv row at a time."""
    seen = set()

    def parse(row: List[str]) -> MarketCapRecord:
        day, sym, cap = date.fromisoformat(row[0]), row[1], float(row[2])
        if not 0 < cap < INF:
            raise DataError(f"cap must be positive and finite, got {cap}")
        if (sym, day) in seen:
            raise DataError(f"duplicate record for {sym} {day}")
        seen.add((sym, day))
        return MarketCapRecord(symbol=sym, date=day, cap=cap)

    return read_csv(path, MARKET_CAP_HEADER, parse)


def window_timeline(universe: Dict[str, PriceSeries],
                    window: Tuple[int, int]) -> np.ndarray:
    """The universe's timeline inside the inclusive window."""
    timeline = union_timeline(universe)
    return timeline[np.searchsorted(timeline, window[0]):
                    np.searchsorted(timeline, window[1], side="right")]


def _cell(value: object) -> object:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return value


def write_csv(path: str, header: Sequence[str],
              rows: Iterable[Sequence[object]]) -> None:
    """csv.writer's rows, every cell through _cell, in UTF-8."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def save_equity(curve: EquityCurve, path: str) -> None:
    write_csv(path, EQUITY_HEADER, ([int(ts), bal] for ts, bal
                                    in zip(curve.timestamps, curve.balances)))


@dataclass(frozen=True)
class TradeRecord:
    """Closed trade with exact cost attribution: one ledger row, as the
    scalar engine books it and as ``read_ledger`` reads it back.

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


def records(ledger: Ledger) -> List[TradeRecord]:
    """A Ledger's rows as TradeRecords of Python scalars, in its order."""
    return [TradeRecord(*row)
            for row in zip(*(column.tolist() for column in ledger.columns()))]


def as_ledger(trades: Sequence[TradeRecord]) -> Ledger:
    """TradeRecords as a Ledger's columns, in their order."""
    if not trades:
        return NO_LEDGER
    return Ledger(*map(np.array, zip(*map(astuple, trades))))


def write_ledger(trades: Sequence[TradeRecord], path: str) -> None:
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
    """A ledger.csv's trades; only tests read a ledger back."""
    return read_csv(path, LEDGER_HEADER, _parse_trade)


def bootstrap_sharpe_test(returns_a: Sequence[float],
                          returns_b: Sequence[float], n_reps: int = 10_000,
                          block_len: int = 20, seed: int = 0,
                          rf_annual: float = 0.045,
                          bars_per_year: float = 1460.0) -> BootstrapResult:
    """The bootstrap scoring one replicate at a time, two rolling_sharpe
    calls each."""
    a = np.asarray(returns_a, dtype=np.float64)
    b = np.asarray(returns_b, dtype=np.float64)
    if len(a) != len(b):
        raise ValueError("return series must have equal length")
    n = len(a)
    if n < 2 * block_len:
        raise ValueError(f"need at least {2 * block_len} observations, got {n}")
    sr_a = rolling_sharpe(a, rf_annual, bars_per_year)
    sr_b = rolling_sharpe(b, rf_annual, bars_per_year)
    if sr_a is None or sr_b is None:
        raise ValueError("Sharpe undefined on an input series")
    delta = sr_a - sr_b

    deltas = np.empty(n_reps)
    for rep in range(n_reps):
        rng = np.random.default_rng([seed, rep])
        for attempt in range(11):
            idx = _circular_block_indices(rng, n, block_len)
            sr_ra = rolling_sharpe(a[idx], rf_annual, bars_per_year)
            sr_rb = rolling_sharpe(b[idx], rf_annual, bars_per_year)
            if sr_ra is not None and sr_rb is not None:
                deltas[rep] = sr_ra - sr_rb
                break
        else:
            raise ValueError(f"replicate {rep}: Sharpe undefined after 10 redraws")

    centered = deltas - delta
    mag = abs(delta)
    p_hi = float(np.mean(centered >= mag))
    p_lo = float(np.mean(centered <= -mag))
    p_value = min(1.0, 2.0 * min(p_hi, p_lo))
    return BootstrapResult(delta_sr=delta, p_value=p_value,
                           n_reps=n_reps, block_len=block_len)


def fee(notional: float, cfg: CostConfig) -> float:
    """Taker fee for one fill."""
    if notional < 0:
        raise ValueError("notional must be >= 0")
    return notional * cfg.taker_fee_bps * 1e-4


def slippage(notional: float, bar: Bar, cfg: CostConfig,
             interval: int = DEFAULT_INTERVAL) -> float:
    """Linear-impact slippage for one fill executed on ``bar``.

    The 5-minute traded notional is estimated by spreading the bar's volume
    evenly over the interval (72 five-minute windows for a 6-hour bar). A
    zero-volume bar yields the capped rate.
    """
    if notional < 0:
        raise ValueError("notional must be >= 0")
    if notional == 0.0:
        return 0.0
    cap_rate = cfg.slip_cap_bps * 1e-4
    n_windows = interval / FIVE_MINUTES
    est_5min_notional = bar.volume * bar.close / n_windows
    if est_5min_notional <= 0.0:
        rate = cap_rate
    else:
        rate = min(cfg.slip_coeff * notional / est_5min_notional, cap_rate)
    return rate * notional


def funding_events(start_ts: int, end_ts: int,
                   hours: Sequence[int] = (0, 8, 16)) -> List[int]:
    """Funding timestamps strictly inside the half-open-left interval (start, end]."""
    if end_ts <= start_ts:
        return []
    offsets = sorted(h * 3600 for h in hours)
    events = []
    day = (start_ts // 86_400) * 86_400
    while day <= end_ts:
        for off in offsets:
            ts = day + off
            if start_ts < ts <= end_ts:
                events.append(ts)
        day += 86_400
    return events


def funding_rate_at(symbol: str, ts: int, cfg: CostConfig) -> float:
    """Effective 8h funding rate for ``symbol`` at event time ``ts``.

    With a per-symbol rate series configured, the latest record at or before
    ts applies (step function); a symbol with no records, or no record yet at
    ts, falls back to the flat default rate.
    """
    if cfg.funding_rates is not None:
        records = cfg.funding_rates.get(symbol)
        if records:
            idx = bisect.bisect_right(records, (ts, float("inf"))) - 1
            if idx >= 0:
                return records[idx][1]
    return cfg.funding_rate_per_8h


def funding(side: str, size: float, entry_ts: int, exit_ts: int,
            cfg: CostConfig, symbol: str = "") -> float:
    """Signed funding cost accrued over a holding interval (entry, exit].

    A positive value is paid by the position; negative is a rebate. Long pays
    size * rate at each event when the rate is positive; short receives it.
    """
    if side not in (LONG, SHORT):
        raise ValueError(f"side must be '{LONG}' or '{SHORT}', got {side!r}")
    total = 0.0
    sign = 1.0 if side == LONG else -1.0
    for ts in funding_events(entry_ts, exit_ts, cfg.funding_hours):
        total += sign * size * funding_rate_at(symbol, ts, cfg)
    return total


@dataclass
class Position:
    """Open position; ``stop`` ratchets in the position's favor while open."""

    symbol: str
    side: str
    entry_time: int
    entry_price: float
    size: float
    stop: float


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

    if window is None:
        i0, i1 = 0, len(series)
    else:
        i0, i1 = series.slice_indices(window[0], window[1])
    n = i1 - i0

    timestamps = series.timestamps[i0:i1].copy()
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
                                 open_mtm, open_costs, NO_LEDGER)

    mom = momentum(series.close, params.lookback)[i0:i1].tolist()
    atr_values = atr(series.high, series.low, series.close, params.atr_window)[i0:i1].tolist()
    # Momentum and ATR are both defined from this bar on, as an index into
    # the window.
    first_defined = max(params.lookback, params.atr_window - 1) - i0

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

    # A position is never held entering the window's first bar, so `prev`
    # is always set where it is read.
    prev: Optional[Bar] = None
    for local, bar in enumerate(series.bars(i0, i1)):
        held = 0 if state is None else (1 if state.side == LONG else -1)
        bar_cost = 0.0

        # Funding accrues on every bar the position was held entering,
        # covering events in (previous bar close, this bar close].
        if held != 0 and cost_cfg is not None:
            f = funding(state.side, size, prev.timestamp, bar.timestamp,
                        cost_cfg, series.symbol)
            pos_funding += f
            bar_cost += f

        exit_px: Optional[float] = None
        last_bar = local == n - 1
        if local >= first_defined and not (state is None and last_bar):
            prev_state = state
            state, trade = step(
                state, bar, mom[local], atr_values[local], params,
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
            gross_returns[local] = held * (ref_px / prev.close - 1.0)

        position[local] = 0 if state is None else (1 if state.side == LONG else -1)
        stop[local] = state.stop if state is not None else np.nan
        costs[local] = bar_cost
        net_returns[local] = gross_returns[local] - bar_cost / size
        realized_cum[local] = realized
        open_mtm[local] = (gross_pnl(state.side, state.size, state.entry_price,
                                      bar.close) if state is not None else 0.0)
        open_costs[local] = pos_fee + pos_slip + pos_funding if state is not None else 0.0
        prev = bar

    return SingleAssetResult(series.symbol, timestamps, position, stop,
                             gross_returns, net_returns, costs, realized_cum,
                             open_mtm, open_costs, as_ledger(trades))


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
    i0, i1 = series.slice_indices(window[0], window[1])
    n = i1 - i0
    timestamps = series.timestamps[i0:i1].copy()
    empty = SingleAssetResult(
        symbol=series.symbol, timestamps=timestamps,
        position=np.zeros(n, dtype=np.int8), stop=np.full(n, np.nan),
        gross_returns=np.zeros(n), net_returns=np.zeros(n),
        costs=np.zeros(n), realized_cum=np.zeros(n), open_mtm=np.zeros(n),
        open_costs=np.zeros(n), trades=NO_LEDGER,
    )
    if n < 2:
        return empty
    res = empty
    sign = 1 if side == LONG else -1
    entry_px = float(series.close[i0])
    entry_ts = int(series.timestamps[i0])
    exit_px = float(series.close[i1 - 1])
    exit_ts = int(series.timestamps[i1 - 1])

    pos_fee = pos_slip = pos_funding = 0.0
    if cost_cfg is not None:
        pos_fee = fee(size, cost_cfg)
        pos_slip = slippage(size, series.bar(i0), cost_cfg, series.interval)
    res.costs[0] = pos_fee + pos_slip
    res.position[:] = sign
    res.position[-1] = 0

    for local in range(1, n):
        i = i0 + local
        bar_cost = 0.0
        if cost_cfg is not None and charge_funding:
            f = funding(side, size, int(series.timestamps[i - 1]),
                        int(series.timestamps[i]), cost_cfg, series.symbol)
            pos_funding += f
            bar_cost += f
        res.gross_returns[local] = sign * (series.close[i] / series.close[i - 1] - 1.0)
        if local == n - 1 and cost_cfg is not None:
            exit_notional = size * exit_px / entry_px
            exit_fee = fee(exit_notional, cost_cfg)
            exit_slip = slippage(exit_notional, series.bar(i), cost_cfg,
                                 series.interval)
            pos_fee += exit_fee
            pos_slip += exit_slip
            bar_cost += exit_fee + exit_slip
        res.costs[local] = bar_cost
        if local < n - 1:
            res.open_mtm[local] = gross_pnl(side, size, entry_px,
                                            float(series.close[i]))
            res.open_costs[local] = pos_fee + pos_slip + pos_funding

    gross = gross_pnl(side, size, entry_px, exit_px)
    net = gross - pos_fee - pos_slip - pos_funding
    trade = TradeRecord(
        symbol=series.symbol, side=side, entry_ts=entry_ts, entry_px=entry_px,
        exit_ts=exit_ts, exit_px=exit_px, size=size, gross_pnl=gross,
        fee_cost=pos_fee, slippage_cost=pos_slip, funding_cost=pos_funding,
        net_pnl=net, forced=True,
    )
    res.realized_cum[-1] = net
    res.net_returns[:] = res.gross_returns - res.costs / size
    res.open_costs[0] = res.costs[0]
    return replace(res, trades=as_ledger([trade]))


logger = logging.getLogger(__name__)


@dataclass
class BenchmarkRun:
    kind: str
    equity: EquityCurve
    metrics: MetricsReport
    trades: Ledger


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


def universe_interval(universe: Dict[str, PriceSeries]) -> int:
    """The one bar interval of a universe's series, which a run reads."""
    (interval,) = {series.interval for series in universe.values()}
    return interval


def _check_history(timeline: np.ndarray, first_month: int,
                   last_month: int, interval: int) -> None:
    if len(timeline) == 0:
        raise DataError("universe has no bars")
    earliest, latest = int(timeline[0]), int(timeline[-1])
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
    caps = cap_index(caps)

    month_starts = month_starts_between(cfg.start, cfg.end)
    if not month_starts:
        raise DataError("no month boundary inside [start, end]")
    first_month = month_starts[0]
    interval = universe_interval(universe)
    _check_history(union_timeline(universe),
                   first_month, month_starts[-1], interval)

    balance = cfg.initial_balance
    realized_total = 0.0
    portfolio: Optional[MonthlyPortfolio] = None

    anchor_ts = first_month - interval
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
            # A fresh market each month: no memo across months.
            portfolio, record = run_rebalance(Market(universe, caps), m, cfg)
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

        def simulate(window: Tuple[int, int]) -> List[SingleAssetResult]:
            results = []
            for side, allocations in (("long", portfolio.longs),
                                      ("short", portfolio.shorts)):
                for alloc in allocations:
                    series = universe.get(alloc.symbol)
                    if series is None:
                        continue
                    results.append(run_single_asset(
                        series, alloc.params, side_enabled=side,
                        window=window, size=alloc.weight * balance,
                        cost_cfg=cfg.costs,
                        trailing=cfg.trailing_stop_enabled,
                        intrabar_stop_fill=cfg.intrabar_stop_fill,
                    ))
            return results

        month_results = simulate(window)
        # Mark to market on the union of every universe symbol's closes so the
        # equity timeline does not depend on what happened to be selected.
        month_ts = window_timeline(universe, window)
        if len(month_ts) == 0:
            continue
        realized_m, mtm_m, ocost_m = aggregate_results(month_ts, month_results)
        contrib = realized_m + mtm_m - ocost_m

        balances_m = balance + contrib
        nonpositive = np.flatnonzero(balances_m <= 0.0)
        if len(nonpositive) > 0:
            # Halt at that mark: the month runs again over the window cut
            # there, and its booking ends the curve.
            month_ts = month_ts[:nonpositive[0] + 1]
            month_results = simulate((window[0], int(month_ts[-1])))
            realized_m, mtm_m, ocost_m = aggregate_results(month_ts,
                                                           month_results)
            balances_m = balance + (realized_m + mtm_m - ocost_m)
            bankrupt = True
            logger.warning("balance depleted at %d; halting run", int(month_ts[-1]))
        trades.extend(t for res in month_results for t in records(res.trades))

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
    ledger = as_ledger(trades)
    return BacktestResult(
        equity=equity,
        trades=ledger,
        realized=np.concatenate(realized_chunks),
        open_mtm=np.concatenate(mtm_chunks),
        open_costs=np.concatenate(ocost_chunks),
        metrics=compute_metrics(equity, ledger,
                                rf_annual=cfg.rebalance.rf_annual,
                                bars_per_year=bars_per_year(interval)),
        rebalance_log=rebalance_log,
        portfolios=portfolios,
    )


def run_benchmark(
    spec: BenchmarkSpec,
    universe: Dict[str, PriceSeries],
    caps: Sequence[MarketCapRecord],
    cfg: BacktestConfig,
) -> BenchmarkRun:
    """Run one benchmark over cfg's window with cfg's cost model."""
    interval = universe_interval(universe)
    bpy = bars_per_year(interval)
    months = month_starts_between(cfg.start, cfg.end)
    if not months:
        raise ValueError("no month boundary inside [start, end]")
    first_month = months[0]
    anchor_ts = first_month - interval

    ts_chunks = [np.array([anchor_ts], dtype=np.int64)]
    bal_chunks = [np.array([cfg.initial_balance])]
    trades: List[TradeRecord] = []
    bankrupt = False

    if spec.kind == "buy_hold":
        symbol = spec.symbol
        if symbol is None:
            ranking = cap_ranking(caps, first_month)
            if not ranking:
                raise ValueError("buy_hold needs a cap snapshot to pick a symbol")
            symbol = ranking[0]
        series = universe.get(symbol)
        if series is None:
            raise ValueError(f"buy_hold symbol {symbol!r} not in universe")
        window = (first_month, cfg.end)
        res = hold_position(series, LONG, cfg.initial_balance, window,
                            cfg.costs, charge_funding=False)
        trades.extend(records(res.trades))
        timeline = window_timeline(universe, window)
        realized, mtm, ocost = aggregate_results(timeline, [res])
        ts_chunks.append(timeline)
        bal_chunks.append(cfg.initial_balance + realized + mtm - ocost)
    else:
        charge_funding = spec.kind in ("tsmom", "vol_scaled_tsmom")
        balance = cfg.initial_balance
        market = Market(universe, cap_index(caps))
        for m in months:
            window = (m, min(month_add(m, 1) - 1, cfg.end))
            weights = _month_weights(spec, market, m)

            def hold(window: Tuple[int, int]) -> List[SingleAssetResult]:
                return [hold_position(universe[sym], side, w * balance, window,
                                      cfg.costs, charge_funding)
                        for sym, side, w in weights if w > 0.0]

            results = hold(window)
            timeline = window_timeline(universe, window)
            if len(timeline) == 0:
                continue
            realized, mtm, ocost = aggregate_results(timeline, results)
            balances_m = balance + realized + mtm - ocost
            nonpositive = np.flatnonzero(balances_m <= 0.0)
            if len(nonpositive) > 0:
                # Halt at that mark: the month runs again over the window
                # cut there, and its booking ends the curve.
                timeline = timeline[:nonpositive[0] + 1]
                results = hold((window[0], int(timeline[-1])))
                realized, mtm, ocost = aggregate_results(timeline, results)
                balances_m = balance + realized + mtm - ocost
                bankrupt = True
            trades.extend(t for res in results for t in records(res.trades))
            ts_chunks.append(timeline)
            bal_chunks.append(balances_m)
            if bankrupt:
                break
            balance = float(balances_m[-1])

    equity = EquityCurve(timestamps=np.concatenate(ts_chunks),
                         balances=np.concatenate(bal_chunks),
                         bankrupt=bankrupt or bal_chunks[-1][-1] <= 0)
    trades.sort(key=lambda t: (t.entry_ts, t.exit_ts, t.symbol, t.side))
    ledger = as_ledger(trades)
    metrics = compute_metrics(equity, ledger,
                              rf_annual=cfg.rebalance.rf_annual,
                              bars_per_year=bpy)
    return BenchmarkRun(kind=spec.kind, equity=equity, metrics=metrics,
                        trades=ledger)


# ---------------------------------------------------------------------------
# The trade search as it was before it worked in array passes
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

    def __init__(self, series: PriceSeries, bounds: Tuple[int, int],
                 trailing: bool = True, intrabar_stop_fill: bool = False):
        self.series = series
        self.i0, i1 = bounds
        self.n = i1 - self.i0
        self.trailing = trailing
        self.intrabar = intrabar_stop_fill
        close, low, high, open_ = (col[self.i0:i1] for col in
                                   (series.close, series.low, series.high,
                                    series.open))
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
                    self.series.close, cell.lookback)[self.i0:self.i0 + n]
            # the first bar where momentum and ATR are both defined
            first = max(max(cell.lookback, cell.atr_window - 1) - self.i0, 0)
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
                a = self.series
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
