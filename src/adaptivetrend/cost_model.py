"""Trading cost model: taker fees, volume-linear slippage, periodic funding.

All functions are pure over an immutable CostConfig. Costs are expressed in
quote currency. A long position pays funding when the rate is positive, a
short position receives the same amount.

Every booking (the window ledger, the grid search, the reference ledger)
prices through ``trade_fills`` and ``funding_paid``, the one copy of each rule.
Per-symbol funding rates are a FundingTable, which funding_rates_at reads.
"""

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

from .market_data import DataError, read_csv

FIVE_MINUTES = 300

LONG = "long"
SHORT = "short"

FUNDING_HEADER = ["timestamp", "symbol", "rate_8h"]


class FundingTable:
    """Funding rates as a step function per symbol: ``columns`` maps each to
    read-only (int64 timestamps, float64 rates), built once from its
    (timestamp, rate) records and checked then. Compared and hashed by
    identity, so a CostConfig holding one is hashable."""

    def __init__(self, records: Mapping[str, Sequence[Tuple[int, float]]]):
        columns = {}
        for symbol, rows in records.items():
            name = f"funding_rates[{symbol!r}]"
            if not all(-2**63 <= t < 2**63 and t == int(t) for t, _ in rows):
                raise ValueError(f"{name}: timestamps must be int64 integers")
            ts = np.array([t for t, _ in rows], dtype=np.int64)
            rates = np.array([rate for _, rate in rows], dtype=np.float64)
            if not np.all(np.abs(rates) <= 1):
                raise ValueError(f"{name}: rates must be finite and lie in"
                                 " [-1, 1]")
            if np.any(np.diff(ts) <= 0):
                raise ValueError(f"{name}: timestamps must be strictly"
                                 " ascending")
            ts.flags.writeable = rates.flags.writeable = False
            columns[symbol] = ts, rates
        self.columns = MappingProxyType(columns)


@dataclass(frozen=True)
class CostConfig:
    """Cost parameters.

    slip_coeff is the linear price-impact coefficient: the impact rate equals
    slip_coeff times (fill notional / estimated 5-minute traded notional),
    capped at slip_cap_bps. funding_hours are the daily UTC hours at which
    funding is exchanged. funding_rates optionally overrides the flat
    funding_rate_per_8h with a per-symbol step function: a FundingTable (see
    load_funding_rates), or its records by symbol, made one table here.
    """

    taker_fee_bps: float = 4.0
    slip_coeff: float = 0.1
    slip_cap_bps: float = 50.0
    funding_rate_per_8h: float = 1e-4
    funding_hours: Tuple[int, ...] = (0, 8, 16)
    funding_rates: Union[FundingTable, Mapping, None] = None

    def __post_init__(self) -> None:
        for name in ("taker_fee_bps", "slip_coeff", "slip_cap_bps"):
            value = getattr(self, name)
            if not 0 <= value <= 1e4:
                raise ValueError(f"{name} must lie in [0, 10000], got {value}")
        if not abs(self.funding_rate_per_8h) <= 1:
            raise ValueError("funding_rate_per_8h must lie in [-1, 1], got"
                             f" {self.funding_rate_per_8h}")
        if any(not 0 <= h < 24 for h in self.funding_hours):
            raise ValueError("funding_hours must lie in [0, 24)")
        if len(set(self.funding_hours)) != len(self.funding_hours):
            raise ValueError("funding_hours must not repeat")
        if not isinstance(self.funding_rates, (FundingTable, type(None))):
            object.__setattr__(self, "funding_rates",
                               FundingTable(self.funding_rates))


ZERO_COSTS = CostConfig(taker_fee_bps=0.0, slip_coeff=0.0, slip_cap_bps=0.0,
                        funding_rate_per_8h=0.0)


def fill_costs(notional: np.ndarray, volume: np.ndarray, close: np.ndarray,
               cfg: CostConfig, interval: int) -> Tuple[np.ndarray, np.ndarray]:
    """Taker fees and linear-impact slippage of many fills, one per element.

    Fill k trades quote notional notional[k] (> 0) on a bar with volume[k]
    and close[k]. Its fee is notional * taker_fee_bps. Its slippage rate is
    slip_coeff * notional / (estimated 5-minute traded notional), capped at
    slip_cap_bps; the 5-minute notional spreads the bar's volume evenly over
    the interval (72 five-minute windows for a 6-hour bar), and a zero-volume
    bar takes the capped rate. Returns (fees, slippage).
    """
    fees = notional * cfg.taker_fee_bps * 1e-4
    cap_rate = cfg.slip_cap_bps * 1e-4
    est_5min_notional = volume * close / (interval / FIVE_MINUTES)
    rate = np.full(len(notional), cap_rate)
    liquid = est_5min_notional > 0.0
    rate[liquid] = np.minimum(
        cfg.slip_coeff * notional[liquid] / est_5min_notional[liquid], cap_rate)
    return fees, rate * notional


def funding_events(start_ts: int, end_ts: int,
                   hours: Sequence[int] = CostConfig.funding_hours
                   ) -> np.ndarray:
    """Funding timestamps in the half-open-left interval (start, end], ascending."""
    offsets = np.sort(np.array(hours, dtype=np.int64)) * 3600
    days = np.arange(start_ts // 86_400 * 86_400, end_ts + 1, 86_400,
                     dtype=np.int64)
    events = (days[:, None] + offsets).ravel()
    return events[(events > start_ts) & (events <= end_ts)]


def funding_paid(timestamps: np.ndarray, first: np.ndarray, bars: np.ndarray,
                 symbols: Sequence[str], sizes: np.ndarray,
                 cfg: CostConfig) -> np.ndarray:
    """Unsigned funding on each bar of positions laid end to end: position
    k holds sizes[k] of symbols[k] on ``bars[k]`` timestamps from first[k].

    Element j is what a long held entering bar j pays for the events in
    (timestamps[j-1], timestamps[j]], 0.0 on a position's first bar; a
    short receives it (``0.0 - paid``). Events fall at the funding hours
    (one funding_events call), each charged size * funding_rates_at, and a
    bar's are summed in event order from 0.0.
    """
    first, bars, sizes = (np.asarray(a) for a in (first, bars, sizes))
    paid = np.zeros(len(timestamps))
    if len(timestamps) < 2:
        return paid
    lo, hi = int(timestamps.min()), int(timestamps.max())
    events = funding_events(lo, hi, cfg.funding_hours)
    pos, ev = np.nonzero((events > timestamps[first][:, None])
                         & (events <= timestamps[first + bars - 1][:, None]))
    rates = {s: funding_rates_at(cfg, s, events) for s in set(symbols)}
    # A (position, timestamp) key places each event on its position's bars.
    key = np.repeat(np.arange(len(first)), bars) * (hi + 1 - lo) + timestamps
    np.add.at(paid, np.searchsorted(key, pos * (hi + 1 - lo) + events[ev]),
              sizes[pos] * np.array([rates[s] for s in symbols])[pos, ev])
    return paid


def trade_fills(close: np.ndarray, volume: np.ndarray, entry: np.ndarray,
                exit: np.ndarray, exit_px: np.ndarray, size, interval,
                cfg: CostConfig) -> Tuple[np.ndarray, np.ndarray]:
    """fill_costs of m trades' fills, the m entries then the m exits: an
    entry's notional is its ``size``, an exit's the position's value at
    exit_px. ``size`` and ``interval`` are per trade or one for all."""
    size, interval = (np.broadcast_to(v, len(entry)) for v in (size, interval))
    bars = np.concatenate((entry, exit))
    notional = np.concatenate((size, size * exit_px / close[entry]))
    return fill_costs(notional, volume[bars], close[bars], cfg,
                      np.tile(interval, 2))


def funding_rates_at(cfg: CostConfig, symbol: str,
                     events: np.ndarray) -> np.ndarray:
    """Each event's rate: symbol's last record at or before it, else flat."""
    rates = np.full(len(events), cfg.funding_rate_per_8h)
    if cfg.funding_rates is not None and symbol in cfg.funding_rates.columns:
        stamps, values = cfg.funding_rates.columns[symbol]
        at = np.searchsorted(stamps, events, side="right") - 1
        known = at >= 0
        rates[known] = values[at[known]]
    return rates


def load_funding_rates(path: str) -> FundingTable:
    """Load a per-symbol funding-rate series CSV into a FundingTable; names
    the line of a timestamp outside int64, a rate outside [-1, 1] (as
    funding_rate_per_8h), NaN included, or a repeated (symbol, timestamp)."""
    seen = set()

    def parse(row: List[str]) -> Tuple[str, int, float]:
        ts, sym, rate = int(row[0]), row[1], float(row[2])
        if not -2**63 <= ts < 2**63:
            raise DataError(f"timestamp must lie in int64, got {ts}")
        if not abs(rate) <= 1:
            raise DataError(f"rate must lie in [-1, 1], got {rate}")
        if (sym, ts) in seen:
            raise DataError(f"duplicate record for {sym} {ts}")
        seen.add((sym, ts))
        return sym, ts, rate

    table: Dict[str, List[Tuple[int, float]]] = {}
    for sym, ts, rate in read_csv(path, FUNDING_HEADER, parse):
        table.setdefault(sym, []).append((ts, rate))
    for records in table.values():
        records.sort()
    return FundingTable(table)
