"""Trading cost model: taker fees, volume-linear slippage, periodic funding.

All functions are pure over an immutable CostConfig. Costs are expressed in
quote currency. Funding is signed: a long position pays when the rate is
positive, a short position receives the same amount.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .market_data import DataError, read_csv

FIVE_MINUTES = 300

LONG = "long"
SHORT = "short"

FUNDING_HEADER = ["timestamp", "symbol", "rate_8h"]


@dataclass(frozen=True)
class CostConfig:
    """Cost parameters.

    slip_coeff is the linear price-impact coefficient: the impact rate equals
    slip_coeff times (fill notional / estimated 5-minute traded notional),
    capped at slip_cap_bps. funding_hours are the daily UTC hours at which
    funding is exchanged. funding_rates optionally overrides the flat
    funding_rate_per_8h with a per-symbol step function (see
    load_funding_rates).
    """

    taker_fee_bps: float = 4.0
    slip_coeff: float = 0.1
    slip_cap_bps: float = 50.0
    funding_rate_per_8h: float = 1e-4
    funding_hours: Tuple[int, ...] = (0, 8, 16)
    funding_rates: Optional[Dict[str, List[Tuple[int, float]]]] = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        if self.taker_fee_bps < 0:
            raise ValueError("taker_fee_bps must be >= 0")
        if self.slip_coeff < 0:
            raise ValueError("slip_coeff must be >= 0")
        if self.slip_cap_bps < 0:
            raise ValueError("slip_cap_bps must be >= 0")
        if any(not 0 <= h < 24 for h in self.funding_hours):
            raise ValueError("funding_hours must lie in [0, 24)")
        if len(set(self.funding_hours)) != len(self.funding_hours):
            raise ValueError("funding_hours must not repeat")


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
                   hours: Sequence[int] = (0, 8, 16)) -> np.ndarray:
    """Funding timestamps in the half-open-left interval (start, end], ascending."""
    offsets = np.sort(np.array(hours, dtype=np.int64)) * 3600
    days = np.arange(start_ts // 86_400 * 86_400, end_ts + 1, 86_400,
                     dtype=np.int64)
    events = (days[:, None] + offsets).ravel()
    return events[(events > start_ts) & (events <= end_ts)]


def funding_schedule(timestamps: np.ndarray, cfg: CostConfig, symbol: str,
                     side: str, size: float) -> np.ndarray:
    """Signed funding of a position of quote notional ``size`` on each bar.

    Element j is the funding of the events in (timestamps[j-1], timestamps[j]],
    i.e. what a position held entering bar j pays (negative: receives);
    element 0 is 0.0. Events fall at the daily funding hours
    (funding_events of the whole window, one call). Each is charged
    size * rate, the rate being the latest per-symbol record at or before the
    event (load_funding_rates) or else the flat funding_rate_per_8h; long pays
    a positive rate and short receives it. A bar's events are summed in event
    order, starting from 0.0.
    """
    if side not in (LONG, SHORT):
        raise ValueError(f"side must be '{LONG}' or '{SHORT}', got {side!r}")
    paid = np.zeros(len(timestamps))
    if len(timestamps) < 2:
        return paid
    events = funding_events(int(timestamps[0]), int(timestamps[-1]),
                            cfg.funding_hours)
    rates = np.full(len(events), cfg.funding_rate_per_8h)
    records = (cfg.funding_rates or {}).get(symbol)
    if records:
        at = np.searchsorted([ts for ts, _ in records], events, side="right") - 1
        known = at >= 0
        rates[known] = np.array([rate for _, rate in records])[at[known]]
    sign = 1.0 if side == LONG else -1.0
    np.add.at(paid, np.searchsorted(timestamps, events), sign * size * rates)
    return paid


def load_funding_rates(path: str) -> Dict[str, List[Tuple[int, float]]]:
    """Load a per-symbol funding-rate series CSV into a step-function table;
    rejects rates that are not finite and duplicate (symbol, timestamp)
    records."""
    seen = set()

    def parse(row: List[str]) -> Tuple[str, int, float]:
        ts, sym, rate = int(row[0]), row[1], float(row[2])
        if not math.isfinite(rate):
            raise DataError(f"rate must be finite, got {rate}")
        if (sym, ts) in seen:
            raise DataError(f"duplicate record for {sym} {ts}")
        seen.add((sym, ts))
        return sym, ts, rate

    table: Dict[str, List[Tuple[int, float]]] = {}
    for sym, ts, rate in read_csv(path, FUNDING_HEADER, parse):
        table.setdefault(sym, []).append((ts, rate))
    for records in table.values():
        records.sort()
    return table
