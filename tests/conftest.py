"""Shared builders for the test suite."""

import math
from dataclasses import replace
from datetime import date
from typing import Dict, Optional, Sequence

import numpy as np
import pytest

from adaptivetrend.backtester import BacktestConfig, Market
from adaptivetrend.cost_model import ZERO_COSTS, CostConfig
from adaptivetrend.market_data import DEFAULT_RF_ANNUAL, Bar, PriceSeries
from adaptivetrend.rebalancer import Optimizer, RebalanceConfig
from adaptivetrend.signal_engine import StrategyParams
from scalar_reference import MarketCapRecord, cap_index, columns, records

INTERVAL = 21_600
T0 = 1_640_995_200        # 2022-01-01 00:00 UTC
FEB1 = 1_643_673_600      # 2022-02-01 00:00 UTC
MAR1 = 1_646_092_800      # 2022-03-01 00:00 UTC

# 20-bar scripted close path: a rally that stops out, then a slide that the
# short rides to the final bar. Expected trades/stops are hand-computed.
SCRIPT_CLOSES = [100.0, 100.5, 101.0, 100.2, 100.8, 106.0, 108.5, 110.0,
                 111.0, 112.0, 104.0, 103.0, 101.0, 99.0, 94.0, 92.0,
                 98.0, 97.0, 96.5, 96.0]


def make_bars(closes: Sequence[float], *, interval: int = INTERVAL,
              t0: int = T0, opens: Optional[Sequence[float]] = None,
              wick: float = 1.5, volume: float = 1_000_000.0) -> tuple:
    """Bars from a close path: opens chain from the previous close,
    highs/lows sit one wick outside the body."""
    if opens is None:
        opens = [closes[0]] + list(closes[:-1])
    bars = []
    for i, (o, c) in enumerate(zip(opens, closes)):
        bars.append(Bar(timestamp=t0 + (i + 1) * interval, open=float(o),
                        high=float(max(o, c) + wick), low=float(min(o, c) - wick),
                        close=float(c), volume=volume))
    return tuple(bars)


def series_from_bars(symbol: str, interval: int,
                     bars: Sequence[Bar]) -> PriceSeries:
    """A PriceSeries whose columns hold the fields of ``bars``."""
    return PriceSeries(symbol, interval, *columns(bars))


def bars_of(series: PriceSeries) -> tuple:
    return tuple(series.bars(0, len(series)))


def make_series(closes: Sequence[float], *, symbol: str = "TST",
                interval: int = INTERVAL, t0: int = T0,
                opens: Optional[Sequence[float]] = None, wick: float = 1.5,
                volume: float = 1_000_000.0) -> PriceSeries:
    return series_from_bars(symbol, interval,
                            make_bars(closes, interval=interval, t0=t0,
                                      opens=opens, wick=wick, volume=volume))


def gbm_closes(rng: np.random.Generator, n: int, *, drift: float = 0.0,
               vol: float = 0.5, base: float = 100.0,
               interval: int = INTERVAL) -> np.ndarray:
    """Quick lognormal walk for property loops (cheaper than the full
    synthetic generator)."""
    dt = interval / 31_536_000.0
    steps = (drift - 0.5 * vol * vol) * dt + vol * math.sqrt(dt) * rng.standard_normal(n)
    return base * np.exp(np.cumsum(steps))


def gbm_series(rng: np.random.Generator, n: int, *, symbol: str = "RND",
               drift: float = 0.0, vol: float = 0.5,
               interval: int = INTERVAL, t0: int = T0) -> PriceSeries:
    closes = gbm_closes(rng, n, drift=drift, vol=vol, interval=interval)
    wicks = 0.002 * closes * rng.random(n)
    opens = np.concatenate(([closes[0]], closes[:-1]))
    body_hi = np.maximum(opens, closes)
    body_lo = np.minimum(opens, closes)
    volumes = 1e6 * np.exp(0.3 * rng.standard_normal(n))
    timestamps = t0 + (np.arange(n, dtype=np.int64) + 1) * interval
    return PriceSeries(symbol, interval, timestamps, opens, body_hi + wicks,
                       body_lo - wicks, closes, volumes)


def assert_same_result(got, want):
    """Every array equal (NaN stops included) with the same dtype, and the
    same trades."""
    assert got.symbol == want.symbol
    for name in ("timestamps", "position", "stop", "gross_returns",
                 "net_returns", "costs", "realized_cum", "open_mtm",
                 "open_costs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b, equal_nan=True), name
    assert records(got.trades) == records(want.trades)


def assert_accounting_identity(result, rel=1e-9):
    """A run's balance is its initial balance plus its realized PnL and open
    mark-to-market, less its open costs, at every sample."""
    expected = (result.equity.balances[0] + result.realized + result.open_mtm
                - result.open_costs)
    np.testing.assert_allclose(result.equity.balances, expected, rtol=rel)
    assert len(result.equity.balances) == len(result.realized)


def rough_series(rng, n, interval, *, gaps, zero_volume, symbol="RND"):
    """A lognormal path with optional gaps and zero-volume bars."""
    closes = gbm_closes(rng, n, vol=1.5, interval=interval)
    opens = np.concatenate((closes[:1], closes[:-1]))
    wicks = 0.01 * closes * rng.random(n)
    steps = rng.integers(1, 4, n) if gaps else np.ones(n, dtype=np.int64)
    volume = 1e6 * np.exp(rng.normal(0.0, 2.0, n))
    volume[rng.random(n) < zero_volume] = 0.0
    return PriceSeries(
        symbol, interval, T0 + np.cumsum(steps).astype(np.int64) * interval,
        opens, np.maximum(opens, closes) + wicks,
        np.minimum(opens, closes) - wicks, closes, volume)


def jumpy_universe(seed: int, n_symbols: int, jump: float, n: int = 360):
    """Lognormal symbols from Jan 1 (RND, SYM01, ...) with caps ranked in
    that order; the first one's price is multiplied by ``jump`` from a random
    bar in February or March on, which can wipe out a leveraged account."""
    rng = np.random.default_rng(seed)
    universe = {}
    for j in range(n_symbols):
        symbol = "RND" if j == 0 else f"SYM{j:02d}"
        closes = gbm_closes(rng, n, vol=float(rng.uniform(0.3, 2.0)),
                            drift=float(rng.normal(0.0, 2.0)))
        if j == 0:
            closes[int(rng.integers(124, 240)):] *= jump
        universe[symbol] = make_series(closes.tolist(), symbol=symbol,
                                       t0=T0 - INTERVAL, wick=0.001 * closes[0])
    return universe, caps_for(list(universe))


# Cost models the differential tests draw from: zero, the default, and
# per-symbol funding rates at other funding hours.
COST_CHOICES = [ZERO_COSTS, CostConfig(),
                CostConfig(funding_hours=(3, 11, 19), funding_rates={"RND": [
                    (T0 + 10 * 3_600, -4e-4), (T0 + 200 * 3_600, 7e-4)]})]


def caps_for(symbols: Sequence[str], snap_date: date = date(2022, 1, 31),
             top: float = 1e10) -> list:
    """One snapshot date; cap rank follows symbol order, largest first."""
    return [MarketCapRecord(symbol=s, date=snap_date, cap=top / (j + 1))
            for j, s in enumerate(symbols)]


def day_start(day: date) -> int:
    """00:00 UTC of ``day`` in epoch seconds."""
    return (day - date(1970, 1, 1)).days * 86_400


def market_of(universe: Dict[str, PriceSeries],
              caps: Sequence[MarketCapRecord]) -> Market:
    """A Market over a test universe and a list of its cap records."""
    return Market(universe, cap_index(caps))


def solve_cfg(grid, cost=ZERO_COSTS, rf=DEFAULT_RF_ANNUAL, trailing=True,
              intrabar=False):
    """A config that sets what a grid search reads: the grid, costs, rf and
    execution flags."""
    return BacktestConfig(
        start=FEB1, end=MAR1, interval=INTERVAL,
        rebalance=RebalanceConfig(grid=grid, rf_annual=rf), costs=cost,
        trailing_stop_enabled=trailing, intrabar_stop_fill=intrabar)


def sided(params: StrategyParams, side: str) -> StrategyParams:
    """The cell that trades what a reference run with ``side_enabled=side``
    trades: the other side's threshold at +inf for "long" or "short", the
    cell itself for "both"."""
    if side == "long":
        return replace(params, theta_entry_short=math.inf)
    if side == "short":
        return replace(params, theta_entry=math.inf)
    return params


def solve_alone(series: PriceSeries, side: str, window, cfg):
    """One candidate's pick by a fresh Optimizer over ``series`` alone,
    told no grid."""
    return Optimizer({series.symbol: series}).solve(
        [(series.symbol, side)], window, cfg)[0]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion (tests/test_acceptance.py),
    or one line saying that the criteria file failed to collect."""
    outcomes = {}
    uncollected = False
    for reports in terminalreporter.stats.values():
        for rep in reports:
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            if "::" not in nodeid:
                # the file's own collection report, not a criterion
                uncollected |= getattr(rep, "failed", False)
                continue
            name = nodeid.split("::")[-1]
            if getattr(rep, "failed", False):
                outcomes[name] = "FAIL"
            elif getattr(rep, "passed", False) and rep.when == "call":
                outcomes.setdefault(name, "PASS")
    if not outcomes and not uncollected:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    if uncollected:
        terminalreporter.write_line(
            "test_acceptance.py failed to collect: no criterion ran")
    for name in sorted(outcomes):
        parts = name.split("_")
        number = int(parts[1].lstrip("c"))
        label = " ".join(parts[2:])
        terminalreporter.write_line(
            f"criterion {number:2d}: {outcomes[name]} - {label}")
