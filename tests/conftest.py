"""Shared builders for the test suite."""

import math
from datetime import date
from typing import Optional, Sequence

import numpy as np
import pytest

from adaptivetrend.market_data import (Bar, MarketCapRecord, PriceSeries,
                                       SeriesArrays)
from scalar_reference import columns

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
    return PriceSeries(symbol, interval, columns(bars))


def bars_of(series: PriceSeries) -> tuple:
    return tuple(series.arrays.bars(0, len(series)))


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
    return PriceSeries(symbol, interval, SeriesArrays(
        timestamps, opens, body_hi + wicks, body_lo - wicks, closes, volumes))


def caps_for(symbols: Sequence[str], snap_date: date = date(2022, 1, 31),
             top: float = 1e10) -> list:
    """One snapshot date; cap rank follows symbol order, largest first."""
    return [MarketCapRecord(symbol=s, date=snap_date, cap=top / (j + 1))
            for j, s in enumerate(symbols)]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion (tests/test_acceptance.py)."""
    outcomes = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            if getattr(rep, "failed", False):
                outcomes[name] = "FAIL"
            elif getattr(rep, "passed", False) and rep.when == "call":
                outcomes.setdefault(name, "PASS")
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(outcomes):
        parts = name.split("_")
        number = int(parts[1].lstrip("c"))
        label = " ".join(parts[2:])
        terminalreporter.write_line(
            f"criterion {number:2d}: {outcomes[name]} - {label}")
