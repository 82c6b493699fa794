"""Price indicators: momentum, true range, ATR, rolling Sharpe.

Array functions return float arrays aligned with the input bars, with NaN
where the indicator is undefined (insufficient history). The engine treats
NaN as "no signal", never as zero.
"""

import math
from typing import Optional, Sequence

import numpy as np


def momentum(close: np.ndarray, lookback: int) -> np.ndarray:
    """Fractional price change over ``lookback`` bars along the last axis;
    NaN for the first ``lookback``."""
    if lookback < 1:
        raise ValueError(f"lookback must be >= 1, got {lookback}")
    out = np.full(close.shape, np.nan)
    if close.shape[-1] > lookback:
        out[..., lookback:] = close[..., lookback:] / close[..., :-lookback] - 1.0
    return out


def true_range(high: np.ndarray, low: np.ndarray, close: np.ndarray) -> np.ndarray:
    """Per-bar true range; the first bar falls back to high - low."""
    tr = np.empty(len(close))
    if len(close) == 0:
        return tr
    tr[0] = high[0] - low[0]
    if len(close) > 1:
        prev_close = close[:-1]
        tr[1:] = np.maximum.reduce([
            high[1:] - low[1:],
            np.abs(high[1:] - prev_close),
            np.abs(low[1:] - prev_close),
        ])
    return tr


def atr(high: np.ndarray, low: np.ndarray, close: np.ndarray,
        window: int) -> np.ndarray:
    """Simple moving average of true range; NaN until ``window`` bars exist."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    tr = true_range(high, low, close)
    out = np.full(len(tr), np.nan)
    if len(tr) >= window:
        kernel = np.cumsum(tr)
        out[window - 1] = kernel[window - 1] / window
        if len(tr) > window:
            out[window:] = (kernel[window:] - kernel[:-window]) / window
    return out


def sharpe_rows_in_place(r: np.ndarray, rf_annual: float,
                         bars_per_year: float) -> np.ndarray:
    """Annualized Sharpe ratio of each row of a 2-D float64 per-bar net
    return sample that the caller owns and gives up.

    The risk-free rate is deannualized to per-bar by simple division. A row's
    ratio is NaN when undefined: fewer than two observations, or zero
    dispersion with nonzero mean excess return. A constant row exactly equal
    to the per-bar risk-free rate scores 0.0 (zero excess over zero
    dispersion is treated as zero, not unbounded). Each row's value is
    bit-identical to the same computation on that row alone. The rows are
    overwritten with their squared deviations from their means, so scoring
    allocates a bool mask and a few per-row vectors, never a second matrix;
    a caller that keeps its returns scores a copy.
    """
    out = np.full(r.shape[0], np.nan)
    if r.shape[1] < 2:
        return out
    rf_bar = rf_annual / bars_per_year
    # Detect constants exactly; np.std of a constant row can round to a tiny
    # nonzero value and fake an enormous ratio. Both masks are read before r
    # is overwritten.
    const = (r == r[:, :1]).all(axis=1)
    at_rf = r[:, 0] == rf_bar
    # r.mean(axis=1) once, then r.std(axis=1, ddof=1) by NumPy's own steps.
    mean = np.add.reduce(r, axis=1) / r.shape[1]
    r -= mean[:, None]
    r *= r
    sd = np.sqrt(np.add.reduce(r, axis=1) / (r.shape[1] - 1))
    excess = mean - rf_bar
    flat = const | (sd == 0.0)
    np.divide(excess, sd, out=out, where=~flat)
    out *= math.sqrt(bars_per_year)
    out[flat & np.where(const, at_rf, excess == 0.0)] = 0.0
    return out


def rolling_sharpe(returns: Sequence[float], rf_annual: float,
                   bars_per_year: float) -> Optional[float]:
    """Annualized Sharpe ratio of one per-bar net return sample.

    The rules are those of ``sharpe_rows_in_place``, applied to a copy of
    the returns; an undefined ratio is None.
    """
    r = np.array(returns, dtype=np.float64).reshape(1, -1)
    value = sharpe_rows_in_place(r, rf_annual, bars_per_year)[0]
    return None if math.isnan(value) else float(value)
