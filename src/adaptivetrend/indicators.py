"""Price indicators: momentum, true range, ATR, rolling Sharpe.

Array functions return float arrays aligned with the input bars, with NaN
where the indicator is undefined (insufficient history). The engine treats
NaN as "no signal", never as zero.
"""

import math
from typing import Optional, Sequence

import numpy as np


def momentum(close: np.ndarray, lookback: int) -> np.ndarray:
    """Fractional price change over ``lookback`` bars; NaN for the first ``lookback``."""
    if lookback < 1:
        raise ValueError(f"lookback must be >= 1, got {lookback}")
    out = np.full(close.shape, np.nan)
    if len(close) > lookback:
        out[lookback:] = close[lookback:] / close[:-lookback] - 1.0
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


def rolling_sharpe(returns: Sequence[float], rf_annual: float,
                   bars_per_year: float) -> Optional[float]:
    """Annualized Sharpe ratio of a per-bar net return sample.

    The risk-free rate is deannualized to per-bar by simple division. Returns
    None when the ratio is undefined: fewer than two observations, or zero
    dispersion with nonzero mean excess return. A constant series exactly
    equal to the per-bar risk-free rate scores 0.0 (zero excess over zero
    dispersion is treated as zero, not unbounded).
    """
    r = np.asarray(returns, dtype=np.float64)
    n = len(r)
    if n < 2:
        return None
    rf_bar = rf_annual / bars_per_year
    if np.all(r == r[0]):
        # Detect constants exactly; np.std of a constant array can round to a
        # tiny nonzero value and fake an enormous ratio.
        return 0.0 if float(r[0]) == rf_bar else None
    excess = float(np.mean(r)) - rf_bar
    sd = float(np.std(r, ddof=1))
    if sd == 0.0:
        return 0.0 if excess == 0.0 else None
    return excess / sd * math.sqrt(bars_per_year)
