"""Performance metrics, regime decomposition, bootstrap significance tests.

Metric conventions: annualized return is geometric; Sharpe and Sortino use a
per-bar risk-free rate of rf_annual / bars_per_year; Sortino's downside
deviation is the root mean square of min(r - rf_bar, 0); drawdown is measured
against the running equity maximum. Metrics that are undefined on the input
(zero trades, zero gross loss, no drawdown) are reported as None, never as a
substitute number. Trade statistics reduce a ``Ledger``'s columns.
"""

import math
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Sequence, TYPE_CHECKING

import numpy as np

from .indicators import rolling_sharpe, sharpe_rows_in_place
from .market_data import (DEFAULT_BARS_PER_YEAR, DEFAULT_RF_ANNUAL,
                          SECONDS_PER_YEAR, PriceSeries, write_columns)
from .signal_engine import NO_LEDGER, Ledger

if TYPE_CHECKING:
    from .backtester import EquityCurve

BULL = "Bull"
BEAR = "Bear"
SIDEWAYS = "Sideways"

REGIME_WINDOW_DAYS = 60
REGIME_THRESHOLD = 0.15

REGIME_CSV_HEADER = ["regime", "bars", "ann_return", "sharpe", "mdd",
                     "win_rate", "avg_trade_pnl"]


@dataclass(frozen=True)
class MetricsReport:
    """Headline performance statistics; None marks an undefined metric."""

    ann_return: float
    ann_vol: Optional[float]
    sharpe: Optional[float]
    sortino: Optional[float]
    calmar: Optional[float]
    mdd: float
    win_rate: Optional[float]
    avg_trade_pnl: Optional[float]
    profit_factor: Optional[float]
    trades_per_month: float
    turnover: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BootstrapResult:
    delta_sr: float
    p_value: float
    n_reps: int
    block_len: int


@dataclass(frozen=True)
class RegimeSeries:
    """Per-bar Bull/Bear/Sideways labels; only bars with enough history appear."""

    timestamps: np.ndarray
    labels: np.ndarray
    window_bars: int


def max_drawdown(balances: np.ndarray) -> float:
    """Worst peak-to-trough decline as a fraction <= 0 (streaming running max)."""
    if len(balances) == 0:
        return 0.0
    peaks = np.maximum.accumulate(balances)
    return float(np.min(balances / peaks - 1.0))


def sortino_ratio(returns: np.ndarray, rf_annual: float,
                  bars_per_year: float) -> Optional[float]:
    """Annualized mean excess over downside deviation; None if no downside."""
    if len(returns) < 2:
        return None
    rf_bar = rf_annual / bars_per_year
    shortfall = np.minimum(returns - rf_bar, 0.0)
    downside = math.sqrt(float(np.mean(shortfall ** 2)))
    if downside == 0.0:
        return None
    excess = float(np.mean(returns)) - rf_bar
    return excess / downside * math.sqrt(bars_per_year)


def annual_return(growth: float, n_bars: int, bars_per_year: float) -> float:
    """Geometric annual return of growth over n_bars; -100% when growth <= 0:
    all is lost, and a negative base has no real fractional power."""
    return (float(growth ** (bars_per_year / n_bars) - 1.0) if growth > 0
            else -1.0)


def trade_stats(ledger: Ledger) -> tuple:
    """(win rate, mean net PnL per unit of size) of trades; None without."""
    if not ledger:
        return None, None
    return (int(np.count_nonzero(ledger.net_pnl > 0)) / len(ledger),
            float(np.mean(ledger.net_pnl / ledger.size)))


def compute_metrics(
    equity: "EquityCurve",
    ledger: Ledger,
    rf_annual: float,
    bars_per_year: float,
) -> MetricsReport:
    """Full MetricsReport from an equity curve and its trade ledger.

    Turnover is total fill notional (entry plus exit legs) per year, as a
    fraction of the mean account balance. trades_per_month uses the equity
    span at 1/12 year per month.
    """
    if len(equity) < 2:
        raise ValueError("need at least 2 equity points")
    balances = np.asarray(equity.balances, dtype=np.float64)
    returns = balances[1:] / balances[:-1] - 1.0
    n = len(returns)

    ann_return = annual_return(balances[-1] / balances[0], n, bars_per_year)
    ann_vol = (float(np.std(returns, ddof=1)) * math.sqrt(bars_per_year)
               if n >= 2 else None)
    sharpe = rolling_sharpe(returns, rf_annual, bars_per_year)
    sortino = sortino_ratio(returns, rf_annual, bars_per_year)
    mdd = max_drawdown(balances)
    calmar = ann_return / abs(mdd) if mdd < 0.0 else None

    win_rate, avg_trade_pnl = trade_stats(ledger)
    net = ledger.net_pnl
    gains = math.fsum(net[net > 0].tolist())
    losses = math.fsum((-net[net < 0]).tolist())
    profit_factor = gains / losses if losses > 0 else None

    span_years = (int(equity.timestamps[-1]) - int(equity.timestamps[0])) \
        / SECONDS_PER_YEAR
    trades_per_month = (len(ledger) / (span_years * 12.0) if span_years > 0
                        else 0.0)
    fill_notional = math.fsum(
        (ledger.size * (1.0 + ledger.exit_px / ledger.entry_px)).tolist())
    mean_balance = float(np.mean(balances))
    turnover = (fill_notional / mean_balance / span_years
                if span_years > 0 and mean_balance > 0 else 0.0)

    return MetricsReport(
        ann_return=ann_return, ann_vol=ann_vol, sharpe=sharpe, sortino=sortino,
        calmar=calmar, mdd=mdd, win_rate=win_rate, avg_trade_pnl=avg_trade_pnl,
        profit_factor=profit_factor, trades_per_month=trades_per_month,
        turnover=turnover,
    )


# ---------------------------------------------------------------------------
# Regime decomposition
# ---------------------------------------------------------------------------

def classify_regimes(btc: PriceSeries,
                     window_days: int = REGIME_WINDOW_DAYS) -> RegimeSeries:
    """Label each bar by the trailing window_days return of the reference series.

    Bull when the trailing return exceeds +15%, Bear below -15%, Sideways
    otherwise (boundaries inclusive to Sideways). Bars without a full trailing
    window are excluded rather than defaulted.
    """
    w = round(window_days * 86_400 / btc.interval)
    if w < 1:
        raise ValueError(f"regime window of {window_days} days is shorter than"
                         f" one {btc.interval} s bar")
    n = len(btc)
    if n <= w:
        return RegimeSeries(np.array([], dtype=np.int64),
                            np.array([], dtype="<U8"), w)
    trailing = btc.close[w:] / btc.close[:-w] - 1.0
    labels = np.full(n - w, SIDEWAYS, dtype="<U8")
    labels[trailing > REGIME_THRESHOLD] = BULL
    labels[trailing < -REGIME_THRESHOLD] = BEAR
    return RegimeSeries(btc.timestamps[w:].copy(), labels, w)


def regime_metrics(
    timestamps: np.ndarray,
    returns: np.ndarray,
    regimes: RegimeSeries,
    ledger: Ledger = NO_LEDGER,
    rf_annual: float = DEFAULT_RF_ANNUAL,
    bars_per_year: float = DEFAULT_BARS_PER_YEAR,
) -> Dict[str, dict]:
    """Per-regime performance of a return series aligned by exact timestamp.

    Each return sample is attributed to the regime label at its timestamp;
    unlabeled samples are dropped. Drawdown is computed on the equity path of
    the regime's own samples concatenated in time order. Trades attribute to
    the regime at their exit timestamp; both are labeled by one search.
    """
    if len(timestamps) != len(returns):
        raise ValueError("timestamps and returns must align")
    if not len(regimes.timestamps):
        return {}
    stamps = np.concatenate((timestamps, ledger.exit_ts))
    at = np.searchsorted(regimes.timestamps, stamps).clip(
        max=len(regimes.timestamps) - 1)
    labels = np.where(regimes.timestamps[at] == stamps, regimes.labels[at], "")
    sample_labels, exit_labels = np.split(labels, [len(timestamps)])
    out: Dict[str, dict] = {}
    for regime in (BULL, BEAR, SIDEWAYS):
        sub = np.asarray(returns)[sample_labels == regime]
        if len(sub) == 0:
            continue
        path = np.cumprod(1.0 + sub)
        win_rate, avg_trade_pnl = trade_stats(
            ledger.take(exit_labels == regime))
        out[regime] = {
            "bars": int(len(sub)),
            "ann_return": annual_return(float(path[-1]), len(sub),
                                        bars_per_year),
            "sharpe": rolling_sharpe(sub, rf_annual, bars_per_year),
            "mdd": max_drawdown(np.concatenate(([1.0], path))),
            "win_rate": win_rate,
            "avg_trade_pnl": avg_trade_pnl,
        }
    return out


def write_regime_csv(per_regime: Dict[str, dict], path: str) -> None:
    regimes = [r for r in (BULL, BEAR, SIDEWAYS) if r in per_regime]
    write_columns(path, REGIME_CSV_HEADER, [regimes] + [
        [per_regime[r][k] for r in regimes] for k in REGIME_CSV_HEADER[1:]])


# ---------------------------------------------------------------------------
# Circular block bootstrap
# ---------------------------------------------------------------------------

BOOTSTRAP_CHUNK = 256  # replicates scored per sharpe_rows_in_place call


def _circular_block_indices(rng: "np.random.Generator", n: int,
                            block_len: int) -> np.ndarray:
    n_blocks = -(-n // block_len)
    starts = rng.integers(0, n, size=n_blocks)
    offsets = np.arange(block_len)
    return ((starts[:, None] + offsets[None, :]) % n).ravel()[:n]


def bootstrap_sharpe_test(
    returns_a: Sequence[float],
    returns_b: Sequence[float],
    n_reps: int = 10_000,
    block_len: int = 20,
    seed: int = 0,
    rf_annual: float = DEFAULT_RF_ANNUAL,
    bars_per_year: float = DEFAULT_BARS_PER_YEAR,
) -> BootstrapResult:
    """Two-sided circular-block-bootstrap test of a Sharpe-ratio difference.

    Both series are resampled with the same block indices per replicate,
    preserving their cross-dependence; serial dependence within each series
    is preserved up to the block length. The p-value is a centered-percentile
    two-sided probability of a difference as extreme as the observed one.
    Replicate streams derive from (seed, replicate) so parallel and serial
    evaluation, or any evaluation order, give identical results.
    """
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    if block_len < 1:
        raise ValueError(f"block_len must be >= 1, got {block_len}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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
    for lo in range(0, n_reps, BOOTSTRAP_CHUNK):
        rngs = [np.random.default_rng([seed, rep])
                for rep in range(lo, min(lo + BOOTSTRAP_CHUNK, n_reps))]
        idx = np.stack([_circular_block_indices(rng, n, block_len)
                        for rng in rngs])
        # The resampled matrices are fresh, so they are scored in place.
        sr_ra = sharpe_rows_in_place(a[idx], rf_annual, bars_per_year)
        sr_rb = sharpe_rows_in_place(b[idx], rf_annual, bars_per_year)
        deltas[lo:lo + len(rngs)] = sr_ra - sr_rb
        # A replicate with an undefined Sharpe redraws from its own stream.
        for k in np.flatnonzero(np.isnan(sr_ra) | np.isnan(sr_rb)).tolist():
            for _ in range(10):
                row = _circular_block_indices(rngs[k], n, block_len)
                ra = rolling_sharpe(a[row], rf_annual, bars_per_year)
                rb = rolling_sharpe(b[row], rf_annual, bars_per_year)
                if ra is not None and rb is not None:
                    deltas[lo + k] = ra - rb
                    break
            else:
                raise ValueError(f"replicate {lo + k}: Sharpe undefined"
                                 " after 10 redraws")

    centered = deltas - delta
    # Tail offsets use |delta| so relabeling (a, b) -> (b, a) flips both
    # tails together and the p-value is unchanged.
    mag = abs(delta)
    p_hi = float(np.mean(centered >= mag))
    p_lo = float(np.mean(centered <= -mag))
    p_value = min(1.0, 2.0 * min(p_hi, p_lo))
    return BootstrapResult(delta_sr=delta, p_value=p_value,
                           n_reps=n_reps, block_len=block_len)
