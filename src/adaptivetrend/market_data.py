"""OHLCV and market-capitalization data: loading, validation, synthetic generation.

Conventions used throughout the engine:
  - Bar timestamps are UTC epoch seconds and mark the *close* instant of the
    bar. All fills, indicator values and funding accruals are anchored to
    these instants.
  - Series are immutable after construction and safe to share across threads.
  - Gaps (missing bars) are preserved and flagged, never filled.

Synthetic universes are geometric Brownian motion per regime segment, driven
by numpy's PCG64 generator with per-symbol streams spawned from a single
SeedSequence, so a fixed seed reproduces the universe bit for bit.
"""

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, date, timezone
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, TextIO, Tuple, TypeVar)

import numpy as np

SECONDS_PER_YEAR = 31_536_000  # 365 days; crypto trades continuously
SECONDS_PER_DAY = 86_400
DEFAULT_INTERVAL = 21_600  # 6-hour bars

OHLCV_HEADER = ["timestamp", "open", "high", "low", "close", "volume"]
MARKET_CAP_HEADER = ["date", "symbol", "market_cap_usd"]

# Synthetic generator constants (documented so runs are reproducible).
SYNTH_BASE_PRICE = 100.0
SYNTH_BASE_VOLUME = 500_000.0
SYNTH_BASE_CAP = 1e10  # largest symbol's reference cap; symbol j gets 1e10/(j+1)
SYNTH_WICK_SCALE = 0.25  # wick extension as a fraction of per-bar sigma
SYNTH_DEFAULT_START = 1_640_995_200  # 2022-01-01 00:00:00 UTC

INF = math.inf
T = TypeVar("T")


class DataError(ValueError):
    """Raised when input data violates a schema or invariant."""


def bars_per_year(interval: int) -> float:
    return SECONDS_PER_YEAR / interval


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bar:
    """One OHLCV observation; timestamp is the bar close instant (UTC seconds)."""

    timestamp: int
    open: float
    high: float
    low: float
    close: float
    volume: float


def validate_bar(bar: Bar) -> None:
    """Check the OHLCV invariants, raising DataError naming the offending bar.

    The chained comparisons are false for NaN, so they also reject non-finite
    fields.
    """
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


@dataclass(frozen=True)
class SeriesArrays:
    """Column view of a PriceSeries for vectorized work."""

    timestamps: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray

    def slice_indices(self, start_ts: int, end_ts: int) -> Tuple[int, int]:
        """Half-open index range [i0, i1) of bars with start_ts <= ts <= end_ts."""
        i0 = int(np.searchsorted(self.timestamps, start_ts, side="left"))
        i1 = int(np.searchsorted(self.timestamps, end_ts, side="right"))
        return i0, i1


@dataclass
class PriceSeries:
    """Validated, ascending OHLCV series at a fixed bar interval.

    Gaps larger than one interval are recorded in ``gaps`` as (prev_ts, next_ts)
    pairs; indicators treat a gap as a normal adjacent-bar transition.
    """

    symbol: str
    interval: int
    bars: Tuple[Bar, ...]
    gaps: List[Tuple[int, int]] = field(init=False, default_factory=list)
    _arrays: Optional[SeriesArrays] = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.bars = tuple(self.bars)
        if self.interval <= 0:
            raise DataError(f"{self.symbol}: interval must be positive")
        prev_ts = None
        gaps = []
        for bar in self.bars:
            validate_bar(bar)
            if prev_ts is not None:
                delta = bar.timestamp - prev_ts
                if delta == 0:
                    raise DataError(f"{self.symbol}: duplicate timestamp {bar.timestamp}")
                if delta < 0:
                    raise DataError(
                        f"{self.symbol}: timestamps not ascending at {bar.timestamp}"
                    )
                if delta % self.interval != 0:
                    raise DataError(
                        f"{self.symbol}: gap {prev_ts} -> {bar.timestamp} is not a"
                        f" multiple of interval {self.interval}"
                    )
                if delta > self.interval:
                    gaps.append((prev_ts, bar.timestamp))
            prev_ts = bar.timestamp
        self.gaps = gaps

    def __len__(self) -> int:
        return len(self.bars)

    def arrays(self) -> SeriesArrays:
        """Column arrays, built lazily and cached (series are immutable)."""
        if self._arrays is None:
            self._arrays = SeriesArrays(
                timestamps=np.array([b.timestamp for b in self.bars], dtype=np.int64),
                open=np.array([b.open for b in self.bars], dtype=np.float64),
                high=np.array([b.high for b in self.bars], dtype=np.float64),
                low=np.array([b.low for b in self.bars], dtype=np.float64),
                close=np.array([b.close for b in self.bars], dtype=np.float64),
                volume=np.array([b.volume for b in self.bars], dtype=np.float64),
            )
        return self._arrays

    def slice_indices(self, start_ts: int, end_ts: int) -> Tuple[int, int]:
        """Half-open index range [i0, i1) of bars with start_ts <= ts <= end_ts."""
        return self.arrays().slice_indices(start_ts, end_ts)


@dataclass(frozen=True)
class MarketCapRecord:
    """Daily market-capitalization snapshot for one symbol."""

    symbol: str
    date: date
    cap: float


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic synthetic universe.

    ``regimes`` is an ordered schedule of (duration_bars, annual_drift,
    annual_vol) segments; drift is the annualized mean log return and vol the
    annualized log-return volatility. Durations must sum to ``n_bars``.
    """

    seed: int
    n_symbols: int
    n_bars: int
    regimes: Tuple[Tuple[int, float, float], ...]
    interval: int = DEFAULT_INTERVAL
    start: int = SYNTH_DEFAULT_START

    def __post_init__(self) -> None:
        if self.n_symbols < 1 or self.n_bars < 1:
            raise DataError("n_symbols and n_bars must be positive")
        if sum(d for d, _, _ in self.regimes) != self.n_bars:
            raise DataError("regime durations must sum to n_bars")
        if any(d <= 0 for d, _, _ in self.regimes):
            raise DataError("regime durations must be positive")
        if any(v <= 0 for _, _, v in self.regimes):
            raise DataError("regime volatilities must be positive")


# ---------------------------------------------------------------------------
# Calendar helpers (UTC month arithmetic)
# ---------------------------------------------------------------------------

def month_floor(ts: int) -> int:
    """Epoch seconds of 00:00 UTC on day 1 of the month containing ts."""
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return int(dt.replace(day=1, hour=0, minute=0, second=0, microsecond=0).timestamp())

def month_add(month_ts: int, k: int) -> int:
    """Shift a month-start timestamp by k calendar months."""
    dt = datetime.fromtimestamp(month_ts, tz=timezone.utc)
    total = dt.year * 12 + (dt.month - 1) + k
    return int(datetime(total // 12, total % 12 + 1, 1, tzinfo=timezone.utc).timestamp())

def month_id(month_ts: int) -> str:
    dt = datetime.fromtimestamp(month_ts, tz=timezone.utc)
    return f"{dt.year:04d}-{dt.month:02d}"

def date_of_ts(ts: int) -> date:
    return datetime.fromtimestamp(ts, tz=timezone.utc).date()


# ---------------------------------------------------------------------------
# CSV files: one reader, one writer, one atomic-rename primitive
# ---------------------------------------------------------------------------

def read_csv(path: str, header: Sequence[str],
             parse_row: Callable[[List[str]], T]) -> List[T]:
    """Parse every non-blank row after an exact header with ``parse_row``.

    A wrong header, a wrong column count, or a ValueError (DataError included)
    raised by ``parse_row`` becomes a DataError naming the path and the line.
    """
    header = list(header)
    width = len(header)
    out: List[T] = []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise DataError(
                f"{path}: line 1: expected header {','.join(header)}")
        try:
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    raise DataError(f"expected {width} columns, got {len(row)}")
                out.append(parse_row(row))
        except ValueError as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc
    return out


@contextmanager
def _atomic_file(path: str) -> Iterator[TextIO]:
    """Text handle on a per-process temp file that is renamed over ``path``
    on success and removed on failure, so readers never see a partial file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(text)


def _cell(value: object) -> object:
    if value is None:
        return ""
    if isinstance(value, float):
        # float() strips numpy scalar types whose repr is not parseable
        return repr(float(value))
    return value


def write_csv(path: str, header: Sequence[str],
              rows: Iterable[Sequence[object]]) -> None:
    """Stream rows to ``path`` atomically; None is an empty cell and a float
    is written as its repr, so every float reads back bit for bit."""
    with _atomic_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _parse_bar(row: List[str]) -> Bar:
    return Bar(int(row[0]), float(row[1]), float(row[2]), float(row[3]),
               float(row[4]), float(row[5]))


def load_price_series(path: str, interval: int = DEFAULT_INTERVAL,
                      symbol: Optional[str] = None) -> PriceSeries:
    """Load one symbol's OHLCV CSV into a validated PriceSeries.

    Rows may be out of order on disk; the returned series is sorted ascending.
    Malformed rows, bar-invariant violations (non-finite values included) and
    duplicate timestamps are rejected with the offending line or timestamp
    named.
    """
    if symbol is None:
        stem = str(path).rsplit("/", 1)[-1]
        symbol = stem[:-4] if stem.endswith(".csv") else stem
    bars = read_csv(path, OHLCV_HEADER, _parse_bar)
    bars.sort(key=lambda b: b.timestamp)
    try:
        return PriceSeries(symbol=symbol, interval=interval, bars=bars)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_price_series(series: PriceSeries, path: str) -> None:
    """Write a series back to the OHLCV CSV schema (round-trips exactly)."""
    write_csv(path, OHLCV_HEADER,
              ([int(b.timestamp), b.open, b.high, b.low, b.close, b.volume]
               for b in series.bars))


def load_market_caps(path: str) -> List[MarketCapRecord]:
    """Load daily market-cap records; rejects caps that are not positive and
    finite, and duplicate (symbol, date) records."""
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


def save_market_caps(records: Sequence[MarketCapRecord], path: str) -> None:
    write_csv(path, MARKET_CAP_HEADER,
              ([r.date.isoformat(), r.symbol, r.cap] for r in records))


# ---------------------------------------------------------------------------
# Synthetic universe
# ---------------------------------------------------------------------------

def _regime_arrays(spec: SyntheticSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Per-bar annualized drift and vol arrays from the regime schedule."""
    drift = np.empty(spec.n_bars)
    vol = np.empty(spec.n_bars)
    pos = 0
    for duration, mu, sigma in spec.regimes:
        drift[pos:pos + duration] = mu
        vol[pos:pos + duration] = sigma
        pos += duration
    return drift, vol


def generate_synthetic_universe(
    spec: SyntheticSpec,
) -> Tuple[List[PriceSeries], List[MarketCapRecord]]:
    """Generate a deterministic multi-symbol universe with daily market caps.

    Prices follow per-regime GBM: per-bar log returns are iid
    Normal(drift * dt, vol**2 * dt) with dt = interval / seconds_per_year.
    Symbol j draws from the j-th PCG64 stream spawned from SeedSequence(seed),
    so output is a pure function of the recipe. Symbol j's market cap on day d
    is (1e10 / (j + 1)) * last_close_of_day / base_price, which makes the cap
    ranking follow symbol index modulated by realized price paths.
    """
    mu, sigma = _regime_arrays(spec)
    dt = spec.interval / SECONDS_PER_YEAR
    sqrt_dt = math.sqrt(dt)
    sigma_bar = sigma * sqrt_dt

    ts = spec.start + (np.arange(spec.n_bars, dtype=np.int64) + 1) * spec.interval
    width = max(2, len(str(spec.n_symbols - 1)))

    series_list = []
    cap_records = []
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_symbols)
    for j, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        z = rng.standard_normal(spec.n_bars)
        wick_hi = np.abs(rng.standard_normal(spec.n_bars))
        wick_lo = np.abs(rng.standard_normal(spec.n_bars))
        vol_noise = rng.standard_normal(spec.n_bars)

        log_ret = mu * dt + sigma_bar * z
        close = SYNTH_BASE_PRICE * np.exp(np.cumsum(log_ret))
        open_ = np.concatenate(([SYNTH_BASE_PRICE], close[:-1]))
        body_hi = np.maximum(open_, close)
        body_lo = np.minimum(open_, close)
        high = body_hi * (1.0 + SYNTH_WICK_SCALE * sigma_bar * wick_hi)
        low = body_lo * (1.0 - np.minimum(SYNTH_WICK_SCALE * sigma_bar * wick_lo, 0.9))
        volume = SYNTH_BASE_VOLUME * np.exp(0.5 * vol_noise)

        symbol = f"SYM{j:0{width}d}"
        bars = [
            Bar(int(ts[i]), float(open_[i]), float(high[i]),
                float(low[i]), float(close[i]), float(volume[i]))
            for i in range(spec.n_bars)
        ]
        series_list.append(PriceSeries(symbol=symbol, interval=spec.interval, bars=bars))

        # Daily caps: a bar belongs to the day containing (ts - 1, ts].
        base_cap = SYNTH_BASE_CAP / (j + 1)
        day_last_close: Dict[int, float] = {}
        for i in range(spec.n_bars):
            day_last_close[int((ts[i] - 1) // SECONDS_PER_DAY)] = float(close[i])
        for day_ord in sorted(day_last_close):
            cap_records.append(MarketCapRecord(
                symbol=symbol,
                date=date_of_ts(day_ord * SECONDS_PER_DAY),
                cap=base_cap * day_last_close[day_ord] / SYNTH_BASE_PRICE,
            ))
    return series_list, cap_records


# ---------------------------------------------------------------------------
# Resampling (needed for timeframe sweeps)
# ---------------------------------------------------------------------------

def resample_series(series: PriceSeries, target_interval: int) -> PriceSeries:
    """Aggregate bars to a coarser interval that is a multiple of the source's.

    Buckets are aligned to epoch multiples of the target interval; only
    complete, gap-free buckets are emitted (partial edges are dropped).
    """
    if target_interval == series.interval:
        return series
    if target_interval % series.interval != 0:
        raise DataError(
            f"{series.symbol}: cannot resample interval {series.interval} to"
            f" {target_interval} (not a multiple)"
        )
    m = target_interval // series.interval
    buckets: Dict[int, List[Bar]] = {}
    for bar in series.bars:
        bucket = -(-bar.timestamp // target_interval)  # ceil division
        buckets.setdefault(bucket, []).append(bar)
    out = []
    for bucket in sorted(buckets):
        group = buckets[bucket]
        if len(group) != m:
            continue  # partial or gapped bucket
        out.append(Bar(
            timestamp=bucket * target_interval,
            open=group[0].open,
            high=max(b.high for b in group),
            low=min(b.low for b in group),
            close=group[-1].close,
            volume=sum(b.volume for b in group),
        ))
    return PriceSeries(symbol=series.symbol, interval=target_interval, bars=out)
