"""OHLCV and market-capitalization data: loading, validation, synthetic generation.

Conventions used throughout the engine:
  - Bar timestamps are UTC epoch seconds and mark the *close* instant of the
    bar. All fills, indicator values and funding accruals are anchored to
    these instants.
  - A PriceSeries (read-only columns) is immutable after construction,
    safe to share across threads, and hashed by identity.
  - Gaps (missing bars) are preserved and flagged, never filled.

Synthetic universes are geometric Brownian motion per regime segment, driven
by numpy's PCG64 generator with per-symbol streams spawned from a single
SeedSequence, so a fixed seed reproduces the universe bit for bit.
"""

import csv
import math
import os
import re
from dataclasses import dataclass, field
from datetime import datetime, date, timezone
from functools import partial
from itertools import chain, starmap
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple, TypeVar)

import numpy as np

SECONDS_PER_YEAR = 31_536_000  # 365 days; crypto trades continuously
SECONDS_PER_DAY = 86_400
DEFAULT_INTERVAL = 21_600  # 6-hour bars
DEFAULT_RF_ANNUAL = 0.045  # annual risk-free rate for Sharpe and Sortino

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


DEFAULT_BARS_PER_YEAR = bars_per_year(DEFAULT_INTERVAL)


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------

class Bar(NamedTuple):
    """One OHLCV observation; timestamp is the bar close instant (UTC seconds).

    Series store columns, not bars: a Bar is a per-bar view, built only to
    write a series out or to name an offending bar in an error message.
    """

    timestamp: int
    open: float
    high: float
    low: float
    close: float
    volume: float


def _check_bars(series: "PriceSeries") -> List[Tuple[int, int]]:
    """Check every bar's invariants at once and return the gaps. The first
    offending bar raises a DataError for the first rule listed that it breaks;
    timestamp rules compare a bar with its predecessor."""
    symbol, interval = series.symbol, series.interval
    ts, o, h, lo, c, v = series.columns()
    prices = np.stack([o, h, lo, c])
    # The first bar gets a step of one interval, which breaks no rule.
    step = np.diff(ts, prepend=ts[:1] - interval)
    rules = (  # comparisons with NaN are false, so NaN breaks the first two
        (~((prices > 0) & (prices < INF)).all(axis=0),
         "bar {b.timestamp}: prices must be strictly positive and finite"),
        (~((v >= 0) & (v < INF)),
         "bar {b.timestamp}: volume must be non-negative and finite"),
        (lo > h, "bar {b.timestamp}: low {b.low} exceeds high {b.high}"),
        (h < np.maximum(o, c),
         "bar {b.timestamp}: high {b.high} below max(open, close)"),
        (lo > np.minimum(o, c),
         "bar {b.timestamp}: low {b.low} above min(open, close)"),
        (step == 0, "{symbol}: duplicate timestamp {b.timestamp}"),
        (step < 0, "{symbol}: timestamps not ascending at {b.timestamp}"),
        (step % interval != 0, "{symbol}: gap {prev} -> {b.timestamp} is not a"
                               " multiple of interval {interval}"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in rules])
    if bad.any():
        i = int(bad.argmax())
        message = next(msg for mask, msg in rules if mask[i])
        raise DataError(message.format(b=series.bar(i), symbol=symbol,
                                       prev=int(ts[i - 1]), interval=interval))
    k = np.flatnonzero(step > interval)
    return list(zip(ts[k - 1].tolist(), ts[k].tolist()))


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Validated, ascending OHLCV series at a fixed bar interval: int64
    timestamps and float64 open, high, low, close, volume columns, read-only
    once validated. Gaps larger than one interval are recorded in ``gaps``
    as (prev_ts, next_ts) pairs; indicators treat a gap as a normal
    adjacent-bar transition.
    """

    symbol: str
    interval: int
    timestamps: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray
    gaps: List[Tuple[int, int]] = field(init=False)

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise DataError(f"{self.symbol}: interval must be positive")
        object.__setattr__(self, "gaps", _check_bars(self))
        for col in self.columns():
            col.flags.writeable = False

    def __len__(self) -> int:
        return len(self.timestamps)

    def columns(self) -> Tuple[np.ndarray, ...]:
        return (self.timestamps, self.open, self.high, self.low, self.close,
                self.volume)

    def slice_indices(self, start_ts: int, end_ts: int) -> Tuple[int, int]:
        """Half-open index range [i0, i1) of bars with start_ts <= ts <= end_ts."""
        i0 = int(np.searchsorted(self.timestamps, start_ts, side="left"))
        i1 = int(np.searchsorted(self.timestamps, end_ts, side="right"))
        return i0, i1

    def bars(self, i0: int, i1: int) -> Iterator[Bar]:
        """Bar views of rows [i0, i1), with plain int and float fields."""
        return starmap(Bar, zip(*(col[i0:i1].tolist() for col in self.columns())))

    def bar(self, i: int) -> Bar:
        return next(self.bars(i, i + 1))


@dataclass(frozen=True)
class MarketCapRecord:
    """Daily market-capitalization snapshot for one symbol."""

    symbol: str
    date: date
    cap: float


class CapIndex:
    """Daily market caps as parallel columns, with each date's snapshot in
    date order so that cap_snapshot bisects instead of scanning.

    Iterating yields MarketCapRecords in input order. A snapshot keeps input
    order within its date, and a repeated (symbol, date) keeps its last cap.
    Build one per loaded universe.
    """

    def __new__(cls, caps: Iterable[MarketCapRecord] = ()) -> "CapIndex":
        records = list(caps)
        return cls.from_columns(
            np.array([r.date for r in records], dtype="datetime64[D]"),
            [r.symbol for r in records],
            np.array([r.cap for r in records], dtype=np.float64))

    @classmethod
    def from_columns(cls, days: np.ndarray, symbols: Sequence[str],
                     caps: np.ndarray) -> "CapIndex":
        """Index datetime64[D] days, symbols and caps given in input order."""
        self = super().__new__(cls)
        symbols = list(symbols)
        self._columns = (days, symbols, caps)
        order = np.argsort(days, kind="stable")
        day_sorted = days[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = day_sorted[1:] != day_sorted[:-1]
        starts = np.flatnonzero(first).tolist()
        sym_sorted = [symbols[i] for i in order.tolist()]
        cap_sorted = caps[order].tolist()
        self.dates: List[date] = day_sorted[starts].tolist()
        self.snapshots: Dict[date, Dict[str, float]] = {
            day: dict(zip(sym_sorted[a:b], cap_sorted[a:b]))
            for day, a, b in zip(self.dates, starts, starts[1:] + [len(order)])}
        return self

    def __iter__(self) -> Iterator[MarketCapRecord]:
        days, symbols, caps = self._columns
        return map(MarketCapRecord, symbols, days.tolist(), caps.tolist())

    def __len__(self) -> int:
        return len(self._columns[1])


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic synthetic universe.

    ``regimes`` is an ordered, non-empty schedule of (duration_bars,
    annual_drift, annual_vol) segments; drift is the annualized mean log
    return and vol the annualized log-return volatility. The universe has
    ``n_bars``, the durations' sum, bars per symbol.
    """

    seed: int
    n_symbols: int
    regimes: Tuple[Tuple[int, float, float], ...]
    interval: int = DEFAULT_INTERVAL
    start: int = SYNTH_DEFAULT_START

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if self.n_symbols < 1:
            raise DataError("n_symbols must be positive")
        if self.interval <= 0:
            raise DataError(f"interval must be > 0, got {self.interval}")
        if not self.regimes:
            raise DataError("the regime schedule must not be empty")
        if any(d <= 0 for d, _, _ in self.regimes):
            raise DataError("regime durations must be positive")
        if any(v <= 0 for _, _, v in self.regimes):
            raise DataError("regime volatilities must be positive")
        last = self.start + self.n_bars * self.interval
        for name, ts in (("start", self.start), ("last bar", last)):
            try:
                date_of_ts(ts)
            except (OverflowError, ValueError) as exc:
                raise DataError(f"{name} {ts} has no UTC date") from exc

    @property
    def n_bars(self) -> int:
        return sum(d for d, _, _ in self.regimes)


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


def atomic_write_text(path: str, text: str) -> None:
    """Write text to a per-process temp file that is renamed over ``path``
    on success and removed on failure, so readers never see a partial file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _cell(value: object) -> str:
    """One value as csv.writer writes it: None is an empty cell, a float is
    its repr, so it reads back bit for bit (float.__repr__ also formats
    NumPy's float scalars, whose own repr does not parse), and anything else
    is its str, quoted when it holds a comma, a quote or a line break."""
    if value is None:
        return ""
    if isinstance(value, float):
        return float.__repr__(value)
    text = value if isinstance(value, str) else str(value)
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _column_cells(values: Sequence[object]) -> List[str]:
    """_cell of every value; a column of plain floats or plain ints (bools
    excluded) is formatted in one pass."""
    kinds = set(map(type, values))
    if kinds <= {float}:
        return list(map(float.__repr__, values))
    if kinds <= {int}:
        return list(map(int.__repr__, values))
    return list(map(_cell, values))


def _line(cells: Sequence[str]) -> str:
    # A lone empty cell is quoted, as csv.writer does, or it reads back as a
    # blank line.
    return '""' if len(cells) == 1 and not cells[0] else ",".join(cells)


def write_columns(path: str, header: Sequence[str],
                  columns: Sequence[Sequence[object]]) -> None:
    """Write the header and the rows these equal-length columns make up to
    ``path`` as csv.writer writes them, each line ended by \\r\\n and every
    value formatted by _cell a whole column at a time; the file is written
    atomically once every line is formatted."""
    cells = [_column_cells(col) for col in columns]
    lines = chain([[_cell(h) for h in header]], zip(*cells))
    atomic_write_text(path, "\r\n".join(map(_line, lines)) + "\r\n")


_OHLCV_DTYPE = np.dtype(list(zip(OHLCV_HEADER, ["i8"] + ["f8"] * 5)))
# Dates are read one character wider than YYYY-MM-DD, so that a longer
# field shows as one.
_CAP_DTYPE = np.dtype([("date", "U11"), ("symbol", "O"), ("cap", "f8")])


def _load_rows(path: str, header: Sequence[str], dtype: np.dtype) -> np.ndarray:
    """The rows after an exact header line, parsed by one np.loadtxt call on
    the file itself. A header-only file gives no rows (loadtxt would warn);
    a field that NumPy's C parser rejects raises its ValueError."""
    with open(path, "r") as fh:
        first = fh.readline()
        has_rows = any(chunk.strip("\n")
                       for chunk in iter(partial(fh.read, 1 << 16), ""))
    if first.rstrip("\n") != ",".join(header):
        raise DataError(f"{path}: line 1: expected header {','.join(header)}")
    if not has_rows:
        return np.zeros(0, dtype=dtype)
    return np.loadtxt(path, dtype=dtype, delimiter=",", comments=None,
                      skiprows=1, ndmin=1)


def load_price_series(path: str, interval: int = DEFAULT_INTERVAL,
                      symbol: Optional[str] = None) -> PriceSeries:
    """Load one symbol's OHLCV CSV into a validated PriceSeries.

    Rows may be out of order on disk; the returned series is sorted ascending
    (stably). Malformed rows, bar-invariant violations (non-finite values
    included) and duplicate timestamps are rejected with the offending line
    or timestamp named. NumPy's C parser reads the fields, so digit
    separators ("1_000"), quoted or non-ASCII numbers and timestamps outside
    int64, which int() and float() would take, are rejected too.
    """
    if symbol is None:
        stem = str(path).rsplit("/", 1)[-1]
        symbol = stem[:-4] if stem.endswith(".csv") else stem
    try:
        rows = _load_rows(path, OHLCV_HEADER, _OHLCV_DTYPE)
    except DataError:
        raise
    except ValueError as exc:
        # The row-by-row reader names the line of any malformed row; only
        # what it accepts and the C parser does not gets here.
        read_csv(path, OHLCV_HEADER,
                 lambda row: (int(row[0]), [float(x) for x in row[1:]]))
        raise DataError(f"{path}: {exc}") from exc
    order = np.argsort(rows["timestamp"], kind="stable")
    try:
        return PriceSeries(symbol, interval,
                           *(rows[name][order] for name in OHLCV_HEADER))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_price_series(series: PriceSeries, path: str) -> None:
    """Write a series back to the OHLCV CSV schema (round-trips exactly)."""
    write_columns(path, OHLCV_HEADER,
                  [col.tolist() for col in series.columns()])


def _plain_caps(path: str) -> CapIndex:
    """load_market_caps' columnar path: one np.loadtxt call, then checks over
    whole columns. It takes only a plain file, valid with YYYY-MM-DD dates
    and no quotes, and raises ValueError for anything else, valid or not."""
    rows = _load_rows(path, MARKET_CAP_HEADER, _CAP_DTYPE)
    text, day_of_row = np.unique(rows["date"], return_inverse=True)
    caps = rows["cap"].copy()
    symbols = rows["symbol"].tolist()
    del rows  # and with it the fixed-width date strings
    chars = text.view("U1").reshape(-1, 11)
    digits = chars[:, [0, 1, 2, 3, 5, 6, 8, 9]]
    plain = (((digits >= "0") & (digits <= "9")).all()
             and (chars[:, [4, 7]] == "-").all() and (chars[:, 10] == "").all()
             and ((caps > 0) & (caps < INF)).all()
             and not any('"' in sym for sym in set(symbols)))
    if not plain:
        raise ValueError("not a plain market-cap file")
    days = text.astype("datetime64[D]")  # a ValueError for a day out of range
    if not (days >= np.datetime64(date.min)).all():
        raise ValueError("year 0")
    index = CapIndex.from_columns(days[day_of_row], symbols, caps)
    if sum(map(len, index.snapshots.values())) != len(symbols):
        raise ValueError("duplicate (symbol, date) record")
    return index


def load_market_caps(path: str) -> CapIndex:
    """Load daily market caps; rejects caps that are not positive and finite,
    and duplicate (symbol, date) records.

    A plain file is parsed in columns. Anything else, bad rows included, is
    read again row by row: that names the line of a bad row, and loads what
    only the CSV reader takes, such as quoted symbols.
    """
    try:
        return _plain_caps(path)
    except ValueError:
        pass
    seen = set()

    def parse(row: List[str]) -> MarketCapRecord:
        day, sym, cap = date.fromisoformat(row[0]), row[1], float(row[2])
        if not 0 < cap < INF:
            raise DataError(f"cap must be positive and finite, got {cap}")
        if (sym, day) in seen:
            raise DataError(f"duplicate record for {sym} {day}")
        seen.add((sym, day))
        return MarketCapRecord(symbol=sym, date=day, cap=cap)

    return CapIndex(read_csv(path, MARKET_CAP_HEADER, parse))


def save_market_caps(records: Sequence[MarketCapRecord], path: str) -> None:
    write_columns(path, MARKET_CAP_HEADER,
                  [[r.date.isoformat() for r in records],
                   [r.symbol for r in records], [r.cap for r in records]])


# ---------------------------------------------------------------------------
# Synthetic universe
# ---------------------------------------------------------------------------

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
    # Per-bar annualized drift and vol from the regime schedule.
    durations, drifts, vols = zip(*spec.regimes)
    mu = np.repeat(np.array(drifts, dtype=float), durations)
    sigma = np.repeat(np.array(vols, dtype=float), durations)
    dt = spec.interval / SECONDS_PER_YEAR
    sigma_bar = sigma * math.sqrt(dt)

    ts = spec.start + (np.arange(spec.n_bars, dtype=np.int64) + 1) * spec.interval
    width = max(2, len(str(spec.n_symbols - 1)))
    # Daily caps: a bar belongs to the day containing (ts - 1, ts], and a
    # day's cap follows its last close.
    days = (ts - 1) // SECONDS_PER_DAY
    day_ends = np.flatnonzero(np.diff(days, append=days[-1] + 1))
    day_dates = [date_of_ts(d * SECONDS_PER_DAY) for d in days[day_ends].tolist()]

    series_list = []
    cap_records = []
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_symbols)
    for j, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        z = rng.standard_normal(spec.n_bars)
        wick_hi = np.abs(rng.standard_normal(spec.n_bars))
        wick_lo = np.abs(rng.standard_normal(spec.n_bars))
        vol_noise = rng.standard_normal(spec.n_bars)

        close = SYNTH_BASE_PRICE * np.exp(np.cumsum(mu * dt + sigma_bar * z))
        open_ = np.concatenate(([SYNTH_BASE_PRICE], close[:-1]))
        high = np.maximum(open_, close) * (1.0 + SYNTH_WICK_SCALE * sigma_bar * wick_hi)
        low = np.minimum(open_, close) * (
            1.0 - np.minimum(SYNTH_WICK_SCALE * sigma_bar * wick_lo, 0.9))
        volume = SYNTH_BASE_VOLUME * np.exp(0.5 * vol_noise)

        symbol = f"SYM{j:0{width}d}"
        series_list.append(PriceSeries(symbol, spec.interval, ts, open_, high,
                                       low, close, volume))
        base_cap = SYNTH_BASE_CAP / (j + 1)
        cap_records.extend(
            MarketCapRecord(symbol=symbol, date=day,
                            cap=base_cap * last_close / SYNTH_BASE_PRICE)
            for day, last_close in zip(day_dates, close[day_ends].tolist()))
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
    bucket = -(-series.timestamps // target_interval)  # ceil division
    # Bars are ascending, so each bucket is one run of bars; a run of m bars
    # is a complete bucket and is kept.
    starts = np.flatnonzero(np.diff(bucket, prepend=bucket[:1] - 1))
    first = starts[np.diff(starts, append=len(bucket)) == m]
    rows = first[:, None] + np.arange(m)
    volume = np.zeros(len(first))
    for k in range(m):  # summed bar by bar, left to right
        volume += series.volume[first + k]
    return PriceSeries(series.symbol, target_interval,
                       timestamps=bucket[first] * target_interval,
                       open=series.open[first],
                       high=series.high[rows].max(axis=1),
                       low=series.low[rows].min(axis=1),
                       close=series.close[first + m - 1], volume=volume)
