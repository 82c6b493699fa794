"""OHLCV and market-capitalization data: loading, validation, synthetic generation.

Conventions used throughout the engine:
  - Bar timestamps are UTC epoch seconds and mark the *close* instant of the
    bar. All fills, indicator values and funding accruals are anchored to
    these instants.
  - A PriceSeries (read-only columns) is immutable after construction,
    safe to share across threads, and hashed by identity. Series on one bar
    clock share one read-only timestamp array, so a universe holds its
    clock once.
  - Gaps (missing bars) are preserved and flagged, never filled.
  - A text file is opened through ``opened``, so one that cannot be read
    (missing, a directory, not UTF-8) is a DataError naming it.

Synthetic universes are geometric Brownian motion per regime segment, driven
by numpy's PCG64 generator with per-symbol streams spawned from a single
SeedSequence, so a fixed seed reproduces the universe bit for bit.
"""

import csv
import math
import os
import re
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, date, timezone
from functools import partial
from itertools import starmap
from typing import (Callable, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, TextIO, Tuple, TypeVar)

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


def _check_bars(series: "PriceSeries") -> None:
    """Check every bar's invariants at once. The first offending bar raises a
    DataError for the first rule listed that it breaks; timestamp rules
    compare a bar with its predecessor."""
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


# Every live series' timestamps by (dtype, length, first and last stamp):
# the first array seen for a key, held weakly, so it lives only as long as
# a series holds it.
_clocks: "weakref.WeakValueDictionary[tuple, np.ndarray]" = (
    weakref.WeakValueDictionary())


def _shared_clock(timestamps: np.ndarray) -> np.ndarray:
    """The live array equal to ``timestamps``, if one has the same key; else
    ``timestamps``, kept for the next series."""
    key = (timestamps.dtype.str, len(timestamps), timestamps[:1].tobytes(),
           timestamps[-1:].tobytes())
    held = _clocks.get(key)
    if held is not None and np.array_equal(held, timestamps):
        return held
    _clocks.setdefault(key, timestamps)
    return timestamps


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Validated, ascending OHLCV series at a fixed bar interval: int64
    timestamps and float64 open, high, low, close, volume columns, read-only
    once validated. A series whose timestamps equal those of a live series
    holds that series' array (the same object), so series on one bar clock
    share one read-only timestamp array. A step of several intervals between
    two bars is a gap, which is valid; indicators treat it as a normal
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

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise DataError(f"{self.symbol}: interval must be positive")
        _check_bars(self)
        object.__setattr__(self, "timestamps", _shared_clock(self.timestamps))
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


# Daily market caps as parallel columns, one row per (symbol, date) record:
# datetime64[D] dates, symbols and float64 caps. The generator, the loader
# and save_market_caps hold caps this way, in file order.
CapColumns = Tuple[np.ndarray, Sequence[str], np.ndarray]


class CapIndex:
    """Daily market caps ranked once per snapshot date, the one place the
    cap filter and the benchmarks read a cap ranking from.

    Built from the columns of CapColumns in any order; a repeated (symbol,
    date) keeps its last cap. Every date's symbols are ranked by cap both
    ways, ties to the smaller name either way, by one sort per way over all
    dates, and only the rankings are held, as positions into the sorted
    distinct names. ``dates`` are the snapshot dates (datetime64[D],
    ascending). Build one per loaded universe.
    """

    def __init__(self, days: Iterable = (), symbols: Sequence[str] = (),
                 caps: Iterable = ()) -> None:
        days = np.asarray(days, dtype="datetime64[D]").astype(np.int64)
        caps = np.asarray(caps, dtype=np.float64)
        self._names = sorted(set(symbols))
        code = {name: k for k, name in enumerate(self._names)}
        sym = np.fromiter(map(code.__getitem__, symbols), np.intp, len(days))
        # Rows by (date, name), a repeat after its earlier rows: the last of
        # each run of one (date, name) is kept.
        keyed = np.lexsort((sym, days))
        days, sym = days[keyed], sym[keyed]
        kept = np.ones(len(keyed), dtype=bool)
        kept[:-1] = (days[1:] != days[:-1]) | (sym[1:] != sym[:-1])
        days, sym, caps = days[kept], sym[kept], caps[keyed[kept]]
        # Stable sorts by (date, cap rank) keep equal caps in name order; on
        # integer keys, in under half the time of an np.lexsort on the caps.
        _, rank = np.unique(caps, return_inverse=True)
        by_date = days * len(caps)
        self._ranked = {
            largest: sym[np.argsort(by_date - rank if largest else
                                    by_date + rank, kind="stable")]
            for largest in (True, False)}
        dates, starts = np.unique(days, return_index=True)
        self.dates = dates.astype("datetime64[D]")
        self._bounds = starts.tolist() + [len(days)]

    def ranking(self, month_start: int,
                largest: bool = True) -> Optional[List[str]]:
        """The symbols of the snapshot in force at month_start, largest cap
        first (smallest first when not ``largest``), ties to the smaller
        name either way; None without one. The snapshot in force is the
        latest dated on or before the day that ends at month_start: a
        rebalance at 00:00 UTC on a month's first day comes before that
        day's caps exist."""
        as_of = np.datetime64((int(month_start) - 1) // SECONDS_PER_DAY, "D")
        k = int(np.searchsorted(self.dates, as_of, side="right"))
        if not k:
            return None
        codes = self._ranked[largest][self._bounds[k - 1]:self._bounds[k]]
        return [self._names[c] for c in codes.tolist()]


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
# Files: one opener, one CSV reader, one writer, one atomic-rename primitive
# ---------------------------------------------------------------------------

@contextmanager
def opened(path: str, newline: Optional[str] = None) -> Iterator[TextIO]:
    """``path`` open for reading UTF-8 text; failing to open or decode it
    raises a DataError naming the path (and a bad byte's line and column)."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as whole:  # at its place in the file
            exc = whole
        lines = raw[:exc.start].decode("utf-8").split("\n")
        raise DataError(f"{path}: {exc}, at line {len(lines)}, column"
                        f" {len(lines[-1]) + 1}") from exc
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc


def read_csv(path: str, header: Sequence[str],
             parse_row: Callable[[List[str]], T]) -> List[T]:
    """Parse every non-blank row after an exact header with ``parse_row``.

    A wrong header, a wrong column count, or a ValueError (DataError included)
    raised by ``parse_row`` becomes a DataError naming the path and the line.
    """
    header = list(header)
    width = len(header)
    out: List[T] = []
    with opened(path, newline="") as fh:
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
        except UnicodeDecodeError:
            raise  # opened names the bad byte's own line
        except ValueError as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc
    return out


def atomic_write_text(path: str, chunks: Iterable[str]) -> None:
    """The package's one file writer: write the chunks of text in order, as
    UTF-8, to a per-process temp file, which is renamed over ``path`` once
    it is whole and removed on any failure, so readers never see a partial
    file and a writer need not hold the whole text. The directory of
    ``path`` is made if it is missing."""
    tmp = f"{path}.{os.getpid()}.tmp"
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
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
    """_cell of every value, an array's taken as Python objects (what
    tolist gives); a column of plain floats or plain ints (bools excluded)
    is formatted in one pass."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
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


WRITE_BLOCK_ROWS = 1024  # rows write_columns formats and writes at a time


def write_columns(path: str, header: Sequence[str],
                  columns: Sequence[Sequence[object]]) -> None:
    """Write the header and the rows these equal-length columns (arrays or
    sequences) make up to ``path`` as csv.writer writes them, each line
    ended by \\r\\n and every value formatted by _cell a column at a time.

    The rows are streamed through atomic_write_text WRITE_BLOCK_ROWS at a
    time, each block of an array column converted by one tolist, so the
    memory a write takes does not grow with its rows; the file still
    appears only when it is whole."""
    rows = min(map(len, columns), default=0)

    def blocks() -> Iterator[str]:
        yield _line([_cell(h) for h in header]) + "\r\n"
        for lo in range(0, rows, WRITE_BLOCK_ROWS):
            cells = [_column_cells(col[lo:lo + WRITE_BLOCK_ROWS])
                     for col in columns]
            yield "".join(_line(row) + "\r\n" for row in zip(*cells))

    atomic_write_text(path, blocks())


_OHLCV_DTYPE = np.dtype(list(zip(OHLCV_HEADER, ["i8"] + ["f8"] * 5)))
# Dates are read one character wider than YYYY-MM-DD, so that a longer
# field shows as one.
_CAP_DTYPE = np.dtype([("date", "U11"), ("symbol", "O"), ("cap", "f8")])


def _load_rows(path: str, header: Sequence[str], dtype: np.dtype) -> np.ndarray:
    """Rows after an exact header line, from one np.loadtxt call on the path
    (NumPy reads a path in chunks, a handle by lines). A header-only file
    gives no rows (loadtxt would warn); a bad field raises a ValueError."""
    with opened(path) as fh:
        if fh.readline().rstrip("\n") != ",".join(header):
            raise DataError(f"{path}: line 1: expected header {','.join(header)}")
        has_rows = any(chunk.strip("\n")
                       for chunk in iter(partial(fh.read, 1 << 16), ""))
    if not has_rows:
        return np.zeros(0, dtype=dtype)
    return np.loadtxt(path, dtype=dtype, delimiter=",", comments=None,
                      skiprows=1, ndmin=1, encoding="utf-8")


def load_price_series(path: str, interval: Optional[int] = DEFAULT_INTERVAL,
                      symbol: Optional[str] = None) -> PriceSeries:
    """Load one symbol's OHLCV CSV into a validated PriceSeries at ``interval``
    (None: the gcd of its steps, or the default interval without one).

    Rows may be out of order on disk; the returned series is sorted ascending
    (stably). Malformed rows, bar-invariant violations (non-finite values
    included) and duplicate timestamps are rejected with the offending line
    or timestamp named. NumPy's C parser reads the fields, so digit
    separators ("1_000"), quoted or non-ASCII numbers and timestamps outside
    int64, which int() and float() would take, are rejected too. The symbol
    defaults to the file name without ".csv", read as UTF-8 whatever the
    locale, as the rows of every file are; a name that is not UTF-8 is a
    DataError naming the file.
    """
    if symbol is None:
        stem = str(path).rsplit("/", 1)[-1]
        stem = stem[:-4] if stem.endswith(".csv") else stem
        try:  # the name's own bytes, whatever the file-system encoding
            symbol = os.fsencode(stem).decode("utf-8")
        except UnicodeError as exc:
            raise DataError(f"{path}: the file name is not UTF-8") from exc
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
    columns = [rows[name][order] for name in OHLCV_HEADER]
    del rows, order  # before validation's temporaries are allocated
    if interval is None:
        interval = step_gcd(columns[:1]) or DEFAULT_INTERVAL
    try:
        return PriceSeries(symbol, interval, *columns)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def step_gcd(timestamps: Iterable[np.ndarray]) -> int:
    """The gcd of the steps within every array (their bar interval), or 0."""
    return math.gcd(*(int(np.gcd.reduce(np.diff(ts))) for ts in timestamps))


def save_price_series(series: PriceSeries, path: str) -> None:
    """Write a series back to the OHLCV CSV schema (round-trips exactly)."""
    write_columns(path, OHLCV_HEADER, series.columns())


def _plain_caps(path: str) -> CapColumns:
    """_cap_columns' columnar path: one np.loadtxt call, then checks over
    whole columns. It takes only a plain file, valid with YYYY-MM-DD dates
    and no quotes, and raises ValueError for anything else, valid or not."""
    rows = _load_rows(path, MARKET_CAP_HEADER, _CAP_DTYPE)
    text, day_of_row = np.unique(rows["date"], return_inverse=True)
    caps = rows["cap"].copy()
    symbols = rows["symbol"].tolist()
    del rows  # and with it the fixed-width date strings
    names = set(symbols)
    chars = text.view("U1").reshape(-1, 11)
    digits = chars[:, [0, 1, 2, 3, 5, 6, 8, 9]]
    plain = (((digits >= "0") & (digits <= "9")).all()
             and (chars[:, [4, 7]] == "-").all() and (chars[:, 10] == "").all()
             and ((caps > 0) & (caps < INF)).all()
             and not any('"' in sym for sym in names))
    if not plain:
        raise ValueError("not a plain market-cap file")
    days = text.astype("datetime64[D]")  # a ValueError for a day out of range
    if not (days >= np.datetime64(date.min)).all():
        raise ValueError("year 0")
    code = dict(zip(names, range(len(names))))
    pairs = np.sort(day_of_row * len(names) + np.fromiter(
        map(code.__getitem__, symbols), np.intp, len(symbols)))
    if (pairs[1:] == pairs[:-1]).any():
        raise ValueError("duplicate (symbol, date) record")
    return days[day_of_row], symbols, caps


def _cap_columns(path: str) -> CapColumns:
    """The rows of a market-cap file as columns, in file order; rejects caps
    that are not positive and finite, and duplicate (symbol, date) records.

    A plain file is parsed in columns. Anything else, bad rows included, is
    read again row by row: that names the line of a bad row, and loads what
    only the CSV reader takes, such as quoted symbols.
    """
    try:
        return _plain_caps(path)
    except ValueError:
        pass
    seen = set()

    def parse(row: List[str]) -> Tuple[date, str, float]:
        day, sym, cap = date.fromisoformat(row[0]), row[1], float(row[2])
        if not 0 < cap < INF:
            raise DataError(f"cap must be positive and finite, got {cap}")
        if (sym, day) in seen:
            raise DataError(f"duplicate record for {sym} {day}")
        seen.add((sym, day))
        return day, sym, cap

    rows = read_csv(path, MARKET_CAP_HEADER, parse)
    days, symbols, caps = zip(*rows) if rows else ((), (), ())
    return (np.array(days, dtype="datetime64[D]"), list(symbols),
            np.array(caps, dtype=np.float64))


def load_market_caps(path: str) -> CapIndex:
    """The CapIndex of a market-cap file (see _cap_columns for what is
    rejected)."""
    return CapIndex(*_cap_columns(path))


def save_market_caps(caps: CapColumns, path: str) -> None:
    """Write cap columns to the market-cap CSV schema, row by row in their
    order (dates as YYYY-MM-DD, caps as their repr)."""
    days, symbols, values = caps
    write_columns(path, MARKET_CAP_HEADER,
                  [np.asarray(days, dtype="datetime64[D]").astype(str),
                   symbols, values])


# ---------------------------------------------------------------------------
# Synthetic universe
# ---------------------------------------------------------------------------

def generate_synthetic_universe(
    spec: SyntheticSpec,
) -> Tuple[List[PriceSeries], CapColumns]:
    """Generate a deterministic multi-symbol universe with daily market caps.

    Prices follow per-regime GBM: per-bar log returns are iid
    Normal(drift * dt, vol**2 * dt) with dt = interval / seconds_per_year.
    Symbol j draws from the j-th PCG64 stream spawned from SeedSequence(seed),
    so output is a pure function of the recipe. Symbol j's market cap on day d
    is (1e10 / (j + 1)) * last_close_of_day / base_price, which makes the cap
    ranking follow symbol index modulated by realized price paths. The caps
    are columns (CapColumns), symbol by symbol and day by day within one.
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

    series_list = []
    caps = []
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
        caps.append(SYNTH_BASE_CAP / (j + 1) * close[day_ends]
                    / SYNTH_BASE_PRICE)
    return series_list, (
        np.tile(days[day_ends].astype("datetime64[D]"), spec.n_symbols),
        [s.symbol for s in series_list for _ in day_ends],
        np.concatenate(caps))


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
