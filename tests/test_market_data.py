"""Data layer: bar validation, CSV IO, synthetic generation, resampling."""

import ast
import csv
import math
import os
import re
import string
import tracemalloc
import warnings
import weakref
from dataclasses import FrozenInstanceError, replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adaptivetrend.backtester import (EQUITY_HEADER, EquityCurve, load_equity,
                                      save_equity)
from adaptivetrend import market_data
from adaptivetrend.cost_model import (FUNDING_HEADER, FundingTable,
                                      load_funding_rates)
from adaptivetrend.market_data import (MARKET_CAP_HEADER, OHLCV_HEADER,
                                       CapIndex, DataError,
                                       PriceSeries, SyntheticSpec, bars_per_year,
                                       date_of_ts, generate_synthetic_universe,
                                       load_market_caps, load_price_series,
                                       month_add, month_floor, month_id,
                                       resample_series, save_market_caps,
                                       save_price_series, write_columns,
                                       WRITE_BLOCK_CELLS)
from adaptivetrend.signal_engine import LEDGER_HEADER, write_ledger
import scalar_reference
from scalar_reference import (Bar, MarketCapRecord, TradeRecord, as_ledger,
                              cap_columns, cap_records, funding_records,
                              read_ledger, series_bar)
from conftest import (INTERVAL, T0, bars_of, day_start, make_bars,
                      make_series, series_from_bars)


def test_bars_per_year():
    assert bars_per_year(21_600) == 1460.0
    assert bars_per_year(86_400) == 365.0
    assert bars_per_year(3_600) == 8760.0


def test_month_helpers():
    assert month_floor(1_643_673_600) == 1_643_673_600
    assert month_floor(1_644_000_000) == 1_643_673_600
    assert month_add(1_643_673_600, 1) == 1_646_092_800
    assert month_add(1_646_092_800, -1) == 1_643_673_600
    assert month_add(1_640_995_200, 12) == 1_672_531_200
    assert month_id(1_643_673_600) == "2022-02"
    assert date_of_ts(1_643_673_600) == date(2022, 2, 1)
    assert date_of_ts(1_643_673_599) == date(2022, 1, 31)


class TestBarValidation:
    def test_high_below_low_names_timestamp(self):
        bar = Bar(timestamp=T0, open=9.5, high=9.0, low=10.0, close=9.5, volume=1.0)
        with pytest.raises(DataError, match=str(T0)):
            series_from_bars("X", INTERVAL, (bar,))

    def test_close_outside_range_rejected(self):
        bar = Bar(timestamp=T0, open=10.0, high=11.0, low=9.0, close=12.0, volume=1.0)
        with pytest.raises(DataError):
            series_from_bars("X", INTERVAL, (bar,))

    def test_negative_volume_rejected(self):
        for volume in (-1.0, math.nan, math.inf):
            bar = Bar(timestamp=T0, open=10.0, high=11.0, low=9.0, close=10.0,
                      volume=volume)
            with pytest.raises(DataError, match=str(T0)):
                series_from_bars("X", INTERVAL, (bar,))

    def test_nonpositive_price_rejected(self):
        bar = Bar(timestamp=T0, open=0.0, high=1.0, low=0.0, close=1.0, volume=1.0)
        with pytest.raises(DataError):
            series_from_bars("X", INTERVAL, (bar,))
        # Non-finite prices pass every OHLC ordering check (comparisons with
        # NaN are false), so the positive-and-finite rule must catch them.
        ok = Bar(timestamp=T0, open=10.0, high=11.0, low=9.0, close=10.0,
                 volume=1.0)
        for bad in (dict(high=math.inf), dict(open=math.inf, high=math.inf,
                                              close=math.inf),
                    dict(open=math.nan), dict(low=math.nan),
                    dict(close=math.nan), dict(high=math.nan)):
            with pytest.raises(DataError, match=str(T0)):
                series_from_bars("X", INTERVAL, (ok._replace(**bad),))

    def test_duplicate_timestamp_rejected(self):
        s = make_series([100.0, 101.0])
        dup = bars_of(s)[:1] * 2
        with pytest.raises(DataError):
            series_from_bars("X", INTERVAL, dup)

    def test_gap_must_be_interval_multiple(self):
        good = make_series([100.0, 101.0, 102.0])
        first = bars_of(good)[0]
        bars = (first, Bar(timestamp=first.timestamp + INTERVAL + 1, open=100.0,
                           high=101.0, low=99.0, close=100.0, volume=1.0))
        with pytest.raises(DataError):
            series_from_bars("X", INTERVAL, bars)

    def test_missing_bars_recorded_as_gaps(self):
        b1 = Bar(timestamp=T0 + INTERVAL, open=100.0, high=101.0, low=99.0,
                 close=100.0, volume=1.0)
        b2 = Bar(timestamp=T0 + 3 * INTERVAL, open=100.0, high=101.0, low=99.0,
                 close=100.0, volume=1.0)
        s = series_from_bars("X", INTERVAL, (b1, b2))
        # The gap stays a step of two intervals: no bar is filled in.
        assert s.timestamps.tolist() == [b1.timestamp, b2.timestamp]


class TestPriceCsv:
    def test_round_trip_bit_identical(self, tmp_path, rng):
        closes = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(50)))
        s = make_series(list(closes), symbol="BTC")
        p1 = tmp_path / "BTC.csv"
        save_price_series(s, str(p1))
        loaded = load_price_series(str(p1), interval=INTERVAL)
        assert loaded.symbol == "BTC"
        assert bars_of(loaded) == bars_of(s)
        p2 = tmp_path / "again.csv"
        save_price_series(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_three_row_file_loads(self, tmp_path):
        p = tmp_path / "AAA.csv"
        p.write_text("timestamp,open,high,low,close,volume\n"
                     f"{T0 + INTERVAL},10,11,9,10.5,100\n"
                     f"{T0 + 2 * INTERVAL},10.5,12,10,11,120\n"
                     f"{T0 + 3 * INTERVAL},11,11.5,10.5,11.2,90\n")
        s = load_price_series(str(p), interval=INTERVAL)
        assert len(s) == 3
        assert s.close[2] == 11.2

    def test_out_of_order_rows_sorted(self, tmp_path):
        p = tmp_path / "AAA.csv"
        p.write_text("timestamp,open,high,low,close,volume\n"
                     f"{T0 + 2 * INTERVAL},10.5,12,10,11,120\n"
                     f"{T0 + INTERVAL},10,11,9,10.5,100\n")
        s = load_price_series(str(p), interval=INTERVAL)
        assert s.timestamps.tolist() == [T0 + INTERVAL, T0 + 2 * INTERVAL]

    def test_bad_row_error_names_line(self, tmp_path):
        p = tmp_path / "AAA.csv"
        p.write_text("timestamp,open,high,low,close,volume\n"
                     f"{T0 + INTERVAL},10,11,9,10.5,100\n"
                     "not-a-timestamp,1,2,0.5,1,10\n")
        with pytest.raises(DataError, match="line 3"):
            load_price_series(str(p), interval=INTERVAL)

    def test_invalid_bar_error_names_timestamp(self, tmp_path):
        p = tmp_path / "AAA.csv"
        ts = T0 + INTERVAL
        for row in ("10,9,10,9.5,100", "10,11,9,10.5,nan", "10,inf,9,10.5,100",
                    "inf,inf,9,inf,100", "10,11,9,NaN,100"):
            p.write_text(f"timestamp,open,high,low,close,volume\n{ts},{row}\n")
            with pytest.raises(DataError, match=f"AAA.csv: bar {ts}"):
                load_price_series(str(p), interval=INTERVAL)

    def test_files_on_one_clock_share_one_timestamp_array(self, tmp_path):
        rows = [f"{T0 + k * INTERVAL},10,11,9,10.5,100" for k in (1, 2, 3)]
        clocks = {"A": rows, "B": rows, "SHUFFLED": rows[::-1],
                  "OTHER": rows[:2] + [f"{T0 + 4 * INTERVAL},10,11,9,10.5,100"]}
        loaded = {}
        for name, lines in clocks.items():
            p = tmp_path / f"{name}.csv"
            p.write_text("\n".join([",".join(OHLCV_HEADER)] + lines) + "\n")
            loaded[name] = load_price_series(str(p), interval=INTERVAL)
        clock = loaded["A"].timestamps
        assert loaded["B"].timestamps is clock
        assert loaded["SHUFFLED"].timestamps is clock
        assert loaded["OTHER"].timestamps is not clock
        assert loaded["OTHER"].timestamps.tolist() == [
            T0 + INTERVAL, T0 + 2 * INTERVAL, T0 + 4 * INTERVAL]
        with pytest.raises(ValueError, match="read-only"):
            clock[0] = 0

    def test_symbol_from_filename(self, tmp_path):
        p = tmp_path / "ETH.csv"
        p.write_text("timestamp,open,high,low,close,volume\n"
                     f"{T0 + INTERVAL},10,11,9,10.5,100\n")
        assert load_price_series(str(p)).symbol == "ETH"


class TestCapsCsv:
    def test_two_by_two(self, tmp_path):
        p = tmp_path / "market_caps.csv"
        p.write_text("date,symbol,market_cap_usd\n"
                     "2022-01-01,BTC,9e11\n2022-01-01,ETH,4e11\n"
                     "2022-01-02,BTC,9.1e11\n2022-01-02,ETH,4.1e11\n")
        records = cap_records(market_data._cap_columns(str(p)))
        assert len(records) == 4
        assert {r.symbol for r in records} == {"BTC", "ETH"}
        assert records[0].date == date(2022, 1, 1)
        index = load_market_caps(str(p))
        assert index.dates.tolist() == [date(2022, 1, 1), date(2022, 1, 2)]
        assert index.ranking(day_after(date(2022, 1, 2)),
                             largest=False) == ["ETH", "BTC"]

    def test_zero_cap_rejected(self, tmp_path):
        p = tmp_path / "market_caps.csv"
        for cap in ("0", "-1e9", "inf", "nan"):
            p.write_text(f"date,symbol,market_cap_usd\n2022-01-01,BTC,{cap}\n")
            with pytest.raises(DataError, match="market_caps.csv: line 2"):
                load_market_caps(str(p))

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "market_caps.csv"
        p.write_text("date,symbol,market_cap_usd\n"
                     "2022-01-01,BTC,9e11\n2022-01-01,BTC,9e11\n")
        with pytest.raises(DataError, match="BTC"):
            load_market_caps(str(p))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_index_rejects_a_repeat_in_either_order(self, reverse):
        rows = [("2022-01-01", "BTC", 9e11), ("2022-01-01", "ETH", 4e11),
                ("2022-01-02", "BTC", 9.1e11), ("2022-01-01", "BTC", 8e11)]
        days, symbols, caps = zip(*(rows[::-1] if reverse else rows))
        with pytest.raises(DataError,
                           match="^duplicate record for BTC 2022-01-01$"):
            CapIndex(np.array(days, dtype="datetime64[D]"), list(symbols),
                     np.array(caps))

    def test_loader_names_the_line_of_a_repeat_the_index_finds(self,
                                                                tmp_path):
        # The columnar pass takes the file; the index finds the repeat, and
        # the row parser names its line.
        p = tmp_path / "market_caps.csv"
        p.write_text("date,symbol,market_cap_usd\n2022-01-01,BTC,9e11\n"
                     "2022-01-02,ETH,4e11\n2022-01-01,BTC,8e11\n")
        assert len(market_data._plain_caps(str(p))[1]) == 3
        with pytest.raises(DataError, match="^.*market_caps.csv: line 4:"
                           " duplicate record for BTC 2022-01-01$"):
            load_market_caps(str(p))

    def test_round_trip(self, tmp_path):
        records = [MarketCapRecord(symbol="BTC", date=date(2022, 1, 1), cap=9e11),
                   MarketCapRecord(symbol="ETH", date=date(2022, 1, 2), cap=4e11)]
        p = tmp_path / "caps.csv"
        save_market_caps(cap_columns(records), str(p))
        assert cap_records(market_data._cap_columns(str(p))) == records


class TestSyntheticGenerator:
    def test_same_seed_bit_identical(self):
        spec = SyntheticSpec(seed=42, n_symbols=3,
                             regimes=((40, 0.3, 0.5),), interval=INTERVAL, start=T0)
        a_series, a_caps = generate_synthetic_universe(spec)
        b_series, b_caps = generate_synthetic_universe(spec)
        assert cap_records(a_caps) == cap_records(b_caps)
        for sa, sb in zip(a_series, b_series):
            assert bars_of(sa) == bars_of(sb)

    def test_frozen_reference_values(self):
        # Pinned output of the documented RNG scheme; a change here means the
        # generator's bit stream moved and every seeded fixture shifts.
        spec = SyntheticSpec(seed=7, n_symbols=2,
                             regimes=((6, 0.5, 0.6),), interval=INTERVAL, start=T0)
        series, caps = generate_synthetic_universe(spec)
        caps = cap_records(caps)
        assert series[0].symbol == "SYM00"
        assert series[0].close[0] == 99.04941559280921
        assert series[0].close[1] == 101.38925804907446
        assert series[1].close[0] == 102.26080386119287
        assert series[0].volume[0] == 717411.7531411527
        assert len(caps) == 4

    def test_symbol_independent_of_universe_size(self):
        small = SyntheticSpec(seed=9, n_symbols=1,
                              regimes=((20, 0.2, 0.4),), interval=INTERVAL, start=T0)
        big = SyntheticSpec(seed=9, n_symbols=5,
                            regimes=((20, 0.2, 0.4),), interval=INTERVAL, start=T0)
        (s1,), _ = generate_synthetic_universe(small)
        sb, _ = generate_synthetic_universe(big)
        assert bars_of(s1) == bars_of(sb[0])

    def test_tiny_vol_returns_near_drift(self):
        spec = SyntheticSpec(seed=5, n_symbols=1,
                             regimes=((200, 0.5, 1e-8),), interval=INTERVAL, start=T0)
        (s,), _ = generate_synthetic_universe(spec)
        closes = s.close
        per_bar = np.diff(closes) / closes[:-1]
        expected = 0.5 * (INTERVAL / 31_536_000.0)
        assert np.allclose(per_bar, expected, rtol=1e-3)

    def test_drift_statistics_within_three_stderr(self):
        mu, vol, n = 0.5, 0.2, 100_000
        spec = SyntheticSpec(seed=3, n_symbols=1,
                             regimes=((n, mu, vol),), interval=INTERVAL, start=T0)
        (s,), _ = generate_synthetic_universe(spec)
        closes = s.close
        logret = np.diff(np.log(closes))
        bpy = bars_per_year(INTERVAL)
        ann_mean = float(np.mean(logret)) * bpy
        target = mu - 0.5 * vol * vol
        stderr = vol / math.sqrt(len(logret) / bpy)
        assert abs(ann_mean - target) < 3 * stderr

    def test_bars_and_caps_shapes(self):
        spec = SyntheticSpec(seed=1, n_symbols=3,
                             regimes=((8, 0.1, 0.3),), interval=INTERVAL, start=T0)
        series, caps = generate_synthetic_universe(spec)
        caps = cap_records(caps)
        assert [s.symbol for s in series] == ["SYM00", "SYM01", "SYM02"]
        for s in series:
            assert s.timestamps.tolist() == \
                [T0 + (i + 1) * INTERVAL for i in range(8)]
        # 8 six-hour bars span two calendar days
        assert len(caps) == 6
        # A bar belongs to the day containing (ts - 1, ts]; the day's cap
        # follows its last close.
        closes = series[0].close
        assert [(r.date, r.cap) for r in caps if r.symbol == "SYM00"] == [
            (date(2022, 1, 1), 1e10 * closes[3] / 100.0),
            (date(2022, 1, 2), 1e10 * closes[7] / 100.0)]

    def test_n_bars_is_the_schedules_sum(self):
        spec = SyntheticSpec(seed=1, n_symbols=1,
                             regimes=((4, 0.1, 0.3), (6, -0.2, 0.5)))
        assert spec.n_bars == 10
        (s,), _ = generate_synthetic_universe(spec)
        assert len(s) == 10
        with pytest.raises(DataError, match="regime schedule must not be empty"):
            SyntheticSpec(seed=1, n_symbols=1, regimes=())

    @pytest.mark.parametrize("interval", [0, -5])
    def test_interval_must_be_positive(self, interval):
        with pytest.raises(DataError, match="interval must be > 0"):
            SyntheticSpec(seed=1, n_symbols=1,
                          regimes=((4, 0.1, 0.3),), interval=interval, start=T0)


class TestResample:
    def test_hourly_to_six_hour_aggregation(self, rng):
        closes = list(100.0 + np.cumsum(rng.standard_normal(24)))
        s = make_series(closes, interval=3600, t0=T0)
        r = resample_series(s, 21_600)
        assert r.interval == 21_600
        assert len(r) == 4
        for k, bar in enumerate(bars_of(r)):
            chunk = bars_of(s)[6 * k:6 * (k + 1)]
            assert bar.timestamp == chunk[-1].timestamp
            assert bar.open == chunk[0].open
            assert bar.close == chunk[-1].close
            assert bar.high == max(b.high for b in chunk)
            assert bar.low == min(b.low for b in chunk)
            assert bar.volume == pytest.approx(sum(b.volume for b in chunk))

    def test_incomplete_trailing_bucket_dropped(self, rng):
        closes = list(100.0 + np.cumsum(rng.standard_normal(10)))
        s = make_series(closes, interval=3600, t0=T0)
        r = resample_series(s, 21_600)
        assert len(r) == 1

    def test_identity_when_same_interval(self, rng):
        s = make_series([100.0, 101.0, 102.0])
        assert resample_series(s, INTERVAL) is s

    def test_non_multiple_target_rejected(self):
        s = make_series([100.0, 101.0])
        with pytest.raises(ValueError):
            resample_series(s, INTERVAL + 1)


def test_slice_indices_inclusive_window():
    s = make_series([100.0, 101.0, 102.0, 103.0, 104.0])
    ts = s.timestamps.tolist()
    i0, i1 = s.slice_indices(ts[1], ts[3])
    assert (i0, i1) == (1, 4)
    i0, i1 = s.slice_indices(ts[1] + 1, ts[3] - 1)
    assert (i0, i1) == (2, 3)
    i0, i1 = s.slice_indices(ts[-1] + 1, ts[-1] + 2)
    assert i0 == i1


def test_arrays_view_matches_bars():
    bars = make_bars([100.0, 101.0, 99.5])
    s = series_from_bars("X", INTERVAL, bars)
    assert list(s.close) == [100.0, 101.0, 99.5]
    assert s.timestamps.dtype == np.int64 and s.close.dtype == np.float64
    assert bars_of(s) == bars and series_bar(s, 1) == bars[1]
    assert [type(x) for x in series_bar(s, 0)] == [int] + [float] * 5
    with pytest.raises(ValueError, match="read-only"):
        s.close[0] = 1.0


def test_series_is_an_identity_key():
    # The ATR and trade-search memos are keyed weakly by the series.
    s = make_series([100.0, 101.0, 99.5])
    twin = PriceSeries(s.symbol, s.interval, *s.columns())
    assert s != twin and len({s, twin}) == 2
    assert weakref.ref(s)() is s
    with pytest.raises(FrozenInstanceError):
        s.close = twin.close


# ---------------------------------------------------------------------------
# The shared CSV reader and writer behind every loader and saver
# ---------------------------------------------------------------------------

# kind -> (reader, header, one valid data row, index of a numeric column)
CSV_READERS = {
    "ohlcv": (load_price_series, OHLCV_HEADER,
              f"{T0 + INTERVAL},10,11,9,10.5,100", 2),
    "caps": (load_market_caps, MARKET_CAP_HEADER, "2022-01-01,BTC,9e11", 2),
    "funding": (load_funding_rates, FUNDING_HEADER, f"{T0},BTC,0.0001", 2),
    "ledger": (read_ledger, LEDGER_HEADER,
               f"BTC,long,{T0},100.0,{T0 + INTERVAL},110.0,1000.0,100.0,"
               "0.5,0.25,0.25,99.0,0", 3),
    "equity": (load_equity, EQUITY_HEADER, f"{T0},100000.0", 1),
}


def _plain(loaded):
    """Loaded value in a form that compares with ==."""
    if isinstance(loaded, EquityCurve):
        return (loaded.timestamps.tolist(), loaded.balances.tolist(),
                loaded.bankrupt)
    if isinstance(loaded, PriceSeries):
        return loaded.symbol, loaded.interval, bars_of(loaded)
    if isinstance(loaded, CapIndex):
        return ranked_snapshots(loaded)
    if isinstance(loaded, FundingTable):
        return funding_records(loaded)
    return loaded


@pytest.mark.parametrize("kind", sorted(CSV_READERS))
def test_reader_framing_errors_name_path_and_line(kind, tmp_path):
    read, header, good, numeric = CSV_READERS[kind]
    head = ",".join(header)
    fields = good.split(",")
    fields[numeric] = "x1"
    p = tmp_path / f"{kind}.csv"
    for text, line in ((",".join(reversed(header)) + f"\n{good}\n", 1),
                       (f"{head}\n\n{good},extra\n", 3),
                       (f"{head}\n\n{','.join(fields)}\n", 3)):
        p.write_text(text)
        with pytest.raises(DataError, match=re.escape(f"{p}: line {line}: ")):
            read(str(p))
    p.write_text(f"{head}\n{good}\n")
    expected = _plain(read(str(p)))
    p.write_text(f"{head}\n\n{good}\n\n")
    assert _plain(read(str(p))) == expected


# kind -> row k of a long file, each row a record of its own
LONG_ROWS = {
    "ohlcv": lambda k: f"{T0 + k * INTERVAL},10,11,9,10.5,100",
    "caps": lambda k: f"{date(2015, 1, 1) + timedelta(k)},BTC,9e11",
    "funding": lambda k: f"{T0 + k * 3_600},BTC,0.0001",
}


@pytest.mark.parametrize("kind", sorted(LONG_ROWS))
def test_non_utf8_byte_is_named_at_its_line_and_column(kind, tmp_path):
    # Text is decoded in chunks of about 8 KB, and the decoder knows only
    # its place in the chunk; the error names the byte's place in the file.
    read, header = CSV_READERS[kind][:2]
    rows = [",".join(header)] + [LONG_ROWS[kind](k) for k in range(3_000)]
    rows[2_501] = rows[2_501][:4] + "\udcff" + rows[2_501][4:]
    p = tmp_path / f"{kind}.csv"
    p.write_bytes("\n".join(rows).encode("utf-8", "surrogateescape"))
    offset = len("\n".join(rows[:2_501])) + 1 + 4
    with pytest.raises(DataError, match=re.escape(
            f"{p}: 'utf-8' codec can't decode byte 0xff in position {offset}:"
            " invalid start byte, at line 2502, column 5") + "$"):
        read(str(p))


def test_write_csv_failure_keeps_target(tmp_path):
    # A lone surrogate cannot be encoded, so the write fails after the
    # temporary file is opened: it is removed and the target is kept.
    target = tmp_path / "equity.csv"
    target.write_bytes(b"timestamp,balance\r\n1,2.0\r\n")
    with pytest.raises(UnicodeEncodeError):
        write_columns(str(target), EQUITY_HEADER, [[3, 5], [4.0, "\ud800"]])
    assert target.read_bytes() == b"timestamp,balance\r\n1,2.0\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["equity.csv"]


def test_write_csv_cells(tmp_path):
    p = tmp_path / "cells.csv"
    write_columns(str(p), ["a", "b", "c", "d"],
                  [[None, 3], [0.1, -0.0], [np.float64(1e-300), 2.5],
                   ["x,y", ""]])
    assert p.read_bytes() == (b'a,b,c,d\r\n,0.1,1e-300,"x,y"\r\n'
                              b"3,-0.0,2.5,\r\n")


@pytest.mark.parametrize("rows", [100_000, 200_000])
def test_write_columns_memory_does_not_grow_with_rows(tmp_path, rows):
    # Two array columns, as save_equity passes them: the rows are formatted
    # and written a block at a time, so the traced peak stays below 2 MB
    # for a 2.7 or 5.5 MB file (the whole file's strings took about 62 MB).
    timestamps = T0 + INTERVAL * np.arange(rows, dtype=np.int64)
    balances = 1e5 * np.exp(np.linspace(0.0, 1.0, rows))
    path = tmp_path / "equity.csv"
    tracemalloc.start()
    try:
        write_columns(str(path), EQUITY_HEADER, [timestamps, balances])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 25 * rows
    assert peak < 2_000_000, peak


@pytest.mark.parametrize("width", [13, 40])
def test_write_columns_memory_does_not_grow_with_columns(tmp_path, width):
    # A block holds WRITE_BLOCK_CELLS cells however many columns make up a
    # row: writing 4,096 rows of 13 or 40 float columns traces under 400 kB
    # (blocks of 1,024 rows traced about 2.1 and 6.3 MB).
    rng = np.random.default_rng(width)
    columns = [rng.normal(size=4096) for _ in range(width)]
    tracemalloc.start()
    try:
        write_columns(str(tmp_path / "wide.csv"),
                      [f"c{i}" for i in range(width)], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400_000, peak


PACKAGE_SOURCES = os.path.dirname(market_data.__file__)


def test_every_file_is_written_by_the_one_writer():
    """Every text-mode open in the package reads or writes UTF-8 whatever
    the locale, and only atomic_write_text opens a file for writing or
    renames one, so every file the package writes, synth's included,
    appears whole or not at all."""
    breaches = []
    for name in sorted(os.listdir(PACKAGE_SOURCES)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE_SOURCES, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        owner = {child: node for node in ast.walk(tree)
                 for child in ast.iter_child_nodes(node)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            functions, node = set(), call
            while node in owner:
                node = owner[node]
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.add(node.name)
            where = f"{name}:{call.lineno}"
            func = call.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = (call.args[1] if len(call.args) > 1 else
                        next((k.value for k in call.keywords
                              if k.arg == "mode"), ast.Constant("r")))
                if not isinstance(mode, ast.Constant):
                    breaches.append(f"{where}: open with a computed mode")
                    continue
                encoding = (call.args[3] if len(call.args) > 3 else
                            next((k.value for k in call.keywords
                                  if k.arg == "encoding"), None))
                if "b" not in mode.value and not (
                        isinstance(encoding, ast.Constant)
                        and encoding.value == "utf-8"):
                    breaches.append(f"{where}: text open without utf-8")
                if (set(mode.value) & set("wax+")
                        and "atomic_write_text" not in functions):
                    breaches.append(f"{where}: open for writing")
            elif isinstance(func, ast.Attribute) and (
                    (isinstance(func.value, ast.Name) and func.value.id == "os"
                     and func.attr in ("replace", "rename"))
                    or func.attr in ("write_text", "write_bytes", "savetxt",
                                     "tofile")):
                if "atomic_write_text" not in functions:
                    breaches.append(f"{where}: {func.attr}")
    assert breaches == []


def test_symbol_of_a_file_name_that_is_not_utf8_is_named(tmp_path):
    path = tmp_path / os.fsdecode(b"SYM\xff.csv")
    path.write_bytes(b"timestamp,open,high,low,close,volume\n")
    with pytest.raises(DataError, match=re.escape(
            f"{path}: the file name is not UTF-8") + "$"):
        load_price_series(str(path))


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
AMOUNT = st.floats(min_value=-1e12, max_value=1e12)
TIMESTAMP = st.integers(min_value=0, max_value=2**40)
SYMBOL = st.text(alphabet=string.ascii_letters + string.digits + ',"- ',
                 max_size=6)
ROUND_TRIP = settings(max_examples=40, deadline=None)


@st.composite
def price_series(draw):
    bars, ts = [], T0
    for step in draw(st.lists(st.integers(1, 3), max_size=8)):
        ts += step * INTERVAL
        low, a, b, high = sorted(draw(st.lists(POSITIVE, min_size=4,
                                               max_size=4)))
        o, c = draw(st.permutations([a, b]))
        volume = draw(st.floats(min_value=0.0, allow_infinity=False))
        bars.append(Bar(ts, o, high, low, c, volume))
    return series_from_bars("RT", INTERVAL, bars)


@st.composite
def trade(draw):
    entry_ts = draw(TIMESTAMP)
    gross, fee, slip, funding = (draw(AMOUNT) for _ in range(4))
    return TradeRecord(
        symbol=draw(SYMBOL), side=draw(st.sampled_from(["long", "short"])),
        entry_ts=entry_ts, entry_px=draw(POSITIVE),
        exit_ts=entry_ts + draw(st.integers(1, 10**6)), exit_px=draw(POSITIVE),
        size=draw(POSITIVE), gross_pnl=gross, fee_cost=fee,
        slippage_cost=slip, funding_cost=funding,
        net_pnl=gross - fee - slip - funding, forced=draw(st.booleans()))


class TestCsvRoundTrip:
    @ROUND_TRIP
    @given(series=price_series())
    def test_price_series(self, tmp_path_factory, series):
        p = tmp_path_factory.mktemp("rt") / "RT.csv"
        save_price_series(series, str(p))
        assert _plain(load_price_series(str(p), interval=INTERVAL)) == \
            _plain(series)

    @ROUND_TRIP
    @given(records=st.lists(
        st.builds(MarketCapRecord, symbol=SYMBOL, date=st.dates(), cap=POSITIVE),
        unique_by=lambda r: (r.symbol, r.date), max_size=8))
    def test_market_caps(self, tmp_path_factory, records):
        p = tmp_path_factory.mktemp("rt") / "caps.csv"
        save_market_caps(cap_columns(records), str(p))
        assert cap_records(market_data._cap_columns(str(p))) == records

    @ROUND_TRIP
    @given(rows=st.lists(st.tuples(TIMESTAMP, SYMBOL,
                                   st.floats(min_value=-1.0, max_value=1.0)),
                         unique_by=lambda r: (r[0], r[1]), max_size=8))
    def test_funding_rates(self, tmp_path_factory, rows):
        p = tmp_path_factory.mktemp("rt") / "funding_rates.csv"
        write_columns(str(p), FUNDING_HEADER, list(zip(*rows)))
        expected = {}
        for ts, sym, rate in rows:
            expected.setdefault(sym, []).append((ts, rate))
        assert funding_records(load_funding_rates(str(p))) == {
            sym: sorted(v) for sym, v in expected.items()}

    @ROUND_TRIP
    @given(trades=st.lists(trade(), max_size=6))
    def test_ledger(self, tmp_path_factory, trades):
        p = tmp_path_factory.mktemp("rt") / "ledger.csv"
        write_ledger(as_ledger(trades), str(p))
        assert read_ledger(str(p)) == trades

    @ROUND_TRIP
    @given(points=st.lists(st.tuples(TIMESTAMP, AMOUNT), max_size=10))
    def test_equity(self, tmp_path_factory, points):
        curve = EquityCurve(
            timestamps=np.array([t for t, _ in points], dtype=np.int64),
            balances=np.array([b for _, b in points], dtype=np.float64))
        p = tmp_path_factory.mktemp("rt") / "equity.csv"
        save_equity(curve, str(p))
        loaded = load_equity(str(p))
        assert loaded.timestamps.dtype == np.int64
        assert _plain(loaded) == _plain(curve)


# ---------------------------------------------------------------------------
# The columnar loader, validator and resampler against the row-by-row ones
# ---------------------------------------------------------------------------

PRICE = st.floats(min_value=1e-3, max_value=1e6)
VOLUME = st.one_of(st.floats(min_value=0.0, max_value=1e9), st.just(-0.0))
BAD_FLOAT = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
# Fields that break a rule (or the parse) of both loaders in the same way.
ODD_FIELD = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                             "1e400", "0", "-0.0", "-1.5", "x1", "", "1.0",
                             " 7.25", "+3.5 ", "\t2", "1#2"])


@st.composite
def ohlcv_line(draw):
    ts = (T0 + draw(st.integers(0, 12)) * INTERVAL
          + draw(st.sampled_from([0] * 8 + [1, -7])))
    low, a, b, high = sorted(draw(st.lists(PRICE, min_size=4, max_size=4)))
    o, c = draw(st.permutations([a, b]))
    fields = [str(ts)] + [repr(x) for x in (o, high, low, c, draw(VOLUME))]
    edit = draw(st.sampled_from(["none"] * 6 + ["odd", "swap", "extra",
                                                "short", "filler"]))
    if edit == "odd":
        fields[draw(st.integers(0, 5))] = draw(ODD_FIELD)
    elif edit == "swap":  # breaks one of the OHLC orderings
        i, j = draw(st.permutations([1, 2, 3, 4]))[:2]
        fields[i], fields[j] = fields[j], fields[i]
    elif edit == "extra":
        fields.append("1")
    elif edit == "short":
        fields.pop()
    elif edit == "filler":
        return draw(st.sampled_from(["", " ", "\t", "# note"]))
    return ",".join(fields)


def _loaded(load):
    """Columns (dtype and bytes) of a load, or its DataError message."""
    try:
        columns = load()
    except DataError as exc:
        return "error", str(exc)
    return [(c.dtype.str, c.tobytes()) for c in columns]


class TestColumnarLoaderMatchesScalar:
    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(ohlcv_line(), max_size=10),
           newline=st.sampled_from(["\n", "\r\n"]),
           final_newline=st.booleans())
    def test_same_arrays_or_same_error(self, tmp_path_factory, lines, newline,
                                       final_newline):
        p = tmp_path_factory.mktemp("ld") / "SYM.csv"
        text = newline.join([",".join(OHLCV_HEADER)] + lines)
        p.write_bytes((text + newline * final_newline).encode())

        def columnar():
            return load_price_series(str(p), interval=INTERVAL).columns()

        def scalar():
            return scalar_reference.columns(
                scalar_reference.load_price_series(str(p), INTERVAL, "SYM"))

        assert _loaded(columnar) == _loaded(scalar)

    def test_header_only_file_is_empty(self, tmp_path):
        p = tmp_path / "SYM.csv"
        for body in ("", "\n", "\r\n\r\n"):
            p.write_text(",".join(OHLCV_HEADER) + body)
            s = load_price_series(str(p), interval=INTERVAL)
            assert len(s) == 0
            assert s.timestamps.dtype == np.int64
            assert s.close.dtype == np.float64

    @pytest.mark.parametrize("row", [
        f"{T0}_0,10,11,9,10.5,100",
        f"{T0},1_0,11,9,10.5,100",
        f'{T0},"10",11,9,10.5,100',
        f"{T0},10,11,9,10.5,\u0661\u0660\u0660",  # Arabic-Indic 100
    ], ids=["separator-timestamp", "separator-price", "quoted", "non-ascii"])
    def test_stricter_than_float_and_int(self, tmp_path, row):
        # int() and float() accept these fields (csv strips the quotes); the
        # C parser does not, and the error names the file and the field.
        p = tmp_path / "SYM.csv"
        p.write_text(f"{','.join(OHLCV_HEADER)}\n{row}\n")
        assert scalar_reference.load_price_series(str(p), INTERVAL, "SYM")
        with pytest.raises(DataError, match=rf"{re.escape(str(p))}: could not"
                                            " convert string"):
            load_price_series(str(p), interval=INTERVAL)

    def test_quoted_header_rejected(self, tmp_path):
        p = tmp_path / "SYM.csv"
        p.write_text(",".join(f'"{h}"' for h in OHLCV_HEADER)
                     + f"\n{T0},10,11,9,10.5,100\n")
        assert scalar_reference.load_price_series(str(p), INTERVAL, "SYM")
        with pytest.raises(DataError, match="line 1: expected header"):
            load_price_series(str(p), interval=INTERVAL)

    def test_timestamp_beyond_int64_rejected(self, tmp_path):
        p = tmp_path / "SYM.csv"
        p.write_text(f"{','.join(OHLCV_HEADER)}\n{2**63},10,11,9,10.5,100\n")
        with pytest.raises(DataError, match="could not convert string"):
            load_price_series(str(p), interval=INTERVAL)

    @settings(max_examples=200, deadline=None)
    @given(bars=st.lists(st.tuples(
               st.integers(-2, 3), st.lists(PRICE, min_size=5, max_size=5),
               st.lists(st.tuples(st.integers(0, 4), BAD_FLOAT), max_size=1)),
               max_size=8),
           interval=st.sampled_from([INTERVAL] * 8 + [0, -1]))
    def test_validator_same_error_as_scalar(self, bars, interval):
        # Constructed series may be unsorted, and unordered prices often
        # break several OHLC rules at once.
        series_bars, ts = [], T0
        for step, fields, bad in bars:
            ts += step * INTERVAL // 2
            for k, value in bad:
                fields[k] = value
            series_bars.append(Bar(ts, *fields))

        def columnar():
            return series_from_bars("SYM", interval, series_bars).columns()

        def scalar():
            scalar_reference.check_bars("SYM", interval, series_bars)
            return scalar_reference.columns(series_bars)

        assert _loaded(columnar) == _loaded(scalar)


# A mix of plain symbols, which the columnar path reads, and symbols that
# csv.writer quotes, which only the row parser reads.
CAP_SYMBOL = st.one_of(st.sampled_from(["BTC", "ETH", "SOL", "a b", "",
                                        "B\0TC"]), SYMBOL)
# Fields that both cap loaders must read alike: dates that only
# date.fromisoformat takes or that neither does, and caps that break a rule
# or the parse.
ODD_CAP_FIELD = {
    0: st.sampled_from(["2022-02-30", "2022-1-1", "20220101", "0000-01-01",
                        "10000-01-01", "2022-01-01T00", " 2022-01-01", "NaT",
                        "", "x", "2022-01-01\0"]),
    2: st.sampled_from(["0", "-0.0", "-1e9", "inf", "-inf", "nan", "1e400",
                        "x1", "", "1_000", "\u0661", " 5", "5e-324"]),
}


@st.composite
def caps_rows(draw):
    """Rows of a market-cap file in file order, dates out of order and
    several symbols to a date, with at most one edit."""
    records = draw(st.lists(
        st.tuples(st.dates(date(2021, 12, 30), date(2022, 1, 2)), CAP_SYMBOL,
                  POSITIVE),
        unique_by=lambda r: (r[0], r[1]), max_size=12))
    rows = [[day.isoformat(), sym, repr(cap)] for day, sym, cap in records]
    edit = draw(st.sampled_from(["none"] * 4 + ["odd", "duplicate", "extra",
                                                "short", "blank"]))
    if rows and edit != "none":
        k = draw(st.integers(0, len(rows) - 1))
        if edit == "odd":
            col = draw(st.sampled_from(sorted(ODD_CAP_FIELD)))
            rows[k][col] = draw(ODD_CAP_FIELD[col])
        elif edit == "duplicate":  # a later row repeats (date, symbol)
            rows.insert(draw(st.integers(k + 1, len(rows))),
                        rows[k][:2] + ["1e9"])
        elif edit == "extra":
            rows[k].append("1")
        elif edit == "short":
            rows[k].pop()
        else:
            rows.insert(k, [])
    return rows


def day_after(day: date) -> int:
    """00:00 UTC of the day after ``day``, when its snapshot is in force."""
    return day_start(day) + 86_400


def ranked_snapshots(index: CapIndex):
    """Each snapshot date of a CapIndex with its ranking both ways."""
    return [(day, index.ranking(day_after(day)),
             index.ranking(day_after(day), largest=False))
            for day in index.dates.tolist()]


def reference_snapshots(records):
    """ranked_snapshots from a scan of the records."""
    return [(day, scalar_reference.cap_ranking(records, day_after(day)),
             scalar_reference.cap_ranking(records, day_after(day), False))
            for day in sorted({r.date for r in records})]


class TestColumnarCapsLoaderMatchesRowParser:
    @settings(max_examples=300, deadline=None)
    @given(rows=caps_rows(), newline=st.sampled_from(["\n", "\r\n"]),
           quoting=st.sampled_from([csv.QUOTE_MINIMAL] * 4 + [csv.QUOTE_ALL]))
    def test_same_snapshots_or_same_error(self, tmp_path_factory, rows,
                                          newline, quoting):
        p = tmp_path_factory.mktemp("caps") / "market_caps.csv"
        with open(p, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator=newline, quoting=quoting)
            writer.writerow(MARKET_CAP_HEADER)
            writer.writerows(rows)

        def columnar():
            return (cap_records(market_data._cap_columns(str(p))),
                    ranked_snapshots(load_market_caps(str(p))))

        def rows_parsed():
            records = scalar_reference.load_market_caps(str(p))
            return records, reference_snapshots(records)

        def outcome(load):
            try:
                return load()
            except DataError as exc:
                return "error", str(exc)

        assert outcome(columnar) == outcome(rows_parsed)

    def test_plain_file_is_read_in_columns(self, tmp_path, monkeypatch):
        p = tmp_path / "market_caps.csv"
        p.write_text("date,symbol,market_cap_usd\n2022-01-02,ETH,4e11\n"
                     "2022-01-01,BTC,9e11\n2022-01-02,BTC,9.1e11\n")

        def no_row_parser(*args):
            raise AssertionError("read row by row")

        monkeypatch.setattr(market_data, "read_csv", no_row_parser)
        assert cap_records(market_data._cap_columns(str(p))) == [
            MarketCapRecord("ETH", date(2022, 1, 2), 4e11),
            MarketCapRecord("BTC", date(2022, 1, 1), 9e11),
            MarketCapRecord("BTC", date(2022, 1, 2), 9.1e11)]
        assert ranked_snapshots(load_market_caps(str(p))) == [
            (date(2022, 1, 1), ["BTC"], ["BTC"]),
            (date(2022, 1, 2), ["BTC", "ETH"], ["ETH", "BTC"])]

    @pytest.mark.parametrize("body", ["", "\n", "\r\n\r\n"])
    def test_header_only_file_is_empty(self, tmp_path, body):
        p = tmp_path / "market_caps.csv"
        p.write_bytes((",".join(MARKET_CAP_HEADER) + body).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            index = load_market_caps(str(p))
            records = cap_records(market_data._cap_columns(str(p)))
        assert records == [] and index.dates.tolist() == []
        assert index.ranking(2 ** 40) is None

    def test_crlf_loads_like_lf(self, tmp_path):
        lines = [",".join(MARKET_CAP_HEADER), "2022-01-02,ETH,4e11",
                 "2022-01-01,BTC,9e11"]
        ohlcv = [",".join(OHLCV_HEADER), f"{T0 + INTERVAL},10,11,9,10.5,100",
                 f"{T0},10,11,9,10.5,100"]
        loaded = {}
        for newline in ("\n", "\r\n"):
            caps, prices = tmp_path / "market_caps.csv", tmp_path / "SYM.csv"
            caps.write_bytes((newline.join(lines) + newline).encode())
            prices.write_bytes((newline.join(ohlcv) + newline).encode())
            loaded[newline] = (cap_records(market_data._cap_columns(str(caps))),
                               ranked_snapshots(load_market_caps(str(caps))),
                               _plain(load_price_series(str(prices),
                                                        interval=INTERVAL)))
        assert loaded["\n"] == loaded["\r\n"]


# Rows the columnar cap parse must read as the row parser does, and whether
# it reads them itself (a plain file) or leaves them to the row parser.
PLAIN_CAP_RULES = {
    "one-digit-month": (["2022-1-01,BTC,9e11"], False),
    "one-digit-day": (["2022-01-1,BTC,9e11"], False),
    "basic-format": (["20220101,BTC,9e11"], False),
    "no-such-day": (["2022-02-30,BTC,9e11"], False),
    "leap-day": (["2024-02-29,BTC,9e11", "2023-02-28,BTC,8e11"], True),
    "year-0": (["0000-01-01,BTC,9e11"], False),
    "last-day": (["9999-12-31,BTC,9e11", "0001-01-01,ETH,1e9"], True),
    "date-with-a-trailing-space": (["2022-01-01 ,BTC,9e11"], False),
    # NumPy's text fields drop a trailing NUL: any NUL goes to the row parser
    "date-with-a-trailing-nul": (["2022-01-01\0,BTC,9e11"], False),
    "symbol-with-a-nul": (["2022-01-01,B\0TC,9e11"], False),
    "symbol-with-a-trailing-space": (["2022-01-01,BTC ,9e11"], True),
    "full-width-date": (["\uff12\uff10\uff12\uff12-01-01,BTC,9e11"], False),
    "full-width-cap": (["2022-01-01,BTC,\uff19e11"], False),
    "empty-symbol": (["2022-01-01,,9e11", "2022-01-01,BTC,8e11"], True),
    "quoted-symbol": (['2022-01-01,"BTC",9e11'], False),
    "zero-cap": (["2022-01-01,BTC,0"], False),
    "inf-cap": (["2022-01-01,BTC,inf"], False),
    "nan-cap": (["2022-01-01,BTC,nan"], False),
    "crlf": (["2022-01-01,BTC,9e11\r", "2022-01-02,ETH,4e11\r"], True),
    "header-only": ([], True),
    "repeat": (["2022-01-01,BTC,9e11", "2022-01-02,ETH,4e11",
                "2022-01-01,BTC,8e11"], True),
}


class TestPlainCapRules:
    @pytest.mark.parametrize("case", sorted(PLAIN_CAP_RULES))
    def test_same_columns_or_error_as_the_row_parser(self, tmp_path, case):
        lines, plain = PLAIN_CAP_RULES[case]
        p = tmp_path / "market_caps.csv"
        p.write_bytes("\n".join([",".join(MARKET_CAP_HEADER), *lines, ""])
                      .encode())

        def outcome(load):
            try:
                return cap_records(load(str(p)))
            except DataError as exc:
                return str(exc)

        def columnar(path):  # and the index's check for a repeat
            columns = market_data._cap_columns(path)
            load_market_caps(path)
            return columns

        assert outcome(columnar) == outcome(market_data._cap_rows)
        try:
            market_data._plain_caps(str(p))
        except ValueError:
            assert not plain
        else:
            assert plain

    def test_a_20000_row_parse_traces_under_160_bytes_a_row(self, tmp_path):
        # 20 symbols x 1,000 days. The columns a row is read into take 60
        # bytes, and NumPy's parser grows its array once more; a Python
        # string per row and a sort of the date strings took about 229.
        spec = SyntheticSpec(seed=1, n_symbols=20, regimes=((1000, 0.1, 0.5),),
                             interval=86_400)
        path = str(tmp_path / "market_caps.csv")
        save_market_caps(generate_synthetic_universe(spec)[1], path)
        load_market_caps(path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = load_market_caps(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(index.dates) == 1000
        assert peak < 160 * 20_000, peak / 20_000


# ---------------------------------------------------------------------------
# The column writer against csv.writer
# ---------------------------------------------------------------------------

EDGE_FLOAT = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,  # subnormals
    2.2250738585072014e-308, 1e-4, 9.999999999999999e-05, -1e-4,
    1e16, 9999999999999998.0, -1e16, 1.7976931348623157e308,
    -1.7976931348623157e308, math.inf, -math.inf, math.nan])
ANY_FLOAT = st.one_of(EDGE_FLOAT, st.floats())
FINITE = st.one_of(EDGE_FLOAT.filter(math.isfinite),
                   st.floats(allow_nan=False, allow_infinity=False))
INT64 = st.integers(-2**63, 2**63 - 1)
CSV_TEXT = st.text(alphabet=',"\r\n\t ab-', max_size=4)
CELL = st.one_of(st.none(), st.booleans(), INT64, ANY_FLOAT,
                 ANY_FLOAT.map(np.float64), CSV_TEXT)
WRITER = settings(max_examples=200, deadline=None)


@st.composite
def ledger_trade(draw):
    entry_ts, exit_ts = sorted(draw(st.lists(INT64, min_size=2, max_size=2,
                                             unique=True)))
    gross, fee, slip, funding = (draw(FINITE) for _ in range(4))
    size = draw(ANY_FLOAT)
    return TradeRecord(
        symbol=draw(CSV_TEXT), side=draw(st.sampled_from(["long", "short"])),
        entry_ts=entry_ts, entry_px=draw(ANY_FLOAT), exit_ts=exit_ts,
        exit_px=draw(ANY_FLOAT),
        size=np.float64(size) if draw(st.booleans()) else size,
        gross_pnl=gross, fee_cost=fee, slippage_cost=slip,
        funding_cost=funding, net_pnl=gross - fee - slip - funding,
        forced=draw(st.booleans()))


class TestColumnWriterMatchesCsvWriter:
    @staticmethod
    def written(tmp_path_factory, write_new, write_old):
        d = tmp_path_factory.mktemp("w")
        write_new(str(d / "new.csv"))
        write_old(str(d / "old.csv"))
        return (d / "new.csv").read_bytes(), (d / "old.csv").read_bytes()

    @WRITER
    @given(points=st.lists(st.tuples(INT64, ANY_FLOAT), max_size=12))
    def test_equity(self, tmp_path_factory, points):
        curve = EquityCurve(
            timestamps=np.array([t for t, _ in points], dtype=np.int64),
            balances=np.array([b for _, b in points], dtype=np.float64))
        new, old = self.written(
            tmp_path_factory, lambda p: save_equity(curve, p),
            lambda p: scalar_reference.save_equity(curve, p))
        assert new == old

    @WRITER
    @given(trades=st.lists(ledger_trade(), max_size=6))
    @example(trades=[])
    @example(trades=[TradeRecord(
        'a,"b', "short", -1, 1.5, 2, -0.0, 3.0, 1.0, 0.25, 0.125, -0.5, 1.125,
        True)])
    def test_ledger(self, tmp_path_factory, trades):
        # A random Ledger's bytes against csv.writer's for its rows.
        ledger = as_ledger(trades)
        new, old = self.written(
            tmp_path_factory, lambda p: write_ledger(ledger, p),
            lambda p: scalar_reference.write_ledger(trades, p))
        assert new == old

    @WRITER
    @given(table=st.integers(1, 4).flatmap(lambda width: st.tuples(
        st.just(width), st.lists(st.lists(CELL, min_size=width,
                                          max_size=width), max_size=6))))
    @example(table=(1, []))
    @example(table=(3, []))
    @example(table=(1, [[""]]))  # a lone empty cell
    @example(table=(1, [[None], ["a"], [""], [1.5]]))
    def test_any_cells(self, tmp_path_factory, table):
        width, rows = table
        header = [f"c{i}" for i in range(width)]
        columns = [[row[i] for row in rows] for i in range(width)]
        new, old = self.written(
            tmp_path_factory, lambda p: write_columns(p, header, columns),
            lambda p: scalar_reference.write_csv(p, header, rows))
        assert new == old

    BLOCK = WRITE_BLOCK_CELLS // 5  # the rows of a block of five columns

    @pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                      2 * BLOCK + 5], ids=[
        "1", "block-1", "block", "block+1", "2block+5"])
    def test_columns_across_blocks(self, tmp_path_factory, rows):
        # Array columns of each kind and one list column whose last block
        # alone holds a None, written a block at a time.
        rng = np.random.default_rng(rows)
        ints = rng.integers(-2**63, 2**63 - 1, rows, dtype=np.int64)
        floats = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, rows)
        text = np.array(["a", 'b,"c', "", "d\r\n", "\u00c9"])[
            rng.integers(0, 5, rows)]
        flags = (rng.random(rows) < 0.5).astype(int)
        mixed = (floats / 3).tolist()[:-1] + [None]
        columns = [ints, floats, text, flags, mixed]
        header = [f"c{i}" for i in range(len(columns))]
        rows_of = [[int(i), float(f), str(t), int(b), m] for i, f, t, b, m
                   in zip(ints, floats, text, flags, mixed)]
        new, old = self.written(
            tmp_path_factory, lambda p: write_columns(p, header, columns),
            lambda p: scalar_reference.write_csv(p, header, rows_of))
        assert new == old


@st.composite
def hourly_series(draw):
    """An hourly series with gaps and an arbitrary phase against the day."""
    bars, ts = [], T0 + draw(st.integers(0, 23)) * 3600
    steps = st.sampled_from([1] * 20 + [2, 5])
    for step in draw(st.lists(steps, min_size=draw(st.sampled_from([0, 30])),
                              max_size=80)):
        ts += step * 3600
        low, a, b, high = sorted(draw(st.lists(PRICE, min_size=4, max_size=4)))
        o, c = draw(st.permutations([a, b]))
        # Thirds have full mantissas, so that summing in another order
        # changes the last bits; -1 stands for a volume of -0.0.
        k = draw(st.integers(-1, 10**9))
        bars.append(Bar(ts, o, high, low, c, -0.0 if k < 0 else k / 3))
    return series_from_bars("H", 3600, bars)


class TestResampleMatchesScalar:
    # 12 and 24 bars per bucket: NumPy's pairwise sum would differ there.
    @pytest.mark.parametrize("target", [7200, 10800, 21600, 43200, 86400])
    @settings(max_examples=80, deadline=None)
    @given(series=hourly_series())
    def test_same_bars_bit_for_bit(self, series, target):
        r = resample_series(series, target)
        expected = scalar_reference.columns(
            scalar_reference.resample_bars(bars_of(series), 3600, target))
        assert r.interval == target
        assert [(c.dtype.str, c.tobytes()) for c in r.columns()] == \
            [(c.dtype.str, c.tobytes()) for c in expected]

    @settings(max_examples=100, deadline=None)
    @given(series=hourly_series())
    def test_composition(self, series):
        # Integer volumes, so that sums in any grouping are exact.
        whole = replace(series, volume=np.floor(series.volume))
        twice = resample_series(resample_series(whole, 21_600), 43_200)
        once = resample_series(whole, 43_200)
        assert bars_of(twice) == bars_of(once)
        assert twice.interval == once.interval
