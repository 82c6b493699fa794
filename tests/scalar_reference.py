"""Row-by-row reference implementations for the columnar data layer.

These are the loader, the resampler and the cap snapshot as they were when a
series was a tuple of Bar objects: every CSV row parsed with int()/float(),
every bar validated by its own call, bars grouped into dict buckets, and
every cap lookup a scan over all records. The tests check the vectorised code
in ``adaptivetrend`` against them.
"""

import math
from datetime import date
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from adaptivetrend.market_data import (OHLCV_HEADER, Bar, DataError,
                                       MarketCapRecord, SeriesArrays, read_csv)

INF = math.inf


def validate_bar(bar: Bar) -> None:
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


def check_bars(symbol: str, interval: int,
               bars: Sequence[Bar]) -> List[Tuple[int, int]]:
    """Validate bar by bar, as PriceSeries did; returns the gaps."""
    if interval <= 0:
        raise DataError(f"{symbol}: interval must be positive")
    prev_ts = None
    gaps = []
    for bar in bars:
        validate_bar(bar)
        if prev_ts is not None:
            delta = bar.timestamp - prev_ts
            if delta == 0:
                raise DataError(f"{symbol}: duplicate timestamp {bar.timestamp}")
            if delta < 0:
                raise DataError(
                    f"{symbol}: timestamps not ascending at {bar.timestamp}")
            if delta % interval != 0:
                raise DataError(
                    f"{symbol}: gap {prev_ts} -> {bar.timestamp} is not a"
                    f" multiple of interval {interval}")
            if delta > interval:
                gaps.append((prev_ts, bar.timestamp))
        prev_ts = bar.timestamp
    return gaps


def parse_bar(row: List[str]) -> Bar:
    return Bar(int(row[0]), float(row[1]), float(row[2]), float(row[3]),
               float(row[4]), float(row[5]))


def load_price_series(path: str, interval: int, symbol: str
                      ) -> Tuple[List[Bar], List[Tuple[int, int]]]:
    """(bars, gaps) of an OHLCV file, or the DataError the loader raised."""
    bars = read_csv(path, OHLCV_HEADER, parse_bar)
    bars.sort(key=lambda b: b.timestamp)
    try:
        return bars, check_bars(symbol, interval, bars)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def columns(bars: Sequence[Bar]) -> SeriesArrays:
    """The columns a series of these bars holds."""
    cols = list(zip(*bars)) or [()] * len(Bar._fields)
    return SeriesArrays(np.array(cols[0], dtype=np.int64),
                        *(np.array(col, dtype=np.float64) for col in cols[1:]))


def resample_bars(bars: Sequence[Bar], interval: int,
                  target_interval: int) -> List[Bar]:
    """Complete buckets of a bar list, grouped in a dict by bucket id."""
    m = target_interval // interval
    buckets: Dict[int, List[Bar]] = {}
    for bar in bars:
        bucket = -(-bar.timestamp // target_interval)  # ceil division
        buckets.setdefault(bucket, []).append(bar)
    out = []
    for bucket in sorted(buckets):
        group = buckets[bucket]
        if len(group) != m:
            continue  # partial or gapped bucket
        volume = 0
        for b in group:  # sum() of floats, left to right (Python <= 3.11)
            volume += b.volume
        out.append(Bar(
            timestamp=bucket * target_interval,
            open=group[0].open,
            high=max(b.high for b in group),
            low=min(b.low for b in group),
            close=group[-1].close,
            volume=volume,
        ))
    return out


def cap_snapshot(caps: Sequence[MarketCapRecord],
                 as_of: date) -> Optional[Dict[str, float]]:
    """Scan every record for the latest snapshot date at or before as_of."""
    dates = [r.date for r in caps if r.date <= as_of]
    if not dates:
        return None
    snapshot_date = max(dates)
    return {r.symbol: r.cap for r in caps if r.date == snapshot_date}
