"""Fees, volume-scaled slippage, and perp funding transfers."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaptivetrend.cost_model import (CostConfig, FundingTable, ZERO_COSTS,
                                      fill_costs, funding_events, funding_paid,
                                      funding_rates_at, load_funding_rates)
from adaptivetrend.market_data import DataError
from conftest import INTERVAL, T0
from scalar_reference import (Bar, fee, funding, funding_rate_at,
                              funding_records, slippage)


def bar_with_volume(volume: float, close: float = 100.0) -> Bar:
    return Bar(timestamp=T0 + INTERVAL, open=close, high=close + 1.0,
               low=close - 1.0, close=close, volume=volume)


class TestFee:
    def test_four_bps_on_ten_thousand(self):
        assert fee(10_000.0, CostConfig()) == pytest.approx(4.0, abs=1e-12)

    def test_zero_notional(self):
        assert fee(0.0, CostConfig()) == 0.0

    def test_twelve_bps(self):
        cfg = CostConfig(taker_fee_bps=12.0)
        assert fee(10_000.0, cfg) == pytest.approx(12.0, abs=1e-12)


class TestSlippage:
    def test_rate_hits_cap_at_full_participation(self):
        # volume 7200 at close 100 over 6h -> 5-minute notional of 10,000;
        # trading the whole 10,000 implies a 10% raw rate, capped to 50 bps
        bar = bar_with_volume(7200.0)
        cost = slippage(10_000.0, bar, CostConfig(), interval=INTERVAL)
        assert cost == pytest.approx(0.005 * 10_000.0, rel=1e-12)

    def test_zero_notional_zero_cost(self):
        assert slippage(0.0, bar_with_volume(7200.0), CostConfig()) == 0.0

    def test_doubling_below_cap_quadruples(self):
        bar = bar_with_volume(7200.0)
        cfg = CostConfig()
        c1 = slippage(100.0, bar, cfg, interval=INTERVAL)
        c2 = slippage(200.0, bar, cfg, interval=INTERVAL)
        assert c2 == pytest.approx(4.0 * c1, rel=1e-12)

    def test_zero_volume_charges_cap(self):
        bar = bar_with_volume(0.0)
        assert slippage(5_000.0, bar, CostConfig()) == pytest.approx(0.005 * 5_000.0)

    def test_monotone_in_notional_and_capped(self, rng):
        cfg = CostConfig()
        for _ in range(100):
            bar = bar_with_volume(float(rng.uniform(0.0, 1e6)),
                                  close=float(rng.uniform(1.0, 500.0)))
            notionals = sorted(rng.uniform(0.0, 1e6, size=4))
            costs = [slippage(n, bar, cfg, interval=INTERVAL) for n in notionals]
            assert all(a <= b + 1e-12 for a, b in zip(costs, costs[1:]))
            for n, c in zip(notionals, costs):
                assert c <= 0.005 * n + 1e-9

    def test_fee_and_slippage_of_one_fill(self):
        # 100 against a 10,000 five-minute notional: raw impact rate
        # 0.1 x 1% = 10 bps, under the 50 bps cap; the fee is 4 bps.
        bar = bar_with_volume(7200.0)
        cfg = CostConfig()
        assert fee(100.0, cfg) == pytest.approx(0.04, rel=1e-12)
        assert slippage(100.0, bar, cfg, interval=INTERVAL) == \
            pytest.approx(0.1, rel=1e-12)
        assert fee(100.0, ZERO_COSTS) == 0.0
        assert slippage(100.0, bar, ZERO_COSTS, interval=INTERVAL) == 0.0


    @pytest.mark.parametrize("cfg", [CostConfig(), ZERO_COSTS,
                                     CostConfig(taker_fee_bps=7.5, slip_coeff=2.0,
                                                slip_cap_bps=20.0)])
    def test_batched_fill_costs_match_scalar(self, cfg, rng):
        notional = np.exp(rng.normal(0.0, 2.0, 60))
        close = np.exp(rng.normal(4.0, 1.0, 60))
        volume = np.where(rng.random(60) < 0.2, 0.0,
                          np.exp(rng.normal(8.0, 3.0, 60)))
        fees, slips = fill_costs(notional, volume, close, cfg, INTERVAL)
        for k in range(60):
            bar = bar_with_volume(float(volume[k]), float(close[k]))
            assert fees[k] == fee(float(notional[k]), cfg)
            assert slips[k] == slippage(float(notional[k]), bar, cfg, INTERVAL)


class TestFundingEvents:
    def test_full_day_has_three(self):
        assert funding_events(0, 86_400).tolist() == [28_800, 57_600, 86_400]

    def test_interval_is_half_open(self):
        # an event at the entry instant is settled before the position exists
        assert funding_events(28_800, 86_400).tolist() == [57_600, 86_400]

    def test_between_events_empty(self):
        assert funding_events(30_000, 50_000).tolist() == []

    def test_custom_hours(self):
        assert funding_events(0, 86_400, hours=(12, 0)).tolist() == \
            [43_200, 86_400]


class TestFunding:
    def test_day_hold_long_pays_three(self):
        cfg = CostConfig()
        cost = funding("long", 10_000.0, T0, T0 + 86_400, cfg)
        assert cost == pytest.approx(3.0, rel=1e-12)

    def test_short_rebate_equal_magnitude(self):
        cfg = CostConfig()
        lc = funding("long", 10_000.0, T0, T0 + 86_400, cfg)
        sc = funding("short", 10_000.0, T0, T0 + 86_400, cfg)
        assert sc == pytest.approx(-lc, rel=1e-12)

    def test_no_event_inside_interval(self):
        cfg = CostConfig()
        assert funding("long", 10_000.0, T0 + 100, T0 + 200, cfg) == 0.0

    def test_sign_symmetry_random(self, rng):
        cfg = CostConfig()
        for _ in range(50):
            e = T0 + int(rng.integers(0, 100_000))
            x = e + int(rng.integers(1, 200_000))
            size = float(rng.uniform(1.0, 1e6))
            assert funding("long", size, e, x, cfg) == \
                pytest.approx(-funding("short", size, e, x, cfg), rel=1e-12)

    def test_per_symbol_rate_schedule(self):
        cfg = CostConfig(funding_rates={"BTC": [(T0, 2e-4), (T0 + 50_000, -1e-4)]})
        assert funding_rate_at("BTC", T0 + 10, cfg) == 2e-4
        assert funding_rate_at("BTC", T0 + 60_000, cfg) == -1e-4
        assert funding_rate_at("BTC", T0 - 1, cfg) == cfg.funding_rate_per_8h
        assert funding_rate_at("ETH", T0 + 10, cfg) == cfg.funding_rate_per_8h

    def test_negative_rate_long_receives(self):
        cfg = CostConfig(funding_rates={"BTC": [(0, -1e-4)]})
        cost = funding("long", 10_000.0, T0, T0 + 86_400, cfg, symbol="BTC")
        assert cost == pytest.approx(-3.0, rel=1e-12)


def one_position(ts, cfg, symbol, side, size):
    """funding_paid of one position over every bar of ts, signed as the
    ledgers sign it: a short receives what a long pays."""
    paid = funding_paid(ts, [0], [len(ts)], [symbol], [size], cfg)
    return paid if side == "long" else 0.0 - paid


class TestFundingSchedule:
    """Per-bar funding of a window equals the per-interval sum, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           interval=st.sampled_from([3_600, 7_200, 14_400, 21_600, 43_200,
                                     86_400]),
           n=st.integers(0, 60),
           hours=st.lists(st.integers(0, 23), unique=True,
                          max_size=4).map(tuple),
           side=st.sampled_from(["long", "short"]),
           per_symbol=st.booleans())
    def test_matches_interval_sums(self, seed, interval, n, hours, side,
                                   per_symbol):
        rng = np.random.default_rng(seed)
        # Gaps of up to 4 intervals, so one bar may hold a dozen events.
        steps = rng.integers(1, 5, n) * interval
        ts = T0 + 3_600 * int(rng.integers(0, 24)) + np.cumsum(steps)
        rates = None
        if per_symbol and n:
            at = np.sort(rng.choice(np.arange(T0 - 86_400, int(ts[-1]) + 1,
                                              3_600), 6, replace=False))
            rates = {"BTC": [(int(t), float(r)) for t, r
                             in zip(at, rng.normal(0.0, 3e-4, 6))],
                     "ETH": [(T0, 1.0)]}
        cfg = CostConfig(funding_hours=hours, funding_rates=rates,
                         funding_rate_per_8h=float(rng.normal(0.0, 1e-4)))
        size = float(np.exp(rng.normal(8.0, 3.0)))
        got = one_position(ts.astype(np.int64), cfg, "BTC", side, size)
        want = [0.0] + [funding(side, size, int(a), int(b), cfg, "BTC")
                        for a, b in zip(ts[:-1], ts[1:])]
        assert got.tolist() == want[:n]
        # A short's 0.0 - paid keeps the reference's signed zeros too.
        assert got.tobytes() == np.array(want[:n], dtype=float).tobytes()

    def test_events_on_the_bar_that_covers_them(self):
        ts = np.array([T0, T0 + 3_600, T0 + 86_400, T0 + 86_400 + 60],
                      dtype=np.int64)
        got = one_position(ts, CostConfig(), "", "long", 10_000.0)
        # (T0, T0+1h]: none; (T0+1h, T0+24h]: 08:00, 16:00 and 00:00.
        assert got.tolist() == [0.0, 0.0, 3.0 * 10_000.0 * 1e-4, 0.0]
        short = one_position(ts, CostConfig(), "", "short", 10_000.0)
        assert short.tolist() == [0.0, 0.0, -got[2], 0.0]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 5),
           hours=st.lists(st.integers(0, 23), unique=True, min_size=1,
                          max_size=4).map(tuple),
           per_symbol=st.booleans())
    def test_positions_laid_end_to_end(self, seed, k, hours, per_symbol):
        # Each bar is its own position's interval sum, and a position's
        # first bar pays nothing: no event in the gap before it (or, where
        # positions overlap in time, in another position's span) is charged.
        rng = np.random.default_rng(seed)
        rates = None
        if per_symbol:
            rates = {"BTC": [(T0, 2e-4), (T0 + 40 * 3_600, -3e-4)],
                     "ETH": [(T0 + 100 * 3_600, 5e-4)]}
        cfg = CostConfig(funding_hours=hours, funding_rates=rates)
        symbols = [str(s) for s in rng.choice(["BTC", "ETH", "SOL"], k)]
        sizes = np.exp(rng.normal(8.0, 3.0, k))
        chunks, want, start = [], [], T0
        for symbol, size in zip(symbols, sizes.tolist()):
            start += int(rng.integers(-48, 49)) * 3_600
            steps = rng.integers(1, 5, int(rng.integers(1, 30)))
            ts = start + np.cumsum(steps) * 3_600 * int(rng.choice([1, 6]))
            start = int(ts[-1])
            chunks.append(ts.astype(np.int64))
            want += [0.0] + [funding("long", size, int(a), int(b), cfg, symbol)
                             for a, b in zip(ts[:-1], ts[1:])]
        bars = np.array([len(c) for c in chunks])
        got = funding_paid(np.concatenate(chunks), np.cumsum(bars) - bars,
                           bars, symbols, sizes, cfg)
        assert got.tolist() == want


def test_load_funding_rates(tmp_path):
    p = tmp_path / "funding_rates.csv"
    p.write_text("timestamp,symbol,rate_8h\n"
                 f"{T0},BTC,0.0002\n{T0 + 100},ETH,-0.0001\n{T0 + 50},BTC,0.0003\n")
    assert funding_records(load_funding_rates(str(p))) == {
        "BTC": [(T0, 0.0002), (T0 + 50, 0.0003)],
        "ETH": [(T0 + 100, -0.0001)]}
    for rate in ("nan", "inf", "-inf"):
        p.write_text(f"timestamp,symbol,rate_8h\n{T0},BTC,0.0002\n{T0},ETH,{rate}\n")
        with pytest.raises(DataError, match="funding_rates.csv: line 3"):
            load_funding_rates(str(p))
    # A repeated (symbol, timestamp) would otherwise resolve to one rate.
    p.write_text(f"timestamp,symbol,rate_8h\n{T0},BTC,0.0002\n"
                 f"{T0},ETH,0.0002\n{T0},BTC,0.0003\n")
    with pytest.raises(DataError,
                       match=f"funding_rates.csv: line 4: duplicate record for BTC {T0}"):
        load_funding_rates(str(p))


@pytest.mark.parametrize("records, message", [
    ([(T0, math.nan)], "rates must be finite"),
    ([(T0, 1e-4), (T0 + 3600, math.inf)], "rates must be finite"),
    ([(T0, -math.inf)], "rates must be finite"),
    ([(T0, 1e308)], r"rates must be finite and lie in \[-1, 1\]"),
    ([(T0, 1e-4), (T0 + 3600, -1.5)], r"rates must be finite and lie in"),
    ([(T0 + 3600, 1e-4), (T0, 2e-4)], "timestamps must be strictly ascending"),
    ([(T0, 1e-4), (T0, 2e-4)], "timestamps must be strictly ascending"),
], ids=["nan", "inf", "-inf", "huge", "below-minus-one", "descending",
        "repeated"])
def test_config_rejects_a_bad_funding_table(records, message):
    # Accepted, a NaN rate was charged as NaN funding, and an unsorted table
    # made funding_rates_at's bisection pick the wrong rates.
    with pytest.raises(ValueError, match=rf"funding_rates\['ETH'\]: {message}"):
        CostConfig(funding_rates={"BTC": [(T0, 1e-4)], "ETH": records})


@pytest.mark.parametrize("stamp", [2**63, -2**63 - 1, T0 + 0.5, math.nan])
def test_config_rejects_a_timestamp_that_is_not_an_int64(stamp):
    # Accepted, a huge one made the lookup fall back to an object array; an
    # int64 table would truncate a fraction.
    with pytest.raises(ValueError, match=r"funding_rates\['ETH'\]: timestamps"
                                         " must be int64 integers"):
        CostConfig(funding_rates={"BTC": [(T0, 1e-4)], "ETH": [(stamp, 1e-4)]})


@pytest.mark.parametrize("stamp", [2**63, -2**63 - 1])
def test_load_funding_rates_names_a_timestamp_outside_int64(tmp_path, stamp):
    p = tmp_path / "funding_rates.csv"
    p.write_text(f"timestamp,symbol,rate_8h\n{T0},BTC,0.0002\n"
                 f"{stamp},ETH,0.0001\n")
    with pytest.raises(DataError, match=re.escape(
            f"funding_rates.csv: line 3: timestamp must lie in int64, got"
            f" {stamp}")):
        load_funding_rates(str(p))


class TestFundingTable:
    RECORDS = {"BTC": [(T0, 2e-4), (T0 + 50_000, -1e-4)], "ETH": []}

    def test_arrays_are_read_only(self):
        for ts, rates in FundingTable(self.RECORDS).columns.values():
            assert (ts.dtype, rates.dtype) == (np.int64, np.float64)
            for column in (ts, rates):
                with pytest.raises(ValueError, match="read-only"):
                    column[:1] = 0

    def test_compared_and_hashed_by_identity(self):
        table = FundingTable(self.RECORDS)
        assert table == table and table != FundingTable(self.RECORDS)
        cfg = CostConfig(funding_rates=table)
        assert cfg.funding_rates is table  # a table is not built again
        assert hash(cfg) == hash(CostConfig(funding_rates=table))
        assert cfg != CostConfig(funding_rates=FundingTable(self.RECORDS))
        assert CostConfig(funding_rates=self.RECORDS) != \
            CostConfig(funding_rates=self.RECORDS)

    def test_replace_keeps_the_table(self):
        cfg = CostConfig(funding_rates=self.RECORDS)
        assert isinstance(cfg.funding_rates, FundingTable)
        for fee_bps in (0.0, 8.0):
            point = replace(cfg, taker_fee_bps=fee_bps)
            assert point.funding_rates is cfg.funding_rates

    def test_a_symbol_without_records_reads_the_flat_rate(self):
        cfg = CostConfig(funding_rates=self.RECORDS)
        events = np.array([T0 - 1, T0, T0 + 50_000], dtype=np.int64)
        assert funding_rates_at(cfg, "ETH", events).tolist() == \
            [cfg.funding_rate_per_8h] * 3
        assert funding_rates_at(cfg, "BTC", events).tolist() == \
            [cfg.funding_rate_per_8h, 2e-4, -1e-4]


def test_config_validation():
    with pytest.raises(ValueError):
        CostConfig(taker_fee_bps=-1.0)
    with pytest.raises(ValueError):
        CostConfig(slip_cap_bps=-5.0)
    with pytest.raises(ValueError):
        CostConfig(funding_hours=(0, 24))
    with pytest.raises(ValueError, match="repeat"):
        CostConfig(funding_hours=(0, 0, 16))  # would charge 00:00 twice
    assert ZERO_COSTS.taker_fee_bps == 0.0
