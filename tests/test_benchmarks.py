"""Comparison strategies: hold legs, signal rules, monthly reopen mechanics."""

import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaptivetrend.backtester import BacktestConfig
from adaptivetrend.benchmarks import (BenchmarkSpec, hold_position,
                                      realized_vol, run_benchmark,
                                      trailing_month_return)
from adaptivetrend.cost_model import CostConfig, ZERO_COSTS
from adaptivetrend.market_data import DataError
from adaptivetrend.rebalancer import RebalanceConfig
from adaptivetrend.signal_engine import book_trades
from conftest import (COST_CHOICES, FEB1, INTERVAL, MAR1, T0,
                      assert_accounting_identity, assert_same_result,
                      gbm_series, jumpy_universe, make_series, market_of,
                      rough_series)
import scalar_reference
from scalar_reference import MarketCapRecord, records

JAN31 = date(2022, 1, 31)

# first bar closes exactly at T0 so January signals have a reference close
PRE = T0 - INTERVAL


def bench_cfg(universe, end, balance=100_000.0, costs=ZERO_COSTS):
    return BacktestConfig(start=FEB1, end=end, initial_balance=balance,
                          interval=INTERVAL, rebalance=RebalanceConfig(),
                          costs=costs)


def drift_series(symbol, rate, n=250, t0=PRE, base=100.0):
    return make_series([base * (1.0 + rate) ** i for i in range(n)],
                       symbol=symbol, t0=t0, wick=0.05)


def held(series, side, size, window, cost_cfg, charge_funding):
    """hold_position's one forced trade, booked alone by the ledger."""
    return book_trades(*hold_position(series, side, size, window), cost_cfg,
                       charge_funding=charge_funding)


class TestHoldPosition:
    def window_of(self, series, n_bars):
        ts = series.timestamps
        return int(ts[0]), int(ts[n_bars - 1])

    def test_long_decomposition_zero_cost(self):
        s = drift_series("HLD", 0.01, n=10)
        window = self.window_of(s, 6)
        res = held(s, "long", 1_000.0, window, ZERO_COSTS, False)
        assert len(res.trades) == 1
        t = records(res.trades)[0]
        closes = s.close
        assert t.entry_px == closes[0] and t.exit_px == closes[5]
        assert t.forced is True
        assert t.gross_pnl == pytest.approx(
            1_000.0 * (closes[5] / closes[0] - 1.0), rel=1e-12)
        assert res.realized_cum[-1] == pytest.approx(t.net_pnl, rel=1e-12)
        np.testing.assert_array_equal(res.gross_returns, res.net_returns)
        assert res.position.tolist() == [1, 1, 1, 1, 1, 0]
        for local in range(1, 5):
            assert res.open_mtm[local] == pytest.approx(
                1_000.0 * (closes[local] / closes[0] - 1.0), rel=1e-12)

    def test_short_sign(self):
        s = drift_series("HLD", 0.01, n=10)
        window = self.window_of(s, 6)
        res = held(s, "short", 1_000.0, window, ZERO_COSTS, False)
        closes = s.close
        assert records(res.trades)[0].gross_pnl == pytest.approx(
            1_000.0 * (1.0 - closes[5] / closes[0]), rel=1e-12)

    def test_single_bar_window_is_empty(self):
        s = drift_series("HLD", 0.01, n=10)
        window = self.window_of(s, 1)
        res = held(s, "long", 1_000.0, window, ZERO_COSTS, False)
        assert len(res.trades) == 0 and np.all(res.position == 0)

    def test_fees_on_both_legs(self):
        s = drift_series("HLD", 0.01, n=10)
        window = self.window_of(s, 6)
        costs = CostConfig(taker_fee_bps=10.0, slip_coeff=0.0,
                           funding_rate_per_8h=0.0)
        res = held(s, "long", 1_000.0, window, costs, False)
        t = records(res.trades)[0]
        exit_notional = 1_000.0 * t.exit_px / t.entry_px
        assert t.fee_cost == pytest.approx(
            0.001 * (1_000.0 + exit_notional), rel=1e-12)
        assert res.costs[0] == pytest.approx(0.001 * 1_000.0, rel=1e-12)
        assert math.fsum(res.costs) == pytest.approx(t.fee_cost, rel=1e-12)

    def test_funding_only_when_charged(self):
        s = drift_series("HLD", 0.001, n=10)
        window = self.window_of(s, 6)
        costs = CostConfig(taker_fee_bps=0.0, slip_coeff=0.0,
                           funding_rate_per_8h=1e-4)
        charged = held(s, "long", 1_000.0, window, costs, True)
        skipped = held(s, "long", 1_000.0, window, costs, False)
        assert records(charged.trades)[0].funding_cost > 0.0
        assert records(skipped.trades)[0].funding_cost == 0.0


class TestHoldMatchesPerBar:
    """A hold booked by the engine's ledger equals the benchmarks' former
    bar-by-bar hold loop (tests/scalar_reference.py) bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n=st.integers(0, 60),
           interval=st.sampled_from([3_600, 21_600, 86_400]),
           side=st.sampled_from(["long", "short"]),
           size=st.sampled_from([1.0, 3_333.3, 250_000.0]),
           cost=st.integers(0, len(COST_CHOICES) - 1),
           charge_funding=st.booleans(), gaps=st.booleans(),
           bounds=st.tuples(st.integers(0, 60), st.integers(0, 60)))
    def test_same_arrays_and_trade(self, seed, n, interval, side, size, cost,
                                   charge_funding, gaps, bounds):
        series = rough_series(np.random.default_rng(seed), n, interval,
                              gaps=gaps, zero_volume=0.2)
        a, b = sorted(bounds)
        window = (T0 + a * interval, T0 + b * interval)
        args = (series, side, size, window, COST_CHOICES[cost], charge_funding)
        assert_same_result(held(*args),
                           scalar_reference.hold_position(*args))


class TestSignals:
    def test_trailing_month_return_exact(self):
        # closes hit 100 on Feb 1 and 120 on Mar 1
        closes = [90.0, 100.0] + [100.0 + 20.0 * (i + 1) / 112.0
                                  for i in range(120)]
        s = make_series(closes, t0=FEB1 - 2 * INTERVAL, wick=0.05)
        assert trailing_month_return(s, MAR1, 1) == pytest.approx(0.2,
                                                                  rel=1e-12)

    def test_trailing_return_needs_history(self):
        s = drift_series("NEW", 0.01, n=50, t0=FEB1)
        assert trailing_month_return(s, FEB1, 1) is None

    def test_multi_month_lookback(self):
        s = drift_series("LB", 0.001, n=480, t0=T0 - 200 * INTERVAL)
        one = trailing_month_return(s, MAR1, 1)
        three = trailing_month_return(s, MAR1, 3)
        assert one is not None and three is not None
        assert three > one  # longer window of steady gains

    def test_realized_vol_matches_direct(self):
        s = gbm_series(np.random.default_rng(4), 300, vol=0.6, t0=PRE)
        got = realized_vol(s, FEB1, 60)
        lo = int(np.searchsorted(s.timestamps, FEB1 - 60 * 86_400, "left"))
        hi = int(np.searchsorted(s.timestamps, FEB1, "right"))
        rets = s.close[lo + 1:hi] / s.close[lo:hi - 1] - 1.0
        want = float(np.std(rets, ddof=1)) * math.sqrt(1460.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_realized_vol_needs_three_bars(self):
        s = drift_series("VV", 0.01, n=2, t0=FEB1 - 3 * INTERVAL)
        assert realized_vol(s, FEB1, 60) is None


def three_symbol_universe():
    up_a = drift_series("UPA", 0.004)
    up_b = drift_series("UPB", 0.003)
    down = drift_series("DWN", -0.004)
    caps = [MarketCapRecord("UPA", JAN31, 3e9),
            MarketCapRecord("UPB", JAN31, 2e9),
            MarketCapRecord("DWN", JAN31, 1e9)]
    return {"UPA": up_a, "UPB": up_b, "DWN": down}, caps


class TestTsmom:
    def test_signs_and_equal_weights(self):
        universe, caps = three_symbol_universe()
        end = int(universe["UPA"].timestamps[-1])
        cfg = bench_cfg(universe, end)
        run = run_benchmark(BenchmarkSpec(kind="tsmom"),
                            market_of(universe, caps), cfg)
        feb = [t for t in records(run.trades) if t.entry_ts < MAR1]
        assert len(feb) == 3
        sides = {t.symbol: t.side for t in feb}
        assert sides == {"UPA": "long", "UPB": "long", "DWN": "short"}
        for t in feb:
            assert t.size == pytest.approx(100_000.0 / 3.0, rel=1e-12)

    def test_monthly_close_and_reopen(self):
        universe, caps = three_symbol_universe()
        end = int(universe["UPA"].timestamps[-1])
        run = run_benchmark(BenchmarkSpec(kind="tsmom"),
                            market_of(universe, caps), bench_cfg(universe, end))
        # 250 bars from PRE reach into March: two rebalances, 3 trades each
        assert len(run.trades) == 6
        feb = [t for t in records(run.trades) if t.entry_ts < MAR1]
        mar = [t for t in records(run.trades) if t.entry_ts >= MAR1]
        assert all(t.exit_ts == MAR1 - INTERVAL for t in feb)
        assert all(t.entry_ts == MAR1 for t in mar)
        assert all(t.forced for t in records(run.trades))

    def test_flat_symbol_has_no_signal(self):
        universe, caps = three_symbol_universe()
        universe["UPB"] = make_series([100.0] * 250, symbol="UPB", t0=PRE)
        end = int(universe["UPA"].timestamps[-1])
        run = run_benchmark(BenchmarkSpec(kind="tsmom"),
                            market_of(universe, caps), bench_cfg(universe, end))
        feb = [t for t in records(run.trades) if t.entry_ts < MAR1]
        assert {t.symbol for t in feb} == {"UPA", "DWN"}
        assert all(t.size == pytest.approx(50_000.0, rel=1e-12) for t in feb)

    def test_gross_exposure_at_most_one(self):
        universe, caps = three_symbol_universe()
        end = int(universe["UPA"].timestamps[-1])
        run = run_benchmark(BenchmarkSpec(kind="tsmom"),
                            market_of(universe, caps), bench_cfg(universe, end))
        feb_notional = sum(t.size for t in records(run.trades)
                           if t.entry_ts < MAR1)
        assert feb_notional <= 100_000.0 * (1.0 + 1e-12)

    def test_funding_accrues_on_leveraged_kinds(self):
        universe, caps = three_symbol_universe()
        end = int(universe["UPA"].timestamps[-1])
        costs = CostConfig(taker_fee_bps=0.0, slip_coeff=0.0,
                           funding_rate_per_8h=1e-4)
        cfg = bench_cfg(universe, end, costs=costs)
        market = market_of(universe, caps)
        mom = run_benchmark(BenchmarkSpec(kind="tsmom"), market, cfg)
        assert all(t.funding_cost != 0.0 for t in records(mom.trades))
        ew = run_benchmark(BenchmarkSpec(kind="equal_weight_buy_hold",
                                         universe_size=3), market, cfg)
        assert all(t.funding_cost == 0.0 for t in records(ew.trades))


class TestVolScaled:
    def test_zero_vol_hits_ratio_cap(self):
        # constant per-bar growth: positive month return, zero return stddev
        tiny = drift_series("TNY", 5e-5)
        caps = [MarketCapRecord("TNY", JAN31, 1e9)]
        end = int(tiny.timestamps[-1])
        run = run_benchmark(BenchmarkSpec(kind="vol_scaled_tsmom"),
                            market_of({"TNY": tiny}, caps),
                            bench_cfg({"TNY": tiny}, end))
        feb = [t for t in records(run.trades) if t.entry_ts < MAR1]
        assert len(feb) == 1
        assert feb[0].size == pytest.approx(4.0 * 100_000.0, rel=1e-12)

    def test_weight_scales_with_target_over_vol(self):
        noisy = gbm_series(np.random.default_rng(6), 250, vol=0.8,
                           drift=2.0, t0=PRE, symbol="NSY")
        caps = [MarketCapRecord("NSY", JAN31, 1e9)]
        end = int(noisy.timestamps[-1])
        run = run_benchmark(BenchmarkSpec(kind="vol_scaled_tsmom"),
                            market_of({"NSY": noisy}, caps),
                            bench_cfg({"NSY": noisy}, end))
        feb = [t for t in records(run.trades) if t.entry_ts < MAR1]
        sigma = realized_vol(noisy, FEB1, 60)
        expected = min(0.10 / sigma, 4.0) * 100_000.0
        assert len(feb) == 1
        assert feb[0].size == pytest.approx(expected, rel=1e-12)

    def test_gross_exposure_at_most_cap(self):
        universe, caps = three_symbol_universe()
        end = int(universe["UPA"].timestamps[-1])
        run = run_benchmark(BenchmarkSpec(kind="vol_scaled_tsmom"),
                            market_of(universe, caps), bench_cfg(universe, end))
        feb_notional = sum(t.size for t in records(run.trades)
                           if t.entry_ts < MAR1)
        assert feb_notional <= 4.0 * 100_000.0 * (1.0 + 1e-12)


class TestBuyHold:
    def doubling_universe(self):
        n = 250
        closes = [100.0 * 2.0 ** (i / (n - 1)) for i in range(n)]
        s = make_series(closes, symbol="BIG", t0=PRE, wick=0.05)
        return {"BIG": s}, [MarketCapRecord("BIG", JAN31, 9e9)]

    def test_full_balance_tracks_price(self):
        universe, caps = self.doubling_universe()
        series = universe["BIG"]
        end = int(series.timestamps[-1])
        run = run_benchmark(BenchmarkSpec(kind="buy_hold"),
                            market_of(universe, caps), bench_cfg(universe, end))
        assert len(run.trades) == 1
        t = records(run.trades)[0]
        assert t.size == 100_000.0
        i0 = int(np.searchsorted(series.timestamps, FEB1, "left"))
        expected = 100_000.0 * (series.close[-1] / series.close[i0])
        assert run.equity.balances[-1] == pytest.approx(expected, rel=1e-12)

    def test_defaults_to_largest_cap(self):
        universe, caps = three_symbol_universe()
        end = int(universe["UPA"].timestamps[-1])
        run = run_benchmark(BenchmarkSpec(kind="buy_hold"),
                            market_of(universe, caps), bench_cfg(universe, end))
        assert records(run.trades)[0].symbol == "UPA"

    def test_explicit_symbol(self):
        universe, caps = three_symbol_universe()
        end = int(universe["UPA"].timestamps[-1])
        run = run_benchmark(BenchmarkSpec(kind="buy_hold", symbol="DWN"),
                            market_of(universe, caps), bench_cfg(universe, end))
        assert records(run.trades)[0].symbol == "DWN"

    def test_unknown_symbol_rejected(self):
        universe, caps = three_symbol_universe()
        end = int(universe["UPA"].timestamps[-1])
        with pytest.raises(ValueError):
            run_benchmark(BenchmarkSpec(kind="buy_hold", symbol="NOPE"),
                          market_of(universe, caps), bench_cfg(universe, end))
        with pytest.raises(DataError, match="cap snapshot"):
            run_benchmark(BenchmarkSpec(kind="buy_hold"),
                          market_of(universe, []), bench_cfg(universe, end))
        with pytest.raises(DataError, match="no month boundary"):
            run_benchmark(BenchmarkSpec(kind="tsmom"),
                          market_of(universe, caps),
                          BacktestConfig(start=FEB1 + 1, end=MAR1 - 1))


class TestEqualWeight:
    def test_literal_universe_size_weights(self):
        universe, caps = three_symbol_universe()
        end = int(universe["UPA"].timestamps[-1])
        run = run_benchmark(BenchmarkSpec(kind="equal_weight_buy_hold",
                                          universe_size=20),
                            market_of(universe, caps), bench_cfg(universe, end))
        feb = [t for t in records(run.trades) if t.entry_ts < MAR1]
        assert len(feb) == 3
        assert all(t.size == pytest.approx(100_000.0 / 20.0, rel=1e-12)
                   for t in feb)
        assert all(t.side == "long" for t in records(run.trades))

    def test_symbol_order_invariance(self):
        universe, caps = three_symbol_universe()
        end = int(universe["UPA"].timestamps[-1])
        spec = BenchmarkSpec(kind="equal_weight_buy_hold", universe_size=3)
        fwd = run_benchmark(spec, market_of(universe, caps),
                            bench_cfg(universe, end))
        rev = run_benchmark(spec,
                            market_of(dict(reversed(list(universe.items()))),
                                      list(reversed(caps))),
                            bench_cfg(universe, end))
        np.testing.assert_array_equal(fwd.equity.balances, rev.equity.balances)


class TestRunMatchesReference:
    """Whole benchmark runs, bankruptcies included, equal the benchmarks'
    former month loop and hold loop (tests/scalar_reference.py)."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_symbols=st.integers(1, 4),
           jump=st.sampled_from([1.0, 0.2, 5.0]),
           cost=st.integers(0, len(COST_CHOICES) - 1),
           kind=st.sampled_from(["tsmom", "vol_scaled_tsmom", "buy_hold",
                                 "equal_weight_buy_hold"]),
           lookback=st.integers(1, 2), universe_size=st.integers(1, 5))
    def test_equity_and_trades(self, seed, n_symbols, jump, cost, kind,
                               lookback, universe_size):
        universe, caps = jumpy_universe(seed, n_symbols, jump)
        spec = BenchmarkSpec(kind=kind, lookback_months=lookback,
                             universe_size=universe_size)
        cfg = bench_cfg(universe, int(universe["RND"].timestamps[-1]),
                        costs=COST_CHOICES[cost])
        got = run_benchmark(spec, market_of(universe, caps), cfg)
        want = scalar_reference.run_benchmark(spec, universe, caps, cfg)
        np.testing.assert_array_equal(got.equity.timestamps,
                                      want.equity.timestamps)
        assert np.array_equal(got.equity.balances, want.equity.balances)
        assert got.equity.bankrupt == want.equity.bankrupt
        assert records(got.trades) == records(want.trades)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_symbols=st.integers(1, 4),
           jump=st.sampled_from([1.0, 0.2, 5.0]),
           cost=st.integers(0, len(COST_CHOICES) - 1),
           kind=st.sampled_from(["tsmom", "vol_scaled_tsmom", "buy_hold",
                                 "equal_weight_buy_hold"]))
    def test_accounting_identity(self, seed, n_symbols, jump, cost, kind):
        universe, caps = jumpy_universe(seed, n_symbols, jump)
        cfg = bench_cfg(universe, int(universe["RND"].timestamps[-1]),
                        costs=COST_CHOICES[cost])
        run = run_benchmark(BenchmarkSpec(kind=kind, universe_size=n_symbols),
                            market_of(universe, caps), cfg)
        assert run.equity.balances[0] == cfg.initial_balance
        assert_accounting_identity(run)


class TestSpecAndRun:
    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(kind="carry")

    def test_equity_anchor_and_metrics(self):
        universe, caps = three_symbol_universe()
        end = int(universe["UPA"].timestamps[-1])
        run = run_benchmark(BenchmarkSpec(kind="tsmom"),
                            market_of(universe, caps), bench_cfg(universe, end))
        assert run.equity.timestamps[0] == FEB1 - INTERVAL
        assert run.equity.balances[0] == 100_000.0
        assert np.all(np.diff(run.equity.timestamps) > 0)
        assert run.metrics.ann_return is not None
