"""Monthly account loop: sizing, aggregation, ablations, serialization."""

import logging
import math
from datetime import date

import numpy as np
import pytest

from adaptivetrend.backtester import (ABLATION_VARIANTS, BacktestConfig,
                                      EquityCurve, Market, ablation_config,
                                      aggregate_results, load_equity,
                                      month_starts_between, month_windows,
                                      run_ablation, run_backtest, run_windows,
                                      save_equity, snap_to_month,
                                      union_timeline)
from adaptivetrend.benchmarks import BenchmarkSpec, run_benchmark
from adaptivetrend.cost_model import CostConfig, ZERO_COSTS
from adaptivetrend.market_data import (CapIndex, DataError, MarketCapRecord,
                                       PriceSeries, SeriesArrays, month_add,
                                       month_id)
from adaptivetrend.rebalancer import ParamGrid, RebalanceConfig
from adaptivetrend.signal_engine import SingleAssetResult
from hypothesis import given, settings, strategies as st

from conftest import (COST_CHOICES, FEB1, INTERVAL, MAR1, SCRIPT_CLOSES, T0,
                      assert_accounting_identity, caps_for, gbm_series,
                      jumpy_universe, make_bars, make_series, market_of,
                      series_from_bars)
import scalar_reference

APR1 = 1_648_771_200
FEB28 = date(2022, 2, 28)

SMALL_GRID = ParamGrid(theta_entry=(0.05,), theta_entry_short=(0.05,),
                       alpha=(2.0,), lookback=(4,), atr_window=3)


def reb_cfg(**kw) -> RebalanceConfig:
    base = dict(k_long=1, k_short=1, gamma_long=-100.0, gamma_short=-100.0,
                long_ratio=0.7, grid=SMALL_GRID)
    base.update(kw)
    return RebalanceConfig(**base)


class TestMonthHelpers:
    def test_snap_to_month(self):
        assert snap_to_month(MAR1) == MAR1
        assert snap_to_month(MAR1 + 1) == APR1
        assert snap_to_month(MAR1 - 1) == MAR1

    def test_month_starts_between(self):
        assert month_starts_between(T0, T0) == [T0]
        assert month_starts_between(T0 + 5, APR1) == [FEB1, MAR1, APR1]
        assert month_starts_between(MAR1 + 1, APR1 - 1) == []


class TestAggregation:
    def test_union_timeline(self):
        a = make_series([10.0, 11.0, 12.0], t0=T0)
        b = make_series([10.0, 11.0, 12.0], t0=T0 + INTERVAL)
        timeline = union_timeline({"A": a, "B": b},
                                  (T0, T0 + 4 * INTERVAL))
        assert timeline.tolist() == [T0 + INTERVAL, T0 + 2 * INTERVAL,
                                     T0 + 3 * INTERVAL, T0 + 4 * INTERVAL]
        assert timeline.dtype == np.int64
        empty = union_timeline({"A": a, "B": b}, (T0 + 9 * INTERVAL,
                                                  T0 + 12 * INTERVAL))
        assert empty.dtype == np.int64 and len(empty) == 0
        assert union_timeline({}, (T0, T0 + INTERVAL)).dtype == np.int64

    def test_window_clips_timeline(self):
        a = make_series([10.0] * 10, t0=T0)
        timeline = union_timeline({"A": a}, (T0 + 3 * INTERVAL,
                                             T0 + 5 * INTERVAL))
        assert timeline.tolist() == [T0 + 3 * INTERVAL, T0 + 4 * INTERVAL,
                                     T0 + 5 * INTERVAL]

    @settings(max_examples=100, deadline=None)
    @given(steps=st.lists(st.lists(st.integers(1, 3), max_size=20),
                          max_size=5),
           window=st.tuples(st.integers(-2, 40), st.integers(-2, 40)))
    def test_union_timeline_is_the_unique_timestamps(self, steps, window):
        # Overlapping symbols with gaps, each a sorted run of timestamps.
        universe = {}
        for j, symbol_steps in enumerate(steps):
            ts = T0 + (j + np.cumsum(symbol_steps, dtype=np.int64)) * INTERVAL
            flat = np.full(len(ts), 10.0)
            universe[f"S{j}"] = PriceSeries(f"S{j}", INTERVAL, SeriesArrays(
                ts, flat, flat, flat, flat, flat))
        lo, hi = (T0 + k * INTERVAL for k in window)
        inside = [ts[(ts >= lo) & (ts <= hi)]
                  for ts in (u.arrays.timestamps for u in universe.values())]
        expected = np.unique(np.concatenate([np.empty(0, np.int64)] + inside))
        got = union_timeline(universe, (lo, hi))
        assert got.dtype == np.int64 and got.tolist() == expected.tolist()

    def _result(self, timestamps, realized, mtm, ocost):
        n = len(timestamps)
        zeros = np.zeros(n)
        return SingleAssetResult(
            symbol="X", timestamps=np.array(timestamps, dtype=np.int64),
            position=np.zeros(n, dtype=np.int8), stop=zeros.copy(),
            gross_returns=zeros.copy(), net_returns=zeros.copy(),
            costs=zeros.copy(), realized_cum=np.array(realized, dtype=float),
            open_mtm=np.array(mtm, dtype=float),
            open_costs=np.array(ocost, dtype=float), trades=[])

    def test_forward_fill_and_sum(self):
        res_a = self._result([10, 20], [1.0, 2.0], [0.5, 0.0], [0.1, 0.2])
        res_b = self._result([15], [10.0], [1.0], [0.0])
        timeline = np.array([5, 10, 15, 20, 25], dtype=np.int64)
        realized, mtm, ocost = aggregate_results(timeline, [res_a, res_b])
        assert realized.tolist() == [0.0, 1.0, 11.0, 12.0, 12.0]
        assert mtm.tolist() == [0.0, 0.5, 1.5, 1.0, 1.0]
        assert ocost.tolist() == [0.0, 0.1, 0.1, 0.2, 0.2]

    def test_empty_results(self):
        timeline = np.array([10, 20], dtype=np.int64)
        realized, mtm, ocost = aggregate_results(timeline, [])
        assert realized.tolist() == [0.0, 0.0]
        assert mtm.tolist() == [0.0, 0.0] and ocost.tolist() == [0.0, 0.0]


def month_oracle_universe():
    """Feb sine swing (optimization month) + scripted March closes."""
    feb = [100.0 + 10.0 * math.sin(2 * math.pi * i / 36.0) for i in range(111)]
    series = make_series(feb + SCRIPT_CLOSES, symbol="SOLO", t0=FEB1)
    caps = [MarketCapRecord("SOLO", FEB28, 1e9)]
    return {"SOLO": series}, caps


def month_oracle_cfg(costs) -> BacktestConfig:
    reb = reb_cfg(gamma_short=1e9)  # long sleeve only
    return BacktestConfig(start=MAR1, end=1_646_503_200,
                          initial_balance=100_000.0, interval=INTERVAL,
                          rebalance=reb, costs=costs)


class TestSingleMonthRun:
    """One long, sized at 0.7 x 100k, stopped out mid-March. The ledger and
    final balances below were worked out by hand from the close path."""

    def test_zero_cost_run(self):
        universe, caps = month_oracle_universe()
        result = run_backtest(market_of(universe, caps),
                              month_oracle_cfg(ZERO_COSTS))
        assert len(result.trades) == 1
        t = result.trades[0]
        assert (t.side, t.entry_ts, t.entry_px) == ("long", 1646200800, 106.0)
        assert (t.exit_ts, t.exit_px, t.forced) == (1646330400, 103.0, False)
        assert t.size == 70_000.0
        assert t.gross_pnl == pytest.approx(-1981.1320754716976, rel=1e-12)
        assert result.equity.balances[-1] == pytest.approx(98018.8679245283,
                                                           rel=1e-12)
        assert result.equity.bankrupt is False
        assert_accounting_identity(result)

    def test_taker_fee_run(self):
        universe, caps = month_oracle_universe()
        costs = CostConfig(taker_fee_bps=4.0, slip_coeff=0.0, slip_cap_bps=50.0,
                           funding_rate_per_8h=0.0)
        result = run_backtest(market_of(universe, caps),
                              month_oracle_cfg(costs))
        t = result.trades[0]
        assert t.fee_cost == pytest.approx(55.20754716981132, rel=1e-12)
        assert t.net_pnl == pytest.approx(t.gross_pnl - t.fee_cost, rel=1e-12)
        assert result.equity.balances[-1] == pytest.approx(97963.6603773585,
                                                           rel=1e-12)
        assert_accounting_identity(result)

    def test_equity_timeline_and_anchor(self):
        universe, caps = month_oracle_universe()
        result = run_backtest(market_of(universe, caps),
                              month_oracle_cfg(ZERO_COSTS))
        eq = result.equity
        assert eq.timestamps[0] == MAR1 - INTERVAL
        assert eq.balances[0] == 100_000.0
        assert eq.timestamps[1] == MAR1
        assert eq.timestamps[-1] == 1_646_503_200
        assert len(eq) == 21  # anchor + 20 March bars
        assert np.all(np.diff(eq.timestamps) > 0)

    def test_rebalance_log(self):
        universe, caps = month_oracle_universe()
        result = run_backtest(market_of(universe, caps),
                              month_oracle_cfg(ZERO_COSTS))
        assert len(result.rebalance_log) == 1
        rec = result.rebalance_log[0]
        assert rec["month"] == "2022-03"
        assert rec["reoptimized"] is True
        assert rec["balance_start"] == 100_000.0
        assert [s["symbol"] for s in rec["selected_longs"]] == ["SOLO"]
        assert rec["selected_longs"][0]["weight"] == 0.7
        assert rec["selected_shorts"] == []


class TestEmptySelection:
    def test_flat_universe_holds_cash(self):
        series = make_series([100.0] * 131, symbol="FLT", t0=FEB1)
        caps = [MarketCapRecord("FLT", FEB28, 1e9)]
        cfg = month_oracle_cfg(ZERO_COSTS)
        result = run_backtest(market_of({"FLT": series}, caps), cfg)
        assert result.trades == []
        assert np.all(result.equity.balances == 100_000.0)
        assert result.portfolios[0].cash_weight == 1.0


    @pytest.mark.parametrize("long_ratio", [0.0, 1.0])
    def test_sleeve_without_capital_admits_nothing(self, long_ratio, caplog):
        # Long-only and short-only splits are valid: the sleeve with no share
        # of capital admits no candidate instead of sizing it at 0.
        symbols = [f"SYM{j:02d}" for j in range(4)]
        universe = {
            sym: gbm_series(np.random.default_rng(1000 + j), 356, symbol=sym,
                            vol=0.9, t0=T0)
            for j, sym in enumerate(symbols)
        }
        cfg = BacktestConfig(
            start=FEB1, end=int(universe[symbols[0]].arrays.timestamps[-1]),
            initial_balance=50_000.0, interval=INTERVAL,
            rebalance=reb_cfg(k_long=2, k_short=2, long_ratio=long_ratio),
            costs=CostConfig())
        with caplog.at_level(logging.INFO, logger="adaptivetrend.rebalancer"):
            result = run_backtest(market_of(universe, caps_for(symbols)), cfg)
        empty, live = ("long", "short") if long_ratio == 0.0 else ("short", "long")
        assert "sleeve has no capital" in caplog.text
        assert result.trades
        assert {t.side for t in result.trades} == {live}
        for portfolio, record in zip(result.portfolios, result.rebalance_log):
            assert getattr(portfolio, empty + "s") == ()
            assert record["selected_" + empty + "s"] == []
            weights = [a.weight for a in getattr(portfolio, live + "s")]
            assert portfolio.cash_weight == 1.0 - math.fsum(weights)
            assert portfolio.cash_weight == pytest.approx(0.0 if weights else 1.0,
                                                          abs=1e-12)
        assert_accounting_identity(result)


class TestMultiMonthAccounting:
    def test_identity_holds_with_costs(self):
        symbols = [f"SYM{j:02d}" for j in range(4)]
        universe = {
            sym: gbm_series(np.random.default_rng(1000 + j), 356, symbol=sym,
                            vol=0.9, t0=T0)
            for j, sym in enumerate(symbols)
        }
        end = int(universe[symbols[0]].arrays.timestamps[-1])
        cfg = BacktestConfig(
            start=FEB1, end=end, initial_balance=50_000.0, interval=INTERVAL,
            rebalance=reb_cfg(k_long=2, k_short=2), costs=CostConfig())
        result = run_backtest(market_of(universe, caps_for(symbols)), cfg)
        assert_accounting_identity(result)
        assert len(result.rebalance_log) == 2
        assert [r["month"] for r in result.rebalance_log] == \
            ["2022-02", "2022-03"]
        for t in result.trades:
            assert FEB1 <= t.entry_ts < t.exit_ts <= end
        entry_keys = [(t.entry_ts, t.exit_ts, t.symbol, t.side)
                      for t in result.trades]
        assert entry_keys == sorted(entry_keys)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_symbols=st.integers(1, 4),
           jump=st.sampled_from([1.0, 0.2, 5.0]),
           cost=st.integers(0, len(COST_CHOICES) - 1),
           long_ratio=st.sampled_from([0.2, 0.7]),
           trailing=st.booleans(), intrabar=st.booleans(),
           reoptimize=st.booleans())
    def test_shared_loop_matches_former_loop(self, seed, n_symbols, jump, cost,
                                             long_ratio, trailing, intrabar,
                                             reoptimize):
        # The whole run, bankruptcies included, equals the month loop as it
        # was before the benchmarks shared it (tests/scalar_reference.py).
        universe, caps = jumpy_universe(seed, n_symbols, jump)
        grid = ParamGrid(theta_entry=(0.005, 0.03), theta_entry_short=(0.005,),
                         alpha=(1.0, 3.0), lookback=(4,), atr_window=3)
        cfg = BacktestConfig(
            start=FEB1, end=int(universe["RND"].arrays.timestamps[-1]),
            initial_balance=50_000.0, interval=INTERVAL,
            rebalance=reb_cfg(k_long=2, k_short=2, grid=grid,
                              long_ratio=long_ratio),
            costs=COST_CHOICES[cost], trailing_stop_enabled=trailing,
            intrabar_stop_fill=intrabar, reoptimize_enabled=reoptimize)
        got = run_backtest(market_of(universe, caps), cfg)
        want = scalar_reference.run_backtest(universe, caps, cfg)
        for name in ("timestamps", "balances"):
            assert np.array_equal(getattr(got.equity, name),
                                  getattr(want.equity, name)), name
        assert got.equity.bankrupt == want.equity.bankrupt
        for name in ("realized", "open_mtm", "open_costs"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.trades == want.trades
        assert got.rebalance_log == want.rebalance_log

    def test_insufficient_history_raises(self):
        series = gbm_series(np.random.default_rng(3), 50, t0=MAR1)
        caps = [MarketCapRecord(series.symbol, FEB28, 1e9)]
        cfg = BacktestConfig(start=MAR1, end=MAR1 + 40 * INTERVAL,
                             rebalance=reb_cfg(), costs=ZERO_COSTS)
        with pytest.raises(DataError):
            run_backtest(market_of({series.symbol: series}, caps), cfg)


class TestBankruptcy:
    def test_short_squeeze_halts_run(self):
        feb = [100.0 * 0.99 ** i for i in range(111)]
        march = [feb[-1] * 0.99 ** (i + 1) for i in range(3)] \
            + [196.0, 190.0, 185.0, 180.0, 178.0]
        grid = ParamGrid(theta_entry=(0.01,), theta_entry_short=(0.01,),
                         alpha=(2.0,), lookback=(4,), atr_window=3)
        faller = make_series(feb + march, symbol="CRSH", t0=FEB1, wick=0.05)
        dummy = make_series([500.0] * len(feb + march), symbol="FLAT", t0=FEB1)
        caps = [MarketCapRecord("FLAT", FEB28, 9e9),
                MarketCapRecord("CRSH", FEB28, 1e9)]
        cfg = BacktestConfig(
            start=MAR1, end=int(faller.arrays.timestamps[-1]),
            initial_balance=100_000.0, interval=INTERVAL,
            rebalance=reb_cfg(gamma_long=1e9, long_ratio=0.0, grid=grid),
            costs=ZERO_COSTS)
        result = run_backtest(
            market_of({"CRSH": faller, "FLAT": dummy}, caps), cfg)
        assert result.equity.bankrupt is True
        assert result.equity.balances[-1] <= 0.0
        assert np.all(result.equity.balances[:-1] > 0.0)
        assert result.equity.timestamps[-1] < cfg.end
        assert result.trades[0].side == "short"

    def test_strategy_and_tsmom_halt_at_first_nonpositive_balance(self):
        # CRSH falls through February, so in March both the strategy's short
        # sleeve and TSMOM (negative one-month return) are short all of the
        # balance from the first bar; a squeeze to twice that bar's close then
        # costs exactly the balance, and both halt at a balance of 0.0. April,
        # the second month, must never trade.
        feb = [100.0 * 0.99 ** i for i in range(112)]
        entry = feb[-1] * 0.99
        march = [entry, entry * 0.99, entry * 0.98, 2.0 * entry,
                 190.0, 185.0, 180.0, 178.0]
        april = [178.0] * (len(feb) + 30 * 4 - len(march))
        closes = feb + march + april
        faller = make_series(closes, symbol="CRSH", t0=FEB1 - INTERVAL,
                             wick=0.05)
        dummy = make_series([500.0] * len(closes), symbol="FLAT",
                            t0=FEB1 - INTERVAL)
        universe = {"CRSH": faller, "FLAT": dummy}
        caps = [MarketCapRecord("FLAT", FEB28, 9e9),
                MarketCapRecord("CRSH", FEB28, 1e9)]
        grid = ParamGrid(theta_entry=(0.01,), theta_entry_short=(0.01,),
                         alpha=(2.0,), lookback=(4,), atr_window=3)
        cfg = BacktestConfig(
            start=MAR1, end=int(faller.arrays.timestamps[-1]),
            initial_balance=100_000.0, interval=INTERVAL,
            rebalance=reb_cfg(gamma_long=1e9, long_ratio=0.0, grid=grid),
            costs=ZERO_COSTS)
        assert cfg.end > APR1
        squeeze_ts = MAR1 + 3 * INTERVAL
        market = market_of(universe, caps)
        strategy = run_backtest(market, cfg)
        tsmom = run_benchmark(BenchmarkSpec(kind="tsmom"), market, cfg)
        for run in (strategy, tsmom):
            assert run.equity.bankrupt is True
            assert run.equity.timestamps[-1] == squeeze_ts
            assert run.equity.balances[-1] == 0.0
            assert np.all(run.equity.balances[:-1] > 0.0)
            first = run.trades[0]
            assert (first.symbol, first.side, first.entry_ts) == \
                ("CRSH", "short", MAR1)
            assert all(t.entry_ts < APR1 for t in run.trades)
        assert len(strategy.rebalance_log) == 1


class TestEmptyMonth:
    def test_month_without_bars_is_skipped_with_a_warning(self, caplog):
        # No symbol has a bar in March: January and February, then April.
        closes = [100.0 + 5.0 * math.sin(i / 5.0) for i in range(276)]
        series = series_from_bars("GAP", INTERVAL,
                                  make_bars(closes[:236], t0=T0 - INTERVAL)
                                  + make_bars(closes[236:], t0=APR1 - INTERVAL))
        ts = series.arrays.timestamps
        assert not np.any((ts >= MAR1) & (ts < APR1))
        universe = {"GAP": series}
        caps = [MarketCapRecord("GAP", FEB28, 1e9)]
        cfg = BacktestConfig(start=FEB1, end=int(ts[-1]),
                             initial_balance=100_000.0, interval=INTERVAL,
                             rebalance=reb_cfg(), costs=ZERO_COSTS)
        with caplog.at_level(logging.WARNING, logger="adaptivetrend.backtester"):
            market = market_of(universe, caps)
            result = run_backtest(market, cfg)
            bench = run_benchmark(BenchmarkSpec(kind="tsmom"), market, cfg)
        skipped = [r.getMessage() for r in caplog.records
                   if "no bars" in r.getMessage()]
        assert len(skipped) == 2 and all(m.startswith("2022-03:")
                                         for m in skipped)
        for equity in (result.equity, bench.equity):
            eq_ts = equity.timestamps
            assert not np.any((eq_ts >= MAR1) & (eq_ts < APR1))
            assert eq_ts[-1] == ts[-1]
        assert [r["month"] for r in result.rebalance_log] == \
            ["2022-02", "2022-03", "2022-04"]


DAY = 86_400


@st.composite
def spread_universes(draw):
    """Daily symbols that start and end on different bars with gaps, plus
    one symbol with no bars."""
    universe = {"NONE": PriceSeries("NONE", DAY, SeriesArrays(
        *([np.empty(0, np.int64)] + [np.empty(0)] * 5)))}
    for j in range(draw(st.integers(1, 4))):
        first = draw(st.integers(0, 150))
        days = draw(st.lists(st.integers(first, first + 120), max_size=90,
                             unique=True))
        ts = T0 + np.sort(np.array(days, dtype=np.int64)) * DAY
        flat = np.full(len(ts), 10.0)
        universe[f"S{j}"] = PriceSeries(f"S{j}", DAY, SeriesArrays(
            ts, flat, flat, flat, flat, flat))
    return universe


class TestOneTimeline:
    @settings(max_examples=100, deadline=None)
    @given(universe=spread_universes(), first=st.integers(0, 7),
           n_months=st.integers(1, 4), cut=st.integers(0, 40))
    def test_window_slices_equal_the_per_window_union(self, universe, first,
                                                      n_months, cut):
        market = Market(universe, CapIndex())
        stamps = [s.arrays.timestamps for s in universe.values()]
        assert market.timeline.tolist() == np.unique(
            np.concatenate(stamps)).tolist()
        start = month_add(T0, first)
        end = month_add(start, n_months - 1) + cut * DAY
        windows = month_windows(month_starts_between(start, end), end)
        # run_windows reads the balance, interval and rf of the config; its
        # start and end are the windows' (end + DAY keeps end > start).
        cfg = BacktestConfig(start=start, end=end + DAY,
                             initial_balance=1_000.0, interval=DAY)
        unions = [union_timeline(universe, w) for w in windows]
        all_empty = all(len(union) == 0 for union in unions)
        records = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = records.append
        logger = logging.getLogger("adaptivetrend.backtester")
        logger.addHandler(handler)
        try:
            if all_empty:
                with pytest.raises(DataError, match=(
                        rf"no bars in \[{windows[0][0]}, {windows[-1][1]}\]")):
                    run_windows(market.timeline, windows, cfg,
                                lambda w, b: [], net_first=True)
            else:
                result = run_windows(market.timeline, windows, cfg,
                                     lambda w, b: [], net_first=True)
        finally:
            logger.removeHandler(handler)
        assert [r.getMessage() for r in records] == [
            f"{month_id(w[0])}: no bars in [{w[0]}, {w[1]}]; period skipped"
            for w, union in zip(windows, unions) if len(union) == 0]
        if all_empty:
            return
        equity = result.equity
        assert equity.timestamps.tolist() == [windows[0][0] - DAY] + [
            t for union in unions for t in union.tolist()]
        assert equity.balances.tolist() == [1_000.0] * len(equity)
        assert result.trades == []
        assert_accounting_identity(result)


class TestAblations:
    def universe_two_months(self):
        up = make_series([100.0 * 1.005 ** i for i in range(250)],
                         symbol="UP", t0=T0, wick=0.05)
        dn = make_series([100.0 * 0.995 ** i for i in range(250)],
                         symbol="DN", t0=T0, wick=0.05)
        caps = [MarketCapRecord("UP", date(2022, 1, 31), 2e9),
                MarketCapRecord("DN", date(2022, 1, 31), 1e9)]
        return {"UP": up, "DN": dn}, caps

    def base_cfg(self, **kw):
        grid = ParamGrid(theta_entry=(0.01,), theta_entry_short=(0.01,),
                         alpha=(3.0,), lookback=(4,), atr_window=3)
        base = dict(start=FEB1, end=T0 + 250 * INTERVAL,
                    initial_balance=100_000.0, interval=INTERVAL,
                    rebalance=reb_cfg(grid=grid), costs=ZERO_COSTS)
        base.update(kw)
        return BacktestConfig(**base)

    def test_variant_flags(self):
        cfg = self.base_cfg()
        assert ablation_config(cfg, "full") is cfg
        assert ablation_config(cfg, "no_trailing_stop") \
            .trailing_stop_enabled is False
        assert ablation_config(cfg, "no_cap_filter").cap_filter_enabled is False
        assert ablation_config(cfg, "no_sharpe_filter") \
            .sharpe_filter_enabled is False
        assert ablation_config(cfg, "symmetric_allocation") \
            .rebalance.long_ratio == 0.5
        assert ablation_config(cfg, "fixed_params").reoptimize_enabled is False
        with pytest.raises(ValueError):
            ablation_config(cfg, "bogus")
        assert len(ABLATION_VARIANTS) == 6

    def test_full_variant_matches_plain_run(self):
        universe, caps = self.universe_two_months()
        cfg = self.base_cfg()
        result = run_ablation(market_of(universe, caps), cfg, "full")
        plain = run_backtest(market_of(universe, caps), cfg)
        np.testing.assert_array_equal(result.equity.balances,
                                      plain.equity.balances)
        assert result.trades == plain.trades
        assert result.metrics.sharpe is not None

    def test_symmetric_allocation_weights(self):
        universe, caps = self.universe_two_months()
        result = run_ablation(market_of(universe, caps), self.base_cfg(),
                              "symmetric_allocation")
        for port in result.portfolios:
            assert math.fsum(a.weight for a in port.longs) == \
                pytest.approx(0.5, abs=1e-15)
            assert math.fsum(a.weight for a in port.shorts) == \
                pytest.approx(0.5, abs=1e-15)

    def test_fixed_params_carries_first_month(self):
        universe, caps = self.universe_two_months()
        result = run_ablation(market_of(universe, caps), self.base_cfg(),
                              "fixed_params")
        flags = [r["reoptimized"] for r in result.rebalance_log]
        assert flags == [True, False]
        assert result.rebalance_log[1]["carried_from"] == "2022-02"
        first, second = result.portfolios
        assert first.month == "2022-02" and second.month == "2022-03"
        assert [(a.symbol, a.params, a.weight) for a in first.longs] == \
            [(a.symbol, a.params, a.weight) for a in second.longs]

    def test_sharpe_filter_bypass_admits_candidates(self):
        universe, caps = self.universe_two_months()
        cfg = self.base_cfg(rebalance=reb_cfg(
            gamma_long=1e9, gamma_short=1e9,
            grid=ParamGrid(theta_entry=(0.01,), theta_entry_short=(0.01,),
                           alpha=(3.0,), lookback=(4,), atr_window=3)))
        gated = run_backtest(market_of(universe, caps), cfg)
        assert gated.trades == []
        bypassed = run_ablation(market_of(universe, caps), cfg,
                                "no_sharpe_filter")
        assert len(bypassed.trades) > 0


class TestEquityIo:
    def test_round_trip(self, tmp_path):
        curve = EquityCurve(
            timestamps=np.array([T0, T0 + INTERVAL], dtype=np.int64),
            balances=np.array([100000.0, 99876.54321012345]))
        path = tmp_path / "equity.csv"
        save_equity(curve, str(path))
        loaded = load_equity(str(path))
        np.testing.assert_array_equal(loaded.timestamps, curve.timestamps)
        np.testing.assert_array_equal(loaded.balances, curve.balances)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "equity.csv"
        path.write_text("time,value\n1,2\n")
        with pytest.raises(DataError):
            load_equity(str(path))

    def test_bad_row_names_line(self, tmp_path):
        path = tmp_path / "equity.csv"
        path.write_text("timestamp,balance\n100,1.0\nxyz,2.0\n")
        with pytest.raises(DataError, match="line 3"):
            load_equity(str(path))
