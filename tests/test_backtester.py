"""Monthly account loop: sizing, aggregation, ablations, serialization."""

import logging
import math
import tracemalloc
import weakref
from dataclasses import astuple, replace
from datetime import date

import numpy as np
import pytest

from adaptivetrend.backtester import (ABLATION_VARIANTS, BacktestConfig,
                                      EquityCurve, Market, ablation_config,
                                      aggregate_results, load_equity,
                                      month_starts_between, month_windows,
                                      run_backtest, run_windows,
                                      save_equity, snap_to_month,
                                      union_timeline)
from adaptivetrend import signal_engine
from adaptivetrend.benchmarks import (BENCHMARK_KINDS, BenchmarkSpec,
                                      run_benchmark)
from adaptivetrend.cost_model import CostConfig, ZERO_COSTS
from adaptivetrend.market_data import (CapIndex, DataError, PriceSeries,
                                       month_add, month_id)
from adaptivetrend.rebalancer import ParamGrid, RebalanceConfig
from adaptivetrend.signal_engine import (Position, StrategyParams, Trades,
                                         book_trades, cell_positions)
from hypothesis import given, settings, strategies as st

from conftest import (COST_CHOICES, FEB1, INTERVAL, MAR1, SCRIPT_CLOSES, T0,
                      assert_accounting_identity, caps_for, gbm_series,
                      jumpy_universe, make_bars, make_series, market_of,
                      rough_series, series_from_bars)
import scalar_reference
from scalar_reference import MarketCapRecord, records, window_timeline

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

    def test_market_rejects_series_at_two_intervals(self):
        # Run silently, hourly bars among 6-hour bars would have been
        # annualized at one of the two intervals.
        six = gbm_series(np.random.default_rng(0), 4 * 120, symbol="SIX")
        hourly = gbm_series(np.random.default_rng(1), 24 * 120, symbol="HRLY",
                            interval=3600)
        cfg = BacktestConfig(start=FEB1, end=MAR1)
        for series in (six, hourly):
            market = Market({series.symbol: series}, CapIndex())
            assert market.interval == series.interval
            assert market.months(cfg) == [FEB1, MAR1]
        with pytest.raises(DataError,
                           match=r"series at bar intervals \[3600, 21600\] s"):
            Market({"SIX": six, "HRLY": hourly}, CapIndex())

    def test_market_on_one_clock_allocates_less_than_its_series(self):
        # 64 series on one clock, each built from its own copy of it as a
        # loader builds them: the market's timeline is folded from their
        # one shared array, not concatenated and sorted.
        clock = T0 + INTERVAL * np.arange(1, 4097, dtype=np.int64)
        flat = np.full(len(clock), 10.0)
        universe = {f"S{j}": PriceSeries(f"S{j}", INTERVAL, clock.copy(),
                                         flat, flat, flat, flat, flat)
                    for j in range(64)}
        caps = CapIndex()
        tracemalloc.start()
        try:
            market = Market(universe, caps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert market.timeline.tolist() == clock.tolist()
        assert peak < 4 * clock.nbytes

    def test_market_rejects_no_series(self):
        # Without a series there is no interval to check, and the message
        # names that cause.
        with pytest.raises(DataError, match="at least one price series"):
            Market({}, CapIndex())


class TestAggregation:
    def test_union_timeline(self):
        a = make_series([10.0, 11.0, 12.0], t0=T0)
        b = make_series([10.0, 11.0, 12.0], t0=T0 + INTERVAL)
        timeline = union_timeline({"A": a, "B": b})
        assert timeline.tolist() == [T0 + INTERVAL, T0 + 2 * INTERVAL,
                                     T0 + 3 * INTERVAL, T0 + 4 * INTERVAL]
        assert timeline.dtype == np.int64
        empty = window_timeline({"A": a, "B": b}, (T0 + 9 * INTERVAL,
                                                   T0 + 12 * INTERVAL))
        assert empty.dtype == np.int64 and len(empty) == 0
        assert union_timeline({}).dtype == np.int64

    def test_window_clips_timeline(self):
        a = make_series([10.0] * 10, t0=T0)
        timeline = window_timeline({"A": a}, (T0 + 3 * INTERVAL,
                                              T0 + 5 * INTERVAL))
        assert timeline.tolist() == [T0 + 3 * INTERVAL, T0 + 4 * INTERVAL,
                                     T0 + 5 * INTERVAL]

    @settings(max_examples=150, deadline=None)
    @given(clocks=st.lists(st.tuples(st.integers(0, 30),
                                     st.lists(st.integers(1, 3), max_size=20)),
                           min_size=1, max_size=3),
           picks=st.lists(st.tuples(st.integers(0, 2), st.booleans()),
                          max_size=6),
           window=st.tuples(st.integers(-2, 60), st.integers(-2, 60)))
    def test_union_timeline_is_the_unique_timestamps(self, clocks, picks,
                                                     window):
        # Each series is on one of a few clocks, sorted runs of timestamps
        # with gaps that may repeat, and may lie outside the window that
        # the union is sliced to. A reversed clock has the same length and
        # end points but, unless its steps are a palindrome, other bars in
        # between.
        universe = {}
        for j, (c, reverse) in enumerate(picks):
            offset, steps = clocks[c % len(clocks)]
            steps = steps[::-1] if reverse else steps
            ts = T0 + (offset + np.cumsum(steps, dtype=np.int64)) * INTERVAL
            flat = np.full(len(ts), 10.0)
            universe[f"S{j}"] = PriceSeries(f"S{j}", INTERVAL, ts, flat, flat,
                                            flat, flat, flat)
        lo, hi = (T0 + k * INTERVAL for k in window)
        stamps = [np.empty(0, np.int64)] + [u.timestamps
                                            for u in universe.values()]
        expected = np.unique(np.concatenate(stamps))
        got = union_timeline(universe)
        assert got.dtype == np.int64 and got.tolist() == expected.tolist()
        inside = expected[(expected >= lo) & (expected <= hi)]
        assert window_timeline(universe, (lo, hi)).tolist() == inside.tolist()

    def test_forward_fill_and_sum(self):
        # A long of 1000 from 100 to 150 over bars 10, 20 and a short of 100
        # from 200 over bars 15, 25, 35 (100, then 300), at zero cost.
        def held(symbol, ts, closes, short):
            flat = np.array(closes)
            series = PriceSeries(symbol, 5, np.array(ts, dtype=np.int64),
                                 flat, flat, flat, flat, flat)
            found = Trades(np.zeros(1, np.intp), np.zeros(1, np.intp),
                           np.array([len(ts) - 1]), flat[-1:],
                           np.array([True]), np.array([short]))
            return Position(series, (0, len(ts)), found,
                            100.0 if short else 1000.0)

        marks = np.arange(5, 45, 5, dtype=np.int64)
        realized, mtm, ocost, ledger = aggregate_results(
            marks, [held("A", [10, 20], [100.0, 150.0], False),
                    held("B", [15, 25, 35], [200.0, 100.0, 300.0], True)],
            ZERO_COSTS, charge_funding=True)
        assert realized.tolist() == [0.0, 0.0, 0.0, 500.0, 500.0, 500.0,
                                     450.0, 450.0]
        assert mtm.tolist() == [0.0, 0.0, 0.0, 0.0, 50.0, 50.0, 0.0, 0.0]
        assert ocost.tolist() == [0.0] * 8
        assert [(t.symbol, t.net_pnl) for t in records(ledger)] == [
            ("A", 500.0), ("B", -50.0)]

    def test_empty_results(self):
        timeline = np.array([10, 20], dtype=np.int64)
        realized, mtm, ocost, ledger = aggregate_results(
            timeline, [], ZERO_COSTS, charge_funding=True)
        assert realized.tolist() == [0.0, 0.0]
        assert mtm.tolist() == [0.0, 0.0] and ocost.tolist() == [0.0, 0.0]
        assert len(ledger) == 0


def drawn_trades(data, close):
    """Trades in time order over the bars of ``close``, as the ledger takes
    them: one-bar, forced and two-sided ones among them, or none."""
    n = len(close)
    bars = sorted(data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                     max_size=10), label="bars")) if n > 1 else []
    bars = bars[:len(bars) // 2 * 2]
    k = len(bars) // 2
    entry, exit_ = (np.array(bars[i::2], dtype=np.intp) for i in (0, 1))
    drift = data.draw(st.lists(st.sampled_from([1.0, 0.97, 1.05]),
                               min_size=k, max_size=k), label="exit drift")
    flags = data.draw(st.lists(st.tuples(st.booleans(), st.booleans()),
                               min_size=k, max_size=k), label="forced, short")
    return Trades(np.zeros(k, np.intp), entry, exit_,
                  close[exit_] * np.array(drift, dtype=float),
                  np.array([f for f, _ in flags], dtype=bool),
                  np.array([s for _, s in flags], dtype=bool))


CELLS = st.builds(StrategyParams,
                  theta_entry=st.sampled_from([0.002, 0.02, math.inf]),
                  theta_entry_short=st.sampled_from([0.002, 0.02, math.inf]),
                  alpha=st.sampled_from([0.5, 2.0]),
                  lookback=st.sampled_from([1, 3]),
                  atr_window=st.sampled_from([2, 3]))


@st.composite
def window_costs(draw, symbols):
    """A cost config with a per-symbol funding table for some symbols."""
    tables = {}
    for symbol in symbols:
        if draw(st.booleans(), label=f"{symbol} table"):
            stamps = draw(st.lists(st.integers(-20, 400), min_size=1,
                                   max_size=3, unique=True), label="at")
            tables[symbol] = [(T0 + 3_600 * k, draw(st.sampled_from(
                [-4e-4, 0.0, 7e-4]), label="rate")) for k in sorted(stamps)]
    return CostConfig(
        taker_fee_bps=draw(st.sampled_from([0.0, 4.0])),
        slip_coeff=draw(st.sampled_from([0.0, 0.1, 5.0])),
        slip_cap_bps=draw(st.sampled_from([0.0, 50.0])),
        funding_rate_per_8h=draw(st.sampled_from([0.0, 1e-4, -3e-4])),
        funding_hours=draw(st.sampled_from([(0, 8, 16), (3, 11, 19), (5,)])),
        funding_rates=tables or None)


class TestWindowLedger:
    """aggregate_results books a window's positions together exactly as
    book_trades books each alone, forward-filled onto the marks and summed
    one result at a time (scalar_reference.aggregate_results): the arrays
    and the records are equal bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           interval=st.sampled_from([3_600, 21_600, 43_200, 86_400]),
           n_symbols=st.integers(1, 3), bounds=st.tuples(st.integers(0, 30),
                                                         st.integers(0, 80)),
           charge_funding=st.booleans(), data=st.data())
    def test_equals_booking_each_position(self, seed, interval, n_symbols,
                                          bounds, charge_funding, data):
        rng = np.random.default_rng(seed)
        universe = {f"S{j}": rough_series(rng, int(rng.integers(0, 80)),
                                          interval, gaps=True,
                                          zero_volume=0.2, symbol=f"S{j}")
                    for j in range(n_symbols)}
        a, b = sorted(bounds)
        window = (T0 + a * interval, T0 + (b + 20) * interval)
        marks = window_timeline(universe, window)
        cost = data.draw(window_costs(sorted(universe)), label="costs")
        positions = []
        for _ in range(data.draw(st.integers(0, 6), label="positions")):
            series = universe[data.draw(st.sampled_from(sorted(universe)),
                                        label="symbol")]
            size = data.draw(st.sampled_from([1.0, 3_333.3, 250_000.0]),
                             label="size")
            if data.draw(st.booleans(), label="searched"):
                positions.append(cell_positions(
                    [(series, data.draw(CELLS, label="cell"), size)], window,
                    trailing=data.draw(st.booleans(), label="trailing"),
                    intrabar_stop_fill=data.draw(st.booleans(),
                                                 label="intrabar"))[0])
            else:
                i0, i1 = series.slice_indices(*window)
                positions.append(Position(series, (i0, i1), drawn_trades(
                    data, series.close[i0:i1]), size))
        *got, ledger = aggregate_results(marks, positions, cost,
                                         charge_funding=charge_funding)
        booked = [book_trades(*p, cost, charge_funding=charge_funding)
                  for p in positions]
        want = scalar_reference.aggregate_results(marks, booked)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        exact = lambda trades: [tuple(map(repr, astuple(t)))  # noqa: E731
                                for t in trades]
        assert exact(records(ledger)) == exact(
            [t for r in booked for t in records(r.trades)])


class TestLedgerOrder:
    """run_windows orders the windows' ledgers with one stable lexsort on
    (entry_ts, exit_ts, symbol, side): the order that a stable sort of the
    rows, in booking order, by that key gives. Rows whose keys tie (one
    symbol, side and bars, at several weights) keep their booking order.
    Each row is booked at its weight x its window's start balance."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_lexsort_is_a_stable_sort_of_the_rows(self, seed, data):
        rng = np.random.default_rng(seed)
        universe = {sym: gbm_series(rng, 24, symbol=sym)
                    for sym in ("A", "AB", "B")}
        ts = universe["A"].timestamps
        windows = [(int(ts[0]), int(ts[11])), (int(ts[12]), int(ts[-1]))]
        drawn = {}
        for window in windows:
            drawn[window] = []
            for _ in range(data.draw(st.integers(0, 8), label="positions")):
                series = universe[data.draw(st.sampled_from(sorted(universe)),
                                            label="symbol")]
                i0, i1 = series.slice_indices(*window)
                e = data.draw(st.integers(0, 2), label="entry")
                x = e + data.draw(st.integers(1, 2), label="bars held")
                found = Trades(np.zeros(1, np.intp), np.array([e]),
                               np.array([x]), series.close[i0 + x:i0 + x + 1],
                               np.array([False]),
                               np.array([data.draw(st.booleans(),
                                                   label="short")]))
                drawn[window].append(Position(series, (i0, i1), found,
                                              data.draw(st.sampled_from(
                                                  [0.001, 0.002, 0.003]),
                                                  label="weight")))
        cfg = BacktestConfig(start=windows[0][0], end=windows[-1][1],
                             initial_balance=1e6, interval=INTERVAL)
        result = run_windows(market_of(universe, []), windows,
                             [drawn[window] for window in windows], cfg,
                             net_first=True)
        equity = result.equity
        starts = equity.balances[np.searchsorted(
            equity.timestamps, [window[0] for window in windows]) - 1]
        rows = [t for window, balance in zip(windows, starts.tolist())
                for p in drawn[window] for t in records(book_trades(
                    *p._replace(size=p.size * balance), cfg.costs).trades)]
        assert records(result.trades) == sorted(
            rows, key=lambda t: (t.entry_ts, t.exit_ts, t.symbol, t.side))


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
        t = records(result.trades)[0]
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
        t = records(result.trades)[0]
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
        assert len(result.trades) == 0
        assert np.all(result.equity.balances == 100_000.0)
        assert result.portfolios[0].cash_weight == 1.0


    @pytest.mark.parametrize("long_ratio", [0.0, 5e-324, 1.0])
    def test_sleeve_without_capital_admits_nothing(self, long_ratio, caplog):
        # Long-only and short-only splits are valid: the sleeve with no share
        # of capital admits no candidate instead of sizing it at 0. A share
        # that splits to 0 over the sleeve's candidates (5e-324 / 2) is none.
        symbols = [f"SYM{j:02d}" for j in range(4)]
        universe = {
            sym: gbm_series(np.random.default_rng(1000 + j), 356, symbol=sym,
                            vol=0.9, t0=T0)
            for j, sym in enumerate(symbols)
        }
        cfg = BacktestConfig(
            start=FEB1, end=int(universe[symbols[0]].timestamps[-1]),
            initial_balance=50_000.0, interval=INTERVAL,
            rebalance=reb_cfg(k_long=2, k_short=2, long_ratio=long_ratio),
            costs=CostConfig())
        with caplog.at_level(logging.INFO, logger="adaptivetrend.rebalancer"):
            result = run_backtest(market_of(universe, caps_for(symbols)), cfg)
        empty, live = ("long", "short") if long_ratio < 0.5 else ("short", "long")
        assert "sleeve has no capital" in caplog.text
        assert result.trades
        assert {t.side for t in records(result.trades)} == {live}
        for portfolio, record in zip(result.portfolios, result.rebalance_log):
            assert getattr(portfolio, empty + "s") == ()
            assert record["selected_" + empty + "s"] == []
            weights = [a.weight for a in getattr(portfolio, live + "s")]
            assert portfolio.cash_weight == 1.0 - math.fsum(weights)
            assert portfolio.cash_weight == pytest.approx(0.0 if weights else 1.0,
                                                          abs=1e-12)
        assert_accounting_identity(result)


def jumpy_caps(seed, n_symbols, jump, smallest):
    """jumpy_universe, its jumping symbol the largest cap (a long candidate)
    or, if ``smallest``, the smallest (a short candidate once there are
    two symbols or more): only a short can lose more than the balance."""
    universe, caps = jumpy_universe(seed, n_symbols, jump)
    return universe, (caps_for(list(reversed(list(universe)))) if smallest
                      else caps)


def _root(array: np.ndarray) -> np.ndarray:
    while array.base is not None:
        array = array.base
    return array


class TestHeldMemory:
    """What a run keeps per window and per series: the booked sums of a
    window's marks, and the ATR state of the series."""

    def test_booked_sums_own_their_memory(self):
        # A run keeps every window's sums: each must be backed by its marks
        # alone, not by the (positions x marks) sums they are read from.
        universe = {sym: gbm_series(np.random.default_rng(j), 120,
                                    symbol=sym, vol=0.9)
                    for j, sym in enumerate(["A", "B", "C"])}
        marks = union_timeline(universe)
        cell = StrategyParams(theta_entry=0.01, theta_entry_short=0.01,
                              alpha=2.0, lookback=4, atr_window=3)
        positions = cell_positions([(series, cell, 1000.0)
                                    for series in universe.values()], None)
        *sums, ledger = aggregate_results(marks, positions, CostConfig(),
                                          charge_funding=True)
        assert len(ledger) > 0
        roots = {id(_root(a)): _root(a) for a in sums}
        assert sum(root.size for root in roots.values()) <= 3 * len(marks)

    def test_a_backtest_holds_a_float_per_atr_stride_bars(self):
        # Every series-keyed memo of the trading engine but the trades' is
        # ATR state: after a run, at most one float per 64 bars and one more.
        symbols = [f"SYM{j:02d}" for j in range(3)]
        universe = {sym: gbm_series(np.random.default_rng(2000 + j), 356,
                                    symbol=sym, vol=0.9, t0=T0)
                    for j, sym in enumerate(symbols)}
        cfg = BacktestConfig(
            start=FEB1, end=int(universe[symbols[0]].timestamps[-1]),
            initial_balance=50_000.0, interval=INTERVAL,
            rebalance=reb_cfg(k_long=2, k_short=2), costs=CostConfig())
        run_backtest(market_of(universe, caps_for(symbols)), cfg)
        memos = [memo for memo in vars(signal_engine).values()
                 if isinstance(memo, weakref.WeakKeyDictionary)
                 and memo is not signal_engine._trades_memo]
        assert memos
        for series in universe.values():
            held = [memo[series] for memo in memos if series in memo]
            assert held  # the optimizer and the trader read it
            floats = sum(a.size for value in held for a in (
                value.values() if isinstance(value, dict) else [value]))
            assert floats <= len(series) // 64 + 1


class TestMultiMonthAccounting:
    def test_identity_holds_with_costs(self):
        symbols = [f"SYM{j:02d}" for j in range(4)]
        universe = {
            sym: gbm_series(np.random.default_rng(1000 + j), 356, symbol=sym,
                            vol=0.9, t0=T0)
            for j, sym in enumerate(symbols)
        }
        end = int(universe[symbols[0]].timestamps[-1])
        cfg = BacktestConfig(
            start=FEB1, end=end, initial_balance=50_000.0, interval=INTERVAL,
            rebalance=reb_cfg(k_long=2, k_short=2), costs=CostConfig())
        result = run_backtest(market_of(universe, caps_for(symbols)), cfg)
        assert_accounting_identity(result)
        assert len(result.rebalance_log) == 2
        assert [r["month"] for r in result.rebalance_log] == \
            ["2022-02", "2022-03"]
        for t in records(result.trades):
            assert FEB1 <= t.entry_ts < t.exit_ts <= end
        entry_keys = [(t.entry_ts, t.exit_ts, t.symbol, t.side)
                      for t in records(result.trades)]
        assert entry_keys == sorted(entry_keys)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_symbols=st.integers(1, 4),
           jump=st.sampled_from([1.0, 0.2, 5.0]),
           cost=st.integers(0, len(COST_CHOICES) - 1),
           long_ratio=st.sampled_from([0.2, 0.7]),
           trailing=st.booleans(), intrabar=st.booleans(),
           reoptimize=st.booleans(), smallest=st.booleans())
    def test_shared_loop_matches_former_loop(self, seed, n_symbols, jump, cost,
                                             long_ratio, trailing, intrabar,
                                             reoptimize, smallest):
        # The whole run, bankruptcies included, equals the month loop as it
        # was before the benchmarks shared it (tests/scalar_reference.py).
        universe, caps = jumpy_caps(seed, n_symbols, jump, smallest)
        grid = ParamGrid(theta_entry=(0.005, 0.03), theta_entry_short=(0.005,),
                         alpha=(1.0, 3.0), lookback=(4,), atr_window=3)
        cfg = BacktestConfig(
            start=FEB1, end=int(universe["RND"].timestamps[-1]),
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
        assert records(got.trades) == records(want.trades)
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
            start=MAR1, end=int(faller.timestamps[-1]),
            initial_balance=100_000.0, interval=INTERVAL,
            rebalance=reb_cfg(gamma_long=1e9, long_ratio=0.0, grid=grid),
            costs=ZERO_COSTS)
        result = run_backtest(
            market_of({"CRSH": faller, "FLAT": dummy}, caps), cfg)
        assert result.equity.bankrupt is True
        assert result.equity.balances[-1] <= 0.0
        assert np.all(result.equity.balances[:-1] > 0.0)
        assert result.equity.timestamps[-1] < cfg.end
        assert records(result.trades)[0].side == "short"

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
            start=MAR1, end=int(faller.timestamps[-1]),
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
            first = records(run.trades)[0]
            assert (first.symbol, first.side, first.entry_ts) == \
                ("CRSH", "short", MAR1)
            # The ledger ends at the halt: the short is forced at the
            # squeeze's close, and no trade opens after it.
            assert all(t.entry_ts < squeeze_ts and t.exit_ts <= squeeze_ts
                       for t in records(run.trades))
            assert run.equity.balances[-1] == cfg.initial_balance + math.fsum(
                t.net_pnl for t in records(run.trades))
        assert len(strategy.rebalance_log) == 1
        # April is never decided either: the optimizer has done exactly the
        # work of a run that ends with March's last bar.
        march = market_of(universe, caps)
        run_backtest(march, replace(cfg, end=int(faller.timestamps[
            np.searchsorted(faller.timestamps, APR1) - 1])))
        counters = [[getattr(m.optimizer, name) for name in (
            "problems", "solved", "searches", "batches")]
            for m in (market, march)]
        assert counters[0] == counters[1] and counters[0][0] > 0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_symbols=st.integers(1, 4),
           jump=st.sampled_from([1.0, 0.2, 5.0, 20.0]),
           cost=st.integers(0, len(COST_CHOICES) - 1),
           long_ratio=st.floats(0.0, 1.0), smallest=st.booleans())
    def test_final_balance_is_initial_plus_net_pnl(self, seed, n_symbols,
                                                   jump, cost, long_ratio,
                                                   smallest):
        # Halted or not, every position is closed at the curve's last mark,
        # so the ledger accounts for the final balance (within perfbench's
        # BALANCE_REL_TOL of the initial balance, for the float order).
        universe, caps = jumpy_caps(seed, n_symbols, jump, smallest)
        grid = ParamGrid(theta_entry=(0.005, 0.03), theta_entry_short=(0.005,),
                         alpha=(1.0, 3.0), lookback=(4,), atr_window=3)
        cfg = BacktestConfig(
            start=FEB1, end=int(universe["RND"].timestamps[-1]),
            initial_balance=50_000.0, interval=INTERVAL,
            rebalance=reb_cfg(k_long=2, k_short=2, grid=grid,
                              long_ratio=long_ratio),
            costs=COST_CHOICES[cost])
        market = market_of(universe, caps)
        runs = [run_backtest(market, cfg)] + [
            run_benchmark(BenchmarkSpec(kind=kind, universe_size=n_symbols),
                          market, cfg) for kind in BENCHMARK_KINDS]
        for run in runs:
            net = math.fsum(t.net_pnl for t in records(run.trades))
            assert abs(run.equity.balances[-1] - (cfg.initial_balance + net)) \
                <= 1e-9 * cfg.initial_balance


class TestDecisionsIgnoreTheBalance:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_symbols=st.integers(1, 4),
           jump=st.sampled_from([1.0, 0.2, 5.0, 20.0]),
           cost=st.integers(0, len(COST_CHOICES) - 1),
           reoptimize=st.booleans(), smallest=st.booleans(),
           other=st.floats(1.0, 1e12))
    def test_two_initial_balances_decide_alike(self, seed, n_symbols, jump,
                                               cost, reoptimize, smallest,
                                               other):
        # A month's portfolio and a benchmark's positions are decided
        # without the balance, which only sizes them. The runs may halt at
        # other marks, so they agree over the windows both booked: the
        # rebalance records apart from balance_start, and the trades entered
        # before the earlier of the two curves' ends. Each run has a fresh
        # market, so no memo carries one run's decisions into the other.
        universe, caps = jumpy_caps(seed, n_symbols, jump, smallest)
        grid = ParamGrid(theta_entry=(0.005, 0.03), theta_entry_short=(0.005,),
                         alpha=(1.0, 3.0), lookback=(4,), atr_window=3)
        cfg = BacktestConfig(
            start=FEB1, end=int(universe["RND"].timestamps[-1]),
            initial_balance=50_000.0, interval=INTERVAL,
            rebalance=reb_cfg(k_long=2, k_short=2, grid=grid),
            costs=COST_CHOICES[cost], reoptimize_enabled=reoptimize)
        tsmom = BenchmarkSpec(kind="tsmom", universe_size=n_symbols)
        (strategy, bench), (other_strategy, other_bench) = [
            (run_backtest(market_of(universe, caps), run_cfg),
             run_benchmark(tsmom, market_of(universe, caps), run_cfg))
            for run_cfg in (cfg, replace(cfg, initial_balance=other))]
        n = min(len(strategy.rebalance_log), len(other_strategy.rebalance_log))
        assert strategy.portfolios[:n] == other_strategy.portfolios[:n]

        def decided(run):
            return [{key: value for key, value in record.items()
                     if key != "balance_start"}
                    for record in run.rebalance_log[:n]]

        assert decided(strategy) == decided(other_strategy)
        for run, other_run in ((bench, other_bench),
                               (strategy, other_strategy)):
            end = min(run.equity.timestamps[-1],
                      other_run.equity.timestamps[-1])
            rows = [sorted((t.symbol, t.side, t.entry_ts)
                           for t in records(r.trades) if t.entry_ts < end)
                    for r in (run, other_run)]
            assert rows[0] == rows[1]


class TestEmptyMonth:
    def test_month_without_bars_is_skipped_with_a_warning(self, caplog):
        # No symbol has a bar in March: January and February, then April.
        closes = [100.0 + 5.0 * math.sin(i / 5.0) for i in range(276)]
        series = series_from_bars("GAP", INTERVAL,
                                  make_bars(closes[:236], t0=T0 - INTERVAL)
                                  + make_bars(closes[236:], t0=APR1 - INTERVAL))
        ts = series.timestamps
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
    universe = {"NONE": PriceSeries("NONE", DAY, np.empty(0, np.int64),
                                    *[np.empty(0)] * 5)}
    for j in range(draw(st.integers(1, 4))):
        first = draw(st.integers(0, 150))
        days = draw(st.lists(st.integers(first, first + 120), max_size=90,
                             unique=True))
        ts = T0 + np.sort(np.array(days, dtype=np.int64)) * DAY
        flat = np.full(len(ts), 10.0)
        universe[f"S{j}"] = PriceSeries(f"S{j}", DAY, ts, flat, flat, flat,
                                        flat, flat)
    return universe


class TestOneTimeline:
    @settings(max_examples=100, deadline=None)
    @given(universe=spread_universes(), first=st.integers(0, 7),
           n_months=st.integers(1, 4), cut=st.integers(0, 40))
    def test_window_slices_equal_the_per_window_union(self, universe, first,
                                                      n_months, cut):
        market = Market(universe, CapIndex())
        stamps = [s.timestamps for s in universe.values()]
        assert market.timeline.tolist() == np.unique(
            np.concatenate(stamps)).tolist()
        start = month_add(T0, first)
        end = month_add(start, n_months - 1) + cut * DAY
        windows = month_windows(month_starts_between(start, end), end)
        # run_windows reads the balance and rf of the config and the
        # market's (daily) interval; its start and end are the windows'
        # (end + DAY keeps end > start).
        cfg = BacktestConfig(start=start, end=end + DAY,
                             initial_balance=1_000.0)
        unions = [window_timeline(universe, w) for w in windows]
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
                    run_windows(market, windows, [[] for _ in windows],
                                cfg, net_first=True)
            else:
                result = run_windows(market, windows, [[] for _ in windows],
                                     cfg, net_first=True)
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
        assert len(result.trades) == 0
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
        # The gate is gone whatever the thresholds were, 0 and negative too.
        for gamma in (-100.0, 0.0, 1.3):
            gated = replace(cfg, rebalance=replace(
                cfg.rebalance, gamma_long=gamma, gamma_short=-gamma))
            ungated = ablation_config(gated, "no_sharpe_filter").rebalance
            assert ungated.gamma_long == ungated.gamma_short == -math.inf
        assert ablation_config(cfg, "symmetric_allocation") \
            .rebalance.long_ratio == 0.5
        assert ablation_config(cfg, "fixed_params").reoptimize_enabled is False
        with pytest.raises(ValueError):
            ablation_config(cfg, "bogus")
        assert len(ABLATION_VARIANTS) == 6

    def test_symmetric_allocation_weights(self):
        universe, caps = self.universe_two_months()
        result = run_backtest(market_of(universe, caps), ablation_config(
            self.base_cfg(), "symmetric_allocation"))
        for port in result.portfolios:
            assert math.fsum(a.weight for a in port.longs) == \
                pytest.approx(0.5, abs=1e-15)
            assert math.fsum(a.weight for a in port.shorts) == \
                pytest.approx(0.5, abs=1e-15)

    def test_fixed_params_carries_first_month(self):
        universe, caps = self.universe_two_months()
        result = run_backtest(market_of(universe, caps), ablation_config(
            self.base_cfg(), "fixed_params"))
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
        assert len(gated.trades) == 0
        bypassed = run_backtest(market_of(universe, caps),
                                ablation_config(cfg, "no_sharpe_filter"))
        assert len(bypassed.trades) > 0


def _non_finite_cases():
    builders = {
        CostConfig: ("taker_fee_bps", "slip_coeff", "slip_cap_bps",
                     "funding_rate_per_8h"),
        (lambda **kw: StrategyParams(theta_entry=0.01, theta_entry_short=1.0,
                                     lookback=4, **kw)): ("alpha",),
        (lambda **kw: BacktestConfig(start=FEB1, end=MAR1, **kw)):
            ("initial_balance",),
        RebalanceConfig: ("gamma_long", "gamma_short", "rf_annual"),
    }
    for build, names in builders.items():
        for name in names:
            # +inf gamma is kept: it admits nothing, as -inf admits all.
            values = [math.nan] if name.startswith("gamma") else [
                math.nan, math.inf, -math.inf]
            for value in values:
                yield pytest.param(build, name, value, id=f"{name}={value}")


@pytest.mark.parametrize("build, name, value", _non_finite_cases())
def test_configs_reject_non_finite_values_when_built(build, name, value):
    # Accepted, a NaN fee failed mid-run in the engine's accounting check, an
    # infinite funding rate ran to a NaN balance and a NaN alpha traded.
    with pytest.raises(ValueError, match=name):
        build(**{name: value})


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
