"""Monthly selection pipeline: cap filter, grid search, allocation."""

import json
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adaptivetrend.backtester import BacktestConfig, Market
from adaptivetrend.cost_model import CostConfig, ZERO_COSTS
from adaptivetrend.market_data import SECONDS_PER_DAY, CapIndex
from adaptivetrend.rebalancer import (Allocation, CandidateResult,
                                      ParamGrid, RebalanceConfig,
                                      evaluate_cell, filter_universe,
                                      grid_cells, has_month_history,
                                      optimization_window, params_to_dict,
                                      run_rebalance, select_and_allocate)
from adaptivetrend.signal_engine import StrategyParams
import scalar_reference
from scalar_reference import MarketCapRecord, cap_index
from conftest import (FEB1, INTERVAL, MAR1, bars_of, caps_for, day_start,
                      gbm_series, make_series, series_from_bars, solve_alone,
                      solve_cfg)

INF = float("inf")
JAN31 = date(2022, 1, 31)


def cfg_with(**kw) -> RebalanceConfig:
    base = dict(k_long=3, k_short=3, gamma_long=1.3, gamma_short=1.7,
                long_ratio=0.7, grid=ParamGrid())
    base.update(kw)
    return RebalanceConfig(**base)


class TestCapSnapshot:
    def test_latest_on_or_before(self):
        caps = [MarketCapRecord("A", date(2022, 1, 31), 5.0),
                MarketCapRecord("A", date(2022, 2, 28), 7.0),
                MarketCapRecord("B", date(2022, 1, 31), 3.0)]
        index = cap_index(caps)
        assert index.ranking(MAR1) == ["A"]  # Feb 28's snapshot
        # at 00:00 on Feb 28, Jan 31's: that day's caps are not yet known
        assert index.ranking(day_start(date(2022, 2, 28))) == ["A", "B"]
        assert index.ranking(day_start(date(2022, 2, 28)),
                             largest=False) == ["B", "A"]

    def test_none_before_first_snapshot(self):
        caps = [MarketCapRecord("A", date(2022, 1, 31), 5.0)]
        assert cap_index(caps).ranking(day_start(date(2022, 1, 31))) is None
        assert CapIndex().ranking(FEB1) is None

    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(st.builds(
               MarketCapRecord, symbol=st.sampled_from("ABCDE"),
               date=st.dates(date(2022, 1, 28), date(2022, 2, 3)),
               cap=st.one_of(st.sampled_from([1.0, 2.0, 3.0]),
                             st.floats(1.0, 1e12))), max_size=30),
           lookups=st.lists(st.tuples(
               st.dates(date(2022, 1, 25), date(2022, 2, 6)),
               st.one_of(st.just(0), st.integers(1, SECONDS_PER_DAY - 1))),
               max_size=8))
    @example(records=[], lookups=[])
    @example(records=[MarketCapRecord("B", date(2022, 1, 31), 3.0),
                      MarketCapRecord("A", date(2022, 1, 31), 3.0),
                      MarketCapRecord("C", date(2022, 1, 31), 2.0),
                      MarketCapRecord("E", date(2022, 1, 31), 1.0),
                      MarketCapRecord("D", date(2022, 1, 31), 1.0),
                      MarketCapRecord("C", date(2022, 1, 31), 1.0),
                      MarketCapRecord("A", date(2022, 2, 1), 9.0)],
             lookups=[(date(2022, 2, 2), 0)])
    def test_index_matches_linear_scan(self, records, lookups):
        # Against a scan of every record, both ways: caps tie at either end
        # of a ranking (a few values recur), a (symbol, date) may repeat
        # (the last record wins), snapshot days are sparse, and a lookup
        # may come before the first snapshot, at 00:00 of a day (FEB1, a
        # month's first day, is always asked; that day's snapshot is not in
        # force yet) or later in it.
        index = cap_index(records)
        for day, second in lookups + [(date(2022, 2, 1), 0)]:
            at = day_start(day) + second
            for largest in (True, False):
                assert index.ranking(at, largest) == \
                    scalar_reference.cap_ranking(records, at, largest)


class TestFilterUniverse:
    def test_wide_universe_splits_cleanly(self):
        symbols = [f"SYM{j:02d}" for j in range(40)]
        caps = cap_index(caps_for(symbols))  # cap decreasing with index
        longs, shorts = filter_universe(caps, FEB1,
                                        cfg_with(k_long=15, k_short=15))
        assert longs == symbols[:15]
        assert shorts == symbols[:24:-1]  # ascending cap: SYM39 .. SYM25
        assert not set(longs) & set(shorts)

    def test_small_universe_longs_absorb_everything(self):
        symbols = [f"SYM{j:02d}" for j in range(10)]
        longs, shorts = filter_universe(cap_index(caps_for(symbols)), FEB1,
                                        cfg_with(k_long=15, k_short=15))
        assert longs == symbols
        assert shorts == []

    def test_partial_overlap_drops_from_short_side(self):
        symbols = ["A", "B", "C", "D", "E"]
        longs, shorts = filter_universe(cap_index(caps_for(symbols)), FEB1,
                                        cfg_with())
        assert longs == ["A", "B", "C"]
        assert shorts == ["E", "D"]

    def test_cap_tie_prefers_lexicographic(self):
        caps = [MarketCapRecord("ZZZ", JAN31, 100.0),
                MarketCapRecord("AAA", JAN31, 100.0),
                MarketCapRecord("MMM", JAN31, 50.0),
                MarketCapRecord("NNN", JAN31, 10.0)]
        longs, shorts = filter_universe(cap_index(caps), FEB1,
                                        cfg_with(k_long=1, k_short=1))
        assert longs == ["AAA"]
        assert shorts == ["NNN"]

    def test_no_snapshot_returns_none(self):
        caps = [MarketCapRecord("A", date(2022, 3, 31), 1.0)]
        assert filter_universe(cap_index(caps), FEB1, cfg_with()) is None

    def test_only_latest_snapshot_counts(self):
        caps = [MarketCapRecord("OLD", date(2022, 1, 1), 9e9),
                MarketCapRecord("NEW", JAN31, 1.0)]
        longs, shorts = filter_universe(cap_index(caps), FEB1,
                                        cfg_with(k_long=5, k_short=5))
        assert longs == ["NEW"] and "OLD" not in longs


class TestGridCells:
    def test_order_and_disabled_side(self):
        grid = ParamGrid(theta_entry=(0.02, 0.01), theta_entry_short=(0.04,),
                         alpha=(2.0, 1.0), lookback=(8, 4), atr_window=5)
        cells = grid_cells(grid, "long")
        assert len(cells) == 8
        assert cells[0] == StrategyParams(0.01, INF, 1.0, 4, 5)
        assert cells[1] == StrategyParams(0.01, INF, 1.0, 8, 5)
        assert cells[2] == StrategyParams(0.01, INF, 2.0, 4, 5)
        assert cells[-1] == StrategyParams(0.02, INF, 2.0, 8, 5)
        assert all(math.isinf(c.theta_entry_short) for c in cells)

    def test_short_side_uses_own_thetas(self):
        grid = ParamGrid(theta_entry=(0.01,), theta_entry_short=(0.03, 0.06),
                         alpha=(2.0,), lookback=(4,), atr_window=3)
        cells = grid_cells(grid, "short")
        assert [c.theta_entry_short for c in cells] == [0.03, 0.06]
        assert all(math.isinf(c.theta_entry) for c in cells)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            ParamGrid(theta_entry=())


class TestOptimizeParams:
    """One candidate's grid search, asked of a fresh Optimizer."""

    WINDOW_SERIES_KW = dict(t0=FEB1, vol=1.2)

    def window_for(self, series):
        ts = series.timestamps
        return int(ts[0]), int(ts[-1])

    def test_flat_series_yields_none(self):
        s = make_series([100.0] * 60, t0=FEB1)
        grid = ParamGrid(theta_entry=(0.01,), theta_entry_short=(0.01,),
                         alpha=(2.0,), lookback=(4,), atr_window=3)
        assert solve_alone(s, "long", self.window_for(s),
                           solve_cfg(grid)) is None

    def test_short_window_yields_none(self):
        s = gbm_series(np.random.default_rng(1), 30, **self.WINDOW_SERIES_KW)
        grid = ParamGrid(theta_entry=(0.01,), theta_entry_short=(0.01,),
                         alpha=(2.0,), lookback=(28,), atr_window=3)
        assert solve_alone(s, "long", self.window_for(s),
                           solve_cfg(grid)) is None

    def test_tie_keeps_first_cell(self):
        # both alphas leave the stop untouched on a clean rise, so their
        # Sharpes match exactly and the smaller alpha must win
        closes = [100.0 * 1.01 ** i for i in range(60)]
        s = make_series(closes, t0=FEB1, wick=0.05)
        grid = ParamGrid(theta_entry=(0.01,), theta_entry_short=(0.01,),
                         alpha=(40.0, 50.0), lookback=(4,), atr_window=3)
        res = solve_alone(s, "long", self.window_for(s), solve_cfg(grid))
        assert res is not None
        assert res.params.alpha == 40.0

    def test_matches_exhaustive_rescan(self):
        grid = ParamGrid(theta_entry=(0.02, 0.05), theta_entry_short=(0.02, 0.05),
                         alpha=(1.5, 3.0), lookback=(4, 8), atr_window=3)
        defined = 0
        for k in range(12):
            s = gbm_series(np.random.default_rng(900 + k), 90,
                           **self.WINDOW_SERIES_KW)
            window = self.window_for(s)
            for side in ("long", "short"):
                best = None
                best_sharpe = -INF
                for cell in grid_cells(grid, side):
                    sharpe = evaluate_cell(s, cell, window, ZERO_COSTS, 0.045)
                    if sharpe is not None and sharpe > best_sharpe:
                        best, best_sharpe = cell, sharpe
                got = solve_alone(s, side, window, solve_cfg(grid))
                if best is None:
                    assert got is None
                else:
                    defined += 1
                    assert got == CandidateResult(s.symbol, best, best_sharpe)
        assert defined >= 12


def scalar_pick(series, side, window, grid, cost_cfg, rf_annual=0.045,
                **execution):
    """The optimizer's contract written as a loop over evaluate_cell."""
    i0, i1 = series.slice_indices(*window)
    if i1 - i0 < 2 * max(grid.lookback):
        return None
    best, best_sharpe = None, -INF
    for cell in grid_cells(grid, side):
        sharpe = evaluate_cell(series, cell, window, cost_cfg, rf_annual,
                               **execution)
        if sharpe is not None and sharpe > best_sharpe:
            best, best_sharpe = cell, sharpe
    return None if best is None else CandidateResult(series.symbol, best,
                                                     best_sharpe)


COST_CONFIGS = {
    "zero": ZERO_COSTS,
    "default": CostConfig(),
    "table": CostConfig(funding_rates={
        "RND": [(FEB1 + 10 * INTERVAL, 4e-4), (FEB1 + 40 * INTERVAL, -3e-4)]}),
}
SEARCH_GRID = ParamGrid(theta_entry=(0.005, 0.02), theta_entry_short=(0.005, 0.02),
                        alpha=(0.5, 2.0, 4.0), lookback=(2, 6), atr_window=4)
ONE_CELL = ParamGrid(theta_entry=(0.01,), theta_entry_short=(0.01,),
                     alpha=(2.0,), lookback=(4,), atr_window=3)


def edited_series(series, zero_volume_every=0, gap_every=0):
    """Copy with every k-th bar's volume zeroed and/or every k-th bar dropped."""
    bars = [b._replace(volume=0.0) if zero_volume_every
            and i % zero_volume_every == 0 else b
            for i, b in enumerate(bars_of(series))]
    if gap_every:
        bars = [b for i, b in enumerate(bars) if i % gap_every != 2]
    return series_from_bars(series.symbol, series.interval, bars)


class TestBatchedSearchMatchesScalar:
    """The Optimizer scores the grid in one batch; its pick must equal the
    per-cell loop over evaluate_cell exactly (params and Sharpe, with ==)."""

    def assert_same_pick(self, series, window, grid, cost_cfg, rf=0.045,
                         trailing=True, intrabar_stop_fill=False):
        cfg = solve_cfg(grid, cost_cfg, rf, trailing, intrabar_stop_fill)
        picks = []
        for side in ("long", "short"):
            want = scalar_pick(series, side, window, grid, cost_cfg, rf,
                               trailing=trailing,
                               intrabar_stop_fill=intrabar_stop_fill)
            got = solve_alone(series, side, window, cfg)
            assert got == want, side
            picks.append(got)
        return picks

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           vol=st.sampled_from([0.3, 1.0, 2.5]),
           costs=st.sampled_from(sorted(COST_CONFIGS)),
           zero_volume_every=st.sampled_from([0, 1, 3]),
           gap_every=st.sampled_from([0, 5]),
           start=st.integers(0, 25),
           one_cell=st.booleans(),
           trailing=st.booleans(), intrabar=st.booleans())
    def test_random_paths(self, seed, vol, costs, zero_volume_every, gap_every,
                          start, one_cell, trailing, intrabar):
        series = edited_series(
            gbm_series(np.random.default_rng(seed), 80, vol=vol, t0=FEB1),
            zero_volume_every, gap_every)
        ts = series.timestamps
        window = (int(ts[start]), int(ts[-1]))
        self.assert_same_pick(series, window, ONE_CELL if one_cell else SEARCH_GRID,
                              COST_CONFIGS[costs], trailing=trailing,
                              intrabar_stop_fill=intrabar)

    @pytest.mark.parametrize("costs", sorted(COST_CONFIGS))
    def test_each_cost_config(self, costs):
        defined = 0
        for k in range(4):
            series = edited_series(
                gbm_series(np.random.default_rng(50 + k), 90, vol=1.5, t0=FEB1),
                zero_volume_every=4 if k == 1 else 0,
                gap_every=6 if k == 2 else 0)
            ts = series.timestamps
            window = (int(ts[0 if k == 3 else 12]), int(ts[-3]))
            picks = self.assert_same_pick(series, window, SEARCH_GRID,
                                          COST_CONFIGS[costs])
            defined += sum(p is not None for p in picks)
        assert defined >= 4

    def test_zero_volume_takes_slippage_cap(self):
        series = edited_series(
            gbm_series(np.random.default_rng(7), 90, vol=1.5, t0=FEB1),
            zero_volume_every=1)
        ts = series.timestamps
        window = (int(ts[10]), int(ts[-1]))
        picks = self.assert_same_pick(series, window, SEARCH_GRID, CostConfig())
        assert any(p is not None for p in picks)

    def test_window_at_first_bar(self):
        series = gbm_series(np.random.default_rng(8), 70, vol=1.5, t0=FEB1)
        ts = series.timestamps
        assert series.slice_indices(int(ts[0]), int(ts[-1]))[0] == 0
        for cost_cfg in COST_CONFIGS.values():
            picks = self.assert_same_pick(series, (int(ts[0]), int(ts[-1])),
                                          SEARCH_GRID, cost_cfg)
            assert any(p is not None for p in picks)

    def test_ties_keep_lowest_index(self):
        # A clean rise never reaches any stop: every alpha ties and the first
        # (smallest) one must win, on the scalar loop and the batch alike.
        closes = [100.0 * 1.01 ** i for i in range(70)]
        series = make_series(closes, t0=FEB1, wick=0.05)
        ts = series.timestamps
        grid = ParamGrid(theta_entry=(0.01,), theta_entry_short=(0.01,),
                         alpha=(40.0, 50.0, 60.0), lookback=(4,), atr_window=3)
        for cost_cfg in COST_CONFIGS.values():
            long_pick, _ = self.assert_same_pick(
                series, (int(ts[0]), int(ts[-1])), grid, cost_cfg)
            assert long_pick is not None and long_pick.params.alpha == 40.0

    def test_no_trade_window_is_none(self):
        series = gbm_series(np.random.default_rng(9), 80, vol=0.2, t0=FEB1)
        ts = series.timestamps
        grid = ParamGrid(theta_entry=(5.0,), theta_entry_short=(5.0,),
                         alpha=(2.0,), lookback=(4, 8), atr_window=3)
        for cost_cfg in COST_CONFIGS.values():
            assert self.assert_same_pick(series, (int(ts[0]), int(ts[-1])),
                                         grid, cost_cfg) == [None, None]

    @pytest.mark.parametrize("rf", [0.0, 0.045])
    def test_constant_price_window(self, rf):
        # A rise then a plateau: the long enters on the plateau's lagging
        # momentum and then earns exactly zero per bar, which is a constant
        # return series (Sharpe 0.0 at rf 0, undefined otherwise).
        closes = [100.0 * 1.02 ** i for i in range(30)] + [100.0 * 1.02 ** 30] * 50
        series = make_series(closes, t0=FEB1, wick=0.0)
        ts = series.timestamps
        window = (int(ts[30]), int(ts[-1]))
        for cost_cfg in COST_CONFIGS.values():
            self.assert_same_pick(series, window, ONE_CELL, cost_cfg, rf)
        long_pick, short_pick = self.assert_same_pick(series, window,
                                                      ONE_CELL, ZERO_COSTS, rf)
        assert short_pick is None
        assert (long_pick is not None and long_pick.sharpe == 0.0) == (rf == 0.0)

    def test_one_cell_grid(self):
        series = gbm_series(np.random.default_rng(10), 80, vol=2.0, t0=FEB1)
        ts = series.timestamps
        for cost_cfg in COST_CONFIGS.values():
            picks = self.assert_same_pick(series, (int(ts[5]), int(ts[-1])),
                                          ONE_CELL, cost_cfg)
            for p in picks:
                assert p is None or p.params in (grid_cells(ONE_CELL, "long")
                                                 + grid_cells(ONE_CELL, "short"))

    def test_series_with_gaps(self):
        series = edited_series(
            gbm_series(np.random.default_rng(11), 100, vol=1.5, t0=FEB1),
            gap_every=4)
        assert (np.diff(series.timestamps) > series.interval).any()
        ts = series.timestamps
        for cost_cfg in COST_CONFIGS.values():
            self.assert_same_pick(series, (int(ts[3]), int(ts[-1])),
                                  SEARCH_GRID, cost_cfg)


class TestSelectAndAllocate:
    def cand(self, symbol, sharpe):
        return CandidateResult(symbol, StrategyParams(0.01, INF, 2.0, 4, 3),
                               sharpe)

    def test_thresholds_are_inclusive(self):
        port = select_and_allocate(
            "2022-03",
            [self.cand("A", 1.30), self.cand("B", 1.2999999)],
            [self.cand("C", 1.70), self.cand("D", 1.6999999)],
            cfg_with())
        assert [a.symbol for a in port.longs] == ["A"]
        assert [a.symbol for a in port.shorts] == ["C"]

    def test_asymmetric_split_and_cash(self):
        longs = [self.cand(f"L{i}", 2.0) for i in range(7)]
        shorts = [self.cand(f"S{i}", 2.0) for i in range(3)]
        port = select_and_allocate("2022-03", longs, shorts, cfg_with())
        assert all(a.weight == 0.7 / 7 for a in port.longs)
        assert all(a.weight == (1.0 - 0.7) / 3 for a in port.shorts)
        total = math.fsum(a.weight for a in port.longs + port.shorts) \
            + port.cash_weight
        assert abs(total - 1.0) < 1e-12

    def test_empty_sleeves_stay_in_cash(self):
        port = select_and_allocate("2022-03", [], [], cfg_with())
        assert port.longs == () and port.shorts == ()
        assert port.cash_weight == 1.0

        port = select_and_allocate("2022-03", [self.cand("A", 9.9)], [],
                                   cfg_with())
        assert port.cash_weight == pytest.approx(0.3, abs=1e-15)

    def test_allocations_sorted_by_symbol(self):
        port = select_and_allocate(
            "2022-03",
            [self.cand("ZED", 2.0), self.cand("ALF", 2.0)], [], cfg_with())
        assert [a.symbol for a in port.longs] == ["ALF", "ZED"]

    def test_raising_gamma_shrinks_selection(self, rng):
        cands = [self.cand(f"C{i}", float(x))
                 for i, x in enumerate(rng.normal(1.5, 1.0, size=40))]
        prev = None
        for gamma in (0.5, 1.0, 1.5, 2.0, 2.5):
            port = select_and_allocate(
                "2022-03", cands, [], cfg_with(gamma_long=gamma))
            chosen = {a.symbol for a in port.longs}
            if prev is not None:
                assert chosen <= prev
            prev = chosen


class TestWindowHelpers:
    def test_optimization_window(self):
        assert optimization_window(MAR1, INTERVAL, 4) == \
            (FEB1, MAR1 - 4 * INTERVAL)
        assert optimization_window(MAR1, INTERVAL, 0) == (FEB1, MAR1)

    def test_has_month_history(self):
        covering = gbm_series(np.random.default_rng(2), 10, t0=FEB1)
        late = gbm_series(np.random.default_rng(2), 10, t0=FEB1 + INTERVAL)
        assert has_month_history(covering, FEB1) is True
        assert has_month_history(late, FEB1) is False


class TestParamsDict:
    def test_round_trip_and_null_inf(self):
        for params in (StrategyParams(0.05, INF, 2.0, 4, 3),
                       StrategyParams(INF, 0.02, 1.5, 8, 14),
                       StrategyParams(0.01, 0.03, 3.0, 12, 7)):
            d = json.loads(json.dumps(params_to_dict(params)))
            assert StrategyParams(**{k: INF if v is None else v
                                     for k, v in d.items()}) == params
            assert [k for k, v in d.items() if v is None] == \
                [k for k in ("theta_entry", "theta_entry_short")
                 if getattr(params, k) == INF]


class TestRunRebalance:
    GRID = ParamGrid(theta_entry=(0.01,), theta_entry_short=(0.01,),
                     alpha=(3.0,), lookback=(4,), atr_window=3)

    def universe(self):
        riser = make_series([100.0 * 1.01 ** i for i in range(130)],
                            symbol="UP", t0=FEB1 - 10 * INTERVAL, wick=0.05)
        faller = make_series([100.0 * 0.99 ** i for i in range(130)],
                             symbol="DN", t0=FEB1 - 10 * INTERVAL, wick=0.05)
        caps = [MarketCapRecord("UP", JAN31, 2e9),
                MarketCapRecord("DN", JAN31, 1e9)]
        return {"UP": riser, "DN": faller}, caps

    def rebalance(self, universe, caps, **kw):
        """run_rebalance at MAR1 over a fresh market, zero costs."""
        rcfg = RebalanceConfig(k_long=1, k_short=1, gamma_long=-100.0,
                               gamma_short=-100.0, long_ratio=0.7,
                               grid=self.GRID, buffer_bars=4)
        cfg = BacktestConfig(start=MAR1, end=MAR1 + INTERVAL,
                             interval=INTERVAL, rebalance=rcfg,
                             costs=ZERO_COSTS, **kw)
        return run_rebalance(Market(universe, cap_index(caps)), MAR1, cfg)

    def test_full_pipeline(self):
        universe, caps = self.universe()
        port, record = self.rebalance(universe, caps)
        assert port.month == "2022-03"
        assert [a.symbol for a in port.longs] == ["UP"]
        assert [a.symbol for a in port.shorts] == ["DN"]
        assert port.longs[0].weight == 0.7
        assert port.shorts[0].weight == 1.0 - 0.7
        assert record["reoptimized"] is True
        assert record["window"] == [FEB1, MAR1 - 4 * INTERVAL]
        assert record["long_candidates"] == ["UP"]
        assert record["short_candidates"] == ["DN"]
        assert record["selected_longs"][0]["params"]["theta_entry"] == 0.01
        assert record["selected_shorts"][0]["params"]["theta_entry"] is None
        assert record["cash_weight"] == port.cash_weight

    def test_missing_caps_skips_month(self):
        universe, _ = self.universe()
        caps = [MarketCapRecord("UP", date(2022, 3, 31), 2e9)]
        port, record = self.rebalance(universe, caps)
        assert port.longs == () and port.shorts == ()
        assert port.cash_weight == 1.0
        assert record["skipped"] == "no market-cap data"
        assert record["reoptimized"] is False

    def test_cap_filter_disabled_uses_everything(self):
        universe, caps = self.universe()
        _, record = self.rebalance(universe, caps, cap_filter_enabled=False)
        assert record["long_candidates"] == ["DN", "UP"]
        assert record["short_candidates"] == ["DN", "UP"]

    def test_short_history_symbol_excluded(self):
        universe, caps = self.universe()
        universe["UP"] = make_series(
            [100.0 * 1.01 ** i for i in range(40)], symbol="UP",
            t0=FEB1 + 5 * INTERVAL, wick=0.05)
        port, record = self.rebalance(universe, caps)
        assert port.longs == ()
        assert all(o["symbol"] != "UP" for o in record["optimized"])

    def test_exclusions_log_their_cause(self, caplog):
        # A cap-listed symbol without a price series is excluded for that
        # cause, not for a short history; a short history keeps its message.
        universe, caps = self.universe()
        caps = caps + [MarketCapRecord("GONE", JAN31, 3e9)]
        universe["DN"] = make_series(
            [100.0 * 0.99 ** i for i in range(40)], symbol="DN",
            t0=FEB1 + 5 * INTERVAL, wick=0.05)
        with caplog.at_level("INFO", logger="adaptivetrend.rebalancer"):
            port, record = self.rebalance(universe, caps)
        assert record["long_candidates"] == ["GONE"]
        assert record["short_candidates"] == ["DN"]
        assert port.longs == () and port.shorts == ()
        assert [r.getMessage() for r in caplog.records] == [
            "GONE: has no price series; excluded",
            "DN: lacks a full month of history; excluded"]
