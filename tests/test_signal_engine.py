"""Trade search (entries, trailing stops, exits) and trade ledger accounting."""

import ast
import math
import pathlib
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from adaptivetrend.cost_model import CostConfig, ZERO_COSTS
from adaptivetrend.indicators import (atr, rolling_sharpe,
                                     sharpe_rows_in_place, true_range)
from adaptivetrend.market_data import PriceSeries, bars_per_year
from adaptivetrend import signal_engine
from adaptivetrend.rebalancer import ParamGrid, grid_cells
from adaptivetrend.signal_engine import (LEDGER_HEADER, NO_LEDGER, CellTable,
                                         EngineError, Ledger, StrategyParams,
                                         Trades, _exits,
                                         _stop_max, book_trades, cut_position,
                                         find_trades_stacked,
                                         grid_sharpes_stacked, gross_pnl,
                                         run_single_asset, write_ledger)
from conftest import (COST_CHOICES, INTERVAL, SCRIPT_CLOSES, T0,
                      assert_same_result, gbm_series, make_series,
                      rough_series, sided)
import scalar_reference
from scalar_reference import (SIDE_CHOICES, Bar, Position, TradeRecord,
                              as_ledger, read_ledger, records, step)

PARAMS = StrategyParams(theta_entry=0.05, theta_entry_short=0.05,
                        alpha=2.0, lookback=4, atr_window=3)


def flat_bar(close: float, ts: int = T0 + INTERVAL) -> Bar:
    return Bar(timestamp=ts, open=close, high=close + 1.0, low=close - 1.0,
               close=close, volume=1e6)


class TestStep:
    def test_entry_above_threshold_opens_long(self):
        state, trade = step(None, flat_bar(100.0), mom=0.06, atr_value=2.0,
                            params=PARAMS)
        assert trade is None
        assert state is not None and state.side == "long"
        assert state.entry_price == 100.0
        assert state.stop == pytest.approx(100.0 - 2.0 * 2.0)

    def test_entry_below_threshold_stays_flat(self):
        # momentum must pass the threshold strictly, on either side
        for mom in (0.04, 0.05, -0.05):
            state, trade = step(None, flat_bar(100.0), mom=mom, atr_value=2.0,
                                params=PARAMS)
            assert state is None and trade is None

    def test_short_entry_on_negative_momentum(self):
        state, _ = step(None, flat_bar(100.0), mom=-0.08, atr_value=1.5,
                        params=PARAMS)
        assert state.side == "short"
        assert state.stop == pytest.approx(103.0)

    def test_stop_ratchets_to_max(self):
        pos = Position(symbol="X", side="long", entry_time=T0, entry_price=90.0,
                       size=1.0, stop=95.0)
        state, trade = step(pos, flat_bar(100.0), mom=0.0, atr_value=2.0,
                            params=PARAMS)
        assert trade is None
        assert state.stop == 96.0

    def test_stop_never_retreats(self):
        pos = Position(symbol="X", side="long", entry_time=T0, entry_price=90.0,
                       size=1.0, stop=99.5)
        state, _ = step(pos, flat_bar(100.0), mom=0.0, atr_value=2.0,
                        params=PARAMS)
        assert state.stop == 99.5

    def test_close_below_stop_exits(self):
        pos = Position(symbol="X", side="long", entry_time=T0, entry_price=90.0,
                       size=1.0, stop=96.0)
        state, trade = step(pos, flat_bar(95.0, ts=T0 + 2 * INTERVAL),
                            mom=0.0, atr_value=2.0, params=PARAMS)
        assert state is None
        assert trade is not None
        assert trade.exit_px == 95.0
        assert trade.gross_pnl == pytest.approx((95.0 / 90.0 - 1.0))

    def test_side_gating(self):
        state, _ = step(None, flat_bar(100.0), mom=0.10, atr_value=2.0,
                        params=PARAMS, side_enabled="short")
        assert state is None
        state, _ = step(None, flat_bar(100.0), mom=-0.10, atr_value=2.0,
                        params=PARAMS, side_enabled="long")
        assert state is None

    def test_nan_indicator_rejected(self):
        with pytest.raises(EngineError):
            step(None, flat_bar(100.0), mom=float("nan"), atr_value=2.0,
                 params=PARAMS)


class TestLedger:
    """A Ledger checks every row as it is built, and the first bad row's
    symbol names the error."""

    ROW = dict(symbol="X", side="long", entry_ts=T0, entry_px=100.0,
               exit_ts=T0 + INTERVAL, exit_px=105.0, size=1.0, gross_pnl=0.05,
               fee=0.0, slippage=0.0, funding=0.0, net_pnl=0.05, forced=False)

    @staticmethod
    def ledger(*rows):
        return Ledger(**{name: np.array([row[name] for row in rows])
                         for name in LEDGER_HEADER})

    def test_net_identity_enforced(self):
        assert len(self.ledger(self.ROW, self.ROW)) == 2
        with pytest.raises(EngineError, match="^Y: net_pnl 0.05 != gross"):
            self.ledger(self.ROW, {**self.ROW, "symbol": "Y", "fee": 0.001},
                        {**self.ROW, "symbol": "Z", "funding": 0.001})

    def test_exit_after_entry_enforced(self):
        with pytest.raises(EngineError, match="^Y: exit_ts .* not after"):
            self.ledger(self.ROW, {**self.ROW, "symbol": "Y", "exit_ts": T0},
                        {**self.ROW, "symbol": "Z", "fee": 0.001})

    def test_no_per_trade_record_in_the_package(self):
        """The package's trades are columns from the booking pass to the
        ledger file: no module defines, imports or reads a TradeRecord."""
        package = pathlib.Path(signal_engine.__file__).parent
        found = [(path.name, node.lineno)
                 for path in sorted(package.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if "TradeRecord" in (getattr(node, "id", None),
                                      getattr(node, "attr", None),
                                      getattr(node, "name", None),
                                      getattr(node, "asname", None))]
        assert found == []

    def test_gross_pnl_signs(self):
        assert gross_pnl("long", 100.0, 50.0, 55.0) == pytest.approx(10.0)
        assert gross_pnl("short", 100.0, 50.0, 55.0) == pytest.approx(-10.0)
        assert gross_pnl("short", 100.0, 50.0, 45.0) == pytest.approx(10.0)


class TestRunSingleAsset:
    def test_no_signal_zero_trades(self):
        s = make_series([100.0] * 12)
        res = run_single_asset(s, PARAMS, cost_cfg=ZERO_COSTS)
        assert len(res.trades) == 0
        assert np.all(res.gross_returns == 0.0)
        assert np.all(res.net_returns == 0.0)

    def test_disabled_side_sentinel_empty_ledger(self):
        rng = np.random.default_rng(8)
        s = gbm_series(rng, 120, vol=1.5)
        params = StrategyParams(theta_entry=math.inf, theta_entry_short=math.inf,
                                alpha=2.0, lookback=4, atr_window=3)
        res = run_single_asset(s, params, cost_cfg=ZERO_COSTS)
        assert len(res.trades) == 0

    def test_monotone_rise_single_forced_long(self):
        closes = [100.0 + i for i in range(10)]
        s = make_series(closes)
        params = StrategyParams(theta_entry=0.01, theta_entry_short=0.01,
                                alpha=3.0, lookback=4, atr_window=3)
        res = run_single_asset(s, params, cost_cfg=ZERO_COSTS)
        assert len(res.trades) == 1
        t = records(res.trades)[0]
        assert t.side == "long"
        assert t.forced is True
        assert t.entry_px == 104.0
        assert t.exit_px == 109.0
        assert t.exit_ts == s.timestamps[-1]
        assert t.gross_pnl == pytest.approx(109.0 / 104.0 - 1.0, rel=1e-12)
        assert t.gross_pnl > 0

    def test_deterministic(self, rng):
        s = gbm_series(rng, 150, vol=0.9)
        a = run_single_asset(s, PARAMS, cost_cfg=CostConfig())
        b = run_single_asset(s, PARAMS, cost_cfg=CostConfig())
        assert records(a.trades) == records(b.trades)
        np.testing.assert_array_equal(a.net_returns, b.net_returns)

    def test_zero_costs_gross_equals_net(self, rng):
        for k in range(10):
            s = gbm_series(np.random.default_rng(200 + k), 160, vol=1.0)
            res = run_single_asset(s, PARAMS, cost_cfg=ZERO_COSTS)
            np.testing.assert_array_equal(res.gross_returns, res.net_returns)
            for t in records(res.trades):
                assert t.net_pnl == t.gross_pnl

    def test_cost_attribution_sums(self, rng):
        total_checked = 0
        for k in range(10):
            s = gbm_series(np.random.default_rng(300 + k), 200, vol=1.0)
            res = run_single_asset(s, PARAMS, size=5_000.0, cost_cfg=CostConfig())
            if not res.trades:
                continue
            total_checked += 1
            ledger_costs = sum(t.fee_cost + t.slippage_cost + t.funding_cost
                               for t in records(res.trades))
            assert math.fsum(res.costs) == pytest.approx(ledger_costs, rel=1e-9)
            assert res.realized_cum[-1] == pytest.approx(
                sum(t.net_pnl for t in records(res.trades)), rel=1e-9)
        assert total_checked > 5

    def test_stop_monotone_and_first_breach(self, rng):
        # longs exit exactly when the close falls below the previous bar's
        # stop; while held, the stop never loosens
        for k in range(50):
            r = np.random.default_rng(400 + k)
            s = gbm_series(r, 150, vol=1.2)
            res = run_single_asset(s, PARAMS, cost_cfg=ZERO_COSTS)
            closes = s.close
            pos = res.position
            stops = res.stop
            for i in range(1, len(pos)):
                held_through = pos[i] != 0 and pos[i - 1] == pos[i]
                if held_through:
                    if pos[i] > 0:
                        assert stops[i] >= stops[i - 1] - 1e-12
                        assert closes[i] >= stops[i - 1]
                    else:
                        assert stops[i] <= stops[i - 1] + 1e-12
                        assert closes[i] <= stops[i - 1]
            for t in records(res.trades):
                if t.forced:
                    continue
                i = int(np.searchsorted(res.timestamps, t.exit_ts))
                assert res.timestamps[i] == t.exit_ts
                if t.side == "long":
                    assert closes[i] < stops[i - 1]
                else:
                    assert closes[i] > stops[i - 1]

    def test_window_confines_trades_and_final_bar_entry(self, rng):
        s = gbm_series(np.random.default_rng(77), 200, vol=1.2)
        ts = s.timestamps
        window = (int(ts[50]), int(ts[120]))
        res = run_single_asset(s, PARAMS, window=window, cost_cfg=ZERO_COSTS)
        for t in records(res.trades):
            assert window[0] <= t.entry_ts < window[1]
            assert window[0] < t.exit_ts <= window[1]
            assert t.entry_ts < t.exit_ts

    def test_open_position_forced_at_window_end(self):
        closes = [100.0 + i for i in range(12)]
        s = make_series(closes)
        params = StrategyParams(theta_entry=0.01, theta_entry_short=0.01,
                                alpha=5.0, lookback=4, atr_window=3)
        res = run_single_asset(s, params, cost_cfg=ZERO_COSTS)
        assert records(res.trades)[-1].forced is True
        assert res.position[-1] == 0

    def test_size_scales_pnl_linearly(self, rng):
        s = gbm_series(np.random.default_rng(55), 180, vol=1.0)
        r1 = run_single_asset(s, PARAMS, size=1.0, cost_cfg=ZERO_COSTS)
        r2 = run_single_asset(s, PARAMS, size=250.0, cost_cfg=ZERO_COSTS)
        assert len(r1.trades) == len(r2.trades)
        for a, b in zip(records(r1.trades), records(r2.trades)):
            assert b.gross_pnl == pytest.approx(250.0 * a.gross_pnl, rel=1e-12)
        np.testing.assert_allclose(r1.net_returns, r2.net_returns, rtol=1e-12)

    def test_fixed_stop_exits_never_earlier(self, rng):
        # with the ratchet disabled the stop stays at its entry level, so the
        # first breach can only happen at the same bar or later
        for k in range(30):
            s = gbm_series(np.random.default_rng(600 + k), 150, vol=1.2)
            trail = run_single_asset(s, PARAMS, cost_cfg=ZERO_COSTS)
            fixed = run_single_asset(s, PARAMS, cost_cfg=ZERO_COSTS,
                                     trailing=False)
            te = {t.entry_ts: t.exit_ts for t in records(trail.trades)}
            fe = {t.entry_ts: t.exit_ts for t in records(fixed.trades)}
            for entry_ts, exit_ts in te.items():
                if entry_ts in fe:
                    assert fe[entry_ts] >= exit_ts


class TestLedgerMatchesPerBar:
    """The state machine plus the shared ledger reproduce the bar-by-bar
    engine (tests/scalar_reference.py) bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n=st.integers(0, 70),
           interval=st.sampled_from([3_600, 14_400, 21_600, 86_400]),
           side=st.sampled_from(["long", "short", "both"]),
           size=st.sampled_from([1.0, 0.37, 12_345.6]),
           cost=st.integers(0, len(COST_CHOICES) - 1),
           trailing=st.booleans(), intrabar=st.booleans(),
           gaps=st.booleans(), zero_volume=st.sampled_from([0.0, 0.3]),
           bounds=st.tuples(st.integers(0, 70), st.integers(0, 70)),
           theta=st.sampled_from([-0.01, 0.0, 0.005, 0.03]),
           alpha=st.sampled_from([0.5, 1.5, 4.0]),
           lookback=st.integers(1, 6), atr_window=st.integers(1, 5))
    def test_same_arrays_and_trades(self, seed, n, interval, side, size, cost,
                                    trailing, intrabar, gaps, zero_volume,
                                    bounds, theta, alpha, lookback, atr_window):
        series = rough_series(np.random.default_rng(seed), n, interval,
                              gaps=gaps, zero_volume=zero_volume)
        params = StrategyParams(theta, max(theta, 1e-4), alpha, lookback,
                                atr_window)
        window = None
        if n:
            # Windows may start at bar 0, hold one bar, or hold none (past
            # the last bar).
            ts = series.timestamps
            edge = lambda k: int(ts[min(k, n - 1)]) + (k >= n)  # noqa: E731
            window = tuple(edge(k) for k in sorted(bounds))
        kwargs = dict(window=window, size=size, cost_cfg=COST_CHOICES[cost],
                      trailing=trailing, intrabar_stop_fill=intrabar)
        assert_same_result(run_single_asset(series, sided(params, side),
                                            **kwargs),
                           scalar_reference.run_single_asset(
                               series, params, side_enabled=side, **kwargs))


# Month-simulation points: each field takes one of these values. Windows are
# bar ranges of a 60-bar series, one of them with one bar.
SIM_VALUES = {
    "size": [1.0, 0.37, 12_345.6],
    "window": [(0, 59), (10, 40), (25, 25), (30, 59)],
    "cell": [PARAMS, StrategyParams(0.01, 0.02, 1.0, 2, 3),
             StrategyParams(-0.01, 0.005, 4.0, 8, 5)],
    "side": list(SIDE_CHOICES),
    "cost": list(range(len(COST_CHOICES))),
    "trailing": [False, True],
    "intrabar": [False, True],
}


@st.composite
def sim_walks(draw):
    """Month simulations that change every field once each, in a random
    order, as the backtest points of test_optimizer's point_walks do."""
    point = {k: draw(st.sampled_from(v)) for k, v in SIM_VALUES.items()}
    walk = [point]
    for name in draw(st.permutations(sorted(SIM_VALUES))):
        other = [v for v in SIM_VALUES[name] if v is not point[name]]
        point = dict(point, **{name: draw(st.sampled_from(other))})
        walk.append(point)
    return walk


class TestTradeSearchMemo:
    """run_single_asset finds a cell's trades once per (series, window,
    cell, execution flags) and books them at every size; no run may get the
    trades of another. A point's side picks which of the cell's thresholds
    stay below +inf."""

    @staticmethod
    def simulate(series, point):
        ts = series.timestamps
        lo, hi = point["window"]
        return run_single_asset(
            series, sided(point["cell"], point["side"]),
            window=(int(ts[lo]), int(ts[hi])), size=point["size"],
            cost_cfg=COST_CHOICES[point["cost"]], trailing=point["trailing"],
            intrabar_stop_fill=point["intrabar"])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), walk=sim_walks())
    def test_shared_search_changes_no_result(self, seed, walk):
        series = rough_series(np.random.default_rng(seed), 60, INTERVAL,
                              gaps=True, zero_volume=0.2)
        with mock.patch.object(signal_engine, "find_trades_stacked",
                               wraps=signal_engine.find_trades_stacked
                               ) as search:
            for point in walk + walk[:1]:
                # A fresh copy of the series shares no memo entry.
                fresh = PriceSeries(series.symbol, series.interval,
                                    *(c.copy() for c in series.columns()))
                assert_same_result(self.simulate(series, point),
                                   self.simulate(fresh, point))
        searched = {(p["window"], sided(p["cell"], p["side"]), p["trailing"],
                     p["intrabar"]) for p in walk}
        # One search per distinct key on the shared series, one per point
        # on the fresh copies.
        assert search.call_count == len(searched) + len(walk) + 1


class TestScriptedPath:
    """Hand-worked 20-bar path: one stopped-out long, one short that runs to
    the end. Expected numbers were computed independently bar by bar."""

    @pytest.fixture()
    def result(self):
        series = make_series(SCRIPT_CLOSES,
                             opens=[99.0] + SCRIPT_CLOSES[:-1])
        return run_single_asset(series, PARAMS, cost_cfg=ZERO_COSTS)

    def test_trade_sequence(self, result):
        assert len(result.trades) == 2
        long, short = records(result.trades)
        assert (long.side, long.entry_ts, long.entry_px) == \
            ("long", 1641124800, 106.0)
        assert (long.exit_ts, long.exit_px, long.forced) == \
            (1641254400, 103.0, False)
        assert long.gross_pnl == pytest.approx(-0.028301886792452824,
                                               rel=1e-12)
        assert (short.side, short.entry_ts, short.entry_px) == \
            ("short", 1641276000, 101.0)
        assert (short.exit_ts, short.exit_px, short.forced) == \
            (1641427200, 96.0, True)
        assert short.gross_pnl == pytest.approx(0.04950495049504955,
                                                rel=1e-12)

    def test_stop_path(self, result):
        expected = {5: 95.60000000000001, 6: 96.96666666666667,
                    7: 97.86666666666666, 8: 101.66666666666667,
                    9: 103.66666666666667, 10: 103.66666666666667,
                    12: 114.33333333333333, 13: 108.33333333333333,
                    14: 106.0, 15: 104.0, 16: 104.0, 17: 104.0, 18: 104.0}
        for i, stop in enumerate(result.stop):
            if i in expected:
                assert stop == pytest.approx(expected[i], rel=1e-12), i
            else:
                assert math.isnan(stop), i

    def test_position_path(self, result):
        held_long = set(range(5, 11))
        held_short = set(range(12, 19))
        for i, p in enumerate(result.position):
            if i in held_long:
                assert p == 1
            elif i in held_short:
                assert p == -1
            else:
                assert p == 0


class TestIntrabarMode:
    def _held_long(self, stop: float) -> Position:
        return Position(symbol="X", side="long", entry_time=T0,
                        entry_price=100.0, size=1.0, stop=stop)

    def test_low_breach_fills_at_stop(self):
        bar = Bar(timestamp=T0 + INTERVAL, open=102.0, high=103.0, low=99.0,
                  close=101.0, volume=1e6)
        state, trade = step(self._held_long(100.0), bar, mom=0.0, atr_value=2.0,
                            params=PARAMS, intrabar_stop_fill=True)
        assert state is None
        assert trade.exit_px == 100.0

    def test_gap_down_fills_at_open(self):
        bar = Bar(timestamp=T0 + INTERVAL, open=98.0, high=99.0, low=97.0,
                  close=98.5, volume=1e6)
        state, trade = step(self._held_long(100.0), bar, mom=0.0, atr_value=2.0,
                            params=PARAMS, intrabar_stop_fill=True)
        assert trade.exit_px == 98.0

    def test_no_breach_ratchets_normally(self):
        bar = Bar(timestamp=T0 + INTERVAL, open=101.0, high=106.0, low=100.5,
                  close=105.0, volume=1e6)
        state, trade = step(self._held_long(100.0), bar, mom=0.0, atr_value=2.0,
                            params=PARAMS, intrabar_stop_fill=True)
        assert trade is None
        assert state.stop == pytest.approx(101.0)


def flat_series(rng, n, *, gaps):
    """rough_series with up to two flat stretches, bars whose every price is
    the last close: after atr_window of them the ATR is exactly 0, so a stop
    sits exactly on the close (or the low) without breaching it."""
    rough = rough_series(rng, n, INTERVAL, gaps=gaps, zero_volume=0.0)
    o, h, lo, c = (col.copy() for col in (rough.open, rough.high, rough.low,
                                          rough.close))
    for _ in range(int(rng.integers(0, 3)) if n > 1 else 0):
        a = int(rng.integers(1, n))
        b = min(n, a + int(rng.integers(1, 12)))
        c[a:b] = o[a:b] = h[a:b] = lo[a:b] = c[a - 1]
        if b < n:  # the next bar opens where the stretch ended
            o[b] = c[a - 1]
            h[b], lo[b] = max(h[b], o[b], c[b]), min(lo[b], o[b], c[b])
    return PriceSeries("RND", INTERVAL, rough.timestamps, o, h, lo, c,
                       rough.volume)


def per_cell(found, n_cells):
    """One problem's find_trades_stacked columns as each cell's list of
    (entry, exit, exit price, side, forced), the form the scalar search
    returns."""
    lists = [[] for _ in range(n_cells)]
    for cell, e, x, px, forced, short in zip(*(col.tolist() for col in found)):
        lists[cell].append((e, x, px, "short" if short else "long", forced))
    return lists


class TestStopMax:
    """The intrabar fill's trailing stop, max(cands[side, row, lo:hi]) per
    query, against a brute-force max."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        rows, n, count = int(rng.integers(1, 4)), int(rng.integers(2, 30)), 40
        cands = rng.normal(size=(2, rows, n))
        side = rng.integers(0, 2, count)
        row = rng.integers(0, rows, count)
        lo = rng.integers(0, n - 1, count)
        hi = rng.integers(lo + 1, n)
        # Queries on the last row of each side ending on the last bar, and
        # one-bar segments.
        side[:4], row[:4] = (1, 0, 1, 0), rows - 1
        hi[:2] = n - 1
        hi[2:4] = lo[2:4] + 1
        flat = (side * rows + row) * n + lo
        assert (np.diff(flat) < 0).any()  # queries out of flat order
        want = [cands[s, r, a:b].max() for s, r, a, b
                in zip(side.tolist(), row.tolist(), lo.tolist(), hi.tolist())]
        assert _stop_max(cands, side, row, lo, hi).tolist() == want
        # One side's search passes its only side as 0.
        want = [cands[1, r, a:b].max() for r, a, b
                in zip(row.tolist(), lo.tolist(), hi.tolist())]
        assert _stop_max(cands[1:], 0, row, lo, hi).tolist() == want


def first_breaches(tested, cand, prob, n, trailing):
    """_exits by a scan: for each row a and entry bar e, the first bar j in
    (e, n[a]) whose tested price is below the stop, cand[a, e] (fixed) or
    the max of cand[a, e..j-1] (trailing), else n[a]; then n[a]."""
    out = []
    for a, (p, bars) in enumerate(zip(prob.tolist(), n.tolist())):
        row, stops = tested[p].tolist(), cand[a].tolist()
        exits = []
        for e in range(len(stops)):
            exits.append(next(
                (j for j in range(e + 1, bars)
                 if row[j] < (max(stops[e:j]) if trailing else stops[e])),
                bars))
        out.append(exits + [bars])
    return out


class TestExits:
    @pytest.mark.parametrize("trailing", [False, True])
    @pytest.mark.parametrize("width", [1, 2, 63, 64, 65, 127, 128, 129])
    def test_matches_a_first_breach_scan(self, width, trailing):
        # Three problems of mixed window lengths, the longest ``width``
        # bars, three stop rows each. Prices step by whole units, so a stop
        # is often met exactly (no breach); stops sit about 2, 6 or 12
        # units below the price, so some trades run for dozens of bars and
        # some to the end of the window.
        rng = np.random.default_rng(width)
        lengths = np.array([width, *rng.integers(1, width + 1, 2)])
        walk = np.cumsum(rng.integers(-2, 3, (3, width)), axis=1) * 1.0
        bars = np.arange(width)
        tested = np.where(bars < lengths[:, None],
                          walk - rng.integers(0, 2, walk.shape), np.inf)
        prob = np.repeat(np.arange(3), 3)
        n = lengths[prob]
        depth = np.array([2, 6, 12] * 3)[:, None]
        cand = walk[prob] - depth + rng.integers(0, 2, (len(prob), width))
        # NaN candidates before each row's warm-up and past its window.
        warm = rng.integers(0, min(width, 6), len(prob))
        cand[(bars < warm[:, None]) | (bars >= n[:, None])] = np.nan
        got = _exits(tested, cand, prob, n, trailing)
        want = first_breaches(tested, cand, prob, n, trailing)
        assert got.shape == (len(prob), width + 1)
        for a, start in enumerate(warm.tolist()):
            assert got[a, start:].tolist() == want[a][start:], a
        if width >= 63:  # some stop is breached far from its entry
            breached = (got[:, :-1] < n[:, None]) & (bars >= warm[:, None])
            assert (got[:, :-1] - bars)[breached].max() > 16

    def test_the_table_holds_levels_by_problems_by_width_plus_one(self):
        # 40 problems of 129 bars and two stop rows: the sparse table's 8
        # levels of 40 x 130 floats set the traced peak, with a few row
        # matrices beside them. A table padded by 2^levels columns would
        # hold 40 x 385 floats a level.
        width, problems = 129, 40
        rng = np.random.default_rng(0)
        tested = np.cumsum(rng.normal(size=(problems, width)), axis=1)
        prob = np.array([0, problems - 1])
        cand = tested[prob] - 1.0
        n = np.full(len(prob), width)
        table = 8 * width.bit_length() * problems * (width + 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _exits(tested, cand, prob, n, True)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert table <= peak < table + 8 * 8 * len(prob) * (width + 1), (
            peak, table)


# Lookbacks up to 40 bars, longer than some windows and than the bars back
# to a window's ATR checkpoint, and series up to 200 bars, past several
# checkpoints: the gather's lead is then sometimes the lookback's.
LOOKBACK = st.one_of(st.integers(1, 6), st.integers(1, 40))
BARS = st.one_of(st.integers(0, 60), st.integers(0, 200))

CELL = st.builds(StrategyParams,
                 theta_entry=st.sampled_from([-0.01, 0.0, 0.004, 0.03, math.inf]),
                 theta_entry_short=st.sampled_from([1e-4, 0.01, 0.03, math.inf]),
                 alpha=st.sampled_from([0.5, 1.5, 4.0]),
                 lookback=LOOKBACK, atr_window=st.integers(1, 8))


class TestFindTrades:
    """The array search finds the trades of the scalar search it replaced
    (tests/scalar_reference.py), cell for cell and float for float."""

    def check(self, series, bounds, cells, side, trailing, intrabar):
        found = find_trades_stacked(
            [(series, bounds, [sided(c, side) for c in cells])],
            trailing=trailing, intrabar_stop_fill=intrabar)[1]
        assert (np.diff(found.cell) >= 0).all()  # grouped by cell
        search = scalar_reference.TradeSearch(series, bounds, trailing,
                                              intrabar)
        want = [search.trades(cell, side) for cell in cells]
        assert per_cell(found, len(cells)) == want
        return want

    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=BARS, gaps=st.booleans(),
           start=BARS, length=st.one_of(st.sampled_from([0, 1, 2, 3]), BARS),
           side=st.sampled_from(SIDE_CHOICES), trailing=st.booleans(),
           intrabar=st.booleans(), cells=st.lists(CELL, min_size=1,
                                                  max_size=6))
    def test_same_trades_as_scalar_search(self, seed, n, gaps, start, length,
                                          side, trailing, intrabar, cells):
        # Windows may start inside the momentum and ATR warm-up, and hold
        # no bar, one or two.
        series = flat_series(np.random.default_rng(seed), n, gaps=gaps)
        i0 = min(start, n)
        self.check(series, (i0, min(i0 + length, n)), cells, side, trailing,
                   intrabar)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=BARS, gaps=st.booleans(),
           start=BARS, trailing=st.booleans(), intrabar=st.booleans(),
           cells=st.lists(CELL, min_size=1, max_size=3), data=st.data())
    def test_mixed_sides_trade_as_each_cell_alone(self, seed, n, gaps, start,
                                                  trailing, intrabar, cells,
                                                  data):
        # Each cell long-only, short-only, two-sided and with both
        # thresholds at +inf, in a random order: one search covers both
        # sides, and every cell trades only the sides it turns on.
        mixed = data.draw(st.permutations([
            kind for c in cells for kind in (
                sided(c, "long"), sided(c, "short"), c,
                replace(c, theta_entry=math.inf, theta_entry_short=math.inf))
        ]))
        series = flat_series(np.random.default_rng(seed), n, gaps=gaps)
        bounds = (min(start, n), n)
        execution = dict(trailing=trailing, intrabar_stop_fill=intrabar)
        found = find_trades_stacked([(series, bounds, mixed)], **execution)[1]
        assert (np.diff(found.cell) >= 0).all()  # grouped by cell
        alone = [per_cell(find_trades_stacked([(series, bounds, [c])],
                                              **execution)[1], 1)[0]
                 for c in mixed]
        assert per_cell(found, len(mixed)) == alone

    def test_no_entry_before_the_atr_warm_up(self):
        # Momentum is defined from bar 1 and passes the threshold on every
        # bar, but the stop candidates are NaN until bar 6: the first trade
        # enters there, in every execution mode.
        series = gbm_series(np.random.default_rng(5), 40)
        cell = StrategyParams(-1.0, 1e-4, 1.5, 1, 7)
        for trailing in (True, False):
            for intrabar in (True, False):
                trades = self.check(series, (0, 40), [cell], "long",
                                    trailing, intrabar)[0]
                assert trades and trades[0][0] == 6

    def test_a_lookback_reaching_past_the_atr_checkpoint(self):
        # A window from bar 70 resumes its 3-bar ATR from the checkpoint
        # sum at bar 63, 7 bars back, while momentum reads 28 or 40 bars
        # back: the gather's lead is the lookback's, in every execution mode.
        series = gbm_series(np.random.default_rng(9), 200)
        assert signal_engine.ATR_STRIDE == 64
        assert signal_engine._window_atrs([(series, (70, 200), ())], [3], 40,
                                          130, False)[0] == 40
        cells = [StrategyParams(theta, theta, 1.5, lookback, 3)
                 for theta in (1e-4, 0.02) for lookback in (28, 40)]
        for trailing in (True, False):
            for intrabar in (True, False):
                found = self.check(series, (70, 200), cells, "both",
                                   trailing, intrabar)
                assert all(found) and found[0][0][0] == 0

    def test_a_close_on_the_stop_is_no_breach(self):
        # A rise, then flat bars (the ATR falls to 0 and the trailing stop
        # onto the close), then one bar a cent lower: the long holds
        # through the flat bars and exits on the lower one.
        closes = [100.0 + k for k in range(10)] + [110.0] * 12 + [109.99] * 3
        c = np.array(closes)
        o = np.concatenate(([100.0], c[:-1]))
        h = np.maximum(o, c) + np.where(c == 110.0, 0.0, 0.5)
        lo = np.minimum(o, c) - np.where(c == 110.0, 0.0, 0.5)
        ts = T0 + INTERVAL * np.arange(1, len(c) + 1, dtype=np.int64)
        series = PriceSeries("RND", INTERVAL, ts, o, h, lo, c,
                             np.full(len(c), 1e6))
        cell = StrategyParams(0.001, 1e-4, 2.0, 2, 3)
        for intrabar in (False, True):
            trades = self.check(series, (0, len(c)), [cell], "long", True,
                                intrabar)[0]
            assert trades[0][1] == 22 and not trades[0][4]


class TestCutPosition:
    """A halt cuts a window's trades at its last bar at or before the halt:
    that equals the trade search over the window cut there."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 60),
           gaps=st.booleans(), bounds=st.tuples(st.integers(0, 70),
                                                st.integers(0, 70)),
           trailing=st.booleans(), intrabar=st.booleans(),
           cells=st.lists(CELL, min_size=1, max_size=3), data=st.data())
    def test_equals_search_over_the_cut_window(self, seed, n, gaps, bounds,
                                               trailing, intrabar, cells,
                                               data):
        series = flat_series(np.random.default_rng(seed), n, gaps=gaps)
        a, b = sorted(bounds)
        window = (T0 + a * INTERVAL, T0 + b * INTERVAL)
        # The halt is a mark of the window, on a bar of this series or not.
        halt = data.draw(st.integers(*window), label="halt")
        execution = dict(trailing=trailing, intrabar_stop_fill=intrabar)
        full = series.slice_indices(*window)
        found = find_trades_stacked([(series, full, cells)], **execution)[1]
        got = cut_position(signal_engine.Position(series, full, found, 1.0),
                           halt)
        cut = series.slice_indices(window[0], halt)
        assert got.bounds == cut
        for g, w in zip(got.found, find_trades_stacked(
                [(series, cut, cells)], **execution)[1]):
            assert g.dtype == w.dtype and g.tolist() == w.tolist()


class TestGridSharpes:
    """Every cell's batched Sharpe equals the engine's, bit for bit."""

    CELLS = [StrategyParams(theta, theta, alpha, lookback, 4)
             for theta in (0.0001, 0.01, 0.04)
             for alpha in (0.5, 2.0, 6.0)
             for lookback in (1, 3, 9)]

    def reference(self, series, cell, window, cost_cfg, rf, **execution):
        res = run_single_asset(series, cell, window=window, cost_cfg=cost_cfg,
                               **execution)
        if not res.trades:
            return None
        return rolling_sharpe(res.net_returns, rf, bars_per_year(series.interval))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           vol=st.sampled_from([0.2, 1.0, 3.0]),
           cost_cfg=st.sampled_from([ZERO_COSTS, CostConfig(),
                                     CostConfig(funding_rates={"RND": [
                                         (T0 + 20 * INTERVAL, -5e-4)]})]),
           start=st.integers(0, 30),
           side=st.sampled_from(["long", "short"]),
           trailing=st.booleans(), intrabar=st.booleans())
    def test_every_cell_matches_engine(self, seed, vol, cost_cfg, start, side,
                                       trailing, intrabar):
        series = gbm_series(np.random.default_rng(seed), 60, vol=vol)
        ts = series.timestamps
        window = (int(ts[start]), int(ts[-1]))
        execution = dict(trailing=trailing, intrabar_stop_fill=intrabar)
        cells = [sided(cell, side) for cell in self.CELLS]
        got = grid_sharpes_stacked(
            [(series, series.slice_indices(*window), cells)], cost_cfg, 0.045,
            **execution)[0]
        for cell, value in zip(cells, got):
            want = self.reference(series, cell, window, cost_cfg, 0.045,
                                  **execution)
            assert (math.isnan(value) if want is None else value == want), cell

    def test_short_window_and_bad_side(self):
        series = gbm_series(np.random.default_rng(1), 30)
        longs = [sided(cell, "long") for cell in self.CELLS]
        assert np.isnan(grid_sharpes_stacked([(series, (5, 6), longs)],
                                             ZERO_COSTS, 0.0)[0]).all()
        # Every cell must turn on the one side that all of them trade.
        for cells in (self.CELLS, longs[:3] + [sided(self.CELLS[3], "short")],
                      longs + [sided(longs[0], "short")], []):
            with pytest.raises(EngineError):
                grid_sharpes_stacked([(series, (0, 30), cells)], ZERO_COSTS,
                                     0.0)

    def test_scoring_adds_less_than_half_its_matrix(self, monkeypatch):
        # The scorer owns its cells x bars matrix of net returns and scores
        # it in place: 2,000 x 500 floats (8 MB) add their constant-row mask
        # and a few vectors, not a second matrix of deviations.
        series = gbm_series(np.random.default_rng(1), 30)
        rows, bars = 2_000, 500
        net = np.random.default_rng(2).normal(0.0, 0.01, (rows, bars))
        net[::7] = 0.01  # constant rows among them
        nbytes = net.nbytes
        want = sharpe_rows_in_place(net.copy(), 0.045, 1460.0)
        handed = [net]
        del net
        monkeypatch.setattr(signal_engine, "_net_returns", lambda *a, **k: (
            np.arange(rows), handed.pop()))
        problems = [(series, (0, 30), [sided(self.CELLS[0], "long")] * rows)]
        tracemalloc.start()
        try:
            got = grid_sharpes_stacked(problems, ZERO_COSTS, 0.045)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nbytes / 2, (peak, nbytes)
        np.testing.assert_array_equal(got, want)


# Cells that trade one side each: a threshold of 5 is never passed, so a
# problem of such cells has no trade.
SCORED_CELL = st.builds(
    StrategyParams,
    theta_entry=st.sampled_from([-0.01, 0.0, 0.004, 0.03, 5.0]),
    theta_entry_short=st.sampled_from([1e-4, 0.01, 0.03, 5.0]),
    alpha=st.sampled_from([0.5, 1.5, 4.0]),
    lookback=LOOKBACK, atr_window=st.integers(1, 8))

EXECUTIONS = pytest.mark.parametrize(
    "execution", [dict(trailing=t, intrabar_stop_fill=i)
                  for t in (True, False) for i in (False, True)],
    ids=["trailing", "trailing-intrabar", "fixed", "fixed-intrabar"])


@st.composite
def stacks(draw, cell, sides):
    """1-5 problems over 1-3 series of up to 200 bars with or without gaps
    (RND, SYM1, SYM2),
    each a window of from none to every bar, with 1-3 cells: one side drawn
    per cell and one window length per problem, or, when ``sides`` is
    "stack", one side and one window length for the whole stack, the one
    shape that grid_sharpes_stacked scores."""
    pool = []
    for j in range(draw(st.integers(1, 3))):
        rough = flat_series(np.random.default_rng(
            draw(st.integers(0, 2 ** 32 - 1))), draw(BARS),
            gaps=draw(st.booleans()))
        pool.append(PriceSeries("RND" if j == 0 else f"SYM{j}",
                                rough.interval, *rough.columns()))
    problems = []
    side = draw(st.sampled_from(["long", "short"]))
    if sides == "stack":
        length = draw(st.integers(0, min(len(series) for series in pool)))
    for _ in range(draw(st.integers(1, 5))):
        series = draw(st.sampled_from(pool))
        if sides == "cell":
            bounds = sorted(draw(st.tuples(
                *[st.integers(0, len(series))] * 2)))
        else:
            i0 = draw(st.integers(0, len(series) - length))
            bounds = (i0, i0 + length)
        cells = []
        for c in draw(st.lists(cell, min_size=1, max_size=3)):
            if sides == "cell":
                side = draw(st.sampled_from(["long", "short", "both",
                                             "none"]))
            cells.append(replace(c, theta_entry=math.inf,
                                 theta_entry_short=math.inf)
                         if side == "none" else sided(c, side))
        problems.append((series, tuple(bounds), cells))
    return problems


class TestStackedSearch:
    """A stack of problems, searched and scored in one call, gives each
    problem what a call with it alone gives, bit for bit."""

    @EXECUTIONS
    @settings(max_examples=150, deadline=None)
    @given(problems=stacks(CELL, "cell"))
    def test_trades_equal_each_problem_alone(self, execution, problems):
        problem, found = find_trades_stacked(problems, **execution)
        assert (np.diff(problem) >= 0).all()  # grouped by problem
        for k, (series, bounds, cells) in enumerate(problems):
            alone = find_trades_stacked([(series, bounds, cells)],
                                        **execution)[1]
            for got, want in zip(found, alone):
                got = got[problem == k]
                assert got.dtype == want.dtype
                assert got.tolist() == want.tolist()

    @EXECUTIONS
    @settings(max_examples=150, deadline=None)
    @given(problems=stacks(SCORED_CELL, "stack"),
           cost_cfg=st.sampled_from(COST_CHOICES),
           rf=st.sampled_from([0.0, 0.045]))
    def test_sharpes_equal_each_problem_alone(self, execution, problems,
                                              cost_cfg, rf):
        rows = grid_sharpes_stacked(problems, cost_cfg, rf, **execution)
        assert len(rows) == len(problems)
        for row, (series, bounds, cells) in zip(rows, problems):
            alone = grid_sharpes_stacked([(series, bounds, cells)], cost_cfg,
                                         rf, **execution)[0]
            assert row.tobytes() == alone.tobytes()  # NaN in the same places

    def test_sharpes_need_one_window_length_and_interval(self):
        # The scorer nets a stack's returns as one matrix at one
        # annualization, so windows of two lengths, or series at two bar
        # intervals, are a contract breach.
        six = gbm_series(np.random.default_rng(2), 60)
        hourly = gbm_series(np.random.default_rng(3), 60, symbol="HRLY",
                            interval=3600)
        longs = [sided(cell, "long") for cell in TestGridSharpes.CELLS[:4]]
        for stack in ([(six, (0, 40), longs), (six, (10, 40), longs)],
                      [(six, (0, 40), longs), (hourly, (0, 40), longs)]):
            with pytest.raises(EngineError, match="one length"):
                grid_sharpes_stacked(stack, ZERO_COSTS, 0.0)
            for problem in stack:  # each alone is scored
                assert grid_sharpes_stacked([problem], ZERO_COSTS,
                                            0.0)[0].shape == (4,)


def reference_rows(keys):
    """The distinct keys in first-seen order and the row of each key, by a
    dict over the cells' own fields: the row maps a CellTable must hold."""
    rows = {}
    row_of = [rows.setdefault(key, len(rows)) for key in keys]
    return [list(key) for key in rows], row_of


def axis(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=4)


class TestCellTable:
    """A CellTable's rows and row maps equal those built from its
    StrategyParams one by one, for a grid's cells and for any list."""

    def check(self, table, cells):
        assert isinstance(table, CellTable) and table == tuple(cells)
        assert CellTable(table) is table
        for rows, row_of, keys, width in (
                (table.entry, table.entry_of,
                 [(c.theta_entry, c.theta_entry_short, c.lookback,
                   c.atr_window) for c in cells], 4),
                (table.exit, table.exit_of,
                 [(c.alpha, c.atr_window) for c in cells], 2)):
            want_rows, want_of = reference_rows(keys)
            assert rows.dtype == float and row_of.dtype == np.intp
            assert rows.shape == (len(want_rows), width)
            assert rows.tolist() == want_rows and row_of.tolist() == want_of
        assert table.sides == {(c.theta_entry < math.inf,
                                c.theta_entry_short < math.inf) for c in cells}

    @settings(max_examples=100, deadline=None)
    @given(theta=axis([0.005, 0.01, 0.03, 0.08]),
           theta_short=axis([0.01, 0.02, 0.05]),
           alpha=axis([1.0, 1.5, 2.0, 4.0]), lookback=axis([1, 4, 8, 20]),
           atr_window=st.integers(1, 30),
           side=st.sampled_from(["long", "short"]))
    def test_grid_tables_equal_their_cells_one_by_one(
            self, theta, theta_short, alpha, lookback, atr_window, side):
        grid = ParamGrid(theta_entry=tuple(theta),
                         theta_entry_short=tuple(theta_short),
                         alpha=tuple(alpha), lookback=tuple(lookback),
                         atr_window=atr_window)
        cells = grid_cells(grid, side)
        self.check(cells, list(cells))
        assert cells.sides == {(side == "long", side == "short")}

    @settings(max_examples=100, deadline=None)
    @given(cells=st.lists(st.builds(
        StrategyParams, st.sampled_from([0.01, 0.05, math.inf]),
        st.sampled_from([0.01, 0.05, math.inf]), st.sampled_from([1.0, 2.0]),
        st.sampled_from([2, 4]), st.sampled_from([3, 14])), max_size=8))
    def test_any_list_equals_its_cells_one_by_one(self, cells):
        self.check(CellTable(cells), cells)


class TestLedgerIo:
    def _records(self):
        t1 = TradeRecord(symbol="BTC", side="long", entry_ts=T0 + INTERVAL,
                         entry_px=100.0, exit_ts=T0 + 5 * INTERVAL, exit_px=110.0,
                         size=5_000.0, gross_pnl=500.0, fee_cost=4.2,
                         slippage_cost=1.25, funding_cost=-0.5,
                         net_pnl=500.0 - 4.2 - 1.25 + 0.5, forced=False)
        t2 = TradeRecord(symbol="ETH", side="short", entry_ts=T0 + 2 * INTERVAL,
                         entry_px=50.0, exit_ts=T0 + 9 * INTERVAL, exit_px=45.0,
                         size=3_000.0, gross_pnl=300.0, fee_cost=2.4,
                         slippage_cost=0.8, funding_cost=0.3,
                         net_pnl=300.0 - 2.4 - 0.8 - 0.3, forced=True)
        return [t1, t2]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ledger.csv"
        write_ledger(as_ledger(self._records()), str(path))
        assert read_ledger(str(path)) == self._records()

    def test_rewrite_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_ledger(as_ledger(self._records()), str(p1))
        write_ledger(as_ledger(read_ledger(str(p1))), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_schema(self, tmp_path):
        path = tmp_path / "ledger.csv"
        write_ledger(NO_LEDGER, str(path))
        header = path.read_text().splitlines()[0]
        assert header == ("symbol,side,entry_ts,entry_px,exit_ts,exit_px,size,"
                          "gross_pnl,fee,slippage,funding,net_pnl,forced")

    def test_short_without_funding_event_books_positive_zero(self, tmp_path):
        # Held from 00:00 to 06:00, the short meets none of the 0/8/16 h
        # funding events (the window's 08:00 one falls after its exit). Its
        # funding is +0.0 and prints as 0.0; a -0.0 would print as -0.0 and
        # change the ledger's bytes.
        series = make_series([100.0, 99.0, 98.0], t0=T0 - INTERVAL)
        assert series.timestamps[0] == T0
        found = Trades(cell=np.zeros(1, np.intp), entry=np.array([0]),
                       exit=np.array([1]), exit_px=np.array([99.0]),
                       forced=np.array([False]), short=np.array([True]))
        ledger = book_trades(series, (0, 3), found, 1_000.0,
                             CostConfig()).trades
        trade, = records(ledger)
        assert trade.side == "short" and trade.funding_cost == 0.0
        assert math.copysign(1.0, trade.funding_cost) == 1.0
        path = tmp_path / "ledger.csv"
        write_ledger(ledger, str(path))
        row = dict(zip(*(line.split(",")
                         for line in path.read_text().splitlines())))
        assert row["funding"] == "0.0"


@st.composite
def atr_stacks(draw):
    """1-3 series of 1-300 bars, some with gaps in time, each bar opening
    away from the last close, and a stack of 1-5 windows over them: bounds
    anywhere, on and around multiples of signal_engine.ATR_STRIDE, to the
    series' end, and 0-2 bars long; with 1-3 ATR windows from one bar to
    longer than the series, a lookback as long, and whether to gather the
    opens."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        rough = rough_series(rng, draw(st.integers(1, 300)), INTERVAL,
                             gaps=draw(st.booleans()), zero_volume=0.0)
        # each bar scaled alone, so a true range often reaches back to the
        # last close, above the bar or below it
        scale = np.exp(rng.normal(0.0, 0.05, len(rough)))
        pool.append(PriceSeries(
            "RND", INTERVAL, rough.timestamps,
            *(column * scale for column in (rough.open, rough.high,
                                            rough.low, rough.close)),
            rough.volume))
    stride = signal_engine.ATR_STRIDE
    stack = []
    for _ in range(draw(st.integers(1, 5))):
        series = draw(st.sampled_from(pool))
        n = len(series)
        near = sorted({min(max(k * stride + d, 0), n)
                       for k in range(n // stride + 2) for d in (-1, 0, 1)})
        i0 = draw(st.one_of(st.integers(0, n), st.sampled_from(near)))
        i1 = draw(st.one_of(
            st.just(n), st.integers(i0, min(i0 + 2, n)), st.integers(i0, n),
            st.sampled_from([b for b in near if b >= i0])))
        stack.append((series, (i0, i1), ()))
    longest = max(len(series) for series in pool)
    windows = sorted(draw(st.sets(st.one_of(
        st.integers(1, 3), st.integers(1, longest + 10)),
        min_size=1, max_size=3)))
    lookback = draw(st.one_of(st.integers(1, 3), st.integers(1, longest + 10)))
    return stack, windows, lookback, draw(st.booleans())


class TestWindowAtrs:
    """The search's price blocks are the series' own prices from ``before``
    bars ahead of each window, and its ATR rows, resumed from each series'
    running-sum checkpoints, equal indicators.atr of the whole series, bit
    for bit."""

    @settings(max_examples=300, deadline=None)
    @given(drawn=atr_stacks())
    def test_rows_equal_the_whole_series_atr(self, drawn):
        stack, windows, lookback, opens = drawn
        width = max(i1 - i0 for _, (i0, i1), _ in stack)
        before, atrs, blocks = signal_engine._window_atrs(
            stack, windows, lookback, width, opens)
        assert before >= lookback
        assert atrs.shape == (len(windows) * len(stack), width)
        names = ("high", "low", "close", "open")[:3 + opens]
        assert len(blocks) == len(names)
        for p, (series, (i0, i1), _) in enumerate(stack):
            n = i1 - i0
            for got, name in zip(blocks, names):
                column = getattr(series, name)
                assert got.shape == (len(stack), before + width)
                got = got[p]
                # a bar before the series' first reads its first
                lead = column[max(i0 - before, 0):i0]
                assert (got[:before - len(lead)] == column[0]).all()
                assert got[before - len(lead):before].tobytes() == (
                    lead.tobytes())
                assert got[before:before + n].tobytes() == (
                    column[i0:i1].tobytes())
                assert np.isnan(got[before + n:]).all()
            for k, w in enumerate(windows):
                row = atrs[k * len(stack) + p]
                want = atr(series.high, series.low, series.close, w)[i0:i1]
                assert row[:n].tobytes() == want.tobytes()  # NaN alike
                assert np.isnan(row[n:]).all()

    def test_checkpoints_are_the_running_sum(self):
        # One float per ATR_STRIDE bars: the running sum that
        # indicators.atr differences, from the series' first bar.
        series = gbm_series(np.random.default_rng(5), 200)
        sums = signal_engine._tr_checkpoints(series)
        stride = signal_engine.ATR_STRIDE
        running = np.cumsum(true_range(series.high, series.low,
                                       series.close))
        assert len(sums) == len(series) // stride + 1
        assert sums[0] == 0.0
        assert sums[1:].tolist() == running[stride - 1::stride].tolist()
        assert signal_engine._tr_checkpoints(series) is sums
