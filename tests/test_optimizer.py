"""The shared Optimizer: a memo that changes no result."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaptivetrend.backtester import (ABLATION_VARIANTS, BacktestConfig,
                                      ablation_config, run_backtest)
from adaptivetrend.cost_model import ZERO_COSTS, CostConfig
from adaptivetrend.rebalancer import (CapIndex, Optimizer, ParamGrid,
                                      RebalanceConfig, grid_cells,
                                      optimization_window, optimize_params,
                                      run_rebalance)

from conftest import (COST_CHOICES, FEB1, INTERVAL, MAR1, T0, jumpy_universe,
                      market_of)

BASE_GRID = ParamGrid(theta_entry=(0.005, 0.03), theta_entry_short=(0.005,),
                      alpha=(1.0, 2.0, 3.0), lookback=(4,), atr_window=3)


def point_cfg(universe, *, long_ratio=0.7, gamma=-100.0, alphas=(1.0, 3.0),
              cost=ZERO_COSTS, rf=0.045, trailing=True, intrabar=False,
              variant="full"):
    grid = replace(BASE_GRID, alpha=alphas)
    return ablation_config(BacktestConfig(
        start=FEB1, end=int(universe["RND"].arrays.timestamps[-1]),
        initial_balance=50_000.0, interval=INTERVAL,
        rebalance=RebalanceConfig(k_long=2, k_short=2, gamma_long=gamma,
                                  gamma_short=gamma, long_ratio=long_ratio,
                                  grid=grid, rf_annual=rf),
        costs=cost, trailing_stop_enabled=trailing,
        intrabar_stop_fill=intrabar), variant)


def assert_same_run(got, want):
    for name in ("timestamps", "balances"):
        assert np.array_equal(getattr(got.equity, name),
                              getattr(want.equity, name)), name
    assert got.equity.bankrupt == want.equity.bankrupt
    assert got.trades == want.trades
    assert got.rebalance_log == want.rebalance_log


VALUES = {
    "long_ratio": [0.0, 0.5, 0.7, 1.0],
    "gamma": [-100.0, 0.0, 1.3],
    "alphas": [(1.0,), (3.0,), (1.0, 3.0), (1.0, 2.0, 3.0)],
    "cost": COST_CHOICES,
    "rf": [0.0, 0.045],
    "trailing": [False, True],
    "intrabar": [False, True],
    "variant": list(ABLATION_VARIANTS),
}


@st.composite
def point_walks(draw):
    """Backtest points that change every field and the variant once each,
    in a random order, so that a memo key missing a field would hand one
    point the result of the point before."""
    point = {k: draw(st.sampled_from(v)) for k, v in VALUES.items()}
    walk = [point]
    for name in draw(st.permutations(sorted(VALUES))):
        other = [v for v in VALUES[name] if v is not point[name]]
        point = dict(point, **{name: draw(st.sampled_from(other))})
        walk.append(point)
    return walk


class TestSharedOptimizer:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_symbols=st.integers(2, 4),
           jump=st.sampled_from([1.0, 0.2]), points=point_walks())
    def test_shared_memo_changes_no_result(self, seed, n_symbols, jump, points):
        universe, caps = jumpy_universe(seed, n_symbols, jump)
        shared = market_of(universe, caps)
        for point in points:
            cfg = point_cfg(universe, **point)
            assert_same_run(run_backtest(shared, cfg),
                            run_backtest(market_of(universe, caps), cfg))
        # A repeat of the first point is answered from the memo.
        solved = shared.optimizer.solved
        run_backtest(shared, point_cfg(universe, **points[0]))
        assert shared.optimizer.solved == solved
        assert shared.optimizer.problems >= shared.optimizer.solved

    def test_lambda_points_share_every_problem(self):
        universe, caps = jumpy_universe(7, 4, 1.0)
        shared = market_of(universe, caps)
        for lam in (0.5, 0.7, 0.8):
            run_backtest(shared, point_cfg(universe, long_ratio=lam))
        assert shared.optimizer.solved > 0
        assert shared.optimizer.problems == 3 * shared.optimizer.solved

    def test_funding_schedules_do_not_share_an_entry(self):
        universe, _ = jumpy_universe(11, 1, 1.0)
        series = universe["RND"]
        window = optimization_window(MAR1, INTERVAL, 4)
        flat = CostConfig(funding_rate_per_8h=0.0)
        costs = [flat,
                 replace(flat, funding_rates={"RND": [(T0, 0.02)]}),
                 replace(flat, funding_rates={"RND": [(T0, -0.02)]}),
                 replace(flat, funding_rates={"RND": [(T0, 0.02)]})]
        assert costs[1] == costs[2]  # CostConfig equality ignores the table
        opt = Optimizer(universe)
        got = [opt.solve([(series, "long")], window, BASE_GRID, cost,
                         0.045, True, False)[0] for cost in costs]
        assert opt.solved == 3  # the last table's records equal the second's
        for cost, result in zip(costs, got):
            assert result == optimize_params(series, "long", window, BASE_GRID,
                                             cost, 0.045)
        assert got[1] != got[2]

    def test_refuses_another_universe(self):
        first, caps = jumpy_universe(3, 2, 1.0)
        second, _ = jumpy_universe(3, 2, 1.0)  # same symbols, other objects
        opt = Optimizer(first)
        args = (CapIndex(caps), MAR1, point_cfg(first).rebalance, ZERO_COSTS,
                INTERVAL)
        run_rebalance(first, *args, optimizer=opt)
        assert opt.solved > 0
        with pytest.raises(ValueError, match="another universe"):
            run_rebalance(second, *args, optimizer=opt)


def test_equal_grids_build_identical_cells():
    ints = ParamGrid(theta_entry=(0.01,), theta_entry_short=(0.01,),
                     alpha=(2,), lookback=(4,))
    floats = replace(ints, alpha=(2.0,))
    assert ints == floats and hash(ints) == hash(floats)
    for side in ("long", "short"):
        assert grid_cells(ints, side) is grid_cells(floats, side)
        assert all(type(c.alpha) is float for c in grid_cells(ints, side))
    with pytest.raises(TypeError):
        ParamGrid(lookback=(4.5,))
