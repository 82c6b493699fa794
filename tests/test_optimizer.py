"""The shared Optimizer: a memo and a union-grid search that change no
result."""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adaptivetrend import backtester, rebalancer, signal_engine
from adaptivetrend.backtester import (ABLATION_VARIANTS, BacktestConfig,
                                      Market, ablation_config, run_backtest)
from adaptivetrend.cost_model import ZERO_COSTS, CostConfig
from adaptivetrend.market_data import PriceSeries
from adaptivetrend.rebalancer import (SEARCH_BATCH_CELL_BARS, Optimizer,
                                      ParamGrid, RebalanceConfig, grid_cells,
                                      optimization_window, union_grid)

from conftest import (COST_CHOICES, FEB1, INTERVAL, MAR1, T0, jumpy_universe,
                      market_of, rough_series, solve_alone, solve_cfg)
from scalar_reference import cap_index, records

BASE_GRID = ParamGrid(theta_entry=(0.005, 0.03), theta_entry_short=(0.005,),
                      alpha=(1.0, 2.0, 3.0), lookback=(4,), atr_window=3)


def point_cfg(universe, *, long_ratio=0.7, gamma=-100.0, alphas=(1.0, 3.0),
              cost=ZERO_COSTS, rf=0.045, trailing=True, intrabar=False,
              variant="full"):
    grid = replace(BASE_GRID, alpha=alphas)
    return ablation_config(BacktestConfig(
        start=FEB1, end=int(universe["RND"].timestamps[-1]),
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
    assert records(got.trades) == records(want.trades)
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
        got = [opt.solve([("RND", "long")], window,
                         point_cfg(universe, alphas=BASE_GRID.alpha,
                                   cost=cost))[0]
               for cost in costs]
        assert opt.solved == 3  # the last table's records equal the second's
        for cost, result in zip(costs, got):
            assert result == solve_alone(series, "long", window,
                                         solve_cfg(BASE_GRID, cost, 0.045))
        assert got[1] != got[2]


class TestKeptRows:
    """A search's Sharpe row is kept only when it was searched over the
    union of two or more told grids: only then can another problem read it."""

    # A plain backtest tells no grid; a fee_bps sweep tells its one grid
    # once per point.
    @pytest.mark.parametrize("told", [0, 2])
    def test_a_grid_searched_alone_keeps_no_row(self, told):
        universe, caps = jumpy_universe(7, 4, 1.0)
        cfg = point_cfg(universe)
        market = Market(universe, cap_index(caps), [cfg.rebalance.grid] * told)
        for fee in (0.0, 4.0):
            run_backtest(market, replace(cfg, costs=replace(
                cfg.costs, taker_fee_bps=fee)))
        opt = market.optimizer
        assert opt.problems == opt.solved == opt.searches > 0
        assert opt._rows == {}

    def test_a_union_search_keeps_its_row(self):
        universe, caps = jumpy_universe(7, 4, 1.0)
        points = [point_cfg(universe, alphas=(a,)) for a in (1.0, 3.0)]
        market = Market(universe, cap_index(caps),
                        [p.rebalance.grid for p in points])
        for cfg in points:
            run_backtest(market, cfg)
        opt = market.optimizer
        assert opt.solved == 2 * opt.searches == 2 * len(opt._rows) > 0


def gappy_universe(seed: int, n_symbols: int):
    """jumpy_universe with up to three bars of February dropped from every
    symbol but RND, so that the month's windows differ in length."""
    universe, caps = jumpy_universe(seed, n_symbols, 1.0)
    rng = np.random.default_rng(seed)
    for symbol in list(universe)[1:]:
        series = universe[symbol]
        i0, i1 = series.slice_indices(FEB1, MAR1)
        keep = np.ones(len(series), dtype=bool)
        keep[rng.choice(np.arange(i0 + 1, i1), int(rng.integers(0, 4)),
                        replace=False)] = False
        universe[symbol] = PriceSeries(symbol, series.interval,
                                       *(c[keep] for c in series.columns()))
    return universe, caps


class TestBatchedSearch:
    """The Optimizer scores a month's problems together, split by side,
    window length and the cells x bars bound; each pick must equal that of
    the problem searched alone."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_symbols=st.integers(2, 6),
           bound=st.sampled_from([1, 700, 2000, SEARCH_BATCH_CELL_BARS]),
           cost=st.sampled_from(COST_CHOICES), rf=st.sampled_from([0.0, 0.045]),
           trailing=st.booleans(), intrabar=st.booleans())
    def test_every_pick_equals_a_search_alone(self, seed, n_symbols, bound,
                                              cost, rf, trailing, intrabar):
        universe, _ = gappy_universe(seed, n_symbols)
        window = optimization_window(MAR1, INTERVAL, 4)
        cfg = solve_cfg(BASE_GRID, cost, rf, trailing, intrabar)
        candidates = [(symbol, side) for side in ("long", "short")
                      for symbol in universe]
        opt = Optimizer(universe)
        with mock.patch.object(rebalancer, "SEARCH_BATCH_CELL_BARS", bound):
            got = opt.solve(candidates, window, cfg)
        assert got == [solve_alone(universe[symbol], side, window, cfg)
                       for symbol, side in candidates]
        # Each (side, window length) group in batches of the bound.
        groups = {}
        for symbol, side in candidates:
            i0, i1 = universe[symbol].slice_indices(*window)
            groups.setdefault((side, i1 - i0), []).append(symbol)
        batches = 0
        for (side, bars), symbols in groups.items():
            size = max(1, bound // (len(grid_cells(BASE_GRID, side)) * bars))
            batches += -(-len(symbols) // size)
        assert opt.searches == len(candidates)
        assert opt.batches == batches


def test_a_month_searches_in_few_calls(monkeypatch):
    # With a one-cell grid the Optimizer searches a month's problems in one
    # call per side, and the month's positions are searched in one call;
    # the default 225-cell grid gets as many problems a call as the cells x
    # bars bound lets in.
    universe, caps = jumpy_universe(3, 6, 1.0, n=600)
    month_sim = backtester.cell_positions
    search = signal_engine.find_trades_stacked
    score = rebalancer.grid_sharpes_stacked
    calls, inside, lengths = [], [], []

    def positions(asked, window, **kwargs):
        inside.append(True)
        try:
            return month_sim(asked, window, **kwargs)
        finally:
            inside.pop()

    def searched(problems, **kwargs):
        calls.append((bool(inside), len(problems)))
        return search(problems, **kwargs)

    def scored(problems, *args, **kwargs):
        lengths.append((len(problems),
                        {i1 - i0 for _, (i0, i1), _ in problems}))
        return score(problems, *args, **kwargs)

    monkeypatch.setattr(backtester, "cell_positions", positions)
    monkeypatch.setattr(signal_engine, "find_trades_stacked", searched)
    monkeypatch.setattr(rebalancer, "grid_sharpes_stacked", scored)
    one_cell = ParamGrid(theta_entry=(0.01,), theta_entry_short=(0.01,),
                         alpha=(2.0,), lookback=(4,), atr_window=3)
    cfg = point_cfg(universe, gamma=-100.0)
    cfg = replace(cfg, rebalance=replace(cfg.rebalance, k_long=3, k_short=3,
                                         grid=one_cell))
    months = len(run_backtest(market_of(universe, caps), cfg).rebalance_log)
    optimizer = [size for sim, size in calls if not sim]
    assert months >= 3
    assert len(optimizer) <= 2 * months and max(optimizer) == 3
    assert len([size for sim, size in calls if sim]) <= months
    # Every stack the Optimizer scores holds windows of one length.
    assert lengths and all(len(group) == 1 for _, group in lengths)

    # The default 225-cell grid: a month's 6 problems per side, over 109 to
    # 121 6-hour bars, are searched 5 or 4 to a call (2^17 cells x bars).
    universe, caps = jumpy_universe(3, 12, 1.0, n=600)
    lengths.clear()
    run_backtest(market_of(universe, caps), replace(cfg, rebalance=replace(
        cfg.rebalance, k_long=6, k_short=6, grid=ParamGrid())))
    assert [(size, *group) for size, group in lengths] == (
        2 * [(4, 121), (2, 121)] + 2 * [(5, 109), (1, 109)]
        + 2 * [(4, 121), (2, 121)] + 2 * [(4, 117), (2, 117)])


def test_a_grid_builds_its_cell_tables_once(monkeypatch):
    # grid_cells builds a grid's table of each side once, with its row maps;
    # no search call builds them again.
    universe, caps = jumpy_universe(3, 12, 1.0, n=600)
    build, score = signal_engine._rows, rebalancer.grid_sharpes_stacked
    built, scored = [], []
    monkeypatch.setattr(signal_engine, "_rows", lambda keys, width: (
        built.append(len(keys)) or build(keys, width)))
    monkeypatch.setattr(rebalancer, "grid_sharpes_stacked", lambda *a, **k: (
        scored.append(len(a[0])) or score(*a, **k)))
    rebalancer.grid_cells.cache_clear()
    cfg = point_cfg(universe)
    run_backtest(market_of(universe, caps), replace(cfg, rebalance=replace(
        cfg.rebalance, k_long=6, k_short=6, grid=ParamGrid())))
    assert len(scored) == 16
    # The default grid's two tables, each with an entry and a stop row map.
    assert built.count(225) == 4


def test_a_batched_search_holds_its_memory_to_its_bound(monkeypatch):
    # Each call the Optimizer makes holds at most SEARCH_BATCH_CELL_BARS
    # cells x bars, and its traced peak stays below 2.5 float matrices of
    # its cells x bars: the net returns, the temporary of their standard
    # deviation and a little more (about 2.1). A scorer that keeps the
    # trades alive while it scores them peaks at about 3.
    universe, _ = jumpy_universe(3, 30, 1.0, n=600)
    score = rebalancer.grid_sharpes_stacked
    calls = []

    def scored(problems, *args, **kwargs):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        found = score(problems, *args, **kwargs)
        calls.append((sum(len(cells) * (i1 - i0)
                          for _, (i0, i1), cells in problems),
                      tracemalloc.get_traced_memory()[1] - before))
        return found

    monkeypatch.setattr(rebalancer, "grid_sharpes_stacked", scored)
    candidates = [(symbol, side) for side in ("long", "short")
                  for symbol in universe]
    tracemalloc.start()
    try:
        Optimizer(universe).solve(candidates, optimization_window(
            MAR1, INTERVAL, 4), solve_cfg(ParamGrid(), CostConfig()))
    finally:
        tracemalloc.stop()
    assert len(calls) == 12  # 30 problems of 225 cells x 109 bars a side
    for cells_bars, peak in calls:
        assert cells_bars <= SEARCH_BATCH_CELL_BARS
        assert peak < 2.5 * 8 * cells_bars, (peak, cells_bars)


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


# The union the sub-grids below are drawn from. Its largest lookback needs a
# 24-bar window, its smallest a 4-bar one.
UNION = ParamGrid(theta_entry=(-0.01, 0.0, 0.01, 0.03),
                  theta_entry_short=(0.005, 0.02), alpha=(0.5, 1.0, 2.0, 3.0),
                  lookback=(2, 4, 8, 12), atr_window=3)


@st.composite
def sub_grids(draw):
    """A grid whose every axis is a nonempty subset of UNION's, in any
    order."""
    axes = {name: tuple(draw(st.lists(st.sampled_from(getattr(UNION, name)),
                                      min_size=1, unique=True)))
            for name in ("theta_entry", "theta_entry_short", "alpha",
                         "lookback")}
    return ParamGrid(**axes, atr_window=UNION.atr_window)


@st.composite
def cost_configs(draw):
    """Fees, slippage and a flat or per-symbol funding table."""
    table = draw(st.sampled_from([None, "flat", "steps"]))
    rates = None
    if table is not None:
        times = sorted(draw(st.lists(st.integers(0, 60), min_size=1,
                                     max_size=4, unique=True)))
        rates = {"RND": [(T0 + k * 8 * 3_600,
                          draw(st.sampled_from([-7e-4, 0.0, 2e-4, 1e-3])))
                         for k in (times[:1] if table == "flat" else times)]}
    return CostConfig(
        taker_fee_bps=draw(st.sampled_from([0.0, 4.0, 10.0])),
        slip_coeff=draw(st.sampled_from([0.0, 0.1, 5.0])),
        funding_rate_per_8h=draw(st.sampled_from([0.0, 1e-4, -3e-4])),
        funding_hours=draw(st.sampled_from([(0, 8, 16), (3, 11, 19)])),
        funding_rates=rates)


def union_series(kind: str, seed: int, n: int) -> PriceSeries:
    """"rough": a lognormal path with gaps and zero-volume bars; "flat": one
    price throughout, so no cell has a defined Sharpe; "steps": flat
    stretches between a few jumps, so that many cells make the same trades
    and tie."""
    rng = np.random.default_rng(seed)
    if kind == "rough":
        return rough_series(rng, n, INTERVAL, gaps=True, zero_volume=0.2)
    closes = np.full(n, 100.0)
    if kind == "steps":
        jumps = np.zeros(n)
        jumps[rng.integers(0, n, 4)] = rng.choice([-0.08, 0.05, 0.12], 4)
        closes = 100.0 * np.cumprod(1.0 + jumps)
    ts = T0 + np.arange(1, n + 1, dtype=np.int64) * INTERVAL
    opens = np.concatenate((closes[:1], closes[:-1]))
    return PriceSeries("RND", INTERVAL, ts, opens,
                       np.maximum(opens, closes) + 0.5,
                       np.minimum(opens, closes) - 0.5, closes, np.full(n, 1e6))


class TestUnionSearch:
    """An Optimizer told several grids searches their union once per
    problem; each grid's pick must equal that of a fresh Optimizer told no
    grid, which searches that grid alone."""

    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(["rough", "flat", "steps"]),
           seed=st.integers(0, 2 ** 32 - 1), n=st.integers(20, 70),
           bounds=st.tuples(st.integers(0, 69), st.integers(0, 69)),
           grids=st.lists(sub_grids(), min_size=1, max_size=4),
           cost=cost_configs(), rf=st.sampled_from([0.0, 0.045]),
           trailing=st.booleans(), intrabar=st.booleans())
    # A 10-bar window holds the 4 bars a lookback of 2 needs, and not the 24
    # of the union's lookback of 12.
    @example(kind="rough", seed=5, n=60, bounds=(30, 39),
             grids=[replace(UNION, lookback=(2,)), UNION],
             cost=ZERO_COSTS, rf=0.0, trailing=True, intrabar=False)
    def test_every_pick_equals_a_search_alone(self, kind, seed, n, bounds,
                                              grids, cost, rf, trailing,
                                              intrabar):
        series = union_series(kind, seed, n)
        ts = series.timestamps
        lo, hi = sorted(min(b, n - 1) for b in bounds)
        window = (int(ts[lo]), int(ts[hi]))
        opt = Optimizer({"RND": series}, grids)

        def check(asked):
            for grid in asked:
                cfg = solve_cfg(grid, cost, rf, trailing, intrabar)
                for side in ("long", "short"):
                    got = opt.solve([("RND", side)], window, cfg)[0]
                    assert got == solve_alone(series, side, window, cfg)

        check(grids)
        assert opt.solved == 2 * len(set(grids))
        assert opt.searches <= 2  # one per side serves every told grid
        # Grids the optimizer was not told search alone: one outside the
        # union, and one with another ATR window.
        check([replace(grids[0], alpha=(0.75,)),
               replace(grids[0], atr_window=5)])
        assert opt.searches <= 2 + 2 * 2

    def test_a_window_short_for_the_union_serves_a_grid_it_fits(self):
        series = union_series("rough", 5, 60)
        ts = series.timestamps
        window = (int(ts[30]), int(ts[39]))
        short = replace(UNION, lookback=(2,))
        opt = Optimizer({"RND": series}, [short, UNION])
        got = {grid: opt.solve([("RND", "long")], window,
                               solve_cfg(grid, ZERO_COSTS, 0.0))[0]
               for grid in (short, UNION)}
        assert got[UNION] is None  # 10 bars < 2 * 12
        assert got[short] is not None
        assert got[short] == solve_alone(series, "long", window,
                                         solve_cfg(short, ZERO_COSTS, 0.0))
        assert opt.searches == 1

    def test_union_grid(self):
        grids = [replace(UNION, alpha=(3.0, 1.0)), replace(UNION, alpha=(2.0,))]
        assert union_grid(grids) == replace(UNION, alpha=(1.0, 2.0, 3.0))
        assert union_grid(grids + [replace(UNION, atr_window=5)]) is None
        assert union_grid([]) is None
