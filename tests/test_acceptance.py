"""Acceptance gate: twelve end-to-end properties of the trading pipeline.

Each test is one criterion; a summary line per criterion is printed at the
end of the pytest run (see pytest_terminal_summary in conftest). Every
expected value is either hand-derived from a scripted fixture or recomputed
in-test by an independent method.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from adaptivetrend.analytics import (BEAR, BULL, SIDEWAYS,
                                     bootstrap_sharpe_test, classify_regimes,
                                     max_drawdown)
from adaptivetrend.backtester import (ABLATION_VARIANTS, BacktestConfig,
                                      ablation_config, month_starts_between,
                                      run_backtest)
from adaptivetrend.cost_model import ZERO_COSTS, CostConfig
from adaptivetrend.market_data import (SyntheticSpec, bars_per_year, date_of_ts,
                                       generate_synthetic_universe)
from adaptivetrend.rebalancer import (CandidateResult, ParamGrid,
                                      RebalanceConfig, evaluate_cell,
                                      grid_cells, optimization_window,
                                      select_and_allocate)
from adaptivetrend.signal_engine import StrategyParams, run_single_asset

from conftest import (FEB1, INTERVAL, SCRIPT_CLOSES, T0, bars_of, gbm_series,
                      make_series, market_of, series_from_bars, solve_alone,
                      solve_cfg)
from scalar_reference import cap_records, records

AUG1 = 1_659_312_000   # 2022-08-01 00:00 UTC
JUN30 = 1_656_547_200  # 2022-06-30 00:00 UTC


def check_budget(started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"runtime {elapsed:.1f}s exceeds {limit:.0f}s budget"


def trade_tuple(tr):
    return (tr.symbol, tr.side, tr.entry_ts, tr.entry_px, tr.exit_ts,
            tr.exit_px, tr.size, tr.gross_pnl, tr.fee_cost, tr.slippage_cost,
            tr.funding_cost, tr.net_pnl, tr.forced)


# ---------------------------------------------------------------------------
# 1. Scripted-series oracle
# ---------------------------------------------------------------------------

SCRIPT_PARAMS = StrategyParams(theta_entry=0.05, theta_entry_short=0.05,
                               alpha=2.0, lookback=4, atr_window=3)


def reference_simulation(closes, opens, params):
    """Independent plain-Python replay of the entry/trail/exit rules.

    Recomputes momentum, true range, and the trail from scratch and walks the
    bars one by one: enter on threshold crossings when flat (never on the
    final bar), ratchet the stop every held bar, exit on the first close
    through the stop, force-close whatever survives the last bar.
    """
    highs = [max(o, c) + 1.5 for o, c in zip(opens, closes)]
    lows = [min(o, c) - 1.5 for o, c in zip(opens, closes)]
    n = len(closes)

    mom = [math.nan] * n
    for i in range(params.lookback, n):
        mom[i] = closes[i] / closes[i - params.lookback] - 1.0
    tr = [highs[0] - lows[0]]
    for i in range(1, n):
        tr.append(max(highs[i] - lows[i], abs(highs[i] - closes[i - 1]),
                      abs(lows[i] - closes[i - 1])))
    w = params.atr_window
    atr_vals = [math.nan] * n
    for i in range(w - 1, n):
        atr_vals[i] = sum(tr[i - w + 1:i + 1]) / w
    warmup = max(params.lookback, w - 1)

    side = 0
    entry_i = -1
    stop = math.nan
    stops = {}
    trades = []

    def close_out(i, forced):
        nonlocal side
        sgn = 1.0 if side > 0 else -1.0
        gross = sgn * (closes[i] / closes[entry_i] - 1.0)
        trades.append(("long" if side > 0 else "short", entry_i, i,
                       closes[entry_i], closes[i], gross, forced))
        side = 0

    for i in range(n):
        last = i == n - 1
        if side == 0:
            if i < warmup or last:
                continue
            if mom[i] > params.theta_entry:
                side, entry_i = 1, i
                stop = closes[i] - params.alpha * atr_vals[i]
                stops[i] = stop
            elif mom[i] < -params.theta_entry_short:
                side, entry_i = -1, i
                stop = closes[i] + params.alpha * atr_vals[i]
                stops[i] = stop
            continue
        if side > 0:
            stop = max(stop, closes[i] - params.alpha * atr_vals[i])
            breached = closes[i] < stop
        else:
            stop = min(stop, closes[i] + params.alpha * atr_vals[i])
            breached = closes[i] > stop
        if breached:
            close_out(i, forced=False)
        elif last:
            close_out(i, forced=True)
        else:
            stops[i] = stop
    return trades, stops


def test_c01_scripted_ledger_matches_reference_simulation():
    started = time.perf_counter()
    opens = [99.0] + SCRIPT_CLOSES[:-1]
    series = make_series(SCRIPT_CLOSES, opens=opens)

    res = run_single_asset(series, SCRIPT_PARAMS)
    want_trades, want_stops = reference_simulation(SCRIPT_CLOSES, opens,
                                                   SCRIPT_PARAMS)

    assert len(res.trades) == len(want_trades) == 2
    for got, want in zip(records(res.trades), want_trades):
        side, entry_i, exit_i, entry_px, exit_px, gross, forced = want
        assert got.side == side
        assert got.entry_ts == T0 + (entry_i + 1) * INTERVAL
        assert got.exit_ts == T0 + (exit_i + 1) * INTERVAL
        assert got.entry_px == pytest.approx(entry_px, rel=1e-9)
        assert got.exit_px == pytest.approx(exit_px, rel=1e-9)
        assert got.gross_pnl == pytest.approx(gross, rel=1e-9)
        assert got.forced is forced
        assert got.net_pnl == got.gross_pnl  # zero-cost run

    for i in range(len(SCRIPT_CLOSES)):
        if i in want_stops:
            assert res.stop[i] == pytest.approx(want_stops[i], rel=1e-9), i
        else:
            assert math.isnan(res.stop[i]), i
    check_budget(started, 1.0)


# ---------------------------------------------------------------------------
# 2. Trailing-stop invariants on randomized series
# ---------------------------------------------------------------------------

def test_c02_stops_monotone_and_exits_at_first_breach():
    started = time.perf_counter()
    params = StrategyParams(theta_entry=0.02, theta_entry_short=0.02,
                            alpha=2.0, lookback=4, atr_window=5)
    total = breach_exits = forced_exits = 0

    for k in range(1000):
        rng = np.random.default_rng([2, k])
        drift = float(rng.uniform(-1.5, 1.5))
        vol = float(rng.uniform(0.2, 0.9))
        series = gbm_series(rng, 160, symbol=f"R{k}", drift=drift, vol=vol)
        res = run_single_asset(series, params)
        closes = series.close
        ts = res.timestamps

        # The stop exists exactly while a position is held.
        held = res.position != 0
        assert np.array_equal(np.isnan(res.stop), ~held)

        for tr in records(res.trades):
            i_in = int(np.searchsorted(ts, tr.entry_ts))
            i_out = int(np.searchsorted(ts, tr.exit_ts))
            seg = res.stop[i_in:i_out]
            mid = closes[i_in + 1:i_out]
            prev = res.stop[i_in:i_out - 1]
            if tr.side == "long":
                assert np.all(np.diff(seg) >= 0.0)
                assert np.all(mid >= prev)  # held bars never breach
                if not tr.forced:
                    assert closes[i_out] < res.stop[i_out - 1]
                    breach_exits += 1
            else:
                assert np.all(np.diff(seg) <= 0.0)
                assert np.all(mid <= prev)
                if not tr.forced:
                    assert closes[i_out] > res.stop[i_out - 1]
                    breach_exits += 1
            if tr.forced:
                assert i_out == len(ts) - 1
                forced_exits += 1
        total += len(res.trades)

    assert total >= 1000 and breach_exits >= 200 and forced_exits >= 50
    check_budget(started, 30.0)


# ---------------------------------------------------------------------------
# 3. Allocation conservation on randomized candidate sets
# ---------------------------------------------------------------------------

def test_c03_allocation_conserves_capital():
    started = time.perf_counter()
    params = StrategyParams(theta_entry=0.01, theta_entry_short=0.01,
                            alpha=2.0, lookback=4, atr_window=5)
    rng = np.random.default_rng(3)
    nonempty_long = nonempty_short = 0

    for _ in range(1000):
        longs = [CandidateResult(symbol=f"L{j:02d}", params=params,
                                 sharpe=float(rng.normal(1.0, 1.0)))
                 for j in range(int(rng.integers(0, 9)))]
        shorts = [CandidateResult(symbol=f"S{j:02d}", params=params,
                                  sharpe=float(rng.normal(1.0, 1.0)))
                  for j in range(int(rng.integers(0, 9)))]
        lam = float(rng.uniform(0.0, 1.0))
        cfg = RebalanceConfig(k_long=15, k_short=15,
                              gamma_long=float(rng.uniform(-1.0, 2.0)),
                              gamma_short=float(rng.uniform(-1.0, 2.0)),
                              long_ratio=lam)
        port = select_and_allocate("2022-02", longs, shorts, cfg)

        assert [a.symbol for a in port.longs] == sorted(
            c.symbol for c in longs if c.sharpe >= cfg.gamma_long)
        assert [a.symbol for a in port.shorts] == sorted(
            c.symbol for c in shorts if c.sharpe >= cfg.gamma_short)

        lw = [a.weight for a in port.longs]
        sw = [a.weight for a in port.shorts]
        long_sum = math.fsum(lw)
        short_sum = math.fsum(sw)
        if lw:
            assert max(lw) - min(lw) <= 1e-12
            assert abs(long_sum - lam) <= 1e-12
            nonempty_long += 1
        else:
            assert long_sum == 0.0
        if sw:
            assert max(sw) - min(sw) <= 1e-12
            assert abs(short_sum - (1.0 - lam)) <= 1e-12
            nonempty_short += 1
        else:
            assert short_sum == 0.0
        assert port.cash_weight == 1.0 - long_sum - short_sum

    assert nonempty_long >= 300 and nonempty_short >= 300
    check_budget(started, 5.0)


# ---------------------------------------------------------------------------
# 4. Grid argmax with documented tie-break
# ---------------------------------------------------------------------------

def test_c04_optimizer_pick_matches_exhaustive_rescan():
    started = time.perf_counter()
    grid = ParamGrid(theta_entry=(0.01, 0.05), theta_entry_short=(0.01, 0.05),
                     alpha=(1.5, 2.5, 3.5), lookback=(4, 6, 8), atr_window=5)
    window = optimization_window(FEB1, INTERVAL, 4)
    rf = 0.045
    cfg = solve_cfg(grid, ZERO_COSTS, rf)
    bpy = bars_per_year(INTERVAL)
    defined = 0

    month = [gbm_series(np.random.default_rng([4, j]), 140, symbol=f"A{j}",
                        drift=d, vol=v)
             for j, (d, v) in enumerate(((1.2, 0.5), (-0.8, 0.65),
                                         (0.15, 0.45)))]
    for series in month:
        for side in ("long", "short"):
            got = solve_alone(series, side, window, cfg)
            best = None
            for cell in grid_cells(grid, side):
                sharpe = evaluate_cell(series, cell, window, ZERO_COSTS, rf)
                if sharpe is not None and (best is None or sharpe > best[0]):
                    best = (sharpe, cell)
            if best is None:
                assert got is None
                continue
            assert got == CandidateResult(series.symbol, best[1], best[0])
            # Cross-check the winning Sharpe by direct recomputation.
            res = run_single_asset(series, best[1], window=window)
            r = res.net_returns
            manual = ((float(np.mean(r)) - rf / bpy)
                      / float(np.std(r, ddof=1)) * math.sqrt(bpy))
            assert got.sharpe == pytest.approx(manual, rel=1e-12)
            defined += 1
    assert defined >= 4

    # A steady riser never touches the stop, so every alpha ties; the first
    # cell in (threshold, alpha, lookback) order must win.
    steady = make_series([100.0 * 1.003 ** i for i in range(140)],
                         symbol="UPX")
    got = solve_alone(steady, "long", window, cfg)
    assert got is not None
    assert got.params.theta_entry == 0.01 and got.params.alpha == 1.5
    tied = [cell for cell in grid_cells(grid, "long")
            if evaluate_cell(steady, cell, window, ZERO_COSTS, rf)
            == got.sharpe]
    assert len(tied) >= 2 and tied[0] == got.params
    check_budget(started, 10.0)


# ---------------------------------------------------------------------------
# 5. Truncation safety (no look-ahead)
# ---------------------------------------------------------------------------

def test_c05_truncation_leaves_past_decisions_unchanged():
    started = time.perf_counter()
    series_list, caps = generate_synthetic_universe(SyntheticSpec(
        seed=99, n_symbols=8,
        regimes=((424, 0.5, 0.45), (424, -0.3, 0.55))))
    universe = {s.symbol: s for s in series_list}
    grid = ParamGrid(theta_entry=(0.01, 0.03), theta_entry_short=(0.01, 0.03),
                     alpha=(2.0, 3.0), lookback=(4, 8), atr_window=5)
    reb = RebalanceConfig(k_long=3, k_short=3, gamma_long=-100.0,
                          gamma_short=-100.0, grid=grid)
    cfg = BacktestConfig(start=FEB1, end=AUG1, initial_balance=50_000.0,
                         rebalance=reb, costs=ZERO_COSTS)
    full = run_backtest(market_of(universe, cap_records(caps)), cfg)
    assert len(full.trades) > 100  # fixture sanity: decisions to compare

    stamps = full.equity.timestamps
    eligible = stamps[(stamps > FEB1) & (stamps < AUG1)]
    picks = np.random.default_rng(5).choice(eligible, size=20, replace=False)

    for t in sorted(int(t) for t in picks):
        cut = date_of_ts(t)
        part_universe = {
            sym: series_from_bars(sym, s.interval,
                                  [b for b in bars_of(s) if b.timestamp <= t])
            for sym, s in universe.items()
        }
        part_caps = [r for r in cap_records(caps) if r.date <= cut]
        part = run_backtest(market_of(part_universe, part_caps),
                            replace(cfg, end=t))

        n_months = len(month_starts_between(FEB1, t))
        assert len(part.rebalance_log) == n_months
        assert part.rebalance_log == full.rebalance_log[:n_months]

        assert sorted((tr.symbol, tr.side, tr.entry_ts, tr.entry_px, tr.size)
                      for tr in records(part.trades) if tr.entry_ts < t) == \
            sorted((tr.symbol, tr.side, tr.entry_ts, tr.entry_px, tr.size)
                   for tr in records(full.trades) if tr.entry_ts < t)
        assert sorted(trade_tuple(tr) for tr in records(part.trades)
                      if tr.exit_ts < t) == \
            sorted(trade_tuple(tr) for tr in records(full.trades)
                   if tr.exit_ts < t)

        mask = stamps <= t
        assert np.array_equal(part.equity.timestamps, stamps[mask])
        np.testing.assert_allclose(part.equity.balances,
                                   full.equity.balances[mask], rtol=1e-12)
    check_budget(started, 120.0)


# ---------------------------------------------------------------------------
# 6. Accounting identity at every bar
# ---------------------------------------------------------------------------

def test_c06_balance_decomposition_holds_at_every_bar():
    started = time.perf_counter()
    series_list, caps = generate_synthetic_universe(SyntheticSpec(
        seed=6, n_symbols=10,
        regimes=((528, 0.5, 0.5), (528, -0.4, 0.6), (528, 0.1, 0.4))))
    universe = {s.symbol: s for s in series_list}
    grid = ParamGrid(theta_entry=(0.01, 0.03), theta_entry_short=(0.01, 0.03),
                     alpha=(2.0, 3.0), lookback=(4, 8), atr_window=5)
    reb = RebalanceConfig(k_long=3, k_short=3, gamma_long=-100.0,
                          gamma_short=-100.0, grid=grid)
    cfg = BacktestConfig(start=FEB1, end=1_675_209_599,
                         initial_balance=100_000.0, rebalance=reb,
                         costs=CostConfig())
    res = run_backtest(market_of(universe, cap_records(caps)), cfg)

    assert len(res.rebalance_log) == 12
    assert not res.equity.bankrupt
    assert len(res.trades) > 200

    recon = (cfg.initial_balance + res.realized + res.open_mtm
             - res.open_costs)
    np.testing.assert_allclose(res.equity.balances, recon, rtol=1e-9)

    # After the final force-close nothing is open, so the balance must equal
    # the initial capital plus the summed net PnL of the ledger.
    assert res.open_mtm[-1] == 0.0 and res.open_costs[-1] == 0.0
    assert res.equity.balances[-1] == pytest.approx(
        cfg.initial_balance + math.fsum(res.trades.net_pnl.tolist()),
        rel=1e-9)
    check_budget(started, 60.0)


# ---------------------------------------------------------------------------
# 7. Fee sweep return monotonicity
# ---------------------------------------------------------------------------

def test_c07_higher_fees_never_raise_annual_return():
    started = time.perf_counter()
    series_list, caps = generate_synthetic_universe(SyntheticSpec(
        seed=7, n_symbols=6, regimes=((720, 0.4, 0.5),)))
    universe = {s.symbol: s for s in series_list}
    grid = ParamGrid(theta_entry=(0.01,), theta_entry_short=(0.01,),
                     alpha=(3.0,), lookback=(4,), atr_window=3)
    reb = RebalanceConfig(k_long=3, k_short=3, gamma_long=-100.0,
                          gamma_short=-100.0, grid=grid)

    anns = []
    counts = []
    for fee_bps in (0.0, 4.0, 8.0, 12.0):
        costs = CostConfig(taker_fee_bps=fee_bps, slip_coeff=0.0,
                           funding_rate_per_8h=0.0)
        cfg = BacktestConfig(start=FEB1, end=JUN30, initial_balance=100_000.0,
                             rebalance=reb, costs=costs)
        result = run_backtest(market_of(universe, cap_records(caps)),
                              ablation_config(cfg, "full"))
        anns.append(result.metrics.ann_return)
        counts.append(len(result.trades))

    # The one-cell grid and disabled Sharpe gate pin the trade set, so the
    # fee level is the only difference between runs.
    assert len(set(counts)) == 1 and counts[0] > 0
    assert all(hi > lo for hi, lo in zip(anns, anns[1:])), anns
    check_budget(started, 120.0)


# ---------------------------------------------------------------------------
# 8. Long-bias beats symmetric split under positive drift
# ---------------------------------------------------------------------------

def test_c08_long_bias_outperforms_even_split_on_uptrend():
    started = time.perf_counter()
    grid = ParamGrid(theta_entry=(0.005, 0.01), theta_entry_short=(0.005, 0.01),
                     alpha=(4.0, 5.0), lookback=(12, 20), atr_window=14)

    for seed in range(1, 6):
        series_list, caps = generate_synthetic_universe(SyntheticSpec(
            seed=seed, n_symbols=8,
            regimes=((848, 0.30, 0.04),)))
        universe = {s.symbol: s for s in series_list}
        anns = {}
        for lam in (0.7, 0.5):
            reb = RebalanceConfig(k_long=4, k_short=4, gamma_long=1.3,
                                  gamma_short=1.7, long_ratio=lam, grid=grid)
            cfg = BacktestConfig(start=FEB1, end=AUG1,
                                 initial_balance=10_000.0, rebalance=reb,
                                 costs=CostConfig())
            result = run_backtest(market_of(universe, cap_records(caps)),
                                  ablation_config(cfg, "full"))
            assert len(result.trades) > 0
            anns[lam] = result.metrics.ann_return
        assert anns[0.7] >= anns[0.5], f"seed {seed}: {anns}"
    check_budget(started, 300.0)


# ---------------------------------------------------------------------------
# 9. Streaming drawdown equals brute force
# ---------------------------------------------------------------------------

def test_c09_drawdown_equals_all_pairs_brute_force():
    started = time.perf_counter()
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(2, 1001))
        path = 100.0 * np.cumprod(1.0 + rng.normal(0.0005, 0.02, size=n))
        ratio = path[None, :] / path[:, None]  # [i, j] = path_j / path_i
        brute = float(np.min(ratio[np.triu_indices(n)]) - 1.0)
        assert max_drawdown(path) == brute
    check_budget(started, 5.0)


# ---------------------------------------------------------------------------
# 10. Bootstrap significance sanity
# ---------------------------------------------------------------------------

def test_c10_bootstrap_pvalues_behave():
    started = time.perf_counter()
    rng = np.random.default_rng(10)
    base = rng.normal(0.001, 0.01, size=800)

    same = bootstrap_sharpe_test(base, base.copy(), n_reps=10_000,
                                 block_len=20, seed=0)
    assert same.delta_sr == 0.0
    assert same.p_value == 1.0

    gap = bootstrap_sharpe_test(base + 0.004, base, n_reps=10_000,
                                block_len=20, seed=0)
    assert gap.delta_sr > 0.0
    assert gap.p_value < 0.01

    again = bootstrap_sharpe_test(base + 0.004, base, n_reps=10_000,
                                  block_len=20, seed=0)
    assert again == gap  # fixed seed reproduces the p-value exactly
    check_budget(started, 60.0)


# ---------------------------------------------------------------------------
# 11. Regime thresholds
# ---------------------------------------------------------------------------

def test_c11_trailing_return_thresholds_label_regimes():
    started = time.perf_counter()
    cases = ((120.0, BULL), (115.0, SIDEWAYS), (80.0, BEAR))
    for final_close, want in cases:
        series = make_series([100.0] * 240 + [final_close], symbol="REF")
        regimes = classify_regimes(series, window_days=60)
        assert regimes.window_bars == 240
        assert list(regimes.timestamps) == [T0 + 241 * INTERVAL]
        assert list(regimes.labels) == [want], final_close
    check_budget(started, 1.0)


# ---------------------------------------------------------------------------
# 12. Ablation matrix
# ---------------------------------------------------------------------------

def test_c12_all_ablation_variants_complete_and_differ():
    started = time.perf_counter()
    series_list, caps = generate_synthetic_universe(SyntheticSpec(
        seed=21, n_symbols=12,
        regimes=((240, 0.6, 0.5), (240, -0.5, 0.7), (240, 0.1, 0.35))))
    universe = {s.symbol: s for s in series_list}
    grid = ParamGrid(theta_entry=(0.01, 0.03), theta_entry_short=(0.01, 0.03),
                     alpha=(2.0, 3.0), lookback=(8, 12), atr_window=14)
    reb = RebalanceConfig(k_long=4, k_short=4, gamma_long=0.8,
                          gamma_short=1.0, grid=grid)
    cfg = BacktestConfig(start=FEB1, end=JUN30, initial_balance=10_000.0,
                         rebalance=reb, costs=CostConfig())

    assert len(ABLATION_VARIANTS) == 6
    reports = {}
    for variant in ABLATION_VARIANTS:
        result = run_backtest(market_of(universe, cap_records(caps)),
                              ablation_config(cfg, variant))
        assert not result.equity.bankrupt, variant
        assert len(result.trades) > 0, variant
        reports[variant] = result.metrics.to_dict()
        flags = [rec["reoptimized"] for rec in result.rebalance_log]
        if variant == "fixed_params":
            assert flags == [True, False, False, False, False]
        else:
            assert flags == [True] * 5

    keys = {tuple(sorted((k, repr(v)) for k, v in d.items()))
            for d in reports.values()}
    assert len(keys) == 6
    check_budget(started, 300.0)
