"""Metrics arithmetic, regime decomposition, block-bootstrap significance."""

import json
import math

import numpy as np
import pytest

from adaptivetrend.analytics import (BEAR, BULL, REGIME_CSV_HEADER, SIDEWAYS,
                                     BootstrapResult, MetricsReport,
                                     RegimeSeries, bootstrap_sharpe_test,
                                     classify_regimes, compute_metrics,
                                     max_drawdown, regime_metrics,
                                     sortino_ratio, write_regime_csv)
from adaptivetrend.backtester import EquityCurve
from adaptivetrend.indicators import rolling_sharpe
from adaptivetrend.market_data import SECONDS_PER_YEAR
from adaptivetrend.signal_engine import NO_LEDGER
from conftest import INTERVAL, T0, make_series
import scalar_reference
from scalar_reference import TradeRecord, as_ledger


def curve(balances, timestamps=None) -> EquityCurve:
    balances = np.asarray(balances, dtype=np.float64)
    if timestamps is None:
        timestamps = T0 + INTERVAL * np.arange(len(balances))
    return EquityCurve(timestamps=np.asarray(timestamps, dtype=np.int64),
                       balances=balances)


def trade(net: float, size: float = 100.0, exit_ts: int = T0 + INTERVAL,
          entry_px: float = 100.0, exit_px: float = 100.0) -> TradeRecord:
    return TradeRecord(symbol="X", side="long", entry_ts=T0, entry_px=entry_px,
                       exit_ts=exit_ts, exit_px=exit_px, size=size,
                       gross_pnl=net, fee_cost=0.0, slippage_cost=0.0,
                       funding_cost=0.0, net_pnl=net, forced=False)


class TestMaxDrawdown:
    def test_known_path(self):
        assert max_drawdown(np.array([100.0, 120.0, 90.0, 110.0])) == \
            pytest.approx(90.0 / 120.0 - 1.0, rel=1e-15)

    def test_monotone_rise_has_none(self):
        assert max_drawdown(np.array([1.0, 2.0, 3.0])) == 0.0
        assert max_drawdown(np.array([])) == 0.0

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            path = 100.0 * np.cumprod(1.0 + rng.normal(0, 0.03, size=60))
            brute = min(path[j] / max(path[: j + 1]) - 1.0
                        for j in range(len(path)))
            assert max_drawdown(path) == pytest.approx(brute, rel=1e-12)


class TestSortino:
    def test_arithmetic(self):
        returns = np.array([0.02, -0.01, 0.01, -0.03])
        downside = math.sqrt((0.01 ** 2 + 0.03 ** 2) / 4.0)
        expected = np.mean(returns) / downside * math.sqrt(4.0)
        assert sortino_ratio(returns, 0.0, 4.0) == pytest.approx(expected,
                                                                 rel=1e-12)

    def test_no_downside_is_undefined(self):
        assert sortino_ratio(np.array([0.01, 0.02, 0.03]), 0.0, 1460.0) is None

    def test_too_short_is_undefined(self):
        assert sortino_ratio(np.array([0.01]), 0.0, 1460.0) is None

    def test_rf_shifts_shortfall(self):
        # with a high hurdle every sample is a shortfall
        returns = np.array([0.001, 0.002])
        assert sortino_ratio(returns, 10.0, 1000.0) is not None


class TestComputeMetrics:
    def test_geometric_annualization_and_flat_vol(self):
        eq = curve([100.0, 110.0, 121.0])
        m = compute_metrics(eq, NO_LEDGER, rf_annual=0.0, bars_per_year=2.0)
        assert m.ann_return == pytest.approx(0.21, rel=1e-12)
        assert m.ann_vol == 0.0
        assert m.sharpe is None  # zero dispersion
        assert m.mdd == 0.0
        assert m.calmar is None
        assert m.win_rate is None and m.profit_factor is None

    def test_vol_uses_sample_stddev(self):
        eq = curve([100.0, 102.0, 100.98])
        m = compute_metrics(eq, NO_LEDGER, rf_annual=0.0, bars_per_year=1460.0)
        returns = np.array([0.02, -0.01])
        assert m.ann_vol == pytest.approx(
            np.std(returns, ddof=1) * math.sqrt(1460.0), rel=1e-12)
        assert m.sharpe == pytest.approx(
            rolling_sharpe(returns, 0.0, 1460.0), rel=1e-12)

    def test_bankrupt_curve_loses_everything(self):
        # A curve that ends below zero has no real annualized growth; it
        # reads -100% (as in regime_metrics), not NaN with a RuntimeWarning.
        for final in (0.0, -30.0):
            m = compute_metrics(curve([100.0, 60.0, 20.0, final]), NO_LEDGER,
                                rf_annual=0.0, bars_per_year=1460.0)
            assert m.ann_return == -1.0
            assert json.loads(json.dumps(m.to_dict(), allow_nan=False))

    def test_drawdown_and_calmar(self):
        eq = curve([100.0, 120.0, 90.0, 110.0])
        m = compute_metrics(eq, NO_LEDGER, rf_annual=0.0, bars_per_year=1460.0)
        assert m.mdd == pytest.approx(-0.25, rel=1e-15)
        assert m.calmar == pytest.approx(m.ann_return / 0.25, rel=1e-12)

    def test_trade_statistics(self):
        ts = [T0, T0 + SECONDS_PER_YEAR // 24, T0 + SECONDS_PER_YEAR // 12]
        eq = curve([100.0, 110.0, 121.0], timestamps=ts)
        ledger = as_ledger([trade(10.0), trade(5.0), trade(-5.0)])
        m = compute_metrics(eq, ledger, rf_annual=0.0, bars_per_year=1460.0)
        assert m.win_rate == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert m.profit_factor == pytest.approx(3.0, rel=1e-15)
        assert m.avg_trade_pnl == pytest.approx((0.10 + 0.05 - 0.05) / 3.0,
                                                rel=1e-12)
        # one month of data, three fills
        assert m.trades_per_month == pytest.approx(3.0, rel=1e-12)

    def test_profit_factor_undefined_without_losses(self):
        eq = curve([100.0, 110.0, 121.0])
        m = compute_metrics(eq, as_ledger([trade(10.0)]), rf_annual=0.0,
                            bars_per_year=1460.0)
        assert m.profit_factor is None
        assert m.win_rate == 1.0

    def test_turnover_counts_both_legs(self):
        ts = [T0, T0 + SECONDS_PER_YEAR // 24, T0 + SECONDS_PER_YEAR // 12]
        eq = curve([100.0, 110.0, 121.0], timestamps=ts)
        ledger = as_ledger(
            [trade(10.0, size=100.0, entry_px=100.0, exit_px=110.0)])
        m = compute_metrics(eq, ledger, rf_annual=0.0, bars_per_year=1460.0)
        mean_balance = (100.0 + 110.0 + 121.0) / 3.0
        expected = 100.0 * (1.0 + 1.1) / mean_balance / (1.0 / 12.0)
        assert m.turnover == pytest.approx(expected, rel=1e-12)

    def test_single_point_curve_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(curve([100.0]), NO_LEDGER, 0.0, 1460.0)

    def test_report_dict_round_trip(self):
        eq = curve([100.0, 120.0, 90.0, 110.0])
        m = compute_metrics(eq, as_ledger([trade(10.0)]), rf_annual=0.045,
                            bars_per_year=1460.0)
        d = json.loads(json.dumps(m.to_dict()))
        assert MetricsReport(**d) == m


class TestClassifyRegimes:
    WINDOW_BARS = 240  # 60 days of 6h bars

    def series_ending_at(self, final_close: float):
        closes = [100.0] * self.WINDOW_BARS + [final_close]
        return make_series(closes, wick=0.5)

    def test_window_bars(self):
        rs = classify_regimes(self.series_ending_at(120.0))
        assert rs.window_bars == self.WINDOW_BARS

    @pytest.mark.parametrize("final_close,label", [
        (120.0, BULL),       # +20%
        (115.0, SIDEWAYS),   # the +15% boundary is not Bull
        (114.99, SIDEWAYS),
        (85.1, SIDEWAYS),    # just above the -15% boundary
        (80.0, BEAR),        # -20%
    ])
    def test_threshold_boundaries(self, final_close, label):
        rs = classify_regimes(self.series_ending_at(final_close))
        assert len(rs.labels) == 1
        assert rs.labels[0] == label
        assert rs.timestamps[0] == T0 + (self.WINDOW_BARS + 1) * INTERVAL

    def test_warmup_bars_excluded(self):
        rs = classify_regimes(self.series_ending_at(120.0))
        assert len(rs.timestamps) == 1  # 241 bars, 240-bar window

    def test_short_series_empty(self):
        rs = classify_regimes(make_series([100.0] * 240))
        assert len(rs.labels) == 0

    def test_step_path_label_counts(self):
        closes = [100.0] * 240 + [120.0] * 360
        rs = classify_regimes(make_series(closes, wick=0.5))
        labels = list(rs.labels)
        assert labels.count(BULL) == 240
        assert labels.count(SIDEWAYS) == 120
        assert labels.count(BEAR) == 0
        assert labels == [BULL] * 240 + [SIDEWAYS] * 120

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            classify_regimes(self.series_ending_at(120.0), window_days=0)


def regime_series(timestamps, labels) -> RegimeSeries:
    return RegimeSeries(np.asarray(timestamps, dtype=np.int64),
                        np.asarray(labels, dtype="<U8"), window_bars=240)


class TestRegimeMetrics:
    def test_single_regime_matches_direct_formulas(self, rng):
        returns = rng.normal(0.0005, 0.01, size=100)
        ts = T0 + INTERVAL * np.arange(100)
        rs = regime_series(ts, [BULL] * 100)
        out = regime_metrics(ts, returns, rs, rf_annual=0.0,
                             bars_per_year=1460.0)
        assert set(out) == {BULL}
        stats = out[BULL]
        path = np.cumprod(1.0 + returns)
        assert stats["bars"] == 100
        assert stats["ann_return"] == pytest.approx(
            path[-1] ** (1460.0 / 100.0) - 1.0, rel=1e-12)
        assert stats["sharpe"] == pytest.approx(
            rolling_sharpe(returns, 0.0, 1460.0), rel=1e-12)
        assert stats["mdd"] == pytest.approx(
            max_drawdown(np.concatenate(([1.0], path))), rel=1e-12)

    def test_partition_is_disjoint_and_exhaustive(self, rng):
        n = 300
        ts = T0 + INTERVAL * np.arange(n)
        labels = rng.choice([BULL, BEAR, SIDEWAYS], size=n)
        returns = rng.normal(0, 0.01, size=n)
        out = regime_metrics(ts, returns, regime_series(ts, labels))
        assert sum(v["bars"] for v in out.values()) == n
        for regime in (BULL, BEAR, SIDEWAYS):
            want = int(np.sum(labels == regime))
            got = out[regime]["bars"] if regime in out else 0
            assert got == want

    def test_unlabeled_samples_dropped(self):
        ts = T0 + INTERVAL * np.arange(10)
        rs = regime_series(ts[5:], [BULL] * 5)  # first 5 bars are warm-up
        out = regime_metrics(ts, np.full(10, 0.01), rs)
        assert out[BULL]["bars"] == 5

    def test_flat_returns_have_zero_growth(self):
        ts = T0 + INTERVAL * np.arange(20)
        rs = regime_series(ts, [BEAR] * 20)
        out = regime_metrics(ts, np.zeros(20), rs)
        assert out[BEAR]["ann_return"] == pytest.approx(0.0, abs=1e-15)

    def test_subpath_drawdown(self):
        ts = T0 + INTERVAL * np.arange(3)
        rs = regime_series(ts, [BULL] * 3)
        out = regime_metrics(ts, np.array([0.10, -0.50, 0.10]), rs)
        assert out[BULL]["mdd"] == pytest.approx(-0.5, rel=1e-12)

    def test_trades_attributed_by_exit_timestamp(self):
        ts = T0 + INTERVAL * np.arange(4)
        rs = regime_series(ts, [BULL, BULL, BEAR, BEAR])
        ledger = as_ledger([trade(10.0, exit_ts=int(ts[1])),
                            trade(-4.0, exit_ts=int(ts[2])),
                            trade(6.0, exit_ts=int(ts[3]))])
        out = regime_metrics(ts, np.full(4, 0.01), rs, ledger=ledger)
        assert out[BULL]["win_rate"] == 1.0
        assert out[BEAR]["win_rate"] == 0.5
        assert out[BULL]["avg_trade_pnl"] == pytest.approx(0.10, rel=1e-12)

    def test_length_mismatch_rejected(self):
        ts = T0 + INTERVAL * np.arange(3)
        with pytest.raises(ValueError):
            regime_metrics(ts, np.zeros(2), regime_series(ts, [BULL] * 3))

    def test_segmented_drift_recovered(self, rng):
        # three blocks with distinct drifts; each regime's mean per-bar
        # return should sit near its block's drift
        n = 900
        ts = T0 + INTERVAL * np.arange(n)
        drifts = {BULL: 0.004, BEAR: -0.004, SIDEWAYS: 0.0}
        labels = np.array([BULL] * 300 + [BEAR] * 300 + [SIDEWAYS] * 300)
        noise = 0.002
        returns = np.concatenate([
            rng.normal(drifts[l], noise, size=300)
            for l in (BULL, BEAR, SIDEWAYS)
        ])
        out = regime_metrics(ts, returns, regime_series(ts, labels))
        stderr = noise / math.sqrt(300)
        for regime, drift in drifts.items():
            mean_bar = np.mean(returns[labels == regime])
            assert abs(mean_bar - drift) < 3 * stderr
            assert out[regime]["bars"] == 300


class TestWriteRegimeCsv:
    def test_header_and_blank_none(self, tmp_path):
        per_regime = {
            BULL: {"bars": 10, "ann_return": 0.5, "sharpe": 1.25, "mdd": -0.1,
                   "win_rate": None, "avg_trade_pnl": None},
            BEAR: {"bars": 4, "ann_return": -0.25, "sharpe": -0.5, "mdd": -0.3,
                   "win_rate": 0.25, "avg_trade_pnl": -0.01},
        }
        path = tmp_path / "regimes.csv"
        write_regime_csv(per_regime, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(REGIME_CSV_HEADER)
        assert lines[1] == "Bull,10,0.5,1.25,-0.1,,"
        assert lines[2].startswith("Bear,4,")
        assert len(lines) == 3  # missing Sideways row is skipped


class TestBootstrap:
    def returns_pair(self, seed=5, n=200):
        r = np.random.default_rng(seed)
        b = r.normal(0.0, 0.01, size=n)
        a = b + 0.004  # constant edge, same noise
        return a, b

    def test_identical_series(self):
        a, _ = self.returns_pair()
        res = bootstrap_sharpe_test(a, a.copy(), n_reps=200, block_len=10)
        assert res.delta_sr == 0.0
        assert res.p_value == 1.0
        assert res.n_reps == 200 and res.block_len == 10

    def test_constant_edge_is_significant(self):
        a, b = self.returns_pair()
        res = bootstrap_sharpe_test(a, b, n_reps=500, block_len=10)
        assert res.delta_sr > 0
        assert res.p_value < 0.01

    def test_swap_symmetry(self):
        a, b = self.returns_pair(seed=9)
        fwd = bootstrap_sharpe_test(a, b, n_reps=300, block_len=10, seed=3)
        rev = bootstrap_sharpe_test(b, a, n_reps=300, block_len=10, seed=3)
        assert fwd.delta_sr == pytest.approx(-rev.delta_sr, rel=1e-12)
        assert fwd.p_value == rev.p_value

    def test_seed_reproducibility(self):
        r = np.random.default_rng(12)
        a = r.normal(0.001, 0.01, size=150)
        b = r.normal(0.0005, 0.012, size=150)
        one = bootstrap_sharpe_test(a, b, n_reps=250, block_len=10, seed=42)
        two = bootstrap_sharpe_test(a, b, n_reps=250, block_len=10, seed=42)
        assert one == two

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_sharpe_test(np.zeros(50) + 0.01,
                                  np.zeros(40) + 0.01, n_reps=10, block_len=5)

    def test_short_series_rejected(self):
        a, b = self.returns_pair(n=30)
        with pytest.raises(ValueError):
            bootstrap_sharpe_test(a, b, n_reps=10, block_len=20)

    def test_undefined_sharpe_rejected(self):
        rigid = np.full(100, 0.01)
        wiggly = np.random.default_rng(0).normal(0.0, 0.01, size=100)
        with pytest.raises(ValueError):
            bootstrap_sharpe_test(rigid, wiggly, n_reps=10, block_len=10)

    @pytest.mark.parametrize("arg", ["n_reps", "block_len"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_degenerate_counts_rejected_by_name(self, arg, value):
        a, b = self.returns_pair()
        args = dict(n_reps=10, block_len=10)
        args[arg] = value
        with pytest.raises(ValueError, match=f"{arg} must be >= 1"):
            bootstrap_sharpe_test(a, b, **args)

    @pytest.mark.parametrize("n_reps", [1, 255, 257, 600])
    def test_chunks_match_one_replicate_at_a_time(self, n_reps):
        # a is zero but for one spike, so that many replicates miss it, are
        # constant, have no Sharpe and are redrawn from their own streams.
        r = np.random.default_rng(7)
        a = np.zeros(60)
        a[17] = 0.05
        b = r.normal(0.0, 0.01, size=60)
        args = dict(n_reps=n_reps, block_len=20, seed=11)
        assert bootstrap_sharpe_test(a, b, **args) == \
            scalar_reference.bootstrap_sharpe_test(a, b, **args)
        a, b = self.returns_pair(seed=3)
        args = dict(n_reps=n_reps, block_len=10, seed=4)
        assert bootstrap_sharpe_test(a, b, **args) == \
            scalar_reference.bootstrap_sharpe_test(a, b, **args)

    def test_result_is_frozen_dataclass(self):
        res = BootstrapResult(delta_sr=0.5, p_value=0.04, n_reps=100,
                              block_len=20)
        with pytest.raises(AttributeError):
            res.p_value = 0.0
