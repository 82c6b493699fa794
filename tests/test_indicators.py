"""Momentum, true range, ATR, and the Sharpe helper."""

import math

import numpy as np
import pytest

from adaptivetrend.indicators import (atr, momentum, rolling_sharpe,
                                     sharpe_rows, true_range)
from conftest import bars_of, make_series


class TestMomentum:
    def test_ten_percent_rise(self):
        close = np.array([100.0, 102.0, 104.0, 101.0, 110.0])
        m = momentum(close, 4)
        assert m[4] == pytest.approx(0.10, abs=1e-15)

    def test_twenty_five_percent_drop(self):
        close = np.array([80.0, 70.0, 60.0])
        assert momentum(close, 2)[2] == pytest.approx(-0.25, abs=1e-15)

    def test_constant_series_zero(self):
        close = np.full(10, 55.5)
        m = momentum(close, 3)
        assert np.all(m[3:] == 0.0)

    def test_warmup_is_nan(self):
        close = np.arange(1.0, 9.0)
        m = momentum(close, 5)
        assert np.all(np.isnan(m[:5]))
        assert not np.any(np.isnan(m[5:]))

    def test_scale_invariance(self, rng):
        for _ in range(50):
            n = int(rng.integers(10, 60))
            lb = int(rng.integers(1, n - 1))
            close = np.exp(rng.normal(0, 0.05, n)).cumsum() + 50.0
            scale = float(rng.uniform(0.01, 1000.0))
            a = momentum(close, lb)
            b = momentum(close * scale, lb)
            np.testing.assert_allclose(a[lb:], b[lb:], rtol=1e-12)

    def test_on_series_arrays(self, rng):
        s = make_series(list(50.0 + np.cumsum(rng.standard_normal(30))))
        m = momentum(s.arrays.close, 7)
        b = bars_of(s)
        assert np.all(np.isnan(m[:7]))
        assert list(m[7:]) == [b[t].close / b[t - 7].close - 1.0
                               for t in range(7, len(s))]


class TestTrueRange:
    def test_three_term_max_range_dominates(self):
        # H=12, L=8, prev close 9: max(4, 3, 1) = 4
        h = np.array([10.0, 12.0])
        lo = np.array([8.0, 8.0])
        c = np.array([9.0, 11.0])
        assert true_range(h, lo, c)[1] == 4.0

    def test_three_term_max_narrow_bar(self):
        # H=11, L=9, prev close 10: max(2, 1, 1) = 2
        h = np.array([10.5, 11.0])
        lo = np.array([9.5, 9.0])
        c = np.array([10.0, 10.0])
        assert true_range(h, lo, c)[1] == 2.0

    def test_gap_up_uses_prev_close(self):
        # H=20, L=18, prev close 10: max(2, 10, 8) = 10
        h = np.array([11.0, 20.0])
        lo = np.array([9.0, 18.0])
        c = np.array([10.0, 19.0])
        assert true_range(h, lo, c)[1] == 10.0

    def test_first_bar_is_high_minus_low(self):
        h = np.array([11.0, 12.0])
        lo = np.array([9.5, 8.0])
        c = np.array([10.0, 11.0])
        assert true_range(h, lo, c)[0] == pytest.approx(1.5)

    def test_nonnegative(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 40))
            c = 100.0 + np.cumsum(rng.standard_normal(n))
            h = c + rng.random(n)
            lo = c - rng.random(n)
            assert np.all(true_range(h, lo, c) >= 0.0)


class TestAtr:
    def test_hand_average(self):
        # TR sequence [4, 2] with window 2 averages to 3 at the second bar
        h = np.array([12.0, 11.0])
        lo = np.array([8.0, 9.0])
        c = np.array([9.0, 10.0])
        out = atr(h, lo, c, 2)
        assert np.isnan(out[0])
        assert out[1] == 3.0

    def test_degenerate_zero_range(self):
        h = lo = c = np.full(6, 42.0)
        out = atr(h, lo, c, 3)
        assert np.all(out[2:] == 0.0)

    def test_window_one_is_true_range(self, rng):
        n = 30
        c = 100.0 + np.cumsum(rng.standard_normal(n))
        h = c + rng.random(n)
        lo = c - rng.random(n)
        np.testing.assert_allclose(atr(h, lo, c, 1), true_range(h, lo, c),
                                   rtol=1e-12)

    def test_warmup_is_nan(self):
        n = 10
        c = np.linspace(100.0, 109.0, n)
        out = atr(c + 1, c - 1, c, 4)
        assert np.all(np.isnan(out[:3]))
        assert not np.any(np.isnan(out[3:]))

    def test_price_scale_homogeneity(self, rng):
        for _ in range(30):
            n = int(rng.integers(6, 50))
            w = int(rng.integers(1, 5))
            c = 100.0 + np.cumsum(rng.standard_normal(n))
            h = c + rng.random(n)
            lo = c - rng.random(n)
            k = float(rng.uniform(0.1, 50.0))
            np.testing.assert_allclose(atr(h * k, lo * k, c * k, w)[w - 1:],
                                       k * atr(h, lo, c, w)[w - 1:], rtol=1e-12)

    def test_on_series_arrays(self, rng):
        s = make_series(list(50.0 + np.cumsum(rng.standard_normal(25))))
        arr = s.arrays
        out = atr(arr.high, arr.low, arr.close, 5)
        b = bars_of(s)
        tr = [b[0].high - b[0].low] + [
            max(b[t].high - b[t].low, abs(b[t].high - b[t - 1].close),
                abs(b[t].low - b[t - 1].close)) for t in range(1, len(b))]
        assert np.all(np.isnan(out[:4]))
        for t in range(4, len(b)):
            assert out[t] == pytest.approx(sum(tr[t - 4:t + 1]) / 5, rel=1e-12)


class TestRollingSharpe:
    def test_returns_at_rf_score_zero(self):
        rf, bpy = 0.045, 1460.0
        r = [rf / bpy] * 24
        assert rolling_sharpe(r, rf, bpy) == 0.0

    def test_constant_nonzero_undefined(self):
        assert rolling_sharpe([0.01] * 10, 0.045, 1460.0) is None
        # regression guard: stdev of a constant vector must not round to a
        # tiny value and produce an astronomically large ratio
        assert rolling_sharpe([0.01] * 10, 0.0, 1460.0) is None

    def test_alternating_symmetric_zero(self):
        r = [0.01, -0.01, 0.01, -0.01]
        assert rolling_sharpe(r, 0.0, 1460.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_formula(self, rng):
        r = rng.normal(0.001, 0.01, 200)
        rf, bpy = 0.045, 1460.0
        got = rolling_sharpe(r, rf, bpy)
        want = (np.mean(r) - rf / bpy) / np.std(r, ddof=1) * math.sqrt(bpy)
        assert got == pytest.approx(want, rel=1e-12)

    def test_too_short_is_none(self):
        assert rolling_sharpe([], 0.045, 1460.0) is None
        assert rolling_sharpe([0.01], 0.045, 1460.0) is None

    def test_rows_match_one_row_at_a_time(self, rng):
        rf, bpy = 0.045, 1460.0
        rows = rng.normal(0.001, 0.01, (6, 150))
        rows[1] = 0.01                 # constant, nonzero excess: undefined
        rows[2] = rf / bpy             # constant at the risk-free rate: 0.0
        rows[3, ::2], rows[3, 1::2] = 0.02, -0.02
        got = sharpe_rows(rows, rf, bpy)
        assert np.isnan(got[1]) and got[2] == 0.0
        for row, value in zip(rows, got):
            want = rolling_sharpe(row, rf, bpy)
            assert (math.isnan(value) if want is None else value == want)
        # bit-identical to the formula on the row alone
        r = rows[0]
        assert got[0] == (float(np.mean(r)) - rf / bpy) \
            / float(np.std(r, ddof=1)) * math.sqrt(bpy)

    def test_rows_too_short_are_nan(self):
        assert np.isnan(sharpe_rows(np.zeros((3, 1)), 0.0, 1460.0)).all()
