import numpy as np
import pytest

from hfnoise import (InvalidK, InvalidWindow, liquidity, liquidity_report,
                     noise_moments)
from hfnoise._accum import block_sums
from hfnoise.liquidity import (Z_95, default_liquidity_K, default_span,
                               noise_qv, noise_qv_stderr)
from hfnoise.stationarity import block_diff_mean_sq

from conftest import make_series, noise_series


class TestNoiseQv:
    def test_constant_zero(self):
        s = make_series([1.0] * 100)
        assert noise_qv(s, 10) == 0.0

    def test_ties_to_block_statistic(self, rng):
        prices = rng.standard_normal(2001)
        s = make_series(prices)
        K = 57
        want = 1.5 * s.n / K**2 * block_diff_mean_sq(s, K)
        assert noise_qv(s, K) == want

    def test_stationary_noise_stays_below_bias_bound(self):
        # constant noise level: the estimate reduces to the vanishing
        # noise-bias term, bounded by 3x its asymptotic size
        s = noise_series(10**5, seed=5)
        n = s.n
        K = int(n**0.62)
        bound = 3.0 * (3.0 * n / K**2) * noise_moments(s).q2sum_hat
        assert 0 <= noise_qv(s, K) < bound

    def test_invalid_k(self):
        s = make_series(np.arange(30.0))
        with pytest.raises(InvalidK):
            noise_qv(s, 11)


class TestStderr:
    def test_constant_zero(self):
        s = make_series([1.0] * 100)
        gamma, degenerate = noise_qv_stderr(s, 10, 3)
        assert gamma == 0.0
        assert not degenerate

    def test_matches_direct_evaluation(self, rng):
        prices = rng.standard_normal(901) * 1e-2
        s = make_series(prices)
        K, span = 60, 4
        n = s.n
        d2 = np.diff(prices) ** 2
        r = n // K
        rv = np.array([d2[i * K:(i + 1) * K].sum() for i in range(r)])
        q4 = np.array([(d2[i * K:(i + 1) * K] ** 2).sum() for i in range(r)])
        steps2 = np.diff(rv) ** 2
        t1 = 27.0 / (128 * span**2 * K**4) * sum(
            steps2[i:i + span].sum() ** 2 for i in range(r - span))
        t2 = 27.0 / (8 * K**2) * np.sum(
            4 / K**2 * q4**2 - 14 / K**3 * q4 * rv**2 + 13 / K**4 * rv**4)
        gamma, _ = noise_qv_stderr(s, K, span)
        assert gamma == pytest.approx(np.sqrt(t1 + t2), rel=1e-10)

    def test_invalid_span(self):
        s = make_series(np.arange(100.0))
        with pytest.raises(InvalidWindow):
            noise_qv_stderr(s, 10, 0)
        with pytest.raises(InvalidWindow):
            noise_qv_stderr(s, 10, 9)


class TestDefaults:
    def test_span_example(self):
        n = 23400 * 5
        assert default_span(n, 2000) == 7

    def test_k_rate(self):
        assert default_liquidity_K(10**6) == int(1e6**0.62)


class TestReport:
    def test_constant_all_zero(self):
        rep = liquidity_report(make_series([4.0] * 200))
        assert (rep.gg_hat, rep.gamma_hat) == (0.0, 0.0)
        assert rep.ci_low == rep.ci_high == 0.0
        assert rep.note == ""

    def test_interval_arithmetic(self):
        s = noise_series(20000, seed=6)
        rep = liquidity_report(s)
        assert rep.ci_high - rep.ci_low == pytest.approx(
            2 * Z_95 * rep.gamma_hat, rel=1e-12)
        assert rep.ci_low <= rep.gg_hat <= rep.ci_high
        assert rep.r == s.n // rep.K
        if rep.ci_low < 0:
            assert "nonnegative" in rep.note

    def test_scaling_covariance(self, rng):
        prices = rng.standard_normal(5001) * 1e-3
        a = make_series(prices)
        b = make_series(3.0 * prices)
        K, span = 170, 5
        assert noise_qv(b, K) == pytest.approx(81 * noise_qv(a, K), rel=1e-10)
        ga, _ = noise_qv_stderr(a, K, span)
        gb, _ = noise_qv_stderr(b, K, span)
        assert gb == pytest.approx(81 * ga, rel=1e-10)

    def test_no_nan(self, rng):
        for seed in range(5):
            s = noise_series(3000, seed=seed)
            rep = liquidity_report(s)
            for v in (rep.gg_hat, rep.gamma_hat, rep.ci_low, rep.ci_high):
                assert np.isfinite(v)

    def test_block_sums_shared(self, monkeypatch):
        # one pass of block sums over d2 and one over d2*d2, and the same
        # bits as the two public estimators computed separately
        s = noise_series(20000, seed=8)
        K, span = 300, 4
        gg = noise_qv(s, K)
        gamma, degenerate = noise_qv_stderr(s, K, span)
        summed = []

        def counting(values, size):
            summed.append(len(values))
            return block_sums(values, size)

        monkeypatch.setattr(liquidity, "block_sums", counting)
        rep = liquidity_report(s, K, span)
        assert summed == [s.n, s.n]
        assert (rep.gg_hat, rep.gamma_hat, rep.degenerate) == (
            gg, gamma, degenerate)

    def test_errors_as_the_estimators_raise_them(self):
        s = noise_series(100, seed=9)
        with pytest.raises(InvalidK):
            liquidity_report(s, K=40, span=0)
        with pytest.raises(InvalidWindow):
            liquidity_report(s, K=10, span=10)
