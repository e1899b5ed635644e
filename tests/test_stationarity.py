import math
import sys

import numpy as np
import pytest

from hfnoise import (InvalidConfig, InvalidK, InvalidWindow,
                     NonFiniteStatistic, noise_moments, run_test, tsrv, wtsrv)
from hfnoise.stationarity import (_window_contrasts, block_diff_mean_sq,
                                  block_test, default_window, edge_test,
                                  log_p_value, p_value, window_mean_sq,
                                  window_test, window_test_nonoverlap)

import oracles
from conftest import make_series, noise_series

A0 = 5e-3


class TestPValue:
    def test_reference_values(self):
        # frozen one-sided normal tail values
        assert p_value(0.5942) == pytest.approx(0.2762, abs=5e-4)
        assert p_value(1.4729) == pytest.approx(0.0704, abs=5e-4)
        assert p_value(0.0) == 0.5

    def test_against_erfc(self):
        for x in (-3.0, -0.7, 0.0, 0.33, 1.5, 4.2, 7.0):
            want = 0.5 * math.erfc(x / math.sqrt(2.0))
            assert p_value(x) == pytest.approx(want, abs=1e-12)

    def test_log_p_past_underflow(self):
        # p_value underflows to 0.0 above z ~ 37.5; log_p keeps the order
        assert p_value(40.0) == 0.0
        lp40, lp500 = log_p_value(40.0), log_p_value(500.0)
        assert math.isfinite(lp40) and math.isfinite(lp500)
        assert lp500 < lp40 < math.log(sys.float_info.min)
        # Mills ratio: log Phi(-z) ~ -z^2/2 - log(z sqrt(2 pi))
        for z in (40.0, 500.0):
            approx = -z * z / 2 - math.log(z * math.sqrt(2 * math.pi))
            assert log_p_value(z) == pytest.approx(approx, rel=1e-3)
        assert log_p_value(1.5) == pytest.approx(math.log(p_value(1.5)))

    def test_matches_scipy_stats_norm(self):
        # bit for bit against norm.sf / norm.logsf, past p_value's underflow
        grid = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 37.5, 38.5, 40.0,
                -40.0, 600.0, -600.0]
        grid += np.random.default_rng(12).standard_normal(10_000).tolist()
        for fn, oracle in ((p_value, oracles.norm_sf),
                           (log_p_value, oracles.norm_logsf)):
            got = np.array([fn(z) for z in grid])
            want = np.array([oracle(z) for z in grid])
            assert got.tobytes() == want.tobytes(), fn.__name__

    def test_report_carries_log_p(self):
        rep = edge_test(noise_series(4000, seed=3))
        assert rep.log_p == pytest.approx(math.log(rep.p_value), abs=1e-12)

    def test_non_finite(self):
        with pytest.raises(NonFiniteStatistic):
            log_p_value(float("inf"))
        with pytest.raises(NonFiniteStatistic):
            p_value(float("nan"))
        with pytest.raises(NonFiniteStatistic):
            p_value(float("inf"))


class TestDefaultWindow:
    def test_examples(self):
        assert default_window(23400 * 5, 2000) == 7
        assert default_window(4 * 10, 10) == 2       # r = 4 clamps to 2
        assert default_window(100 * 10, 10) == 10    # r = 100

    def test_too_few_blocks(self):
        with pytest.raises(InvalidWindow):
            default_window(30, 10)


class TestWindowContrast:
    # _window_contrasts takes 0-based block starts; the oracle re-slices
    # each window as a standalone series.
    def test_constant_zero(self):
        s = make_series([1.0] * 41)
        assert _window_contrasts(s, 4, 3, [0]).tolist() == [0.0]
        assert oracles.slice_window_contrasts(s.prices, 4, 3,
                                              [0]).tolist() == [0.0]

    def test_full_range_matches_global_difference(self, rng):
        # with n = r*K the full-span window reproduces the whole series
        prices = rng.standard_normal(8 * 25 + 1)
        s = make_series(prices)
        want = math.sqrt(25) * (wtsrv(s, 25) - tsrv(s, 25))
        for d in (_window_contrasts(s, 25, 8, [0])[0],
                  oracles.slice_window_contrasts(prices, 25, 8, [0])[0]):
            assert d == pytest.approx(want, rel=1e-10)

    def test_contrast_scale_feeds_pooling(self):
        # pooled first/second moments of the window contrasts sit near the
        # fourth-moment scale 2q that centres the window tests
        s = noise_series(40000, seed=3)
        K = 200
        r = s.n // K
        w = 20
        devs = _window_contrasts(s, K, w, range(r - w + 1))
        q = 3 * A0**4
        pooled = devs.mean() ** 2 + devs.var()
        assert pooled == pytest.approx(2 * q, rel=0.35)


class TestPooledMeans:
    def test_constant_zero(self):
        s = make_series([2.0] * 81)
        assert window_mean_sq(s, 4, 2, 1) == 0.0
        assert window_mean_sq(s, 4, 2, 2) == 0.0
        assert block_diff_mean_sq(s, 4) == 0.0

    def test_window_counts_by_enumeration(self, rng):
        # n = 4K, s = 2: overlapping mean over exactly 3 windows,
        # non-overlapping over exactly 2
        K = 11
        prices = rng.standard_normal(4 * K + 1)
        s = make_series(prices)
        devs = oracles.slice_window_contrasts(prices, K, 2, [0, 1, 2])
        assert window_mean_sq(s, K, 2, 1) == pytest.approx(
            np.mean(np.square(devs)), rel=1e-12)
        devs_no = oracles.slice_window_contrasts(prices, K, 2, [0, 2])
        assert window_mean_sq(s, K, 2, 2) == pytest.approx(
            np.mean(np.square(devs_no)), rel=1e-12)

    def test_block_diff_by_enumeration(self, rng):
        prices = rng.standard_normal(101)
        s = make_series(prices)
        K = 20
        d2 = np.diff(prices) ** 2
        rv = [d2[i * K:(i + 1) * K].sum() for i in range(5)]
        want = np.sum(np.square(np.diff(rv))) / (4 * s.n)
        assert block_diff_mean_sq(s, K) == pytest.approx(want, rel=1e-12)

    def test_block_mean_plim(self):
        # plim of the pooled block statistic under iid noise is 2 q
        s = noise_series(10**6, seed=4)
        K = int(s.n ** 0.55)
        assert block_diff_mean_sq(s, K) == pytest.approx(
            6 * A0**4, rel=0.10)

    def test_invariant_to_time_relabeling(self, rng):
        prices = rng.standard_normal(201)
        a = make_series(prices)
        warped = np.cumsum(rng.uniform(0.2, 3.0, size=201))
        b = make_series(prices, warped)
        assert window_mean_sq(a, 10, 3, 1) == window_mean_sq(b, 10, 3, 1)

    def test_invalid_windows(self):
        s = make_series(np.arange(41.0))
        with pytest.raises(InvalidWindow):
            window_mean_sq(s, 10, 1, 1)
        with pytest.raises(InvalidWindow):
            window_mean_sq(s, 10, 5, 1)
        with pytest.raises(InvalidWindow):
            window_mean_sq(s, 10, 5, 5)
        with pytest.raises(InvalidWindow):
            block_diff_mean_sq(s, 40)


class TestReports:
    def test_constant_series_degenerate(self):
        s = make_series([1.0] * 401)
        for kind in ("N", "V", "Vprime", "Vbar"):
            rep = run_test(s, kind, K=8, window=4)
            assert rep.degenerate
            assert rep.statistic == 0.0
            assert rep.p_value == 1.0

    @pytest.mark.parametrize("kind", ["X", "n", "Vbar,V"])
    def test_unknown_kind_is_a_config_error(self, kind):
        with pytest.raises(InvalidConfig, match="unknown test kind"):
            run_test(noise_series(400, seed=1), kind)

    @pytest.mark.parametrize("kind", ["N", "V", "Vprime", "Vbar"])
    @pytest.mark.parametrize("K", [0, -3])
    def test_nonpositive_K_is_invalid(self, kind, K):
        with pytest.raises(InvalidK):
            run_test(noise_series(4000, seed=2), kind, K=K)

    def test_edge_test_matches_components(self):
        s = noise_series(5000, seed=9)
        K = 100
        rep = edge_test(s, K)
        nm = noise_moments(s)
        want = math.sqrt(K) * (wtsrv(s, K) - tsrv(s, K)) / math.sqrt(nm.q2sum_hat)
        assert rep.statistic == pytest.approx(want, rel=1e-10)
        assert rep.p_value == pytest.approx(p_value(rep.statistic), abs=0)
        assert rep.kind == "N" and rep.K == K and rep.n == 5000
        assert "q2sum_hat" in rep.intermediates

    def test_edge_test_invalid_k(self):
        s = make_series(np.arange(100.0))
        with pytest.raises(InvalidK):
            edge_test(s, 3)
        with pytest.raises(InvalidK):
            edge_test(s, 60)

    def test_window_tests_structure(self):
        s = noise_series(20000, seed=11)
        for fn, kind in ((window_test, "V"),
                         (window_test_nonoverlap, "Vprime")):
            rep = fn(s, K=400, window=5)
            assert rep.kind == kind
            assert rep.s == 5
            assert not rep.degenerate
            assert 0.0 <= rep.p_value <= 1.0
        repb = block_test(s, K=400)
        assert repb.kind == "Vbar" and repb.s is None

    def test_defaults_applied(self):
        s = noise_series(20000, seed=12)
        rep = window_test(s)
        assert rep.K == int(20000 ** 0.6)
        assert rep.s == default_window(20000, rep.K)
        repn = edge_test(s)
        assert 4 <= repn.K <= 10000

    def test_null_statistics_reasonable(self):
        # smoke: a handful of iid-noise paths keep all statistics finite
        # and small under the null
        for seed in range(5):
            s = noise_series(23400, seed=100 + seed)
            for kind in ("N", "V", "Vprime", "Vbar"):
                rep = run_test(s, kind)
                assert np.isfinite(rep.statistic)
                assert abs(rep.statistic) < 5.0


class TestAffineInvariance:
    def test_all_statistics(self):
        s = noise_series(16000, seed=31)
        for c, b in ((2.5, -1.2), (-0.7, 4.0)):
            t = make_series(c * s.prices + b, s.times)
            for kind, kwargs in (("N", dict(K=320)),
                                 ("V", dict(K=320, window=4)),
                                 ("Vprime", dict(K=320, window=4)),
                                 ("Vbar", dict(K=320))):
                r0 = run_test(s, kind, **kwargs)
                r1 = run_test(t, kind, **kwargs)
                assert r1.statistic == pytest.approx(r0.statistic, rel=1e-8)
