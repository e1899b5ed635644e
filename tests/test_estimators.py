import math

import numpy as np
import pytest

from hfnoise import (InvalidIndices, InvalidK, SimConfig, TickSeries,
                     block_estimates, estimators, fit_blocks,
                     liquidity_report, run_test, simulate_observed)
from hfnoise._accum import csum
from hfnoise.estimators import (avg_rv, default_K, modified_rv, noise_moments,
                                quarticity, realized_variance, tsrv, wtsrv)
from hfnoise.liquidity import noise_qv, noise_qv_stderr
from hfnoise.stationarity import edge_test

import oracles
from conftest import make_series, noise_series

A0 = 5e-3


# --- independent definitional oracles -----------------------------------

def rv_on_grid(prices, idx):
    return sum((prices[a] - prices[b]) ** 2 for a, b in zip(idx[1:], idx[:-1]))


def avg_rv_by_definition(prices, K):
    """Literal mean over the K offset subgrids of the subgrid RV."""
    n = len(prices) - 1
    total = 0.0
    for k in range(K):
        total += rv_on_grid(prices, (k + K * np.arange(n // K)).tolist())
    return total / K


def modified_rv_by_definition(prices, K):
    """Literal evaluation of the two half-weighted index ranges."""
    n = len(prices) - 1
    first = sum((prices[i + 1] - prices[i]) ** 2 for i in range(1, n - K + 1))
    second = sum((prices[i + 1] - prices[i]) ** 2 for i in range(K, n))
    return 0.5 * (first + second)


class TestRealizedVariance:
    def test_alternating(self):
        assert realized_variance(make_series([0, 1, 0, 1])) == 3.0

    def test_constant(self):
        assert realized_variance(make_series([2.0] * 10)) == 0.0



class TestQuarticity:
    def test_alternating(self):
        assert quarticity(make_series([0, 1, 0, 1])) == 3.0

    def test_single_jump(self):
        assert quarticity(make_series([0.0, 2.0])) == 16.0

    def test_noise_only_limit(self):
        # (1/n)[Y;4] -> 2 E(eps^4) + 6 (E eps^2)^2 = 12 a0^4 for Gaussian
        s = noise_series(10**6, seed=4)
        assert quarticity(s) / s.n == pytest.approx(12 * A0**4, rel=0.05)


class TestAvgRv:
    def test_constant(self):
        assert avg_rv(make_series([1.0] * 8), 2) == 0.0

    def test_unit_steps_hand_value(self):
        # subgrids {0,2,4} and {1,3,5} of the unit ramp: each subgrid RV = 8
        assert avg_rv(make_series([0, 1, 2, 3, 4, 5, 6.0]), 2) == 8.0

    def test_matches_definition(self, rng):
        prices = rng.standard_normal(501)
        s = make_series(prices)
        for K in (2, 3, 10, 250):
            assert avg_rv(s, K) == pytest.approx(
                avg_rv_by_definition(prices, K), rel=1e-12)

    def test_k1_equals_full_rv(self, rng):
        prices = rng.standard_normal(40)
        s = make_series(prices)
        assert avg_rv(s, 1) == realized_variance(s)

    def test_invalid_k(self):
        s = make_series(np.arange(10.0))
        with pytest.raises(InvalidK):
            avg_rv(s, 5)  # K > n/2
        with pytest.raises(InvalidK):
            avg_rv(s, 0)


class TestModifiedRv:
    def test_constant(self):
        assert modified_rv(make_series([1.0] * 6), 2) == 0.0

    def test_hand_value(self):
        # unit alternating steps, n=4, K=2: both trimmed ranges sum to 2
        assert modified_rv(make_series([0, 1, 0, 1, 0.0]), 2) == 2.0

    def test_matches_definition(self, rng):
        prices = rng.standard_normal(64)
        s = make_series(prices)
        for K in (2, 3, 17, 62):
            assert modified_rv(s, K) == pytest.approx(
                modified_rv_by_definition(prices, K), rel=1e-12)

    def test_never_exceeds_full_rv(self, rng):
        prices = rng.standard_normal(200)
        s = make_series(prices)
        rv = realized_variance(s)
        for K in (2, 5, 60, 198):
            assert modified_rv(s, K) <= rv

    def test_invalid_k(self):
        s = make_series(np.arange(6.0))
        with pytest.raises(InvalidK):
            modified_rv(s, 6)  # K > n-1


class TestTwoScale:
    def test_constant(self):
        s = make_series([3.0] * 12)
        assert tsrv(s, 3) == 0.0
        assert wtsrv(s, 3) == 0.0

    def test_formulas(self, rng):
        prices = rng.standard_normal(301)
        s = make_series(prices)
        n, K = 300, 25
        a = avg_rv(s, K)
        assert tsrv(s, K) == pytest.approx(
            a - (n - K + 1) / (n * K) * realized_variance(s), rel=1e-12)
        assert wtsrv(s, K) == pytest.approx(
            a - modified_rv(s, K) / K, rel=1e-12)

    def test_noise_only_null_band(self):
        # |tsrv| < 3 n^(-1/6) sqrt(8 q) with q = 3 a0^4 for pure noise
        n = 10**5
        s = noise_series(n, seed=21)
        K = int(n ** (2 / 3))
        band = 3 * n ** (-1 / 6) * math.sqrt(8 * 3 * A0**4)
        assert abs(tsrv(s, K)) < band

    def test_scale_difference_is_bounded(self):
        # sqrt(K) |wtsrv - tsrv| is the edge contrast; stays within a few
        # sd of sqrt(2q) on stationary noise
        q = 3 * A0**4
        for seed in range(20):
            s = noise_series(20000, seed=seed)
            K = 700
            diff = math.sqrt(K) * abs(wtsrv(s, K) - tsrv(s, K))
            assert diff < 6 * math.sqrt(2 * q)

    def test_invalid_k(self):
        s = make_series(np.arange(10.0))
        with pytest.raises(InvalidK):
            tsrv(s, 1)
        with pytest.raises(InvalidK):
            wtsrv(s, 6)


# Every public function that takes a step or block size K, with its
# admissible band (lo, hi) on a series of 240 increments: the one rule
# estimators._check_K applied with each function's bounds.  avg_rv also
# admits K = 1, the full grid; block_estimates takes K per 64-tick block.
K_BANDS = [
    (avg_rv, 1, 120),
    (modified_rv, 2, 239),
    (tsrv, 2, 120),
    (wtsrv, 2, 120),
    (edge_test, 4, 120),
    (lambda s, K: block_estimates(s, 64, K=K), 2, 32),
    (noise_qv, 1, 80),
    (liquidity_report, 1, 80),
    (lambda s, K: noise_qv_stderr(s, K, 1), 1, 80),
]


@pytest.mark.parametrize("fn, lo, hi", K_BANDS,
                         ids=["avg_rv", "modified_rv", "tsrv", "wtsrv",
                              "edge_test", "block_estimates", "noise_qv",
                              "liquidity_report", "noise_qv_stderr"])
def test_admissible_K_band(fn, lo, hi):
    s = make_series(np.random.default_rng(7).standard_normal(241))
    for K in (lo - 1, hi + 1):
        with pytest.raises(InvalidK):
            fn(s, K)
    for K in (lo, hi):
        fn(s, K)


class TestDefaultK:
    def test_examples(self):
        assert default_K(1000) == 100
        assert default_K(64) == 16
        assert default_K(8) == 4

    def test_scale(self):
        assert default_K(23400, 0.715) == 585
        assert 23400 % 585 == 0

    @pytest.mark.parametrize("n", [50, 377, 1000, 4096, 23400, 99991])
    def test_minimizes_remainder_in_window(self, n):
        K = default_K(n)
        base = int(n ** (2.0 / 3.0) + 1e-9)
        lo, hi = max(2, base - 3), min(base + 3, n // 2)
        best = min(n - (n // c) * c for c in range(lo, hi + 1))
        assert lo <= K <= hi
        assert n - (n // K) * K == best


class TestNoiseMoments:
    def test_needs_four_increments(self):
        with pytest.raises(InvalidIndices, match="n >= 4, got n=3"):
            noise_moments(make_series([0.0, 1.0, 0.0, 1.0]))
        assert noise_moments(make_series([0.0, 1.0, 0.0, 1.0, 0.0])).m2_hat == 0.5

    def test_constant_degenerate(self):
        nm = noise_moments(make_series([1.0] * 10))
        assert (nm.m2_hat, nm.q4_hat, nm.q2sum_hat, nm.eta_hat) == (0, 0, 0, 0)
        assert nm.degenerate

    def test_gaussian_moments(self):
        s = noise_series(10**6, seed=4)
        nm = noise_moments(s)
        assert nm.m2_hat == pytest.approx(A0**2, rel=0.02)
        assert nm.q4_hat == pytest.approx(3 * A0**4, rel=0.05)
        assert nm.q2sum_hat == 2 * nm.q4_hat
        # eta^2 = 24 (q^2 - q m^2 + m^4) = 168 a0^8 for Gaussian noise
        assert nm.eta_hat**2 == pytest.approx(168 * A0**8, rel=0.10)

    def test_internal_consistency(self, rng):
        s = make_series(rng.standard_normal(5001) * 1e-3)
        nm = noise_moments(s)
        n = s.n
        Q = quarticity(s)
        R = realized_variance(s)
        want = (6 * Q**2 / n**2 - 21 * Q * R**2 / n**3
                + 39 * R**4 / (2 * n**4))
        assert nm.eta_hat**2 == pytest.approx(want, rel=1e-12)


class TestInvariances:
    def test_translation(self, rng):
        prices = rng.standard_normal(151) * 1e-2
        a = make_series(prices)
        b = make_series(prices + 4.605)
        K = 12
        assert realized_variance(b) == pytest.approx(realized_variance(a), rel=1e-12)
        assert quarticity(b) == pytest.approx(quarticity(a), rel=1e-12)
        assert avg_rv(b, K) == pytest.approx(avg_rv(a, K), rel=1e-12)
        assert modified_rv(b, K) == pytest.approx(modified_rv(a, K), rel=1e-12)

    def test_scaling_covariance(self, rng):
        prices = rng.standard_normal(301) * 1e-2
        a = make_series(prices)
        c = 3.7
        b = make_series(c * prices)
        K = 20
        assert realized_variance(b) == pytest.approx(c**2 * realized_variance(a), rel=1e-10)
        assert avg_rv(b, K) == pytest.approx(c**2 * avg_rv(a, K), rel=1e-10)
        assert modified_rv(b, K) == pytest.approx(c**2 * modified_rv(a, K), rel=1e-10)
        assert tsrv(b, K) == pytest.approx(c**2 * tsrv(a, K), rel=1e-10)
        assert wtsrv(b, K) == pytest.approx(c**2 * wtsrv(a, K), rel=1e-10)
        assert quarticity(b) == pytest.approx(c**4 * quarticity(a), rel=1e-10)
        ma, mb = noise_moments(a), noise_moments(b)
        assert mb.m2_hat == pytest.approx(c**2 * ma.m2_hat, rel=1e-10)
        assert mb.q4_hat == pytest.approx(c**4 * ma.q4_hat, rel=1e-10)
        assert mb.eta_hat == pytest.approx(c**4 * ma.eta_hat, rel=1e-10)

    def test_time_reversal(self, rng):
        # rv and quarticity see the same squared increments in reverse
        # order; the subsampled estimators keep a K-dependent leading
        # window, so they match only up to the swapped boundary terms.
        prices = rng.standard_normal(90)
        times = np.arange(90.0)
        fwd = make_series(prices, times)
        rev = make_series(prices[::-1], (times[-1] - times)[::-1])
        assert realized_variance(rev) == realized_variance(fwd)
        assert quarticity(rev) == quarticity(fwd)
        n, K = 89, 8
        lagk = (prices[K:] - prices[:-K]) ** 2
        keep = K * (n // K - 1)
        edge = (np.sum(lagk[keep:]) + np.sum(lagk[: n - K + 1 - keep])) / K
        assert abs(avg_rv(rev, K) - avg_rv(fwd, K)) <= edge + 1e-15
        d2 = np.diff(prices) ** 2
        edge_mod = 0.5 * (d2[0] + d2[-1] + d2[K - 1] + d2[n - K])
        assert abs(modified_rv(rev, K) - modified_rv(fwd, K)) <= edge_mod + 1e-15


class TestSharedIncrements:
    """Each series derives its squared increments, their sums R and Q and
    their block sums once, and every analysis reads them."""

    KINDS = ("N", "V", "Vprime", "Vbar")

    @pytest.fixture(scope="class")
    def day(self):
        series, _ = simulate_observed(SimConfig(days=1, noise_kind="ushape",
                                                seed=17))
        return series

    @staticmethod
    def fingerprint(reports, liq, fit, w):
        return ([repr(r) for r in reports], repr(liq), fit.pairs.tobytes(),
                repr((fit.beta_hat, fit.alpha_hat, fit.r_squared)), repr(w))

    def test_order_of_the_pass_changes_no_bit(self, day):
        a = TickSeries(day.times, day.prices)
        b = TickSeries(day.times, day.prices)
        K = default_K(day.n)
        forward = self.fingerprint([run_test(a, k) for k in self.KINDS],
                                   liquidity_report(a), fit_blocks(a, 600),
                                   wtsrv(a, K))
        # the reverse order, with other block sizes asked for in between
        w = wtsrv(b, K)
        fit = fit_blocks(b, 600)
        liq = liquidity_report(b)
        reports = []
        for k in reversed(self.KINDS):
            run_test(b, "Vbar", K=40)
            reports.insert(0, run_test(b, k))
        assert self.fingerprint(reports, liq, fit, w) == forward

    def test_whole_series_estimators_match_price_oracles(self, day):
        for K in (1, 2, 17, default_K(day.n), day.n // 2):
            assert avg_rv(day, K) == oracles.avg_rv(day.prices, K)
        for K in (2, 17, default_K(day.n), day.n - 1):
            assert modified_rv(day, K) == oracles.modified_rv(day.prices, K)
        for K in (2, 17, default_K(day.n), day.n // 2):
            assert wtsrv(day, K) == oracles.wtsrv(day.prices, K)
            assert estimators._wtsrv(day, K) == wtsrv(day, K)
            assert estimators._tsrv(day, K) == tsrv(day, K)
        assert realized_variance(day) == oracles.rv(day.prices)

    def test_cached_values_are_read_only(self):
        s = noise_series(1000, seed=1)
        noise_moments(s)
        inc = estimators._increments(s)
        assert estimators._increments(s) is inc
        with pytest.raises(ValueError):
            inc.d2[0] = 1.0
        with pytest.raises(ValueError):
            inc.block_sums(10)[0] = 1.0

    def test_one_pass_differences_and_sums_once(self, day, monkeypatch):
        s = TickSeries(day.times, day.prices)
        diffs, sums = [], []
        real_diff = np.diff

        def counting_diff(a, *args, **kwargs):
            if np.shape(a) == s.prices.shape:
                diffs.append(a is s.prices)
            return real_diff(a, *args, **kwargs)

        def counting_csum(values):
            sums.append(len(values))
            return csum(values)

        monkeypatch.setattr(np, "diff", counting_diff)
        monkeypatch.setattr(estimators, "csum", counting_csum)
        for _ in range(2):
            for k in self.KINDS:
                run_test(s, k)
            liquidity_report(s)
            fit_blocks(s, 600)
            wtsrv(s, default_K(s.n))
        assert diffs == [True]
        assert sums == [s.n, s.n]
