import numpy as np
import pytest

from hfnoise import (BlockTooSmall, DegenerateDesign, InvalidK, SimConfig,
                     TickSeries, block_estimates, default_K, fit_blocks, ols,
                     simulate_observed)
from hfnoise.simulate import DT_YEARS, STEPS_PER_DAY, simulate_latent

import oracles
from conftest import make_series, noise_series


def pairs_on_line(x, beta, alpha):
    x = np.asarray(x, dtype=float)
    return np.column_stack([np.arange(len(x), dtype=float), x,
                            beta * x + alpha])


class TestOls:
    def test_exact_affine(self):
        rep = ols(pairs_on_line([1.0, 2.0, 5.0, 7.0], 2.0, 1.0))
        assert rep.beta_hat == pytest.approx(2.0, rel=1e-14)
        assert rep.alpha_hat == pytest.approx(1.0, rel=1e-14)
        assert rep.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_identical_pairs_degenerate(self):
        pairs = pairs_on_line([3.0, 3.0, 3.0, 3.0], 1.0, 0.0)
        with pytest.raises(DegenerateDesign):
            ols(pairs)

    def test_pairs_need_three_columns(self):
        pairs = pairs_on_line([1.0, 2.0, 5.0, 7.0], 2.0, 1.0)[:, 1:]
        with pytest.raises(DegenerateDesign, match="rows of"):
            ols(pairs)

    def test_too_few_pairs(self):
        with pytest.raises(BlockTooSmall):
            ols(pairs_on_line([1.0, 2.0], 1.0, 0.0))

    def test_log_log_drops_nonpositive(self):
        pairs = np.array([[0.0, 1.0, 2.0],
                          [1.0, 2.0, 4.0],
                          [2.0, 4.0, 8.0],
                          [3.0, -1.0, 5.0],
                          [4.0, 5.0, -2.0]])
        rep = ols(pairs, log_log=True)
        assert rep.dropped == 2
        assert rep.beta_hat == pytest.approx(1.0, rel=1e-12)  # g = 2x is slope 1 in logs

    def test_r_squared_in_unit_interval(self, rng):
        x = rng.uniform(1, 2, 30)
        pairs = np.column_stack([np.arange(30.0), x,
                                 0.5 * x + rng.normal(0, 0.3, 30)])
        rep = ols(pairs)
        assert 0.0 <= rep.r_squared <= 1.0


class TestBlockEstimates:
    def test_constant_prices_zero_pairs(self):
        s = make_series([2.0] * 400)
        pairs = block_estimates(s, 128)
        assert (pairs[:, 1] == 0).all()
        assert (pairs[:, 2] == 0).all()
        with pytest.raises(DegenerateDesign):
            ols(pairs)

    def test_block_too_small(self):
        s = make_series(np.arange(400.0))
        with pytest.raises(BlockTooSmall):
            block_estimates(s, 32)       # m < 64
        with pytest.raises(BlockTooSmall):
            block_estimates(s, 200)      # fewer than 3 blocks

    @pytest.mark.parametrize("m", [64, 600, 23400])
    def test_matches_per_block_oracle_bit_for_bit(self, m):
        # n is no multiple of m, times are irregular, and at m = 23400 the
        # rows are longer than one summation slice
        rng = np.random.default_rng(m)
        n = 3 * 23400 + 517
        times = np.cumsum(rng.uniform(0.5, 1.5, n + 1)) / 5.9e6
        prices = 4.6 + np.cumsum(rng.standard_normal(n + 1)) * 1e-4 \
            + rng.standard_normal(n + 1) * 5e-4
        s = TickSeries(times, prices)
        for K in (None, 7, m // 2):
            got = block_estimates(s, m, K=K)
            want = oracles.block_estimates(s, m, default_K(m) if K is None
                                           else K)
            assert got.shape == (n // m, 3)
            assert got.tobytes() == want.tobytes(), K

    @pytest.mark.parametrize("K", [1, 301, 700, 5000])
    def test_explicit_K_checked_against_block_length(self, K):
        s = noise_series(23400, seed=3)
        with pytest.raises(InvalidK):
            block_estimates(s, 600, K=K)
        with pytest.raises(InvalidK):
            fit_blocks(s, 600, K=K)

    def test_noise_level_recovered_per_block(self):
        # hat g = RV / (2m) estimates the noise variance
        s = noise_series(23400, seed=2)
        pairs = block_estimates(s, 2340)
        assert np.mean(pairs[:, 2]) == pytest.approx((5e-3) ** 2, rel=0.05)

    def test_spot_variance_recovered_on_average(self):
        # day of regular one-second data; block spot-variance estimates
        # against the fine-grid truth per block (m = 2340 -> 10 blocks)
        cfg = SimConfig(days=1, seed=8, sampling="regular", lambda_x=0,
                        lambda_v=0)
        series, truth = simulate_observed(cfg)
        m = 2340
        pairs = block_estimates(series, m)
        rng = np.random.default_rng(8)
        _, s2, _ = simulate_latent(cfg, rng)
        blocks = len(pairs)
        iv_blocks = np.array([
            np.sum(s2[i * m:(i + 1) * m]) * DT_YEARS for i in range(blocks)])
        duration = m * DT_YEARS
        est = pairs[:, 1] * duration
        assert np.mean(est) == pytest.approx(np.mean(iv_blocks), rel=0.15)

    def test_translation_and_scaling(self, rng):
        prices = rng.standard_normal(512) * 1e-2
        a = make_series(prices)
        b = make_series(prices + 3.0)
        c = make_series(2.0 * prices)
        pa = block_estimates(a, 128)
        pb = block_estimates(b, 128)
        pc = block_estimates(c, 128)
        assert pb[:, 1:] == pytest.approx(pa[:, 1:], rel=1e-10)
        assert pc[:, 1:] == pytest.approx(4.0 * pa[:, 1:], rel=1e-10)
        # log-log slope unchanged by scaling when fits are defined
        if (pa[:, 1:] > 0).all():
            ra = ols(pa, log_log=True)
            rc = ols(pc, log_log=True)
            assert rc.beta_hat == pytest.approx(ra.beta_hat, rel=1e-8)


class TestFitBlocks:
    def test_linked_simulation_recovers_slope(self):
        # 10-day paths with an affine noise-variance / variance link and
        # elevated variance movement; a single 10-point fit is noisy, so
        # average the slope over a few paths
        beta = 0.05 * (5e-3) ** 2 / 0.16
        slopes = []
        for seed in range(5005, 5011):
            cfg = SimConfig(noise_kind="linear_g", days=10,
                            sampling="regular", lambda_x=0, delta=1.2,
                            lambda_v=100.0, theta_v=-1.0, nu_v=0.25,
                            g_beta=beta, g_alpha=0.5 * (5e-3) ** 2,
                            seed=seed)
            series, _ = simulate_observed(cfg)
            rep = fit_blocks(series, STEPS_PER_DAY)
            assert rep.m == STEPS_PER_DAY
            slopes.append(rep.beta_hat)
        assert np.mean(slopes) == pytest.approx(beta, rel=0.3)
