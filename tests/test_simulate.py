import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import expon, kstest

from hfnoise import (InvalidConfig, InvalidU, SimConfig, simulate,
                     simulate_observed)
from hfnoise._accum import CHUNK
from hfnoise.simulate import (DT_YEARS, STEPS_PER_DAY, _euler_kernel,
                              _ou_kernel, _poisson_jumps, config_from_file,
                              fractional_ma_coeffs, make_noise, observe,
                              sample_times, simulate_latent,
                              stationary_variance_draw)
from hfnoise.ticks import SECONDS_PER_DAY, SECONDS_PER_YEAR

import oracles


class TestConfig:
    def test_defaults_valid(self):
        cfg = SimConfig()
        assert cfg.sigma_bar2 == 0.16
        assert cfg.a0 == 5e-3

    def test_rejects_bad_values(self):
        with pytest.raises(InvalidConfig):
            SimConfig(rho=-1.5)
        with pytest.raises(InvalidConfig):
            SimConfig(ma_exponent=0.5)
        with pytest.raises(InvalidConfig):
            SimConfig(days=0)
        with pytest.raises(InvalidConfig):
            SimConfig(noise_kind="weird")
        with pytest.raises(InvalidConfig):
            SimConfig(lambda_x=-1)

    def test_config_file_roundtrip(self, tmp_path):
        # one line per field, so every field type goes through the parser
        cfg = SimConfig(days=3, noise_kind="ushape", seed=99, a1=2e-4,
                        sigma2_0=0.2, g0=None)
        path = tmp_path / "sim.cfg"
        path.write_text("".join(f"{f.name}={getattr(cfg, f.name)}\n"
                                for f in fields(SimConfig)))
        back = config_from_file(path)
        assert back == cfg
        assert [type(getattr(back, f.name)) for f in fields(SimConfig)] == [
            type(getattr(cfg, f.name)) for f in fields(SimConfig)]

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus=1\n")
        with pytest.raises(InvalidConfig):
            config_from_file(path)


class TestFractionalMaCoeffs:
    def test_recurrence_hand_values(self):
        psi = fractional_ma_coeffs(0.3, 3)
        assert psi == pytest.approx([0.3, 0.195, 0.1495], abs=1e-15)

    def test_zero_exponent_white_noise(self):
        assert fractional_ma_coeffs(0.0, 5).tolist() == [0.0] * 5

    def test_matches_gamma_function(self):
        # psi_j = Gamma(u+j) / (Gamma(j+1) Gamma(u))
        u, order = 0.3, 10
        psi = fractional_ma_coeffs(u, order)
        j = np.arange(1, order + 1)
        want = np.exp(gammaln(u + j) - gammaln(j + 1) - gammaln(u))
        assert psi == pytest.approx(want, rel=1e-12)
        assert np.isfinite(np.sum(psi**2))

    def test_invalid(self):
        with pytest.raises(InvalidU):
            fractional_ma_coeffs(0.6, 5)
        with pytest.raises(InvalidU):
            fractional_ma_coeffs(0.3, -1)


class TestLatentPaths:
    def test_deterministic_relaxation_matches_ode(self):
        # no vol-of-vol, no jumps: variance decays to its mean at rate kappa
        cfg = SimConfig(delta=0.0, lambda_x=0.0, lambda_v=0.0, mu=0.0,
                        sigma2_0=0.5, days=1)
        rng = np.random.default_rng(0)
        _, s2, _ = simulate_latent(cfg, rng)
        t = np.arange(len(s2)) * DT_YEARS
        want = cfg.sigma_bar2 + (0.5 - cfg.sigma_bar2) * np.exp(-cfg.kappa * t)
        assert np.allclose(s2, want, rtol=1e-6)

    def test_stationary_start_mean(self):
        cfg = SimConfig()
        rng = np.random.default_rng(7)
        draws = np.array([stationary_variance_draw(cfg, rng)
                          for _ in range(10**4)])
        assert draws.mean() == pytest.approx(cfg.sigma_bar2, rel=0.02)

    def test_jump_counts_poisson_mean(self):
        cfg = SimConfig(days=1)
        rng = np.random.default_rng(11)
        lam_t = cfg.lambda_x / 252.0
        counts = [len(_poisson_jumps(rng, cfg.lambda_x, 1 / 252.0,
                                     STEPS_PER_DAY)[0])
                  for _ in range(4000)]
        se = math.sqrt(lam_t / 4000)
        assert np.mean(counts) == pytest.approx(lam_t, abs=4 * se)

    def test_truth_matches_independent_riemann_sum(self):
        cfg = SimConfig(days=2, seed=3)
        rng = np.random.default_rng(3)
        _, s2, info = simulate_latent(cfg, rng)
        left = s2[:-1]
        assert info["iv"] == pytest.approx(float(np.sum(left)) * DT_YEARS,
                                           rel=1e-10)
        assert info["iq"] == pytest.approx(float(np.sum(left**2)) * DT_YEARS,
                                           rel=1e-10)

    def test_variance_floor(self):
        cfg = SimConfig(delta=3.0, days=1, vol_floor=1e-12)  # wild vol-of-vol
        rng = np.random.default_rng(5)
        _, s2, _ = simulate_latent(cfg, rng)
        assert (s2 >= 1e-12).all()
        assert np.isfinite(s2).all()


class TestSampleTimes:
    def test_expected_count(self):
        cfg = SimConfig(avg_dt_seconds=2.0)
        rng = np.random.default_rng(17)
        counts = [len(sample_times(cfg, rng, 0)) for _ in range(100)]
        assert np.mean(counts) == pytest.approx(23400 / 2.0, rel=0.03)

    def test_zero_amplitude_is_homogeneous(self):
        cfg = SimConfig(avg_dt_seconds=1.0, intensity_amp=0.0)
        rng = np.random.default_rng(23)
        t = sample_times(cfg, rng, 0)
        gaps = np.diff(t)
        assert kstest(gaps, expon(scale=gaps.mean()).cdf).pvalue > 0.01

    def test_sorted_within_day(self):
        cfg = SimConfig(avg_dt_seconds=5.0)
        rng = np.random.default_rng(29)
        t = sample_times(cfg, rng, 0)
        assert (np.diff(t) > 0).all()
        assert t.min() >= 0.0 and t.max() <= SECONDS_PER_DAY

    def test_seed_determinism(self):
        cfg = SimConfig(avg_dt_seconds=1.0)
        a = sample_times(cfg, np.random.default_rng(31), 0)
        b = sample_times(cfg, np.random.default_rng(31), 0)
        assert np.array_equal(a, b)

    def test_regular_grid(self):
        cfg = SimConfig(avg_dt_seconds=1.0, sampling="regular")
        t = sample_times(cfg, np.random.default_rng(0), 0)
        assert len(t) == 23400
        assert t[0] == 1.0 and t[-1] == SECONDS_PER_DAY


class TestNoise:
    def test_stationary_variance(self):
        cfg = SimConfig(noise_kind="stationary")
        rng = np.random.default_rng(3)
        eps, g = make_noise(cfg, rng, np.arange(1.0, 1e5 + 1), np.full(23400, 0.16))
        assert eps.var() == pytest.approx(cfg.a0**2, rel=0.02)
        assert (g == cfg.a0**2).all()

    def test_ushape_weight_normalization(self):
        # mean of the variance weight over a day tends to 1
        from hfnoise.simulate import _ushape_weights
        w = _ushape_weights(20000)
        assert w.mean() == pytest.approx(1.0, abs=1e-3)
        # variance at the edges over the centre: (0.25 + 0.2) / 0.2
        assert w[0] / w.min() == pytest.approx(2.25, rel=1e-2)

    def test_ushape_daily_variance_near_stationary_level(self):
        # a1 calibrates the U-curve level to a0^2 on average; the moving
        # average inflates it by 1 + sum(psi^2) ~ 1.19, tolerated to 30%
        cfg = SimConfig(noise_kind="ushape", days=1)
        rng = np.random.default_rng(41)
        ticks = np.sort(rng.uniform(0, SECONDS_PER_DAY, 23400))
        s2 = np.full(STEPS_PER_DAY, cfg.sigma_bar2)
        eps, g = make_noise(cfg, rng, ticks, s2)
        assert eps.var() == pytest.approx(cfg.a0**2, rel=0.30)
        assert g.mean() == pytest.approx(cfg.a0**2, rel=0.30)

    def test_ushape_g_profile(self):
        cfg = SimConfig(noise_kind="ushape", days=1)
        rng = np.random.default_rng(43)
        ticks = np.arange(1.0, 23401.0)
        s2 = np.full(STEPS_PER_DAY, cfg.sigma_bar2)
        _, g = make_noise(cfg, rng, ticks, s2)
        mid = len(g) // 2
        assert g[0] > g[mid]
        assert g[-1] > g[mid]
        assert g[0] / g.min() == pytest.approx(2.25, rel=0.02)

    def test_ushape_day_without_ticks_draws_nothing(self):
        # ticks on days 0 and 2 only: the empty day 1 is skipped, so the
        # noise equals that of the same ticks with day 1 cut out
        cfg = SimConfig(noise_kind="ushape", days=3)
        ticks = np.concatenate((np.arange(1.0, 2001.0),
                                2 * SECONDS_PER_DAY + np.arange(1.0, 3001.0)))
        s2 = np.repeat([0.1, 0.2, 0.3], STEPS_PER_DAY)
        eps, g = make_noise(cfg, np.random.default_rng(5), ticks, s2)
        cut = np.where(ticks > SECONDS_PER_DAY, ticks - SECONDS_PER_DAY, ticks)
        want = make_noise(replace(cfg, days=2), np.random.default_rng(5), cut,
                          np.repeat([0.1, 0.3], STEPS_PER_DAY))
        assert eps.tobytes() == want[0].tobytes()
        assert g.tobytes() == want[1].tobytes()
        assert len(eps) == 5000 and (g > 0).all()

    def test_custom_g_tracks_level(self):
        cfg = SimConfig(noise_kind="custom_g", g0=2e-5, g_theta=2e-5,
                        g_kappa=50.0, g_vol=1e-4, g_floor=1e-7)
        rng = np.random.default_rng(47)
        ticks = np.arange(1.0, 50001.0)
        eps, g = make_noise(cfg, rng, ticks, np.full(23400, 0.16))
        assert (g > 0).all()
        assert g.mean() == pytest.approx(2e-5, rel=0.5)
        assert eps.var() == pytest.approx(g.mean(), rel=0.1)

    def test_linear_g_link(self):
        cfg = SimConfig(noise_kind="linear_g", g_beta=1e-5, g_alpha=1e-5)
        rng = np.random.default_rng(53)
        s2 = np.linspace(0.1, 0.3, STEPS_PER_DAY)
        ticks = np.array([0.0, 10.0, 100.0, 9999.0])
        _, g = make_noise(cfg, rng, ticks, s2)
        assert g == pytest.approx(1e-5 * s2[ticks.astype(int)] + 1e-5)

    def test_linear_g_negative_rejected(self):
        cfg = SimConfig(noise_kind="linear_g", g_beta=-1.0, g_alpha=0.0)
        rng = np.random.default_rng(59)
        with pytest.raises(InvalidConfig):
            make_noise(cfg, rng, np.arange(1.0, 10.0), np.full(23400, 0.16))


class TestObserve:
    def test_floor_rounding(self):
        y = observe(np.array([4.605170999]), np.zeros(1), 1e-5)
        assert y[0] == pytest.approx(4.60517, abs=1e-12)
        assert y[0] <= 4.605170999 < y[0] + 1e-5

    def test_zero_alpha_disables(self):
        x = np.array([1.23456789])
        eps = np.array([1e-7])
        assert observe(x, eps, 0.0)[0] == x[0] + eps[0]

    def test_rounding_error_below_alpha(self, rng):
        x = rng.standard_normal(1000)
        y = observe(x, np.zeros(1000), 1e-5)
        assert (np.abs(y - x) < 1e-5).all()


class TestSimulateObserved:
    def test_seed_determinism(self):
        cfg = SimConfig(days=1, seed=77)
        s1, t1 = simulate_observed(cfg)
        s2, t2 = simulate_observed(cfg)
        assert np.array_equal(s1.times, s2.times)
        assert np.array_equal(s1.prices, s2.prices)
        assert t1.iv == t2.iv and t1.gg == t2.gg

    def test_stationary_truth(self):
        cfg = SimConfig(days=1, seed=5)
        series, truth = simulate_observed(cfg)
        assert truth.gg == 0.0
        assert truth.qv >= truth.iv > 0
        assert truth.iq > 0
        assert len(truth.g_path) == len(series.times)
        assert len(truth.iv_per_day) == 1

    def test_ushape_truth_has_curvature(self):
        cfg = SimConfig(days=1, seed=5, noise_kind="ushape")
        series, truth = simulate_observed(cfg)
        assert truth.gg > 0
        dg = np.diff(truth.g_path)
        assert truth.gg == pytest.approx(float(np.sum(dg * dg)), rel=1e-12)

    def test_ushape_qv_closed_form(self):
        # frozen variance path (delta=0, no vol jumps) makes omega^2 exact
        # and the noise-variance QV computable from the weight curve alone
        from hfnoise.simulate import _ushape_weights
        cfg = SimConfig(days=1, seed=5, noise_kind="ushape", delta=0.0,
                        lambda_v=0.0, sampling="regular")
        series, truth = simulate_observed(cfg)
        omega2 = cfg.a1 * cfg.sigma_bar2
        psi = fractional_ma_coeffs(cfg.ma_exponent, cfg.ma_order)
        level = omega2 * (1.0 + float(np.sum(psi * psi)))
        w = _ushape_weights(series.n + 1)
        want = float(np.sum(np.diff(w * level) ** 2))
        assert truth.gg == pytest.approx(want, rel=1e-10)

    def test_times_strictly_increasing_start_zero(self):
        cfg = SimConfig(days=2, seed=13, avg_dt_seconds=3.0)
        series, _ = simulate_observed(cfg)
        assert series.times[0] == 0.0
        assert (np.diff(series.times) > 0).all()
        assert series.times[-1] <= 2 / 252.0

    def test_qv_includes_price_jumps(self):
        cfg = SimConfig(days=1, seed=101, lambda_x=2000.0)  # force jumps
        _, truth = simulate_observed(cfg)
        assert len(truth.x_jump_times) > 0
        assert truth.qv == pytest.approx(
            truth.iv + float(np.sum(truth.x_jump_sizes**2)), rel=1e-12)


LENGTHS = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)


def _euler_inputs(n, seed):
    """Normal draws plus price and variance jumps at step 0, the last step
    and both sides of each slice boundary, with two jumps on one step."""
    rng = np.random.default_rng(seed)
    zw = rng.standard_normal(n)
    zb = -0.6 * zw + 0.8 * rng.standard_normal(n)
    steps = [s for s in (0, n - 1, CHUNK - 1, CHUNK, 2 * CHUNK - 1,
                         2 * CHUNK) if s < n]
    steps += steps[:1]
    jump_x = np.zeros(n)
    np.add.at(jump_x, steps, rng.normal(0.0016, 0.06, len(steps)))
    jump_v = np.zeros(n)
    np.add.at(jump_v, steps, np.exp(rng.normal(-5.0, 0.9, len(steps))))
    return zw, zb, jump_x, jump_v


class TestKernelsMatchOracle:
    """The sliced kernels against the one-step-per-element oracles in
    ``oracles.py``, under exact equality."""

    @pytest.mark.parametrize("n", LENGTHS)
    def test_euler_with_jumps(self, n):
        args = (math.log(100.0), 0.15, 0.03, 6.0, 0.16, 0.7, DT_YEARS,
                1e-12) + _euler_inputs(n, seed=n)
        x, s2 = _euler_kernel(*args)
        want_x, want_s2 = oracles.euler_kernel(*args)
        assert np.array_equal(x, want_x)
        assert np.array_equal(s2, want_s2)

    @pytest.mark.parametrize("n", (CHUNK + 1, 2 * CHUNK + 3))
    def test_euler_heavy_floor_reflection(self, n):
        # the variance reverts fast to a mean below the floor
        zw, zb, jump_x, jump_v = _euler_inputs(n, seed=7)
        floor, kappa, sbar2, delta = 0.12, 5000.0, 0.01, 1.3
        args = (0.0, floor, 0.0, kappa, sbar2, delta, DT_YEARS, floor,
                zw, zb, jump_x, jump_v)
        x, s2 = _euler_kernel(*args)
        want_x, want_s2 = oracles.euler_kernel(*args)
        assert np.array_equal(x, want_x)
        assert np.array_equal(s2, want_s2)
        s = np.sqrt(s2[:-1])
        raw = (s2[:-1] + kappa * (sbar2 - s2[:-1]) * DT_YEARS
               + delta * s * math.sqrt(DT_YEARS) * zb + s * jump_v)
        assert np.mean(raw < floor) > 0.2

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("kappa", (0.0, 3000.0))
    @pytest.mark.parametrize("spacing", ("regular", "irregular"))
    def test_ou(self, n, kappa, spacing):
        rng = np.random.default_rng(n)
        if spacing == "regular":
            dts = np.full(n, 1.0 / SECONDS_PER_YEAR)
        else:
            dts = rng.exponential(1.0, n) / SECONDS_PER_YEAR
        z = rng.standard_normal(n)
        # the level starts at the floor; with kappa > 0 it reverts to a
        # theta below it
        floor, theta, vol = 2.5e-5, 1e-5, 2e-4
        args = (floor, kappa, theta, vol, floor, dts, z)
        g = _ou_kernel(*args)
        assert np.array_equal(g, oracles.ou_kernel(*args))
        if n > CHUNK:
            phi = np.exp(-kappa * dts)
            sd = (vol * np.sqrt((1.0 - phi * phi) / (2.0 * kappa))
                  if kappa > 0.0 else vol * np.sqrt(dts))
            raw = theta + phi * (g[:-1] - theta) + sd * z
            assert np.sum(raw < floor) >= 10

    @pytest.mark.parametrize("kind", ("stationary", "ushape", "custom_g",
                                      "linear_g"))
    def test_simulate_observed_unchanged(self, kind, monkeypatch):
        cfg = SimConfig(days=1, avg_dt_seconds=2.0, noise_kind=kind, seed=31,
                        lambda_x=300.0, lambda_v=300.0, g_kappa=3000.0,
                        g_vol=1e-4, g_floor=5e-6, g_beta=1e-4, g_alpha=1e-5)
        series, truth = simulate_observed(cfg)
        monkeypatch.setattr(simulate, "_euler_kernel", oracles.euler_kernel)
        monkeypatch.setattr(simulate, "_ou_kernel", oracles.ou_kernel)
        want_series, want_truth = simulate_observed(cfg)
        assert np.array_equal(series.times, want_series.times)
        assert np.array_equal(series.prices, want_series.prices)
        for name in ("iv", "iq", "qv", "gg", "iv_per_day", "g_path",
                     "x_jump_times", "x_jump_sizes", "v_jump_times",
                     "v_jump_sizes"):
            assert np.array_equal(getattr(truth, name),
                                  getattr(want_truth, name)), name
