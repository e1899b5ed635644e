"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines stream.  Monte Carlo scenarios and seeds are frozen; the studies are
shared across criteria through module-scoped fixtures.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from hfnoise import (SimConfig, StudySpec, TickSeries, avg_rv,
                     liquidity_report, realized_variance, run_study, run_test,
                     simulate_observed, tsrv, wtsrv)
from hfnoise.estimators import modified_rv, noise_moments, quarticity
from hfnoise.mc import roc_points
from hfnoise.regress import fit_blocks
from hfnoise.simulate import STEPS_PER_DAY
from hfnoise.stationarity import block_diff_mean_sq, p_value

from conftest import make_series, noise_series
from test_estimators import avg_rv_by_definition, modified_rv_by_definition

A0 = 5e-3


def report(num, name, ok, detail):
    line = f"[criterion {num:>2}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# --- shared Monte Carlo studies ------------------------------------------

@pytest.fixture(scope="module")
def study_null_1d():
    return run_study(StudySpec(reps=500, scenario="null_1d", tests=("N",),
                               base_seed=20))


@pytest.fixture(scope="module")
def study_null_5d():
    return run_study(StudySpec(reps=300, scenario="null_5d",
                               tests=("V", "Vbar"), base_seed=31))


@pytest.fixture(scope="module")
def study_ushape_5d():
    return run_study(StudySpec(reps=300, scenario="ushape_5d",
                               tests=("V", "Vbar"), base_seed=31))


@pytest.fixture(scope="module")
def study_ushape_1d():
    return run_study(StudySpec(reps=500, scenario="ushape_1d", tests=("N",),
                               base_seed=17))


def _edge_bias_config(noise_kind, a1_scale=1.0, ma_order=0):
    # regular one-second grid, no jumps: isolates the estimators' noise
    # edge bias; the regular grid pins n = 23400 so the divisor-friendly
    # step (585 at scale 0.715) leaves no subsample remainder
    return SimConfig(noise_kind=noise_kind, days=1, avg_dt_seconds=1.0,
                     sampling="regular", lambda_x=0.0, lambda_v=0.0,
                     ma_order=ma_order, a1=a1_scale * 1.54e-4)


@pytest.fixture(scope="module")
def study_edge_bias():
    cfg = _edge_bias_config("ushape", a1_scale=8.0)
    return run_study(StudySpec(reps=500, scenario="custom", config=cfg,
                               tests=(), base_seed=13, k_scale=0.715))


@pytest.fixture(scope="module")
def study_stationary_vol():
    cfg = _edge_bias_config("stationary")
    return run_study(StudySpec(reps=500, scenario="custom", config=cfg,
                               tests=(), base_seed=11, k_scale=0.715))


# --- criteria -------------------------------------------------------------

def test_criterion_01_p_value_convention():
    p1 = p_value(0.5942)
    p2 = p_value(1.4729)
    ok = abs(p1 - 0.2762) <= 5e-4 and abs(p2 - 0.0704) <= 5e-4
    report(1, "p-value convention", ok,
           f"p(0.5942)={p1:.4f}, p(1.4729)={p2:.4f}, tol 5e-4")


def test_criterion_02_null_distribution_of_N(study_null_1d):
    stats = study_null_1d.stats["N"]
    ks = kstest(stats, "norm").statistic
    rej = study_null_1d.rejection_rate("N")
    mean, var = stats.mean(), stats.var()
    ok = (ks < 0.08 and 0.025 <= rej <= 0.08
          and abs(mean) <= 0.15 and 0.8 <= var <= 1.25)
    report(2, "null distribution of N (500 one-day reps)", ok,
           f"KS={ks:.3f}<0.08, reject@5%={rej:.3f} in [0.025,0.08], "
           f"mean={mean:+.3f}, var={var:.3f}")


def test_criterion_03_conservative_null_V_Vbar(study_null_5d):
    rv = study_null_5d.rejection_rate("V")
    rb = study_null_5d.rejection_rate("Vbar")
    ok = rv <= 0.07 and rb <= 0.07
    report(3, "conservative null of V and Vbar (300 five-day reps)", ok,
           f"reject@5%: V={rv:.3f}, Vbar={rb:.3f}, both <= 0.07")


def test_criterion_04_power_ordering(study_ushape_5d, study_null_5d,
                                     study_ushape_1d):
    pv = study_ushape_5d.rejection_rate("V")
    pb = study_ushape_5d.rejection_rate("Vbar")
    pn = study_ushape_1d.rejection_rate("N")
    roc_v = roc_points(study_null_5d.stats["V"], study_ushape_5d.stats["V"])
    roc_b = roc_points(study_null_5d.stats["Vbar"],
                       study_ushape_5d.stats["Vbar"])
    grid = roc_v[:, 0] >= 0.01
    dominance = float(np.mean(roc_v[grid, 1] >= roc_b[grid, 1]))
    ok = pv >= pb >= 0.9 and pn >= 0.8 and dominance >= 0.9
    report(4, "power ordering (U-curve alternatives)", ok,
           f"power@5%: V={pv:.3f} >= Vbar={pb:.3f} >= 0.9; "
           f"1-day N={pn:.3f} >= 0.8; ROC V>=Vbar on {dominance:.0%} of grid")


def test_criterion_05_edge_bias_removal(study_edge_bias, study_stationary_vol):
    miv = study_edge_bias.iv.mean()
    bias_w = float(np.mean(study_edge_bias.wtsrv - study_edge_bias.iv))
    bias_t = float(np.mean(study_edge_bias.tsrv - study_edge_bias.iv))
    ratio = abs(bias_w) / abs(bias_t)
    rel_err = float(np.mean(study_stationary_vol.wtsrv
                            / study_stationary_vol.iv - 1.0))
    rel_err_t = float(np.mean(study_stationary_vol.tsrv
                              / study_stationary_vol.iv - 1.0))
    ok = ratio <= 0.2 and abs(rel_err) <= 0.05 and abs(rel_err_t) <= 0.05
    report(5, "weighted two-scale edge-bias removal", ok,
           f"U-curve: |bias W|/|bias T|={ratio:.3f}<=0.2 "
           f"(W={bias_w / miv:+.3f}, T={bias_t / miv:+.3f} of iv); "
           f"stationary: mean rel err WTSRV={rel_err:+.4f}, "
           f"TSRV={rel_err_t:+.4f}, tol 0.05")


def test_criterion_06_convergence_rate():
    # pure-noise series; K = c n^(2/3) with matched c and zero remainder
    rng = np.random.default_rng(99)

    def rmse(n, K, reps):
        t = np.arange(n + 1, dtype=float)
        errs = np.empty(reps)
        for i in range(reps):
            s = TickSeries(t, A0 * rng.standard_normal(n + 1))
            errs[i] = wtsrv(s, K)
        return math.sqrt(float(np.mean(errs * errs)))

    r1 = rmse(100_000, 2000, 500)
    r4 = rmse(400_000, 5000, 500)
    ratio = r1 / r4
    ok = 1.1 <= ratio <= 1.45
    report(6, "n^(1/6) rate of WTSRV (n vs 4n)", ok,
           f"RMSE ratio={ratio:.3f} in [1.1, 1.45], theory 4^(1/6)=1.26")


def test_criterion_07_noise_moment_oracles():
    s = noise_series(10**6, seed=4)
    nm = noise_moments(s)
    e_m2 = nm.m2_hat / A0**2 - 1.0
    e_q4 = nm.q4_hat / (3 * A0**4) - 1.0
    e_eta = nm.eta_hat**2 / (168 * A0**8) - 1.0
    ok = abs(e_m2) <= 0.02 and abs(e_q4) <= 0.05 and abs(e_eta) <= 0.10
    report(7, "noise moment estimators (n=1e6 iid noise)", ok,
           f"m2 err={e_m2:+.4f} (2%), q4 err={e_q4:+.4f} (5%), "
           f"eta^2 err={e_eta:+.4f} (10%)")


def test_criterion_08_block_statistic_limit():
    s = noise_series(10**6, seed=4)
    K = int(s.n**0.55)
    err = block_diff_mean_sq(s, K) / (6 * A0**4) - 1.0
    ok = abs(err) <= 0.10
    report(8, "pooled block statistic tends to 2 E(eps^4)", ok,
           f"K={K}, rel err={err:+.4f}, tol 0.10")


def test_criterion_09_liquidity_estimator():
    days = 30
    n = days * STEPS_PER_DAY
    K = int(n**0.62)
    r = n // K
    T = days / 252.0
    theta = A0**2
    kappa_g = 0.06 * r / T
    cfg = SimConfig(noise_kind="custom_g", days=days, avg_dt_seconds=1.0,
                    sampling="regular", lambda_x=0.0, lambda_v=0.0,
                    g0=theta, g_theta=theta, g_kappa=kappa_g,
                    g_vol=0.55 * theta * math.sqrt(2.0 * kappa_g),
                    g_floor=5e-7)
    rels = np.empty(200)
    cover = np.empty(200, dtype=bool)
    for i in range(200):
        series, truth = simulate_observed(replace(cfg, seed=2000 + i))
        rep = liquidity_report(series, K=K)
        rels[i] = rep.gg_hat / truth.gg - 1.0
        cover[i] = rep.ci_low <= truth.gg <= rep.ci_high
    mre = float(np.mean(np.abs(rels)))
    cov = float(np.mean(cover))
    ok = mre <= 0.15 and cov >= 0.85
    report(9, "noise-variance QV estimate (200 reps, K=n^0.62)", ok,
           f"mean |rel err|={mre:.3f}<=0.15, 95% CI coverage={cov:.3f}>=0.85")


def test_criterion_10_regression_consistency():
    beta = 0.05 * A0**2 / 0.16
    cfg = SimConfig(noise_kind="linear_g", days=10, avg_dt_seconds=1.0,
                    sampling="regular", lambda_x=0.0, delta=1.2,
                    lambda_v=100.0, theta_v=-1.0, nu_v=0.25,
                    g_beta=beta, g_alpha=0.5 * A0**2)
    slopes = np.empty(100)
    for i in range(100):
        series, _ = simulate_observed(replace(cfg, seed=5000 + i))
        slopes[i] = fit_blocks(series, STEPS_PER_DAY).beta_hat
    err = float(np.mean(slopes)) / beta - 1.0
    ok = abs(err) <= 0.25
    report(10, "regression slope consistency (100 ten-day reps)", ok,
           f"mean beta_hat/beta - 1 = {err:+.3f}, tol 0.25")


class TestCriterion11PropertySuite:
    def test_affine_invariance(self):
        series, _ = simulate_observed(SimConfig(days=1, avg_dt_seconds=6.0,
                                                seed=71))
        worst = 0.0
        for c, b in ((2.5, -1.2), (-0.7, 4.0)):
            other = TickSeries(series.times, c * series.prices + b)
            for kind, kwargs in (("N", dict(K=150)),
                                 ("V", dict(K=150, window=4)),
                                 ("Vprime", dict(K=150, window=4)),
                                 ("Vbar", dict(K=150))):
                s0 = run_test(series, kind, **kwargs).statistic
                s1 = run_test(other, kind, **kwargs).statistic
                worst = max(worst, abs(s1 - s0) / max(abs(s0), 1e-300))
        ok = worst <= 1e-8
        report(11, "affine invariance of all four statistics", ok,
               f"worst rel dev={worst:.2e}, tol 1e-8")

    def test_scaling_covariance_table(self):
        rng = np.random.default_rng(5)
        prices = rng.standard_normal(401) * 1e-2
        a = make_series(prices)
        c = 2.7
        b = make_series(c * prices)
        K = 20
        checks = [
            (realized_variance(b), c**2 * realized_variance(a)),
            (avg_rv(b, K), c**2 * avg_rv(a, K)),
            (modified_rv(b, K), c**2 * modified_rv(a, K)),
            (tsrv(b, K), c**2 * tsrv(a, K)),
            (wtsrv(b, K), c**2 * wtsrv(a, K)),
            (quarticity(b), c**4 * quarticity(a)),
            (noise_moments(b).m2_hat, c**2 * noise_moments(a).m2_hat),
            (noise_moments(b).q4_hat, c**4 * noise_moments(a).q4_hat),
            (noise_moments(b).eta_hat, c**4 * noise_moments(a).eta_hat),
        ]
        worst = max(abs(x - y) / max(abs(y), 1e-300) for x, y in checks)
        ok = worst <= 1e-10
        report(11, "scaling covariance table", ok,
               f"worst rel dev={worst:.2e}, tol 1e-10")

    def test_definitional_oracles_1000_instances(self):
        rng = np.random.default_rng(12345)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(8, 51))
            prices = rng.standard_normal(n + 1) * 10.0 ** rng.integers(-5, 2)
            s = make_series(prices)
            for K in range(1, n // 2 + 1):
                got = avg_rv(s, K)
                want = (realized_variance(s) if K == 1
                        else avg_rv_by_definition(prices, K))
                worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
            for K in range(2, n):
                got = modified_rv(s, K)
                want = modified_rv_by_definition(prices, K)
                worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
        ok = worst <= 1e-12
        report(11, "definitional oracle equivalence (1000 instances)", ok,
               f"worst rel dev={worst:.2e}, tol 1e-12")

    def test_seed_and_thread_determinism(self):
        cfg = SimConfig(days=1, avg_dt_seconds=20.0, seed=9)
        s1, t1 = simulate_observed(cfg)
        s2, t2 = simulate_observed(cfg)
        same_sim = (np.array_equal(s1.prices, s2.prices)
                    and np.array_equal(s1.times, s2.times)
                    and t1.iv == t2.iv)
        spec1 = StudySpec(reps=6, scenario="custom", config=cfg,
                          tests=("N", "Vbar"), base_seed=3, threads=1)
        spec2 = StudySpec(reps=6, scenario="custom", config=cfg,
                          tests=("N", "Vbar"), base_seed=3, threads=2)
        a, b = run_study(spec1), run_study(spec2)
        same_study = all(np.array_equal(a.stats[k], b.stats[k])
                         for k in ("N", "Vbar"))
        ok = same_sim and same_study
        report(11, "seed and thread-count determinism", ok,
               f"seed-identical={same_sim}, thread-identical={same_study}")
