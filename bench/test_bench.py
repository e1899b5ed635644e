"""The benchmark's own tests: each check rejects a wrong value, and the
tracer reports missing functions and counts at layer boundaries.

    python3 -m pytest -q bench/test_bench.py
"""

import math
import os
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import hfnoise as hf  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads as wk  # noqa: E402


@pytest.fixture(scope="module")
def day():
    """A short Poisson-sampled U-shape day (n about 4700) and its results
    at the default steps."""
    series, truth = hf.simulate_observed(hf.SimConfig(
        days=1, avg_dt_seconds=5.0, noise_kind="ushape", seed=3))
    reports = [hf.run_test(series, kind) for kind in wk.TESTS]
    return series, truth, reports


def failures(fn, *args):
    chk = wk.Checker()
    fn(chk, *args)
    return chk.failures


def test_statistics_pass_and_each_rejects_1e6_relative(day):
    series, _, reports = day
    assert failures(wk.check_tests, "day", series, reports) == []
    for i, r in enumerate(reports):
        bad = list(reports)
        bad[i] = replace(r, statistic=r.statistic * (1 + 1e-6))
        got = failures(wk.check_tests, "day", series, bad)
        assert any(f"day {r.kind}:" in f for f in got), got


def test_lower_tail_p_value_rejected(day):
    series, _, reports = day
    bad = [replace(r, p_value=1.0 - r.p_value) for r in reports]
    got = failures(wk.check_tests, "day", series, bad)
    assert sum("p-value" in f for f in got) == len(reports), got


def test_underflowed_p_value_is_not_compared():
    chk = wk.Checker()
    chk.p_value("big", 40.0, 0.0)
    assert chk.failures == []


def test_liquidity_estimate_and_stderr_rejected(day):
    series, _, _ = day
    rep = hf.liquidity_report(series)
    assert failures(wk.check_liquidity, "day", series, rep) == []
    for field in ("gg_hat", "gamma_hat"):
        bad = replace(rep, **{field: getattr(rep, field) * (1 + 1e-6)})
        got = failures(wk.check_liquidity, "day", series, bad)
        assert any(field in f for f in got), got


def test_regression_pairs_and_ols_rejected(day):
    series, _, _ = day
    pairs = hf.block_estimates(series, 600)
    assert failures(wk.check_pairs, "day", series, pairs, 600) == []
    bad = pairs.copy()
    bad[2, 1] *= 1 + 1e-6
    assert failures(wk.check_pairs, "day", series, bad, 600)
    reg = hf.ols(pairs)
    assert failures(wk.check_ols, "ols", pairs.tolist(), reg) == []
    bad_reg = replace(reg, beta_hat=reg.beta_hat * (1 + 1e-6))
    assert failures(wk.check_ols, "ols", pairs.tolist(), bad_reg)


def test_round_trip_rejects_moved_prices(day):
    series, _, _ = day
    assert failures(wk.check_round_trip, "day", series, series) == []
    moved = hf.TickSeries(series.times, series.prices + 1e-11)
    assert failures(wk.check_round_trip, "day", moved, series)


def test_affine_check_rejects_a_scale_dependent_statistic(day):
    series, _, reports = day
    assert failures(wk.check_affine, "day", series, reports, 2.5, -1.2) == []
    bad = [replace(r, statistic=r.statistic * 2.5) for r in reports]
    assert failures(wk.check_affine, "day", series, bad, 2.5, -1.2)


def _fake_round(alt_z, null_z, reps=wk.MonteCarlo.REPS, n=23_400):
    def side(z):
        z = np.full(reps, float(z))
        p = np.array([oracle.upper_p(x) for x in z])
        return SimpleNamespace(n=np.full(reps, n), stats={"V": z, "Vbar": z},
                               pvals={"V": p, "Vbar": p})
    alt, null = side(alt_z), side(null_z)
    roc = {k: hf.roc_points(null.stats[k], alt.stats[k]) for k in ("V", "Vbar")}
    return wk.Round(outputs=[{"alt": alt, "null": null, "roc": roc}])


def mc_failures(rounds):
    chk = wk.Checker()
    wk.MonteCarlo(0, None).check(rounds, chk)
    return chk.failures


def test_mc_checks_pass_on_a_powerful_calibrated_test():
    assert mc_failures([_fake_round(10.0, 0.0)] * 4) == []


def test_mc_rejects_a_V_that_never_rejects():
    got = mc_failures([_fake_round(0.0, 0.0)] * 4)
    assert any("V power" in f for f in got), got


def test_mc_rejects_an_oversized_null():
    got = mc_failures([_fake_round(10.0, 3.0)] * 4)
    assert any("null rejection" in f for f in got), got


def test_mc_rejects_n_outside_the_poisson_range():
    got = mc_failures([_fake_round(10.0, 0.0, n=20_000)] * 4)
    assert any("Poisson range" in f for f in got), got


def test_mc_rejects_decreasing_roc_power():
    rnd = _fake_round(10.0, 0.0)
    rnd.outputs[0]["roc"]["V"][:, 1] = np.linspace(1.0, 0.0, 53)
    got = mc_failures([rnd] * 4)
    assert any("non-decreasing" in f for f in got), got


def replace_ns(ns, **kw):
    return SimpleNamespace(**{**vars(ns), **kw})


def test_month_truth_checks_reject_wrong_estimates():
    truth = SimpleNamespace(qv=0.01, gg=1e-9)
    liq = SimpleNamespace(gg_hat=1.1e-9, gamma_hat=1e-10, ci_low=0.9e-9,
                          ci_high=1.3e-9)
    wl = wk.MonthScan(0, None)
    assert failures(wl.check_truth, "custom_g", liq, 0.011, truth) == []
    assert failures(wl.check_truth, "ushape", liq, 0.02, truth)
    far = replace_ns(liq, gg_hat=2e-9)
    assert len(failures(wl.check_truth, "custom_g", far, 0.011, truth)) == 2


def test_oracle_modified_rv_is_half_the_two_ranges():
    p = [0.0, 1.0, 3.0, 6.0, 10.0, 15.0]  # increments 1..5
    lo, hi = oracle.modified_rv_ranges(p, 2)
    assert (lo, hi) == (4 + 9 + 16, 9 + 16 + 25)
    assert oracle.modified_rv(p, 2) == 0.5 * (lo + hi)


def test_oracle_default_K_matches_the_program():
    for n in (500, 4_680, 23_400, 702_000):
        assert oracle.default_K(n) == hf.default_K(n)


def test_tracer_reports_absent_names_and_restores(monkeypatch):
    listed = tracer.FUNCTIONS + [("stationarity", "no_such_test", "all"),
                                 ("no_such_module", "f", "all")]
    monkeypatch.setattr(tracer, "FUNCTIONS", listed)
    original = hf.stationarity._TESTS["V"]
    t = tracer.Tracer()
    t.install()
    try:
        assert hf.stationarity._TESTS["V"].__wrapped__ is original
        assert hf.run_test.__wrapped__ is hf.stationarity.run_test.__wrapped__
    finally:
        t.uninstall()
    assert t.absent == ["stationarity.no_such_test", "no_such_module.f"]
    assert hf.stationarity._TESTS["V"] is original
    assert not hasattr(hf.run_test, "__wrapped__")
    assert hf.stationarity.noise_moments is hf.estimators.noise_moments


def test_tracer_counts_and_self_time(day):
    series, _, _ = day
    t = tracer.Tracer()
    t.install()
    try:
        rep = hf.run_test(series, "V")
        hf.block_estimates(series, 600)
    finally:
        t.uninstall()
    assert t.counts["stationarity.local_terms"] == \
        wk.expect_local_terms(series.n) == rep.intermediates["local_terms"]
    assert t.counts["regress.blocks"] == series.n // 600
    times = t.self_times()
    total = sum(s for s, _ in times.values())
    top = sum(end - start for _, start, end, parent, _ in t.spans
              if parent < 0)
    assert math.isclose(total, top, rel_tol=1e-9)
    assert times["stationarity.window_test"][1] == 1
    assert times["estimators.noise_moments"][1] == 1
