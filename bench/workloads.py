"""The three workloads: set-up, one round of timed operations, and checks.

A round is the unit a run repeats until its time is up, so every run
attempts whole rounds and the share of failed operations is the same in
every run.  An operation is one Monte Carlo rep, one day file or one month
series.  Each workload calls hfnoise only through the package's public
names, looked up at call time so that the tracer's wrappers are seen.

Checks run after the timed phase and compare the program with
:mod:`oracle`, with the simulator's ground truth and with itself (every
round of the same inputs must give the same bits).  ``expect`` collects
the counts the tracer must see, computed from the generated inputs.
"""

import math
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

import hfnoise as hf
import oracle

TESTS = ("N", "V", "Vprime", "Vbar")
A0 = 5e-3
SECONDS_PER_DAY = 23_400
REL_TOL = 1e-9          # program vs oracle, relative
AFFINE_TOL = 1e-8       # statistics under prices -> c * prices + b
TINY = sys.float_info.min


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    op_seconds: list = field(default_factory=list)  # completed operations
    outputs: list = field(default_factory=list)
    fingerprint: tuple = ()


def rel_dev(got, want):
    got, want = float(got), float(want)
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(want), abs(got), TINY)


class Checker:
    """Collects failed checks as readable lines."""

    def __init__(self):
        self.failures = []
        self.done = 0

    def close(self, what, got, want, tol=REL_TOL):
        self.done += 1
        dev = rel_dev(got, want)
        if not dev <= tol:
            self.failures.append(f"{what}: got {got!r}, want {want!r} "
                                 f"(rel dev {dev:.2e} > {tol:g})")

    def true(self, what, ok, detail=""):
        self.done += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)

    def p_value(self, what, statistic, p):
        """A finite p-value must be the upper tail 1/2 erfc(z / sqrt 2)
        wherever that is a normal float (it underflows for z > ~37.5)."""
        want = oracle.upper_p(statistic)
        if math.isfinite(p) and want >= TINY:
            self.close(f"{what} p-value", p, want)


def report_key(report):
    return (report.kind, report.statistic, report.p_value, report.K,
            report.s, report.degenerate)


def liquidity_key(rep):
    return (rep.gg_hat, rep.gamma_hat, rep.ci_low, rep.ci_high, rep.K, rep.l)


def check_tests(chk, what, series, reports):
    """The four statistics and p-values against the oracle, at the
    default steps and windows the test docstrings give."""
    n = series.n
    by_kind = {r.kind: r for r in reports}
    chk.true(f"{what} kinds", sorted(by_kind) == sorted(TESTS),
             f"got {sorted(by_kind)}")
    if sorted(by_kind) != sorted(TESTS):
        return
    kv = oracle.window_K(n)
    s = oracle.default_window(n, kv)
    rn = by_kind["N"]
    chk.true(f"{what} N step", rn.K == oracle.default_K(n),
             f"K={rn.K}, want {oracle.default_K(n)}")
    for kind in ("V", "Vprime", "Vbar"):
        chk.true(f"{what} {kind} step", by_kind[kind].K == kv,
                 f"K={by_kind[kind].K}, want {kv}")
    for kind in ("V", "Vprime"):
        chk.true(f"{what} {kind} window", by_kind[kind].s == s,
                 f"s={by_kind[kind].s}, want {s}")
    for r in reports:
        chk.true(f"{what} {r.kind} not degenerate", not r.degenerate)
    nm = oracle.noise_moments(series.prices)
    chk.close(f"{what} N", rn.statistic, oracle.n_stat(series, rn.K, nm))
    chk.close(f"{what} V", by_kind["V"].statistic,
              oracle.v_stat(series, kv, s, nm))
    chk.close(f"{what} Vprime", by_kind["Vprime"].statistic,
              oracle.vprime_stat(series, kv, s, nm))
    chk.close(f"{what} Vbar", by_kind["Vbar"].statistic,
              oracle.vbar_stat(series, kv, nm))
    for r in reports:
        chk.p_value(f"{what} {r.kind}", r.statistic, r.p_value)


def liquidity_K(n):
    return max(3, int(float(n) ** 0.62))


def check_liquidity(chk, what, series, rep):
    n = series.n
    K = liquidity_K(n)
    span = max(1, int(math.sqrt(n / K)))
    chk.true(f"{what} liquidity K and span", (rep.K, rep.l) == (K, span),
             f"got ({rep.K}, {rep.l}), want ({K}, {span})")
    chk.close(f"{what} gg_hat", rep.gg_hat, oracle.noise_qv(series.prices, K))
    chk.close(f"{what} gamma_hat", rep.gamma_hat,
              oracle.noise_qv_stderr(series.prices, K, span))


def check_pairs(chk, what, series, pairs, m):
    want = oracle.regression_pairs(series, m)
    chk.true(f"{what} pair count", len(pairs) == len(want),
             f"{len(pairs)} rows, want {len(want)}")
    if len(pairs) != len(want):
        return
    worst = [0.0, 0.0, 0.0]
    for row, ref in zip(np.asarray(pairs).tolist(), want):
        for c in range(3):
            worst[c] = max(worst[c], rel_dev(row[c], ref[c]))
    for c, col in enumerate(("start time", "sigma2_hat", "g_hat")):
        chk.true(f"{what} pairs {col}", worst[c] <= REL_TOL,
                 f"worst rel dev {worst[c]:.2e} > {REL_TOL:g}")


def check_ols(chk, what, pairs, report):
    beta, alpha = oracle.ols([r[1] for r in pairs], [r[2] for r in pairs])
    chk.close(f"{what} beta_hat", report.beta_hat, beta)
    chk.close(f"{what} alpha_hat", report.alpha_hat, alpha)


def check_round_trip(chk, what, loaded, sim):
    """A loaded file holds the series it was written from: times within
    4 ulps (seconds were divided back into years) and log prices within
    1e-12."""
    chk.true(f"{what} tick count", len(loaded.times) == len(sim.times),
             f"{len(loaded.times)} vs {len(sim.times)}")
    if len(loaded.times) != len(sim.times):
        return
    ulps = np.abs(loaded.times - sim.times) / np.spacing(sim.times)
    chk.true(f"{what} times round-trip", float(ulps.max()) <= 4.0,
             f"{float(ulps.max()):.1f} ulps")
    dp = float(np.max(np.abs(loaded.prices - sim.prices)))
    chk.true(f"{what} log prices round-trip", dp <= 1e-12,
             f"max abs dev {dp:.2e}")


def check_affine(chk, what, series, reports, c, b):
    """Each statistic is unchanged when prices become c * prices + b."""
    other = hf.TickSeries(series.times, c * series.prices + b)
    for r in reports:
        moved = hf.run_test(other, r.kind, K=r.K, window=r.s)
        chk.close(f"{what} {r.kind} under prices*{c}{b:+}",
                  moved.statistic, r.statistic, AFFINE_TOL)


def expect_local_terms(n):
    K = oracle.window_K(n)
    return n // K - oracle.default_window(n, K) + 1


def warm_up(tmpdir, expect):
    """Call every traced function once on small fixed inputs, so lazy
    imports and first-call costs fall into set-up, not the timed phase."""
    series, _ = hf.simulate_observed(hf.SimConfig(days=1, avg_dt_seconds=10.0,
                                                  seed=1))
    path = os.path.join(tmpdir, "warm_up.csv")
    hf.write_csv(series, path, time_unit="sec", price_scale="raw")
    loaded = hf.load_csv(path, time_unit="sec", price_scale="raw")
    expect["ticks.load_csv.rows"] += len(series.times)
    for kind in TESTS:
        hf.run_test(loaded, kind)
    expect["stationarity.local_terms"] += expect_local_terms(loaded.n)
    hf.wtsrv(loaded, hf.default_K(loaded.n))
    hf.liquidity_report(loaded)
    hf.fit_blocks(loaded, 300)
    expect["regress.blocks"] += loaded.n // 300
    roc = hf.run_paired_roc(hf.StudySpec(reps=1, scenario="ushape_1d",
                                         tests=("V", "Vbar")))
    for side in ("alt", "null"):
        for n in roc[side].n.tolist():
            expect["stationarity.local_terms"] += expect_local_terms(n)


class Workload:
    name = ""
    # the end-to-end figure under the workload's own name, and the generic
    # metric it equals
    headline = ("", "")
    min_rounds = 1       # rounds every run completes, however short
    traced_rounds = 1    # rounds repeated under the tracer
    same_inputs_each_round = True

    def __init__(self, seed, tmpdir):
        self.seed = seed
        self.tmpdir = tmpdir
        self.expect = Counter()
        self.notes = []  # extra header lines


# --- mc_ushape_5d ----------------------------------------------------------

class MonteCarlo(Workload):
    """``run_paired_roc`` on ``ushape_5d`` (and its null ``null_5d``) with
    tests V and Vbar, single process.  A round is one paired study of
    ``REPS`` reps a side; rounds use disjoint base seeds."""

    name = "mc_ushape_5d"
    headline = ("mc_reps_per_s", "ops_per_s")
    REPS = 4                # short rounds: their median shrugs off a slow one
    min_rounds = 8          # >= 32 reps a side for the power/size checks
    traced_rounds = 1
    same_inputs_each_round = False
    POWER_FLOOR = 0.5       # measured power at 5% is 0.9-1.0 (criterion 4)
    NULL_CEILING = 0.35     # true size <= 0.07 (criterion 3)
    POISSON_SIGMAS = 7.0

    WARM_UP_SEED = 1 << 40  # disjoint from every round's base seed

    def setup(self):
        warm_up(self.tmpdir, self.expect)
        # the first few five-day reps of a process run slower; take them here
        self.study(self.WARM_UP_SEED, 2)

    def base_seed(self, j):
        # rep i runs seed base ^ i; multiples of REPS keep rounds disjoint
        return self.REPS * (self.seed * 100_000 + j)

    def study(self, base_seed, reps):
        out = hf.run_paired_roc(hf.StudySpec(
            reps=reps, scenario="ushape_5d", tests=("V", "Vbar"),
            base_seed=base_seed, threads=1))
        for side in ("alt", "null"):
            for n in out[side].n.tolist():
                self.expect["stationarity.local_terms"] += expect_local_terms(n)
        return out

    def run_round(self, j, on_op=None):
        t = time.perf_counter()
        out = self.study(self.base_seed(j), self.REPS)
        dt = time.perf_counter() - t
        reps = 2 * self.REPS
        fp = tuple(np.asarray(a).tobytes() for side in ("alt", "null")
                   for a in (out[side].n, out[side].stats["V"],
                             out[side].stats["Vbar"], out[side].pvals["V"],
                             out[side].pvals["Vbar"])) + tuple(
            out["roc"][k].tobytes() for k in ("V", "Vbar"))
        # one call runs all reps: each rep is credited the round's mean time
        return Round(attempted=reps, failed=0, op_seconds=[dt / reps] * reps,
                     outputs=[out], fingerprint=fp)

    def check(self, rounds, chk):
        lam = 5 * SECONDS_PER_DAY / 5.0
        lo = lam - self.POISSON_SIGMAS * math.sqrt(lam)
        hi = lam + self.POISSON_SIGMAS * math.sqrt(lam)
        pooled = {(side, k): [] for side in ("alt", "null")
                  for k in ("V", "Vbar")}
        for j, rnd in enumerate(rounds):
            out = rnd.outputs[0]
            for side in ("alt", "null"):
                res = out[side]
                ns = res.n.tolist()
                chk.true(f"round {j} {side} rep count",
                         len(ns) == self.REPS, f"{len(ns)} reps")
                chk.true(f"round {j} {side} n in Poisson range",
                         all(lo <= n <= hi for n in ns),
                         f"n={ns}, range [{lo:.0f}, {hi:.0f}]")
                for k in ("V", "Vbar"):
                    pooled[(side, k)].extend(res.pvals[k].tolist())
                    for z, p in zip(res.stats[k].tolist(),
                                    res.pvals[k].tolist()):
                        chk.p_value(f"round {j} {side} {k}", z, p)
            for k in ("V", "Vbar"):
                roc = out["roc"][k]
                chk.true(f"round {j} ROC {k} levels increase",
                         bool(np.all(np.diff(roc[:, 0]) > 0)))
                chk.true(f"round {j} ROC {k} power non-decreasing",
                         bool(np.all(np.diff(roc[:, 1]) >= 0)),
                         f"power {roc[:, 1].tolist()}")
        for k in ("V", "Vbar"):
            power = float(np.mean(np.array(pooled[("alt", k)]) < 0.05))
            size = float(np.mean(np.array(pooled[("null", k)]) < 0.05))
            reps = len(pooled[("alt", k)])
            chk.true(f"{k} power at 5% over {reps} reps",
                     power >= self.POWER_FLOOR,
                     f"{power:.3f} < {self.POWER_FLOOR}")
            chk.true(f"{k} null rejection at 5% over {reps} reps",
                     size <= self.NULL_CEILING,
                     f"{size:.3f} > {self.NULL_CEILING}")
            self.notes.append(f"{k}: power@5%={power:.3f} "
                              f"null@5%={size:.3f} over {reps} reps a side")



# --- desk_day --------------------------------------------------------------

def with_noise_path(cfg):
    """The noise-variance diffusion of acceptance criterion 9: mean a0^2,
    mean reversion at 6% of the liquidity blocks (n^0.62 ticks) per unit
    time, stationary sd 0.55 a0^2, so its true QV is known and nonzero."""
    n = cfg.days * SECONDS_PER_DAY
    r = n // int(n ** 0.62)
    theta = A0 ** 2
    kappa = 0.06 * r / (cfg.days / 252.0)
    return replace(cfg, g0=theta, g_theta=theta, g_kappa=kappa,
                   g_vol=0.55 * theta * math.sqrt(2.0 * kappa), g_floor=5e-7)


def day_config(kind, seed):
    """One trading day, Poisson sampling at 1 s mean spacing."""
    cfg = hf.SimConfig(days=1, avg_dt_seconds=1.0, noise_kind=kind, seed=seed)
    if kind == "custom_g":
        cfg = with_noise_path(cfg)
    elif kind == "linear_g":
        # the volatility-linked noise of acceptance criterion 10
        cfg = replace(cfg, g_beta=0.05 * A0 ** 2 / 0.16,
                      g_alpha=0.5 * A0 ** 2, delta=1.2, lambda_v=100.0,
                      theta_v=-1.0, nu_v=0.25)
    return cfg


class DeskDay(Workload):
    """A universe of one-day tick files scanned as a desk would: load, four
    tests, liquidity report and 10-minute block estimates per file, then
    one OLS over the pooled pairs.  A round is one pass over the files."""

    name = "desk_day"
    headline = ("desk_files_per_s", "ops_per_s")
    KINDS = ("stationary", "ushape", "custom_g", "linear_g")
    FILES = 8
    BOM_FILES = (7,)         # one file in eight, as spreadsheet exports
    CRLF_FILES = (1, 3, 5, 7)
    BOM_SEED = 7             # the failing file does not depend on --seed
    BLOCK_M = 600            # 10 minutes at 1 s mean spacing
    AFFINE = (2.5, -1.2)
    min_rounds = 2
    traced_rounds = 2

    def setup(self):
        warm_up(self.tmpdir, self.expect)
        self.paths, self.sims = [], []
        for i in range(self.FILES):
            bom = i in self.BOM_FILES
            seed = self.BOM_SEED if bom else self.seed * 1000 + i
            series, _ = hf.simulate_observed(
                day_config(self.KINDS[i % len(self.KINDS)], seed))
            path = os.path.join(self.tmpdir, f"day{i}.csv")
            newline = "\r\n" if i in self.CRLF_FILES else "\n"
            with open(path, "w", encoding="utf-8-sig" if bom else "utf-8",
                      newline=newline) as fh:
                hf.write_csv(series, fh, time_unit="sec", price_scale="raw")
            self.paths.append(path)
            self.sims.append(series)

    def run_round(self, j, on_op=None):
        rnd = Round()
        all_pairs = []
        files = []
        for i, path in enumerate(self.paths):
            if on_op:
                on_op()
            rnd.attempted += 1
            t = time.perf_counter()
            try:
                series = hf.load_csv(path, time_unit="sec", price_scale="raw")
            except hf.HFNoiseError as exc:
                rnd.failed += 1
                files.append((i, None, repr(exc)))
                continue
            reports = [hf.run_test(series, kind) for kind in TESTS]
            liq = hf.liquidity_report(series)
            pairs = hf.block_estimates(series, self.BLOCK_M)
            rnd.op_seconds.append(time.perf_counter() - t)
            all_pairs.append(pairs)
            files.append((i, series, (reports, liq, pairs)))
            self.expect["ticks.load_csv.rows"] += len(self.sims[i].times)
            self.expect["stationarity.local_terms"] += \
                expect_local_terms(series.n)
            self.expect["regress.blocks"] += series.n // self.BLOCK_M
        pooled = np.vstack(all_pairs)
        reg = hf.ols(pooled)
        rnd.outputs = [files, pooled, reg]
        rnd.fingerprint = tuple(
            (i, out) if s is None else
            (i, tuple(report_key(r) for r in out[0]), liquidity_key(out[1]),
             out[2].tobytes())
            for i, s, out in files) + ((reg.beta_hat, reg.alpha_hat),)
        return rnd

    def check(self, rounds, chk):
        files, pooled, reg = rounds[0].outputs
        for j, rnd in enumerate(rounds):
            chk.true(f"round {j} same output as round 0",
                     rnd.fingerprint == rounds[0].fingerprint)
        failed = [i for i, s, _ in files if s is None]
        chk.true("only BOM files fail to load",
                 set(failed) <= set(self.BOM_FILES),
                 "; ".join(f"day{i}: {out}" for i, s, out in files
                           if s is None))
        for i, series, out in files:
            if series is None:
                continue
            what = f"day{i}"
            check_round_trip(chk, what, series, self.sims[i])
            reports, liq, pairs = out
            check_tests(chk, what, series, reports)
            check_liquidity(chk, what, series, liq)
            check_pairs(chk, what, series, pairs, self.BLOCK_M)
        check_ols(chk, "pooled OLS", pooled.tolist(), reg)
        i, series, out = next(f for f in files if f[1] is not None)
        check_affine(chk, f"day{i}", series, out[0], *self.AFFINE)



# --- month_scan ------------------------------------------------------------

def month_config(kind, seed):
    """30 days at a regular 1 s grid (n = 702 000)."""
    cfg = hf.SimConfig(days=30, avg_dt_seconds=1.0, sampling="regular",
                       noise_kind=kind, seed=seed)
    if kind == "custom_g":
        # acceptance criterion 9 also turns the jumps off
        cfg = with_noise_path(replace(cfg, lambda_x=0.0, lambda_v=0.0))
    return cfg


class MonthScan(Workload):
    """Multi-day analysis of three 30-day series held in memory: four tests,
    liquidity report, ``fit_blocks(m=23400)`` and ``wtsrv`` at
    ``default_K`` per series.  A round is one pass over the series."""

    name = "month_scan"
    headline = ("month_scan_s", "op_median_s")
    KINDS = ("custom_g", "ushape", "stationary")
    BLOCK_M = SECONDS_PER_DAY
    # Measured on 110 custom_g seeds: |gg_hat/gg - 1| <= 0.37 and
    # |gg_hat - gg| / gamma_hat <= 3.6, while the 95% interval missed the
    # truth on 9 of them, so it is reported, not checked; on 126 seeds of
    # the three kinds |wtsrv/qv - 1| <= 0.40.  Each bound is about five
    # standard deviations, so a correct program passes on any seed.
    GG_REL = 0.6
    GG_SIGMAS = 6.0
    QV_REL = 0.75
    min_rounds = 1
    traced_rounds = 1

    def setup(self):
        warm_up(self.tmpdir, self.expect)
        self.data = [hf.simulate_observed(month_config(kind,
                                                       self.seed * 10 + k))
                     for k, kind in enumerate(self.KINDS)]

    def run_round(self, j, on_op=None):
        rnd = Round()
        for k, (series, _) in enumerate(self.data):
            if on_op:
                on_op()
            rnd.attempted += 1
            t = time.perf_counter()
            reports = [hf.run_test(series, kind) for kind in TESTS]
            liq = hf.liquidity_report(series)
            fit = hf.fit_blocks(series, self.BLOCK_M)
            w = hf.wtsrv(series, hf.default_K(series.n))
            rnd.op_seconds.append(time.perf_counter() - t)
            rnd.outputs.append((reports, liq, fit, w))
            self.expect["stationarity.local_terms"] += \
                expect_local_terms(series.n)
            self.expect["regress.blocks"] += series.n // self.BLOCK_M
        rnd.fingerprint = tuple(
            (tuple(report_key(r) for r in reports), liquidity_key(liq),
             fit.pairs.tobytes(), fit.beta_hat, fit.alpha_hat, w)
            for reports, liq, fit, w in rnd.outputs)
        return rnd

    def check(self, rounds, chk):
        for j, rnd in enumerate(rounds):
            chk.true(f"round {j} same output as round 0",
                     rnd.fingerprint == rounds[0].fingerprint)
        for k, ((series, truth), out) in enumerate(zip(self.data,
                                                       rounds[0].outputs)):
            kind = self.KINDS[k]
            reports, liq, fit, w = out
            check_tests(chk, kind, series, reports)
            check_liquidity(chk, kind, series, liq)
            check_pairs(chk, kind, series, fit.pairs, self.BLOCK_M)
            check_ols(chk, f"{kind} fit_blocks", fit.pairs.tolist(), fit)
            K = oracle.default_K(series.n)
            chk.close(f"{kind} wtsrv", w, oracle.wtsrv(series.prices, K))
            underflow = [r.kind for r in reports if r.p_value == 0.0]
            self.notes.append(
                f"{kind}: " + " ".join(f"{r.kind}={r.statistic:.4g}"
                                       for r in reports)
                + (f" p-value 0.0: {','.join(underflow)}" if underflow else ""))
            self.check_truth(chk, kind, liq, w, truth)

    def check_truth(self, chk, kind, liq, w, truth):
        """wtsrv near the true QV; on custom_g, gg_hat near the true noise
        QV and the truth inside gg_hat +/- GG_SIGMAS gamma_hat."""
        qv_rel = w / truth.qv - 1.0
        chk.true(f"{kind} wtsrv vs true QV", abs(qv_rel) <= self.QV_REL,
                 f"rel err {qv_rel:+.3f}, bound {self.QV_REL}")
        self.notes.append(f"{kind}: wtsrv/qv-1={qv_rel:+.3f}")
        if kind != "custom_g":
            return
        rel = liq.gg_hat / truth.gg - 1.0
        z = (liq.gg_hat - truth.gg) / liq.gamma_hat
        chk.true("custom_g gg_hat vs true gg", abs(rel) <= self.GG_REL,
                 f"rel err {rel:+.3f}, bound {self.GG_REL}")
        chk.true(f"custom_g true gg within gg_hat +/- {self.GG_SIGMAS:g} "
                 "gamma_hat", abs(z) <= self.GG_SIGMAS, f"z={z:+.2f}")
        self.notes.append(
            f"custom_g: gg_hat/gg-1={rel:+.3f} z={z:+.2f} 95% interval "
            f"covers true gg: {liq.ci_low <= truth.gg <= liq.ci_high}")



WORKLOADS = {w.name: w for w in (MonteCarlo, DeskDay, MonthScan)}
