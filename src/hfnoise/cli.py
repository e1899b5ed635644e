"""Command-line front end.

Subcommands: ``simulate``, ``test``, ``mc``, ``liquidity``, ``regress``.
Outputs are plain CSV and ``key=value`` summaries so plots can be produced
by external tooling.  Every command is deterministic given its flags and
seed; ``--threads`` never changes an emitted number.  Errors print one
machine-parsable line to stderr and exit nonzero.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .errors import HFNoiseError
from .liquidity import liquidity_report
from .mc import (NULL_OF, StudySpec, density_table, run_paired_roc, run_study)
from .regress import block_estimates, ols
from .simulate import (SimConfig, _parse_assignment, config_from_file,
                       simulate_observed)
from .stationarity import _TESTS, _check_kinds, run_test
from .ticks import DAYS_PER_YEAR, SECONDS_PER_DAY, load_csv, write_csv


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _build_config(args) -> SimConfig:
    if getattr(args, "config", None):
        cfg = config_from_file(args.config)
    else:
        cfg = SimConfig()
    overrides = {}
    if getattr(args, "days", None) is not None:
        overrides["days"] = args.days
    if getattr(args, "noise", None) is not None:
        overrides["noise_kind"] = args.noise
    if getattr(args, "avg_dt", None) is not None:
        overrides["avg_dt_seconds"] = args.avg_dt
    if args.seed is not None:
        overrides["seed"] = args.seed
    overrides.update(map(_parse_assignment, getattr(args, "set", None) or []))
    return replace(cfg, **overrides)


def _load_series(args, path=None):
    return load_csv(path or args.input, time_unit=args.time_unit,
                    price_scale=args.price_scale)


def cmd_simulate(args) -> int:
    cfg = _build_config(args)
    series, truth = simulate_observed(cfg)
    out = args.out or "sim"
    write_csv(series, out + ".csv", time_unit=args.time_unit,
              price_scale=args.price_scale)
    with open(out + ".truth", "w", encoding="utf-8") as fh:
        fh.write(f"iv={_fmt(truth.iv)}\n")
        fh.write(f"iq={_fmt(truth.iq)}\n")
        fh.write(f"gg={_fmt(truth.gg)}\n")
    print(f"n={series.n} iv={_fmt(truth.iv)} gg={_fmt(truth.gg)} "
          f"-> {out}.csv, {out}.truth")
    return 0


def _kinds(tests, default) -> tuple:
    # the comma list of --tests, each item stripped
    return tuple(k.strip() for k in tests.split(",")) if tests else default


def cmd_test(args) -> int:
    kinds = _kinds(args.tests, tuple(_TESTS))
    _check_kinds(kinds)
    series = _load_series(args)
    rows = [run_test(series, kind, K=args.K, window=args.s) for kind in kinds]
    header = (f"{'kind':8}{'K':>8}{'s':>6}{'statistic':>16}{'p_value':>14}"
              f"{'log_p':>14}  degenerate")
    print(header)
    for rep in rows:
        s = "" if rep.s is None else str(rep.s)
        print(f"{rep.kind:8}{rep.K:>8}{s:>6}{rep.statistic:>16.6g}"
              f"{rep.p_value:>14.6g}{rep.log_p:>14.6g}  "
              f"{str(rep.degenerate).lower()}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("kind,K,s,n,statistic,p_value,degenerate,log_p\n")
            for rep in rows:
                s = "" if rep.s is None else rep.s
                fh.write(f"{rep.kind},{rep.K},{s},{rep.n},"
                         f"{_fmt(rep.statistic)},{_fmt(rep.p_value)},"
                         f"{int(rep.degenerate)},{_fmt(rep.log_p)}\n")
    return 0


def _write_stats_csv(path, result, kinds):
    with open(path, "w", encoding="utf-8") as fh:
        cols = ["rep", "n"]
        for kind in kinds:
            cols += [f"stat_{kind}", f"p_{kind}"]
        fh.write(",".join(cols) + "\n")
        for i in range(len(result.n)):
            row = [str(i), str(int(result.n[i]))]
            for kind in kinds:
                row += [_fmt(result.stats[kind][i]),
                        _fmt(result.pvals[kind][i])]
            fh.write(",".join(row) + "\n")


def cmd_mc(args) -> int:
    kinds = _kinds(args.tests, ("N",))
    cfg = _build_config(args) if (args.config or args.set) else None
    spec = StudySpec(reps=args.reps, scenario=args.scenario, tests=kinds,
                     alpha_level=args.alpha, base_seed=args.seed or 0,
                     config=cfg, K=args.K, window=args.s,
                     threads=args.threads)
    out = args.out or "mc_out"
    os.makedirs(out, exist_ok=True)

    if spec.scenario in NULL_OF:
        bundle = run_paired_roc(spec)
        result = bundle["alt"]
        for kind in kinds:
            np.savetxt(os.path.join(out, f"roc_{kind}.csv"),
                       bundle["roc"][kind], delimiter=",",
                       header="level,power", comments="", fmt="%.17g")
        _write_stats_csv(os.path.join(out, "null_stats.csv"),
                         bundle["null"], kinds)
    else:
        result = run_study(spec)

    _write_stats_csv(os.path.join(out, "stats.csv"), result, kinds)
    for kind in kinds:
        np.savetxt(os.path.join(out, f"density_{kind}.csv"),
                   density_table(result.stats[kind]), delimiter=",",
                   header="center,density,normal_pdf", comments="",
                   fmt="%.17g")
    with open(os.path.join(out, "rejection.txt"), "w", encoding="utf-8") as fh:
        for kind in kinds:
            rate = result.rejection_rate(kind)
            fh.write(f"reject_{kind}@{spec.alpha_level}={_fmt(rate)}\n")
            print(f"reject_{kind}@{spec.alpha_level}={_fmt(rate)}")
    print(f"artifacts -> {out}/")
    return 0


def cmd_liquidity(args) -> int:
    series = _load_series(args)
    rep = liquidity_report(series, K=args.K, span=args.l)
    for key in ("gg_hat", "gamma_hat", "ci_low", "ci_high", "K", "l", "r"):
        print(f"{key}={_fmt(getattr(rep, key))}")
    if rep.note:
        print(f"note={rep.note}")
    return 0


def _default_block_m(series) -> int:
    # one block ~ 10 minutes of ticks, capped so at least 3 blocks fit
    span_days = (series.times[-1] - series.times[0]) * DAYS_PER_YEAR
    ticks_per_day = series.n / max(span_days, 1e-12)
    m = max(64, int(ticks_per_day * 600.0 / SECONDS_PER_DAY))
    return min(m, max(64, series.n // 3))


def cmd_regress(args) -> int:
    all_pairs = []
    for path in args.inputs:
        series = _load_series(args, path)
        m = args.m if args.m is not None else _default_block_m(series)
        all_pairs.append(block_estimates(series, m))
    pairs = np.vstack(all_pairs)
    report = ols(pairs, log_log=args.log_log)
    if args.out:
        np.savetxt(args.out, pairs, delimiter=",",
                   header="t_start,sigma2_hat,g_hat", comments="",
                   fmt="%.17g")
    print(f"beta_hat={_fmt(report.beta_hat)}")
    print(f"alpha_hat={_fmt(report.alpha_hat)}")
    print(f"r_squared={_fmt(report.r_squared)}")
    print(f"pairs={len(pairs)}")
    print(f"dropped={report.dropped}")
    return 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hfnoise",
        description="Volatility estimation and noise-stationarity tests "
                    "for high-frequency tick data.")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--time-unit", choices=("yr", "sec"), default="yr")
    ap.add_argument("--price-scale", choices=("log", "raw"), default="log")
    ap.add_argument("--out", default=None)
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate one observed tick series")
    sim.add_argument("--days", type=int, default=None)
    sim.add_argument("--noise", choices=("stationary", "ushape", "custom_g",
                                         "linear_g"), default=None)
    sim.add_argument("--avg-dt", type=float, default=None)
    sim.add_argument("--config", default=None)
    sim.add_argument("--set", action="append", metavar="KEY=VALUE")
    sim.set_defaults(fn=cmd_simulate)

    tst = sub.add_parser("test", help="run stationarity tests on a CSV")
    tst.add_argument("--input", required=True)
    tst.add_argument("--tests", default=None,
                     help="comma list from N,V,Vprime,Vbar (default: all)")
    tst.add_argument("--K", type=int, default=None)
    tst.add_argument("--s", type=int, default=None)
    tst.set_defaults(fn=cmd_test)

    mc = sub.add_parser("mc", help="Monte Carlo study")
    mc.add_argument("--scenario", default="null_1d")
    mc.add_argument("--reps", type=int, required=True)
    mc.add_argument("--tests", default="N")
    mc.add_argument("--alpha", type=float, default=0.05)
    mc.add_argument("--K", type=int, default=None)
    mc.add_argument("--s", type=int, default=None)
    mc.add_argument("--config", default=None)
    mc.add_argument("--set", action="append", metavar="KEY=VALUE")
    mc.set_defaults(fn=cmd_mc)

    liq = sub.add_parser("liquidity", help="aggregate liquidity risk report")
    liq.add_argument("--input", required=True)
    liq.add_argument("--K", type=int, default=None)
    liq.add_argument("--l", type=int, default=None)
    liq.set_defaults(fn=cmd_liquidity)

    reg = sub.add_parser("regress", help="noise-variance on volatility OLS")
    reg.add_argument("inputs", nargs="+")
    reg.add_argument("--m", type=int, default=None)
    reg.add_argument("--log-log", action="store_true")
    reg.set_defaults(fn=cmd_regress)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (HFNoiseError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
