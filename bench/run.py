"""Benchmark of hfnoise on three workloads; see README.md in this directory.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, runs whole rounds of it for at
least ``--seconds`` seconds in this one process, checks every output, and
prints header lines starting with ``#`` and then, as the last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are per-layer self times and counts from a traced repeat of the first
rounds, plus the tracing overhead.  hfnoise is imported from ``src/`` of
the checkout this file sits in, never from anywhere else.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHECKED_COUNTS = ("ticks.load_csv.rows", "stationarity.local_terms",
                  "regress.blocks")


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_hfnoise():
    sys.path.insert(0, SRC)
    try:
        import hfnoise
    except ImportError as exc:
        fail(f"cannot import hfnoise from {SRC}: {exc}")
    where = os.path.abspath(hfnoise.__file__)
    if not where.startswith(SRC + os.sep):
        fail(f"hfnoise imported from {where}, not from {SRC}")


def git_revision():
    """The commit checked out at ROOT, read from .git without running git;
    'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def backend():
    """numba if it imports, else the pure-Python ``njit`` fallback that
    hfnoise.simulate then runs."""
    try:
        import numba
    except ImportError:
        return "python-fallback (numba not importable)"
    return f"numba {numba.__version__}"


def header(args):
    import numpy
    import scipy
    return [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        f"backend={backend()}",
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} cpus={os.cpu_count()}",
        f"rev={git_revision()}",
    ]


def run_rounds(wl, seconds, min_rounds):
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        rnd = wl.run_round(len(rounds))
        rnd.wall = time.perf_counter() - t
        if rounds and wl.same_inputs_each_round:
            rnd.outputs = []  # the fingerprint stands for a repeat
        rounds.append(rnd)
    return rounds, time.perf_counter() - start


def traced_pass(wl, tracer, rounds):
    """Repeat the first rounds under the tracer; the same inputs must give
    the same outputs, and the counts must match the generated inputs."""
    tracer.install()
    try:
        t = time.perf_counter()
        again = [wl.run_round(j, on_op=tracer.new_operation)
                 for j in range(wl.traced_rounds)]
        traced = time.perf_counter() - t
    finally:
        tracer.uninstall()
    if wl.same_inputs_each_round:
        untraced = wl.traced_rounds * statistics.median(r.wall for r in rounds)
    else:
        untraced = sum(r.wall for r in rounds[:wl.traced_rounds])
    same = all(a.fingerprint == b.fingerprint for a, b in zip(again, rounds))
    return traced, untraced, same


def layer_metrics(tracing, tracer, traced, untraced):
    times = tracer.self_times()
    metrics = {}
    for name in tracer.names():
        self_s, calls = times.get(name, (0.0, 0))
        prefix = tracing.metric_prefix(name)
        metrics[f"{prefix}.self_s"] = {"value": self_s, "unit": "s"}
        metrics[f"{prefix}.calls"] = {"value": calls, "unit": "count"}
    for name in tracing.COUNTERS:
        metrics[name] = {"value": tracer.counts[name], "unit": "count"}
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (traced - untraced) / untraced, "unit": "%"}
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_hfnoise()
    sys.path.insert(0, HERE)
    import tracer as tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")

    os.makedirs(OUT, exist_ok=True)
    tmpdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir)
    try:
        return run(args, workloads, tracing, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def run(args, workloads, tracing, tmpdir):
    wl = workloads.WORKLOADS[args.workload](args.seed, tmpdir)
    for line in header(args):
        print("# " + line)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        wl.setup()
    finally:
        if tracer:
            tracer.uninstall()
    setup_s = time.perf_counter() - T_START
    setup_expect = Counter(wl.expect)

    rounds, timed_s = run_rounds(wl, args.seconds, max(wl.min_rounds,
                                                       wl.traced_rounds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    chk = workloads.Checker()
    if tracer:
        wl.expect = Counter(setup_expect)
        traced, untraced, same = traced_pass(wl, tracer, rounds)
        chk.true("traced rounds give the untraced outputs", same)
        for name in CHECKED_COUNTS:
            chk.true(f"traced count {name}",
                     tracer.counts[name] == wl.expect[name],
                     f"{tracer.counts[name]}, want {wl.expect[name]}")
        if tracer.absent:
            print("# trace: absent " + " ".join(tracer.absent))
        tracer.write(os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    wl.check(rounds, chk)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    # medians over rounds and operations, so one slow round (the first,
    # or one hit by a neighbour on a shared machine) moves them little
    ops_per_s = statistics.median((r.attempted - r.failed) / r.wall
                                  for r in rounds)
    op_median_s = statistics.median(t for r in rounds for t in r.op_seconds)
    print(f"# rounds={len(rounds)} timed_s={timed_s:.3f} "
          f"completed={attempted - failed} failed={failed} round_s="
          + ",".join(f"{r.wall:.3f}" for r in rounds))
    name, generic = wl.headline
    value = ops_per_s if generic == "ops_per_s" else op_median_s
    print(f"# {name}={value:.6g} ({generic})")
    for note in wl.notes:
        print("# " + note)
    for line in chk.failures:
        print("# CHECK FAILED: " + line)
        print("bench: check failed: " + line, file=sys.stderr)
    print(f"# checks={chk.done} failed_checks={len(chk.failures)}")

    if tracer:
        metrics = layer_metrics(tracing, tracer, traced, untraced)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_median_s": {"value": op_median_s, "unit": "s"},
        }
    print(json.dumps({"correct": not chk.failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
