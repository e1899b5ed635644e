"""Monte Carlo study harness: null densities, rejection rates, ROC curves.

A study runs ``reps`` independent simulations (rep ``i`` is seeded with
``base_seed XOR i``), applies the requested stationarity tests and the
two-scale estimators to each path, and aggregates per-rep rows in rep
order.  Reps may run in a process pool; the worker count never changes
any emitted number.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidConfig
from .estimators import _tsrv, _wtsrv, default_K
from .simulate import SimConfig, simulate_observed
from .stationarity import _check_kinds, run_test

SCENARIOS = {
    "null_1d": dict(noise_kind="stationary", days=1, avg_dt_seconds=1.0),
    "null_5d": dict(noise_kind="stationary", days=5, avg_dt_seconds=5.0),
    "ushape_1d": dict(noise_kind="ushape", days=1, avg_dt_seconds=1.0),
    "ushape_5d": dict(noise_kind="ushape", days=5, avg_dt_seconds=5.0),
}

NULL_OF = {"ushape_1d": "null_1d", "ushape_5d": "null_5d"}

ROC_LEVELS = np.concatenate(([0.001, 0.002, 0.005],
                             np.round(np.arange(0.01, 0.505, 0.01), 3)))


@dataclass(frozen=True)
class StudySpec:
    """What to run: scenario, repetition count, tests and seeding."""

    reps: int
    scenario: str = "null_1d"
    tests: tuple = ("N",)
    alpha_level: float = 0.05
    base_seed: int = 0
    config: SimConfig | None = None  # required when scenario == "custom"
    K: int | None = None
    window: int | None = None
    k_scale: float = 1.0  # scale for the two-scale estimator columns' step
    threads: int = 1

    def __post_init__(self):
        if self.reps < 1:
            raise InvalidConfig(f"reps must be >= 1, got {self.reps}")
        if not 0.0 < self.alpha_level < 1.0:
            raise InvalidConfig(f"alpha_level must be in (0,1), "
                                f"got {self.alpha_level}")
        if self.scenario != "custom" and self.scenario not in SCENARIOS:
            raise InvalidConfig(f"unknown scenario {self.scenario!r}")
        if self.scenario == "custom" and self.config is None:
            raise InvalidConfig("scenario 'custom' needs an explicit config")
        if isinstance(self.tests, str):
            raise InvalidConfig(f"tests must be a tuple of kinds, "
                                f"got the string {self.tests!r}")
        _check_kinds(self.tests)


@dataclass
class StudyResult:
    """Per-rep statistics plus estimator/truth columns, in rep order."""

    spec: StudySpec
    n: np.ndarray
    stats: dict = field(default_factory=dict)    # kind -> array of statistics
    pvals: dict = field(default_factory=dict)    # kind -> array of p-values
    degenerate: dict = field(default_factory=dict)
    tsrv: np.ndarray | None = None
    wtsrv: np.ndarray | None = None
    iv: np.ndarray | None = None
    qv: np.ndarray | None = None
    gg: np.ndarray | None = None

    def rejection_rate(self, kind: str, alpha: float | None = None) -> float:
        alpha = self.spec.alpha_level if alpha is None else alpha
        return float(np.mean(self.pvals[kind] < alpha))


def scenario_config(spec: StudySpec) -> SimConfig:
    """Base simulation config for a study (before per-rep seeding)."""
    if spec.scenario == "custom":
        return spec.config
    base = spec.config if spec.config is not None else SimConfig()
    return replace(base, **SCENARIOS[spec.scenario])


def _run_rep(args):
    config, seed, tests, K, window, k_scale = args
    series, truth = simulate_observed(replace(config, seed=seed))
    row = {"n": series.n, "iv": truth.iv, "qv": truth.qv, "gg": truth.gg}
    kv = default_K(series.n, k_scale)
    row["tsrv"] = _tsrv(series, kv)
    row["wtsrv"] = _wtsrv(series, kv)
    for kind in tests:
        rep = run_test(series, kind, K=K, window=window)
        row[kind] = (rep.statistic, rep.p_value, rep.degenerate)
    return row


def run_study(spec: StudySpec) -> StudyResult:
    """Run all reps of a study and collect rows in rep order."""
    config = scenario_config(spec)
    payloads = [(config, spec.base_seed ^ i, tuple(spec.tests), spec.K,
                 spec.window, spec.k_scale) for i in range(spec.reps)]
    if spec.threads > 1:
        # about four chunks per worker, so that short studies still spread
        chunk = max(1, math.ceil(spec.reps / (4 * spec.threads)))
        with ProcessPoolExecutor(max_workers=spec.threads) as pool:
            rows = list(pool.map(_run_rep, payloads, chunksize=chunk))
    else:
        rows = [_run_rep(p) for p in payloads]

    result = StudyResult(spec=spec, **{
        key: np.array([r[key] for r in rows])
        for key in ("n", "tsrv", "wtsrv", "iv", "qv", "gg")})
    for kind in spec.tests:
        result.stats[kind] = np.array([r[kind][0] for r in rows])
        result.pvals[kind] = np.array([r[kind][1] for r in rows])
        result.degenerate[kind] = np.array([r[kind][2] for r in rows])
    return result


def density_table(stats: np.ndarray, bins: int = 41, lo: float = -4.0,
                  hi: float = 4.0) -> np.ndarray:
    """Histogram of statistics with a standard-normal overlay column.

    Returns rows of (bin centre, empirical density, normal pdf).
    """
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(stats, bins=edges)
    width = edges[1] - edges[0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    density = counts / (len(stats) * width)
    pdf = np.exp(-0.5 * centers**2) / np.sqrt(2.0 * np.pi)
    return np.column_stack([centers, density, pdf])


def roc_points(null_stats: np.ndarray, alt_stats: np.ndarray,
               levels: np.ndarray = ROC_LEVELS) -> np.ndarray:
    """Empirical power at thresholds set by null-statistic quantiles.

    For each nominal level the rejection threshold is the matching upper
    quantile of the null statistics (no re-simulation per level); power is
    the fraction of alternative statistics above it.  Returns rows of
    (level, power).
    """
    out = np.empty((len(levels), 2))
    for j, a in enumerate(levels):
        thr = float(np.quantile(null_stats, 1.0 - a))
        out[j] = (a, float(np.mean(alt_stats > thr)))
    return out


def run_paired_roc(spec: StudySpec) -> dict:
    """Run an alternative-scenario study plus its matched null and build
    per-test ROC tables.

    Returns a dict with the alt result, the null result and
    ``roc[kind]`` arrays.  Only defined for scenarios with a matched null.
    """
    if spec.scenario not in NULL_OF:
        raise InvalidConfig(f"scenario {spec.scenario!r} has no matched null")
    alt = run_study(spec)
    null_spec = replace(spec, scenario=NULL_OF[spec.scenario])
    null = run_study(null_spec)
    roc = {kind: roc_points(null.stats[kind], alt.stats[kind])
           for kind in spec.tests}
    return {"alt": alt, "null": null, "roc": roc}
