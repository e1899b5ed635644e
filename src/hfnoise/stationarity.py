"""Non-parametric tests for a time-varying microstructure noise level.

Three complementary statistics, all asymptotically standard normal when
the noise level is constant and exploding to ``+inf`` when it varies, so
p-values are one-sided upper tail:

* ``N`` (:func:`edge_test`) contrasts the two-scale estimator with its
  sample-weighted variant; the difference isolates how the first/last
  ``K`` observations are weighted, picking up global open/close patterns.
* ``V`` (:func:`window_test`) pools squared local contrasts over
  overlapping windows of ``s`` blocks; ``Vprime``
  (:func:`window_test_nonoverlap`) is the cheaper non-overlapping variant.
* ``Vbar`` (:func:`block_test`) pools squared differences of consecutive
  block realized variances, trading some power for a smaller edge effect.

Every test returns a :class:`TestReport`; the zero-denominator branch
yields statistic 0 with the ``degenerate`` flag set and p-value 1.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from ._accum import block_sums, csum, window_sums
from .errors import InvalidConfig, InvalidK, InvalidWindow, NonFiniteStatistic
from .estimators import (_increments, _row_modified_rv, default_K,
                         noise_moments)
from .ticks import TickSeries


@dataclass(frozen=True)
class TestReport:
    """Outcome of one stationarity test."""

    statistic: float
    p_value: float
    kind: str  # one of "N", "V", "Vprime", "Vbar"
    K: int
    n: int
    s: int | None = None
    degenerate: bool = False
    intermediates: dict = field(default_factory=dict)
    # natural log of p_value; stays finite where p_value underflows to 0.0
    log_p: float = 0.0


def p_value(statistic: float) -> float:
    """Upper-tail standard normal p-value ``1 - Phi(statistic)``.

    Raises
    ------
    NonFiniteStatistic
        If ``statistic`` is NaN or infinite.
    """
    _check_finite(statistic)
    return float(norm.sf(statistic))


def log_p_value(statistic: float) -> float:
    """Natural log of :func:`p_value`, finite for every finite statistic,
    so strong rejections stay ordered after ``p_value`` underflows to 0.0
    (above about 37.5).

    Raises
    ------
    NonFiniteStatistic
        If ``statistic`` is NaN or infinite.
    """
    _check_finite(statistic)
    return float(norm.logsf(statistic))


def _check_finite(statistic: float):
    if not math.isfinite(statistic):
        raise NonFiniteStatistic(f"statistic must be finite, got {statistic}")


def default_window(n: int, K: int) -> int:
    """Default window length in blocks: ``floor(sqrt(n/K))`` clamped to
    ``[2, n//K - 1]``."""
    r = n // K
    if r < 4:
        raise InvalidWindow(f"need at least 4 blocks, got n//K={r}")
    return max(2, min(int(math.sqrt(n / K)), r - 1))


def default_test_K(n: int, kind: str) -> int:
    """Default subsampling step per test family.

    ``N`` uses the two-scale-optimal ``n**(2/3)`` step; the window tests
    use ``floor(n**0.6)``, which sits inside the admissible rate band for
    both the overlapping-window and block statistics.
    """
    if kind == "N":
        return default_K(n)
    return max(4, int(float(n) ** 0.6))


def _pooled_K(n: int, K: int | None) -> int:
    # the step of V, Vprime and Vbar: the default, or a given K >= 1
    if K is not None and K < 1:
        raise InvalidK(f"need K >= 1, got K={K}")
    return default_test_K(n, "V") if K is None else K


def _window_contrasts(series: TickSeries, K: int, window: int,
                      starts) -> np.ndarray:
    # sqrt(K) * (wtsrv - tsrv) on each window of `window` blocks, in closed
    # form from exact block sums: with d2 the squared increments, head the
    # RV of the window's first block, tail the RV of its last block less
    # that block's first d2, and RV_w the sum of the window's block RVs,
    # wtsrv - tsrv = (1/2 (d2_0 + head + tail) - (K-1) RV_w / (window K)) / K.
    inc = _increments(series)
    rv = inc.block_sums(K)
    first = inc.d2[:len(rv) * K:K]
    starts = np.asarray(starts, dtype=np.intp)
    last = starts + window - 1
    edges = block_sums(np.column_stack((first[starts], rv[starts], rv[last],
                                        -first[last])).ravel(), 4)
    rv_w = window_sums(rv, window)[starts]
    return math.sqrt(K) * (0.5 * edges - (K - 1) / (window * K) * rv_w) / K


def overlap_mean_sq(series: TickSeries, K: int, window: int) -> float:
    """Mean of squared local contrasts over all overlapping windows.

    Windows start at every block ``1 .. n//K - window + 1``.
    """
    r = series.n // K
    cnt = r - window + 1
    if window < 2 or cnt < 1:
        raise InvalidWindow(f"need 2 <= window and n//K - window + 1 >= 1, "
                            f"got window={window}, n//K={r}")
    devs = _window_contrasts(series, K, window, range(cnt))
    return csum(devs * devs) / cnt


def nonoverlap_mean_sq(series: TickSeries, K: int, window: int) -> float:
    """Mean of squared local contrasts over disjoint windows.

    Uses windows starting at blocks ``1, window+1, 2*window+1, ...``,
    ``floor(n / (window*K))`` of them.
    """
    cnt = series.n // (window * K)
    if window < 2 or cnt < 1:
        raise InvalidWindow(f"need 2 <= window and n//(window*K) >= 1, "
                            f"got window={window}, n//K={series.n // K}")
    devs = _window_contrasts(series, K, window, range(0, cnt * window, window))
    return csum(devs * devs) / cnt


def block_diff_mean_sq(series: TickSeries, K: int) -> float:
    """``1/(4n)`` times the summed squared differences of consecutive
    block realized variances (blocks of ``K`` increments)."""
    n = series.n
    r = n // K
    if r < 2:
        raise InvalidWindow(f"need at least 2 blocks, got n//K={r}")
    steps = np.diff(_increments(series).block_sums(K))
    return csum(steps * steps) / (4.0 * n)


def _report(kind, stat_num, denom, K, n, s, inter) -> TestReport:
    if denom <= 0.0 or not math.isfinite(denom):
        return TestReport(statistic=0.0, p_value=1.0, kind=kind, K=K, n=n,
                          s=s, degenerate=True, intermediates=inter)
    stat = stat_num / denom
    return TestReport(statistic=stat, p_value=p_value(stat), kind=kind,
                      K=K, n=n, s=s, degenerate=False, intermediates=inter,
                      log_p=log_p_value(stat))


def edge_test(series: TickSeries, K: int | None = None) -> TestReport:
    """Edge-contrast stationarity test (kind ``N``).

    ``sqrt(K) * (wtsrv - tsrv)`` studentized by the square root of the
    centred fourth-moment estimate; the statistic is standard normal for a
    constant noise level and diverges otherwise.

    Raises
    ------
    InvalidK
        If ``K`` is not in ``[4, n/2]``.
    """
    n = series.n
    if K is None:
        K = default_test_K(n, "N")
    if not 4 <= K <= n // 2:
        raise InvalidK(f"need 4 <= K <= n/2, got K={K}, n={n}")
    nm = noise_moments(series)
    # wtsrv - tsrv without their common subsampled term: no cancellation
    num = math.sqrt(K) * ((n - K + 1) / (n * K) * _increments(series).R
                          - _row_modified_rv(series, K, n).item() / K)
    denom = math.sqrt(nm.q2sum_hat) if nm.q2sum_hat > 0.0 else 0.0
    inter = {"scale_diff": num, "q2sum_hat": nm.q2sum_hat,
             "m2_hat": nm.m2_hat}
    return _report("N", num, denom, K, n, None, inter)


def _pooled_test(series, K, window, kind, pooled, rate, count) -> TestReport:
    nm = noise_moments(series)
    num = rate * (pooled - nm.q2sum_hat)
    inter = {"pooled_mean_sq": pooled, "q2sum_hat": nm.q2sum_hat,
             "eta_hat": nm.eta_hat, "local_terms": count}
    return _report(kind, num, nm.eta_hat, K, series.n, window, inter)


def window_test(series: TickSeries, K: int | None = None,
                window: int | None = None) -> TestReport:
    """Overlapping-window stationarity test (kind ``V``)."""
    n = series.n
    K = _pooled_K(n, K)
    if window is None:
        window = default_window(n, K)
    pooled = overlap_mean_sq(series, K, window)
    return _pooled_test(series, K, window, "V", pooled, math.sqrt(n / K),
                        n // K - window + 1)


def window_test_nonoverlap(series: TickSeries, K: int | None = None,
                           window: int | None = None) -> TestReport:
    """Non-overlapping-window stationarity test (kind ``Vprime``)."""
    n = series.n
    K = _pooled_K(n, K)
    if window is None:
        window = default_window(n, K)
    pooled = nonoverlap_mean_sq(series, K, window)
    return _pooled_test(series, K, window, "Vprime", pooled,
                        math.sqrt(n / (window * K)), n // (window * K))


def block_test(series: TickSeries, K: int | None = None) -> TestReport:
    """Consecutive-block stationarity test (kind ``Vbar``)."""
    n = series.n
    K = _pooled_K(n, K)
    pooled = block_diff_mean_sq(series, K)
    return _pooled_test(series, K, None, "Vbar", pooled, math.sqrt(n / K),
                        n // K - 1)


_TESTS = {
    "N": edge_test,
    "V": window_test,
    "Vprime": window_test_nonoverlap,
    "Vbar": block_test,
}


def _check_kinds(kinds):
    for kind in kinds:
        if kind not in _TESTS:
            raise InvalidConfig(f"unknown test kind {kind!r}")


def run_test(series: TickSeries, kind: str, K: int | None = None,
             window: int | None = None) -> TestReport:
    """Dispatch one test by kind code (``N``/``V``/``Vprime``/``Vbar``).

    Raises
    ------
    InvalidConfig
        If ``kind`` is not one of the four codes.
    """
    _check_kinds((kind,))
    if kind in ("V", "Vprime"):
        return _TESTS[kind](series, K=K, window=window)
    return _TESTS[kind](series, K=K)
