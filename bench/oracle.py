"""Definitional implementations that the benchmark checks hfnoise against.

Each function is written from the formula in the docstring of the hfnoise
module it mirrors, element by element over Python lists, with every sum
taken by ``math.fsum``.  Nothing here shares code with the package: the
only import from hfnoise is :class:`TickSeries`, which the V and Vprime
statistics use to cut each window out as a standalone, re-indexed series.

Prices are log prices, ``n`` counts increments, and blocks of ``K``
increments start at tick 0.
"""

import math

from hfnoise import TickSeries


def increments(prices):
    p = prices.tolist() if hasattr(prices, "tolist") else list(prices)
    return [b - a for a, b in zip(p, p[1:])]


def squared_increments(prices):
    return [d * d for d in increments(prices)]


def rv(prices):
    """Realized variance: sum of squared increments."""
    return math.fsum(squared_increments(prices))


def quarticity(prices):
    """Sum of fourth powers of the increments."""
    return math.fsum([x * x for x in squared_increments(prices)])


def avg_rv(prices, K):
    """Mean over the K offset subgrids ``k, k+K, ..., k+(n//K - 1)K`` of
    the realized variance on each subgrid."""
    p = prices.tolist() if hasattr(prices, "tolist") else list(prices)
    m = (len(p) - 1) // K
    per_grid = [math.fsum((p[k + (j + 1) * K] - p[k + j * K]) ** 2
                          for j in range(m - 1))
                for k in range(K)]
    return math.fsum(per_grid) / K


def modified_rv_ranges(prices, K):
    """The two half-weighted ranges of the modified realized variance:
    squared increments with left endpoint in ``[1, n-K]`` and in
    ``[K, n-1]``."""
    sq = squared_increments(prices)
    return math.fsum(sq[1:len(sq) - K + 1]), math.fsum(sq[K:])


def modified_rv(prices, K):
    lo, hi = modified_rv_ranges(prices, K)
    return 0.5 * (lo + hi)


def wtsrv(prices, K):
    """Sample-weighted two-scale estimate: avg_rv - modified_rv / K."""
    return avg_rv(prices, K) - modified_rv(prices, K) / K


def scale_diff(prices, K):
    """``wtsrv - tsrv = (n-K+1)/(nK) * rv - modified_rv / K``."""
    sq = squared_increments(prices)
    n = len(sq)
    modified = 0.5 * (math.fsum(sq[1:n - K + 1]) + math.fsum(sq[K:]))
    return (n - K + 1) / (n * K) * math.fsum(sq) - modified / K


def noise_moments(prices):
    """``(m2_hat, q2sum_hat, eta_hat)`` from R = rv and Q = quarticity:
    m2 = R/(2n), q4 = Q/(2n) - 3R^2/(4n^2), q2sum = 2 q4 and
    eta = sqrt(6Q^2/n^2 - 21QR^2/n^3 + 39R^4/(2n^4)), clamped at 0."""
    n = len(prices) - 1
    R = rv(prices)
    Q = quarticity(prices)
    q4 = Q / (2.0 * n) - 3.0 * R * R / (4.0 * n * n)
    rad = (6.0 * Q * Q / n ** 2 - 21.0 * Q * R * R / n ** 3
           + 39.0 * R ** 4 / (2.0 * n ** 4))
    return R / (2.0 * n), 2.0 * q4, math.sqrt(rad) if rad > 0.0 else 0.0


def upper_p(z):
    """One-sided upper-tail standard normal p-value."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def default_K(n, c=1.0):
    """Step in ``floor(c n^(2/3)) +/- 3`` leaving the fewest unused
    trailing increments, ties toward the centre and then the smaller step,
    clamped to ``[2, n//2]``."""
    base = int(c * float(n) ** (2.0 / 3.0) + 1e-9)
    lo, hi = max(2, base - 3), min(base + 3, n // 2)
    if hi < lo:
        return max(2, min(base, max(2, n // 2)))
    return min(range(lo, hi + 1), key=lambda K: (n % K, abs(K - base), K))


def window_K(n):
    """Default step of the V, Vprime and Vbar tests: floor(n^0.6), >= 4."""
    return max(4, int(float(n) ** 0.6))


def default_window(n, K):
    """Default window: floor(sqrt(n/K)) blocks, clamped to [2, n//K - 1]."""
    return max(2, min(int(math.sqrt(n / K)), n // K - 1))


def n_stat(series, K, moments=None):
    """N: sqrt(K) * scale_diff studentized by sqrt(q2sum_hat).

    The pooled statistics also take ``moments``, the result of
    :func:`noise_moments` for the series, when the caller has it."""
    _, q2sum, _ = moments or noise_moments(series.prices)
    num = math.sqrt(K) * scale_diff(series.prices, K)
    return num / math.sqrt(q2sum)


def _window_contrast(series, K, start_block, s):
    lo = (start_block - 1) * K
    hi = (start_block - 1 + s) * K
    window = TickSeries(series.times[lo:hi + 1], series.prices[lo:hi + 1])
    return math.sqrt(K) * scale_diff(window.prices, K)


def _pooled_stat(series, pooled, rate, moments):
    _, q2sum, eta = moments or noise_moments(series.prices)
    return rate * (pooled - q2sum) / eta


def v_stat(series, K, s, moments=None):
    """V: mean squared local contrast over the n//K - s + 1 overlapping
    windows of s blocks, each a re-indexed sub-series, centred by
    q2sum_hat, scaled by sqrt(n/K) and divided by eta_hat."""
    n = series.n
    cnt = n // K - s + 1
    c = [_window_contrast(series, K, b, s) for b in range(1, cnt + 1)]
    return _pooled_stat(series, math.fsum([x * x for x in c]) / cnt,
                        math.sqrt(n / K), moments)


def vprime_stat(series, K, s, moments=None):
    """Vprime: as V over the n//(sK) disjoint windows starting at blocks
    1, s+1, 2s+1, ...; scaled by sqrt(n/(sK))."""
    n = series.n
    cnt = n // (s * K)
    c = [_window_contrast(series, K, 1 + i * s, s) for i in range(cnt)]
    return _pooled_stat(series, math.fsum([x * x for x in c]) / cnt,
                        math.sqrt(n / (s * K)), moments)


def block_rvs(prices, K):
    """Realized variance of each full block of K increments."""
    sq = squared_increments(prices)
    return [math.fsum(sq[i * K:(i + 1) * K]) for i in range(len(sq) // K)]


def block_quarticities(prices, K):
    sq = squared_increments(prices)
    return [math.fsum([x * x for x in sq[i * K:(i + 1) * K]])
            for i in range(len(sq) // K)]


def block_diff_mean_sq(prices, K):
    """Summed squared differences of consecutive block RVs over 4n."""
    b = block_rvs(prices, K)
    n = len(prices) - 1
    return math.fsum((b[i + 1] - b[i]) ** 2
                     for i in range(len(b) - 1)) / (4.0 * n)


def vbar_stat(series, K, moments=None):
    """Vbar: pooled block-RV differences, centred and scaled as V."""
    n = series.n
    return _pooled_stat(series, block_diff_mean_sq(series.prices, K),
                        math.sqrt(n / K), moments)


def noise_qv(prices, K):
    """gg_hat = 3n/(2K^2) * block_diff_mean_sq."""
    n = len(prices) - 1
    return 1.5 * n / (K * K) * block_diff_mean_sq(prices, K)


def noise_qv_stderr(prices, K, span):
    """Standard-error proxy of gg_hat, clamped at 0:
    term1 = 27/(128 l^2 K^4) * sum over windows of l consecutive squared
    block-RV steps of the squared window sum, and term2 = 27/(8K^2) * sum
    over blocks of 4q^2/K^2 - 14 q rv^2/K^3 + 13 rv^4/K^4."""
    b = block_rvs(prices, K)
    q = block_quarticities(prices, K)
    r = len(b)
    steps = [(b[i + 1] - b[i]) ** 2 for i in range(r - 1)]
    wins = [math.fsum(steps[i:i + span]) for i in range(r - span)]
    term1 = 27.0 / (128.0 * span * span * K ** 4) * math.fsum(
        w * w for w in wins)
    term2 = 27.0 / (8.0 * K * K) * math.fsum(
        4.0 / K ** 2 * qb * qb - 14.0 / K ** 3 * qb * rb * rb
        + 13.0 / K ** 4 * rb ** 4 for qb, rb in zip(q, b))
    total = term1 + term2
    return math.sqrt(total) if total > 0.0 else 0.0


def regression_pairs(series, m):
    """(block start time, wtsrv / block duration, rv / (2m)) for each of
    the n//m blocks of m increments, at step default_K(m)."""
    K = default_K(m)
    t, p = series.times, series.prices
    rows = []
    for i in range(series.n // m):
        lo, hi = i * m, (i + 1) * m
        block = p[lo:hi + 1]
        rows.append((float(t[lo]), wtsrv(block, K) / float(t[hi] - t[lo]),
                     rv(block) / (2.0 * m)))
    return rows


def ols(xs, ys):
    """(beta, alpha) of the least-squares line of ys on xs."""
    k = len(xs)
    mx = math.fsum(xs) / k
    my = math.fsum(ys) / k
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    beta = sxy / sxx
    return beta, my - beta * mx
