"""Realized-variance family estimators and noise-moment estimators.

All estimators consume observed log prices only; observation times never
enter (subsampling is in tick counts).  Sums are accumulated with
compensated summation, see :mod:`hfnoise._accum`.

The two-scale estimator follows Zhang, Mykland and Ait-Sahalia (2005); the
sample-weighted variant replaces the fast-scale correction with a
half-weighted-edges realized variance, which removes the edge bias that a
time-varying noise level induces.
"""

from dataclasses import dataclass

import numpy as np

from ._accum import csum
from .errors import InvalidIndices, InvalidK
from .ticks import TickSeries


@dataclass(frozen=True)
class EstimatorBundle:
    """All realized-variance style estimates of one series at one step K."""

    rv_full: float
    quarticity: float
    avg_rv: float
    modified_rv: float
    tsrv: float
    wtsrv: float
    K: int
    n: int


@dataclass(frozen=True)
class NoiseMoments:
    """Second/fourth conditional noise-moment estimates.

    ``m2_hat`` estimates E(eps^2), ``q4_hat`` estimates E(eps^4),
    ``q2sum_hat = 2 * q4_hat`` is the centred fourth-moment quantity used
    to centre and scale the stationarity tests, and ``eta_hat`` estimates
    the asymptotic standard deviation of the pooled window statistics.
    ``degenerate`` is set when a radicand clamped at zero.
    """

    m2_hat: float
    q4_hat: float
    q2sum_hat: float
    eta_hat: float
    degenerate: bool


def _check_K(K: int, n: int, hi: int, what: str = "K"):
    if not 2 <= K <= hi:
        raise InvalidK(f"need 2 <= {what} <= {hi}, got {what}={K} for n={n}")


def _rv(prices: np.ndarray) -> float:
    d = np.diff(prices)
    return csum(d * d)


def _quarticity(prices: np.ndarray) -> float:
    d2 = np.diff(prices) ** 2
    return csum(d2 * d2)


def _avg_rv(prices: np.ndarray, K: int) -> float:
    # Mean over the K offset subgrids of the subgrid realized variance.
    # The union of all within-subgrid consecutive pairs is exactly the
    # lag-K differences starting at 0 .. K*(n//K - 1) - 1, so one pass
    # over the leading lag-K differences reproduces the per-subgrid sum.
    n = len(prices) - 1
    if K == 1:
        return _rv(prices)
    m = n // K
    keep = K * (m - 1)
    dk = prices[K:keep + K] - prices[:keep]
    return csum(dk * dk) / K


def _modified_rv(prices: np.ndarray, K: int) -> float:
    # Half-weighted edge realized variance: increments with left endpoint
    # in [1, n-K] plus increments with left endpoint in [K, n-1], halved.
    n = len(prices) - 1
    d2 = np.diff(prices) ** 2
    return 0.5 * (csum(d2[1:n - K + 1]) + csum(d2[K:n]))


def _tsrv(prices: np.ndarray, K: int) -> float:
    n = len(prices) - 1
    return _avg_rv(prices, K) - (n - K + 1) / (n * K) * _rv(prices)


def _wtsrv(prices: np.ndarray, K: int) -> float:
    return _avg_rv(prices, K) - _modified_rv(prices, K) / K


def _scale_diff(prices: np.ndarray, K: int) -> float:
    # wtsrv - tsrv without the common subsampled term, so the difference
    # is computed free of cancellation between two nearly equal numbers.
    n = len(prices) - 1
    return (n - K + 1) / (n * K) * _rv(prices) - _modified_rv(prices, K) / K


def realized_variance(series: TickSeries, indices=None) -> float:
    """Sum of squared price differences between consecutive grid neighbours.

    Parameters
    ----------
    series : TickSeries
    indices : sequence of int, optional
        Strictly increasing tick indices in ``[0, n]`` defining the
        sampling grid; defaults to the full grid.

    Raises
    ------
    InvalidIndices
        If the grid is too short, out of range, or not strictly increasing.
    """
    if indices is None:
        return _rv(series.prices)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or len(idx) < 2:
        raise InvalidIndices("grid needs at least two indices")
    if idx[0] < 0 or idx[-1] > series.n or not (np.diff(idx) > 0).all():
        raise InvalidIndices("grid must be strictly increasing within [0, n]")
    p = series.prices[idx]
    return _rv(p)


def quarticity(series: TickSeries) -> float:
    """Sum of fourth powers of the full-grid price increments."""
    return _quarticity(series.prices)


def avg_rv(series: TickSeries, K: int) -> float:
    """Subsample-and-average realized variance at step ``K``.

    Equals the mean over the ``K`` offset subgrids of the realized
    variance on each subgrid.  ``K = 1`` reduces to the full-grid
    realized variance exactly.

    Raises
    ------
    InvalidK
        If ``K`` is not in ``[2, n/2]`` (``K = 1`` is allowed as the
        full-grid special case).
    """
    if K != 1:
        _check_K(K, series.n, series.n // 2)
    return _avg_rv(series.prices, K)


def modified_rv(series: TickSeries, K: int) -> float:
    """Realized variance with half weight on the first/last ``K`` increments.

    Computed as half the sum of the two one-sided trimmed increment sums;
    never exceeds the full realized variance.

    Raises
    ------
    InvalidK
        If ``K`` is not in ``[2, n-1]``.
    """
    _check_K(K, series.n, series.n - 1)
    return _modified_rv(series.prices, K)


def tsrv(series: TickSeries, K: int) -> float:
    """Two-scale realized volatility estimate at step ``K``.

    Averaged subsampled realized variance minus ``(n-K+1)/(nK)`` times the
    full-grid realized variance.  May be negative in finite samples;
    returned as-is because the stationarity tests consume the raw value.
    """
    _check_K(K, series.n, series.n // 2)
    return _tsrv(series.prices, K)


def wtsrv(series: TickSeries, K: int) -> float:
    """Sample-weighted two-scale estimate at step ``K``.

    Uses the half-weighted-edges realized variance as the fast-scale
    correction, which keeps the estimator unbiased when the noise
    variance drifts within the sample.  Same sign policy as :func:`tsrv`.
    """
    _check_K(K, series.n, series.n // 2)
    return _wtsrv(series.prices, K)


def estimator_bundle(series: TickSeries, K: int) -> EstimatorBundle:
    """All estimators of this module evaluated once at step ``K``."""
    _check_K(K, series.n, series.n // 2)
    p = series.prices
    a = _avg_rv(p, K)
    rv = _rv(p)
    mod = _modified_rv(p, K)
    n = series.n
    return EstimatorBundle(
        rv_full=rv,
        quarticity=_quarticity(p),
        avg_rv=a,
        modified_rv=mod,
        tsrv=a - (n - K + 1) / (n * K) * rv,
        wtsrv=a - mod / K,
        K=K,
        n=n,
    )


def noise_moments(series: TickSeries) -> NoiseMoments:
    """Noise second/fourth moment estimates from the fastest grid.

    With ``R`` the full realized variance and ``Q`` the quarticity over
    ``n`` increments:

    * ``m2_hat  = R / (2n)``
    * ``q4_hat  = Q / (2n) - 3 R^2 / (4 n^2)``
    * ``q2sum_hat = 2 * q4_hat``
    * ``eta_hat = sqrt(6 Q^2/n^2 - 21 Q R^2/n^3 + 39 R^4/(2 n^4))``

    A negative ``eta_hat`` radicand clamps to zero and sets the
    ``degenerate`` flag; callers then take the zero-statistic branch.
    """
    n = series.n
    if n < 4:
        raise InvalidIndices(f"noise moments need n >= 4, got n={n}")
    d2 = np.diff(series.prices) ** 2
    R = csum(d2)
    Q = csum(d2 * d2)
    m2 = R / (2.0 * n)
    q4 = Q / (2.0 * n) - 3.0 * R * R / (4.0 * n * n)
    rad = (6.0 * Q * Q / n**2
           - 21.0 * Q * R * R / n**3
           + 39.0 * R**4 / (2.0 * n**4))
    degenerate = rad <= 0.0
    eta = 0.0 if degenerate else float(np.sqrt(rad))
    return NoiseMoments(
        m2_hat=m2,
        q4_hat=q4,
        q2sum_hat=2.0 * q4,
        eta_hat=eta,
        degenerate=degenerate,
    )
