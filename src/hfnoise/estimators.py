"""Realized-variance family estimators and noise-moment estimators.

All estimators consume observed log prices only; observation times never
enter (subsampling is in tick counts).  Sums are exact, bit-identical to
``math.fsum`` (:mod:`hfnoise._accum`), and each series' squared increments
and their sums are derived once (:func:`_increments`).

The two-scale estimator follows Zhang, Mykland and Ait-Sahalia (2005); the
sample-weighted variant replaces the fast-scale correction with a
half-weighted-edges realized variance, which removes the edge bias that a
time-varying noise level induces.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._accum import block_sums, csum
from .errors import InvalidIndices, InvalidK
from .ticks import TickSeries


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


def _check_K(K: int, n: int, hi: int):
    if not 2 <= K <= hi:
        raise InvalidK(f"need 2 <= K <= {hi}, got K={K} for n={n}")


def default_K(n: int, c: float = 1.0) -> int:
    """Divisor-friendly subsampling step near ``c * n**(2/3)``.

    Searches ``floor(c * n**(2/3)) +/- 3`` for the step minimizing the
    number of unused trailing increments ``n - (n // K) * K`` (ties broken
    toward the window centre, then toward smaller K), clamped to
    ``[2, n // 2]``.  Keeping the remainder small keeps the edge effect of
    subsampled estimators deterministic and tiny.
    """
    base = int(c * float(n) ** (2.0 / 3.0) + 1e-9)
    lo = max(2, base - 3)
    hi = min(base + 3, n // 2)
    if hi < lo:
        return max(2, min(base, max(2, n // 2)))
    return min(range(lo, hi + 1),
               key=lambda K: (n - (n // K) * K, abs(K - base), K))


class _Increments:
    """Read-only squared increments of one series and their exact sums."""

    def __init__(self, prices: np.ndarray):
        self.d2 = np.diff(prices) ** 2
        self.d2.setflags(write=False)
        self._blocks = (None, None)

    @cached_property
    def R(self) -> float:
        return csum(self.d2)

    @cached_property
    def Q(self) -> float:
        return csum(self.d2 * self.d2)

    def block_sums(self, K: int) -> np.ndarray:
        # one K cached: the tests and the liquidity report ask in runs of one K
        last, sums = self._blocks
        if last != K:
            sums = block_sums(self.d2, K)
            sums.setflags(write=False)
            self._blocks = (K, sums)
        return sums


def _increments(series: TickSeries) -> _Increments:
    # two threads that race here build two values with the same bits
    if "_increments" not in series.__dict__:
        object.__setattr__(series, "_increments", _Increments(series.prices))
    return series._increments


# The row-wise two-scale kernel: a row is a run of m increments, the whole
# series is one row (m = n), and block_estimates uses its n // m blocks.
def _row_avg_rv(series: TickSeries, K: int, m: int) -> np.ndarray:
    # Mean over the K offset subgrids of each row's subgrid realized
    # variance.  Their consecutive pairs are exactly the row's lag-K
    # differences starting at 0 .. K*(m//K - 1) - 1, so one sum per row.
    keep = K * (m // K - 1)
    rows = sliding_window_view(series.prices, m + 1)[:series.n // m * m:m]
    dk = rows[:, K:keep + K] - rows[:, :keep]
    return block_sums((dk * dk).ravel(), keep) / K


def _row_modified_rv(series: TickSeries, K: int, m: int) -> np.ndarray:
    # Half-weighted edge realized variance: per row, increments with left
    # endpoint in [1, m-K] plus those with left endpoint in [K, m-1], halved.
    d2 = _increments(series).d2[:series.n // m * m].reshape(-1, m)
    return 0.5 * (block_sums(d2[:, 1:m - K + 1].ravel(), m - K)
                  + block_sums(d2[:, K:].ravel(), m - K))


def _tsrv(series: TickSeries, K: int) -> float:
    n = series.n
    return avg_rv(series, K) - (n - K + 1) / (n * K) * _increments(series).R


def _wtsrv(series: TickSeries, K: int) -> float:
    return avg_rv(series, K) - modified_rv(series, K) / K


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
        return _increments(series).R
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or len(idx) < 2:
        raise InvalidIndices("grid needs at least two indices")
    if idx[0] < 0 or idx[-1] > series.n or not (np.diff(idx) > 0).all():
        raise InvalidIndices("grid must be strictly increasing within [0, n]")
    d = np.diff(series.prices[idx])
    return csum(d * d)


def quarticity(series: TickSeries) -> float:
    """Sum of fourth powers of the full-grid price increments."""
    return _increments(series).Q


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
    if K == 1:
        return _increments(series).R
    _check_K(K, series.n, series.n // 2)
    return _row_avg_rv(series, K, series.n).item()


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
    return _row_modified_rv(series, K, series.n).item()


def tsrv(series: TickSeries, K: int) -> float:
    """Two-scale realized volatility estimate at step ``K``.

    Averaged subsampled realized variance minus ``(n-K+1)/(nK)`` times the
    full-grid realized variance.  May be negative in finite samples;
    returned as-is because the stationarity tests consume the raw value.
    """
    _check_K(K, series.n, series.n // 2)
    return _tsrv(series, K)


def wtsrv(series: TickSeries, K: int) -> float:
    """Sample-weighted two-scale estimate at step ``K``.

    Uses the half-weighted-edges realized variance as the fast-scale
    correction, which keeps the estimator unbiased when the noise
    variance drifts within the sample.  Same sign policy as :func:`tsrv`.
    """
    _check_K(K, series.n, series.n // 2)
    return _wtsrv(series, K)


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
    inc = _increments(series)
    R, Q = inc.R, inc.Q
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
