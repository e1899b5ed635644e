"""Regression of local noise variance on local spot variance.

Per block of ``m`` observations the spot variance is estimated by the
duration-scaled sample-weighted two-scale estimator and the noise
variance by the fast-grid realized variance over ``2m``; ordinary least
squares over the block pairs then estimates an affine noise-variance /
volatility link, in levels or on logs.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import BlockTooSmall, DegenerateDesign
from .estimators import (_check_K, _increments, _row_avg_rv,
                         _row_modified_rv, default_K)
from .ticks import TickSeries


@dataclass(frozen=True)
class RegressionReport:
    """OLS fit of block noise-variance estimates on block spot-variance
    estimates; ``pairs`` holds (block start time, sigma2_hat, g_hat) rows."""

    beta_hat: float
    alpha_hat: float
    r_squared: float
    pairs: np.ndarray
    m: int
    log_log: bool
    dropped: int = 0


def block_estimates(series: TickSeries, m: int,
                    K: int | None = None) -> np.ndarray:
    """Per-block (start time, spot-variance, noise-variance) estimates.

    Splits the series into ``n // m`` blocks of ``m`` increments.  Within
    block ``i`` the spot variance is the sample-weighted two-scale
    estimate divided by the block duration, and the noise variance is the
    block realized variance over ``2m``.

    Parameters
    ----------
    m : int
        Observations per block; needs ``m >= 64`` and at least 3 blocks.
    K : int, optional
        Subsampling step inside each block; defaults to ``default_K(m)``.

    Raises
    ------
    BlockTooSmall
    InvalidK
        If ``K`` is not in ``[2, m/2]``.
    """
    n = series.n
    if m < 64 or n // m < 3:
        raise BlockTooSmall(f"need m >= 64 and n//m >= 3, got m={m}, "
                            f"n//m={n // m}")
    if K is None:
        K = default_K(m)
    _check_K(K, m, m // 2)
    edges = series.times[:n // m * m + 1:m]
    wtsrv = _row_avg_rv(series, K, m) - _row_modified_rv(series, K, m) / K
    return np.column_stack((edges[:-1], wtsrv / np.diff(edges),
                            _increments(series).block_sums(m) / (2.0 * m)))


def ols(pairs: np.ndarray, log_log: bool = False) -> RegressionReport:
    """Least-squares fit of noise variance on spot variance.

    Parameters
    ----------
    pairs : np.ndarray
        Rows of (start time, sigma2_hat, g_hat) as produced by
        :func:`block_estimates`.
    log_log : bool
        Fit ``log(g_hat)`` on ``log(sigma2_hat)``; non-positive pairs are
        dropped and counted in the report.

    Raises
    ------
    BlockTooSmall
        If fewer than 3 usable pairs remain.
    DegenerateDesign
        If the regressor has zero variance.
    """
    pairs = np.asarray(pairs, dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 3:
        raise DegenerateDesign("pairs must be rows of (time, sigma2, g)")
    x = pairs[:, 1]
    y = pairs[:, 2]
    dropped = 0
    if log_log:
        keep = (x > 0) & (y > 0)
        dropped = int((~keep).sum())
        x = np.log(x[keep])
        y = np.log(y[keep])
    if len(x) < 3:
        raise BlockTooSmall(f"need at least 3 pairs to fit, got {len(x)}")

    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise DegenerateDesign("regressor has zero variance")
    beta = float(xc @ (y - y.mean())) / sxx
    alpha = float(y.mean() - beta * x.mean())
    resid = y - alpha - beta * x
    syy = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if syy == 0.0 else max(0.0, 1.0 - float(resid @ resid) / syy)
    return RegressionReport(beta_hat=beta, alpha_hat=alpha, r_squared=r2,
                            pairs=pairs, m=0, log_log=log_log,
                            dropped=dropped)


def fit_blocks(series: TickSeries, m: int, log_log: bool = False,
               K: int | None = None) -> RegressionReport:
    """Convenience: :func:`block_estimates` followed by :func:`ols`."""
    return replace(ols(block_estimates(series, m, K=K), log_log=log_log), m=m)
