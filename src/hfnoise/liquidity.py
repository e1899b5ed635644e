"""Aggregate liquidity risk: quadratic variation of the noise-variance path.

The point estimate rescales the pooled block statistic of
:func:`hfnoise.stationarity.block_diff_mean_sq`; its sampling error is
approximated by a two-term finite-sample variance proxy built from block
realized variances and block quarticities, giving a symmetric 95%
confidence interval.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._accum import block_sums, csum, window_sums
from .errors import InvalidWindow
from .estimators import _check_K, _increments
from .stationarity import block_diff_mean_sq
from .ticks import TickSeries

Z_95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class LiquidityReport:
    """Point estimate, variance proxy and 95% interval for the
    noise-variance quadratic variation."""

    gg_hat: float
    gamma_hat: float
    ci_low: float
    ci_high: float
    K: int
    l: int
    r: int
    degenerate: bool = False
    note: str = ""


def default_liquidity_K(n: int) -> int:
    """Default block size ``floor(n**0.62)``, inside the admissible
    rate band (exponent strictly between 3/5 and 2/3)."""
    return max(3, int(float(n) ** 0.62))


def default_span(n: int, K: int) -> int:
    """Default long-window length ``floor(sqrt(n/K))`` blocks."""
    return max(1, int(math.sqrt(n / K)))


def _check_span(n: int, K: int, span: int) -> None:
    r = n // K
    if span < 1 or r < span + 1:
        raise InvalidWindow(f"need 1 <= span <= n//K - 1, got span={span}, "
                            f"n//K={r}")


def noise_qv(series: TickSeries, K: int) -> float:
    """Consistent estimate of the noise-variance quadratic variation.

    ``(3n / (2 K^2))`` times the pooled squared block-RV differences.

    Raises
    ------
    InvalidK
        If ``K < 1`` or fewer than 3 blocks fit.
    """
    _check_K(K, series.n, 1, series.n // 3)
    return 1.5 * series.n / (K * K) * block_diff_mean_sq(series, K)


def noise_qv_stderr(series: TickSeries, K: int, span: int):
    """Finite-sample standard error proxy for :func:`noise_qv`.

    Two components: a long-window term aggregating ``span`` consecutive
    squared block-RV differences (discretization part, non-vanishing) and
    a per-block term in block quarticities and block realized variances
    (noise part, vanishing).  A negative total clamps to zero.

    Returns
    -------
    (float, bool)
        The standard error and a degenerate flag (True if clamped).

    Raises
    ------
    InvalidK
        If ``K < 1`` or fewer than 3 blocks fit.
    InvalidWindow
        If ``span < 1`` or fewer than ``span + 1`` blocks fit.
    """
    _check_K(K, series.n, 1, series.n // 3)
    _check_span(series.n, K, span)
    inc = _increments(series)
    rv_b = inc.block_sums(K)
    q_b = block_sums(inc.d2 * inc.d2, K)

    # windows i = 1..r-span of the sum of `span` consecutive squared steps
    win = window_sums(np.diff(rv_b) ** 2, span)
    term1 = 27.0 / (128.0 * span * span * K**4) * csum(win * win)

    per_block = (4.0 / K**2 * q_b * q_b
                 - 14.0 / K**3 * q_b * rv_b * rv_b
                 + 13.0 / K**4 * rv_b**4)
    term2 = 27.0 / (8.0 * K * K) * csum(per_block)

    total = term1 + term2
    if total <= 0.0:
        return 0.0, total < 0.0
    return math.sqrt(total), False


def liquidity_report(series: TickSeries, K: int | None = None,
                     span: int | None = None) -> LiquidityReport:
    """Assemble estimate, standard error and 95% interval.

    ``K`` defaults to ``floor(n**0.62)`` and ``span`` to
    ``floor(sqrt(n/K))``.  The interval is reported symmetric and
    unclipped; a note flags a negative lower bound (the target quantity
    is nonnegative, clipping would misstate coverage).
    """
    n = series.n
    if K is None:
        K = default_liquidity_K(n)
    gg = noise_qv(series, K)   # checks K before default_span divides by it
    if span is None:
        span = default_span(n, K)
    gamma, degenerate = noise_qv_stderr(series, K, span)
    lo = gg - Z_95 * gamma
    hi = gg + Z_95 * gamma
    note = "ci_low below 0; the estimand is nonnegative" if lo < 0 else ""
    return LiquidityReport(gg_hat=gg, gamma_hat=gamma, ci_low=lo, ci_high=hi,
                           K=K, l=span, r=n // K, degenerate=degenerate,
                           note=note)
