"""Slow reference implementations kept as oracles for the fast paths.

``fsum_block_sums`` and ``slice_window_contrasts`` are the summation
layer and the window statistic as they were before the exact vectorized
accumulator: every sum is ``math.fsum`` over a list, and every window is
re-sliced and re-summed.  ``avg_rv``, ``modified_rv``, ``wtsrv`` and
``block_estimates`` are the two-scale estimators on a price array and the
block regression's loop over blocks, as they were before the row-wise
kernel over shared squared increments; ``hfnoise.regress.block_estimates``
must match them bit for bit.  ``euler_kernel`` and ``ou_kernel`` are the
simulator's path recursions as one scalar step per array element; the
sliced kernels in ``hfnoise.simulate`` must match them bit for bit.
``norm_sf``/``norm_logsf`` are the p-values through ``scipy.stats.norm``
and ``ushape_noise`` is the ushape noise draw through
``scipy.signal.lfilter``, the wrappers the package no longer imports;
``p_value``, ``log_p_value`` and ``make_noise`` must match them bit for
bit.
"""

import math

import numpy as np
from scipy.signal import lfilter
from scipy.stats import norm

from hfnoise.simulate import (STEPS_PER_DAY, _ushape_weights,
                              fractional_ma_coeffs)
from hfnoise.ticks import SECONDS_PER_DAY


def fsum_block_sums(values, size):
    """``math.fsum`` of each consecutive length-``size`` slice."""
    r = len(values) // size
    data = values.tolist()
    return np.array(
        [math.fsum(data[i * size:(i + 1) * size]) for i in range(r)])


def fsum_window_sums(values, width):
    """``math.fsum`` of every run of ``width`` consecutive values."""
    data = values.tolist()
    return np.array([math.fsum(data[i:i + width])
                     for i in range(len(data) - width + 1)])


def scale_diff(prices, K):
    """``wtsrv - tsrv`` as ``(n-K+1)/(nK) RV - modified_rv / K``."""
    n = len(prices) - 1
    d2 = (np.diff(prices) ** 2).tolist()
    modified = 0.5 * (math.fsum(d2[1:n - K + 1]) + math.fsum(d2[K:n]))
    return (n - K + 1) / (n * K) * math.fsum(d2) - modified / K


def slice_window_contrasts(prices, K, window, starts):
    """``sqrt(K) * scale_diff`` on each window, re-indexed as its own
    series."""
    rt = math.sqrt(K)
    out = np.empty(len(starts))
    for j, b in enumerate(starts):
        out[j] = rt * scale_diff(prices[b * K:(b + window) * K + 1], K)
    return out


def overlap_mean_sq(series, K, window):
    cnt = series.n // K - window + 1
    devs = slice_window_contrasts(series.prices, K, window, range(cnt))
    return math.fsum((devs * devs).tolist()) / cnt


def nonoverlap_mean_sq(series, K, window):
    cnt = series.n // (window * K)
    starts = [i * window for i in range(cnt)]
    devs = slice_window_contrasts(series.prices, K, window, starts)
    return math.fsum((devs * devs).tolist()) / cnt


def block_diff_mean_sq(series, K):
    rv = fsum_block_sums(np.diff(series.prices) ** 2, K)
    steps = np.diff(rv)
    return math.fsum((steps * steps).tolist()) / (4.0 * series.n)


def noise_qv_stderr(series, K, span):
    """The liquidity standard-error proxy with every window of ``span``
    squared block-RV steps summed by ``math.fsum``."""
    d2 = np.diff(series.prices) ** 2
    rv_b = fsum_block_sums(d2, K)
    q_b = fsum_block_sums(d2 * d2, K)
    win = fsum_window_sums(np.diff(rv_b) ** 2, span)
    term1 = (27.0 / (128.0 * span * span * K**4)
             * math.fsum((win * win).tolist()))
    per_block = (4.0 / K**2 * q_b * q_b
                 - 14.0 / K**3 * q_b * rv_b * rv_b
                 + 13.0 / K**4 * rv_b**4)
    term2 = 27.0 / (8.0 * K * K) * math.fsum(per_block.tolist())
    return math.sqrt(max(term1 + term2, 0.0))


def rv(prices):
    d = np.diff(prices)
    return math.fsum((d * d).tolist())


def avg_rv(prices, K):
    """Mean subgrid realized variance as a sum of the leading lag-K
    squared differences."""
    n = len(prices) - 1
    if K == 1:
        return rv(prices)
    keep = K * (n // K - 1)
    dk = prices[K:keep + K] - prices[:keep]
    return math.fsum((dk * dk).tolist()) / K


def modified_rv(prices, K):
    n = len(prices) - 1
    d2 = (np.diff(prices) ** 2).tolist()
    return 0.5 * (math.fsum(d2[1:n - K + 1]) + math.fsum(d2[K:n]))


def wtsrv(prices, K):
    return avg_rv(prices, K) - modified_rv(prices, K) / K


def block_estimates(series, m, K):
    """(start time, wtsrv / duration, RV / (2m)) per block of ``m``
    increments, one block at a time."""
    rows = []
    for i in range(series.n // m):
        lo, hi = i * m, (i + 1) * m
        p = series.prices[lo:hi + 1]
        duration = series.times[hi] - series.times[lo]
        rows.append((series.times[lo], wtsrv(p, K) / duration,
                     rv(p) / (2.0 * m)))
    return np.array(rows)


def euler_kernel(x0, s20, mu, kappa, sbar2, delta, dt, floor,
                 zw, zb, jump_x, jump_v):
    n = zw.shape[0]
    x = np.empty(n + 1)
    s2 = np.empty(n + 1)
    x[0] = x0
    s2[0] = s20
    sdt = math.sqrt(dt)
    for i in range(n):
        s = math.sqrt(s2[i])
        x[i + 1] = x[i] + mu * dt + s * sdt * zw[i] + jump_x[i]
        v = s2[i] + kappa * (sbar2 - s2[i]) * dt + delta * s * sdt * zb[i] \
            + s * jump_v[i]
        if v < floor:
            v = 2.0 * floor - v
        s2[i + 1] = v
    return x, s2


def ou_kernel(g0, kappa, theta, vol, floor, dts, z):
    n = z.shape[0]
    g = np.empty(n + 1)
    g[0] = g0
    for i in range(n):
        dt = dts[i]
        if kappa > 0.0:
            phi = math.exp(-kappa * dt)
            sd = vol * math.sqrt((1.0 - phi * phi) / (2.0 * kappa))
        else:
            phi = 1.0
            sd = vol * math.sqrt(dt)
        v = theta + phi * (g[i] - theta) + sd * z[i]
        if v < floor:
            v = 2.0 * floor - v
        g[i + 1] = v
    return g


def norm_sf(statistic):
    return float(norm.sf(statistic))


def norm_logsf(statistic):
    return float(norm.logsf(statistic))


def ushape_noise(config, rng, ticks_sec, sigma2_fine):
    """``make_noise`` for ``noise_kind="ushape"``, with the moving average
    of each day's draws taken by ``lfilter``."""
    psi = fractional_ma_coeffs(config.ma_exponent, config.ma_order)
    inflation = 1.0 + float(np.sum(psi * psi))
    b = np.concatenate(([1.0], psi))
    day_idx = np.minimum((ticks_sec / SECONDS_PER_DAY).astype(np.int64),
                         config.days - 1)
    eps = np.empty(len(ticks_sec))
    g = np.empty(len(ticks_sec))
    for d in range(config.days):
        sel = np.nonzero(day_idx == d)[0]
        if len(sel) == 0:
            continue
        s2_day = sigma2_fine[d * STEPS_PER_DAY:(d + 1) * STEPS_PER_DAY]
        omega2 = config.a1 * math.sqrt(float(np.mean(s2_day**2)))
        z = math.sqrt(omega2) * rng.standard_normal(len(sel) + config.ma_order)
        w = _ushape_weights(len(sel))
        eps[sel] = np.sqrt(w) * lfilter(b, [1.0], z)[config.ma_order:]
        g[sel] = w * omega2 * inflation
    return eps, g
