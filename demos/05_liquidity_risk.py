"""Estimate the quadratic variation of the noise-variance path.

The per-tick noise variance proxies the cost of trading; its quadratic
variation over a window aggregates how much that cost itself moved, an
"aggregate liquidity risk".  Here the variance path is a mean-reverting
diffusion the simulator exports, so the estimate has a known target.
"""

import math
from dataclasses import replace

import numpy as np

from hfnoise import SimConfig, liquidity_report, simulate_observed
from hfnoise.simulate import STEPS_PER_DAY

DAYS = 10
T = DAYS / 252.0
n = DAYS * STEPS_PER_DAY
K = int(n**0.62)
theta = 2.5e-5                       # long-run noise variance
kappa_g = 0.06 * (n // K) / T        # decorrelates over ~17 blocks
vol_g = 0.55 * theta * math.sqrt(2 * kappa_g)

cfg = SimConfig(noise_kind="custom_g", days=DAYS, sampling="regular",
                lambda_x=0, lambda_v=0, g0=theta, g_theta=theta,
                g_kappa=kappa_g, g_vol=vol_g, g_floor=5e-7)

series, truth = simulate_observed(replace(cfg, seed=403))
rep = liquidity_report(series)

print(f"{DAYS} days of one-second ticks, n = {series.n}")
print(f"noise-variance path: mean {truth.g_path.mean():.3e}, "
      f"range [{truth.g_path.min():.3e}, {truth.g_path.max():.3e}]")
print(f"\ntrue noise-variance QV:  {truth.gg:.3e}")
print(f"estimate (K = {rep.K}):   {rep.gg_hat:.3e}  "
      f"({rep.gg_hat / truth.gg - 1:+.1%})")
print(f"95% interval:            [{rep.ci_low:.3e}, {rep.ci_high:.3e}]")
print(f"interval covers truth:   {rep.ci_low <= truth.gg <= rep.ci_high}")

print("\nsmall replication (20 paths):")
hits, errs = 0, []
for i in range(20):
    s, t = simulate_observed(replace(cfg, seed=500 + i))
    r = liquidity_report(s)
    hits += r.ci_low <= t.gg <= r.ci_high
    errs.append(abs(r.gg_hat / t.gg - 1))
print(f"mean |relative error| {np.mean(errs):.2%}, coverage {hits}/20")
