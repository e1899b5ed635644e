"""Simulate one trading day of noisy ticks and inspect the estimators.

The simulated market has a jump-diffusion log price with square-root
stochastic variance, additive microstructure noise, price-grid rounding
and Poisson-thinned observation times.  The exported ground truth lets us
see how well the realized-variance family recovers integrated variance.
"""

from hfnoise import (SimConfig, avg_rv, default_K, noise_moments,
                     realized_variance, simulate_observed, tsrv, write_csv,
                     wtsrv)

cfg = SimConfig(days=1, avg_dt_seconds=1.0, noise_kind="stationary", seed=42)
series, truth = simulate_observed(cfg)

print(f"ticks:              {len(series)} (n = {series.n} increments)")
print(f"time span:          {series.times[-1] * 252:.3f} business days")
print(f"true integrated variance: {truth.iv:.6e}")
print(f"true quadratic variation: {truth.qv:.6e} "
      f"({len(truth.x_jump_times)} price jumps)")

K = default_K(series.n)
rv_full = realized_variance(series)
weighted = wtsrv(series, K)
print(f"\nsubsampling step K = {K}")
print(f"realized variance (full grid):   {rv_full:.6e}   <- noise dominated")
print(f"subsample-averaged RV:           {avg_rv(series, K):.6e}")
print(f"two-scale estimate:              {tsrv(series, K):.6e}")
print(f"sample-weighted two-scale:       {weighted:.6e}")
print(f"relative error vs truth:         "
      f"{weighted / truth.qv - 1:+.2%}")

nm = noise_moments(series)
print(f"\nnoise second moment:  {nm.m2_hat:.3e} (true {cfg.a0**2:.3e})")
print(f"noise fourth moment:  {nm.q4_hat:.3e} (Gaussian: {3 * cfg.a0**4:.3e})")

# The full-grid RV divided by 2n is the classic noise-variance estimate;
# the ratio against the two-scale estimate shows how much of the raw RV
# is microstructure, not volatility.
print(f"\nnoise share of raw RV: {1 - weighted / rv_full:.1%}")

write_csv(series, "demo_day.csv")
print("\nwrote demo_day.csv (reload with hfnoise.load_csv)")
