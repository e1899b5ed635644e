"""Market simulator: jump-diffusion latent price with stochastic volatility,
several noise regimes, price rounding and inhomogeneous Poisson sampling.

The latent pair follows, on a one-second Euler grid (23 400 steps per day,
times in years with one business day = 1/252):

    dX      = mu dt + sigma dW + J_X dN_X
    dsigma2 = kappa (sigma_bar2 - sigma2) dt + delta sigma dB
              + sigma_- J_V dN_V,      corr(dW, dB) = rho

Price jumps are normal, volatility jumps add ``sigma_- * exp(z)`` with
normal ``z``; jump intensities are per year.  The initial squared
volatility is drawn from the stationary Gamma law of the square-root
diffusion.  Observations are taken at inhomogeneous-Poisson times (rate
modulated by a cosine over the trading day), carry additive noise, and are
rounded down to a fixed grid.

Noise regimes (``noise_kind``):

* ``stationary`` -- i.i.d. centred Gaussian, constant variance ``a0**2``.
* ``ushape`` -- a daily U-curve variance profile (elevated near open and
  close) applied to a short Gaussian moving average with generalized
  binomial weights; the curve is normalized so its daily mean weight is 1.
* ``custom_g`` -- the per-tick noise variance itself follows an exogenous
  (optionally mean-reverting) diffusion with constant coefficients.
* ``linear_g`` -- the per-tick noise variance is an affine function of the
  concurrent spot variance.

Ground truth (integrated variance/quarticity, the noise-variance path and
its quadratic variation, jump times and sizes) is exported for oracle
comparisons.  With all randomness drawn from the supplied generator every
output is reproducible bit for bit.
"""

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.signal import lfilter

from ._accum import CHUNK, csum
from .errors import InvalidConfig, InvalidU
from .ticks import DAYS_PER_YEAR, SECONDS_PER_DAY, SECONDS_PER_YEAR, TickSeries

STEPS_PER_DAY = int(SECONDS_PER_DAY)
DT_YEARS = 1.0 / SECONDS_PER_YEAR


@dataclass(frozen=True)
class SimConfig:
    """Full simulation configuration.

    Defaults reproduce a realistic large-cap calibration: annualized drift
    and volatility-of-volatility, rare jumps, noise standard deviation
    5e-3 on log prices and 1e-5 price-grid rounding.
    """

    x0: float = math.log(100.0)
    mu: float = 0.03
    rho: float = -0.6
    lambda_x: float = 6.0
    theta_x: float = 0.0016
    nu_x: float = 0.004
    kappa: float = 6.0
    sigma_bar2: float = 0.16
    delta: float = 0.5
    lambda_v: float = 12.0
    theta_v: float = -5.0
    nu_v: float = 0.8
    a0: float = 5e-3
    a1: float = 1.54e-4
    alpha_round: float = 1e-5
    ma_order: int = 10
    ma_exponent: float = 0.3
    days: int = 1
    avg_dt_seconds: float = 1.0
    noise_kind: str = "stationary"
    seed: int = 0
    sampling: str = "poisson"  # or "regular" (equidistant grid)
    intensity_amp: float = 0.5
    sigma2_0: float | None = None
    vol_floor: float = 1e-12
    # custom_g: dg = g_kappa (g_theta - g) dt + g_vol dB, reflected at g_floor
    g0: float | None = None
    g_kappa: float = 0.0
    g_theta: float | None = None
    g_vol: float = 0.0
    g_floor: float = 1e-12
    # linear_g: g_t = g_beta * sigma2_t + g_alpha
    g_beta: float = 0.0
    g_alpha: float = 0.0

    def __post_init__(self):
        if min(self.lambda_x, self.lambda_v, self.kappa, self.sigma_bar2,
               self.delta, self.nu_x, self.nu_v, self.a0, self.a1) < 0:
            raise InvalidConfig("rates, intensities and scales must be >= 0")
        if abs(self.rho) > 1:
            raise InvalidConfig(f"|rho| must be <= 1, got {self.rho}")
        if not -0.5 < self.ma_exponent < 0.5:
            raise InvalidConfig(f"ma_exponent must be in (-0.5, 0.5), "
                                f"got {self.ma_exponent}")
        if self.alpha_round < 0:
            raise InvalidConfig("alpha_round must be >= 0 (0 disables rounding)")
        if self.days < 1 or self.avg_dt_seconds <= 0:
            raise InvalidConfig("need days >= 1 and avg_dt_seconds > 0")
        if self.noise_kind not in ("stationary", "ushape", "custom_g",
                                   "linear_g"):
            raise InvalidConfig(f"unknown noise_kind {self.noise_kind!r}")
        if self.sampling not in ("poisson", "regular"):
            raise InvalidConfig(f"unknown sampling {self.sampling!r}")


@dataclass(frozen=True)
class SimTruth:
    """Simulation ground truth for oracle comparisons.

    ``iv``/``iq`` are fine-grid Riemann sums of sigma^2 and sigma^4 over
    the whole horizon, ``qv = iv + sum of squared price jumps`` is the
    target of the two-scale estimators, ``gg`` is the quadratic variation
    of the per-tick noise-variance path (exactly 0 for stationary noise).
    """

    iv: float
    iq: float
    qv: float
    gg: float
    iv_per_day: np.ndarray
    g_path: np.ndarray
    x_jump_times: np.ndarray
    x_jump_sizes: np.ndarray
    v_jump_times: np.ndarray
    v_jump_sizes: np.ndarray


def _euler_kernel(x0, s20, mu, kappa, sbar2, delta, dt, floor,
                  zw, zb, jump_x, jump_v):
    """Euler steps of the price and the reflected square-root variance.

    Step ``i`` is ``x[i+1] = x[i] + mu dt + s sqrt(dt) zw[i] + jump_x[i]``
    and ``s2[i+1] = s2[i] + kappa (sbar2 - s2[i]) dt
    + delta s sqrt(dt) zb[i] + s jump_v[i]``, reflected at ``floor``, with
    ``s = sqrt(s2[i])``.  The variance recursion runs over Python floats in
    slices of ``CHUNK`` steps and adds the jump term only where there is a
    jump (``s * 0.0`` leaves the sum as it is).  Each slice of the price
    path is one ``np.cumsum`` over the interleaved terms ``x[a], mu dt,
    diffusion, jump, mu dt, ...``: ``add.accumulate`` adds in order, so
    every third partial sum is the sequential step bit for bit.
    """
    n = len(zw)
    sqrt = math.sqrt
    sdt = sqrt(dt)
    x = np.empty(n + 1)
    s2 = np.empty(n + 1)
    x[0] = x0
    s2[0] = v = s20
    for a in range(0, n, CHUNK):
        b = min(a + CHUNK, n)
        out = []
        append = out.append
        for z, j in zip(zb[a:b].tolist(), jump_v[a:b].tolist()):
            s = sqrt(v)
            v = v + kappa * (sbar2 - v) * dt + delta * s * sdt * z
            if j:
                v += s * j
            if v < floor:
                v = 2.0 * floor - v
            append(v)
        s2[a + 1:b + 1] = out
        terms = np.empty(3 * (b - a) + 1)
        terms[0] = x[a]
        terms[1::3] = mu * dt
        terms[2::3] = np.sqrt(s2[a:b]) * sdt * zw[a:b]
        terms[3::3] = jump_x[a:b]
        x[a + 1:b + 1] = np.cumsum(terms)[3::3]
    return x, s2


def _ou_kernel(g0, kappa, theta, vol, floor, dts, z):
    """Exact Ornstein-Uhlenbeck steps over the spacings ``dts``, reflected
    at ``floor``: ``g[i+1] = theta + phi (g[i] - theta) + sd z[i]`` with
    ``phi = exp(-kappa dt)`` and ``sd = vol sqrt((1 - phi^2) / (2 kappa))``
    (``phi = 1``, ``sd = vol sqrt(dt)`` when ``kappa <= 0``).

    ``phi`` and ``sd`` are vectorized per slice of ``CHUNK`` steps, with
    one ``math.exp`` per distinct spacing (regular sampling repeats one);
    the recursion runs over Python floats.
    """
    n = len(z)
    exp = math.exp
    g = np.empty(n + 1)
    g[0] = v = g0
    for a in range(0, n, CHUNK):
        b = min(a + CHUNK, n)
        if kappa > 0.0:
            u, inv = np.unique(-kappa * dts[a:b], return_inverse=True)
            phi = np.array([exp(t) for t in u.tolist()])[inv]
            sd = vol * np.sqrt((1.0 - phi * phi) / (2.0 * kappa))
        else:
            phi = np.ones(b - a)
            sd = vol * np.sqrt(dts[a:b])
        out = []
        append = out.append
        for p, e in zip(phi.tolist(), (sd * z[a:b]).tolist()):
            v = theta + p * (v - theta) + e
            if v < floor:
                v = 2.0 * floor - v
            append(v)
        g[a + 1:b + 1] = out
    return g


def _poisson_jumps(rng, lam, horizon_years, n_steps):
    """Poisson jump times over the horizon mapped onto Euler steps."""
    count = rng.poisson(lam * horizon_years)
    times = np.sort(rng.uniform(0.0, horizon_years, size=count))
    steps = np.minimum((times / DT_YEARS).astype(np.int64), n_steps - 1)
    return times, steps


def stationary_variance_draw(config: SimConfig,
                             rng: np.random.Generator) -> float:
    """Draw the initial squared volatility from the stationary Gamma law
    of the square-root diffusion (point mass at the mean when the
    volatility of volatility is zero)."""
    if config.delta == 0.0:
        return config.sigma_bar2
    shape = 2.0 * config.kappa * config.sigma_bar2 / config.delta**2
    scale = config.delta**2 / (2.0 * config.kappa)
    return float(rng.gamma(shape, scale))


def simulate_latent(config: SimConfig, rng: np.random.Generator):
    """Simulate the latent price and spot-variance paths on the fine grid.

    Returns
    -------
    (x, sigma2, info)
        Fine-grid log-price and variance arrays (``days * 23400 + 1``
        nodes at one-second spacing) and a dict with integrated
        variance/quarticity and jump times/sizes.
    """
    n_steps = config.days * STEPS_PER_DAY
    horizon = config.days / DAYS_PER_YEAR

    if config.sigma2_0 is not None:
        s20 = float(config.sigma2_0)
    else:
        s20 = stationary_variance_draw(config, rng)

    zw = rng.standard_normal(n_steps)
    zi = rng.standard_normal(n_steps)
    zb = config.rho * zw + math.sqrt(1.0 - config.rho**2) * zi

    xj_times, xj_steps = _poisson_jumps(rng, config.lambda_x, horizon, n_steps)
    xj_sizes = (config.theta_x
                + math.sqrt(config.nu_x) * rng.standard_normal(len(xj_times)))
    vj_times, vj_steps = _poisson_jumps(rng, config.lambda_v, horizon, n_steps)
    vj_sizes = np.exp(config.theta_v
                      + math.sqrt(config.nu_v) * rng.standard_normal(len(vj_times)))

    jump_x = np.zeros(n_steps)
    np.add.at(jump_x, xj_steps, xj_sizes)
    jump_v = np.zeros(n_steps)
    np.add.at(jump_v, vj_steps, vj_sizes)

    x, s2 = _euler_kernel(config.x0, s20, config.mu, config.kappa,
                          config.sigma_bar2, config.delta, DT_YEARS,
                          config.vol_floor, zw, zb, jump_x, jump_v)

    left = s2[:-1]
    iv_per_day = np.array([
        csum(left[d * STEPS_PER_DAY:(d + 1) * STEPS_PER_DAY]) * DT_YEARS
        for d in range(config.days)
    ])
    info = {
        "iv": float(iv_per_day.sum()),
        "iq": csum(left * left) * DT_YEARS,
        "iv_per_day": iv_per_day,
        "x_jump_times": xj_times,
        "x_jump_sizes": xj_sizes,
        "v_jump_times": vj_times,
        "v_jump_sizes": vj_sizes,
        "x_jump_sq": float(np.sum(xj_sizes**2)),
    }
    return x, s2, info


def sample_times(config: SimConfig, rng: np.random.Generator,
                 day: int) -> np.ndarray:
    """Observation times (seconds within one trading day) from an
    inhomogeneous Poisson process.

    The instantaneous rate is ``(1 + amp * cos(2 pi t / T)) / avg_dt``
    with ``T`` one trading day; thinning uses the constant majorant
    ``(1 + amp) / avg_dt``.  The cosine integrates to zero over the day,
    so the expected count is ``23400 / avg_dt`` regardless of ``amp``.
    With ``sampling='regular'`` an equidistant grid of the same expected
    count is returned instead (no randomness consumed).
    """
    if config.sampling == "regular":
        count = int(round(SECONDS_PER_DAY / config.avg_dt_seconds))
        return SECONDS_PER_DAY / count * np.arange(1, count + 1)
    amp = config.intensity_amp
    lam_max = (1.0 + amp) / config.avg_dt_seconds
    count = rng.poisson(lam_max * SECONDS_PER_DAY)
    t = np.sort(rng.uniform(0.0, SECONDS_PER_DAY, size=count))
    if amp > 0.0:
        accept = rng.uniform(size=count) * (1.0 + amp) \
            <= 1.0 + amp * np.cos(2.0 * np.pi * t / SECONDS_PER_DAY)
        t = t[accept]
    return t


def fractional_ma_coeffs(u: float, order: int) -> np.ndarray:
    """Generalized binomial moving-average weights ``psi_1 .. psi_order``.

    ``psi_j = psi_{j-1} * (u + j - 1) / j`` with ``psi_0 = 1``, i.e. the
    coefficients of ``(1 - L)^{-u}`` truncated after ``order`` lags.

    Raises
    ------
    InvalidU
        If ``u`` is outside ``(-0.5, 0.5)`` or ``order`` is negative.
    """
    if not -0.5 < u < 0.5:
        raise InvalidU(f"u must be in (-0.5, 0.5), got {u}")
    if order < 0:
        raise InvalidU(f"order must be >= 0, got {order}")
    psi = np.empty(order)
    prev = 1.0
    for j in range(1, order + 1):
        prev = prev * (u + j - 1.0) / j
        psi[j - 1] = prev
    return psi


def _ushape_weights(count: int) -> np.ndarray:
    i = np.arange(1, count + 1, dtype=np.float64)
    return 60.0 / 17.0 * ((i / count - 0.5) ** 2 + 0.2)


def make_noise(config: SimConfig, rng: np.random.Generator,
               ticks_sec: np.ndarray, sigma2_fine: np.ndarray):
    """Noise values and the per-tick conditional noise-variance path.

    Parameters
    ----------
    ticks_sec : np.ndarray
        Observation times in seconds from the horizon start (sorted).
    sigma2_fine : np.ndarray
        Fine-grid variance path (used by the ``ushape`` scaling and the
        ``linear_g`` link).

    Returns
    -------
    (eps, g_path)
        The additive noise at each tick and its conditional variance.
    """
    m = len(ticks_sec)
    if config.noise_kind == "stationary":
        g = np.full(m, config.a0**2)
        return config.a0 * rng.standard_normal(m), g

    if config.noise_kind == "ushape":
        psi = fractional_ma_coeffs(config.ma_exponent, config.ma_order)
        inflation = 1.0 + float(np.sum(psi * psi))
        b = np.concatenate(([1.0], psi))
        day_idx = np.minimum((ticks_sec / SECONDS_PER_DAY).astype(np.int64),
                             config.days - 1)
        eps = np.empty(m)
        g = np.empty(m)
        for d in range(config.days):
            sel = np.nonzero(day_idx == d)[0]
            nd = len(sel)
            if nd == 0:
                continue
            s2_day = sigma2_fine[d * STEPS_PER_DAY:(d + 1) * STEPS_PER_DAY]
            omega2 = config.a1 * math.sqrt(float(np.mean(s2_day**2)))
            z = math.sqrt(omega2) * rng.standard_normal(nd + config.ma_order)
            e = lfilter(b, [1.0], z)[config.ma_order:]
            w = _ushape_weights(nd)
            eps[sel] = np.sqrt(w) * e
            g[sel] = w * omega2 * inflation
        return eps, g

    if config.noise_kind == "custom_g":
        theta = config.g_theta if config.g_theta is not None else config.a0**2
        g0 = config.g0 if config.g0 is not None else theta
        dts = np.diff(ticks_sec, prepend=0.0) / SECONDS_PER_YEAR
        z = rng.standard_normal(m)
        g = _ou_kernel(g0, config.g_kappa, theta, config.g_vol,
                       config.g_floor, dts, z)[1:]
        return np.sqrt(g) * rng.standard_normal(m), g

    # linear_g: noise variance tied affinely to the concurrent spot variance
    idx = np.minimum(np.floor(ticks_sec).astype(np.int64),
                     len(sigma2_fine) - 1)
    g = config.g_beta * sigma2_fine[idx] + config.g_alpha
    if (g < 0).any():
        raise InvalidConfig("linear_g produced a negative noise variance")
    return np.sqrt(g) * rng.standard_normal(m), g


def observe(x_ticks: np.ndarray, noise: np.ndarray,
            alpha_round: float) -> np.ndarray:
    """Observed log prices: latent plus noise, floored to the rounding grid.

    ``alpha_round = 0`` disables rounding.
    """
    y = x_ticks + noise
    if alpha_round > 0.0:
        y = np.floor(y / alpha_round) * alpha_round
    return y


def simulate_observed(config: SimConfig, rng: np.random.Generator | None = None):
    """Full pipeline: latent paths, Poisson sampling, noise, rounding.

    Returns
    -------
    (TickSeries, SimTruth)
        The observed series (times in years; the reference tick at time 0
        is included) and the ground truth.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    x, s2, info = simulate_latent(config, rng)

    offsets = [np.array([0.0])]
    for d in range(config.days):
        offsets.append(d * SECONDS_PER_DAY + sample_times(config, rng, d))
    ticks_sec = np.concatenate(offsets)

    fine_idx = np.minimum(np.floor(ticks_sec).astype(np.int64), len(x) - 1)
    x_ticks = x[fine_idx]

    eps, g_path = make_noise(config, rng, ticks_sec, s2)
    prices = observe(x_ticks, eps, config.alpha_round)

    dg = np.diff(g_path)
    truth = SimTruth(
        iv=info["iv"],
        iq=info["iq"],
        qv=info["iv"] + info["x_jump_sq"],
        gg=csum(dg * dg),
        iv_per_day=info["iv_per_day"],
        g_path=g_path,
        x_jump_times=info["x_jump_times"],
        x_jump_sizes=info["x_jump_sizes"],
        v_jump_times=info["v_jump_times"],
        v_jump_sizes=info["v_jump_sizes"],
    )
    return TickSeries(ticks_sec / SECONDS_PER_YEAR, prices), truth


_CONFIG_FIELDS = {f.name: f for f in fields(SimConfig)}


def config_from_file(path) -> SimConfig:
    """Read a flat ``key=value`` config file.

    Lines starting with ``#`` and blank lines are ignored.  Unknown keys
    raise :class:`InvalidConfig`.
    """
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                key, val = _parse_assignment(line)
                values[key] = val
    return SimConfig(**values)


def _parse_assignment(item):
    """``(key, value)`` from one ``key=value`` config line or ``--set``
    item; whitespace around key and value is ignored."""
    if "=" not in item:
        raise InvalidConfig(f"expected key=value, got {item!r}")
    key, _, val = item.partition("=")
    key = key.strip()
    if key not in _CONFIG_FIELDS:
        raise InvalidConfig(f"unknown config key {key!r}")
    return key, _coerce(key, val.strip())


def _coerce(key, val):
    # int and str fields by their annotation; every other field is a float
    if val.lower() in ("none", ""):
        return None
    kind = _CONFIG_FIELDS[key].type
    return (kind if kind in (int, str) else float)(val)
