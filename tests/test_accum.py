"""The exact accumulator against ``math.fsum``, its certified fast path and
fallback, and the closed-form window statistics against the
slice-and-resum oracles in ``oracles.py``."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hfnoise as hf
from hfnoise import _accum, stationarity
from hfnoise._accum import CHUNK, block_sums, csum, window_sums

import oracles

A0 = 5e-3
MAX = 1.7976931348623157e308
TINY = 5e-324
REL = 1e-12


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type of the error it raised."""
    try:
        return fn(*args)
    except (OverflowError, ValueError) as err:
        return type(err)


def same_bits(got, want):
    if isinstance(want, type) or isinstance(got, type):
        return got is want
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_all_sums(x):
    """csum, block_sums at every size 1..n and window_sums at every width
    1..n agree bit for bit with math.fsum, or raise the same error."""
    assert same_bits(outcome(csum, x), outcome(math.fsum, x.tolist()))
    assert same_bits(outcome(csum, x.tolist()),
                     outcome(math.fsum, x.tolist()))
    for size in range(1, len(x) + 1):
        assert same_bits(outcome(block_sums, x, size),
                         outcome(oracles.fsum_block_sums, x, size)), size
        assert same_bits(outcome(window_sums, x, size),
                         outcome(oracles.fsum_window_sums, x, size)), size


special = st.sampled_from([0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308,
                           -2.2250738585072009e-308, 1e308, -1e308, MAX,
                           -MAX, 1.0, -1.0, 2.0**53, 1.0 + 2.0**-52,
                           2.0**-1022 * 3])
finite = st.floats(allow_nan=False, allow_infinity=False) | special
anything = st.floats() | special


@settings(max_examples=300, deadline=None)
@given(st.lists(finite, max_size=40))
def test_finite_values_match_fsum(values):
    assert_all_sums(np.array(values, dtype=np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(anything, max_size=24))
def test_non_finite_values_match_fsum(values):
    assert_all_sums(np.array(values, dtype=np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([1e308, -1e308, MAX, -MAX, 1.0, -1.0,
                                 TINY, 1e292]), max_size=16))
def test_cancellation_near_overflow(values):
    assert_all_sums(np.array(values, dtype=np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e-300, max_value=1e-300), max_size=40))
def test_subnormal_sums(values):
    assert_all_sums(np.array(values, dtype=np.float64))


def patterned(n, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "squares":
        return (1e-4 * rng.standard_normal(n)) ** 2
    if kind == "wide":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    if kind == "subnormal":
        return rng.standard_normal(n) * 2.0 ** rng.integers(-1074, -1000, n)
    # pairs that cancel exactly, shuffled, plus one small value
    half = rng.standard_normal(n // 2) * 10.0 ** rng.integers(-20, 20, n // 2)
    x = np.concatenate((half, -half, [1e-30] * (n % 2)))
    rng.shuffle(x)
    return x


@pytest.mark.parametrize("n", [0, 1, 2, CHUNK - 1, CHUNK + 1, 2**16 - 1, 2**16,
                               2**16 + 1])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["squares", "wide", "subnormal", "cancel"]))
def test_chunk_boundaries(n, seed, kind):
    x = patterned(n, seed, kind)
    assert same_bits(csum(x), math.fsum(x.tolist()))
    for size in {1, 2, 3, 7, 16, 1024, 1025, CHUNK - 1, CHUNK, CHUNK + 1,
                 2**16 + 1, n}:
        if 1 <= size <= max(n, 1):
            assert same_bits(block_sums(x, size),
                             oracles.fsum_block_sums(x, size))
    for width in {1, 5, 300}:
        if width <= n <= 4 * 4096:
            assert same_bits(window_sums(x, width),
                             oracles.fsum_window_sums(x, width))


def test_csum_accepts_iterables():
    values = [0.1] * 10
    assert csum(values) == csum(iter(values)) == math.fsum(values) == 1.0
    assert csum(np.arange(5)) == 10.0


# --- certified fast path and its fallback ---------------------------------

@pytest.fixture
def fallbacks(monkeypatch):
    """Counts what reaches the exact accumulator: calls of ``_exact`` (one
    sum each) and rows passed to ``_digits``."""
    seen = {"exact": 0, "rows": 0}
    exact, digits = _accum._exact, _accum._digits

    def counting_exact(x):
        seen["exact"] += 1
        return exact(x)

    def counting_digits(x, size):
        seen["rows"] += len(x) // size
        return digits(x, size)

    monkeypatch.setattr(_accum, "_exact", counting_exact)
    monkeypatch.setattr(_accum, "_digits", counting_digits)
    return seen


@pytest.fixture(scope="module", params=["stationary", "ushape", "custom_g"])
def month(request):
    return scenario(request.param, days=30)


def test_month_sums_take_the_certified_path(month, fallbacks):
    d2 = np.diff(month.prices) ** 2
    n = len(d2)
    for x in (d2, d2 * d2):
        assert same_bits(csum(x), math.fsum(x.tolist()))
        for K in (int(n**0.6), int(n**0.62)):
            assert same_bits(block_sums(x, K), oracles.fsum_block_sums(x, K))
    assert fallbacks == {"exact": 0, "rows": 0}


FALLBACK_CASES = {
    "rounding tie": [1.0, 2.0**-53],
    # a tie below a power of two, broken downward by a bit the extraction
    # leaves in its remainder
    "tie under 2**0": [1.0, -2.0**-54, -2.0**-120],
    "cancellation": [1e16, 1.0, -1e16],
    "negative zeros": [-0.0] * 5,
    "subnormals": [TINY, 3 * TINY, -TINY, 2.0**-1060],
    "near 2**1023": [2.0**1021, -3.0 * 2.0**1019, 1.0],
}


@pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
def test_uncertified_sums_fall_back(case, fallbacks):
    x = np.array(FALLBACK_CASES[case])
    assert same_bits(csum(x), math.fsum(x.tolist()))
    assert fallbacks["exact"] == 1
    assert same_bits(block_sums(x, len(x)), [math.fsum(x.tolist())])
    assert fallbacks["rows"] == 1


def fallback_row(size, k):
    """A row of ``size`` values whose sum the certificate cannot settle."""
    if size == 1:
        return [(-0.0, 0.0, TINY)[k % 3]]
    if size == 2:
        return [(1.0, 1.0 + 2.0**-52)[k % 2], 2.0**-53]  # ties
    pattern = ([1e16, 1.0, -1e16], [1.0, 2.0**-53, 0.0], [-0.0] * 3)[k % 3]
    return pattern + [0.0] * (size - 3)


@pytest.mark.parametrize("size", [1, 2, 3, CHUNK - 1, CHUNK, CHUNK + 1])
def test_mixed_rows_fall_back_one_by_one(size, fallbacks):
    rng = np.random.default_rng(size)
    rows = 7 if size > 3 else 3000
    bad = set(rng.choice(rows, size=max(2, rows // 7), replace=False).tolist())
    # the other rows sum exactly in float64, so they always certify (two
    # or three arbitrary floats often sum to a rounding tie)
    x = np.concatenate([
        fallback_row(size, k) if k in bad
        else np.round(rng.standard_normal(size) * 2**20)
        * 2.0 ** int(rng.integers(-30, 30))
        for k in range(rows)])
    assert same_bits(block_sums(x, size), oracles.fsum_block_sums(x, size))
    counted = fallbacks["exact"] if size > CHUNK else fallbacks["rows"]
    assert counted == len(bad)


# --- closed-form window statistics against the slice-and-resum oracle ----

def scenario(kind, days=1, seed=11):
    cfg = hf.SimConfig(days=days, avg_dt_seconds=1.0, sampling="regular",
                       noise_kind=kind, seed=seed)
    if kind == "custom_g":
        theta = A0 ** 2
        cfg = replace(cfg, g0=theta, g_theta=theta, g_kappa=2000.0,
                      g_vol=0.5 * theta * math.sqrt(4000.0), g_floor=5e-7)
    return hf.simulate_observed(cfg)[0]


def rel(got, want):
    return abs(got - want) / abs(want)


@pytest.fixture(scope="module", params=["stationary", "ushape", "custom_g"])
def series(request):
    return scenario(request.param)


def test_window_means_match_oracle(series):
    n = series.n
    K = stationarity.default_test_K(n, "V")
    cases = [(K, stationarity.default_window(n, K)), (K, 2), (64, 9),
             (16, 40)]
    for K, w in cases:
        assert rel(stationarity.overlap_mean_sq(series, K, w),
                   oracles.overlap_mean_sq(series, K, w)) <= REL, (K, w)
        assert rel(stationarity.nonoverlap_mean_sq(series, K, w),
                   oracles.nonoverlap_mean_sq(series, K, w)) <= REL, (K, w)


def test_contrasts_match_window_contrast(series):
    K, w = 300, 5
    starts = [0, 3, series.n // K - w]
    got = stationarity._window_contrasts(series, K, w, starts)
    want = oracles.slice_window_contrasts(series.prices, K, w, starts)
    for c, v in zip(got, want):
        assert c == pytest.approx(v, rel=1e-9, abs=1e-15)


def test_statistics_match_oracle(series):
    n = series.n
    nm = hf.noise_moments(series)
    K = stationarity.default_test_K(n, "V")
    w = stationarity.default_window(n, K)

    def pooled(mean_sq, rate):
        return rate * (mean_sq - nm.q2sum_hat) / nm.eta_hat

    want = {
        "V": pooled(oracles.overlap_mean_sq(series, K, w),
                    math.sqrt(n / K)),
        "Vprime": pooled(oracles.nonoverlap_mean_sq(series, K, w),
                         math.sqrt(n / (w * K))),
        "Vbar": pooled(oracles.block_diff_mean_sq(series, K),
                       math.sqrt(n / K)),
    }
    KN = stationarity.default_test_K(n, "N")
    want["N"] = (math.sqrt(KN) * oracles.scale_diff(series.prices, KN)
                 / math.sqrt(nm.q2sum_hat))
    for kind, value in want.items():
        assert rel(hf.run_test(series, kind).statistic, value) <= REL, kind

    liq = hf.liquidity_report(series)
    assert rel(liq.gg_hat, 1.5 * n / liq.K**2
               * oracles.block_diff_mean_sq(series, liq.K)) <= REL
    assert rel(liq.gamma_hat,
               oracles.noise_qv_stderr(series, liq.K, liq.l)) <= REL


def test_window_test_is_linear_time():
    """V at n = 7.02e5 costs a few passes over the series (about 40 ms on
    a 2-core machine), not one re-summation per window (about 2 s)."""
    rng = np.random.default_rng(5)
    big = hf.TickSeries(np.arange(702_001, dtype=float),
                        A0 * rng.standard_normal(702_001))
    stationarity.window_test(big)
    start = time.perf_counter()
    stationarity.window_test(big)
    assert time.perf_counter() - start < 1.0
