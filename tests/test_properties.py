"""Property-based checks of the structural invariants."""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hfnoise import (TickSeries, avg_rv, load_csv, realized_variance, run_test,
                     write_csv)
from hfnoise.estimators import modified_rv, quarticity

from test_estimators import avg_rv_by_definition, modified_rv_by_definition

finite_prices = st.lists(
    st.floats(min_value=-1e6, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=8, max_size=64)


def build(prices):
    return TickSeries(np.arange(len(prices), dtype=float),
                      np.asarray(prices))


@given(finite_prices)
def test_csv_roundtrip_identity(prices):
    s = build(prices)
    buf = io.StringIO()
    write_csv(s, buf)
    back = load_csv(buf.getvalue())
    assert np.array_equal(back.times, s.times)
    assert np.array_equal(back.prices, s.prices)


@given(finite_prices, st.integers(min_value=1, max_value=20))
def test_avg_rv_matches_definition(prices, K):
    s = build(prices)
    if K > s.n // 2:
        K = max(1, s.n // 2)
    got = avg_rv(s, K)
    if K == 1:
        assert got == realized_variance(s)
    else:
        want = avg_rv_by_definition(s.prices, K)
        assert got == want or abs(got - want) <= 1e-12 * max(abs(want), 1.0)


@given(finite_prices, st.integers(min_value=2, max_value=20))
def test_modified_rv_matches_definition_and_bound(prices, K):
    s = build(prices)
    K = min(K, s.n - 1)
    got = modified_rv(s, K)
    want = modified_rv_by_definition(s.prices, K)
    assert got == want or abs(got - want) <= 1e-12 * max(abs(want), 1.0)
    assert got <= realized_variance(s) * (1 + 1e-12)


@given(st.floats(min_value=-50, max_value=50),
       st.floats(min_value=0.1, max_value=10))
def test_translation_and_scaling(shift, scale):
    rng = np.random.default_rng(7)
    prices = rng.standard_normal(120)
    a = build(prices)
    b = build(scale * prices + shift)
    ra = realized_variance(a)
    rb = realized_variance(b)
    assert abs(rb - scale**2 * ra) <= 1e-9 * max(scale**2 * ra, 1e-30)
    qa, qb = quarticity(a), quarticity(b)
    assert abs(qb - scale**4 * qa) <= 1e-9 * max(scale**4 * qa, 1e-30)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_statistics_never_nan(seed):
    rng = np.random.default_rng(seed)
    prices = rng.standard_normal(600) * rng.uniform(1e-6, 10)
    s = build(prices)
    for kind in ("N", "V", "Vprime", "Vbar"):
        rep = run_test(s, kind, K=20, window=3)
        assert np.isfinite(rep.statistic)
        assert 0.0 <= rep.p_value <= 1.0
