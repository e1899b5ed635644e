"""Exact summation.

Estimator sums run over 1e5..1e6 increments with magnitudes around 1e-5
(squares near 1e-10, fourth powers near 1e-20), so plain left-to-right
accumulation loses the fourth-moment signal.  Every sum here is exact and
rounded once to nearest-even, so it is bit-identical to ``math.fsum`` and
independent of any evaluation order.

There are two paths.  The first is certified and vectorized: the
filter-then-exact pattern of Shewchuk's adaptive predicates (Discrete
Comput. Geom. 1997).  An array of ``len`` values has ``max|x| < 2**e``.
With ``M = ceil(log2(len + 2))``, two error-free extraction passes
``q = (x + s) - s``, ``r = x - q`` (Rump, Ogita & Oishi, "Accurate
floating-point summation part I", SIAM J. Sci. Comput. 31(1), 2008), with
``s = 2**(M + e)`` and then ``2**(2M + e - 52)``, split off two parts.
Every partial sum of a part is a multiple of the part's unit and below
``2**(M + e)``, so numpy sums, and prefix-sums, each part exactly in any
order; each value leaves a remainder of at most ``2**(2M + e - 105)``.
For ``count`` values with part sums ``S1`` and ``S2``,
``TwoSum(S1, S2) = (hi, err)``, and ``hi`` is the correctly rounded sum
whenever ``|err|`` plus ``count * 2**(2M + e - 105)`` is below half the
smaller gap next to ``hi``.  :func:`csum` extracts slices of ``CHUNK``
values and joins their parts with ``math.fsum``; :func:`block_sums`
extracts each block row; :func:`window_sums` extracts the whole array
once and takes each window from the prefix sums of both parts.

Whatever the certificate rejects (a sum on a rounding tie or near one, a
zero or subnormal result) goes to the second path, ``math.fsum`` itself,
one sum, block row or window at a time, in the original order.  All-zero
input returns 0.0 there without a call.

Non-finite or out-of-range input (inf, nan, exponents beyond +-900) fails
the certificate too, so ``math.fsum`` gives its result or raises its
exception (``OverflowError`` on intermediate overflow, ``ValueError`` for
``inf - inf``), which depend on the summation order.  The public functions
run with numpy's invalid and overflow warnings off, as extraction computes
``inf - inf`` on such input.
"""

import math
from itertools import chain

import numpy as np

CHUNK = 1 << 14     # values per extraction pass and per fallback list
_RANGE = 900        # exponents the certified path accepts, in +-
_MARGIN = 1.0 + 2.0**-20  # covers rounding in the certificate's own test
_quiet = np.errstate(invalid="ignore", over="ignore")


def _floats(values) -> np.ndarray:
    if isinstance(values, np.ndarray):
        return values.astype(np.float64, copy=False)
    return np.fromiter(values, dtype=np.float64)


def _fsum(x: np.ndarray) -> float:
    """``math.fsum`` of ``x``, fed as lists of ``CHUNK`` values; 0.0 for
    all-zero ``x``."""
    if not x.any():
        return 0.0
    return math.fsum(chain.from_iterable(
        x[i:i + CHUNK].tolist() for i in range(0, len(x), CHUNK)))


def _extract(X: np.ndarray):
    """Two error-free extraction passes over each row of ``X``.

    Returns ``(q1, q2, tail, ok)``: the two extracted parts, shaped like
    ``X``, whose sums and prefix sums along a row are exact; per row, the
    bound ``tail`` on what one value leaves out of ``q1 + q2``; and
    ``ok``, False where the row holds inf or nan or its exponent is outside
    the certified range.
    """
    rows, size = X.shape
    M = (size + 1).bit_length()   # ceil(log2(len + 2))
    top = np.maximum(X.max(axis=1), -X.min(axis=1))
    e = np.frexp(top)[1]   # 0 for inf and nan
    ok = np.isfinite(top) & (-_RANGE <= e) & (e <= _RANGE)
    k = np.minimum(np.maximum(e, -_RANGE), _RANGE) + M
    sigma = np.ldexp(1.0, k)
    if rows > 1:   # numpy adds a broadcast column slowly, a full array fast
        sigma = np.repeat(sigma, size).reshape(X.shape)
    q1 = X + sigma
    q1 -= sigma
    q2 = X - q1
    sigma *= 2.0 ** (M - 52)
    q2 += sigma
    q2 -= sigma
    return q1, q2, np.ldexp(1.0, k + (M - 105)), ok


def _two_sum(a, b):
    hi = a + b
    t = hi - a
    return hi, (a - (hi - t)) + (b - t)   # a + b == hi + err exactly


def _certified(hi, err, bound):
    """True where every real within ``bound`` of ``hi + err`` rounds to
    ``hi``.  A zero ``hi`` never passes, as half the gap next to zero
    rounds to 0.0, so the sign of a zero sum is left to the fallback."""
    gap = np.minimum(np.nextafter(hi, np.inf) - hi,
                     hi - np.nextafter(hi, -np.inf))
    return (np.abs(err) + bound) * _MARGIN < 0.5 * gap


def _sum(x: np.ndarray) -> float:
    """Exactly rounded sum of ``x``: the certified path over slices of
    ``CHUNK`` values, else :func:`_fsum`."""
    parts, bounds = [], []
    for i in range(0, len(x), CHUNK):
        q1, q2, tail, ok = _extract(x[None, i:i + CHUNK])
        if not ok[0]:
            return _fsum(x)
        parts += (q1.sum().item(), q2.sum().item())
        bounds.append(q1.size * tail.item())
    hi = math.fsum(parts)
    if _certified(hi, math.fsum(parts + [-hi]), math.fsum(bounds)):
        return hi
    return _fsum(x)


@_quiet
def csum(values) -> float:
    """Exactly rounded sum of a 1-d array or iterable of floats,
    bit-identical to ``math.fsum``."""
    return _sum(_floats(values))


@_quiet
def block_sums(values: np.ndarray, size: int) -> np.ndarray:
    """Exactly rounded sums of consecutive length-``size`` slices, each
    bit-identical to ``math.fsum`` of the slice.

    Trailing elements beyond ``len(values) // size`` full blocks are ignored.
    """
    x = _floats(values)
    r = len(x) // size
    x = x[:r * size]
    if size > CHUNK:
        return np.array([_sum(x[i * size:(i + 1) * size])
                         for i in range(r)])
    out = np.empty(r)
    ok = np.empty(r, bool)
    step = max(1, CHUNK // size)
    for a in range(0, r, step):
        q1, q2, tail, ok_range = _extract(
            x[a * size:(a + step) * size].reshape(-1, size))
        hi, err = _two_sum(q1.sum(axis=1), q2.sum(axis=1))
        out[a:a + step] = hi
        ok[a:a + step] = ok_range & _certified(hi, err, size * tail)
    for i in np.flatnonzero(~ok).tolist():
        out[i] = _fsum(x[i * size:(i + 1) * size])
    return out


@_quiet
def window_sums(values, width: int) -> np.ndarray:
    """Exactly rounded sums of every run of ``width`` consecutive values,
    ``len(values) - width + 1`` of them, each bit-identical to
    ``math.fsum`` of the run.

    Exact prefix sums of the two extracted parts make this O(n) for any
    ``width``.
    """
    x = _floats(values)
    cnt = len(x) - width + 1
    if width < 1 or cnt < 1:
        return np.zeros(0)
    q1, q2, tail, ok = _extract(x[None])
    S1, S2 = (np.concatenate(([0.0], np.cumsum(q[0]))) for q in (q1, q2))
    out, err = _two_sum(S1[width:] - S1[:cnt], S2[width:] - S2[:cnt])
    good = ok[0] & _certified(out, err, width * tail[0])
    for i in np.flatnonzero(~good).tolist():
        out[i] = _fsum(x[i:i + width])
    return out
