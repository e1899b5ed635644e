"""Exact summation.

Estimator sums run over 1e5..1e6 increments with magnitudes around 1e-5
(squares near 1e-10, fourth powers near 1e-20), so plain left-to-right
accumulation loses the fourth-moment signal.  Every sum here is exact and
rounded once to nearest-even, so it is bit-identical to ``math.fsum`` and
independent of any evaluation order.

The accumulator is vectorized (after Neal, "Fast exact summation using
small and large superaccumulators", arXiv:1505.05571, and Demmel & Hida,
SIAM J. Sci. Comput. 2003).  ``np.frexp`` writes each float as an integer
mantissa ``M`` (``|M| < 2**53``) times a power of two.  ``M`` splits into a
signed high half of 27 bits and a low half of 26 bits, and ``np.bincount``
sums each half per exponent, or per (block, exponent).  Blocks shorter
than their exponent range are summed per (block, 16-bit limb) instead,
each half shifted into place.  Every bucket stays below ``2**53``, so the
float64 bucket sums are exact.  The work goes in slices of ``CHUNK``
values, whose temporaries stay in cache.  The buckets fold into signed
radix-``2**16`` limbs in int64; the limbs are then either combined as
Python ints (one sum) or carried and rounded row by row with numpy (many
block sums, and the windowed sums of :func:`window_sums`).

In front of the accumulator runs a certified fast path, the
filter-then-exact pattern of Shewchuk's adaptive predicates (Discrete
Comput. Geom. 1997).  A slice of ``CHUNK`` values, or a block row, of
length ``len`` has ``max|x| < 2**e``.  With ``M = ceil(log2(len + 2))``,
two error-free extraction passes ``q = (x + s) - s``, ``r = x - q`` (Rump,
Ogita & Oishi, "Accurate floating-point summation part I", SIAM J. Sci.
Comput. 31(1), 2008), with ``s = 2**(M + e)`` and then ``2**(2M + e - 52)``,
split off two parts whose sums ``S1`` and ``S2`` are exact in any order;
what is left sums to at most ``len * 2**(2M + e - 105)`` in magnitude.
``TwoSum(S1, S2) = (hi, err)``, and ``hi`` is the correctly rounded sum
whenever ``|err|`` plus that bound is below half the smaller gap next to
``hi``.  Slices of one sum are joined with ``math.fsum`` over their parts
and tested the same way.  Where the test fails (a sum on a rounding tie or
near one, a zero or subnormal result, exponents beyond +-900) the
accumulator above runs; in ``block_sums`` only for the rows that failed.

Inputs that hold inf or nan, or whose sum of magnitudes could reach
``2**1023``, go to ``math.fsum`` itself: there the result or the exception
(``OverflowError`` on intermediate overflow, ``ValueError`` for
``inf - inf``) depends on the summation order.
"""

import math

import numpy as np

CHUNK = 1 << 14     # values per bincount pass
_BUDGET = 1 << 20   # buckets per bincount pass
_BIAS = 1126        # bit 0 of the limbs is worth 2**-1126, the lowest
                    # mantissa bit of a subnormal
_LIMB = 16
_MASK = (1 << _LIMB) - 1
_POW2 = 2.0 ** np.arange(_LIMB)
_SAFE = 2.0 ** 1023
_RANGE = 900        # exponents the certified path accepts, in +-
_MARGIN = 1.0 + 2.0**-20  # covers rounding in the certificate's own test


def _floats(values) -> np.ndarray:
    if isinstance(values, np.ndarray):
        return values.astype(np.float64, copy=False)
    return np.fromiter(values, dtype=np.float64)


def _risky(x: np.ndarray, count: int) -> bool:
    """True if ``x`` holds inf or nan, or ``count`` of its values could sum
    to ``2**1023`` or more in magnitude."""
    if len(x) == 0:
        return False
    limit = _SAFE / count
    return not (x.max() < limit and -x.min() < limit)


def _limbs(x: np.ndarray, size: int):
    """Exact sums of the consecutive runs of ``size`` values in ``x``.

    ``len(x)`` is a multiple of ``size`` and at most ``CHUNK``.  Returns
    ``(L, lo)``: row ``i`` of the int64 array ``L`` is worth
    ``sum_j L[i, j] * 2**(16 * (lo + j) - _BIAS)``, with ``|L| < 2**57``.
    If the bucket table would exceed ``_BUDGET`` entries and there is more
    than one run, returns instead how many pieces to split ``x`` into.
    """
    runs = len(x) // size
    m, e = np.frexp(x)
    nz = m != 0
    if not nz.any():
        return np.zeros((runs, 1), np.int64), 0
    # bit position of the mantissa's lowest bit, counted from 2**-1126
    p = e.astype(np.intp)
    lo = (int(p.min(where=nz, initial=1 << 20)) + _BIAS - 53) // _LIMB
    p += _BIAS - 53 - lo * _LIMB
    p *= nz
    cols = (int(p.max()) + 26) // _LIMB + 2
    # Buckets are one bit wide, or a whole limb where a table of bits would
    # outgrow the values: a limb bucket sums at most 2**10 halves shifted
    # by up to 15 bits, below 2**42 each, so it stays exact in float64.
    per_limb = size < min(_LIMB * cols, 1 << 10)
    nbuckets = runs * cols * (1 if per_limb else _LIMB)
    if runs > 1 and nbuckets > _BUDGET:
        return -(-nbuckets // _BUDGET)
    base = np.arange(len(x)) // size * (nbuckets // runs) if runs > 1 else 0
    # integer halves, exact in float64: m * 2**53 = hi * 2**26 + low
    m *= 2.0**53
    hi = np.floor(m * 2.0**-26)
    m -= hi * 2.0**26
    buckets = 0
    for half, pos in ((m, p), (hi, p + 26)):
        if per_limb:
            half, pos = half * _POW2[pos & (_LIMB - 1)], pos // _LIMB
        buckets = buckets + np.bincount(pos + base, weights=half,
                                        minlength=nbuckets)
    L = buckets.astype(np.int64).reshape(runs, cols, -1)
    if per_limb:
        return L[:, :, 0], lo
    return (L << np.arange(_LIMB)).sum(axis=2), lo


def _normalize(L: np.ndarray) -> np.ndarray:
    """Carry signed limbs (``|L| < 2**61``) into digits in ``[0, 2**16)``;
    the last of the four columns added on top holds the sign carry, 0 or
    -1."""
    rows, cols = L.shape
    out = np.empty((rows, cols + 4), np.int64, order="F")
    carry = np.zeros(rows, np.int64)
    for j in range(cols + 3):
        t = carry + L[:, j] if j < cols else carry
        out[:, j] = t & _MASK
        carry = t >> _LIMB
    out[:, -1] = carry
    return out


def _round(L: np.ndarray, lo: int) -> np.ndarray:
    """Round each row of signed limbs (see :func:`_limbs`) once to
    nearest-even."""
    L = _normalize(L)
    neg = L[:, -1] < 0
    d = _normalize(np.where(neg[:, None], -L, L))[:, :-1]
    nonzero = d != 0
    cols = d.shape[1]
    top = cols - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    idx = top[:, None] - np.arange(5)
    w = np.take_along_axis(d, np.maximum(idx, 0), axis=1)
    w = np.where(idx >= 0, w, 0).astype(np.uint64)
    # the 64 bits from the leading one down, then the rounding decision
    lead_bits = np.frexp(w[:, 0].astype(np.float64))[1]
    sh = (_LIMB - lead_bits).astype(np.uint64)
    one = np.uint64(1)
    t = ((w[:, 0] << (np.uint64(48) + sh)) | (w[:, 1] << (np.uint64(32) + sh))
         | (w[:, 2] << (np.uint64(16) + sh)) | (w[:, 3] << sh)
         | (w[:, 4] >> (np.uint64(_LIMB) - sh)))
    bottom = np.argmax(nonzero, axis=1)
    sticky = (((w[:, 4] & ((one << (np.uint64(_LIMB) - sh)) - one)) != 0)
              | (bottom < top - 4))
    mant = t >> np.uint64(11)
    rest = t & np.uint64(0x7FF)
    half = np.uint64(0x400)
    up = (rest > half) | ((rest == half) & (sticky | ((mant & one) == one)))
    mant = (mant + up).astype(np.float64)
    exp = _LIMB * (lo + top) + lead_bits - 53 - _BIAS
    out = np.ldexp(mant, exp.astype(np.int32))
    out[neg] = -out[neg]
    return out


def _as_int(L: np.ndarray, lo: int) -> int:
    """The single row of limbs ``L`` as a Python int in units of
    ``2**-_BIAS``."""
    total = 0
    for j, v in enumerate(L[0].tolist()):
        total += v << (_LIMB * j)
    return total << (_LIMB * lo)


def _exact(x: np.ndarray) -> float:
    total = 0
    for i in range(0, len(x), CHUNK):
        total += _as_int(*_limbs(x[i:i + CHUNK], min(CHUNK, len(x) - i)))
    return total / (1 << _BIAS)


def _extract(X: np.ndarray):
    """Two error-free extraction passes over each row of ``X`` (at most
    ``CHUNK`` values per row).

    Returns ``(S1, S2, bound, ok)`` per row: the exact row sum lies within
    ``bound`` of ``S1 + S2``, and ``ok`` is False where the row's exponent
    is outside the certified range.
    """
    rows, size = X.shape
    M = (size + 1).bit_length()   # ceil(log2(len + 2))
    e = np.frexp(np.maximum(X.max(axis=1), -X.min(axis=1)))[1]
    ok = (-_RANGE <= e) & (e <= _RANGE)
    k = np.minimum(np.maximum(e, -_RANGE), _RANGE) + M
    sigma = np.ldexp(1.0, k)
    if rows > 1:   # numpy adds a broadcast column slowly, a full array fast
        sigma = np.repeat(sigma, size).reshape(X.shape)
    q = X + sigma
    q -= sigma
    r = X - q
    sigma *= 2.0 ** (M - 52)
    r += sigma
    r -= sigma
    bound = np.ldexp(float(size), k + (M - 105))
    return q.sum(axis=1), r.sum(axis=1), bound, ok


def _certified(hi, err, bound):
    """True where every real within ``bound`` of ``hi + err`` rounds to
    ``hi``.  A zero ``hi`` never passes, as half the gap next to zero
    rounds to 0.0, so the sign of a zero sum is left to the fallback."""
    gap = np.minimum(np.nextafter(hi, np.inf) - hi,
                     hi - np.nextafter(hi, -np.inf))
    return (np.abs(err) + bound) * _MARGIN < 0.5 * gap


def _sum(x: np.ndarray) -> float:
    """Exactly rounded sum of the finite, non-risky ``x``: the certified
    path over slices of ``CHUNK`` values, else :func:`_exact`."""
    parts, bounds = [], []
    for i in range(0, len(x), CHUNK):
        S1, S2, bound, ok = _extract(x[None, i:i + CHUNK])
        if not ok[0]:
            return _exact(x)
        parts += (S1.item(), S2.item())
        bounds.append(bound.item())
    hi = math.fsum(parts)
    if _certified(hi, math.fsum(parts + [-hi]), math.fsum(bounds)):
        return hi
    return _exact(x)


def csum(values) -> float:
    """Exactly rounded sum of a 1-d array or iterable of floats,
    bit-identical to ``math.fsum``."""
    x = _floats(values)
    if _risky(x, len(x)):
        return math.fsum(x.tolist())
    return _sum(x)


def _pieces(x: np.ndarray, size: int):
    """Limbs of the runs of ``size`` values in ``x`` (at most ``CHUNK``
    values), split until each piece's bucket table fits."""
    limbs = _limbs(x, size)
    if isinstance(limbs, tuple):
        yield limbs
        return
    step = -(-len(x) // size // limbs) * size
    for i in range(0, len(x), step):
        yield from _pieces(x[i:i + step], size)


def _digits(x: np.ndarray, size: int):
    """Exact sums of the consecutive runs of ``size <= CHUNK`` values in
    ``x`` as normalized limbs (see :func:`_normalize`) on one grid:
    ``(D, lo)``, row ``i`` worth ``sum_j D[i, j] * 2**(16 * (lo + j) - _BIAS)``."""
    step = CHUNK // size * size
    pieces = [(_normalize(L), l) for i in range(0, len(x), step)
              for L, l in _pieces(x[i:i + step], size)]
    lo = min(l for _, l in pieces)
    cols = max(l + D.shape[1] for D, l in pieces) - lo
    out = np.zeros((len(x) // size, cols), np.int64, order="F")
    row = 0
    for D, l in pieces:
        out[row:row + len(D), l - lo:l - lo + D.shape[1]] = D
        row += len(D)
    return out, lo


def block_sums(values: np.ndarray, size: int) -> np.ndarray:
    """Exactly rounded sums of consecutive length-``size`` slices, each
    bit-identical to ``math.fsum`` of the slice.

    Trailing elements beyond ``len(values) // size`` full blocks are ignored.
    """
    x = _floats(values)
    r = len(x) // size
    x = x[:r * size]
    if _risky(x, size):
        return np.array([math.fsum(x[i * size:(i + 1) * size].tolist())
                         for i in range(r)])
    if r == 0:
        return np.zeros(0)
    if size > CHUNK:
        return np.array([_sum(x[i * size:(i + 1) * size])
                         for i in range(r)])
    out = np.empty(r)
    ok = np.empty(r, bool)
    step = max(1, CHUNK // size)
    for a in range(0, r, step):
        S1, S2, bound, ok_range = _extract(
            x[a * size:(a + step) * size].reshape(-1, size))
        hi = S1 + S2
        t = hi - S1
        err = (S1 - (hi - t)) + (S2 - t)   # TwoSum: S1 + S2 == hi + err
        out[a:a + step] = hi
        ok[a:a + step] = ok_range & _certified(hi, err, bound)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        out[bad] = _round(*_digits(x.reshape(r, size)[bad].ravel(), size))
    return out


def window_sums(values, width: int) -> np.ndarray:
    """Exactly rounded sums of every run of ``width`` consecutive values,
    ``len(values) - width + 1`` of them, each bit-identical to
    ``math.fsum`` of the run.

    Exact prefix sums in limbs make this O(n) for any ``width``.
    """
    x = _floats(values)
    cnt = len(x) - width + 1
    if width < 1 or cnt < 1:
        return np.zeros(0)
    if _risky(x, width):
        return np.array([math.fsum(x[i:i + width].tolist())
                         for i in range(cnt)])
    digits, lo = _digits(x, 1)
    prefix = np.zeros((len(x) + 1, digits.shape[1]), np.int64)
    np.cumsum(digits, axis=0, out=prefix[1:])
    return _round(prefix[width:] - prefix[:cnt], lo)
