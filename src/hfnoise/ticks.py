"""Tick-data model, CSV ingestion and validation.

A :class:`TickSeries` is the single source of truth for observation times
and log prices.  Times are stored in years (one trading day is 23 400
seconds and one business day is 1/252 year); prices are stored as log
prices.  Raw-price and seconds-based CSV files are converted on load.

:func:`load_csv` parses in two tiers over the same split lines.  numpy's
C reader parses well-formed data; ``_parse_rows``, a per-line ``float()``
loop, runs only on input the C reader refuses, such as malformed rows or
numbers only ``float()`` reads (``1_0``).  Both round correctly, so the
tiers agree bit for bit, and the line loop is the one source of parse
errors and their line numbers.
"""

import io
from dataclasses import dataclass

import numpy as np

from .errors import FewerThanTwoTicks, MalformedRow, NonFiniteValue, NonMonotoneTimes

SECONDS_PER_DAY = 23_400.0
DAYS_PER_YEAR = 252.0
SECONDS_PER_YEAR = SECONDS_PER_DAY * DAYS_PER_YEAR

_HEADER = "time,price"
_WRITE_ROWS = 1 << 14   # rows formatted into one string per write


@dataclass(frozen=True)
class TickSeries:
    """Strictly increasing observation times plus observed log prices.

    Attributes
    ----------
    times : np.ndarray
        Observation times in years, strictly increasing, ``times[0]`` is the
        reference start.
    prices : np.ndarray
        Log prices, same length as ``times``.

    The series is immutable after construction and safe to share across
    threads: its derived increments are computed once, on first use, and
    a race computes the same bits twice.  ``n`` counts increments, i.e.
    ``len(times) - 1``.
    """

    times: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        prices = np.asarray(self.prices, dtype=np.float64)
        if times.ndim != 1 or prices.ndim != 1 or len(times) != len(prices):
            raise MalformedRow(0, "times and prices must be 1-d and equally long")
        if len(times) < 2:
            raise FewerThanTwoTicks(f"need at least 2 ticks, got {len(times)}")
        if not (np.isfinite(times).all() and np.isfinite(prices).all()):
            raise NonFiniteValue("times/prices contain NaN or infinity")
        if not (times[1:] > times[:-1]).all():   # np.diff can overflow
            raise NonMonotoneTimes("times must be strictly increasing")
        times = times.copy()
        prices = prices.copy()
        times.setflags(write=False)
        prices.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "prices", prices)

    @property
    def n(self) -> int:
        """Number of increments (observations after the reference start)."""
        return len(self.times) - 1

    def __len__(self) -> int:
        return len(self.times)


def _check_units(time_unit, price_scale):
    if time_unit not in ("yr", "sec"):
        raise ValueError(f"time_unit must be 'yr' or 'sec', got {time_unit!r}")
    if price_scale not in ("log", "raw"):
        raise ValueError(f"price_scale must be 'log' or 'raw', got {price_scale!r}")


def _parse_rows(lines):
    rows = []
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        if lineno == 1:
            raw = raw.removeprefix("\ufeff")  # UTF-8 byte-order mark
        line = raw.strip()
        if not line:
            continue
        if not header_seen:
            if line.replace(" ", "") != _HEADER:
                raise MalformedRow(lineno, f"expected header '{_HEADER}', got '{line}'")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise MalformedRow(lineno, f"expected 2 fields, got {len(parts)}")
        try:
            t = float(parts[0])
            p = float(parts[1])
        except ValueError:
            raise MalformedRow(lineno, f"non-decimal field in '{line}'") from None
        rows.append((t, p))
    if not header_seen:
        raise MalformedRow(1, "empty input, missing header")
    return rows


def _read_text(source):
    """The text of ``source``: a ``str`` holding a line break is the text
    itself, any other ``str`` or path names a file."""
    if isinstance(source, str) and ("\n" in source or "\r" in source):
        return source
    if isinstance(source, bytes):
        data = source
    elif hasattr(source, "read"):
        data = source.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the prefix before the first bad byte decodes; "x" stands in for
        # that byte so a line break just before it still counts
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise MalformedRow(lineno, f"not UTF-8 text: {exc.reason} at byte "
                                   f"{exc.start}") from None


def _parse_fast(lines):
    """The data rows of ``lines`` as an (r, 2) float64 array, parsed by
    numpy's C reader, or None when the C reader refuses them or finds
    fewer than 2 rows; the caller then runs ``_parse_rows``.

    Where the C reader accepts, it reads the same numbers as
    ``_parse_rows``: both skip empty lines, split at commas and round
    decimal strings correctly.  Three differences are routed away before
    it runs.  Its newline rules differ from ``str.splitlines``, so it sees
    the split lines joined by LF, never the raw file.  It strips
    U+001C..U+001F from the ends of fields, where ``float()`` refuses
    them; ``splitlines`` already breaks lines at the first three, so a
    body holding U+001F goes to the line loop.  It emits a ``UserWarning``
    on a body without data, so such a body never reaches it.
    """
    for h, line in enumerate(lines):
        if h == 0:
            line = line.removeprefix("\ufeff")  # UTF-8 byte-order mark
        if line.strip():
            break
    else:
        return None
    if line.strip().replace(" ", "") != _HEADER:
        return None
    body = "\n".join(lines[h + 1:])
    if not body or body.isspace() or "\x1f" in body:
        return None
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", comments=None,
                          dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if rows.shape[1] != 2 or len(rows) < 2:
        return None
    return rows


def load_csv(source, time_unit: str = "yr", price_scale: str = "log") -> TickSeries:
    """Load a ``time,price`` CSV into a validated :class:`TickSeries`.

    Parameters
    ----------
    source : str, path, bytes or file-like
        UTF-8 text, optionally starting with a byte-order mark, with header
        ``time,price`` and one record per line.  Lines end in LF, CRLF or
        CR; blank lines and spaces or tabs around fields are allowed.  A
        ``str`` holding a line break is read as the text itself.
    time_unit : {'yr', 'sec'}
        Seconds-from-midnight inputs are converted to years.
    price_scale : {'log', 'raw'}
        Raw prices are log-transformed on load.

    Rows are sorted by time if needed; duplicate timestamps keep the last
    record (last trade wins).  Well-formed data is parsed by numpy's C
    reader; input it refuses is parsed again line by line with
    ``float()``, which returns the same rows or raises the line's error.

    Raises
    ------
    MalformedRow
        A missing or wrong header, a row without exactly two decimal
        fields, or bytes that are not UTF-8; ``line_number`` is the
        1-based line that holds the fault.
    FewerThanTwoTicks, NonFiniteValue
    """
    _check_units(time_unit, price_scale)

    lines = _read_text(source).splitlines()
    rows = _parse_fast(lines)
    if rows is None:
        parsed = _parse_rows(lines)
        if len(parsed) < 2:
            raise FewerThanTwoTicks(f"need at least 2 records, got {len(parsed)}")
        rows = np.array(parsed, dtype=np.float64)

    times, prices = rows.T
    if not (np.isfinite(times).all() and np.isfinite(prices).all()):
        raise NonFiniteValue("input contains NaN or infinity")

    # Stable sort, then keep the last record at each duplicated timestamp.
    order = np.argsort(times, kind="stable")
    times = times[order]
    prices = prices[order]
    keep = np.append(times[1:] > times[:-1], True)
    times = times[keep]
    prices = prices[keep]

    if time_unit == "sec":
        times = times / SECONDS_PER_YEAR
    if price_scale == "raw":
        if (prices <= 0).any():
            raise NonFiniteValue("raw prices must be positive for log transform")
        prices = np.log(prices)

    return TickSeries(times, prices)


def write_csv(series: TickSeries, dest, time_unit: str = "yr",
              price_scale: str = "log") -> None:
    """Write ``series`` as a ``time,price`` CSV.

    Values are written with 17 significant digits so that a load/write
    cycle round-trips float64 data exactly.
    """
    _check_units(time_unit, price_scale)

    times = series.times
    prices = series.prices
    if time_unit == "sec":
        times = times * SECONDS_PER_YEAR
    if price_scale == "raw":
        prices = np.exp(prices)

    own = not hasattr(dest, "write")
    fh = open(dest, "w", encoding="utf-8") if own else dest
    try:
        fh.write(_HEADER + "\n")
        for a in range(0, len(times), _WRITE_ROWS):
            rows = np.column_stack((times[a:a + _WRITE_ROWS],
                                    prices[a:a + _WRITE_ROWS])).ravel()
            fh.write("%.17g,%.17g\n" * (len(rows) // 2) % tuple(rows.tolist()))
    finally:
        if own:
            fh.close()
