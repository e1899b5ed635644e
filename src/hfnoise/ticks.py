"""Tick-data model, CSV ingestion and validation.

A :class:`TickSeries` is the single source of truth for observation times
and log prices.  Times are stored in years (one trading day is 23 400
seconds and one business day is 1/252 year); prices are stored as log
prices.  Raw-price and seconds-based CSV files are converted on load.
"""

from dataclasses import dataclass

import numpy as np

from .errors import FewerThanTwoTicks, MalformedRow, NonFiniteValue, NonMonotoneTimes

SECONDS_PER_DAY = 23_400.0
DAYS_PER_YEAR = 252.0
SECONDS_PER_YEAR = SECONDS_PER_DAY * DAYS_PER_YEAR

_HEADER = "time,price"


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
        if not (np.diff(times) > 0).all():
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


def load_csv(source, time_unit: str = "yr", price_scale: str = "log") -> TickSeries:
    """Load a ``time,price`` CSV into a validated :class:`TickSeries`.

    Parameters
    ----------
    source : str, path, bytes or file-like
        UTF-8 text with header ``time,price`` and one record per line.
    time_unit : {'yr', 'sec'}
        Seconds-from-midnight inputs are converted to years.
    price_scale : {'log', 'raw'}
        Raw prices are log-transformed on load.

    Rows are sorted by time if needed; duplicate timestamps keep the last
    record (last trade wins).

    Raises
    ------
    MalformedRow, FewerThanTwoTicks, NonFiniteValue
    """
    _check_units(time_unit, price_scale)

    if isinstance(source, bytes):
        lines = source.decode("utf-8").splitlines()
    elif isinstance(source, str) and "\n" in source:
        lines = source.splitlines()
    elif hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        lines = data.splitlines()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()

    rows = _parse_rows(lines)
    if len(rows) < 2:
        raise FewerThanTwoTicks(f"need at least 2 records, got {len(rows)}")

    times = np.array([r[0] for r in rows])
    prices = np.array([r[1] for r in rows])
    if not (np.isfinite(times).all() and np.isfinite(prices).all()):
        raise NonFiniteValue("input contains NaN or infinity")

    # Stable sort, then keep the last record at each duplicated timestamp.
    order = np.argsort(times, kind="stable")
    times = times[order]
    prices = prices[order]
    keep = np.append(np.diff(times) > 0, True)
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
        for t, p in zip(times.tolist(), prices.tolist()):
            fh.write(f"{t:.17g},{p:.17g}\n")
    finally:
        if own:
            fh.close()
