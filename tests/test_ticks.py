import io
import math
import re
from contextlib import contextmanager
from decimal import ROUND_DOWN, ROUND_HALF_EVEN, ROUND_UP, Context, Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hfnoise import (FewerThanTwoTicks, HFNoiseError, MalformedRow,
                     NonFiniteValue, NonMonotoneTimes, SimConfig, TickSeries,
                     load_csv, simulate_observed, ticks, write_csv)
from hfnoise.ticks import SECONDS_PER_YEAR

from conftest import make_series


class TestLoadCsv:
    def test_minimal_parse(self):
        s = load_csv("time,price\n0.0,4.60\n1.0,4.61\n2.0,4.59")
        assert s.n == 2
        assert s.times.tolist() == [0.0, 1.0, 2.0]
        assert s.prices.tolist() == [4.60, 4.61, 4.59]

    def test_duplicate_time_keeps_last(self):
        s = load_csv("time,price\n0.0,1.0\n1.0,2.0\n1.0,3.0\n2.0,4.0")
        assert s.n == 2
        assert s.prices.tolist() == [1.0, 3.0, 4.0]

    def test_unsorted_rows_sorted(self):
        s = load_csv("time,price\n2.0,3.0\n0.0,1.0\n1.0,2.0")
        assert s.times.tolist() == [0.0, 1.0, 2.0]
        assert s.prices.tolist() == [1.0, 2.0, 3.0]

    def test_utf8_bom_and_crlf(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("time,price\r\n0.0,1.0\r\n1.0,2.0\r\n"
                         .encode("utf-8-sig"))
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        s = load_csv(path)
        assert s.times.tolist() == [0.0, 1.0]
        assert s.prices.tolist() == [1.0, 2.0]
        assert load_csv(path.read_bytes()).prices.tolist() == [1.0, 2.0]

    def test_bom_after_line_one_is_rejected(self):
        with pytest.raises(MalformedRow) as err:
            load_csv("time,price\n\ufeff0.0,1.0\n1.0,2.0")
        assert err.value.line_number == 2

    def test_only_one_bom_is_removed(self):
        with pytest.raises(MalformedRow) as err:
            load_csv("\ufeff\ufefftime,price\n0.0,1.0\n1.0,2.0")
        assert err.value.line_number == 1

    def test_malformed_row_reports_line(self):
        with pytest.raises(MalformedRow) as err:
            load_csv("time,price\n0.0,1.0\nbogus\n2.0,3.0")
        assert err.value.line_number == 3

    def test_wrong_field_count(self):
        with pytest.raises(MalformedRow):
            load_csv("time,price\n0.0,1.0,9\n1.0,2.0")

    def test_bad_header(self):
        with pytest.raises(MalformedRow):
            load_csv("when,price\n0.0,1.0\n1.0,2.0")

    def test_fewer_than_two_ticks(self):
        with pytest.raises(FewerThanTwoTicks):
            load_csv("time,price\n0.0,1.0")
        with pytest.raises(MalformedRow):
            load_csv(io.StringIO(""))

    def test_non_finite(self):
        with pytest.raises(NonFiniteValue):
            load_csv("time,price\n0.0,nan\n1.0,2.0")

    def test_seconds_converted_to_years(self):
        s = load_csv("time,price\n0,1.0\n23400,2.0", time_unit="sec")
        assert s.times[1] == pytest.approx(1.0 / 252.0)

    def test_raw_prices_logged(self):
        s = load_csv("time,price\n0,100.0\n1,101.0", price_scale="raw")
        assert s.prices[0] == pytest.approx(np.log(100.0))
        with pytest.raises(NonFiniteValue):
            load_csv("time,price\n0,-3.0\n1,101.0", price_scale="raw")

    def test_file_like_and_bytes(self):
        text = "time,price\n0.0,1.0\n1.0,2.0\n"
        assert load_csv(io.StringIO(text)).n == 1
        assert load_csv(text.encode()).n == 1

    def test_cr_only_text_is_read_as_text(self):
        s = load_csv("time,price\r0,1\r1,2")
        assert s.times.tolist() == [0.0, 1.0]
        assert s.prices.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("data, line", [
        ("time,price\r\n0,1.0\r\n1,2.0\r\n2,3.5\xa0\r\n".encode("latin-1"), 4),
        (b"\x89PNG\r\n\x1a\n\x00\x00", 1),
        (b"time,price\r0,1\r\xff", 3),
        ("time,price\n0,1\u2028".encode() + b"\xc3(", 3),
        ("\ufefftime,price\n".encode() + b"0,\xe9\n", 2),
    ])
    @pytest.mark.parametrize("wrap", ["bytes", "BytesIO", "path"])
    def test_non_utf8_reports_its_line(self, tmp_path, data, line, wrap):
        if wrap == "BytesIO":
            data = io.BytesIO(data)
        elif wrap == "path":
            path = tmp_path / "bad.csv"
            path.write_bytes(data)
            data = str(path)
        with pytest.raises(MalformedRow) as err:
            load_csv(data)
        assert err.value.line_number == line
        assert "not UTF-8" in str(err.value)

    @pytest.mark.parametrize("units, message", [
        (dict(time_unit="ms"), "time_unit must be 'yr' or 'sec', got 'ms'"),
        (dict(price_scale="pct"),
         "price_scale must be 'log' or 'raw', got 'pct'"),
    ])
    def test_unit_arguments_checked_like_write_csv(self, units, message):
        s = make_series([1.0, 2.0])
        with pytest.raises(ValueError, match=re.escape(message)):
            load_csv("time,price\n0.0,1.0\n1.0,2.0", **units)
        with pytest.raises(ValueError, match=re.escape(message)):
            write_csv(s, io.StringIO(), **units)


FIELD_FORMATS = (repr, "{:.17e}".format, "{:.17E}".format, "{:.17g}".format)
SPACE = st.sampled_from(["", " ", "  ", "\t", " \t "])
BLANK = st.sampled_from(["", " ", "\t", "  "])
CORRUPTIONS = (
    lambda t, p: "x" + t + "," + p,
    lambda t, p: t,
    lambda t, p: t + "," + p + ",0",
    lambda t, p: t + ";" + p,
    lambda t, p: t + ",",
    lambda t, p: ",",
    lambda t, p: t + ",1e",
    lambda t, p: "0x1p3," + p,
)


@st.composite
def csv_exports(draw, corrupt=False):
    """A ``time,price`` export as real tools write it: CRLF or LF line
    ends, stray whitespace, exponent notation, duplicate and unsorted
    times, blank lines and maybe a BOM.  Returns ``(data, times, prices,
    bad_line)``: the bytes or text, the series it should load as (sorted,
    last duplicate kept) and, with ``corrupt``, the line number of the
    corrupted row."""
    pool = draw(st.lists(st.floats(0.0, 1e3).map(lambda t: t + 0.0),
                         min_size=2, max_size=8, unique=True))
    extra = draw(st.lists(st.sampled_from(pool), max_size=8))
    times = draw(st.permutations(pool + extra))
    prices = draw(st.lists(st.floats(-1e6, 1e6), min_size=len(times),
                           max_size=len(times)))
    fields = [(draw(st.sampled_from(FIELD_FORMATS))(t),
               draw(st.sampled_from(FIELD_FORMATS))(p))
              for t, p in zip(times, prices)]
    bad = draw(st.integers(0, len(fields) - 1)) if corrupt else None

    lines = [draw(st.sampled_from(["time,price", "time, price",
                                   " time ,price "]))]
    bad_line = None
    for i, (t, p) in enumerate(fields):
        lines += draw(st.lists(BLANK, max_size=1))
        if i == bad:
            lines.append(draw(st.sampled_from(CORRUPTIONS))(t, p))
            bad_line = len(lines)
        else:
            lines.append(draw(SPACE) + t + draw(SPACE) + "," + draw(SPACE)
                         + p + draw(SPACE))
    lines += draw(st.lists(BLANK, max_size=3))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"]))
                   for line in lines)
    if draw(st.booleans()):
        text = "\ufeff" + text
    data = draw(st.sampled_from([text, text.encode("utf-8"),
                                 io.BytesIO(text.encode("utf-8"))]))

    last = dict(zip(times, prices))
    order = sorted(last)
    return data, order, [last[t] for t in order], bad_line


class TestLoadCsvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(csv_exports())
    def test_exports_load_sorted_with_last_duplicate(self, export):
        data, times, prices, _ = export
        s = load_csv(data)
        assert s.times.tobytes() == np.array(times).tobytes()
        assert s.prices.tobytes() == np.array(prices).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(csv_exports(corrupt=True))
    def test_corrupted_row_reports_its_line(self, export):
        data, _, _, bad_line = export
        with pytest.raises(MalformedRow) as err:
            load_csv(data)
        assert err.value.line_number == bad_line
        assert f"line {bad_line}:" in str(err.value)


SPECIAL_FIELDS = ("inf", "-inf", "+Infinity", "nan", "-nan", "-0.0", "+0",
                  "1e308", "-1e308", "1.7976931348623157e308", "1.8e308",
                  "5e-324", "2.4703282292062328e-324", "2e-324", "1e-400",
                  "2.2250738585072014e-308", "2.2250738585072011e-308")
ODD_FIELDS = ("1_0", "1_000.25", "\u0661\u0662", "\u0663.\u0665", "\uff11",
              "", " ", '"1.5"', "'2'", "#3", "3#", "0x10", "1.5.", "e5", "1e",
              "1,", "\ufeff1")
ODD_CHARS = ("\x0c", "\x85", "\xa0", "\u3000", "\u2028", "\x1f", "\x1c",
             "\x0b", "\x00", "\ufeff", "\u200b", "\t", " ")
# where str.strip, float() and the C reader can disagree; a scan of all
# code points through the templates of test_every_space_and_control_char
# found no others
SPACE_AND_CONTROL = [chr(c) for c in range(0x110000)
                     if c < 0x20 or chr(c).isspace()] + [
    "\x7f", "\ufeff", "\u200b", "_", "\u0661"]
ODD_LINES = (" ", "\t", "\xa0", "\x1f", "\x0c", ",", "1", "1,2,", "#", '""')
EXACT = Context(prec=2000)


@st.composite
def near_tie(draw):
    """A 17- to 40-digit decimal at or next to the midpoint of a float and
    its upper neighbour, where a parser that rounds twice goes wrong."""
    x = draw(st.floats(allow_nan=False, allow_infinity=False,
                       max_value=1.7e308))
    mid = EXACT.divide(EXACT.add(Decimal(x), Decimal(math.nextafter(x, 1e309))),
                       2)
    digits = draw(st.integers(17, 40))
    rounding = draw(st.sampled_from([ROUND_HALF_EVEN, ROUND_DOWN, ROUND_UP]))
    return str(Context(prec=digits, rounding=rounding).plus(mid))


@st.composite
def wild_field(draw, wild):
    kind = draw(st.integers(0, 19))
    if kind < 14:
        value = draw(st.floats(allow_nan=False, allow_infinity=False))
        return draw(st.sampled_from(FIELD_FORMATS))(value)
    if kind < 18:
        return draw(near_tie())
    if kind == 19 and wild:
        return draw(st.sampled_from(ODD_FIELDS))
    return draw(st.sampled_from(SPECIAL_FIELDS))


@st.composite
def wild_pad(draw, wild):
    pad = draw(SPACE)
    if wild and draw(st.integers(0, 9)) == 0:
        pad += draw(st.sampled_from(ODD_CHARS))
    return pad


@st.composite
def wild_exports(draw):
    """``csv_exports`` widened to what breaks parsers: extreme and
    special values, long decimals at rounding ties, CR line ends,
    header-only files and, in half the examples, numbers only ``float()``
    reads, odd characters and lines, and whitespace-only lines.  Returns
    ``(data, as_stream)``: text or bytes, and whether to pass the bytes
    as a fresh ``BytesIO``."""
    wild = draw(st.booleans())
    headers = ["time,price", "time, price", " time ,price "]
    boms = ["", "\ufeff"]
    blank = st.just("")
    if wild:
        headers.append("time,price,")
        boms.append("\ufeff\ufeff")
        blank = BLANK
    lines = [draw(st.sampled_from(headers))]
    for _ in range(draw(st.integers(0, 8))):
        lines += draw(st.lists(blank, max_size=1))
        if wild and draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(ODD_LINES)))
        pads = [draw(wild_pad(wild)) for _ in range(4)]
        lines.append(pads[0] + draw(wild_field(wild)) + pads[1] + ","
                     + pads[2] + draw(wild_field(wild)) + pads[3])
    lines += draw(st.lists(blank, max_size=2))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"]))
                   for line in lines)
    text = draw(st.sampled_from(boms)) + text
    if draw(st.booleans()):
        return text, False
    return text.encode("utf-8"), draw(st.booleans())


def load_outcome(data):
    """What ``load_csv`` makes of ``data``: the loaded arrays' bytes, or
    the error's type and message."""
    try:
        s = load_csv(data)
    except HFNoiseError as exc:
        return type(exc), str(exc)
    return s.times.tobytes(), s.prices.tobytes()


@contextmanager
def line_loop_only():
    """``load_csv`` with the C-reader tier switched off: every input goes
    through the ``_parse_rows`` line loop, the reference."""
    with mock.patch.object(ticks, "_parse_fast", lambda lines: None):
        yield


@contextmanager
def counted_line_loop():
    """Counts the calls that reach ``ticks._parse_rows``."""
    calls = []
    parse_rows = ticks._parse_rows

    def counting(lines):
        calls.append(len(lines))
        return parse_rows(lines)

    with mock.patch.object(ticks, "_parse_rows", counting):
        yield calls


def assert_parses_like_line_loop(data, as_stream=False):
    fresh = (lambda: io.BytesIO(data)) if as_stream else (lambda: data)
    got = load_outcome(fresh())
    with line_loop_only():
        assert got == load_outcome(fresh())


@pytest.fixture(scope="module")
def simulated_day():
    series, _ = simulate_observed(SimConfig(seed=123))
    return series


@pytest.mark.filterwarnings("error")
class TestTwoTierParse:
    @settings(max_examples=400, deadline=None)
    @given(wild_exports())
    # times whose differences overflow float64
    @example((b"time,price\n1e308,0.0\n-8e307,0.0\n", False))
    def test_differential_against_line_loop(self, export):
        assert_parses_like_line_loop(*export)

    @pytest.mark.parametrize("template", [
        "time,price\n1{c},2\n3,4", "time,price\n{c}1,2\n3,4",
        "time,price\n1,2{c}\n3,4", "time,price\n1,{c}2\n3,4",
        "time,price\n1{c}5,2\n3,4", "time,price\n1,2\n{c}\n3,4",
        "time,price\n{c}\n1,2\n3,4", "{c}time,price\n1,2\n3,4",
        "time,price\n1,2\n3,4\n{c}",
    ])
    def test_every_space_and_control_char(self, template):
        for c in SPACE_AND_CONTROL:
            assert_parses_like_line_loop(template.format(c=c))

    @pytest.mark.parametrize("bom", [False, True])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_clean_day_export_skips_line_loop(self, tmp_path, simulated_day,
                                              bom, newline):
        path = tmp_path / "day.csv"
        with open(path, "w", encoding="utf-8-sig" if bom else "utf-8",
                  newline=newline) as fh:
            write_csv(simulated_day, fh, time_unit="sec", price_scale="raw")
        with counted_line_loop() as calls:
            got = load_outcome(path)
        assert calls == []
        with line_loop_only():
            assert got == load_outcome(path)

    @settings(max_examples=100, deadline=None)
    @given(csv_exports(corrupt=True))
    def test_corrupted_export_reaches_line_loop_once(self, export):
        with counted_line_loop() as calls:
            with pytest.raises(MalformedRow):
                load_csv(export[0])
        assert len(calls) == 1


class TestRoundTrip:
    def test_exact_roundtrip(self, rng):
        times = np.cumsum(rng.uniform(0.1, 2.0, size=500))
        prices = rng.standard_normal(500) * 1e-4 + np.log(100)
        s = TickSeries(times, prices)
        buf = io.StringIO()
        write_csv(s, buf)
        back = load_csv(buf.getvalue())
        assert np.array_equal(back.times, s.times)
        assert np.array_equal(back.prices, s.prices)

    def test_simulated_day_roundtrip(self, tmp_path, simulated_day):
        # full one-day simulated series survives a write/load cycle bit
        # for bit
        series = simulated_day
        assert series.n > 20000
        path = tmp_path / "day.csv"
        write_csv(series, path)
        back = load_csv(path)
        assert np.array_equal(back.times, series.times)
        assert np.array_equal(back.prices, series.prices)

    def test_bytes_match_one_row_at_a_time(self, rng):
        # awkward values, and more rows than one formatted slice
        awkward = [-0.0, 5e-324, -2.2250738585072014e-308, 0.1, 1 / 3,
                   -1e-5, 1e16, 2.0**53 + 2, 123456789.98765432, -1e308,
                   1.7976931348623157e308, 4.605170185988092]
        n = ticks._WRITE_ROWS + len(awkward) + 1
        times = np.concatenate(
            (np.linspace(-1.7e308, -1.1e308, n - len(awkward)),
             sorted(awkward)))
        prices = np.resize(awkward, n)
        rng.shuffle(prices)
        s = TickSeries(times, prices)
        buf = io.StringIO()
        write_csv(s, buf)
        want = "time,price\n" + "".join(
            f"{t:.17g},{p:.17g}\n" for t, p in zip(times.tolist(),
                                                  prices.tolist()))
        assert buf.getvalue() == want

    def test_roundtrip_in_seconds(self, rng):
        times = np.cumsum(rng.uniform(0.5, 2.0, size=100)) / SECONDS_PER_YEAR
        s = TickSeries(times, rng.standard_normal(100))
        buf = io.StringIO()
        write_csv(s, buf, time_unit="sec")
        back = load_csv(buf.getvalue(), time_unit="sec")
        assert np.allclose(back.times, s.times, rtol=0, atol=1e-22)
        assert np.array_equal(back.prices, s.prices)


class TestValidate:
    def test_non_monotone(self):
        with pytest.raises(NonMonotoneTimes):
            TickSeries(np.array([0.0, 1.0, 1.0]), np.zeros(3))

    def test_too_short(self):
        with pytest.raises(FewerThanTwoTicks):
            TickSeries(np.array([0.0]), np.array([1.0]))

    def test_non_finite_prices(self):
        with pytest.raises(NonFiniteValue):
            TickSeries(np.array([0.0, 1.0]), np.array([0.0, np.inf]))

    def test_immutable(self):
        s = make_series([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            s.prices[0] = 9.0
