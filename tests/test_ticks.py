import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfnoise import (FewerThanTwoTicks, MalformedRow, NonFiniteValue,
                     NonMonotoneTimes, TickSeries, load_csv, write_csv)
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

    def test_simulated_day_roundtrip(self, tmp_path):
        # full one-day simulated series survives a write/load cycle bit
        # for bit
        from hfnoise import SimConfig, simulate_observed
        series, _ = simulate_observed(SimConfig(seed=123))
        assert series.n > 20000
        path = tmp_path / "day.csv"
        write_csv(series, path)
        back = load_csv(path)
        assert np.array_equal(back.times, series.times)
        assert np.array_equal(back.prices, series.prices)

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
