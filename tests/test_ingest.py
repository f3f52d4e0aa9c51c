import datetime as dt
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from gridcast import ingest, synthetic
from gridcast.errors import (
    AlignmentError,
    ConfigError,
    CsvParseError,
    ImputationError,
    OrderingError,
    ShapeError,
    StandardizerError,
    WindowError,
)


def hours(start, n):
    t0 = np.datetime64(start, "s")
    return t0 + np.arange(n) * np.timedelta64(3600, "s")


def write_load_csv(path, timestamps, demand):
    lines = ["timestamp_utc,demand_mw"]
    for ts, mw in zip(timestamps, demand):
        lines.append(f"{ingest.format_timestamp(ts)},{repr(float(mw))}")
    path.write_text("\n".join(lines) + "\n")


def write_weather_csv(path, rows):
    lines = ["station,timestamp_utc,temp_c,feels_like_c,humidity_pct,wind_ms,precip_mm,wx_code"]
    lines += rows
    path.write_text("\n".join(lines) + "\n")


class TestParseLoad:
    def test_two_row_identity(self, tmp_path):
        p = tmp_path / "load.csv"
        ts = hours("2024-01-01T00:00:00", 2)
        write_load_csv(p, ts, [40000.0, 41000.5])
        series = ingest.parse_load_csv(p)
        assert len(series) == 2
        np.testing.assert_array_equal(series.timestamps, ts)
        np.testing.assert_array_equal(series.demand_mw, [40000.0, 41000.5])

    def test_duplicate_hour_rejected(self, tmp_path):
        p = tmp_path / "load.csv"
        ts = hours("2024-01-01T00:00:00", 2)
        write_load_csv(p, [ts[0], ts[0]], [40000.0, 41000.0])
        with pytest.raises(OrderingError, match="duplicate"):
            ingest.parse_load_csv(p)

    def test_out_of_order_rejected(self, tmp_path):
        p = tmp_path / "load.csv"
        ts = hours("2024-01-01T00:00:00", 2)
        write_load_csv(p, [ts[1], ts[0]], [40000.0, 41000.0])
        with pytest.raises(OrderingError, match="not increasing"):
            ingest.parse_load_csv(p)

    def test_eight_year_file_has_70128_records(self, tmp_path):
        # 2018-2025 inclusive spans 2922 days
        p = tmp_path / "load.csv"
        n = 70_128
        ts = hours("2018-01-01T00:00:00", n)
        assert str(ts[-1]) == "2025-12-31T23:00:00"
        demand = np.full(n, 50_000.0)
        write_load_csv(p, ts, demand)
        assert len(ingest.parse_load_csv(p)) == 70_128

    def test_unknown_header_rejected(self, tmp_path):
        p = tmp_path / "load.csv"
        p.write_text("time,mw\n2024-01-01T00:00:00Z,4.0\n")
        with pytest.raises(CsvParseError, match="header"):
            ingest.parse_load_csv(p)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "load.csv"
        p.write_text("timestamp_utc,demand_mw\n2024-01-01T00:00:00Z,oops\n")
        with pytest.raises(CsvParseError, match="line 2"):
            ingest.parse_load_csv(p)

    def test_nonpositive_demand_rejected(self, tmp_path):
        p = tmp_path / "load.csv"
        p.write_text("timestamp_utc,demand_mw\n2024-01-01T00:00:00Z,0.0\n")
        with pytest.raises(CsvParseError, match="positive"):
            ingest.parse_load_csv(p)

    def test_infinite_demand_rejected_with_line_and_field(self, tmp_path):
        p = tmp_path / "load.csv"
        p.write_text("timestamp_utc,demand_mw\n"
                     "2024-01-01T00:00:00Z,40000.0\n2024-01-01T01:00:00Z,inf\n")
        with pytest.raises(CsvParseError, match="line 3: demand_mw"):
            ingest.parse_load_csv(p)


class TestTimestamps:
    @pytest.mark.parametrize("text", [
        "2024-01-06T03:00:00-05:00",  # numpy would shift it to 08:00 UTC
        "2024-01-06T03:00:00+00:00",
        "",
        "NaT",
    ])
    def test_rejected_as_bad_timestamp_with_line(self, tmp_path, text):
        p = tmp_path / "load.csv"
        p.write_text(f"timestamp_utc,demand_mw\n2024-01-06T02:00:00Z,40000.0\n{text},40000.0\n")
        with pytest.raises(CsvParseError, match="line 3: bad timestamp"):
            ingest.parse_load_csv(p)

    def test_offset_rejected_in_weather_file(self, tmp_path):
        p = tmp_path / "wx.csv"
        write_weather_csv(p, ["BKS,2024-01-06T03:00:00+00:00,10.0,9.0,50,3.0,0.0,0"])
        with pytest.raises(CsvParseError, match="line 2: bad timestamp"):
            ingest.parse_weather_csv(p)


class TestParseWeather:
    def test_missing_fields_become_nan(self, tmp_path):
        p = tmp_path / "wx.csv"
        write_weather_csv(p, ["BKS,2024-01-01T00:00:00Z,10.0,,50,3.0,0.0,0"])
        table = ingest.parse_weather_csv(p)
        assert np.isnan(table.values[0, 1])
        assert table.values[0, 0] == 10.0

    def test_humidity_range_enforced(self, tmp_path):
        p = tmp_path / "wx.csv"
        write_weather_csv(p, ["BKS,2024-01-01T00:00:00Z,10.0,9.0,140,3.0,0.0,0"])
        with pytest.raises(CsvParseError, match="humidity"):
            ingest.parse_weather_csv(p)

    def test_infinite_temperature_rejected_with_line_and_field(self, tmp_path):
        p = tmp_path / "wx.csv"
        write_weather_csv(p, ["BKS,2024-01-01T00:00:00Z,10.0,9.0,50,3.0,0.0,0",
                              "BKS,2024-01-01T01:00:00Z,inf,9.0,50,3.0,0.0,0"])
        with pytest.raises(CsvParseError, match="line 3: temp_c"):
            ingest.parse_weather_csv(p)

    def test_wx_code_must_be_a_known_code(self, tmp_path):
        p = tmp_path / "wx.csv"
        write_weather_csv(p, ["BKS,2024-01-01T00:00:00Z,10.0,9.0,50,3.0,0.0,4.0",
                              "BKS,2024-01-01T01:00:00Z,10.0,9.0,50,3.0,0.0,7.5"])
        with pytest.raises(CsvParseError, match="line 3: wx_code"):
            ingest.parse_weather_csv(p)

    def test_duplicate_station_hour_rejected(self, tmp_path):
        p = tmp_path / "wx.csv"
        write_weather_csv(p, [
            "BKS,2024-01-01T00:00:00Z,10.0,9.0,50,3.0,0.0,0",
            "BKS,2024-01-01T00:00:00Z,11.0,9.0,50,3.0,0.0,0",
        ])
        with pytest.raises(OrderingError, match="duplicate"):
            ingest.parse_weather_csv(p)


# station ids a CSV field cannot hold and read back as themselves
BAD_STATION_IDS = ["", " BKS", "BKS ", "A,B", 'A"B', "A\rB", "A\nB", "K" * 131_073]


class TestCsvFormat:
    @pytest.mark.parametrize("station", BAD_STATION_IDS, ids=repr)
    def test_writer_rejects_a_station_id_the_format_cannot_hold(self, tmp_path, station):
        table = weather_rows("2024-01-01T00:00:00", {"BKS": [1.0], station: [2.0]})
        path = tmp_path / "wx.csv"
        with pytest.raises(ConfigError, match="stations: station id"):
            ingest.write_weather_csv(path, table)
        assert not path.exists()

    @pytest.mark.parametrize("station", ['"JDD"', '"A,B"', 'J"DD'])
    def test_a_quote_is_rejected_with_its_line(self, tmp_path, station):
        # the csv module unquoted the first two; the format has no quoting
        p = tmp_path / "wx.csv"
        write_weather_csv(p, ["BKS,2024-01-01T00:00:00Z,10.0,9.0,50,3.0,0.0,0",
                              f"{station},2024-01-01T00:00:00Z,10.0,9.0,50,3.0,0.0,0"])
        with pytest.raises(CsvParseError, match="line 3: .*never quoted"):
            ingest.parse_weather_csv(p)

    def test_a_byte_that_is_not_utf8_is_rejected_with_its_line(self, tmp_path):
        p = tmp_path / "load.csv"
        p.write_bytes(b"timestamp_utc,demand_mw\n2024-01-01T00:00:00Z,1.0\n\n"
                      b"2024-01-01T01:00:00Z,1.0\xff\n")
        with pytest.raises(CsvParseError, match="line 4: .*not UTF-8"):
            ingest.parse_load_csv(p)

    def test_a_field_over_the_limit_is_rejected_with_its_line(self, tmp_path):
        p = tmp_path / "wx.csv"
        rows = [f"{'K' * n},2024-01-01T00:00:00Z,10.0,9.0,50,3.0,0.0,0"
                for n in (131_072, 131_073)]
        write_weather_csv(p, rows[:1])
        assert ingest.parse_weather_csv(p).station[0] == "K" * 131_072
        write_weather_csv(p, rows)
        with pytest.raises(CsvParseError, match="line 3: .*longer than 131072"):
            ingest.parse_weather_csv(p)

    def test_crlf_lines_and_a_missing_final_newline_are_read(self, tmp_path):
        p = tmp_path / "load.csv"
        p.write_bytes(b"timestamp_utc,demand_mw\r\n2024-01-01T00:00:00Z,1.0\r\n\r\n"
                      b"2024-01-01T01:00:00Z,2.5")
        series = ingest.parse_load_csv(p)
        np.testing.assert_array_equal(series.timestamps, hours("2024-01-01T00:00:00", 2))
        assert series.demand_mw.tolist() == [1.0, 2.5]

    def test_files_are_read_and_written_as_utf8(self, tmp_path, monkeypatch):
        encodings = []

        def spy_open(*args, **kwargs):
            encodings.append(kwargs.get("encoding"))
            return open(*args, **kwargs)

        monkeypatch.setattr(ingest, "open", spy_open, raising=False)
        table = weather_rows("2024-01-01T00:00:00", {"ÅRE": [1.0], "JDD": [2.0]})
        ingest.write_weather_csv(tmp_path / "wx.csv", table)
        assert "ÅRE".encode("utf-8") in (tmp_path / "wx.csv").read_bytes()
        assert ingest.parse_weather_csv(tmp_path / "wx.csv").station.tolist() == ["ÅRE", "JDD"]
        load = load_series("2024-01-01T00:00:00", [1.0])
        ingest.write_load_csv(tmp_path / "load.csv", load)
        ingest.parse_load_csv(tmp_path / "load.csv")
        ingest.write_holiday_file(tmp_path / "holidays.txt", {dt.date(2024, 7, 4)})
        ingest.parse_holiday_file(tmp_path / "holidays.txt")
        assert encodings == ["utf-8"] * 6

    def test_a_holiday_byte_that_is_not_utf8_is_a_bad_date_with_its_line(self, tmp_path):
        p = tmp_path / "holidays.txt"
        p.write_bytes(b"# \xff in a comment is skipped\n2024-07-04\n2024-12-2\xff\n")
        with pytest.raises(CsvParseError, match="line 3: bad holiday date"):
            ingest.parse_holiday_file(p)


class TestWriters:
    """A writer raises, before it opens the file, for a table its reader
    would reject, naming the field and the row."""

    def test_demand_that_is_not_positive_and_finite_is_rejected(self, tmp_path):
        path = tmp_path / "load.csv"
        with pytest.raises(ConfigError, match="row 0: demand_mw must be positive and finite, got nan"):
            ingest.write_load_csv(path, load_series("2024-01-01T00:00:00", [math.nan, -5.0]))
        assert not path.exists()

    @pytest.mark.parametrize("field, value", [
        ("humidity_pct", 140.0), ("temp_c", math.inf), ("wx_code", 9.0)])
    def test_a_weather_value_the_reader_rejects_is_rejected(self, tmp_path, field, value):
        table = weather_rows("2024-01-01T00:00:00", {"BKS": [10.0, 11.0], "JDD": [12.0, 13.0]})
        table.values[3, ingest.WEATHER_HEADER.index(field) - 2] = value
        path = tmp_path / "wx.csv"
        with pytest.raises(ConfigError, match=f"row 3: {field}={value}"):
            ingest.write_weather_csv(path, table)
        assert not path.exists()

    def test_timestamps_that_do_not_increase_are_rejected(self, tmp_path):
        ts = hours("2024-01-01T00:00:00", 2)
        path = tmp_path / "load.csv"
        with pytest.raises(OrderingError, match="not increasing at 2024-01-01T00:00:00Z"):
            ingest.write_load_csv(path, ingest.LoadSeries(ts[::-1], np.array([1.0, 2.0])))
        table = weather_rows("2024-01-01T00:00:00", {"BKS": [10.0], "JDD": [12.0]})
        table.station[1] = "BKS"
        with pytest.raises(OrderingError, match="duplicate record for station BKS"):
            ingest.write_weather_csv(path, table)
        assert not path.exists()

    def test_a_timestamp_off_the_hour_or_an_empty_table_is_rejected(self, tmp_path):
        path = tmp_path / "load.csv"
        ts = hours("2024-01-01T00:00:00", 2) + np.timedelta64(30, "m")
        with pytest.raises(ConfigError, match="row 0: timestamp '2024-01-01T00:30:00Z' is not"):
            ingest.write_load_csv(path, ingest.LoadSeries(ts, np.array([1.0, 2.0])))
        with pytest.raises(ConfigError, match="no rows"):
            ingest.write_load_csv(path, load_series("2024-01-01T00:00:00", []))
        assert not path.exists()


def load_series(start, demand):
    demand = np.asarray(demand, dtype=float)
    return ingest.LoadSeries(hours(start, demand.size), demand)


def weather_rows(start, station_temps):
    """station_temps: {station: list of temps (None = absent record)}."""
    stations, ts, vals = [], [], []
    for station, temps in station_temps.items():
        t_axis = hours(start, len(temps))
        for t, temp in zip(t_axis, temps):
            if temp is None:
                continue
            stations.append(station)
            ts.append(t)
            vals.append([temp, temp - 1.0, 50.0, 3.0, 0.0, 0.0])
    return ingest.WeatherTable(np.array(stations), np.array(ts, dtype="datetime64[s]"),
                               np.array(vals, dtype=float))


class TestAlign:
    def test_frame_shape_mismatch_is_a_shape_error(self):
        ts = hours("2024-01-01T00:00:00", 3)
        with pytest.raises(ShapeError, match="frame data"):
            ingest.AlignedFrame(ts, np.zeros((3, 12)))

    def test_three_station_mean(self):
        load = load_series("2024-01-01T00:00:00", [40000.0])
        wx = weather_rows("2024-01-01T00:00:00", {"BKS": [10.0], "JDD": [12.0], "TME": [14.0]})
        frame = ingest.align_hourly(load, wx, {"BKS", "JDD", "TME"})
        assert frame.col("air_temp_c")[0] == pytest.approx(12.0)

    def test_masked_mean_with_one_station_out(self):
        load = load_series("2024-01-01T00:00:00", [40000.0, 40500.0])
        wx = weather_rows("2024-01-01T00:00:00",
                          {"BKS": [10.0, None], "JDD": [12.0, 13.0], "TME": [14.0, 15.0]})
        frame = ingest.align_hourly(load, wx, {"BKS", "JDD", "TME"})
        assert frame.col("air_temp_c")[1] == pytest.approx((13.0 + 15.0) / 2.0)

    def test_reference_station_set_accepted(self):
        load = load_series("2024-01-01T00:00:00", [40000.0])
        wx = weather_rows("2024-01-01T00:00:00", {"BKS": [1.0], "JDD": [2.0], "TME": [3.0]})
        frame = ingest.align_hourly(load, wx, {"BKS", "JDD", "TME"})
        assert not frame.missing[0, 2:8].any()

    def test_no_overlap_errors(self):
        load = load_series("2024-01-01T00:00:00", [40000.0])
        wx = weather_rows("2025-06-01T00:00:00", {"BKS": [1.0]})
        with pytest.raises(AlignmentError, match="overlap"):
            ingest.align_hourly(load, wx, {"BKS"})

    def test_unreporting_hour_marked_missing(self):
        load = load_series("2024-01-01T00:00:00", [40000.0, 41000.0])
        wx = weather_rows("2024-01-01T00:00:00", {"BKS": [1.0, None]})
        frame = ingest.align_hourly(load, wx, {"BKS"})
        assert frame.missing[1, 2]
        assert not frame.missing[0, 2]


def frame_with_temps(temps, start="2024-01-01T00:00:00"):
    temps = np.asarray(temps, dtype=float)
    n = temps.size
    load = load_series(start, np.full(n, 40000.0))
    data = np.full((n, ingest.N_FEATURES), np.nan)
    data[:, ingest.DEMAND] = load.demand_mw
    data[:, 2] = temps
    idx = np.arange(n, dtype=float)
    data[:, 3] = np.where(np.isnan(temps), 0.0, temps - 1.0)  # feels-like
    data[:, 4] = 40.0 + (idx % 7) * 5.0      # humidity
    data[:, 5] = idx % 5                     # wind
    data[:, 6] = (idx % 11) / 10.0           # precip
    data[:, 7] = idx % 3                     # wx code
    return ingest.AlignedFrame(load.timestamps, data)


class TestImpute:
    def test_midpoint(self):
        frame = frame_with_temps([10.0, np.nan, 20.0])
        out, reports = ingest.impute_linear(frame)
        np.testing.assert_allclose(out.col("air_temp_c"), [10.0, 15.0, 20.0])
        assert reports == []

    def test_run_of_three(self):
        frame = frame_with_temps([0.0, np.nan, np.nan, np.nan, 8.0])
        out, _ = ingest.impute_linear(frame)
        np.testing.assert_allclose(out.col("air_temp_c"), [0.0, 2.0, 4.0, 6.0, 8.0])

    def test_run_longer_than_max_gap_left_missing(self):
        temps = [1.0] + [np.nan] * 7 + [9.0]
        frame = frame_with_temps(temps)
        out, reports = ingest.impute_linear(frame)
        assert out.missing[1:8, 2].all()
        assert len(reports) == 1
        assert reports[0].reason == "exceeds_max_gap"
        assert reports[0].length == 7

    def test_boundary_missing_reported_not_filled(self):
        frame = frame_with_temps([np.nan, 5.0, 6.0])
        out, reports = ingest.impute_linear(frame)
        assert out.missing[0, 2]
        assert reports[0].reason == "boundary"

    def test_entirely_missing_column_errors(self):
        frame = frame_with_temps([np.nan, np.nan, np.nan])
        with pytest.raises(ImputationError, match="air_temp_c"):
            ingest.impute_linear(frame)

    def test_idempotent(self):
        frame = frame_with_temps([10.0, np.nan, 20.0, np.nan, np.nan, np.nan,
                                  np.nan, np.nan, np.nan, np.nan, 30.0])
        once, _ = ingest.impute_linear(frame)
        twice, _ = ingest.impute_linear(once)
        np.testing.assert_array_equal(
            np.nan_to_num(once.data, nan=-1), np.nan_to_num(twice.data, nan=-1))
        np.testing.assert_array_equal(once.missing, twice.missing)


class TestCalendar:
    def test_saturday_three_am(self):
        frame = frame_with_temps([5.0], start="2024-01-06T03:00:00")
        out = ingest.encode_calendar(frame, set())
        assert out.col("hour_of_day")[0] == 3
        assert out.col("day_of_week")[0] == 6
        assert out.col("is_weekend")[0] == 1

    @pytest.mark.parametrize("start, day_of_week, is_weekend", [
        ("2024-01-05T12:00:00", 5, 0),  # Friday
        ("2024-01-07T12:00:00", 7, 1),  # Sunday
    ])
    def test_day_of_week_and_weekend_flag(self, start, day_of_week, is_weekend):
        out = ingest.encode_calendar(frame_with_temps([5.0], start=start), set())
        assert out.col("day_of_week")[0] == day_of_week
        assert out.col("is_weekend")[0] == is_weekend

    def test_july_fourth_is_holiday(self):
        frame = frame_with_temps([25.0], start="2024-07-04T12:00:00")
        hol = ingest.us_federal_holidays(2024, 2024)
        out = ingest.encode_calendar(frame, hol)
        assert out.col("is_holiday")[0] == 1
        assert out.col("month")[0] == 7

    def test_plain_monday(self):
        frame = frame_with_temps([5.0], start="2024-01-08T10:00:00")
        out = ingest.encode_calendar(frame, ingest.us_federal_holidays(2024, 2024))
        assert out.col("day_of_week")[0] == 1
        assert out.col("is_weekend")[0] == 0
        assert out.col("is_holiday")[0] == 0

    def test_ranges(self):
        frame = frame_with_temps(np.ones(200), start="2023-12-20T00:00:00")
        out = ingest.encode_calendar(frame, set())
        assert out.col("hour_of_day").min() >= 0 and out.col("hour_of_day").max() <= 23
        assert out.col("day_of_week").min() >= 1 and out.col("day_of_week").max() <= 7
        assert set(np.unique(out.col("month"))) <= set(range(1, 13))


class TestHolidays:
    def test_thanksgiving_2024(self):
        hol = ingest.us_federal_holidays(2024, 2024)
        assert dt.date(2024, 11, 28) in hol

    def test_memorial_day_2024(self):
        assert dt.date(2024, 5, 27) in ingest.us_federal_holidays(2024, 2024)

    @pytest.mark.parametrize("year, days", [
        (2025, ["01-01", "01-20", "02-17", "05-26", "06-19", "07-04", "09-01",
                "10-13", "11-11", "11-27", "12-25"]),
        (2020, ["01-01", "01-20", "02-17", "05-25", "07-04", "09-07", "10-12",
                "11-11", "11-26", "12-25"]),  # Juneteenth became federal in 2021
    ])
    def test_every_date_of_a_year(self, year, days):
        expected = {dt.date.fromisoformat(f"{year}-{day}") for day in days}
        assert ingest.us_federal_holidays(year, year) == expected

    def test_holiday_file_roundtrip(self, tmp_path):
        p = tmp_path / "holidays.txt"
        p.write_text("# fixture\n2024-07-04\n2024-12-25\n\n")
        assert ingest.parse_holiday_file(p) == {dt.date(2024, 7, 4), dt.date(2024, 12, 25)}


def populated_frame(n=200, start="2024-01-01T00:00:00", seed=0):
    rng = np.random.default_rng(seed)
    temps = 15 + 8 * np.sin(np.arange(n) / 24 * 2 * np.pi) + rng.normal(0, 1, n)
    frame = frame_with_temps(temps, start=start)
    frame.data[:, ingest.DEMAND] = 40000 + 100 * rng.normal(size=n).cumsum()
    frame = ingest.encode_calendar(frame, set())
    frame, _ = ingest.add_lag_feature(frame)
    return frame


def default_split(frame):
    ts = frame.timestamps
    n = len(frame)
    return ingest.SplitSpec(
        train=(str(ts[0]), str(ts[int(n * 0.6)])),
        val=(str(ts[int(n * 0.6)]), str(ts[int(n * 0.8)])),
        test=(str(ts[int(n * 0.8)]), str(ts[-1] + np.timedelta64(3600, "s"))),
    )


class TestStandardizer:
    def test_population_convention(self):
        frame = populated_frame()
        frame.data[:, ingest.DEMAND] = np.resize([1.0, 2.0, 3.0], len(frame))
        split = default_split(frame)
        lo, hi = split.range_of("train")
        rows = (frame.timestamps >= lo) & (frame.timestamps < hi)
        col = frame.data[rows, ingest.DEMAND]
        std = ingest.fit_standardizer(frame, split)
        assert std.mean[ingest.DEMAND] == pytest.approx(col.mean())
        assert std.std[ingest.DEMAND] == pytest.approx(col.std())
        # the documented convention on [1, 2, 3]
        assert np.std([1.0, 2.0, 3.0]) == pytest.approx(0.816496580927726)

    def test_zero_variance_errors(self):
        frame = populated_frame()
        frame.data[:, 4] = 55.0  # constant humidity
        split = default_split(frame)
        with pytest.raises(StandardizerError, match="humidity"):
            ingest.fit_standardizer(frame, split)

    def test_missing_value_in_train_rows_errors(self):
        frame = populated_frame()
        split = default_split(frame)
        frame.data[-1, 3] = np.nan  # a test row: ignored
        ingest.fit_standardizer(frame, split)
        frame.data[5, 6] = np.nan
        frame.data[7, 3] = np.nan  # the first continuous column with a NaN is named
        with pytest.raises(StandardizerError, match=ingest.FEATURE_COLUMNS[3]):
            ingest.fit_standardizer(frame, split)

    def test_transform_zero_mean_unit_std_on_train(self):
        frame = populated_frame()
        split = default_split(frame)
        std = ingest.fit_standardizer(frame, split)
        lo, hi = split.range_of("train")
        rows = (frame.timestamps >= lo) & (frame.timestamps < hi)
        z = std.transform(frame.data[rows])
        for name in ingest.CONTINUOUS_COLUMNS:
            ci = ingest.FEATURE_COLUMNS.index(name)
            assert abs(z[:, ci].mean()) < 1e-12
            assert abs(z[:, ci].std() - 1.0) < 1e-12

    def test_demand_in_mw_is_float64_from_float32_windows(self):
        frame = populated_frame()
        std = ingest.fit_standardizer(frame, default_split(frame))
        z = std.standardize_demand(frame.data[:, ingest.DEMAND]).astype(np.float32)
        mw = std.destandardize_demand(z)
        assert mw.dtype == np.float64
        np.testing.assert_array_equal(mw, std.destandardize_demand(z.astype(np.float64)))

    def test_calendar_columns_pass_through(self):
        frame = populated_frame()
        std = ingest.fit_standardizer(frame, default_split(frame))
        z = std.transform(frame.data)
        np.testing.assert_array_equal(z[:, 8:], frame.data[:, 8:])


class TestWindows:
    def test_25_hours_give_one_window(self):
        frame = populated_frame(n=200)
        ts = frame.timestamps
        split = ingest.SplitSpec(
            train=(str(ts[0]), str(ts[25])),
            val=(str(ts[25]), str(ts[50])),
            test=(str(ts[50]), str(ts[-1] + np.timedelta64(3600, "s"))),
        )
        std = ingest.fit_standardizer(frame, split)
        ws = ingest.make_windows(frame, std, split)
        assert len(ws["train"]) == 1
        assert ws["train"].targets_mw[0] == frame.data[24, ingest.DEMAND]

    def test_48_hours_give_24_windows(self):
        frame = populated_frame(n=300)
        ts = frame.timestamps
        split = ingest.SplitSpec(
            train=(str(ts[0]), str(ts[48])),
            val=(str(ts[48]), str(ts[100])),
            test=(str(ts[100]), str(ts[-1] + np.timedelta64(3600, "s"))),
        )
        std = ingest.fit_standardizer(frame, split)
        assert len(ingest.make_windows(frame, std, split)["train"]) == 24

    def test_window_shape_is_24_by_13(self):
        frame = populated_frame()
        split = default_split(frame)
        std = ingest.fit_standardizer(frame, split)
        ws = ingest.make_windows(frame, std, split)
        assert ws["train"].inputs.shape[1:] == (24, 13)

    def test_target_alignment_bit_exact(self):
        frame = populated_frame()
        split = default_split(frame)
        std = ingest.fit_standardizer(frame, split)
        for ws in ingest.make_windows(frame, std, split).values():
            for m in range(len(ws)):
                row = np.flatnonzero(frame.timestamps == ws.target_timestamps[m])[0]
                assert ws.targets_mw[m] == frame.data[row, ingest.DEMAND]
                assert ws.target_air_temp_c[m] == frame.data[row, ingest.AIR_TEMP]

    def test_short_split_errors(self):
        frame = populated_frame(n=200)
        ts = frame.timestamps
        split = ingest.SplitSpec(
            train=(str(ts[0]), str(ts[20])),  # < 25 hours
            val=(str(ts[20]), str(ts[60])),
            test=(str(ts[60]), str(ts[-1] + np.timedelta64(3600, "s"))),
        )
        std = ingest.fit_standardizer(frame, split)
        with pytest.raises(WindowError, match="train"):
            ingest.make_windows(frame, std, split)

    def test_windows_do_not_cross_splits(self):
        frame = populated_frame()
        split = default_split(frame)
        std = ingest.fit_standardizer(frame, split)
        ws = ingest.make_windows(frame, std, split)
        for tag in ("train", "val", "test"):
            lo, hi = split.range_of(tag)
            first_input_hour = ws[tag].target_timestamps - np.timedelta64(24 * 3600, "s")
            assert (first_input_hour >= lo).all()
            assert (ws[tag].target_timestamps < hi).all()


class TestLag:
    def test_lag_equals_demand_shifted_24_rows(self):
        frame = populated_frame()
        lag = frame.col("demand_lag24_mw")
        demand = frame.col("demand_mw")
        np.testing.assert_array_equal(lag[24:], demand[:-24])

    def test_gap_splits_segments(self):
        temps = np.ones(120)
        frame = frame_with_temps(temps)
        # remove 3 hours in the middle -> two segments
        keep = np.ones(120, dtype=bool)
        keep[60:63] = False
        frame = ingest.AlignedFrame(frame.timestamps[keep], frame.data[keep])
        frame = ingest.encode_calendar(frame, set())
        out, dropped = ingest.add_lag_feature(frame)
        assert dropped == 48  # 24 warm-up rows per segment
        assert np.count_nonzero(np.diff(out.timestamps) != ingest.HOUR) == 1


class TestSplitSpec:
    @staticmethod
    def spec(train_start):
        return ingest.SplitSpec(
            train=(train_start, "2024-02-01T00:00:00Z"),
            val=("2024-02-01T00:00:00Z", "2024-03-01T00:00:00Z"),
            test=("2024-03-01T00:00:00Z", "2024-04-01T00:00:00Z"),
        )

    @pytest.mark.parametrize("start", [
        "2024-01-01T00:00:00-05:00", "2024-01-01T00:00:00+00:00",
        "2024-01-01T00:00:00ZZZ", "2024-13-01", "", "NaT",
    ])
    def test_bound_outside_the_csv_timestamp_rule_is_a_config_error(self, start):
        with pytest.raises(ConfigError, match="train start"):
            self.spec(start)

    @pytest.mark.parametrize("start", [
        None, 1.5, 1704067200, b"2024-01-01", np.datetime64("NaT"), np.datetime64("NaT", "s"),
    ], ids=repr)
    def test_bound_neither_text_nor_a_datetime64_is_a_config_error(self, start):
        # None once read as NaT and failed as an empty range; 1.5 raised
        # numpy's raw ValueError
        with pytest.raises(ConfigError, match="^train start: "):
            self.spec(start)

    def test_date_text_and_datetime64_bounds_are_accepted(self):
        forms = ["2024-01-01", "2024-01-01T00:00:00", "2024-01-01T00:00:00Z",
                 np.datetime64("2024-01-01"), np.datetime64("2024-01-01T00:00:00", "s")]
        specs = [self.spec(start) for start in forms]
        assert all(spec == specs[0] for spec in specs)
        assert specs[0].train[0] == np.datetime64("2024-01-01T00:00:00", "s")

    @pytest.mark.parametrize("train", [
        None, ("2024-01-01T00:00:00Z",),
        ("2024-01-01T00:00:00Z", "2024-01-15T00:00:00Z", "2024-02-01T00:00:00Z"),
    ], ids=repr)
    def test_range_that_is_not_a_start_end_pair_is_a_config_error(self, train):
        # a raw TypeError for None and a raw ValueError for the tuples
        with pytest.raises(ConfigError, match="^train must be a"):
            ingest.SplitSpec(train=train,
                             val=("2024-02-01T00:00:00Z", "2024-03-01T00:00:00Z"),
                             test=("2024-03-01T00:00:00Z", "2024-04-01T00:00:00Z"))

    def test_overlapping_ranges_rejected(self):
        with pytest.raises(WindowError):
            ingest.SplitSpec(
                train=("2024-01-01T00:00:00", "2024-02-01T00:00:00"),
                val=("2024-01-15T00:00:00", "2024-03-01T00:00:00"),
                test=("2024-03-01T00:00:00", "2024-04-01T00:00:00"),
            )


def test_build_frame_end_to_end(tmp_path):
    n = 30 * 24
    rng = np.random.default_rng(5)
    ts = hours("2024-01-01T00:00:00", n)
    load = ingest.LoadSeries(ts, 40000 + rng.normal(0, 500, n).cumsum())
    temps = {st: list(10 + rng.normal(0, 2, n)) for st in ("BKS", "JDD", "TME")}
    temps["BKS"][100] = None  # one station out for an hour
    wx = weather_rows("2024-01-01T00:00:00", temps)
    frame, report = ingest.build_frame(
        load, wx, {"BKS", "JDD", "TME"}, ingest.us_federal_holidays(2024, 2024))
    assert not frame.missing.any()
    assert len(frame) == n - 24
    assert report["lag_warmup_rows_dropped"] == 24


BUILD_STAGES = ("align_hourly", "impute_linear", "drop_unfilled_rows", "encode_calendar",
                "add_lag_feature")


def test_build_frame_reaches_each_stage_through_the_module(monkeypatch):
    # the benchmark's tracer times and counts each stage by patching this
    # module attribute, and counts imputed cells as the input's NaNs less the
    # output's, read after the call
    calls = []

    def recorder(name, stage):
        def record(frame, *args):
            nans = np.isnan(frame.data).sum() if name == "impute_linear" else None
            result = stage(frame, *args)
            calls.append(name)
            if nans is not None:
                assert np.isnan(frame.data).sum() == nans > np.isnan(result[0].data).sum()
            return result
        return record

    for name in BUILD_STAGES:
        monkeypatch.setattr(ingest, name, recorder(name, getattr(ingest, name)))
    load = ingest.LoadSeries(hours("2024-01-01T00:00:00", 72), np.full(72, 40000.0))
    # hour 40 has no station: an interior one-hour gap that imputation fills
    wx = weather_rows("2024-01-01T00:00:00", {
        station: [None if hour == 40 else 10.0 + hour % 5 for hour in range(72)]
        for station in ("BKS", "JDD", "TME")})
    frame, _ = ingest.build_frame(load, wx, {"BKS", "JDD", "TME"}, set())
    assert calls == list(BUILD_STAGES)
    assert len(frame) == 72 - ingest.WINDOW_HOURS and not frame.missing.any()


SHORT_GAP, LONG_GAP = slice(2000, 2003), slice(3000, 3010)  # hours from the start
YEAR_SPLIT = ingest.SplitSpec(train=("2024-01-01", "2024-09-01"),
                              val=("2024-09-01", "2024-11-01"),
                              test=("2024-11-01", "2025-01-01"))


@pytest.fixture(scope="module")
def gappy_year(tmp_path_factory):
    """A 1-year synthetic set at missing_rate 0.2 with every station's
    weather fields blank for a 3-hour and a 10-hour run, written to CSV,
    read back and built into a frame; also its standardizer and windows."""
    cfg = synthetic.SyntheticConfig(years=1, seed=0, missing_rate=0.2)
    data = synthetic.generate(cfg)
    for values in data.station_weather.values():
        values[SHORT_GAP] = np.nan
        values[LONG_GAP] = np.nan
    d = tmp_path_factory.mktemp("gappy_year")
    ingest.write_load_csv(d / "load.csv", ingest.LoadSeries(data.timestamps, data.demand_mw))
    ingest.write_weather_csv(d / "weather.csv", ingest.WeatherTable(
        np.repeat(np.array(cfg.stations), data.timestamps.size),
        np.tile(data.timestamps, len(cfg.stations)),
        np.concatenate([data.station_weather[name] for name in cfg.stations])))
    frame, report = ingest.build_frame(
        ingest.parse_load_csv(d / "load.csv"), ingest.parse_weather_csv(d / "weather.csv"),
        cfg.stations, data.holidays)
    standardizer = ingest.fit_standardizer(frame, YEAR_SPLIT)
    return data.timestamps, frame, report, standardizer, ingest.make_windows(
        frame, standardizer, YEAR_SPLIT)


def hourly_runs(timestamps):
    """Lengths of the maximal runs of rows one hour apart."""
    breaks = np.flatnonzero(np.diff(timestamps) != ingest.HOUR) + 1
    return np.diff(np.concatenate([[0], breaks, [timestamps.size]]))


class TestGapPathsAtFullSize:
    def test_the_short_run_is_filled_and_the_long_run_reported_and_dropped(self, gappy_year):
        hours_in, frame, report, _, _ = gappy_year
        assert report["unfilled_runs"] == [
            {"column": column, "start": ingest.format_timestamp(hours_in[LONG_GAP.start]),
             "length": 10, "reason": "exceeds_max_gap"} for column in ingest.WEATHER_COLUMNS]
        assert report["dropped_hours"] == [ingest.format_timestamp(t) for t in hours_in[LONG_GAP]]
        assert not np.isin(hours_in[LONG_GAP], frame.timestamps).any()
        rows = np.searchsorted(frame.timestamps, hours_in[SHORT_GAP])
        assert (frame.timestamps[rows] == hours_in[SHORT_GAP]).all()
        assert not np.isnan(frame.data[rows]).any()

    def test_the_frame_is_two_hourly_segments_each_short_of_24_lag_rows(self, gappy_year):
        hours_in, frame, report, _, _ = gappy_year
        assert report["lag_warmup_rows_dropped"] == 48
        assert hourly_runs(frame.timestamps).tolist() == [
            LONG_GAP.start - 24, hours_in.size - LONG_GAP.stop - 24]

    def test_windows_stay_inside_a_segment_and_split(self, gappy_year):
        _, frame, _, _, windows = gappy_year
        for tag, ws in windows.items():
            lo, hi = YEAR_SPLIT.range_of(tag)
            in_split = frame.timestamps[(frame.timestamps >= lo) & (frame.timestamps < hi)]
            assert len(ws) == sum(n - 24 for n in hourly_runs(in_split) if n > 24)
            # 24 input rows and the target: 25 consecutive hours of one segment
            assert (frame.timestamps[ws.starts + 24] - frame.timestamps[ws.starts]
                    == 24 * ingest.HOUR).all()
            assert (frame.timestamps[ws.starts] >= lo).all()
            assert (frame.timestamps[ws.starts + 24] == ws.target_timestamps).all()
            assert (ws.target_timestamps < hi).all()

    def test_every_window_is_its_24_rows_of_the_standardized_frame(self, gappy_year):
        _, frame, _, standardizer, windows = gappy_year
        std_data = standardizer.transform(frame.data).astype(np.float32)
        for ws in windows.values():
            assert ws.std_data.tobytes() == std_data.tobytes()
            rows = ws.starts[:, None] + np.arange(ingest.WINDOW_HOURS)
            assert ws.inputs.tobytes() == std_data[rows].tobytes()


class TestWindowMemory:
    """A WindowSet holds start rows into one read-only standardized frame;
    window rows are copied only when `inputs` is read."""

    @staticmethod
    def fresh_windows(gappy_year):
        _, frame, _, standardizer, _ = gappy_year
        return frame, ingest.make_windows(frame, standardizer, YEAR_SPLIT)

    def test_make_windows_allocates_at_most_three_frames(self, gappy_year):
        _, frame, _, standardizer, _ = gappy_year
        tracemalloc.start()
        try:
            ingest.make_windows(frame, standardizer, YEAR_SPLIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * frame.data.nbytes

    def test_a_slice_gathers_only_its_own_windows(self, gappy_year):
        _, windows = self.fresh_windows(gappy_year)
        train = windows["train"]
        idx = np.random.default_rng(0).permutation(len(train))[:64]
        tracemalloc.start()
        try:
            inputs = train.slice(idx).inputs
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inputs.shape == (64, ingest.WINDOW_HOURS, ingest.N_FEATURES)
        assert peak <= 2 * inputs.nbytes
        assert inputs.tobytes() == train.inputs[idx].tobytes()

    def test_inputs_are_float32_and_targets_float64(self, gappy_year):
        _, windows = self.fresh_windows(gappy_year)
        for ws in windows.values():
            for inputs in (ws.inputs, ws.slice(slice(3, 9)).inputs):
                assert inputs.dtype == np.float32
                assert inputs.nbytes == 4 * len(inputs) * ingest.WINDOW_HOURS * ingest.N_FEATURES
            assert ws.std_data.dtype == np.float32
            assert ws.targets_mw.dtype == ws.targets_std.dtype == np.float64

    def test_splits_and_slices_share_one_read_only_frame(self, gappy_year):
        frame, windows = self.fresh_windows(gappy_year)
        std_data = windows["train"].std_data
        assert std_data.shape == frame.data.shape
        shared = list(windows.values()) + [ws.slice(s) for ws in windows.values()
                                           for s in (slice(3, 9), np.array([7, 2, 5]))]
        assert all(np.shares_memory(ws.std_data, std_data) for ws in shared)
        with pytest.raises(ValueError):
            std_data[0, 0] = 1.0
        views = 0
        for ws in shared:
            assert ws.inputs is ws.inputs  # read once, then kept
            if (np.diff(ws.starts) == 1).all():  # consecutive starts: a view
                assert not ws.inputs.flags.writeable
                assert np.shares_memory(ws.inputs, std_data)
                views += 1
            else:  # any other selection: a gathered copy
                assert ws.inputs.flags["C_CONTIGUOUS"]
                assert not np.shares_memory(ws.inputs, std_data)
        # the long gap splits train; val, test and the 3:9 slices are views
        assert views == 5

    def test_an_empty_selection_has_no_windows(self, gappy_year):
        _, windows = self.fresh_windows(gappy_year)
        inputs = windows["test"].slice(np.array([], int)).inputs
        assert inputs.shape == (0, ingest.WINDOW_HOURS, ingest.N_FEATURES)
        assert inputs.dtype == np.float32

    def test_a_gap_free_split_copies_no_window(self, gappy_year):
        _, windows = self.fresh_windows(gappy_year)
        test = windows["test"]
        assert (np.diff(test.starts) == 1).all()
        tracemalloc.start()
        try:
            inputs = test.inputs
            allocated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert allocated < 0.01 * inputs.nbytes
        rows = test.starts[:, None] + np.arange(ingest.WINDOW_HOURS)
        assert inputs.tobytes() == test.std_data[rows].tobytes()


def station_weather(n_hours, stations=("BKS", "JDD", "TME"), seed=0):
    """Every station's record at each of n_hours hours, station by station,
    with values in range and about a fifth of them missing."""
    rng = np.random.default_rng(seed)
    n = n_hours * len(stations)
    values = np.column_stack([rng.uniform(-10, 40, n), rng.uniform(-15, 45, n),
                              rng.uniform(0, 100, n), rng.uniform(0, 20, n),
                              rng.uniform(0, 5, n), rng.integers(0, 6, n).astype(float)])
    values[rng.random(values.shape) < 0.2] = np.nan
    return ingest.WeatherTable(np.repeat(np.array(stations), n_hours),
                               np.tile(hours("2024-01-01T00:00:00", n_hours), len(stations)),
                               values)


def traced_peak(fn):
    """fn()'s result and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestIngestMemory:
    """The CSV parsers hold one block of text at a time, and align_hourly
    builds no record x field array."""

    def test_parse_weather_csv_holds_one_block_at_a_time(self, tmp_path, monkeypatch):
        path = tmp_path / "weather.csv"
        ingest.write_weather_csv(path, station_weather(2000))
        block_rows = 64  # 6 000 rows: 94 blocks
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
        weather, peak = traced_peak(lambda: ingest.parse_weather_csv(path))
        table = sum(array.nbytes for array in (weather.station, weather.timestamps,
                                                weather.values))
        with open(path, encoding="utf-8") as fh:
            fields = "".join(itertools.islice(fh, 1, 1 + block_rows)).replace("\n", ",")
        block = sum(sys.getsizeof(field) for field in fields.split(",") if field)
        _, check = traced_peak(
            lambda: ingest._check_station_hours_unique(weather.station, weather.timestamps))
        # Above the table it returns, the parser holds one block at a time:
        # its text, its field strings and the two lists of them (the fields
        # and the columns). Each string's header, 49 bytes or more, outweighs
        # its text and its two list slots (16 bytes), so a block stays under
        # 2 * `block`. The station column's narrower first copy is one
        # column, and the duplicate check sorts the whole table after the
        # last block (`check`, well over one column); neither grows with the
        # number of blocks. Holding a second block, or a second copy of the
        # table while concatenating the blocks, exceeds this bound.
        assert peak - table <= 2 * block + weather.station.nbytes + check

    def test_align_hourly_builds_no_record_by_field_array(self):
        n = 2000
        load = ingest.LoadSeries(hours("2024-01-01T00:00:00", n), np.full(n, 40000.0))
        weather = station_weather(n)
        frame, peak = traced_peak(lambda: ingest.align_hourly(load, weather, {"BKS", "JDD", "TME"}))
        # With R = 3n records (every station every hour) and the frame's
        # 13 * 8 = 104 bytes a row, align_hourly holds the frame, the used
        # records' indices and hour rows (16R), and one weather column's
        # values, mask, hour rows and weights (25R), hour counts and sums
        # (16n): 104n + 123n + 16n = 243n, 2.3 frames. Record x field arrays
        # (two copies of the values, cell indices, masks and weights, 8 or 1
        # bytes for each of 6R cells) took this case to 10.6 frames.
        assert peak <= 3 * frame.data.nbytes
