import datetime as dt

import numpy as np
import pytest

from gridcast import ingest
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
        out, reports = ingest.impute_linear(frame, max_gap_hours=6)
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
        once, _ = ingest.impute_linear(frame, max_gap_hours=3)
        twice, _ = ingest.impute_linear(once, max_gap_hours=3)
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

    def test_roundtrip(self):
        frame = populated_frame()
        split = default_split(frame)
        std = ingest.fit_standardizer(frame, split)
        back = std.inverse(std.transform(frame.data))
        assert np.max(np.abs(back - frame.data)) < 1e-10

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
        assert len(out.segments()) == 2


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

    def test_date_text_and_datetime64_bounds_are_accepted(self):
        forms = ["2024-01-01", "2024-01-01T00:00:00", "2024-01-01T00:00:00Z",
                 np.datetime64("2024-01-01"), np.datetime64("2024-01-01T00:00:00", "s")]
        specs = [self.spec(start) for start in forms]
        assert all(spec == specs[0] for spec in specs)
        assert specs[0].train[0] == np.datetime64("2024-01-01T00:00:00", "s")

    def test_overlapping_ranges_rejected(self):
        with pytest.raises(WindowError):
            ingest.SplitSpec(
                train=("2024-01-01T00:00:00", "2024-02-01T00:00:00"),
                val=("2024-01-15T00:00:00", "2024-03-01T00:00:00"),
                test=("2024-03-01T00:00:00", "2024-04-01T00:00:00"),
            )

    def test_dict_roundtrip(self):
        spec = ingest.SplitSpec(
            train=("2024-01-01T00:00:00", "2024-02-01T00:00:00"),
            val=("2024-02-01T00:00:00", "2024-03-01T00:00:00"),
            test=("2024-03-01T00:00:00", "2024-04-01T00:00:00"),
        )
        again = ingest.SplitSpec.from_dict(spec.to_dict())
        assert again == spec


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
