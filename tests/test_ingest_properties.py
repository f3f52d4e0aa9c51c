"""The columnar ingest code against its row-by-row reference (ingest_reference),
plus invariants of the CSV round trip, windowing, imputation and
standardizing, on generated inputs."""

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_reference as ref
from gridcast import ingest, synthetic
from gridcast.errors import AlignmentError, ConfigError, CsvParseError, OrderingError

T0 = np.datetime64("2024-03-09T00:00:00", "s")
STATIONS = ("BKS", "JDD", "TME")
# (lo, hi) of the values written for each weather value field
FIELD_RANGES = ((-30.0, 45.0), (-40.0, 50.0), (0.0, 100.0), (0.0, 30.0), (0.0, 50.0))


def parse_both(parse_name, text, block_rows):
    """Run the reference and the columnar parser (with `block_rows`-row
    blocks) on the same file; returns each one's (result, exception)."""
    outcomes = []
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "in.csv"
        path.write_text(text)
        with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            for parse in (getattr(ref, parse_name), getattr(ingest, parse_name)):
                try:
                    outcomes.append((parse(path), None))
                except Exception as exc:  # compared below
                    outcomes.append((None, exc))
    return outcomes


def assert_same_arrays(a, b):
    """Every array field of two dataclass records has the same dtype, shape
    and bytes; other fields are equal."""
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name
        else:
            assert x == y, name


def assert_same_error(ref_exc, new_exc):
    assert ref_exc is not None and new_exc is not None, (ref_exc, new_exc)
    assert type(new_exc) is type(ref_exc)
    assert getattr(new_exc, "line", None) == getattr(ref_exc, "line", None)
    assert str(new_exc) == str(ref_exc)


def stamp(ts, suffix):
    return str(ts) + suffix


def with_blank_lines(draw, rows):
    """The rows, each drawn to follow a blank line or not."""
    out = []
    for row in rows:
        out += [""] * draw(st.integers(0, 1))
        out.append(row)
    return out


@st.composite
def load_rows(draw):
    n = draw(st.integers(1, 40))
    steps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    hours = np.cumsum(steps)
    suffix = draw(st.sampled_from(["Z", ""]))
    demand = draw(st.lists(st.floats(1.0, 1e6), min_size=n, max_size=n))
    return [f"{stamp(T0 + int(h) * ingest.HOUR, suffix)},{mw!r}"
            for h, mw in zip(hours, demand)]


def weather_value(draw, lo, hi):
    if draw(st.integers(0, 4)) == 0:
        return ""
    return repr(draw(st.floats(lo, hi)))


@st.composite
def weather_rows(draw):
    keys = draw(st.lists(st.tuples(st.sampled_from(STATIONS), st.integers(0, 60)),
                         min_size=1, max_size=40, unique=True))
    rows = []
    for station, hour in keys:
        cells = [weather_value(draw, lo, hi) for lo, hi in FIELD_RANGES]
        cells.append(draw(st.sampled_from(["", "0", "1", "2.0", "3", "4.0", "5"])))
        rows.append(",".join([station, stamp(T0 + hour * ingest.HOUR, "Z")] + cells))
    return rows


def csv_text(header, lines):
    return "\n".join([",".join(header)] + lines) + "\n"


@given(rows=load_rows(), block_rows=st.integers(1, 9), data=st.data())
def test_load_parser_matches_reference_on_clean_files(rows, block_rows, data):
    text = csv_text(ingest.LOAD_HEADER, with_blank_lines(data.draw, rows))
    (expected, ref_exc), (got, exc) = parse_both("parse_load_csv", text, block_rows)
    assert ref_exc is None and exc is None, (ref_exc, exc)
    assert_same_arrays(expected, got)


@given(rows=weather_rows(), block_rows=st.integers(1, 9), data=st.data())
def test_weather_parser_matches_reference_on_clean_files(rows, block_rows, data):
    text = csv_text(ingest.WEATHER_HEADER, with_blank_lines(data.draw, rows))
    (expected, ref_exc), (got, exc) = parse_both("parse_weather_csv", text, block_rows)
    assert ref_exc is None and exc is None, (ref_exc, exc)
    assert_same_arrays(expected, got)


def hour_text(field):
    """The same hour half an hour later: off the hour, still in order."""
    return field.replace(":00:00", ":30:00")


LOAD_FAULTS = {
    "width": lambda f: f + [""],
    "bad timestamp": lambda f: ["2024-13-01T00:00:00Z", f[1]],
    "utc offset": lambda f: [f[0].removesuffix("Z") + "-05:00", f[1]],
    "zero offset": lambda f: [f[0].removesuffix("Z") + "+00:00", f[1]],
    "empty timestamp": lambda f: ["", f[1]],
    "NaT": lambda f: ["NaT", f[1]],
    "off the hour": lambda f: [hour_text(f[0]), f[1]],
    "bad demand": lambda f: [f[0], "oops"],
    "empty demand": lambda f: [f[0], ""],
    "blank demand": lambda f: [f[0], " "],
    "zero demand": lambda f: [f[0], "0.0"],
    "negative demand": lambda f: [f[0], "-5"],
    "infinite demand": lambda f: [f[0], "inf"],
    "nan demand": lambda f: [f[0], "nan"],
}


@pytest.mark.parametrize("fault", sorted(LOAD_FAULTS))
@given(rows=load_rows(), block_rows=st.integers(1, 9), data=st.data())
@settings(max_examples=10)
def test_load_parser_reports_a_fault_like_the_reference(fault, rows, block_rows, data):
    at = data.draw(st.integers(0, len(rows) - 1))
    rows[at] = ",".join(LOAD_FAULTS[fault](rows[at].split(",")))
    text = csv_text(ingest.LOAD_HEADER, with_blank_lines(data.draw, rows))
    (_, ref_exc), (_, new_exc) = parse_both("parse_load_csv", text, block_rows)
    assert_same_error(ref_exc, new_exc)


@pytest.mark.parametrize("fault", ["duplicate", "out of order"])
@given(rows=load_rows(), block_rows=st.integers(1, 9), data=st.data())
@settings(max_examples=10)
def test_load_parser_reports_an_ordering_fault_like_the_reference(
        fault, rows, block_rows, data):
    if len(rows) < 2:
        rows = rows + [f"{stamp(T0 + 9000 * ingest.HOUR, 'Z')},1.0"]
    at = data.draw(st.integers(1, len(rows) - 1))
    stamps = [row.split(",")[0] for row in rows]
    if fault == "duplicate":
        stamps[at] = stamps[at - 1]
    else:
        stamps[at - 1], stamps[at] = stamps[at], stamps[at - 1]
    rows = [s + "," + row.split(",")[1] for s, row in zip(stamps, rows)]
    text = csv_text(ingest.LOAD_HEADER, rows)
    (_, ref_exc), (_, new_exc) = parse_both("parse_load_csv", text, block_rows)
    assert_same_error(ref_exc, new_exc)


def set_field(i, value):
    def fault(f):
        return f[:i] + [value] + f[i + 1:]
    return fault


WEATHER_FAULTS = {
    "short row": lambda f: f[:-1],
    "long row": lambda f: f + ["0"],
    "empty station": set_field(0, ""),
    "blank station": set_field(0, "  "),
    "bad timestamp": set_field(1, "yesterday"),
    "utc offset": lambda f: set_field(1, f[1].removesuffix("Z") + "-05:00")(f),
    "zero offset": lambda f: set_field(1, f[1].removesuffix("Z") + "+00:00")(f),
    "empty timestamp": set_field(1, ""),
    "NaT": set_field(1, "NaT"),
    "off the hour": lambda f: set_field(1, hour_text(f[1]))(f),
    "bad temperature": set_field(2, "warm"),
    "blank feels-like": set_field(3, " "),
    "infinite temperature": set_field(2, "-inf"),
    "nan feels-like": set_field(3, "nan"),
    "humidity above 100": set_field(4, "140"),
    "negative wind": set_field(5, "-1.5"),
    "negative precipitation": set_field(6, "-0.1"),
    "fractional wx_code": set_field(7, "2.5"),
    "unknown wx_code": set_field(7, "6"),
    "infinite wx_code": set_field(7, "inf"),
}


@pytest.mark.parametrize("fault", sorted(WEATHER_FAULTS))
@given(rows=weather_rows(), block_rows=st.integers(1, 9), data=st.data())
@settings(max_examples=10)
def test_weather_parser_reports_a_fault_like_the_reference(fault, rows, block_rows, data):
    at = data.draw(st.integers(0, len(rows) - 1))
    rows[at] = ",".join(WEATHER_FAULTS[fault](rows[at].split(",")))
    text = csv_text(ingest.WEATHER_HEADER, with_blank_lines(data.draw, rows))
    (_, ref_exc), (_, new_exc) = parse_both("parse_weather_csv", text, block_rows)
    assert_same_error(ref_exc, new_exc)


@given(rows=weather_rows(), block_rows=st.integers(1, 9), data=st.data())
@settings(max_examples=30)
def test_weather_parser_reports_duplicates_like_the_reference(rows, block_rows, data):
    # one to three repeated (station, hour) keys: the first repeat in file
    # order is the one reported
    for _ in range(data.draw(st.integers(1, 3))):
        source = data.draw(st.integers(0, len(rows) - 1))
        at = data.draw(st.integers(0, len(rows)))
        station, ts = rows[source].split(",")[:2]
        rows.insert(at, ",".join([station, ts, "1.0", "1.0", "50", "1.0", "0.0", "0"]))
    text = csv_text(ingest.WEATHER_HEADER, rows)
    (_, ref_exc), (_, new_exc) = parse_both("parse_weather_csv", text, block_rows)
    assert_same_error(ref_exc, new_exc)


def csv_text_with_drawn_line_ends(draw, header, lines):
    """The file of csv_text with each line end drawn as \\n or \\r\\n, and
    the last one drawn to be left off."""
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                         min_size=len(lines) + 1, max_size=len(lines) + 1))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip([",".join(header)] + lines, ends))


# kind -> (parser name, header, row strategy, faults)
PARSERS = {
    "load": ("parse_load_csv", ingest.LOAD_HEADER, load_rows, LOAD_FAULTS),
    "weather": ("parse_weather_csv", ingest.WEATHER_HEADER, weather_rows, WEATHER_FAULTS),
}


@pytest.mark.parametrize("kind", sorted(PARSERS))
@given(block_rows=st.integers(1, 9), data=st.data())
def test_parsers_match_reference_on_any_line_ending(kind, block_rows, data):
    parse_name, header, rows, _ = PARSERS[kind]
    lines = with_blank_lines(data.draw, data.draw(rows()))
    text = csv_text_with_drawn_line_ends(data.draw, header, lines)
    (expected, ref_exc), (got, exc) = parse_both(parse_name, text, block_rows)
    assert ref_exc is None and exc is None, (ref_exc, exc)
    assert_same_arrays(expected, got)


@pytest.mark.parametrize("kind, fault", [(kind, fault) for kind in sorted(PARSERS)
                                         for fault in sorted(PARSERS[kind][3])])
@given(block_rows=st.integers(1, 9), data=st.data())
@settings(max_examples=10)
def test_parsers_report_a_fault_like_the_reference_on_any_line_ending(
        kind, fault, block_rows, data):
    parse_name, header, rows, faults = PARSERS[kind]
    rows = data.draw(rows())
    at = data.draw(st.integers(0, len(rows) - 1))
    rows[at] = ",".join(faults[fault](rows[at].split(",")))
    text = csv_text_with_drawn_line_ends(data.draw, header, with_blank_lines(data.draw, rows))
    (_, ref_exc), (_, new_exc) = parse_both(parse_name, text, block_rows)
    assert_same_error(ref_exc, new_exc)


def test_parsers_match_reference_on_a_synthetic_year(tmp_path):
    # full-size blocks: 8 760 load rows and 26 280 weather rows
    cfg = synthetic.SyntheticConfig(years=1, seed=2, missing_rate=0.1)
    synthetic.write_dataset(cfg, tmp_path)
    assert_same_arrays(ref.parse_load_csv(tmp_path / "load.csv"),
                       ingest.parse_load_csv(tmp_path / "load.csv"))
    assert_same_arrays(ref.parse_weather_csv(tmp_path / "weather.csv"),
                       ingest.parse_weather_csv(tmp_path / "weather.csv"))


# the floats hypothesis draws anyway, made certain: signed zero and the extremes
EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, -1.7976931348623157e308, 1.7976931348623157e308])
ANY_FLOAT = st.floats() | EDGE_FLOATS  # NaN of any payload and infinities too
FINITE_FLOAT = st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS


@st.composite
def load_series(draw, min_rows, demand):
    n = draw(st.integers(min_rows, 40))
    steps = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), dtype=np.int64)
    return ingest.LoadSeries(T0 + np.cumsum(steps) * ingest.HOUR,
                             np.array(draw(st.lists(demand, min_size=n, max_size=n)), dtype=float))


@st.composite
def weather_tables(draw, min_rows, fields):
    """A WeatherTable with unique (station, hour) keys in drawn order; value
    column j is drawn from fields[j]."""
    keys = draw(st.lists(st.tuples(st.sampled_from(STATIONS), st.integers(0, 60)),
                         min_size=min_rows, max_size=40, unique=True))
    values = [[draw(field) for field in fields] for _ in keys]
    return ingest.WeatherTable(
        np.array([station for station, _ in keys], dtype=str),
        T0 + np.array([hour for _, hour in keys], dtype=np.int64) * ingest.HOUR,
        np.array(values, dtype=float).reshape(len(keys), len(ingest.WEATHER_COLUMNS)))


def assert_writes_like_reference(kind, table, block_rows):
    """The writer writes the reference writer's bytes when the reader accepts
    those bytes. When the reader rejects them, the writer raises instead and
    leaves no file: an OrderingError as the reader's, and for a file the
    reader rejects as a CsvParseError, a ConfigError; one the reader raised
    naming line n is raised naming row n - 2 with the same message."""
    with tempfile.TemporaryDirectory() as d:
        expected, path = Path(d) / "ref.csv", Path(d) / "out.csv"
        getattr(ref, f"write_{kind}_csv")(expected, table)
        try:
            getattr(ingest, f"parse_{kind}_csv")(expected)
        except (CsvParseError, OrderingError) as exc:
            read_error = exc
        else:
            read_error = None
        with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            if read_error is None:
                getattr(ingest, f"write_{kind}_csv")(path, table)
                assert path.read_bytes() == expected.read_bytes()
                return
            error = OrderingError if isinstance(read_error, OrderingError) else ConfigError
            with pytest.raises(error) as written:
                getattr(ingest, f"write_{kind}_csv")(path, table)
        assert not path.exists()
        line = getattr(read_error, "line", None)
        if line is not None:
            assert str(written.value) == str(read_error).replace(
                f"line {line}:", f"row {line - 2}:", 1)
        elif error is OrderingError:
            assert str(written.value) == str(read_error)


@given(load=load_series(0, FINITE_FLOAT), block_rows=st.integers(1, 9))
def test_load_writer_matches_reference(load, block_rows):
    assert_writes_like_reference("load", load, block_rows)


@given(weather=weather_tables(0, [ANY_FLOAT] * 6), block_rows=st.integers(1, 9))
def test_weather_writer_matches_reference(weather, block_rows):
    assert_writes_like_reference("weather", weather, block_rows)


def parse_written(kind, table, block_rows):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "out.csv"
        with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            getattr(ingest, f"write_{kind}_csv")(path, table)
            return getattr(ingest, f"parse_{kind}_csv")(path)


POSITIVE_DEMAND = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) | st.just(5e-324)


def valid_field(lo, hi):
    """NaN (an empty field), signed zero where zero is allowed, or a finite
    value in [lo, hi]."""
    finite = st.floats(None if lo == -math.inf else lo, None if hi == math.inf else hi,
                       allow_nan=False, allow_infinity=False)
    return st.just(math.nan) | (st.just(-0.0) if lo <= 0 <= hi else st.nothing()) | finite


VALID_WEATHER = ([valid_field(lo, hi) for _, lo, hi in ingest._WEATHER_FIELDS[:-1]]
                 + [st.sampled_from([math.nan, -0.0] + sorted(map(float, ingest.WX_CODES.values())))])


@given(load=load_series(0, POSITIVE_DEMAND), block_rows=st.integers(1, 9))
def test_load_writer_matches_reference_on_tables_the_reader_accepts(load, block_rows):
    assert_writes_like_reference("load", load, block_rows)


@given(weather=weather_tables(0, VALID_WEATHER), block_rows=st.integers(1, 9))
def test_weather_writer_matches_reference_on_tables_the_reader_accepts(weather, block_rows):
    assert_writes_like_reference("weather", weather, block_rows)


@given(load=load_series(1, POSITIVE_DEMAND), block_rows=st.integers(1, 9))
def test_load_csv_round_trips_bit_for_bit(load, block_rows):
    assert_same_arrays(load, parse_written("load", load, block_rows))


@given(weather=weather_tables(1, VALID_WEATHER), block_rows=st.integers(1, 9))
def test_weather_csv_round_trips_bit_for_bit(weather, block_rows):
    assert_same_arrays(weather, parse_written("weather", weather, block_rows))


@given(st.sets(st.dates()))
def test_holiday_file_round_trips(holidays):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "holidays.txt"
        ingest.write_holiday_file(path, holidays)
        assert ingest.parse_holiday_file(path) == holidays


def test_synthetic_year_parses_back_to_generate(tmp_path):
    cfg = synthetic.SyntheticConfig(years=1, seed=2, missing_rate=0.1)
    data = synthetic.generate(cfg)
    synthetic.write_dataset(cfg, tmp_path)
    load = ingest.parse_load_csv(tmp_path / "load.csv")
    assert load.timestamps.tobytes() == data.timestamps.tobytes()
    assert load.demand_mw.tobytes() == data.demand_mw.tobytes()
    weather = ingest.parse_weather_csv(tmp_path / "weather.csv")
    for name in cfg.stations:
        rows = weather.station == name
        assert weather.timestamps[rows].tobytes() == data.timestamps.tobytes()
        # bytes compare NaN positions too
        assert weather.values[rows].tobytes() == data.station_weather[name].tobytes()
    assert np.isnan(weather.values).any()


ALIGN_STATIONS = ("BKS", "JDD", "TME", "KDFW")
# requested sets: all of the table's usual stations, some, one with a station
# the table lacks, only such a station, and none
ALIGN_REQUESTS = ({"BKS", "JDD", "TME"}, {"BKS", "JDD"}, {"JDD", "TME", "KAUS"}, {"KAUS"}, set())


@st.composite
def load_and_weather(draw):
    """A load series over some of 30 hours; records of up to four stations
    (KDFW never requested) at hours from 3 before the first to 3 after the
    last, in shuffled order, so that some fall outside the load hours and a
    load hour has zero to four of them; NaN fields, at times all of them;
    and a requested station set from ALIGN_REQUESTS."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    load_hours = np.flatnonzero(rng.random(30) < draw(st.sampled_from([0.3, 1.0])))
    load_hours = load_hours if load_hours.size else np.array([0])
    covered = rng.random((len(ALIGN_STATIONS), 36)) < draw(st.sampled_from([0.2, 0.6, 0.95]))
    station, hour = np.nonzero(covered)
    order = rng.permutation(station.size)
    values = rng.uniform(-40.0, 40.0, (station.size, len(ingest.WEATHER_COLUMNS)))
    values[rng.random(values.shape) < draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))] = np.nan
    load = ingest.LoadSeries(T0 + load_hours * ingest.HOUR, rng.uniform(3e4, 6e4, load_hours.size))
    weather = ingest.WeatherTable(np.array(ALIGN_STATIONS)[station[order]],
                                  T0 + (hour[order] - 3) * ingest.HOUR, values)
    return load, weather, draw(st.sampled_from(ALIGN_REQUESTS))


@given(load_and_weather())
@settings(max_examples=300)
def test_align_hourly_matches_the_per_cell_reference(case):
    outcomes = []
    for align in (ref.align_hourly, ingest.align_hourly):
        try:
            outcomes.append((align(*case), None))
        except AlignmentError as exc:
            outcomes.append((None, exc))
    (expected, ref_exc), (got, exc) = outcomes
    if ref_exc is not None:
        assert_same_error(ref_exc, exc)
    else:
        assert exc is None
        assert_same_arrays(expected, got)


def hourly_segments(draw, max_length, max_skip):
    """Timestamps of one to four hourly segments of 1 to max_length rows,
    with 1 to max_skip hours left out after each; also the hour (from T0)
    after the last skip."""
    hours, at = [], 0
    for _ in range(draw(st.integers(1, 4))):
        length = draw(st.integers(1, max_length))
        hours += range(at, at + length)
        at += length + draw(st.integers(1, max_skip))
    return T0 + np.array(hours) * ingest.HOUR, at


@st.composite
def gappy_frames(draw):
    """A fully observed frame over hourly timestamps with gaps, a
    standardizer, and three split ranges that may be back to back or apart
    and may cut through segments."""
    ts, at = hourly_segments(draw, max_length=150, max_skip=6)
    n = ts.size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame = ingest.AlignedFrame(ts, rng.normal(size=(n, ingest.N_FEATURES)))
    standardizer = ingest.Standardizer(rng.normal(size=ingest.N_FEATURES),
                                       rng.uniform(0.5, 2.0, ingest.N_FEATURES))
    # train [0, c1), val [c1 + g1, c2), test [c2 + g2, end): back to back or apart
    end = at + 3
    c1, c2 = sorted(draw(st.lists(st.integers(1, end - 2), min_size=2, max_size=2,
                                  unique=True)))
    g1, g2 = (draw(st.sampled_from([0, 0, 3])) for _ in range(2))
    cuts = [0, c1, min(c1 + g1, c2 - 1), c2, min(c2 + g2, end - 1), end]
    edges = [T0 + c * ingest.HOUR for c in cuts]
    return frame, standardizer, ingest.SplitSpec(*zip(edges[::2], edges[1::2]))


def result_or_error(fn, *args):
    try:
        return fn(*args), None
    except ingest.WindowError as exc:
        return None, str(exc)


@given(gappy_frames())
@settings(max_examples=200)  # about one case in five yields windows in all three splits
def test_windows_match_reference_and_stay_inside_segments_and_splits(case):
    frame, standardizer, split = case
    expected, ref_err = result_or_error(ref.make_windows, frame, standardizer, split)
    got, err = result_or_error(ingest.make_windows, frame, standardizer, split)
    assert err == ref_err
    if got is None:
        return
    std_data = standardizer.transform(frame.data).astype(np.float32)
    for tag, ws in got.items():
        assert_same_arrays(expected[tag], ws)
        # consecutive starts read a view of std_data; any others gather a copy
        if (np.diff(ws.starts) == 1).all():
            assert not ws.inputs.flags.writeable and np.shares_memory(ws.inputs, ws.std_data)
        else:
            assert ws.inputs.flags["C_CONTIGUOUS"] and not np.shares_memory(ws.inputs, ws.std_data)
        lo, hi = split.range_of(tag)
        rows = np.searchsorted(frame.timestamps, ws.target_timestamps)
        first = rows - ingest.WINDOW_HOURS
        assert (first >= 0).all()
        # the 24 input rows and the target are 25 consecutive hours
        assert (frame.timestamps[rows] - frame.timestamps[first]
                == ingest.WINDOW_HOURS * ingest.HOUR).all()
        assert (frame.timestamps[first] >= lo).all() and (ws.target_timestamps < hi).all()
        for m, r in enumerate(first):
            assert ws.inputs[m].tobytes() == std_data[r:r + ingest.WINDOW_HOURS].tobytes()


@st.composite
def frames_with_holes(draw):
    """A frame of one to four hourly segments, 2 to 4 hours apart, with NaN
    holes in the weather columns (row 0 observed, so no column is entirely
    missing)."""
    ts, _ = hourly_segments(draw, max_length=60, max_skip=3)
    n = ts.size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.normal(size=(n, ingest.N_FEATURES))
    missing = np.zeros((n, ingest.N_FEATURES), dtype=bool)
    rate = draw(st.floats(0.0, 0.8))
    missing[:, 2:8] = rng.random((n, 6)) < rate
    missing[0, 2:8] = False
    data[missing] = np.nan
    return ingest.AlignedFrame(ts, data)


@given(frames_with_holes())
def test_impute_linear_is_idempotent(frame):
    once, reports = ingest.impute_linear(frame)
    twice, reports_again = ingest.impute_linear(once)
    assert once.data.tobytes() == twice.data.tobytes()
    np.testing.assert_array_equal(once.missing, twice.missing)
    assert reports_again == reports


@given(frames_with_holes())
@settings(max_examples=200)
def test_impute_linear_matches_the_per_segment_reference(frame):
    expected, expected_reports = ref.impute_linear(frame, max_gap_hours=ingest.MAX_GAP_HOURS)
    got, reports = ingest.impute_linear(frame)
    assert_same_arrays(expected, got)
    assert reports == expected_reports


@given(frames_with_holes())
@settings(max_examples=200)
def test_add_lag_feature_matches_the_per_segment_reference(frame):
    expected, ref_err = result_or_error(ref.add_lag_feature, frame)
    got, err = result_or_error(ingest.add_lag_feature, frame)
    assert err == ref_err
    if got is not None:
        assert_same_arrays(expected[0], got[0])
        assert got[1] == expected[1]


@given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=60))
def test_missing_runs_match_the_loop(flags):
    """Runs found once over the whole mask, cut at the drawn segment starts,
    are the loop's runs within each segment."""
    miss = np.array([m for m, _ in flags], dtype=bool)
    seg_start = np.array([cut for _, cut in flags], dtype=bool)
    seg_start[:1] = True
    bounds = np.append(np.flatnonzero(seg_start), miss.size).tolist()
    expected = [(s + start, length) for s, e in zip(bounds, bounds[1:])
                for start, length in ref.missing_runs(miss[s:e])]
    assert ingest._missing_runs(miss, seg_start) == expected


@given(n=st.integers(2, 50), seed=st.integers(0, 2**32 - 1),
       means=st.lists(st.floats(-1e5, 1e5), min_size=7, max_size=7),
       stds=st.lists(st.floats(1e-2, 1e4), min_size=7, max_size=7))
def test_standardizer_passes_wx_code_and_calendar_columns_through(n, seed, means, stds):
    rng = np.random.default_rng(seed)
    data = np.empty((n, ingest.N_FEATURES))
    data[:, :7] = np.array(means) + np.array(stds) * rng.normal(size=(n, 7))
    data[:, 7:] = rng.integers(0, 24, size=(n, ingest.N_FEATURES - 7))  # wx_code, calendar
    ts = T0 + np.arange(n) * ingest.HOUR
    end = ts[-1] + ingest.HOUR
    split = ingest.SplitSpec((ts[0], end), (end, end + ingest.HOUR),
                             (end + ingest.HOUR, end + 2 * ingest.HOUR))
    std = ingest.fit_standardizer(ingest.AlignedFrame(ts, data), split)
    z = std.transform(data)
    assert z[:, 7:].tobytes() == data[:, 7:].tobytes()
