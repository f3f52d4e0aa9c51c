"""Load/weather CSV ingestion into standardized 24-hour training windows.

Stages (each pure, composable):

    parse_load_csv / parse_weather_csv  ->  columnar record tables
    align_hourly                        ->  hourly frame, station-averaged,
                                            one weather column at a time
    impute_linear                       ->  small interior gaps filled
    encode_calendar                     ->  hour/day-of-week/month/flags
    add_lag_feature                     ->  24-hour-lagged demand column
    fit_standardizer / make_windows     ->  per-split WindowSets of (M, 24, 13) float32 inputs

The canonical feature order is FEATURE_COLUMNS; the first seven columns are
continuous and get standardized, the rest are plain numeric encodings.
NaN is the frame's only missing marker; AlignedFrame.missing is np.isnan(data).
calendar_columns is the one definition of the five calendar encodings;
encode_calendar and the synthetic generator both take them from it.

Rows one hour apart form an hourly segment; any other step between
timestamps starts a new one. _hours_into_segment is the one definition of
that rule, and three stages read it: impute_linear fills no run that begins
or ends a segment, add_lag_feature drops each segment's first 24 rows, and
make_windows takes a target only with the 24 rows before it in its segment.

make_windows standardizes the frame once, into one read-only float32 array
that the three splits' WindowSets share as std_data; a window is the row it
starts at (starts), not a copy of its rows. WindowSet.inputs reads the
(M, 24, 13) windows through a sliding-window view of std_data: windows at
consecutive start rows, such as a whole split of a gap-free stretch, are a
read-only slice of that view and copy nothing; any other selection gathers
a copy on first use and keeps it. WindowSet.slice keeps the shared array
and selects start rows, so a batch's inputs gather only its own windows. The
frame, the Standardizer and the targets stay float64: float32 rounds a
standardized demand value by a few thousandths of a MW, far below the
synthetic generator's 350 MW demand noise, and halves every gather.

File formats, each with its writer and its reader here (CSV version 1,
rejected if the header differs):

    load CSV      write_load_csv / parse_load_csv
                  timestamp_utc,demand_mw
    weather CSV   write_weather_csv / parse_weather_csv
                  station,timestamp_utc,temp_c,feels_like_c,humidity_pct,wind_ms,precip_mm,wx_code
    holidays      write_holiday_file / parse_holiday_file
                  one ISO date per line; the reader skips blank lines and '#' comments

Timestamps are ISO-8601 UTC on exact hours, e.g. 2024-01-06T03:00:00Z.
The trailing Z is optional on input and emitted on output; any other UTC
offset (+00:00, -05:00, ...) is rejected, and so is an empty or NaT field.
A weather value field may be empty (missing, NaN); anything else must be a
finite number in the field's range, and wx_code one of WX_CODES.

The CSV format is the one the writers emit: UTF-8 text, a header line,
then one row per line with its fields joined by commas. No field is quoted,
so none may hold a comma, a double quote or a line break; the readers reject
a row with a '"' in it, a byte that is not UTF-8 and a field longer than
_MAX_FIELD_CHARS characters, each naming the line. Lines end in \n on
output; \n and \r\n are read (and a lone \r ends a line too, as in Python's
universal newlines); the final newline is optional. Station ids obey the
same rule, checked on write by check_station_id.

write_load_csv and write_weather_csv write _BLOCK_ROWS rows at a time: each
float as its shortest round-trip repr and NaN as an empty field, so
parse_*_csv(write_*_csv(x)) returns x bit for bit. Before opening the file
they run the readers' own value and order checks over the whole table, so
a table its reader would reject is not written. Split bounds and
synthetic event starts take the timestamp rule through parse_timestamp.

The CSV parsers are columnar. They read _BLOCK_ROWS lines at a time, check
each line's comma count, join the block into one string and split it once
on commas and newlines; column j is then every width-th field from field j.
Each column is converted in one pass, into its rows of one result array
sized before the first block by counting the file's line ends. One block is
alive at a time: its line list, text and field list are dropped as soon as
the next form is built, and its columns before the next block is read, so
a parser holds its table and one block, however many blocks the file has.
The station column widens when a block holds a longer id than any before.
align_hourly then sums one weather column at a time, so no ingest stage
builds a record x field array.

Every check is a mask over the block, and its first set row names the line
in the error; only when a conversion raises is that column scanned field by
field for the first bad one. Checks run column by column, so in a file with
several faults the one reported is the first row failing the first check
that fails, not always the first faulty row. Weather (station, timestamp)
duplicates are found after the last block with one stable lexsort.
"""

import datetime as dt
import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AlignmentError,
    ConfigError,
    CsvParseError,
    ImputationError,
    OrderingError,
    ShapeError,
    StandardizerError,
    WindowError,
)

FEATURE_COLUMNS = (
    "demand_mw",
    "demand_lag24_mw",
    "air_temp_c",
    "feels_like_c",
    "humidity_pct",
    "wind_ms",
    "precip_mm",
    "wx_code",
    "hour_of_day",
    "day_of_week",
    "month",
    "is_weekend",
    "is_holiday",
)
N_FEATURES = len(FEATURE_COLUMNS)
CONTINUOUS_COLUMNS = FEATURE_COLUMNS[:7]
DEMAND, LAG24, AIR_TEMP = 0, 1, 2
WEATHER_COLUMNS = FEATURE_COLUMNS[2:8]

# present-weather category codes used in the wx_code CSV field
WX_CODES = {"clear": 0, "rain": 1, "snow": 2, "fog": 3, "thunderstorm": 4, "other": 5}
_WX_CODE_VALUES = np.array(sorted(WX_CODES.values()), dtype=float)

LOAD_HEADER = ["timestamp_utc", "demand_mw"]
WEATHER_HEADER = ["station", "timestamp_utc", "temp_c", "feels_like_c",
                  "humidity_pct", "wind_ms", "precip_mm", "wx_code"]

HOUR = np.timedelta64(1, "h").astype("timedelta64[s]")
WINDOW_HOURS = 24
# The longest weather gap impute_linear fills: a straight line over a longer
# one would cut across the diurnal cycle.
MAX_GAP_HOURS = 6

# The CSV readers and writers handle this many rows at a time. Above its
# table a reader holds one block, about 630 bytes a weather row: 5.1 MB here.
# 2048 and 4096 rows held less but, through glibc's allocation history, made
# the benchmark's later inference ops slower (ROADMAP, known defects).
_BLOCK_ROWS = 8192
# The longest CSV field the readers accept, the csv module's default limit.
_MAX_FIELD_CHARS = 131_072


def format_timestamp(ts):
    return str(ts.astype("datetime64[s]")) + "Z"


@dataclass(frozen=True)
class LoadSeries:
    """Hourly demand records, strictly increasing timestamps."""

    timestamps: np.ndarray  # datetime64[s]
    demand_mw: np.ndarray

    def __len__(self):
        return self.timestamps.size


@dataclass(frozen=True)
class WeatherTable:
    """Per-station hourly weather records; NaN marks a missing field."""

    station: np.ndarray     # str array
    timestamps: np.ndarray  # datetime64[s]
    values: np.ndarray      # (N, 6) columns = WEATHER_COLUMNS

    def __len__(self):
        return self.timestamps.size


def check_station_id(station):
    """Raise ConfigError naming `stations` unless `station` is a str that a
    weather CSV field holds and reads back as itself."""
    if not isinstance(station, str) or not station:
        problem = "is not a non-empty string"
    elif station != station.strip():
        problem = "has surrounding whitespace"
    elif any(char in station for char in ',"\r\n'):
        problem = "holds a comma, a double quote or a line break"
    elif len(station) > _MAX_FIELD_CHARS:
        problem = f"is longer than {_MAX_FIELD_CHARS} characters"
    else:
        return
    raise ConfigError(f"stations: station id {station!r} {problem}")


def _not_utf8(text):
    """True if `text`, read with errors="surrogateescape", held a byte that
    is not UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _row_bound(raw):
    """At least the number of data rows in the binary CSV file `raw`, and
    exactly that when no line is blank: its line ends (\n, \r and \r\n
    alike, as the readers take them) less the header's, counted 64 KiB at a
    time. A \r\n that a chunk boundary cuts counts twice."""
    ends, last = 0, b""
    for chunk in iter(functools.partial(raw.read, 1 << 16), b""):
        # numpy counts a byte several times faster than bytes.count
        ends += np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
        if b"\r" in chunk:
            ends += chunk.count(b"\r") - chunk.count(b"\r\n")
        last = chunk[-1:]
    return ends - (last in (b"\n", b"\r"))  # a last line without an end counts too


def _read_columns(path, header, kind):
    """Yield an upper bound on the data rows (_row_bound), then (lines,
    columns) for each block of up to _BLOCK_ROWS data rows.

    Blank lines are skipped; `lines` holds the line number of each row kept,
    and `columns` one list of field strings per header column. Rejects a
    header other than `header`, and rows holding a byte that is not UTF-8
    or a '"', of the wrong width, or with a field over _MAX_FIELD_CHARS.
    Only the block being read is held: its line list is dropped once joined,
    its text and field list once the columns are sliced, and the caller
    drops the columns before asking for the next block.
    """
    width = len(header)
    # surrogateescape keeps a byte that is not UTF-8 as a lone surrogate, so
    # the block check below reports it with its line
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        yield _row_bound(fh.buffer)
        fh.seek(0)
        found = next(fh, "").removesuffix("\n").split(",")
        if found != header:
            raise CsvParseError(f"unknown {kind} header {found!r}, expected {header}")
        first = 2
        while block := list(itertools.islice(fh, _BLOCK_ROWS)):
            lines = np.arange(first, first + len(block))
            first += len(block)
            if not block[-1].endswith("\n"):  # the file's last line may lack it
                block[-1] += "\n"
            if "\n" in block:
                kept = np.array([text != "\n" for text in block])
                block = list(itertools.compress(block, kept))
                lines = lines[kept]
                if not block:
                    continue
            commas = np.fromiter(map(str.count, block, itertools.repeat(",")),
                                 dtype=np.intp, count=len(block))
            longest = max(map(len, block))
            text = "".join(block)
            del block
            # the rare checks below take the rows back from the text: every
            # line ends in \n and holds no other one
            if not text.isascii():
                _reject(np.array([_not_utf8(row) for row in text.split("\n")[:-1]]),
                        lines, lambda i: "bytes that are not UTF-8")
            if '"' in text:
                _reject(np.array(['"' in row for row in text.split("\n")[:-1]]), lines,
                        lambda i: "a '\"' in a row; CSV fields are never quoted")
            _reject(commas != width - 1, lines,
                    lambda i: f"expected {width} fields, got {commas[i] + 1}")
            if longest > _MAX_FIELD_CHARS:  # no field can be longer
                _reject(np.array([max(map(len, row.split(","))) > _MAX_FIELD_CHARS
                                  for row in text.split("\n")[:-1]]), lines,
                        lambda i: f"a field longer than {_MAX_FIELD_CHARS} characters")
            # with newlines made commas, one split leaves width fields per
            # row and an empty one after the last
            text = text.replace("\n", ",")
            fields = text.split(",")
            del text
            columns = tuple(fields[j:-1:width] for j in range(width))
            del fields
            yield lines, columns
            del columns


def _reject(bad, lines, message):
    """Raise for the first row flagged in the mask `bad`; message(i)
    describes row i. A reader passes each row's line number in `lines` and
    gets a CsvParseError naming the line; a writer passes None and gets a
    ConfigError naming the row's index in the table."""
    if bad.any():
        i = int(np.argmax(bad))
        if lines is None:
            raise ConfigError(f"row {i}: {message(i)}")
        raise CsvParseError(message(i), line=int(lines[i]))


def _convert(convert, texts, lines, what):
    """convert(texts) over a whole column. Only when that raises ValueError
    is the column scanned, field by field, for the first bad one."""
    try:
        return convert(texts)
    except ValueError:
        for text, line in zip(texts, lines):
            try:
                convert([text])
            except ValueError:
                raise CsvParseError(f"bad {what} {text!r}", line=int(line)) from None
        raise


def _datetimes(texts):
    raw = [text.strip().removesuffix("Z") for text in texts]
    with warnings.catch_warnings():
        # numpy parses a UTC offset such as +00:00 or -05:00 with only a
        # warning and shifts the time by it; here an offset is an error
        warnings.simplefilter("error")
        try:
            ts = np.array(raw, dtype="datetime64[s]")
        except Warning as exc:
            raise ValueError(str(exc)) from None
    if np.isnat(ts).any():
        raise ValueError("NaT")
    return ts


def parse_timestamp(value, field):
    """One timestamp: a str by the CSV column's rule, or a np.datetime64 taken
    as it is. Returns datetime64[s]; raises ConfigError naming `field` for
    text the rule rejects, for NaT and for a value of any other type."""
    if isinstance(value, np.datetime64):
        if np.isnat(value):
            raise ConfigError(f"{field}: timestamp is NaT")
        return np.datetime64(value, "s")
    if not isinstance(value, str):
        raise ConfigError(f"{field}: timestamp must be a str or np.datetime64, got {value!r}")
    try:
        return _datetimes([value])[0]
    except ValueError:
        raise ConfigError(f"{field}: bad timestamp {value!r}") from None


def _timestamps(texts, lines):
    """Parse a timestamp column and require every value on an exact hour."""
    ts = _convert(_datetimes, texts, lines, "timestamp")
    _check_on_hours(ts, lines, texts.__getitem__)
    return ts


# The value checks below are shared by the readers, one block of rows at a
# time, and the writers, over the whole table before the file is opened, so
# a writer rejects what its reader would; see _reject for `lines`.

def _check_on_hours(ts, lines, text):
    """Every timestamp on an exact hour; text(i) is row i's field."""
    _reject(ts != ts.astype("datetime64[h]"), lines,
            lambda i: f"timestamp {text(i)!r} is not on an exact hour")


def _check_demand(mw, lines):
    _reject(~((mw > 0) & (mw < math.inf)), lines,
            lambda i: f"demand_mw must be positive and finite, got {float(mw[i])}")


def _check_increasing(ts):
    """Raise OrderingError naming the first repeated or earlier timestamp."""
    diffs = np.diff(ts)
    if np.any(diffs == np.timedelta64(0, "s")):
        where = int(np.flatnonzero(diffs == np.timedelta64(0, "s"))[0])
        raise OrderingError(f"duplicate timestamp {format_timestamp(ts[where + 1])}")
    if np.any(diffs < np.timedelta64(0, "s")):
        where = int(np.flatnonzero(diffs < np.timedelta64(0, "s"))[0])
        raise OrderingError(
            f"timestamps not increasing at {format_timestamp(ts[where + 1])}")


# (name, lo, hi) of the weather value fields, in WEATHER_HEADER order
_WEATHER_FIELDS = (
    ("temp_c", -math.inf, math.inf),
    ("feels_like_c", -math.inf, math.inf),
    ("humidity_pct", 0, 100),
    ("wind_ms", 0, math.inf),
    ("precip_mm", 0, math.inf),
    ("wx_code", -math.inf, math.inf),
)


def _check_weather_field(field, vals, missing, lines):
    """Each value of one _WEATHER_FIELDS field is flagged in `missing` or is
    finite and in the field's range."""
    name, lo, hi = field
    _reject(~missing & ~((lo <= vals) & (vals <= hi) & np.isfinite(vals)), lines,
            lambda i: f"{name}={float(vals[i])} is not a finite value in [{lo}, {hi}]")


def _check_wx_code(wx_code, lines):
    _reject(~np.isnan(wx_code) & ~np.isin(wx_code, _WX_CODE_VALUES), lines,
            lambda i: f"wx_code={float(wx_code[i])} is not one of "
                      f"{sorted(WX_CODES.values())}")


def _check_station_hours_unique(station, ts):
    """Raise OrderingError naming the first record, in table order, that
    repeats an earlier record's station and timestamp."""
    order = np.lexsort((ts, station))  # stable: equal keys stay in table order
    repeat = ((station[order[1:]] == station[order[:-1]])
              & (ts[order[1:]] == ts[order[:-1]]))
    if repeat.any():
        first = int(order[1:][repeat].min())
        raise OrderingError(f"duplicate record for station {station[first]} "
                            f"at {format_timestamp(ts[first])}")


def _optional_floats(texts):
    return np.array([float(t) if t else math.nan for t in texts])


def _timestamp_texts(timestamps):
    return [text + "Z" for text in timestamps.astype(str).tolist()]


def _float_texts(values):
    return ["" if v != v else repr(v) for v in values.tolist()]


def _write_csv(path, header, n_rows, block_columns):
    """Write `header`, then the rows of block_columns(rows), one list of
    field texts per column, for each slice of _BLOCK_ROWS rows. Raises
    ConfigError for a table of no rows, which the readers reject."""
    if not n_rows:
        raise ConfigError("no rows to write; a CSV file needs at least one data row")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            fh.write("\n".join(map(",".join, zip(*block_columns(
                slice(start, start + _BLOCK_ROWS))))))
            fh.write("\n")


def write_load_csv(path, load):
    """Write a LoadSeries in the format parse_load_csv reads. Before the
    file is opened, raises what parse_load_csv would raise reading it back:
    ConfigError naming the row for a timestamp off the hour or a demand
    that is not positive and finite, OrderingError for timestamps that do
    not strictly increase."""
    _check_on_hours(load.timestamps, None, lambda i: format_timestamp(load.timestamps[i]))
    _check_demand(load.demand_mw, None)
    _check_increasing(load.timestamps)
    _write_csv(path, LOAD_HEADER, len(load), lambda rows: (
        _timestamp_texts(load.timestamps[rows]), _float_texts(load.demand_mw[rows])))


def write_weather_csv(path, weather):
    """Write a WeatherTable in the format parse_weather_csv reads; NaN
    values become empty fields. Before the file is opened, raises
    ConfigError for a station id that check_station_id rejects, and what
    parse_weather_csv would raise reading it back: ConfigError naming the
    row for a timestamp off the hour, a value that is neither NaN nor
    finite and in range, or a wx_code not in WX_CODES, OrderingError for a
    repeated (station, timestamp)."""
    for station in set(weather.station.tolist()):
        check_station_id(station)
    _check_on_hours(weather.timestamps, None,
                    lambda i: format_timestamp(weather.timestamps[i]))
    for field, vals in zip(_WEATHER_FIELDS, weather.values.T):
        _check_weather_field(field, vals, np.isnan(vals), None)
    _check_wx_code(weather.values[:, -1], None)
    _check_station_hours_unique(weather.station, weather.timestamps)
    _write_csv(path, WEATHER_HEADER, len(weather), lambda rows: (
        weather.station[rows].tolist(), _timestamp_texts(weather.timestamps[rows]),
        *map(_float_texts, weather.values[rows].T)))


def parse_load_csv(path):
    """Read the demand CSV; rejects unknown headers, bad rows, and
    non-increasing or duplicate timestamps."""
    blocks = _read_columns(path, LOAD_HEADER, "load")
    size = next(blocks)
    ts = np.empty(size, dtype="datetime64[s]")
    demand = np.empty(size)
    n = 0
    for lines, columns in blocks:
        rows = slice(n, n + lines.size)
        ts[rows] = _timestamps(columns[0], lines)
        demand[rows] = _convert(lambda texts: np.array(list(map(float, texts))),
                                columns[1], lines, "demand value")
        _check_demand(demand[rows], lines)
        n = rows.stop
        del columns  # before the next block is read
    if not n:
        raise CsvParseError("load file has no data rows")
    _check_increasing(ts[:n])
    return LoadSeries(ts[:n], demand[:n])


def parse_weather_csv(path):
    """Read the station weather CSV; empty fields become NaN. Other values
    must be finite and in range, and wx_code one of WX_CODES."""
    blocks = _read_columns(path, WEATHER_HEADER, "weather")
    size = next(blocks)
    stations = np.empty(size, dtype="U1")  # widened when a block holds a longer id
    ts = np.empty(size, dtype="datetime64[s]")
    values = np.empty((size, len(_WEATHER_FIELDS)))
    n = 0
    for lines, columns in blocks:
        rows = slice(n, n + lines.size)
        station = np.array([text.strip() for text in columns[0]])
        _reject(station == "", lines, lambda i: "empty station id")
        if station.itemsize > stations.itemsize:
            stations = stations.astype(station.dtype)
        stations[rows] = station
        ts[rows] = _timestamps(columns[1], lines)
        for j, (field, texts) in enumerate(zip(_WEATHER_FIELDS, columns[2:])):
            vals = _convert(_optional_floats, texts, lines, f"{field[0]} value")
            missing = np.isnan(vals)
            # NaN is allowed only from an empty field, not from a field reading "nan"
            if np.count_nonzero(missing) != texts.count(""):
                missing &= np.array(texts, dtype=object) == ""
            _check_weather_field(field, vals, missing, lines)
            values[rows, j] = vals
        _check_wx_code(values[rows, -1], lines)
        n = rows.stop
        del columns, texts  # before the next block is read
    if not n:
        raise CsvParseError("weather file has no data rows")
    _check_station_hours_unique(stations[:n], ts[:n])
    return WeatherTable(stations[:n], ts[:n], values[:n])


@dataclass
class AlignedFrame:
    """Hourly feature table; data is (N, 13) in FEATURE_COLUMNS order.

    A NaN cell has not been observed, imputed or derived yet. Timestamps
    are strictly increasing; rows are hourly except across dropped gaps.
    """

    timestamps: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != (self.timestamps.size, N_FEATURES):
            raise ShapeError(
                f"frame data must be ({self.timestamps.size}, {N_FEATURES}), got {self.data.shape}")
        if self.timestamps.size > 1:
            diffs = np.diff(self.timestamps)
            if np.any(diffs <= np.timedelta64(0, "s")):
                raise OrderingError("frame timestamps must be strictly increasing")

    def __len__(self):
        return self.timestamps.size

    @property
    def missing(self):
        """(N, 13) bool: the cells of data that are NaN."""
        return np.isnan(self.data)

    def col(self, name):
        return self.data[:, FEATURE_COLUMNS.index(name)]

    def copy(self):
        return AlignedFrame(self.timestamps.copy(), self.data.copy())


@dataclass(frozen=True)
class GapReport:
    """Missing run that imputation left unfilled."""

    column: str
    start_ts: np.datetime64
    length: int
    reason: str  # "boundary" | "exceeds_max_gap"


def align_hourly(load, weather, stations):
    """Hourly frame over the load timestamps with station-mean weather.

    Per hour and per field the value is the arithmetic mean over requested
    stations reporting that field; hours no station covers stay missing.
    Each field is summed on its own, one bincount over the records' hours in
    table order, so no record x field array is built.
    """
    stations = set(stations)
    if not stations:
        raise AlignmentError("need at least one station")
    known = set(np.unique(weather.station))
    usable = stations & known
    if not usable:
        raise AlignmentError(
            f"none of the requested stations {sorted(stations)} appear in the weather data")

    n = len(load)
    records = np.flatnonzero(np.isin(weather.station, sorted(usable)))
    idx = np.searchsorted(load.timestamps, weather.timestamps[records])
    inside = idx < n
    inside[inside] &= load.timestamps[idx[inside]] == weather.timestamps[records[inside]]
    idx, records = idx[inside], records[inside]

    data = np.full((n, N_FEATURES), np.nan)
    data[:, DEMAND] = load.demand_mw
    covered = 0
    # one weather column at a time; bincount sums each hour in record order
    for j in range(len(WEATHER_COLUMNS)):
        vals = weather.values[records, j]
        ok = ~np.isnan(vals)
        hours = idx[ok]
        counts = np.bincount(hours, minlength=n)
        sums = np.bincount(hours, weights=vals[ok], minlength=n)
        np.divide(sums, counts, out=data[:, 2 + j], where=counts > 0)
        covered += hours.size
    if not covered:
        raise AlignmentError("load and weather time ranges do not overlap")
    return AlignedFrame(load.timestamps.copy(), data)


def _hours_into_segment(timestamps):
    """For each row, the number of rows since the first row of its hourly
    segment; a segment breaks at every step other than one hour."""
    pos = np.arange(timestamps.size)
    seg_start = np.ones(timestamps.size, dtype=bool)
    seg_start[1:] = np.diff(timestamps) != HOUR
    return pos - np.maximum.accumulate(np.where(seg_start, pos, 0))


def impute_linear(frame):
    """Fill interior missing runs of length <= MAX_GAP_HOURS by linear
    interpolation between the flanking observed values, per weather column
    and within an hourly segment. Longer runs and runs that begin or end a
    segment are reported, not filled.

    Returns (new_frame, [GapReport...]). Idempotent.
    """
    out = frame.copy()
    seg_start = _hours_into_segment(frame.timestamps) == 0
    reports = []
    for col_name in WEATHER_COLUMNS:
        vals = out.col(col_name)
        miss = np.isnan(vals)
        if miss.all():
            raise ImputationError(f"column {col_name!r} is entirely missing")
        for start, length in _missing_runs(miss, seg_start):
            left, right = start - 1, start + length
            if seg_start[start] or right == vals.size or seg_start[right]:
                reason = "boundary"
            elif length > MAX_GAP_HOURS:
                reason = "exceeds_max_gap"
            else:
                frac = np.arange(1, length + 1) / (right - left)
                vals[start:right] = vals[left] + (vals[right] - vals[left]) * frac
                continue
            reports.append(GapReport(col_name, frame.timestamps[start], length, reason))
    return out, reports


def _missing_runs(miss, seg_start):
    """(start, length) of each maximal run of True in `miss`, cut where
    `seg_start` marks the first row of a segment."""
    cont = miss[1:] & miss[:-1] & ~seg_start[1:]  # row i+1 continues row i's run
    starts = np.flatnonzero(miss & ~np.concatenate([[False], cont]))
    ends = np.flatnonzero(miss & ~np.concatenate([cont, [False]])) + 1
    return list(zip(starts.tolist(), (ends - starts).tolist()))


def calendar_columns(timestamps, holidays):
    """(N, 5) calendar columns of datetime64 timestamps, in FEATURE_COLUMNS
    order: hour-of-day [0,23], day-of-week [1,7] (Monday=1), month [1,12],
    weekend and holiday flags. `holidays` is a set of datetime.date."""
    days = timestamps.astype("datetime64[D]")
    hour = (timestamps - days).astype("timedelta64[h]").astype(int)
    dow = (days.astype("int64") + 3) % 7 + 1  # epoch day 0 was a Thursday
    months = (timestamps.astype("datetime64[M]").astype("int64") % 12) + 1
    weekend = dow >= 6
    is_holiday = np.isin(days, np.array(sorted(holidays), dtype="datetime64[D]"))
    return np.column_stack([hour, dow, months, weekend, is_holiday]).astype(float)


def encode_calendar(frame, holidays):
    """Fill the calendar columns of a copy of frame (see calendar_columns)."""
    out = frame.copy()
    out.data[:, 8:13] = calendar_columns(out.timestamps, holidays)
    return out


def add_lag_feature(frame):
    """Populate the 24-hour-lagged demand column.

    Within each hourly segment the lag is an exact 24-row shift of the
    demand column; each segment's first 24 rows, which have no lag source,
    are dropped. Returns (new_frame, n_dropped_rows).
    """
    rows = np.flatnonzero(_hours_into_segment(frame.timestamps) >= WINDOW_HOURS)
    if not rows.size:
        raise WindowError("no segment is longer than 24 hours; cannot build lag feature")
    data = frame.data[rows]
    data[:, LAG24] = frame.data[rows - WINDOW_HOURS, DEMAND]
    return AlignedFrame(frame.timestamps[rows], data), len(frame) - rows.size


def drop_unfilled_rows(frame):
    """Remove rows that still have missing observed values (weather or
    demand); returns (new_frame, dropped_timestamps)."""
    observed_cols = [FEATURE_COLUMNS.index(c) for c in ("demand_mw",) + WEATHER_COLUMNS]
    bad = np.isnan(frame.data[:, observed_cols]).any(axis=1)
    if not bad.any():
        return frame, np.array([], dtype="datetime64[s]")
    keep = ~bad
    return AlignedFrame(frame.timestamps[keep], frame.data[keep]), frame.timestamps[bad]


@dataclass(frozen=True)
class SplitSpec:
    """Chronologically ordered, disjoint half-open [start, end) ranges.

    A bound is a np.datetime64 or a string read by the CSV timestamp rule.
    """

    train: tuple
    val: tuple
    test: tuple

    def __post_init__(self):
        parsed = []
        for tag in ("train", "val", "test"):
            try:
                lo, hi = getattr(self, tag)
            except (TypeError, ValueError):
                raise ConfigError(f"{tag} must be a (start, end) pair, "
                                  f"got {getattr(self, tag)!r}") from None
            lo = parse_timestamp(lo, f"{tag} start")
            hi = parse_timestamp(hi, f"{tag} end")
            if not lo < hi:
                raise WindowError(f"empty split range [{lo}, {hi})")
            parsed.append((lo, hi))
        for (_, hi_a), (lo_b, _) in zip(parsed, parsed[1:]):
            if hi_a > lo_b:
                raise WindowError("split ranges must be disjoint and ordered")
        object.__setattr__(self, "train", parsed[0])
        object.__setattr__(self, "val", parsed[1])
        object.__setattr__(self, "test", parsed[2])

    def range_of(self, tag):
        return {"train": self.train, "val": self.val, "test": self.test}[tag]


@dataclass(frozen=True)
class Standardizer:
    """Per-column affine transform fitted on training rows only.

    Continuous columns get (x - mean) / std with the population std;
    calendar and wx_code columns pass through (mean 0, std 1).
    """

    mean: np.ndarray
    std: np.ndarray

    def transform(self, data):
        return (data - self.mean) / self.std

    def standardize_demand(self, mw):
        return (mw - self.mean[DEMAND]) / self.std[DEMAND]

    def destandardize_demand(self, z):
        """MW in float64 for z of any float dtype, under every numpy's
        promotion rules (a float32 z times a float64 scalar is float32 before
        numpy 2)."""
        return np.multiply(z, self.std[DEMAND], dtype=np.float64) + self.mean[DEMAND]

    @property
    def demand_std(self):
        return float(self.std[DEMAND])


def fit_standardizer(frame, split):
    """Means and population stds of the continuous columns over training rows."""
    lo, hi = split.range_of("train")
    rows = (frame.timestamps >= lo) & (frame.timestamps < hi)
    if not rows.any():
        raise StandardizerError("training range selects no rows")
    mean = np.zeros(N_FEATURES)
    std = np.ones(N_FEATURES)
    sub = frame.data[rows]
    for name in CONTINUOUS_COLUMNS:
        ci = FEATURE_COLUMNS.index(name)
        mean[ci] = sub[:, ci].mean()
        if np.isnan(mean[ci]):  # any NaN in the column makes its mean NaN
            raise StandardizerError(f"column {name!r} has missing values in the training rows")
        s = sub[:, ci].std()
        if s == 0.0:
            raise StandardizerError(f"column {name!r} has zero variance on train")
        std[ci] = s
    return Standardizer(mean, std)


@dataclass(frozen=True)
class WindowSet:
    """Model-ready samples: standardized 24x13 inputs with next-hour targets.

    A window is a start row into std_data, the whole standardized frame in
    float32: window m is rows starts[m] .. starts[m] + 23, and its target is
    the row after them. std_data is read-only and shared by the three splits
    of one make_windows call and by every slice of them; no window's rows
    are copied until `inputs` is read, and not even then when the starts are
    consecutive. Targets are float64 and retained both
    standardized (targets_std) and in MW (targets_mw); target_air_temp_c is
    the raw station-mean temperature at the target hour for the envelope
    penalty.
    """

    std_data: np.ndarray
    starts: np.ndarray
    targets_mw: np.ndarray
    targets_std: np.ndarray
    target_timestamps: np.ndarray
    target_air_temp_c: np.ndarray

    def __len__(self):
        return self.starts.size

    @functools.cached_property
    def inputs(self):
        """(M, 24, 13) float32 windows, read through one sliding-window view
        of std_data. Consecutive starts give a read-only slice of that view,
        whose windows overlap in std_data's memory; any other selection
        gives a C-contiguous copy, gathered on first use and kept."""
        blocks = sliding_window_view(self.std_data, (WINDOW_HOURS, N_FEATURES))[:, 0]
        starts = self.starts
        if starts.size and (np.diff(starts) == 1).all():
            return blocks[starts[0]:starts[0] + starts.size]
        return blocks[starts]

    def slice(self, sel):
        """The windows `sel` selects, over the same std_data; their inputs
        gather only their own rows."""
        return WindowSet(
            self.std_data, self.starts[sel], self.targets_mw[sel], self.targets_std[sel],
            self.target_timestamps[sel], self.target_air_temp_c[sel])


def make_windows(frame, standardizer, split):
    """Build per-split WindowSets; window rows [t-23, t] predict hour t+1.

    Windows never cross split boundaries or hourly gaps. All three splits
    share one read-only standardized copy of the frame, in float32: each
    value is standardizer.transform's float64 result rounded once, and no
    float64 copy is kept. A split whose targets are consecutive rows, as
    every split of a gap-free stretch is, reads its inputs as a view of that
    copy. Raises WindowError if any split produces no window.
    """
    if np.isnan(frame.data).any():
        raise WindowError("frame must be fully imputed before windowing")
    std_data = standardizer.transform(frame.data).astype(np.float32)
    std_data.flags.writeable = False
    out = {}
    for tag in ("train", "val", "test"):
        lo, hi = split.range_of(tag)
        sel = np.flatnonzero((frame.timestamps >= lo) & (frame.timestamps < hi))
        # a row is a target when the 24 rows before it are in its hourly segment
        targets_idx = sel[_hours_into_segment(frame.timestamps[sel]) >= WINDOW_HOURS]
        if not targets_idx.size:
            raise WindowError(f"split {tag!r} is shorter than 25 contiguous hours")
        out[tag] = WindowSet(
            std_data=std_data,
            starts=targets_idx - WINDOW_HOURS,
            targets_mw=frame.data[targets_idx, DEMAND].copy(),
            targets_std=standardizer.standardize_demand(frame.data[targets_idx, DEMAND]),
            target_timestamps=frame.timestamps[targets_idx].copy(),
            target_air_temp_c=frame.data[targets_idx, AIR_TEMP].copy(),
        )
    return out


def build_frame(load, weather, stations, holidays):
    """Full ingest chain: align, impute, drop unfilled, encode, lag.

    Returns (frame, report dict).
    """
    frame = align_hourly(load, weather, stations)
    frame, gap_reports = impute_linear(frame)
    frame, dropped_ts = drop_unfilled_rows(frame)
    frame = encode_calendar(frame, holidays)
    frame, lag_dropped = add_lag_feature(frame)
    report = {
        "unfilled_runs": [
            {"column": g.column, "start": format_timestamp(g.start_ts),
             "length": g.length, "reason": g.reason}
            for g in gap_reports
        ],
        "dropped_hours": [format_timestamp(t) for t in dropped_ts],
        "lag_warmup_rows_dropped": lag_dropped,
    }
    return frame, report


def write_holiday_file(path, holidays):
    """Write a set of datetime.date in the format parse_holiday_file reads:
    one ISO date per line, in date order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{d.isoformat()}\n" for d in sorted(holidays))


def parse_holiday_file(path):
    """One ISO date per line; blank lines and '#' comments ignored."""
    out = set()
    # a byte that is not UTF-8 stays a lone surrogate and fails as a bad date
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                out.add(dt.date.fromisoformat(text))
            except ValueError:
                raise CsvParseError(f"bad holiday date {text!r}", line=line_no) from None
    return out


# The floating federal holidays as (month, k, weekday): from the month's 1st,
# roll forward to that weekday, then move k of them on. Memorial Day is one
# Monday back from June's first, the last Monday of May.
_FLOATING_HOLIDAYS = (
    (1, 2, "Mon"),   # Martin Luther King Jr. Day, third Monday of January
    (2, 2, "Mon"),   # Washington's Birthday, third Monday of February
    (6, -1, "Mon"),  # Memorial Day, last Monday of May
    (9, 0, "Mon"),   # Labor Day, first Monday of September
    (10, 1, "Mon"),  # Columbus Day, second Monday of October
    (11, 3, "Thu"),  # Thanksgiving, fourth Thursday of November
)


def us_federal_holidays(start_year, end_year):
    """The eleven U.S. federal holidays on their actual dates (no
    observed-day shifting), for start_year..end_year inclusive."""
    out = set()
    for year in range(start_year, end_year + 1):
        out.add(dt.date(year, 1, 1))                      # New Year's Day
        if year >= 2021:
            out.add(dt.date(year, 6, 19))                 # Juneteenth
        out.add(dt.date(year, 7, 4))                      # Independence Day
        out.add(dt.date(year, 11, 11))                    # Veterans Day
        out.add(dt.date(year, 12, 25))                    # Christmas
        out.update(np.busday_offset(f"{year}-{month:02d}", k, roll="forward",
                                    weekmask=weekday).item()
                   for month, k, weekday in _FLOATING_HOLIDAYS)
    return out
