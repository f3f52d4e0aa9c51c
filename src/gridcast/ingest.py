"""Load/weather CSV ingestion into standardized 24-hour training windows.

Stages (each pure, composable):

    parse_load_csv / parse_weather_csv  ->  columnar record tables
    align_hourly                        ->  hourly frame, station-averaged
    impute_linear                       ->  small interior gaps filled
    encode_calendar                     ->  hour/day-of-week/month/flags
    add_lag_feature                     ->  24-hour-lagged demand column
    fit_standardizer / make_windows     ->  per-split (M, 24, 13) windows

The canonical feature order is FEATURE_COLUMNS; the first seven columns are
continuous and get standardized, the rest are plain numeric encodings.
NaN is the frame's only missing marker; AlignedFrame.missing is np.isnan(data).

CSV formats (version 1, rejected if the header differs):

    load:    timestamp_utc,demand_mw
    weather: station,timestamp_utc,temp_c,feels_like_c,humidity_pct,wind_ms,precip_mm,wx_code
    holidays: one ISO date per line, '#' comments allowed

Timestamps are ISO-8601 UTC on exact hours, e.g. 2024-01-06T03:00:00Z.
The trailing Z is optional on input and emitted on output; any other UTC
offset (+00:00, -05:00, ...) is rejected, and so is an empty or NaT field.
A weather value field may be empty (missing, NaN); anything else must be a
finite number in the field's range, and wx_code one of WX_CODES.

write_load_csv and write_weather_csv emit the same format, _BLOCK_ROWS rows
at a time: each float as its shortest round-trip repr and NaN as an empty
field, so parse_*_csv(write_*_csv(x)) returns x bit for bit. Split bounds and
synthetic event starts take the timestamp rule through parse_timestamp.

The CSV parsers are columnar. They take csv.reader rows in blocks of
_BLOCK_ROWS, transpose each block into one tuple of strings per column and
convert each column in one pass. Every check is a mask over the block, and
its first set row names the line in the error; only when a conversion
raises is that column scanned field by field for the first bad one. Checks
run column by column, so in a file with several faults the one reported is
the first row failing the first check that fails, not always the first
faulty row. Weather (station, timestamp) duplicates are found after the
last block with one stable lexsort.
"""

import csv
import datetime as dt
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

# The CSV readers and writers handle this many rows at a time: enough to keep
# per-block overhead small, few enough that a block's field strings stay a few MB.
_BLOCK_ROWS = 8192


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


def _read_columns(path, header, kind):
    """Yield (lines, columns) for each block of up to _BLOCK_ROWS data rows.

    Blank rows are skipped; `lines` holds the line number of each row kept,
    and `columns` one tuple of field strings per header column.
    Rejects a header other than `header` and rows of the wrong width.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise CsvParseError(f"unknown {kind} header {found!r}, expected {header}")
        first = 2
        while rows := list(itertools.islice(reader, _BLOCK_ROWS)):
            lines = np.arange(first, first + len(rows))
            first += len(rows)
            widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
            if not widths.all():
                rows = [row for row in rows if row]
                lines, widths = lines[widths > 0], widths[widths > 0]
            _reject(widths != len(header), lines,
                    lambda i: f"expected {len(header)} fields, got {widths[i]}")
            if rows:
                yield lines, tuple(zip(*rows))


def _reject(bad, lines, message):
    """Raise CsvParseError for the first row flagged in the mask `bad`;
    message(i) describes row i."""
    if bad.any():
        i = int(np.argmax(bad))
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
    """One timestamp by the CSV column's rule; a non-string value such as a
    np.datetime64 is taken as it is. Returns datetime64[s]; raises
    ConfigError naming `field` for text the rule rejects."""
    if not isinstance(value, str):
        return np.datetime64(value, "s")
    try:
        return _datetimes([value])[0]
    except ValueError:
        raise ConfigError(f"{field}: bad timestamp {value!r}") from None


def _timestamps(texts, lines):
    """Parse a timestamp column and require every value on an exact hour."""
    ts = _convert(_datetimes, texts, lines, "timestamp")
    _reject(ts != ts.astype("datetime64[h]"), lines,
            lambda i: f"timestamp {texts[i]!r} is not on an exact hour")
    return ts


def _optional_floats(texts):
    return np.array([float(t) if t else math.nan for t in texts])


def _timestamp_texts(timestamps):
    return [text + "Z" for text in timestamps.astype(str).tolist()]


def _float_texts(values):
    return ["" if v != v else repr(v) for v in values.tolist()]


def _write_csv(path, header, n_rows, block_columns):
    """Write `header`, then the rows of block_columns(rows), one list of
    field texts per column, for each slice of _BLOCK_ROWS rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, n_rows, _BLOCK_ROWS):
            writer.writerows(zip(*block_columns(slice(start, start + _BLOCK_ROWS))))


def write_load_csv(path, load):
    """Write a LoadSeries in the format parse_load_csv reads."""
    _write_csv(path, LOAD_HEADER, len(load), lambda rows: (
        _timestamp_texts(load.timestamps[rows]), _float_texts(load.demand_mw[rows])))


def write_weather_csv(path, weather):
    """Write a WeatherTable in the format parse_weather_csv reads; NaN
    values become empty fields."""
    _write_csv(path, WEATHER_HEADER, len(weather), lambda rows: (
        weather.station[rows].tolist(), _timestamp_texts(weather.timestamps[rows]),
        *map(_float_texts, weather.values[rows].T)))


def parse_load_csv(path):
    """Read the demand CSV; rejects unknown headers, bad rows, and
    non-increasing or duplicate timestamps."""
    stamps, demands = [], []
    for lines, (ts_texts, mw_texts) in _read_columns(path, LOAD_HEADER, "load"):
        stamps.append(_timestamps(ts_texts, lines))
        mw = _convert(lambda texts: np.array(list(map(float, texts))),
                      mw_texts, lines, "demand value")
        _reject(~((mw > 0) & (mw < math.inf)), lines,
                lambda i: f"demand_mw must be positive and finite, got {float(mw[i])}")
        demands.append(mw)
    if not stamps:
        raise CsvParseError("load file has no data rows")
    ts_arr = np.concatenate(stamps)
    diffs = np.diff(ts_arr)
    if np.any(diffs == np.timedelta64(0, "s")):
        where = int(np.flatnonzero(diffs == np.timedelta64(0, "s"))[0])
        raise OrderingError(f"duplicate timestamp {format_timestamp(ts_arr[where + 1])}")
    if np.any(diffs < np.timedelta64(0, "s")):
        where = int(np.flatnonzero(diffs < np.timedelta64(0, "s"))[0])
        raise OrderingError(
            f"timestamps not increasing at {format_timestamp(ts_arr[where + 1])}")
    return LoadSeries(ts_arr, np.concatenate(demands))


# (name, lo, hi) of the weather value fields, in WEATHER_HEADER order
_WEATHER_FIELDS = (
    ("temp_c", -math.inf, math.inf),
    ("feels_like_c", -math.inf, math.inf),
    ("humidity_pct", 0, 100),
    ("wind_ms", 0, math.inf),
    ("precip_mm", 0, math.inf),
    ("wx_code", -math.inf, math.inf),
)


def parse_weather_csv(path):
    """Read the station weather CSV; empty fields become NaN. Other values
    must be finite and in range, and wx_code one of WX_CODES."""
    stations, stamps, values = [], [], []
    for lines, columns in _read_columns(path, WEATHER_HEADER, "weather"):
        station = np.array([text.strip() for text in columns[0]])
        _reject(station == "", lines, lambda i: "empty station id")
        ts = _timestamps(columns[1], lines)
        block = []
        for (name, lo, hi), texts in zip(_WEATHER_FIELDS, columns[2:]):
            vals = _convert(_optional_floats, texts, lines, f"{name} value")
            nan = np.isnan(vals)
            bad = ~nan & ~((lo <= vals) & (vals <= hi) & np.isfinite(vals))
            # NaN is allowed only from an empty field, not from a field reading "nan"
            if np.count_nonzero(nan) != texts.count(""):
                bad |= nan & (np.array(texts, dtype=object) != "")
            _reject(bad, lines, lambda i: (
                f"{name}={float(vals[i])} is not a finite value in [{lo}, {hi}]"))
            block.append(vals)
        wx_code = block[-1]
        _reject(~np.isnan(wx_code) & ~np.isin(wx_code, _WX_CODE_VALUES), lines,
                lambda i: f"wx_code={float(wx_code[i])} is not one of "
                          f"{sorted(WX_CODES.values())}")
        stations.append(station)
        stamps.append(ts)
        values.append(np.column_stack(block))
    if not stamps:
        raise CsvParseError("weather file has no data rows")
    station, ts = np.concatenate(stations), np.concatenate(stamps)
    order = np.lexsort((ts, station))  # stable: equal keys stay in file order
    repeat = ((station[order[1:]] == station[order[:-1]])
              & (ts[order[1:]] == ts[order[:-1]]))
    if repeat.any():
        first = int(order[1:][repeat].min())
        raise OrderingError(f"duplicate record for station {station[first]} "
                            f"at {format_timestamp(ts[first])}")
    return WeatherTable(station, ts, np.concatenate(values))


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

    def segments(self):
        """(start, end) index ranges of hourly-contiguous rows, end exclusive."""
        if len(self) == 0:
            return []
        breaks = np.flatnonzero(np.diff(self.timestamps) != HOUR)
        starts = np.concatenate([[0], breaks + 1])
        ends = np.concatenate([breaks + 1, [len(self)]])
        return list(zip(starts.tolist(), ends.tolist()))


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
    sums = np.zeros((n, len(WEATHER_COLUMNS)))
    counts = np.zeros((n, len(WEATHER_COLUMNS)))
    in_set = np.isin(weather.station, sorted(usable))
    w_ts = weather.timestamps[in_set]
    w_vals = weather.values[in_set]
    idx = np.searchsorted(load.timestamps, w_ts)
    inside = idx < n
    inside[inside] &= load.timestamps[idx[inside]] == w_ts[inside]
    idx, w_vals = idx[inside], w_vals[inside]
    for c in range(len(WEATHER_COLUMNS)):
        ok = ~np.isnan(w_vals[:, c])
        np.add.at(sums[:, c], idx[ok], w_vals[ok, c])
        np.add.at(counts[:, c], idx[ok], 1.0)

    if counts.sum() == 0:
        raise AlignmentError("load and weather time ranges do not overlap")

    data = np.full((n, N_FEATURES), np.nan)
    data[:, DEMAND] = load.demand_mw
    have = counts > 0
    data[:, 2:8] = np.where(have, sums / np.where(have, counts, 1.0), np.nan)
    return AlignedFrame(load.timestamps.copy(), data)


def impute_linear(frame, max_gap_hours=6):
    """Fill interior missing runs of length <= max_gap_hours by linear
    interpolation between the flanking observed values, per weather column
    and per contiguous segment. Longer runs and runs touching a segment
    boundary are reported, not filled.

    Returns (new_frame, [GapReport...]). Idempotent.
    """
    out = frame.copy()
    reports = []
    for col_name in WEATHER_COLUMNS:
        ci = FEATURE_COLUMNS.index(col_name)
        if np.isnan(out.data[:, ci]).all():
            raise ImputationError(f"column {col_name!r} is entirely missing")
        for seg_start, seg_end in frame.segments():
            vals = out.data[seg_start:seg_end, ci]
            for run_start, run_len in _missing_runs(np.isnan(vals)):
                left = run_start - 1
                right = run_start + run_len
                if left < 0 or right >= vals.size:
                    reports.append(GapReport(
                        col_name, frame.timestamps[seg_start + run_start],
                        run_len, "boundary"))
                    continue
                if run_len > max_gap_hours:
                    reports.append(GapReport(
                        col_name, frame.timestamps[seg_start + run_start],
                        run_len, "exceeds_max_gap"))
                    continue
                span = right - left
                frac = (np.arange(1, run_len + 1)) / span
                vals[run_start:right] = vals[left] + (vals[right] - vals[left]) * frac
    return out, reports


def _missing_runs(miss):
    """(start, length) of each maximal run of True."""
    edges = np.diff(np.concatenate([[0], miss.astype(np.int8), [0]]))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    return list(zip(starts.tolist(), (ends - starts).tolist()))


def encode_calendar(frame, holidays):
    """Fill hour-of-day [0,23], day-of-week [1,7] (Monday=1), month [1,12],
    weekend and holiday flags. `holidays` is a set of datetime.date."""
    out = frame.copy()
    ts = out.timestamps
    days = ts.astype("datetime64[D]")
    hour = (ts - days).astype("timedelta64[h]").astype(int)
    dow = (days.astype("int64") + 3) % 7 + 1  # epoch day 0 was a Thursday
    months = (ts.astype("datetime64[M]").astype("int64") % 12) + 1
    weekend = (dow >= 6).astype(float)
    holiday_arr = np.array(sorted(holidays), dtype="datetime64[D]")
    is_holiday = np.isin(days, holiday_arr).astype(float)
    cal = np.column_stack([hour, dow, months, weekend, is_holiday]).astype(float)
    out.data[:, 8:13] = cal
    return out


def add_lag_feature(frame):
    """Populate the 24-hour-lagged demand column.

    Within each contiguous segment the lag is an exact 24-row shift of the
    demand column; each segment's first 24 rows, which have no lag source,
    are dropped. Returns (new_frame, n_dropped_rows).
    """
    keep_chunks = []
    for seg_start, seg_end in frame.segments():
        if seg_end - seg_start <= WINDOW_HOURS:
            continue
        sl = slice(seg_start, seg_end)
        data = frame.data[sl].copy()
        data[WINDOW_HOURS:, LAG24] = data[:-WINDOW_HOURS, DEMAND]
        keep_chunks.append((frame.timestamps[sl][WINDOW_HOURS:], data[WINDOW_HOURS:]))
    if not keep_chunks:
        raise WindowError("no segment is longer than 24 hours; cannot build lag feature")
    ts = np.concatenate([c[0] for c in keep_chunks])
    data = np.concatenate([c[1] for c in keep_chunks])
    dropped = len(frame) - ts.size
    return AlignedFrame(ts, data), dropped


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
            lo, hi = getattr(self, tag)
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

    def to_dict(self):
        return {
            tag: [format_timestamp(lo), format_timestamp(hi)]
            for tag, (lo, hi) in
            [("train", self.train), ("val", self.val), ("test", self.test)]
        }

    @classmethod
    def from_dict(cls, d):
        return cls(train=tuple(d["train"]), val=tuple(d["val"]), test=tuple(d["test"]))


@dataclass(frozen=True)
class Standardizer:
    """Per-column affine transform fitted on training rows only.

    Continuous columns get (x - mean) / std with the population std;
    calendar and wx_code columns pass through (mean 0, std 1).
    """

    mean: np.ndarray
    std: np.ndarray
    fitted_on: str

    def transform(self, data):
        return (data - self.mean) / self.std

    def inverse(self, data):
        return data * self.std + self.mean

    def standardize_demand(self, mw):
        return (mw - self.mean[DEMAND]) / self.std[DEMAND]

    def destandardize_demand(self, z):
        return z * self.std[DEMAND] + self.mean[DEMAND]

    @property
    def demand_std(self):
        return float(self.std[DEMAND])

    def to_dict(self):
        return {
            "mean": list(map(float, self.mean)),
            "std": list(map(float, self.std)),
            "fitted_on": self.fitted_on,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(np.asarray(d["mean"], dtype=float),
                   np.asarray(d["std"], dtype=float), d["fitted_on"])


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
        s = sub[:, ci].std()
        if s == 0.0:
            raise StandardizerError(f"column {name!r} has zero variance on train")
        std[ci] = s
    return Standardizer(mean, std, fitted_on="train")


@dataclass(frozen=True)
class WindowSet:
    """Model-ready samples: standardized 24x13 inputs with next-hour targets.

    Targets are retained both standardized (targets_std) and in MW
    (targets_mw); target_air_temp_c is the raw station-mean temperature at
    the target hour for the envelope penalty.
    """

    inputs: np.ndarray
    targets_mw: np.ndarray
    targets_std: np.ndarray
    target_timestamps: np.ndarray
    target_air_temp_c: np.ndarray
    split_tag: str

    def __len__(self):
        return self.inputs.shape[0]

    def slice(self, sel):
        return WindowSet(
            self.inputs[sel], self.targets_mw[sel], self.targets_std[sel],
            self.target_timestamps[sel], self.target_air_temp_c[sel], self.split_tag)


def make_windows(frame, standardizer, split):
    """Build per-split WindowSets; window rows [t-23, t] predict hour t+1.

    Windows never cross split boundaries or hourly gaps. Raises WindowError
    if any split produces no window.
    """
    if np.isnan(frame.data).any():
        raise WindowError("frame must be fully imputed before windowing")
    std_data = standardizer.transform(frame.data)
    out = {}
    for tag in ("train", "val", "test"):
        lo, hi = split.range_of(tag)
        sel = np.flatnonzero((frame.timestamps >= lo) & (frame.timestamps < hi))
        # a row is a target when the 24 rows before it are in its hourly segment
        pos = np.arange(sel.size)
        seg_start = np.zeros(sel.size, dtype=bool)
        seg_start[:1] = True
        seg_start[1:] = np.diff(frame.timestamps[sel]) != HOUR
        since_start = pos - np.maximum.accumulate(np.where(seg_start, pos, 0))
        targets_idx = sel[since_start >= WINDOW_HOURS]
        if not targets_idx.size:
            raise WindowError(f"split {tag!r} is shorter than 25 contiguous hours")
        # one gather from the view of every 24-row block of the frame
        blocks = sliding_window_view(std_data, (WINDOW_HOURS, N_FEATURES))
        out[tag] = WindowSet(
            inputs=blocks[targets_idx - WINDOW_HOURS, 0],
            targets_mw=frame.data[targets_idx, DEMAND].copy(),
            targets_std=standardizer.standardize_demand(frame.data[targets_idx, DEMAND]),
            target_timestamps=frame.timestamps[targets_idx].copy(),
            target_air_temp_c=frame.data[targets_idx, AIR_TEMP].copy(),
            split_tag=tag,
        )
    return out


def build_frame(load, weather, stations, holidays, max_gap_hours=6):
    """Full ingest chain: align, impute, drop unfilled, encode, lag.

    Returns (frame, report dict).
    """
    frame = align_hourly(load, weather, stations)
    frame, gap_reports = impute_linear(frame, max_gap_hours=max_gap_hours)
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


def parse_holiday_file(path):
    """One ISO date per line; blank lines and '#' comments ignored."""
    out = set()
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                out.add(dt.date.fromisoformat(text))
            except ValueError:
                raise CsvParseError(f"bad holiday date {text!r}", line=line_no) from None
    return out


def _nth_weekday(year, month, weekday, n):
    """n-th (1-based) given weekday (Mon=0) of a month; n=-1 means last."""
    if n > 0:
        first = dt.date(year, month, 1)
        offset = (weekday - first.weekday()) % 7
        return first + dt.timedelta(days=offset + 7 * (n - 1))
    if month == 12:
        nxt = dt.date(year + 1, 1, 1)
    else:
        nxt = dt.date(year, month + 1, 1)
    last = nxt - dt.timedelta(days=1)
    offset = (last.weekday() - weekday) % 7
    return last - dt.timedelta(days=offset)


def us_federal_holidays(start_year, end_year):
    """The eleven U.S. federal holidays on their actual dates (no
    observed-day shifting), for start_year..end_year inclusive."""
    out = set()
    for year in range(start_year, end_year + 1):
        out.add(dt.date(year, 1, 1))                      # New Year's Day
        out.add(_nth_weekday(year, 1, 0, 3))              # MLK Day
        out.add(_nth_weekday(year, 2, 0, 3))              # Washington's Birthday
        out.add(_nth_weekday(year, 5, 0, -1))             # Memorial Day
        if year >= 2021:
            out.add(dt.date(year, 6, 19))                 # Juneteenth
        out.add(dt.date(year, 7, 4))                      # Independence Day
        out.add(_nth_weekday(year, 9, 0, 1))              # Labor Day
        out.add(_nth_weekday(year, 10, 0, 2))             # Columbus Day
        out.add(dt.date(year, 11, 11))                    # Veterans Day
        out.add(_nth_weekday(year, 11, 3, 4))             # Thanksgiving
        out.add(dt.date(year, 12, 25))                    # Christmas
    return out
