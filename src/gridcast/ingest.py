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

CSV formats (version 1, rejected if the header differs):

    load:    timestamp_utc,demand_mw
    weather: station,timestamp_utc,temp_c,feels_like_c,humidity_pct,wind_ms,precip_mm,wx_code
    holidays: one ISO date per line, '#' comments allowed

Timestamps are ISO-8601 UTC on exact hours, e.g. 2024-01-06T03:00:00Z
(the trailing Z is optional on input, emitted on output).
"""

import csv
import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignmentError,
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
_WX_CODE_VALUES = frozenset(float(code) for code in WX_CODES.values())

LOAD_HEADER = ["timestamp_utc", "demand_mw"]
WEATHER_HEADER = ["station", "timestamp_utc", "temp_c", "feels_like_c",
                  "humidity_pct", "wind_ms", "precip_mm", "wx_code"]

HOUR = np.timedelta64(1, "h").astype("timedelta64[s]")
WINDOW_HOURS = 24


def _parse_timestamp(text, line):
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1]
    try:
        ts = np.datetime64(raw, "s")
    except ValueError:
        raise CsvParseError(f"bad timestamp {text!r}", line=line) from None
    if ts != ts.astype("datetime64[h]").astype("datetime64[s]"):
        raise CsvParseError(f"timestamp {text!r} is not on an exact hour", line=line)
    return ts


def format_timestamp(ts):
    return str(ts.astype("datetime64[s]")) + "Z"


def float_repr(v):
    """Shortest round-trip decimal form of a float (CSV determinism)."""
    return repr(float(v))


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


def parse_load_csv(path):
    """Read the demand CSV; rejects unknown headers, bad rows, and
    non-increasing or duplicate timestamps."""
    timestamps, demand = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != LOAD_HEADER:
            raise CsvParseError(f"unknown load header {header!r}, expected {LOAD_HEADER}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise CsvParseError(f"expected 2 fields, got {len(row)}", line=line)
            ts = _parse_timestamp(row[0], line)
            try:
                mw = float(row[1])
            except ValueError:
                raise CsvParseError(f"bad demand value {row[1]!r}", line=line) from None
            if not 0 < mw < math.inf:
                raise CsvParseError(
                    f"demand_mw must be positive and finite, got {mw}", line=line)
            timestamps.append(ts)
            demand.append(mw)
    if not timestamps:
        raise CsvParseError("load file has no data rows")
    ts_arr = np.array(timestamps, dtype="datetime64[s]")
    diffs = np.diff(ts_arr)
    if np.any(diffs == np.timedelta64(0, "s")):
        where = int(np.flatnonzero(diffs == np.timedelta64(0, "s"))[0])
        raise OrderingError(f"duplicate timestamp {format_timestamp(ts_arr[where + 1])}")
    if np.any(diffs < np.timedelta64(0, "s")):
        where = int(np.flatnonzero(diffs < np.timedelta64(0, "s"))[0])
        raise OrderingError(
            f"timestamps not increasing at {format_timestamp(ts_arr[where + 1])}")
    return LoadSeries(ts_arr, np.array(demand, dtype=float))


def _parse_optional_float(text, line, name, lo=-math.inf, hi=math.inf):
    """Float field; empty means missing (NaN). nan, inf and values outside
    [lo, hi] are rejected."""
    if text.strip() == "":
        return np.nan
    try:
        val = float(text)
    except ValueError:
        raise CsvParseError(f"bad {name} value {text!r}", line=line) from None
    if not (lo <= val <= hi and math.isfinite(val)):
        raise CsvParseError(f"{name}={val} is not a finite value in [{lo}, {hi}]", line=line)
    return val


def parse_weather_csv(path):
    """Read the station weather CSV; empty fields become NaN."""
    stations, timestamps, rows = [], [], []
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != WEATHER_HEADER:
            raise CsvParseError(
                f"unknown weather header {header!r}, expected {WEATHER_HEADER}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 8:
                raise CsvParseError(f"expected 8 fields, got {len(row)}", line=line)
            station = row[0].strip()
            if not station:
                raise CsvParseError("empty station id", line=line)
            ts = _parse_timestamp(row[1], line)
            key = (station, ts.astype("int64").item())
            if key in seen:
                raise OrderingError(
                    f"duplicate record for station {station} at {format_timestamp(ts)}")
            seen.add(key)
            vals = [
                _parse_optional_float(row[2], line, "temp_c"),
                _parse_optional_float(row[3], line, "feels_like_c"),
                _parse_optional_float(row[4], line, "humidity_pct", lo=0, hi=100),
                _parse_optional_float(row[5], line, "wind_ms", lo=0),
                _parse_optional_float(row[6], line, "precip_mm", lo=0),
            ]
            wx_code = _parse_optional_float(row[7], line, "wx_code")
            if wx_code not in _WX_CODE_VALUES and not math.isnan(wx_code):
                raise CsvParseError(
                    f"wx_code={wx_code} is not one of {sorted(WX_CODES.values())}", line=line)
            vals.append(wx_code)
            stations.append(station)
            timestamps.append(ts)
            rows.append(vals)
    if not timestamps:
        raise CsvParseError("weather file has no data rows")
    return WeatherTable(
        np.array(stations),
        np.array(timestamps, dtype="datetime64[s]"),
        np.array(rows, dtype=float),
    )


@dataclass
class AlignedFrame:
    """Hourly feature table; data is (N, 13) in FEATURE_COLUMNS order.

    missing marks cells that have not been observed/derived yet. Timestamps
    are strictly increasing; rows are hourly except across dropped gaps.
    """

    timestamps: np.ndarray
    data: np.ndarray
    missing: np.ndarray

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

    def col(self, name):
        return self.data[:, FEATURE_COLUMNS.index(name)]

    def copy(self):
        return AlignedFrame(self.timestamps.copy(), self.data.copy(), self.missing.copy())

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
    missing = np.ones((n, N_FEATURES), dtype=bool)
    data[:, DEMAND] = load.demand_mw
    missing[:, DEMAND] = False
    have = counts > 0
    means = np.where(have, sums / np.where(have, counts, 1.0), np.nan)
    data[:, 2:8] = means
    missing[:, 2:8] = ~have
    return AlignedFrame(load.timestamps.copy(), data, missing)


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
        if out.missing[:, ci].all():
            raise ImputationError(f"column {col_name!r} is entirely missing")
        for seg_start, seg_end in frame.segments():
            miss = out.missing[seg_start:seg_end, ci]
            vals = out.data[seg_start:seg_end, ci]
            runs = _missing_runs(miss)
            for run_start, run_len in runs:
                left = run_start - 1
                right = run_start + run_len
                if left < 0 or right >= miss.size:
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
                miss[run_start:right] = False
    return out, reports


def _missing_runs(miss):
    """(start, length) of each maximal run of True."""
    runs = []
    i = 0
    n = miss.size
    while i < n:
        if miss[i]:
            j = i
            while j < n and miss[j]:
                j += 1
            runs.append((i, j - i))
            i = j
        else:
            i += 1
    return runs


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
    if holidays:
        holiday_arr = np.array(sorted(holidays), dtype="datetime64[D]")
        is_holiday = np.isin(days, holiday_arr).astype(float)
    else:
        is_holiday = np.zeros(len(out))
    cal = np.column_stack([hour, dow, months, weekend, is_holiday]).astype(float)
    out.data[:, 8:13] = cal
    out.missing[:, 8:13] = False
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
        missing = frame.missing[sl].copy()
        data[WINDOW_HOURS:, LAG24] = data[:-WINDOW_HOURS, DEMAND]
        missing[WINDOW_HOURS:, LAG24] = False
        keep_chunks.append((frame.timestamps[sl][WINDOW_HOURS:],
                            data[WINDOW_HOURS:], missing[WINDOW_HOURS:]))
    if not keep_chunks:
        raise WindowError("no segment is longer than 24 hours; cannot build lag feature")
    ts = np.concatenate([c[0] for c in keep_chunks])
    data = np.concatenate([c[1] for c in keep_chunks])
    missing = np.concatenate([c[2] for c in keep_chunks])
    dropped = len(frame) - ts.size
    return AlignedFrame(ts, data, missing), dropped


def drop_unfilled_rows(frame):
    """Remove rows that still have missing observed values (weather or
    demand); returns (new_frame, dropped_timestamps)."""
    observed_cols = [FEATURE_COLUMNS.index(c) for c in ("demand_mw",) + WEATHER_COLUMNS]
    bad = frame.missing[:, observed_cols].any(axis=1)
    if not bad.any():
        return frame, np.array([], dtype="datetime64[s]")
    keep = ~bad
    return (
        AlignedFrame(frame.timestamps[keep], frame.data[keep], frame.missing[keep]),
        frame.timestamps[bad],
    )


@dataclass(frozen=True)
class SplitSpec:
    """Chronologically ordered, disjoint half-open [start, end) ranges."""

    train: tuple
    val: tuple
    test: tuple

    def __post_init__(self):
        ranges = [self.train, self.val, self.test]
        parsed = []
        for lo, hi in ranges:
            lo = lo.rstrip("Z") if isinstance(lo, str) else lo
            hi = hi.rstrip("Z") if isinstance(hi, str) else hi
            lo, hi = np.datetime64(lo, "s"), np.datetime64(hi, "s")
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
    if frame.missing.any():
        raise WindowError("frame must be fully imputed before windowing")
    std_data = standardizer.transform(frame.data)
    out = {}
    for tag in ("train", "val", "test"):
        lo, hi = split.range_of(tag)
        sel = np.flatnonzero((frame.timestamps >= lo) & (frame.timestamps < hi))
        windows, targets_idx = [], []
        if sel.size:
            sub_ts = frame.timestamps[sel]
            breaks = np.flatnonzero(np.diff(sub_ts) != HOUR)
            starts = np.concatenate([[0], breaks + 1])
            ends = np.concatenate([breaks + 1, [sel.size]])
            for s, e in zip(starts, ends):
                seg = sel[s:e]
                for t in range(WINDOW_HOURS, seg.size):
                    windows.append(std_data[seg[t - WINDOW_HOURS]:seg[t - WINDOW_HOURS] + WINDOW_HOURS])
                    targets_idx.append(seg[t])
        if not windows:
            raise WindowError(f"split {tag!r} is shorter than 25 contiguous hours")
        targets_idx = np.array(targets_idx)
        out[tag] = WindowSet(
            inputs=np.stack(windows),
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
