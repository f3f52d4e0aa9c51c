"""Row-by-row reference versions of the columnar code in gridcast.ingest.

The CSV parsers here read one row at a time and check one field at a time,
in row order; the CSV writers format and write one row at a time, with the
header text spelled out; `align_hourly` averages each (hour, field) cell
over a list of its station values; `missing_runs` and `make_windows` are the
plain loops, and `impute_linear` and `add_lag_feature` work one hourly
segment (`segments`) at a time. The property tests in test_ingest_properties.py
hold the columnar code to the same results. The timestamp rule is the current one: a trailing Z is the
only UTC offset accepted, and an empty or NaT field is a bad timestamp.

The parsers read rows with the csv module, a general CSV parser, so on the
unquoted files the properties draw they check gridcast.ingest's own line
splitting, \n and \r\n line ends and a missing final newline included.
"""

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from gridcast.errors import (
    AlignmentError,
    CsvParseError,
    ImputationError,
    OrderingError,
    WindowError,
)
from gridcast.ingest import (
    AIR_TEMP,
    DEMAND,
    FEATURE_COLUMNS,
    HOUR,
    LAG24,
    LOAD_HEADER,
    N_FEATURES,
    WEATHER_COLUMNS,
    WEATHER_HEADER,
    WINDOW_HOURS,
    WX_CODES,
    AlignedFrame,
    GapReport,
    LoadSeries,
    WeatherTable,
    format_timestamp,
)

_WX_CODE_VALUES = frozenset(float(code) for code in WX_CODES.values())


def _parse_timestamp(text, line):
    raw = text.strip().removesuffix("Z")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy only warns on a UTC offset
            ts = np.datetime64(raw, "s")
    except (ValueError, Warning):
        raise CsvParseError(f"bad timestamp {text!r}", line=line) from None
    if np.isnat(ts):
        raise CsvParseError(f"bad timestamp {text!r}", line=line)
    if ts != ts.astype("datetime64[h]").astype("datetime64[s]"):
        raise CsvParseError(f"timestamp {text!r} is not on an exact hour", line=line)
    return ts


def parse_load_csv(path):
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
    if text == "":
        return np.nan
    try:
        val = float(text)
    except ValueError:
        raise CsvParseError(f"bad {name} value {text!r}", line=line) from None
    if not (lo <= val <= hi and math.isfinite(val)):
        raise CsvParseError(f"{name}={val} is not a finite value in [{lo}, {hi}]", line=line)
    return val


def parse_weather_csv(path):
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


def write_load_csv(path, load):
    with open(path, "w", newline="") as fh:
        fh.write("timestamp_utc,demand_mw\n")
        for ts, mw in zip(load.timestamps, load.demand_mw):
            fh.write(f"{format_timestamp(ts)},{float(mw)!r}\n")


def write_weather_csv(path, weather):
    with open(path, "w", newline="") as fh:
        fh.write("station,timestamp_utc,temp_c,feels_like_c,humidity_pct,"
                 "wind_ms,precip_mm,wx_code\n")
        for station, ts, vals in zip(weather.station, weather.timestamps, weather.values):
            cells = ["" if np.isnan(v) else repr(float(v)) for v in vals]
            fh.write(f"{station},{format_timestamp(ts)}," + ",".join(cells) + "\n")


def align_hourly(load, weather, stations):
    stations = set(stations)
    if not stations:
        raise AlignmentError("need at least one station")
    usable = stations & set(weather.station.tolist())
    if not usable:
        raise AlignmentError(
            f"none of the requested stations {sorted(stations)} appear in the weather data")
    row_of = {ts: row for row, ts in enumerate(load.timestamps.tolist())}
    # cells[row][j]: the values the usable stations report for field j at that
    # hour, in table order
    cells = [[[] for _ in WEATHER_COLUMNS] for _ in range(len(load))]
    for station, ts, values in zip(weather.station.tolist(), weather.timestamps.tolist(),
                                   weather.values.tolist()):
        if station not in usable or ts not in row_of:
            continue
        for j, value in enumerate(values):
            if not math.isnan(value):
                cells[row_of[ts]][j].append(value)
    if not any(reported for row in cells for reported in row):
        raise AlignmentError("load and weather time ranges do not overlap")
    data = np.full((len(load), N_FEATURES), np.nan)
    data[:, DEMAND] = load.demand_mw
    for row, fields in enumerate(cells):
        for name, reported in zip(WEATHER_COLUMNS, fields):
            if reported:
                total = 0.0
                for value in reported:  # left to right; sum() may compensate
                    total += value
                data[row, FEATURE_COLUMNS.index(name)] = total / len(reported)
    return AlignedFrame(load.timestamps.copy(), data)


def missing_runs(miss):
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


def segments(timestamps):
    """(start, end) index ranges of hourly-contiguous rows, end exclusive."""
    if timestamps.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(timestamps) != HOUR)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks + 1, [timestamps.size]])
    return list(zip(starts.tolist(), ends.tolist()))


def impute_linear(frame, max_gap_hours=6):
    out = frame.copy()
    reports = []
    for col_name in WEATHER_COLUMNS:
        ci = FEATURE_COLUMNS.index(col_name)
        if np.isnan(out.data[:, ci]).all():
            raise ImputationError(f"column {col_name!r} is entirely missing")
        for seg_start, seg_end in segments(frame.timestamps):
            vals = out.data[seg_start:seg_end, ci]
            for run_start, run_len in missing_runs(np.isnan(vals)):
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


def add_lag_feature(frame):
    keep_chunks = []
    for seg_start, seg_end in segments(frame.timestamps):
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


@dataclass(frozen=True)
class Windows:
    """One split's windows with each window's 24 rows stacked into inputs;
    the properties compare a WindowSet's fields, inputs included, with these."""

    inputs: np.ndarray
    targets_mw: np.ndarray
    targets_std: np.ndarray
    target_timestamps: np.ndarray
    target_air_temp_c: np.ndarray


def make_windows(frame, standardizer, split):
    if frame.missing.any():
        raise WindowError("frame must be fully imputed before windowing")
    # window inputs are the standardized frame rounded once to float32
    std_data = standardizer.transform(frame.data).astype(np.float32)
    out = {}
    for tag in ("train", "val", "test"):
        lo, hi = split.range_of(tag)
        sel = np.flatnonzero((frame.timestamps >= lo) & (frame.timestamps < hi))
        windows, targets_idx = [], []
        for s, e in segments(frame.timestamps[sel]):
            seg = sel[s:e]
            for t in range(WINDOW_HOURS, seg.size):
                first = seg[t - WINDOW_HOURS]
                windows.append(std_data[first:first + WINDOW_HOURS])
                targets_idx.append(seg[t])
        if not windows:
            raise WindowError(f"split {tag!r} is shorter than 25 contiguous hours")
        targets_idx = np.array(targets_idx)
        out[tag] = Windows(
            inputs=np.stack(windows),
            targets_mw=frame.data[targets_idx, DEMAND].copy(),
            targets_std=standardizer.standardize_demand(frame.data[targets_idx, DEMAND]),
            target_timestamps=frame.timestamps[targets_idx].copy(),
            target_air_temp_c=frame.data[targets_idx, AIR_TEMP].copy(),
        )
    return out
