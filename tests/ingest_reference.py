"""Row-by-row reference versions of the columnar code in gridcast.ingest.

The CSV parsers here read one row at a time and check one field at a time,
in row order; the CSV writers format and write one row at a time, with the
header text spelled out; `missing_runs` and `make_windows` are the plain
loops. The property tests in test_ingest_properties.py hold the columnar
code to the same results. The timestamp rule is the current one: a trailing Z is the
only UTC offset accepted, and an empty or NaT field is a bad timestamp.
"""

import csv
import math
import warnings

import numpy as np

from gridcast.errors import CsvParseError, OrderingError, WindowError
from gridcast.ingest import (
    AIR_TEMP,
    DEMAND,
    HOUR,
    LOAD_HEADER,
    WEATHER_HEADER,
    WINDOW_HOURS,
    WX_CODES,
    LoadSeries,
    WeatherTable,
    WindowSet,
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


def make_windows(frame, standardizer, split):
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
                    first = seg[t - WINDOW_HOURS]
                    windows.append(std_data[first:first + WINDOW_HOURS])
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
