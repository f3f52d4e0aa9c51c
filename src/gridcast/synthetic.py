"""Envelope-driven synthetic dataset generator.

Demand is built from the parabolic temperature curve evaluated at the
three-station mean temperature, plus diurnal/weekly/holiday calendar terms,
a cold-wind heating term, and Gaussian noise. Scheduled extreme events
inject temperature excursions with correlated wind/precipitation spikes so
tail-regime behavior is constructible and exactly testable.

Everything is deterministic per seed; emitting the same config twice yields
byte-identical CSVs.
"""

import datetime as dt
import json
from dataclasses import dataclass

import numpy as np

from . import ingest
from .errors import ConfigError
from .physics import REFERENCE_ENVELOPE, ParabolicEnvelope, envelope_demand
from .seeding import seeded_rng


@dataclass(frozen=True)
class ExtremeEvent:
    """Temperature excursion with wind/precip multipliers.

    The offset ramps up over ramp_h hours, holds, and ramps down over
    ramp_h hours; duration_h counts the full-offset plateau.
    """

    start: str
    duration_h: int
    temp_offset_c: float
    wind_mult: float = 1.0
    precip_mult: float = 1.0
    ramp_h: int = 3

    def to_dict(self):
        return {
            "start": self.start, "duration_h": self.duration_h,
            "temp_offset_c": self.temp_offset_c, "wind_mult": self.wind_mult,
            "precip_mult": self.precip_mult, "ramp_h": self.ramp_h,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def default_event_schedule(start_year, years):
    """Three events per year: a January cold snap, a July heat spell, and a
    late-December cold snap with heavy wind and precipitation."""
    events = []
    for year in range(start_year, start_year + years):
        events.append(ExtremeEvent(f"{year}-01-10T06:00:00Z", 60, -14.0,
                                   wind_mult=2.6, precip_mult=2.5))
        events.append(ExtremeEvent(f"{year}-07-19T10:00:00Z", 72, 5.0,
                                   wind_mult=1.1, precip_mult=0.4))
        events.append(ExtremeEvent(f"{year}-12-21T18:00:00Z", 48, -12.0,
                                   wind_mult=2.2, precip_mult=3.0))
    return tuple(events)


@dataclass(frozen=True)
class SyntheticConfig:
    start: str = "2024-01-01"
    years: int = 2
    seed: int = 0
    envelope: ParabolicEnvelope = REFERENCE_ENVELOPE
    # temperature process
    t_mean_c: float = 18.0
    t_seasonal_amp_c: float = 10.0
    t_diurnal_amp_c: float = 3.5
    t_noise_c: float = 1.6
    t_ar: float = 0.95
    station_offsets_c: tuple = (-0.8, 0.2, 0.9)
    station_noise_c: float = 0.25
    # demand terms
    diurnal_amp_mw: float = 2500.0
    diurnal_peak_hour: float = 17.0
    weekend_dip_mw: float = 1800.0
    holiday_dip_mw: float = 1200.0
    wind_coupling_mw: float = 150.0
    noise_std_mw: float = 350.0
    demand_clip_mw: tuple = (29_360.0, 85_435.0)
    # weather extras
    wind_base_ms: float = 4.0
    events: tuple = None  # None -> default_event_schedule
    missing_rate: float = 0.0
    stations: tuple = ("BKS", "JDD", "TME")

    def __post_init__(self):
        if self.years < 1:
            raise ConfigError("years must be >= 1")
        if len(self.stations) != len(self.station_offsets_c):
            raise ConfigError("one temperature offset per station required")
        if self.events is None:
            start_year = int(self.start[:4])
            object.__setattr__(
                self, "events", default_event_schedule(start_year, self.years))

    def to_dict(self):
        d = {
            k: getattr(self, k)
            for k in (
                "start", "years", "seed", "t_mean_c", "t_seasonal_amp_c",
                "t_diurnal_amp_c", "t_noise_c", "t_ar", "station_noise_c",
                "diurnal_amp_mw", "diurnal_peak_hour", "weekend_dip_mw",
                "holiday_dip_mw", "wind_coupling_mw", "noise_std_mw",
                "wind_base_ms", "missing_rate",
            )
        }
        d["envelope"] = self.envelope.to_dict()
        d["station_offsets_c"] = list(self.station_offsets_c)
        d["demand_clip_mw"] = list(self.demand_clip_mw)
        d["events"] = [e.to_dict() for e in self.events]
        d["stations"] = list(self.stations)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["envelope"] = ParabolicEnvelope.from_dict(d["envelope"])
        d["station_offsets_c"] = tuple(d["station_offsets_c"])
        d["demand_clip_mw"] = tuple(d["demand_clip_mw"])
        d["events"] = tuple(ExtremeEvent.from_dict(e) for e in d["events"])
        d["stations"] = tuple(d["stations"])
        return cls(**d)


@dataclass
class SyntheticDataset:
    timestamps: np.ndarray           # datetime64[s], hourly
    demand_mw: np.ndarray
    station_weather: dict            # station -> (N, 6) WEATHER_COLUMNS values
    holidays: set
    event_weight: np.ndarray         # 0..1 event envelope per hour
    n_clipped: int


def _ar1(rng, n, rho, sigma):
    eps = rng.normal(0.0, 1.0, size=n)
    out = np.empty(n)
    out[0] = eps[0] * sigma
    scale = sigma * np.sqrt(1.0 - rho * rho)
    for i in range(1, n):
        out[i] = rho * out[i - 1] + scale * eps[i]
    return out


def _event_weight(timestamps, events):
    """Event weight and temperature offset per hour.

    Each event has a 0..1 raised-ramp profile. Where events overlap, the
    one with the largest profile at that hour (the earlier-scheduled one on
    a tie) sets both: the weight is that profile and the offset is it times
    the event's temp_offset_c, the same max rule as the wind and
    precipitation multipliers.
    """
    w = np.zeros(timestamps.size)
    signed = np.zeros(timestamps.size)
    t0 = timestamps[0]
    hour_index = ((timestamps - t0) / np.timedelta64(1, "h")).astype(int)
    for ev in events:
        start = np.datetime64(ev.start.rstrip("Z"), "s")
        s = int((start - t0) / np.timedelta64(1, "h"))
        ramp, dur = ev.ramp_h, ev.duration_h
        total = 2 * ramp + dur
        rel = hour_index - s
        inside = (rel >= 0) & (rel < total)
        prof = np.zeros(timestamps.size)
        r = rel[inside]
        up = r < ramp
        down = r >= ramp + dur
        hold = ~up & ~down
        vals = np.empty(r.size)
        vals[up] = (r[up] + 1) / (ramp + 1)
        vals[hold] = 1.0
        vals[down] = 1.0 - (r[down] - ramp - dur + 1) / (ramp + 1)
        prof[inside] = vals
        stronger = prof > w
        signed[stronger] = prof[stronger] * ev.temp_offset_c
        w[stronger] = prof[stronger]
    return w, signed


def _feels_like(temp, wind, humidity):
    # crude wind-chill below 10 C and humidity bump above 27 C
    chill = -0.7 * wind * np.maximum(0.0, 10.0 - temp) / 10.0
    muggy = 0.05 * humidity * np.maximum(0.0, temp - 27.0) / 10.0
    return temp + chill + muggy


def _wx_code(temp, precip, humidity):
    code = np.zeros(temp.size)
    rain = precip > 0.5
    code[rain & (temp > 2.0)] = ingest.WX_CODES["rain"]
    code[rain & (temp <= 2.0)] = ingest.WX_CODES["snow"]
    code[precip > 8.0] = ingest.WX_CODES["thunderstorm"]
    code[(~rain) & (humidity > 97.0)] = ingest.WX_CODES["fog"]
    return code


def generate(config):
    """Build the full synthetic dataset in memory."""
    start = np.datetime64(config.start + "T00:00:00", "s")
    start_date = dt.date.fromisoformat(config.start)
    end_date = dt.date(start_date.year + config.years, start_date.month, start_date.day)
    n = int((np.datetime64(end_date) - np.datetime64(start_date))
            / np.timedelta64(1, "D")) * 24
    timestamps = start + np.arange(n) * np.timedelta64(3600, "s")

    doy = (timestamps.astype("datetime64[D]")
           - timestamps.astype("datetime64[Y]")).astype(int)
    hour = (timestamps - timestamps.astype("datetime64[D]")).astype("timedelta64[h]").astype(int)
    days = timestamps.astype("datetime64[D]").astype("int64")
    dow = (days + 3) % 7 + 1

    rng_t = seeded_rng(config.seed, "synthetic", "temperature")
    seasonal = -config.t_seasonal_amp_c * np.cos(2 * np.pi * (doy - 15) / 365.25)
    diurnal_t = config.t_diurnal_amp_c * np.sin(2 * np.pi * (hour - 9) / 24.0)
    noise_t = _ar1(rng_t, n, config.t_ar, config.t_noise_c) if config.t_noise_c > 0 else np.zeros(n)
    weight, signed_offset = _event_weight(timestamps, config.events)
    base_temp = config.t_mean_c + seasonal + diurnal_t + noise_t + signed_offset

    rng_st = seeded_rng(config.seed, "synthetic", "stations")
    station_temps = {}
    for name, offset in zip(config.stations, config.station_offsets_c):
        jitter = (rng_st.normal(0.0, config.station_noise_c, size=n)
                  if config.station_noise_c > 0 else np.zeros(n))
        station_temps[name] = base_temp + offset + jitter
    mean_temp = np.mean(list(station_temps.values()), axis=0)

    rng_w = seeded_rng(config.seed, "synthetic", "weather")
    wind = np.abs(config.wind_base_ms + _ar1(rng_w, n, 0.9, 1.6))
    wind_mult = np.ones(n)
    precip_mult = np.ones(n)
    for ev in config.events:
        w_ev, _ = _event_weight(timestamps, (ev,))
        wind_mult = np.maximum(wind_mult, 1.0 + (ev.wind_mult - 1.0) * w_ev)
        precip_mult = np.maximum(precip_mult, 1.0 + (ev.precip_mult - 1.0) * w_ev)
    wind = wind * wind_mult
    humidity = np.clip(60.0 - 0.8 * (mean_temp - 20.0) + rng_w.normal(0, 6.0, n), 4.0, 100.0)
    burst = rng_w.random(n) < 0.05
    precip = np.where(burst, rng_w.exponential(2.0, n), 0.0) * precip_mult
    precip = np.clip(precip, 0.0, 48.6)

    rng_d = seeded_rng(config.seed, "synthetic", "demand")
    diurnal_d = config.diurnal_amp_mw * np.sin(
        2 * np.pi * (hour - (config.diurnal_peak_hour - 6.0)) / 24.0)
    weekend = (dow >= 6).astype(float)
    holidays = ingest.us_federal_holidays(start_date.year, end_date.year)
    holiday_arr = np.array(sorted(holidays), dtype="datetime64[D]")
    is_holiday = np.isin(timestamps.astype("datetime64[D]"), holiday_arr).astype(float)
    chill_factor = np.maximum(0.0, 10.0 - mean_temp) / 10.0
    demand = (
        envelope_demand(config.envelope, mean_temp)
        + diurnal_d
        - config.weekend_dip_mw * weekend
        - config.holiday_dip_mw * is_holiday
        + config.wind_coupling_mw * wind * chill_factor
        + (rng_d.normal(0.0, config.noise_std_mw, size=n)
           if config.noise_std_mw > 0 else 0.0)
    )
    lo, hi = config.demand_clip_mw
    n_clipped = int(np.sum((demand < lo) | (demand > hi)))
    demand = np.clip(demand, lo, hi)

    station_weather = {}
    rng_m = seeded_rng(config.seed, "synthetic", "missing")
    for name in config.stations:
        temp_s = station_temps[name]
        vals = np.column_stack([
            temp_s,
            _feels_like(temp_s, wind, humidity),
            humidity,
            wind,
            precip,
            _wx_code(temp_s, precip, humidity),
        ])
        if config.missing_rate > 0:
            drop = rng_m.random(vals.shape) < config.missing_rate
            vals = np.where(drop, np.nan, vals)
        station_weather[name] = vals

    return SyntheticDataset(
        timestamps=timestamps,
        demand_mw=demand,
        station_weather=station_weather,
        holidays=holidays,
        event_weight=weight,
        n_clipped=n_clipped,
    )


def write_dataset(config, out_dir):
    """Generate and write load.csv, weather.csv, holidays.txt, manifest.json.

    Returns the manifest dict.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    data = generate(config)
    fmt = ingest.float_repr

    load_path = out_dir / "load.csv"
    with open(load_path, "w", newline="") as fh:
        fh.write("timestamp_utc,demand_mw\n")
        for ts, mw in zip(data.timestamps, data.demand_mw):
            fh.write(f"{ingest.format_timestamp(ts)},{fmt(mw)}\n")

    weather_path = out_dir / "weather.csv"
    with open(weather_path, "w", newline="") as fh:
        fh.write("station,timestamp_utc,temp_c,feels_like_c,humidity_pct,"
                 "wind_ms,precip_mm,wx_code\n")
        for name in config.stations:
            vals = data.station_weather[name]
            for i in range(data.timestamps.size):
                cells = ["" if np.isnan(v) else fmt(v) for v in vals[i]]
                fh.write(f"{name},{ingest.format_timestamp(data.timestamps[i])},"
                         + ",".join(cells) + "\n")

    holiday_path = out_dir / "holidays.txt"
    holiday_path.write_text(
        "".join(f"{d.isoformat()}\n" for d in sorted(data.holidays)))

    manifest = {
        "config": config.to_dict(),
        "n_hours": int(data.timestamps.size),
        "n_clipped_demand": data.n_clipped,
        "files": {
            "load": load_path.name,
            "weather": weather_path.name,
            "holidays": holiday_path.name,
        },
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
