"""Envelope-driven synthetic dataset generator.

Demand is built from the parabolic temperature curve evaluated at the
three-station mean temperature, plus diurnal/weekly/holiday calendar terms,
a cold-wind heating term, and Gaussian noise. Scheduled extreme events
inject temperature excursions with wind/precipitation multipliers so
tail-regime behavior is constructible and exactly testable. At each hour
the one strongest event (the earlier-scheduled one on a tie) sets the event
weight, the temperature offset and both multipliers.

A SyntheticConfig sets what one dataset varies: its start date, its length
in years, its seed, its extreme events and the share of weather cells
dropped. The climate, the station set and the demand terms are module
constants: one climate and one grid, as the source data has.

Everything is deterministic per seed; emitting the same config twice yields
byte-identical files, all of which gridcast.ingest writes. The manifest's
config rebuilds the dataset it sits beside.
"""

import datetime as dt
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import ingest
from .errors import ConfigError, check_int, check_real
from .physics import REFERENCE_ENVELOPE, envelope_demand
from .seeding import seeded_rng

# One climate and one grid: demand follows REFERENCE_ENVELOPE, whose breakpoint
# t0_c the calibration splits at.
T_MEAN_C = 18.0
T_SEASONAL_AMP_C = 10.0
T_DIURNAL_AMP_C = 3.5
T_AR = 0.95
DIURNAL_PEAK_HOUR = 17.0
DEMAND_CLIP_MW = (29_360.0, 85_435.0)
WIND_BASE_MS = 4.0
# the temperature process: one AR(1) noise shared by the stations, then each
# station's offset from it and its own jitter
T_NOISE_C = 1.6
STATIONS = ("BKS", "JDD", "TME")
STATION_OFFSETS_C = (-0.8, 0.2, 0.9)
STATION_NOISE_C = 0.25
# demand terms added to the envelope
DIURNAL_AMP_MW = 2500.0
WEEKEND_DIP_MW = 1800.0
HOLIDAY_DIP_MW = 1200.0
WIND_COUPLING_MW = 150.0
NOISE_STD_MW = 350.0


@dataclass(frozen=True)
class ExtremeEvent:
    """Temperature excursion with wind/precip multipliers.

    The event's weight ramps up over ramp_h hours, holds at 1, and ramps
    down over ramp_h hours; duration_h counts the plateau. Where it is the
    strongest event, weight w adds w * temp_offset_c to the temperature and
    scales wind and precipitation by 1 + (mult - 1) * w. start is read by
    the CSV timestamp rule (ingest.parse_timestamp), exact hours included,
    and kept as the text ingest.format_timestamp writes; every value is
    kept as its builtin type, which the manifest's json.dumps writes.
    """

    start: str
    duration_h: int
    temp_offset_c: float
    wind_mult: float = 1.0
    precip_mult: float = 1.0
    ramp_h: int = 3

    def __post_init__(self):
        start = self.start_time  # a bad start raises ConfigError here
        if start != start.astype("datetime64[h]"):
            raise ConfigError(f"ExtremeEvent.start: {self.start!r} is not on an exact hour")
        object.__setattr__(self, "start", ingest.format_timestamp(start))
        for name in ("duration_h", "ramp_h"):
            hours = check_int(f"ExtremeEvent.{name}", getattr(self, name), 0)
            object.__setattr__(self, name, hours)
        for name, lo in (("temp_offset_c", -math.inf), ("wind_mult", 0.0), ("precip_mult", 0.0)):
            value = check_real(f"ExtremeEvent.{name}", getattr(self, name), lo)
            object.__setattr__(self, name, value)

    @property
    def start_time(self):
        """start as datetime64[s]."""
        return ingest.parse_timestamp(self.start, "ExtremeEvent.start")


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
    """What one dataset varies. Each value is kept as its builtin type, which
    the manifest's json.dumps writes; `stations` reads the constant STATIONS."""

    start: str = "2024-01-01"
    years: int = 2
    seed: int = 0
    events: tuple = None  # None -> default_event_schedule
    missing_rate: float = 0.0
    stations: ClassVar[tuple] = STATIONS

    def __post_init__(self):
        for name, least in (("seed", 0), ("years", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), least))
        try:
            start_date = dt.date.fromisoformat(self.start)
            start_date.replace(year=start_date.year + self.years)  # generate's end date
        except (TypeError, ValueError):
            start_date = None
        if start_date is None or start_date.isoformat() != self.start:
            raise ConfigError(f"start must be an ISO date (YYYY-MM-DD) whose day exists "
                              f"{self.years} years later too, got {self.start!r}")
        rate = check_real("missing_rate", self.missing_rate, 0.0, 1.0)
        object.__setattr__(self, "missing_rate", rate)
        if self.events is None:
            object.__setattr__(
                self, "events", default_event_schedule(start_date.year, self.years))
        elif not (isinstance(self.events, (tuple, list))
                  and all(isinstance(ev, ExtremeEvent) for ev in self.events)):
            raise ConfigError(f"events must be None or a tuple of ExtremeEvent, "
                              f"got {self.events!r}")
        else:  # a list is kept as the tuple it equals, so the config hashes
            object.__setattr__(self, "events", tuple(self.events))


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


def _strongest_event(timestamps, events):
    """Event weight, temperature offset, wind and precipitation multipliers
    per hour.

    Each event's profile at r hours after its start is
    clip(min((r + 1) / (ramp + 1), 1 - (r - ramp - dur + 1) / (ramp + 1)), 0, 1):
    up over ramp_h hours, 1 over the duration_h plateau, down over ramp_h
    hours. At each hour the event with the largest profile (the
    earlier-scheduled one on a tie) sets all four values: weight w is its
    profile, the offset w * temp_offset_c and each multiplier
    1 + (mult - 1) * w. An hour no event reaches has w = 0, offset 0 and
    multipliers 1.
    """
    t0 = timestamps[0]
    start, ramp, dur = np.array(
        [((ev.start_time - t0) // ingest.HOUR, ev.ramp_h, ev.duration_h) for ev in events],
        dtype=np.int64).reshape(-1, 3).T[:, :, None]
    r = (timestamps - t0) // ingest.HOUR - start
    profiles = np.clip(np.minimum((r + 1) / (ramp + 1),
                                  1.0 - (r - ramp - dur + 1) / (ramp + 1)), 0.0, 1.0)
    # (events + 1, hours): row 0 is "no event", which argmax picks where
    # every profile is 0; argmax takes the first of equal maxima
    profiles = np.vstack([np.zeros(timestamps.size), profiles])
    strongest = np.argmax(profiles, axis=0)
    weight = profiles.max(axis=0)
    temp, wind, precip = np.array(
        [(0.0, 1.0, 1.0)]
        + [(ev.temp_offset_c, ev.wind_mult, ev.precip_mult) for ev in events])[strongest].T
    return weight, weight * temp, 1.0 + (wind - 1.0) * weight, 1.0 + (precip - 1.0) * weight


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
    end_date = start_date.replace(year=start_date.year + config.years)
    n = (end_date - start_date).days * 24
    timestamps = start + np.arange(n) * ingest.HOUR

    doy = (timestamps.astype("datetime64[D]")
           - timestamps.astype("datetime64[Y]")).astype(int)
    holidays = ingest.us_federal_holidays(start_date.year, end_date.year)
    hour, _, _, weekend, is_holiday = ingest.calendar_columns(timestamps, holidays).T

    rng_t = seeded_rng(config.seed, "synthetic", "temperature")
    seasonal = -T_SEASONAL_AMP_C * np.cos(2 * np.pi * (doy - 15) / 365.25)
    diurnal_t = T_DIURNAL_AMP_C * np.sin(2 * np.pi * (hour - 9) / 24.0)
    noise_t = _ar1(rng_t, n, T_AR, T_NOISE_C)
    weight, signed_offset, wind_mult, precip_mult = _strongest_event(timestamps, config.events)
    base_temp = T_MEAN_C + seasonal + diurnal_t + noise_t + signed_offset

    rng_st = seeded_rng(config.seed, "synthetic", "stations")
    station_temps = {}
    for name, offset in zip(STATIONS, STATION_OFFSETS_C):
        jitter = rng_st.normal(0.0, STATION_NOISE_C, size=n)
        station_temps[name] = base_temp + offset + jitter
    mean_temp = np.mean(list(station_temps.values()), axis=0)

    rng_w = seeded_rng(config.seed, "synthetic", "weather")
    wind = np.abs(WIND_BASE_MS + _ar1(rng_w, n, 0.9, 1.6)) * wind_mult
    humidity = np.clip(60.0 - 0.8 * (mean_temp - 20.0) + rng_w.normal(0, 6.0, n), 4.0, 100.0)
    burst = rng_w.random(n) < 0.05
    precip = np.where(burst, rng_w.exponential(2.0, n), 0.0) * precip_mult
    precip = np.clip(precip, 0.0, 48.6)

    rng_d = seeded_rng(config.seed, "synthetic", "demand")
    diurnal_d = DIURNAL_AMP_MW * np.sin(
        2 * np.pi * (hour - (DIURNAL_PEAK_HOUR - 6.0)) / 24.0)
    chill_factor = np.maximum(0.0, 10.0 - mean_temp) / 10.0
    demand = (
        envelope_demand(REFERENCE_ENVELOPE, mean_temp)
        + diurnal_d
        - WEEKEND_DIP_MW * weekend
        - HOLIDAY_DIP_MW * is_holiday
        + WIND_COUPLING_MW * wind * chill_factor
        + rng_d.normal(0.0, NOISE_STD_MW, size=n)
    )
    lo, hi = DEMAND_CLIP_MW
    n_clipped = int(np.sum((demand < lo) | (demand > hi)))
    demand = np.clip(demand, lo, hi)

    station_weather = {}
    rng_m = seeded_rng(config.seed, "synthetic", "missing")
    for name in STATIONS:
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
    """Generate and write load.csv, weather.csv, holidays.txt, manifest.json
    into out_dir, a str or Path, made if missing.

    ingest writes the data files; weather rows run station by station in
    config order, each over every hour. The manifest holds the config as
    asdict gives it. Returns the manifest dict.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = generate(config)

    load_path = out_dir / "load.csv"
    ingest.write_load_csv(load_path, ingest.LoadSeries(data.timestamps, data.demand_mw))

    weather_path = out_dir / "weather.csv"
    ingest.write_weather_csv(weather_path, ingest.WeatherTable(
        np.repeat(np.array(STATIONS), data.timestamps.size),
        np.tile(data.timestamps, len(STATIONS)),
        np.concatenate([data.station_weather[name] for name in STATIONS])))

    holiday_path = out_dir / "holidays.txt"
    ingest.write_holiday_file(holiday_path, data.holidays)

    manifest = {
        "config": asdict(config),
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
