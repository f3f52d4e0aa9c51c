import dataclasses
import json

import numpy as np
import pytest

from gridcast import ingest, physics, synthetic
from gridcast.errors import ConfigError


def noiseless_config(**overrides):
    base = dict(
        years=1,
        seed=3,
        t_noise_c=0.0,
        station_noise_c=0.0,
        station_offsets_c=(0.0, 0.0, 0.0),
        diurnal_amp_mw=0.0,
        weekend_dip_mw=0.0,
        holiday_dip_mw=0.0,
        wind_coupling_mw=0.0,
        noise_std_mw=0.0,
        events=(),
    )
    base.update(overrides)
    return synthetic.SyntheticConfig(**base)


def test_weekend_and_holiday_dips_follow_the_ingest_calendar():
    # 2026-07-04 is a Saturday, so both dips also fall on one day
    cfg = noiseless_config(start="2026-01-01", weekend_dip_mw=1800.0, holiday_dip_mw=1200.0)
    data = synthetic.generate(cfg)
    frame = ingest.encode_calendar(
        ingest.AlignedFrame(data.timestamps,
                            np.full((data.timestamps.size, ingest.N_FEATURES), np.nan)),
        data.holidays)
    weekend, holiday = frame.col("is_weekend"), frame.col("is_holiday")
    assert weekend.any() and holiday.any() and (weekend * holiday).any()
    mean_temp = np.mean([v[:, 0] for v in data.station_weather.values()], axis=0)
    envelope = physics.envelope_demand(physics.REFERENCE_ENVELOPE, mean_temp)
    lo, hi = synthetic.DEMAND_CLIP_MW
    clipped = (data.demand_mw <= lo) | (data.demand_mw >= hi)
    assert not clipped.all()
    np.testing.assert_allclose((data.demand_mw - envelope)[~clipped],
                               (-1800.0 * weekend - 1200.0 * holiday)[~clipped], atol=1e-9)


def test_zero_noise_demand_sits_exactly_on_the_envelope():
    cfg = noiseless_config()
    data = synthetic.generate(cfg)
    mean_temp = np.mean([v[:, 0] for v in data.station_weather.values()], axis=0)
    expected = physics.envelope_demand(physics.REFERENCE_ENVELOPE, mean_temp)
    lo, hi = synthetic.DEMAND_CLIP_MW
    clipped = (expected < lo) | (expected > hi)
    np.testing.assert_allclose(data.demand_mw[~clipped], expected[~clipped], atol=1e-9)


def test_envelope_refit_recovers_generating_coefficients():
    cfg = noiseless_config()
    data = synthetic.generate(cfg)
    mean_temp = np.mean([v[:, 0] for v in data.station_weather.values()], axis=0)
    fit, _ = physics.fit_envelope(mean_temp, data.demand_mw, physics.REFERENCE_ENVELOPE.t0_c)
    for name, ref in dataclasses.asdict(physics.REFERENCE_ENVELOPE).items():
        assert getattr(fit, name) == pytest.approx(ref, rel=1e-6)


def test_same_seed_twice_gives_byte_identical_csvs(tmp_path):
    cfg = synthetic.SyntheticConfig(years=1, seed=11)
    m1 = synthetic.write_dataset(cfg, tmp_path / "a")
    m2 = synthetic.write_dataset(cfg, tmp_path / "b")
    assert m1 == m2
    for name in ("load.csv", "weather.csv", "holidays.txt", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_different_seeds_differ(tmp_path):
    a = synthetic.generate(synthetic.SyntheticConfig(years=1, seed=1))
    b = synthetic.generate(synthetic.SyntheticConfig(years=1, seed=2))
    assert not np.array_equal(a.demand_mw, b.demand_mw)


def test_roundtrips_through_ingest_with_no_imputation(tmp_path):
    cfg = synthetic.SyntheticConfig(years=1, seed=4)
    synthetic.write_dataset(cfg, tmp_path)
    load = ingest.parse_load_csv(tmp_path / "load.csv")
    weather = ingest.parse_weather_csv(tmp_path / "weather.csv")
    holidays = ingest.parse_holiday_file(tmp_path / "holidays.txt")
    frame, report = ingest.build_frame(load, weather, set(cfg.stations), holidays)
    assert report["unfilled_runs"] == []
    assert report["dropped_hours"] == []
    assert not frame.missing.any()
    assert len(frame) == len(load) - 24


def test_two_year_config_has_17544_hours():
    data = synthetic.generate(synthetic.SyntheticConfig(years=2, seed=0))
    assert data.timestamps.size == 17_544


def test_manifest_reports_clipping(tmp_path):
    # an absurd heat event forces demand into the cap
    cfg = synthetic.SyntheticConfig(
        years=1, seed=5,
        events=(synthetic.ExtremeEvent("2024-07-10T00:00:00Z", 48, 25.0),),
    )
    manifest = synthetic.write_dataset(cfg, tmp_path)
    assert manifest["n_clipped_demand"] > 0
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk["n_clipped_demand"] == manifest["n_clipped_demand"]


def test_event_weight_profile():
    cfg = synthetic.SyntheticConfig(
        years=1, seed=6,
        events=(synthetic.ExtremeEvent("2024-03-01T00:00:00Z", 10, -10.0, ramp_h=2),),
    )
    data = synthetic.generate(cfg)
    w = data.event_weight
    start = np.flatnonzero(data.timestamps == np.datetime64("2024-03-01T00:00:00", "s"))[0]
    assert w[start - 1] == 0.0
    assert np.all(w[start + 2 : start + 12] == 1.0)  # plateau after the ramp
    assert w[start] < 1.0
    assert np.all(w[start + 14 :] == 0.0)


def test_missing_rate_injects_gaps(tmp_path):
    cfg = synthetic.SyntheticConfig(years=1, seed=7, missing_rate=0.02)
    data = synthetic.generate(cfg)
    total = sum(int(np.isnan(v).sum()) for v in data.station_weather.values())
    assert total > 0


def test_nested_event_keeps_the_outer_plateau():
    # a weak event inside a strong one's plateau: the larger profile sets the
    # offset and both multipliers, even where the inner multipliers are larger
    hours = np.datetime64("2024-01-01T00:00:00", "s") + np.arange(96) * np.timedelta64(3600, "s")
    outer = synthetic.ExtremeEvent("2024-01-01T10:00:00Z", 48, -10.0,
                                   wind_mult=2.0, precip_mult=3.0)
    inner = synthetic.ExtremeEvent("2024-01-02T00:00:00Z", 2, -1.0,
                                   wind_mult=5.0, precip_mult=4.0)
    weight, offset, wind_mult, precip_mult = synthetic._strongest_event(hours, (outer, inner))
    plateau = slice(13, 61)  # outer ramps up over hours 10-12 and holds for 48 h
    np.testing.assert_array_equal(weight[plateau], 1.0)
    np.testing.assert_array_equal(offset[plateau], -10.0)
    np.testing.assert_array_equal(wind_mult[plateau], 2.0)
    np.testing.assert_array_equal(precip_mult[plateau], 3.0)
    alone = synthetic._strongest_event(hours, (outer,))
    for got, want in zip((weight, offset, wind_mult, precip_mult), alone):
        np.testing.assert_array_equal(got, want)


def test_heat_spell_scales_precipitation_down():
    # precip_mult < 1 applies as 1 + (precip_mult - 1) * weight, like any other
    heat = synthetic.default_event_schedule(2024, 1)[1]
    assert heat.precip_mult < 1.0
    spell = synthetic.generate(noiseless_config(seed=8, events=(heat,)))
    calm = synthetic.generate(noiseless_config(seed=8))
    for name in spell.station_weather:
        precip = spell.station_weather[name][:, ingest.WEATHER_COLUMNS.index("precip_mm")]
        base = calm.station_weather[name][:, ingest.WEATHER_COLUMNS.index("precip_mm")]
        np.testing.assert_array_equal(
            precip, base * (1.0 + (heat.precip_mult - 1.0) * spell.event_weight))
        assert (precip < base).any()


def test_default_schedule_events_never_overlap():
    # so the overlap rule leaves the default datasets unchanged
    cfg = synthetic.SyntheticConfig(years=2, seed=0)
    hours = np.datetime64("2024-01-01T00:00:00", "s") + np.arange(17_544) * np.timedelta64(3600, "s")
    active = sum((synthetic._strongest_event(hours, (ev,))[0] > 0).astype(int)
                 for ev in cfg.events)
    assert active.max() == 1


@pytest.mark.parametrize("start", [
    "2024-03-01T00:00:00+02:00", "2024-03-01T00:00:00ZZ", "2024-03-32", "first of March",
    "2024-03-01T10:59:59Z", "2024-03-01T09:00:01Z",  # not on an exact hour
])
def test_event_start_outside_the_csv_timestamp_rule_is_a_config_error(start):
    with pytest.raises(ConfigError, match="ExtremeEvent.start"):
        synthetic.ExtremeEvent(start, 10, -10.0)


@pytest.mark.parametrize("field, hours", [
    ("duration_h", -1), ("duration_h", 2.5), ("ramp_h", -1), ("ramp_h", 1.5),
    # values that write files ingest rejects, or that are silently clipped
    ("temp_offset_c", float("nan")), ("temp_offset_c", float("inf")),
    ("wind_mult", -3.0), ("wind_mult", float("nan")),
    ("precip_mult", -1.0), ("precip_mult", float("inf")),
])
def test_event_span_that_is_not_whole_hours_is_a_config_error(field, hours):
    # ramp_h = -1 divides by zero in the profile; a fraction would be cut to an int
    with pytest.raises(ConfigError, match=f"ExtremeEvent.{field}"):
        synthetic.ExtremeEvent("2024-03-01T00:00:00Z",
                               **{"duration_h": 10, "temp_offset_c": -10.0, field: hours})


@pytest.mark.parametrize("overrides, field", [
    (dict(start="2024-13-01"), "start"),
    (dict(start="2024-1-1"), "start"),
    (dict(start="2024-01-01T00:00:00"), "start"),
    (dict(start="2024-02-29", years=1), "start"),  # no 2025-02-29 to end on
    (dict(noise_std_mw=-1.0), "noise_std_mw"),
    (dict(t_noise_c=-0.1), "t_noise_c"),
    (dict(station_noise_c=-1e-9), "station_noise_c"),
    # accepted, then the writer failed naming a row instead of the field
    (dict(diurnal_amp_mw=float("inf")), "diurnal_amp_mw"),
    (dict(t_noise_c=float("nan")), "t_noise_c"),
    (dict(weekend_dip_mw=float("-inf")), "weekend_dip_mw"),
    (dict(holiday_dip_mw=float("nan")), "holiday_dip_mw"),
    (dict(wind_coupling_mw=np.float64("inf")), "wind_coupling_mw"),
    (dict(noise_std_mw="a"), "noise_std_mw"),  # was a raw TypeError
    (dict(station_noise_c=None), "station_noise_c"),
    (dict(diurnal_amp_mw=True), "diurnal_amp_mw"),
    (dict(station_offsets_c=(0.0, float("nan"), 0.0)), "station_offsets_c"),
    (dict(station_offsets_c=(0.0, "1", 0.0)), "station_offsets_c"),
    (dict(station_offsets_c=None), "station_offsets_c"),  # was a raw TypeError from len
    (dict(missing_rate=1.5), "missing_rate"),
    (dict(missing_rate=1.0), "missing_rate"),
    (dict(missing_rate=-0.5), "missing_rate"),
    (dict(missing_rate=float("nan")), "missing_rate"),
    (dict(missing_rate="a"), "missing_rate"),  # was a raw TypeError
    (dict(seed=-1), "seed"),  # passed, then generate raised numpy's ValueError
    (dict(years=1.5), "years"),  # named start
    (dict(years=True), "years"),  # was accepted
    (dict(years=1, events=(1,)), "events"),  # generate raised a raw AttributeError
    (dict(years=1, events="2024-07-10T00:00:00Z"), "events"),
    (dict(stations=None), "stations"),  # was a raw TypeError from len
])
def test_bad_config_is_a_config_error(overrides, field):
    with pytest.raises(ConfigError, match=f"^{field}"):
        synthetic.SyntheticConfig(**overrides)


@pytest.mark.parametrize("stations", [
    ("", "JDD", "TME"),
    (" BKS", "JDD", "TME"),  # ingest would strip it and average the other two
    ("BKS\t", "JDD", "TME"),
    ("A,B", "JDD", "TME"),
    ('A"B', "JDD", "TME"),
    ("A\rB", "JDD", "TME"),
    ("A\nB", "JDD", "TME"),
    ("BKS", "JDD", "BKS"),
], ids=repr)
def test_station_id_the_csv_format_cannot_hold_is_a_config_error(stations):
    with pytest.raises(ConfigError, match="stations"):
        synthetic.SyntheticConfig(stations=stations)
