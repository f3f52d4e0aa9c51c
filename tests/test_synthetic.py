import dataclasses
import json

import numpy as np
import pytest

from gridcast import ingest, physics, synthetic
from gridcast.errors import ConfigError


def assert_same_files(dir_a, dir_b):
    for name in ("load.csv", "weather.csv", "holidays.txt", "manifest.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


@pytest.fixture
def noiseless_config(monkeypatch):
    """Zero every demand term, so demand is the envelope at the station-mean
    temperature; returns a builder of one-year configs without events. The
    tests recompute that mean from the station columns, so temperature noise
    and station offsets leave the oracle exact."""
    for name in ("DIURNAL_AMP_MW", "WEEKEND_DIP_MW", "HOLIDAY_DIP_MW",
                 "WIND_COUPLING_MW", "NOISE_STD_MW"):
        monkeypatch.setattr(synthetic, name, 0.0)

    def config(**overrides):
        return synthetic.SyntheticConfig(**{"years": 1, "seed": 3, "events": (), **overrides})
    return config


def test_weekend_and_holiday_dips_follow_the_ingest_calendar(noiseless_config, monkeypatch):
    # 2026-07-04 is a Saturday, so both dips also fall on one day
    monkeypatch.setattr(synthetic, "WEEKEND_DIP_MW", 1800.0)
    monkeypatch.setattr(synthetic, "HOLIDAY_DIP_MW", 1200.0)
    cfg = noiseless_config(start="2026-01-01")
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


def test_zero_noise_demand_sits_exactly_on_the_envelope(noiseless_config):
    cfg = noiseless_config()
    data = synthetic.generate(cfg)
    mean_temp = np.mean([v[:, 0] for v in data.station_weather.values()], axis=0)
    expected = physics.envelope_demand(physics.REFERENCE_ENVELOPE, mean_temp)
    lo, hi = synthetic.DEMAND_CLIP_MW
    clipped = (expected < lo) | (expected > hi)
    np.testing.assert_allclose(data.demand_mw[~clipped], expected[~clipped], atol=1e-9)


def test_envelope_refit_recovers_generating_coefficients(noiseless_config):
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
    assert_same_files(tmp_path / "a", tmp_path / "b")


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


def test_heat_spell_scales_precipitation_down(noiseless_config):
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
    ("duration_h", True), ("ramp_h", False),  # were taken as 1 and 0
    # values that write files ingest rejects, or that are silently clipped
    ("temp_offset_c", float("nan")), ("temp_offset_c", float("inf")),
    ("wind_mult", -3.0), ("wind_mult", float("nan")),
    ("precip_mult", -1.0), ("precip_mult", float("inf")),
    ("temp_offset_c", True), ("wind_mult", False),  # were taken as 1.0 and 0.0
    # numpy's bool is no bool subclass; these were taken as 1.0 and 0.0
    ("temp_offset_c", np.True_), ("wind_mult", np.False_), ("precip_mult", np.True_),
    # non-numbers raised numpy's raw TypeError from isfinite
    ("temp_offset_c", "a"), ("temp_offset_c", None), ("wind_mult", None), ("precip_mult", "x"),
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
    (dict(missing_rate=False), "missing_rate"),  # was taken as 0
])
def test_bad_config_is_a_config_error(overrides, field):
    with pytest.raises(ConfigError, match=f"^{field}"):
        synthetic.SyntheticConfig(**overrides)


@pytest.mark.parametrize("numpy_typed, builtin", [
    (dict(seed=np.int64(5)), dict(seed=5)),
    (dict(years=np.int32(1)), dict(years=1)),
    (dict(missing_rate=np.float32(0.25)), dict(missing_rate=0.25)),
    (dict(events=(synthetic.ExtremeEvent(np.datetime64("2024-03-01T06"), np.int64(10),
                                         np.float32(-8.5), ramp_h=np.uint8(2)),)),
     dict(events=(synthetic.ExtremeEvent("2024-03-01T06:00:00Z", 10, -8.5, ramp_h=2),))),
], ids=["seed", "years", "missing_rate", "event"])
def test_numpy_typed_config_writes_the_files_of_its_builtin_twin(tmp_path, numpy_typed, builtin):
    # json.dumps raised a raw TypeError on the manifest after the three data
    # files were written
    base = dict(years=1, seed=9)
    synthetic.write_dataset(synthetic.SyntheticConfig(**{**base, **numpy_typed}), tmp_path / "np")
    synthetic.write_dataset(synthetic.SyntheticConfig(**{**base, **builtin}), tmp_path / "py")
    assert_same_files(tmp_path / "np", tmp_path / "py")


@pytest.mark.parametrize("config", [
    synthetic.SyntheticConfig(years=1, seed=0, missing_rate=0.1),
    synthetic.SyntheticConfig(years=1, seed=101, missing_rate=0.1),
    synthetic.SyntheticConfig(start="2025-01-01", years=1, seed=4, events=(
        synthetic.ExtremeEvent("2025-02-03T12:00:00Z", 30, -9.0, wind_mult=1.8,
                               precip_mult=0.5, ramp_h=5),)),
], ids=["default-events-seed0", "default-events-seed101", "custom-event"])
def test_manifest_config_rebuilds_its_dataset(tmp_path, config):
    synthetic.write_dataset(config, tmp_path / "first")
    saved = json.loads((tmp_path / "first" / "manifest.json").read_text())["config"]
    events = tuple(synthetic.ExtremeEvent(**event) for event in saved["events"])
    rebuilt = synthetic.SyntheticConfig(**{**saved, "events": events})
    synthetic.write_dataset(rebuilt, tmp_path / "again")
    assert_same_files(tmp_path / "first", tmp_path / "again")


def test_an_events_list_is_kept_as_the_tuple_it_equals():
    # the list was kept: hash(cfg) raised a raw TypeError, and the config
    # compared unequal to the tuple-built one that writes the same files
    event = synthetic.ExtremeEvent("2024-03-01T06:00:00Z", 10, -8.5, ramp_h=2)
    from_list = synthetic.SyntheticConfig(years=1, seed=9, events=[event])
    from_tuple = synthetic.SyntheticConfig(years=1, seed=9, events=(event,))
    assert type(from_list.events) is tuple
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)


def test_a_str_directory_writes_the_bytes_of_its_path(tmp_path):
    # a str raised AttributeError: 'str' object has no attribute 'mkdir'
    cfg = synthetic.SyntheticConfig(years=1, seed=5)
    assert (synthetic.write_dataset(cfg, str(tmp_path / "str"))
            == synthetic.write_dataset(cfg, tmp_path / "path"))
    assert_same_files(tmp_path / "str", tmp_path / "path")
