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


def test_zero_noise_demand_sits_exactly_on_the_envelope():
    cfg = noiseless_config()
    data = synthetic.generate(cfg)
    mean_temp = np.mean([v[:, 0] for v in data.station_weather.values()], axis=0)
    expected = physics.envelope_demand(cfg.envelope, mean_temp)
    clipped = (expected < cfg.demand_clip_mw[0]) | (expected > cfg.demand_clip_mw[1])
    np.testing.assert_allclose(data.demand_mw[~clipped], expected[~clipped], atol=1e-9)


def test_envelope_refit_recovers_generating_coefficients():
    cfg = noiseless_config()
    data = synthetic.generate(cfg)
    mean_temp = np.mean([v[:, 0] for v in data.station_weather.values()], axis=0)
    fit, _ = physics.fit_envelope(mean_temp, data.demand_mw, cfg.envelope.t0_c)
    for name, ref in cfg.envelope.to_dict().items():
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


def test_config_dict_roundtrip():
    cfg = synthetic.SyntheticConfig(years=2, seed=9, missing_rate=0.01)
    again = synthetic.SyntheticConfig.from_dict(
        json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_missing_rate_injects_gaps(tmp_path):
    cfg = synthetic.SyntheticConfig(years=1, seed=7, missing_rate=0.02)
    data = synthetic.generate(cfg)
    total = sum(int(np.isnan(v).sum()) for v in data.station_weather.values())
    assert total > 0


def test_nested_event_keeps_the_outer_plateau():
    # a weak event inside a strong one's plateau: the larger profile sets the offset
    hours = np.datetime64("2024-01-01T00:00:00", "s") + np.arange(96) * np.timedelta64(3600, "s")
    outer = synthetic.ExtremeEvent("2024-01-01T10:00:00Z", 48, -10.0)
    inner = synthetic.ExtremeEvent("2024-01-02T00:00:00Z", 2, -1.0)
    weight, offset = synthetic._event_weight(hours, (outer, inner))
    plateau = slice(13, 61)  # outer ramps up over hours 10-12 and holds for 48 h
    np.testing.assert_array_equal(weight[plateau], 1.0)
    np.testing.assert_array_equal(offset[plateau], -10.0)
    alone_w, alone_offset = synthetic._event_weight(hours, (outer,))
    np.testing.assert_array_equal(weight, alone_w)
    np.testing.assert_array_equal(offset, alone_offset)


def test_default_schedule_events_never_overlap():
    # so the overlap rule leaves the default datasets unchanged
    cfg = synthetic.SyntheticConfig(years=2, seed=0)
    hours = np.datetime64("2024-01-01T00:00:00", "s") + np.arange(17_544) * np.timedelta64(3600, "s")
    active = sum((synthetic._event_weight(hours, (ev,))[0] > 0).astype(int) for ev in cfg.events)
    assert active.max() == 1


@pytest.mark.parametrize("start", [
    "2024-03-01T00:00:00+02:00", "2024-03-01T00:00:00ZZ", "2024-03-32", "first of March",
])
def test_event_start_outside_the_csv_timestamp_rule_is_a_config_error(start):
    with pytest.raises(ConfigError, match="ExtremeEvent.start"):
        synthetic.ExtremeEvent(start, 10, -10.0)


@pytest.mark.parametrize("overrides, field", [
    (dict(start="2024-13-01"), "start"),
    (dict(start="2024-1-1"), "start"),
    (dict(start="2024-01-01T00:00:00"), "start"),
    (dict(start="2024-02-29", years=1), "start"),  # no 2025-02-29 to end on
    (dict(noise_std_mw=-1.0), "noise"),
])
def test_bad_config_is_a_config_error(overrides, field):
    with pytest.raises(ConfigError, match=field):
        synthetic.SyntheticConfig(**overrides)
