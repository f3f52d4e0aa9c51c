"""The one number rule for numeric settings (gridcast.errors.check_int and
check_real), applied to every setting of the nn, physics and synthetic
constructors, and the other boundary checks on what those constructors keep."""

import dataclasses
import fractions
import inspect
import math
from typing import NamedTuple

import numpy as np
import pytest

from gridcast import nn, physics, synthetic
from gridcast.errors import CalibrationError, ConfigError, check_int, check_real
from gridcast.seeding import seeded_rng

BIG = 10**400  # an int beyond float range


class Setting(NamedTuple):
    id: str
    build: object  # called with every valid keyword argument, one replaced
    valid: dict
    field: str
    named: str  # what the error message names
    stored: str  # the attribute that keeps the value, None if none does
    error: type


def with_rng(cls):
    return lambda **kw: cls(**kw, rng=seeded_rng(0, "settings"))


def settings_of(site, build, valid, error=ConfigError, names=None, stored=None):
    """One Setting per numeric keyword argument in valid."""
    names, stored = names or {}, stored or {}
    return [Setting(f"{site}.{field}", build, valid, field, names.get(field, field),
                    stored.get(field, field), error)
            for field, value in valid.items() if isinstance(value, (int, float))]


EVENT = dict(start="2024-03-01T00:00:00Z", duration_h=10, temp_offset_c=-10.0,
             wind_mult=1.5, precip_mult=0.5, ramp_h=3)
SETTINGS = [
    *settings_of("Dense", with_rng(nn.Dense), dict(d_in=3, d_out=4)),
    *settings_of("Conv1d", with_rng(nn.Conv1d), dict(c_in=2, c_out=4, kernel=3),
                 stored={"c_out": "d_out"}),
    *settings_of("BatchNorm1d", nn.BatchNorm1d, dict(width=3)),
    *settings_of("LayerNorm", nn.LayerNorm, dict(width=3)),
    *settings_of("positional_encoding", nn.positional_encoding, dict(t=4, d_model=6),
                 stored={"t": None, "d_model": None}),
    *settings_of("MultiHeadSelfAttention", with_rng(nn.MultiHeadSelfAttention),
                 dict(d_model=4, n_heads=2)),
    *settings_of("Dropout", with_rng(nn.Dropout), dict(rate=0.2),
                 names={"rate": "dropout rate"}),
    *settings_of("Adam", nn.Adam, dict(lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8),
                 names={"beta1": "betas", "beta2": "betas"}),
    *settings_of("PhysicsLossConfig", physics.PhysicsLossConfig,
                 dict(lambda1=0.1, lambda2=0.05, delta_max_mw=4800.0)),
    *settings_of("ParabolicEnvelope", physics.ParabolicEnvelope,
                 dataclasses.asdict(physics.REFERENCE_ENVELOPE), error=CalibrationError),
    *settings_of("ExtremeEvent", synthetic.ExtremeEvent, EVENT,
                 names={field: f"ExtremeEvent.{field}" for field in EVENT}),
    *settings_of("SyntheticConfig", synthetic.SyntheticConfig,
                 dict(years=1, seed=3, missing_rate=0.25)),
]
NOT_NUMBERS = (True, np.True_, "1", None, math.nan, math.inf)
BAD = [(s, bad) for s in SETTINGS
       for bad in NOT_NUMBERS + ((2.0,) if type(s.valid[s.field]) is int else (BIG,))]


@pytest.mark.parametrize("setting, bad", BAD, ids=[
    f"{s.id}={'10**400' if bad is BIG else repr(bad)}" for s, bad in BAD])
def test_bad_setting_raises_the_sites_error_naming_the_field(setting, bad):
    # 10**400 was accepted by Adam and PhysicsLossConfig and raised numpy's raw
    # TypeError in ExtremeEvent; ParabolicEnvelope checked only a1 > 0, a2 > 0
    # and a finite t0_c
    with pytest.raises(setting.error, match=f"^{setting.named} must"):
        setting.build(**{**setting.valid, setting.field: bad})


@pytest.mark.parametrize("setting", [s for s in SETTINGS if s.stored],
                         ids=lambda s: s.id)
def test_numpy_typed_setting_is_stored_as_its_builtin_type(setting):
    kind = type(setting.valid[setting.field])
    value = (np.int64 if kind is int else np.float32)(setting.valid[setting.field])
    built = setting.build(**{**setting.valid, setting.field: value})
    stored = getattr(built, setting.stored)
    assert type(stored) is kind and stored == value


def test_check_int_bounds_and_type():
    assert check_int("n", 0, 0) == 0
    five = check_int("n", np.uint8(5), 5)
    assert type(five) is int and five == 5
    with pytest.raises(ConfigError, match=r"^n must be an integer >= 0, got -1$"):
        check_int("n", -1, 0)
    with pytest.raises(ConfigError, match=r"^n must be a positive integer, got 0$"):
        check_int("n", 0, 1)
    with pytest.raises(ConfigError, match="^n must"):
        check_int("n", 3.0, 0)  # a whole float is no integer


def test_check_real_bounds_and_type():
    zero = check_real("x", 0, 0.0, 1.0)
    assert type(zero) is float and zero == 0.0
    assert check_real("x", fractions.Fraction(1, 4), 0.0, 1.0) == 0.25
    assert check_real("x", -1e308) == -1e308  # no bounds: only finite
    assert check_real("x", 10**300) == 1e300  # an int in float range
    with pytest.raises(ConfigError, match=r"^x must be a finite real in \[0, 1\), got 1.0$"):
        check_real("x", 1.0, 0.0, 1.0)  # hi is open
    with pytest.raises(ConfigError, match=r"^x must be a finite real in \(0, inf\)"):
        check_real("x", 0.0, 0.0, lo_open=True)
    assert check_real("x", 5e-324, 0.0, lo_open=True) == 5e-324
    with pytest.raises(ConfigError, match=r"^x must be a finite real in \(-inf, inf\)"):
        check_real("x", -math.inf)


def test_check_real_rejects_an_int_beyond_float_range():
    # float(10**400) raises OverflowError; the rule turns it into ConfigError
    with pytest.raises(ConfigError, match="^x must"):
        check_real("x", BIG)
    with pytest.raises(ConfigError, match="^x must"):
        check_real("x", -BIG)


@pytest.mark.parametrize("build, field", [
    (lambda: nn.Adam(lr=10**5000), "lr"),
    (lambda: synthetic.SyntheticConfig(seed=-10**5000), "seed"),
], ids=["Adam.lr", "SyntheticConfig.seed"])
def test_an_int_too_long_to_repr_is_shown_by_its_digit_count(build, field):
    # the message's repr raised a raw ValueError past Python's 4 300-digit limit
    with pytest.raises(ConfigError, match=f"^{field} must .*, got an int of 5001 digits$"):
        build()


@pytest.mark.parametrize("value, digits", [
    (10**4300, 4301), (-(10**4301) + 1, 4301), (2**20000, 6021),
], ids=["10**4300", "1-10**4301", "2**20000"])
def test_digit_count_of_an_int_too_long_to_repr(value, digits):
    with pytest.raises(ConfigError, match=f"got an int of {digits} digits$"):
        check_real("x", value)


@pytest.mark.parametrize("check, args", [
    (check_int, ("n", None, 1)), (check_int, ("n", -1, 0)),
    (check_real, ("x", "a")), (check_real, ("x", BIG)), (check_real, ("x", 0.0, 0.0, 1.0, True)),
], ids=["int-none", "int-range", "real-str", "real-overflow", "real-lo-open"])
def test_checks_raise_the_error_class_they_are_given(check, args):
    with pytest.raises(CalibrationError):
        check(*args, error=CalibrationError)


def test_adam_constructor_takes_only_its_four_settings():
    assert list(inspect.signature(nn.Adam).parameters) == ["lr", "beta1", "beta2", "eps"]
    with pytest.raises(TypeError):
        nn.Adam(step_count="a")  # was accepted; the first step raised a raw TypeError
    opt = nn.Adam()
    assert (opt.step_count, opt._m, opt._v) == (0, {}, {})
    opt.step_count = 7  # state a resume restores is still assignable
    assert opt.step_count == 7


@pytest.mark.parametrize("edges, sigma, field", [
    ([0.0, 10.0], [5.0, 6.0, 7.0], "sigma_mw"),  # three sigmas for one bin
    ([10.0, 0.0, 20.0], [5.0, 6.0], "bin_edges_c"),  # not increasing
    ([0.0, 10.0, 20.0], [[5.0, 6.0]], "sigma_mw"),  # 2-D
], ids=["sigma-per-bin", "edges-order", "sigma-2d"])
def test_tolerance_model_rejects_a_band_it_cannot_index(edges, sigma, field):
    # each was accepted, and _bin_index clipped into the wrong bin
    with pytest.raises(CalibrationError, match=f"^{field} must"):
        physics.ToleranceModel(bin_edges_c=np.array(edges), sigma_mw=np.array(sigma))


def test_tolerance_model_keeps_lists_as_the_same_float_arrays():
    # a list raised a raw TypeError from the sigma floor check
    edges, sigma = [-10.0, 0.0, 10.0], [5.0, 7.5]
    from_lists = physics.ToleranceModel(edges, sigma)
    from_arrays = physics.ToleranceModel(np.array(edges), np.array(sigma))
    for name in ("bin_edges_c", "sigma_mw"):
        got, expected = getattr(from_lists, name), getattr(from_arrays, name)
        assert type(got) is np.ndarray and got.dtype == expected.dtype == np.float64
        assert got.tobytes() == expected.tobytes()
    temps = np.linspace(-20.0, 20.0, 17)
    assert from_lists.sigma(temps).tobytes() == from_arrays.sigma(temps).tobytes()
    assert from_lists.sigma(5.0) == from_arrays.sigma(5.0) == 7.5


@pytest.mark.parametrize("edges, sigma, field", [
    ([0.0, 10.0], [5.0, 6.0], "sigma_mw"),  # two sigmas for one bin
    ([10.0, 0.0], [5.0], "bin_edges_c"),  # not increasing
    (["a", "b"], [5.0], "bin_edges_c"),  # not numbers
    ([0.0, 10.0], [[5.0], [6.0, 7.0]], "sigma_mw"),  # ragged
    ([0.0, 10.0], [0.5], "sigma_mw"),  # below the floor
], ids=["sigma-per-bin", "edges-order", "edges-text", "sigma-ragged", "sigma-floor"])
def test_tolerance_model_rejects_a_bad_list(edges, sigma, field):
    with pytest.raises(CalibrationError, match=f"^{field} must"):
        physics.ToleranceModel(edges, sigma)
