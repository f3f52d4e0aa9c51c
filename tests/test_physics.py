"""Envelope, tolerance band, and penalty oracles.

Expected values here are hand evaluations of the documented formulas or
Monte-Carlo/finite-difference oracles with fixed seeds.
"""

import numpy as np
import pytest

from gridcast import physics
from gridcast.errors import CalibrationError, ConfigError
from gridcast.nn import central_difference_grad, relative_error
from gridcast.seeding import seeded_rng

ENV = physics.REFERENCE_ENVELOPE


class TestEnvelopeDemand:
    def test_cold_segment_at_zero(self):
        assert physics.envelope_demand(ENV, 0.0) == pytest.approx(51230.0, abs=1e-9)

    def test_warm_segment_at_thirty(self):
        assert physics.envelope_demand(ENV, 30.0) == pytest.approx(56748.9, abs=1e-9)

    def test_breakpoint_uses_warm_segment(self):
        # the curve as written is discontinuous at t0: left limit 38513.1
        assert physics.envelope_demand(ENV, 18.5) == pytest.approx(37464.55, abs=1e-9)

    def test_vectorized(self):
        out = physics.envelope_demand(ENV, np.array([0.0, 30.0]))
        np.testing.assert_allclose(out, [51230.0, 56748.9])

    def test_convexity_enforced(self):
        with pytest.raises(CalibrationError):
            physics.ParabolicEnvelope(-1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 10.0)


class TestFitEnvelope:
    def test_noiseless_recovery(self):
        rng = seeded_rng(0, "fit-exact")
        temps = rng.uniform(-10, 40, size=400)
        demands = physics.envelope_demand(ENV, temps)
        fit, residuals = physics.fit_envelope(temps, demands, ENV.t0_c)
        for name, ref in ENV.to_dict().items():
            assert getattr(fit, name) == pytest.approx(ref, rel=1e-6)
        assert np.max(np.abs(residuals)) < 1e-6

    def test_noisy_recovery_within_two_percent(self):
        rng = seeded_rng(1, "fit-noisy")
        temps = rng.uniform(-10, 40, size=10_000)
        demands = physics.envelope_demand(ENV, temps) + rng.normal(0, 500, size=10_000)
        fit, _ = physics.fit_envelope(temps, demands, ENV.t0_c)
        grid = np.linspace(-10, 40, 501)
        rel = np.abs(physics.envelope_demand(fit, grid) - physics.envelope_demand(ENV, grid))
        rel /= np.abs(physics.envelope_demand(ENV, grid))
        assert rel.max() < 0.02

    def test_single_segment_data_errors(self):
        temps = np.linspace(20, 30, 50)  # nothing below t0
        with pytest.raises(CalibrationError):
            physics.fit_envelope(temps, np.ones(50), 18.5)

    def test_rank_deficient_segment_errors(self):
        temps = np.array([5.0] * 10 + [25.0, 26.0, 27.0, 28.0])
        with pytest.raises(CalibrationError):
            physics.fit_envelope(temps, np.arange(14.0), 18.5)


class TestTolerance:
    def test_single_bin_plus_minus_100(self):
        temps = np.full(40, 5.0)
        residuals = np.array([100.0, -100.0] * 20)
        tol = physics.fit_tolerance(temps, residuals, bin_width_c=2.0)
        assert tol.sigma(5.0) == pytest.approx(100.0)
        assert tol.epsilon(5.0) == pytest.approx(200.0)

    def test_sparse_bin_inherits_nearest(self):
        temps = np.concatenate([np.full(50, 1.0), np.full(5, 9.0)])
        residuals = np.concatenate([
            np.tile([50.0, -50.0], 25), np.tile([400.0], 5),
        ])
        tol = physics.fit_tolerance(temps, residuals, bin_width_c=2.0, min_bin_count=30)
        # the 9 degree bin has only 5 points, so it borrows the 1 degree sigma
        assert tol.sigma(9.0) == pytest.approx(tol.sigma(1.0))

    def test_floor_clamp(self):
        temps = np.full(40, 5.0)
        residuals = np.full(40, 0.0)
        tol = physics.fit_tolerance(temps, residuals, sigma_floor_mw=25.0)
        assert tol.sigma(5.0) == 25.0

    def test_empty_errors(self):
        with pytest.raises(CalibrationError):
            physics.fit_tolerance(np.array([]), np.array([]))

    def test_nan_temperature_errors(self):
        temps = np.linspace(0.0, 30.0, 100)
        temps[7] = np.nan
        with pytest.raises(CalibrationError, match="finite"):
            physics.fit_tolerance(temps, np.ones(100))

    @pytest.mark.parametrize("sigma, edges", [
        ([np.nan], [-100.0, 100.0]),
        ([np.inf], [-100.0, 100.0]),
        ([5.0], [-100.0, np.nan]),
        ([5.0], [-np.inf, 100.0]),
    ])
    def test_model_rejects_non_finite_sigma_and_edges(self, sigma, edges):
        with pytest.raises(CalibrationError, match="finite"):
            physics.ToleranceModel(bin_edges_c=np.array(edges), sigma_mw=np.array(sigma),
                                   sigma_floor_mw=1.0)

    def test_roundtrip_dict(self):
        temps = np.linspace(-5, 35, 200)
        tol = physics.fit_tolerance(temps, np.sin(temps) * 100, min_bin_count=5)
        again = physics.ToleranceModel.from_dict(tol.to_dict())
        np.testing.assert_allclose(again.sigma_mw, tol.sigma_mw)


def flat_tolerance(eps_mw):
    """Tolerance model with a constant band half-width, for penalty tests."""
    return physics.ToleranceModel(
        bin_edges_c=np.array([-100.0, 100.0]),
        sigma_mw=np.array([eps_mw / 2.0]),
        sigma_floor_mw=eps_mw / 2.0,
    )


class TestParabolicPenalty:
    def test_on_curve_is_zero(self):
        temps = np.array([0.0, 10.0, 30.0])
        pred = physics.envelope_demand(ENV, temps)
        loss, grad = physics.parabolic_penalty(pred, temps, ENV, flat_tolerance(500.0))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_boundary_is_zero(self):
        tol = flat_tolerance(500.0)
        temps = np.array([5.0])
        pred = physics.envelope_demand(ENV, temps) + 500.0
        loss, grad = physics.parabolic_penalty(pred, temps, ENV, tol)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_single_violation_hand_value(self):
        tol = flat_tolerance(500.0)
        temps = np.array([5.0])
        pred = physics.envelope_demand(ENV, temps) + 500.0 + 100.0
        loss, grad = physics.parabolic_penalty(pred, temps, ENV, tol)
        assert loss == pytest.approx(10_000.0)
        assert grad[0] == pytest.approx(200.0)

    def test_dead_zone(self):
        rng = seeded_rng(3, "deadzone")
        tol = flat_tolerance(400.0)
        temps = rng.uniform(-5, 35, size=50)
        base = physics.envelope_demand(ENV, temps)
        inside = base + rng.uniform(-399.0, 399.0, size=50)
        loss, _ = physics.parabolic_penalty(inside, temps, ENV, tol)
        assert loss == 0.0
        nudged = inside + rng.uniform(-0.5, 0.5, size=50)
        nudged = np.clip(nudged, base - 399.9, base + 399.9)
        loss2, _ = physics.parabolic_penalty(nudged, temps, ENV, tol)
        assert loss2 == 0.0

    def test_violation_monotonicity(self):
        tol = flat_tolerance(300.0)
        temps = np.array([10.0])
        base = physics.envelope_demand(ENV, temps)
        last = 0.0
        for extra in [50.0, 150.0, 600.0]:
            loss, _ = physics.parabolic_penalty(base + 300.0 + extra, temps, ENV, tol)
            assert loss > last
            last = loss


class TestRampPenalty:
    def test_exactly_delta_max_is_zero(self):
        pred = np.array([0.0, 4800.0, 9600.0])
        loss, grad = physics.ramp_penalty(pred, 4800.0)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_single_violation_among_n_pairs(self):
        pred = np.array([0.0, 100.0, 200.0, 200.0 + 150.0 + 50.0])
        loss, _ = physics.ramp_penalty(pred, 150.0)
        assert loss == pytest.approx(2500.0 / 3.0)

    def test_constant_series_zero(self):
        loss, grad = physics.ramp_penalty(np.full(10, 5.0e4), 100.0)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_short_series_convention(self):
        loss, grad = physics.ramp_penalty(np.array([1.0]), 100.0)
        assert loss == 0.0
        assert grad.shape == (1,)

    def test_explicit_pairs(self):
        pred = np.array([0.0, 500.0, 0.0])
        loss_all, _ = physics.ramp_penalty(pred, 100.0)
        loss_one, _ = physics.ramp_penalty(pred, 100.0, pairs=[(0, 1)])
        assert loss_all == pytest.approx((400.0**2 + 400.0**2) / 2)
        assert loss_one == pytest.approx(400.0**2)


class TestCompositeLoss:
    def setup_method(self):
        rng = seeded_rng(4, "composite")
        self.temps = rng.uniform(-5, 35, size=32)
        self.target = physics.envelope_demand(ENV, self.temps) + rng.normal(0, 200, 32)
        self.pred = self.target + rng.normal(0, 900, 32)
        self.tol = flat_tolerance(400.0)
        self.pairs = physics.adjacent_pairs(32)

    def test_zero_lambdas_reduce_to_mse(self):
        cfg = physics.PhysicsLossConfig(lambda1=0.0, lambda2=0.0, delta_max_mw=100.0)
        loss, grad, parts = physics.composite_loss(
            self.pred, self.target, self.temps, self.pairs, ENV, self.tol, cfg)
        assert loss == pytest.approx(np.mean((self.pred - self.target) ** 2), abs=1e-12)
        assert parts["mse"] == loss

    def test_perfect_in_band_smooth_prediction_is_zero(self):
        cfg = physics.PhysicsLossConfig(delta_max_mw=5000.0)
        temps = np.full(8, 10.0)
        target = np.full(8, physics.envelope_demand(ENV, 10.0))
        loss, grad, _ = physics.composite_loss(
            target, target, temps, physics.adjacent_pairs(8), ENV, self.tol, cfg)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_recomposition_identity(self):
        cfg = physics.PhysicsLossConfig(lambda1=0.1, lambda2=0.05, delta_max_mw=800.0)
        loss, _, parts = physics.composite_loss(
            self.pred, self.target, self.temps, self.pairs, ENV, self.tol, cfg)
        mse = np.mean((self.pred - self.target) ** 2)
        par, _ = physics.parabolic_penalty(self.pred, self.temps, ENV, self.tol)
        ramp, _ = physics.ramp_penalty(self.pred, 800.0)
        assert loss == pytest.approx(mse + 0.1 * par + 0.05 * ramp, abs=1e-12)
        assert parts == {"mse": mse, "parabolic": par, "ramp": ramp}


class TestGradients:
    """Analytic vs central finite differences, away from hinge kinks."""

    def _away_from_kinks(self, pred, temps, tol, delta, margin=5.0):
        band = np.abs(np.abs(pred - physics.envelope_demand(ENV, temps))
                      - tol.epsilon(temps))
        ramps = np.abs(np.abs(np.diff(pred)) - delta)
        return band.min() > margin and (ramps.min() > margin if ramps.size else True)

    @pytest.mark.parametrize("seed", range(20))
    def test_parabolic_grad(self, seed):
        rng = seeded_rng(seed, "fd-parabolic")
        tol = flat_tolerance(300.0)
        temps = rng.uniform(-5, 35, size=12)
        pred = physics.envelope_demand(ENV, temps) + rng.normal(0, 600, 12)
        if not self._away_from_kinks(pred, temps, tol, np.inf):
            pred += 11.0  # nudge off the kink; the set of kinks has measure zero
        loss, grad = physics.parabolic_penalty(pred, temps, ENV, tol)
        numeric = central_difference_grad(
            lambda p: physics.parabolic_penalty(p, temps, ENV, tol)[0], pred, h=1e-3)
        assert relative_error(grad, numeric) < 1e-5

    @pytest.mark.parametrize("seed", range(20))
    def test_ramp_grad(self, seed):
        rng = seeded_rng(seed, "fd-ramp")
        pred = np.cumsum(rng.normal(0, 400, size=12))
        delta = 250.0
        if not self._away_from_kinks(pred, np.zeros(12), flat_tolerance(1e9), delta):
            pred *= 1.01
        _, grad = physics.ramp_penalty(pred, delta)
        numeric = central_difference_grad(
            lambda p: physics.ramp_penalty(p, delta)[0], pred, h=1e-3)
        assert relative_error(grad, numeric) < 1e-5

    @pytest.mark.parametrize("seed", range(20))
    def test_composite_grad(self, seed):
        rng = seeded_rng(seed, "fd-composite")
        tol = flat_tolerance(350.0)
        cfg = physics.PhysicsLossConfig(lambda1=0.1, lambda2=0.05, delta_max_mw=500.0)
        temps = rng.uniform(-5, 35, size=10)
        target = physics.envelope_demand(ENV, temps) + rng.normal(0, 100, 10)
        pred = target + rng.normal(0, 700, 10)
        pairs = physics.adjacent_pairs(10)
        _, grad, _ = physics.composite_loss(pred, target, temps, pairs, ENV, tol, cfg)
        numeric = central_difference_grad(
            lambda p: physics.composite_loss(p, target, temps, pairs, ENV, tol, cfg)[0],
            pred, h=1e-3)
        assert relative_error(grad, numeric) < 1e-5

    def test_subgradient_zero_at_boundary(self):
        tol = flat_tolerance(500.0)
        temps = np.array([5.0])
        pred = physics.envelope_demand(ENV, temps) + 500.0
        _, grad = physics.parabolic_penalty(pred, temps, ENV, tol)
        assert grad[0] == 0.0


def test_quadratic_homogeneity():
    rng = seeded_rng(5, "homogeneity")
    temps = rng.uniform(-5, 35, size=16)
    target = physics.envelope_demand(ENV, temps) + rng.normal(0, 150, 16)
    pred = target + rng.normal(0, 800, 16)
    tol = flat_tolerance(350.0)
    cfg = physics.PhysicsLossConfig(lambda1=0.1, lambda2=0.05, delta_max_mw=640.0)
    loss1, _, _ = physics.composite_loss(
        pred, target, temps, physics.adjacent_pairs(16), ENV, tol, cfg)

    # doubling every MW-quantity (pred, target, envelope, band, ramp cap)
    env2 = physics.ParabolicEnvelope(
        2 * ENV.a1, 2 * ENV.b1, 2 * ENV.c1, 2 * ENV.a2, 2 * ENV.b2, 2 * ENV.c2, ENV.t0_c)
    tol2 = flat_tolerance(700.0)
    cfg2 = physics.PhysicsLossConfig(lambda1=0.1, lambda2=0.05, delta_max_mw=1280.0)
    loss2, _, _ = physics.composite_loss(
        2 * pred, 2 * target, temps, physics.adjacent_pairs(16), env2, tol2, cfg2)
    assert loss2 == pytest.approx(4.0 * loss1, rel=1e-12)


class TestDeltaMax:
    def test_constant_diffs(self):
        series = np.arange(0, 1000, 100.0)
        assert physics.estimate_delta_max(series) == pytest.approx(100.0)

    def test_interpolated_percentile_definition(self):
        diffs = np.arange(1000.0)
        series = np.concatenate([[0.0], np.cumsum(diffs)])
        assert physics.estimate_delta_max(series, 99.5) == pytest.approx(994.005)

    def test_too_short(self):
        with pytest.raises(CalibrationError):
            physics.estimate_delta_max(np.array([1.0]))


def test_loss_config_validation():
    with pytest.raises(ConfigError):
        physics.PhysicsLossConfig(lambda1=-0.1)
    with pytest.raises(ConfigError):
        physics.PhysicsLossConfig(delta_max_mw=0.0)
