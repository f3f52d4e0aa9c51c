"""Piecewise parabolic temperature-demand envelope, tolerance band, and the
two penalty terms (band violation and hour-over-hour ramp) with analytic
gradients.

All quantities here live in physical units: degrees Celsius and megawatts.
Both penalties are squared hinges, so they are C^1 and their gradient at the
hinge boundary is exactly zero.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, ConfigError

logger = logging.getLogger(__name__)

# Pre-calibrated coefficients for the ERCOT footprint; used as the reference
# envelope for synthetic data generation and spot checks.
REFERENCE_ENVELOPE_COEFFS = {
    "a1": 47.2, "b1": -1560.6, "c1": 51230.0,
    "a2": 52.4, "b2": -864.5, "c2": 35523.9,
    "t0_c": 18.5,
}


@dataclass(frozen=True)
class ParabolicEnvelope:
    """Two-segment quadratic demand curve split at the breakpoint t0_c.

    Demand is a1*T^2 + b1*T + c1 below t0_c and a2*T^2 + b2*T + c2 at or
    above it. The two segments need not join continuously at t0_c; the curve
    is evaluated exactly as written.
    """

    a1: float
    b1: float
    c1: float
    a2: float
    b2: float
    c2: float
    t0_c: float

    def __post_init__(self):
        if not (self.a1 > 0 and self.a2 > 0):
            raise CalibrationError(
                f"envelope segments must be convex: a1={self.a1}, a2={self.a2}"
            )
        if not np.isfinite(self.t0_c):
            raise CalibrationError(f"breakpoint must be finite, got {self.t0_c}")

    def to_dict(self):
        return {
            "a1": self.a1, "b1": self.b1, "c1": self.c1,
            "a2": self.a2, "b2": self.b2, "c2": self.c2,
            "t0_c": self.t0_c,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


REFERENCE_ENVELOPE = ParabolicEnvelope(**REFERENCE_ENVELOPE_COEFFS)


def envelope_demand(env, t_c):
    """Expected demand (MW) at temperature t_c (scalar or array)."""
    t = np.asarray(t_c, dtype=float)
    cold = env.a1 * t * t + env.b1 * t + env.c1
    warm = env.a2 * t * t + env.b2 * t + env.c2
    out = np.where(t < env.t0_c, cold, warm)
    return float(out) if np.isscalar(t_c) else out


def fit_envelope(temps, demands, t0_c):
    """Least-squares quadratic per segment; returns (envelope, residuals).

    Residuals (demand minus fitted curve, aligned to the inputs) feed the
    tolerance fit.
    """
    temps = np.asarray(temps, dtype=float)
    demands = np.asarray(demands, dtype=float)
    if temps.shape != demands.shape or temps.ndim != 1:
        raise CalibrationError("temps and demands must be equal-length vectors")
    cold = temps < t0_c
    n_cold, n_warm = int(cold.sum()), int((~cold).sum())
    if n_cold < 3 or n_warm < 3:
        raise CalibrationError(
            f"need >=3 points per segment around t0={t0_c}: "
            f"cold={n_cold}, warm={n_warm}"
        )

    env = ParabolicEnvelope(*_fit_per_segment(temps, demands, cold), t0_c=t0_c)
    residuals = demands - envelope_demand(env, temps)
    return env, residuals


def _quad_design(t):
    return np.column_stack([t * t, t, np.ones_like(t)])


def _fit_per_segment(temps, demands, cold):
    out = []
    for mask, label in ((cold, "cold"), (~cold, "warm")):
        design = _quad_design(temps[mask])
        sol, _, rank, _ = np.linalg.lstsq(design, demands[mask], rcond=None)
        if rank < 3:
            raise CalibrationError(
                f"rank-deficient {label} segment (temperatures not distinct enough)"
            )
        out.extend(sol)
    return out


@dataclass(frozen=True)
class ToleranceModel:
    """Temperature-binned residual spread; the band half-width is 2*sigma.

    Bins with too few points at fit time inherit the nearest populated bin's
    sigma, and every sigma is clamped below by sigma_floor_mw.
    """

    bin_edges_c: np.ndarray
    sigma_mw: np.ndarray
    sigma_floor_mw: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.bin_edges_c)):
            raise CalibrationError("tolerance bin edges must be finite")
        if not (self.sigma_floor_mw > 0 and np.all(np.isfinite(self.sigma_mw))
                and np.all(self.sigma_mw >= self.sigma_floor_mw)):
            raise CalibrationError("sigma must be finite and >= sigma_floor_mw > 0 everywhere")

    def _bin_index(self, t_c):
        idx = np.searchsorted(self.bin_edges_c, t_c, side="right") - 1
        return np.clip(idx, 0, self.sigma_mw.size - 1)

    def sigma(self, t_c):
        out = self.sigma_mw[self._bin_index(np.asarray(t_c, dtype=float))]
        return float(out) if np.isscalar(t_c) else out

    def epsilon(self, t_c):
        """Band half-width: 2 * sigma at t_c's bin."""
        s = self.sigma(t_c)
        return 2.0 * s

    def to_dict(self):
        return {
            "bin_edges_c": list(map(float, self.bin_edges_c)),
            "sigma_mw": list(map(float, self.sigma_mw)),
            "sigma_floor_mw": self.sigma_floor_mw,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            bin_edges_c=np.asarray(d["bin_edges_c"], dtype=float),
            sigma_mw=np.asarray(d["sigma_mw"], dtype=float),
            sigma_floor_mw=float(d["sigma_floor_mw"]),
        )


def fit_tolerance(temps, residuals, bin_width_c=2.0, min_bin_count=30,
                  sigma_floor_mw=1.0):
    """Per-bin population std of envelope residuals over the temp range."""
    temps = np.asarray(temps, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if temps.size == 0:
        raise CalibrationError("cannot fit tolerance on empty input")
    if temps.shape != residuals.shape:
        raise CalibrationError("temps and residuals must align")
    if not (np.all(np.isfinite(temps)) and np.all(np.isfinite(residuals))):
        raise CalibrationError("temps and residuals must be finite")
    lo = np.floor(temps.min() / bin_width_c) * bin_width_c
    hi = np.ceil(temps.max() / bin_width_c) * bin_width_c
    if hi <= lo:
        hi = lo + bin_width_c
    edges = np.arange(lo, hi + bin_width_c / 2, bin_width_c)
    n_bins = edges.size - 1
    idx = np.clip(np.searchsorted(edges, temps, side="right") - 1, 0, n_bins - 1)
    sigma = np.full(n_bins, np.nan)
    counts = np.zeros(n_bins, dtype=int)
    for b in range(n_bins):
        sel = idx == b
        counts[b] = sel.sum()
        if counts[b] >= min_bin_count:
            sigma[b] = residuals[sel].std()
    populated = np.flatnonzero(counts >= min_bin_count)
    if populated.size == 0:
        # fall back to a single global bin
        sigma[:] = residuals.std()
    else:
        for b in np.flatnonzero(~np.isfinite(sigma)):
            nearest = populated[np.argmin(np.abs(populated - b))]
            sigma[b] = sigma[nearest]
    sigma = np.maximum(sigma, sigma_floor_mw)
    return ToleranceModel(bin_edges_c=edges, sigma_mw=sigma,
                          sigma_floor_mw=sigma_floor_mw)


@dataclass(frozen=True)
class PhysicsLossConfig:
    """Penalty weights and the ramp threshold (MW per hour)."""

    lambda1: float = 0.1
    lambda2: float = 0.05
    delta_max_mw: float = 4800.0

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigError("penalty weights must be >= 0")
        if not self.delta_max_mw > 0:
            raise ConfigError("delta_max_mw must be > 0")


def parabolic_penalty(pred_mw, temp_c, env, tol):
    """Mean squared exceedance of the envelope band; exact gradient.

    loss = mean_i max(0, |pred_i - D(T_i)| - eps(T_i))^2. The gradient with
    respect to pred is zero strictly inside (and exactly on) the band.
    """
    pred = np.asarray(pred_mw, dtype=float)
    temp = np.asarray(temp_c, dtype=float)
    if pred.shape != temp.shape:
        raise ConfigError("pred and temp must have equal length")
    diff = pred - envelope_demand(env, temp)
    excess = np.abs(diff) - tol.epsilon(temp)
    hinge = np.maximum(excess, 0.0)
    n = pred.size
    loss = float(np.mean(hinge ** 2))
    grad = 2.0 * np.sign(diff) * hinge / n
    return loss, grad


def adjacent_pairs(n):
    """Index pairs (i-1, i) for a chronologically ordered prediction vector."""
    if n < 2:
        return np.empty((0, 2), dtype=int)
    left = np.arange(n - 1)
    return np.column_stack([left, left + 1])


def ramp_penalty(pred_mw, delta_max, pairs=None):
    """Mean squared exceedance of |pred_i - pred_{i-1}| over delta_max.

    `pairs` selects which (earlier, later) index pairs are consecutive hours;
    by default every adjacent pair is. With no pairs the loss is 0 by
    convention (reported at debug level).
    """
    pred = np.asarray(pred_mw, dtype=float)
    if pairs is None:
        pairs = adjacent_pairs(pred.size)
    pairs = np.asarray(pairs, dtype=int)
    grad = np.zeros_like(pred)
    if len(pairs) == 0:
        logger.debug("ramp penalty over <2 consecutive predictions; loss 0 by convention")
        return 0.0, grad
    d = pred[pairs[:, 1]] - pred[pairs[:, 0]]
    excess = np.abs(d) - delta_max
    hinge = np.maximum(excess, 0.0)
    n = len(pairs)
    loss = float(np.mean(hinge ** 2))
    contrib = 2.0 * np.sign(d) * hinge / n
    np.add.at(grad, pairs[:, 1], contrib)
    np.add.at(grad, pairs[:, 0], -contrib)
    return loss, grad


def composite_loss(pred_mw, target_mw, temp_c, pairs, env, tol, cfg):
    """MSE + lambda1 * band penalty + lambda2 * ramp penalty, all in MW.

    Returns (loss, grad wrt pred, components dict). The components are the
    unweighted term values.
    """
    pred = np.asarray(pred_mw, dtype=float)
    target = np.asarray(target_mw, dtype=float)
    n = pred.size
    err = pred - target
    mse = float(np.mean(err ** 2))
    grad = 2.0 * err / n
    par_loss, par_grad = parabolic_penalty(pred, temp_c, env, tol)
    ramp_loss, ramp_grad = ramp_penalty(pred, cfg.delta_max_mw, pairs=pairs)
    loss = mse + cfg.lambda1 * par_loss + cfg.lambda2 * ramp_loss
    grad = grad + cfg.lambda1 * par_grad + cfg.lambda2 * ramp_grad
    parts = {"mse": mse, "parabolic": par_loss, "ramp": ramp_loss}
    return loss, grad, parts


def estimate_delta_max(train_demand, percentile=99.5):
    """Empirical percentile (linear interpolation between order statistics)
    of absolute hour-over-hour first differences."""
    y = np.asarray(train_demand, dtype=float)
    if y.size < 2:
        raise CalibrationError("need at least 2 points to difference")
    return float(np.percentile(np.abs(np.diff(y)), percentile))
