"""Piecewise parabolic temperature-demand envelope, tolerance band, and the
two penalty terms (band violation and hour-over-hour ramp) with analytic
gradients.

All quantities here live in physical units: degrees Celsius and megawatts.
Both penalties are squared hinges, so they are C^1 and their gradient at the
hinge boundary is exactly zero.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import CalibrationError, ConfigError, check_real


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
        for f in fields(self):
            lo = 0.0 if f.name in ("a1", "a2") else -math.inf  # convex segments
            object.__setattr__(self, f.name, check_real(
                f.name, getattr(self, f.name), lo, lo_open=True, error=CalibrationError))


# Pre-calibrated for the ERCOT footprint; the reference envelope for synthetic
# data generation and spot checks.
REFERENCE_ENVELOPE = ParabolicEnvelope(
    a1=47.2, b1=-1560.6, c1=51230.0, a2=52.4, b2=-864.5, c2=35523.9, t0_c=18.5)
# The one calibration recipe: a bin with under MIN_BIN_COUNT points borrows a
# neighbour's spread, and the floor keeps a band where residuals are flat.
BIN_WIDTH_C = 2.0
MIN_BIN_COUNT = 30
SIGMA_FLOOR_MW = 1.0
DELTA_MAX_PERCENTILE = 99.5


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
    if not (np.all(np.isfinite(temps)) and np.all(np.isfinite(demands))):
        raise CalibrationError("temps and demands must be finite")
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
    sigma, and every sigma is clamped below by SIGMA_FLOOR_MW.
    """

    bin_edges_c: np.ndarray
    sigma_mw: np.ndarray

    def __post_init__(self):
        for name in ("bin_edges_c", "sigma_mw"):  # lists too, kept as float arrays
            try:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
            except (TypeError, ValueError):
                raise CalibrationError(f"{name} must be an array of real numbers, "
                                       f"got {getattr(self, name)!r}") from None
        edges, sigma = self.bin_edges_c, self.sigma_mw
        if not (np.ndim(edges) == 1 and np.size(edges) >= 2 and np.all(np.isfinite(edges))
                and np.all(np.diff(edges) > 0)):
            raise CalibrationError(f"bin_edges_c must be finite, strictly increasing and "
                                   f"1-D with >= 2 edges, got {edges!r}")
        if np.shape(sigma) != (np.size(edges) - 1,):
            raise CalibrationError(f"sigma_mw must hold one value per bin, got {np.shape(sigma)}")
        if not (np.all(np.isfinite(sigma)) and np.all(sigma >= SIGMA_FLOOR_MW)):
            raise CalibrationError(f"sigma_mw must be finite and >= {SIGMA_FLOOR_MW} MW")

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


def fit_tolerance(temps, residuals):
    """Per-bin population std of envelope residuals over the temp range."""
    temps = np.asarray(temps, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if temps.size == 0:
        raise CalibrationError("cannot fit tolerance on empty input")
    if temps.shape != residuals.shape:
        raise CalibrationError("temps and residuals must align")
    if not (np.all(np.isfinite(temps)) and np.all(np.isfinite(residuals))):
        raise CalibrationError("temps and residuals must be finite")
    lo = np.floor(temps.min() / BIN_WIDTH_C) * BIN_WIDTH_C
    hi = np.ceil(temps.max() / BIN_WIDTH_C) * BIN_WIDTH_C
    if hi <= lo:
        hi = lo + BIN_WIDTH_C
    edges = np.arange(lo, hi + BIN_WIDTH_C / 2, BIN_WIDTH_C)
    n_bins = edges.size - 1
    idx = np.clip(np.searchsorted(edges, temps, side="right") - 1, 0, n_bins - 1)
    sigma = np.full(n_bins, np.nan)
    counts = np.zeros(n_bins, dtype=int)
    for b in range(n_bins):
        sel = idx == b
        counts[b] = sel.sum()
        if counts[b] >= MIN_BIN_COUNT:
            sigma[b] = residuals[sel].std()
    populated = np.flatnonzero(counts >= MIN_BIN_COUNT)
    if populated.size == 0:
        # fall back to a single global bin
        sigma[:] = residuals.std()
    else:
        for b in np.flatnonzero(~np.isfinite(sigma)):
            nearest = populated[np.argmin(np.abs(populated - b))]
            sigma[b] = sigma[nearest]
    sigma = np.maximum(sigma, SIGMA_FLOOR_MW)
    return ToleranceModel(bin_edges_c=edges, sigma_mw=sigma)


@dataclass(frozen=True)
class PhysicsLossConfig:
    """Penalty weights and the ramp threshold (MW per hour)."""

    lambda1: float = 0.1
    lambda2: float = 0.05
    delta_max_mw: float = 4800.0

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "delta_max_mw"):
            object.__setattr__(self, name, check_real(
                name, getattr(self, name), 0.0, lo_open=name == "delta_max_mw"))


def _squared_hinge(d, eps):
    """(loss, dloss_dd) of loss = mean(max(|d| - eps, 0)^2)."""
    hinge = np.maximum(np.abs(d) - eps, 0.0)
    return float(np.mean(hinge ** 2)), 2.0 * np.sign(d) * hinge / d.size


def parabolic_penalty(pred_mw, temp_c, env, tol):
    """Mean squared exceedance of the envelope band; exact gradient.

    loss = mean_i max(0, |pred_i - D(T_i)| - eps(T_i))^2. The gradient with
    respect to pred is zero strictly inside (and exactly on) the band.
    """
    pred = np.asarray(pred_mw, dtype=float)
    temp = np.asarray(temp_c, dtype=float)
    if pred.shape != temp.shape:
        raise ConfigError("pred and temp must have equal length")
    return _squared_hinge(pred - envelope_demand(env, temp), tol.epsilon(temp))


def ramp_penalty(pred_mw, delta_max, pairs):
    """Mean squared exceedance of |pred_j - pred_i| over delta_max.

    `pairs` holds the (i, j) index pairs of predictions for consecutive
    hours, earlier first, as an integer (k, 2) array; a batch in any order
    names them explicitly. With no pairs the loss is 0 by convention.
    """
    pred = np.asarray(pred_mw, dtype=float)
    pairs = np.asarray(pairs)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or not np.issubdtype(pairs.dtype, np.integer):
        raise ConfigError(
            f"pairs must be an integer (k, 2) array, got {pairs.dtype} {pairs.shape}")
    grad = np.zeros_like(pred)
    if len(pairs) == 0:
        return 0.0, grad
    if pairs.min() < 0 or pairs.max() >= pred.size:
        raise ConfigError(f"pairs index outside pred_mw (0 to {pred.size - 1})")
    loss, contrib = _squared_hinge(pred[pairs[:, 1]] - pred[pairs[:, 0]], delta_max)
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
    if pred.size == 0 or pred.shape != target.shape:
        raise ConfigError(f"pred_mw {pred.shape} and target_mw {target.shape} must be "
                          "non-empty and of equal shape")
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


def estimate_delta_max(train_demand):
    """Empirical DELTA_MAX_PERCENTILE percentile (linear interpolation between
    order statistics) of absolute hour-over-hour first differences."""
    y = np.asarray(train_demand, dtype=float)
    if y.size < 2:
        raise CalibrationError("need at least 2 points to difference")
    if not np.all(np.isfinite(y)):
        raise CalibrationError("train_demand must be finite")
    return float(np.percentile(np.abs(np.diff(y)), DELTA_MAX_PERCENTILE))
