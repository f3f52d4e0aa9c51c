"""Piecewise parabolic temperature-demand envelope, tolerance band, and the
two penalty terms (band violation and hour-over-hour ramp) with analytic
gradients.

All quantities here live in physical units: degrees Celsius and megawatts.
Both penalties are squared hinges, so they are C^1 and their gradient at the
hinge boundary is exactly zero.

Arrays in, arrays out: envelope_demand and ToleranceModel.sigma/epsilon keep
the shape of their temperatures; the penalties take 1-D batches of one
length. Input that is not real numbers, or a batch of another shape, raises
ConfigError naming the argument; values are not checked, so NaN gives NaN.
"""

import math
import reprlib
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
# The tolerance band settings; fit_tolerance states the recipe they enter.
BIN_WIDTH_C = 2.0
MIN_BIN_COUNT = 30
SIGMA_FLOOR_MW = 1.0
DELTA_MAX_PERCENTILE = 99.5


def envelope_demand(env, t_c):
    """Expected demand (MW) at each temperature of the array t_c, in its shape."""
    t = _real_array("t_c", t_c, ConfigError)
    cold = env.a1 * t * t + env.b1 * t + env.c1
    warm = env.a2 * t * t + env.b2 * t + env.c2
    return np.where(t < env.t0_c, cold, warm)


def fit_envelope(temps, demands, t0_c):
    """Least-squares quadratic per segment; returns (envelope, residuals).

    Residuals (demand minus fitted curve, aligned to the inputs) feed the
    tolerance fit.
    """
    t0_c = check_real("t0_c", t0_c, error=CalibrationError)
    temps, demands = _calibration_vectors(1, temps=temps, demands=demands)
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


def _real_array(name, value, error):
    """value as a float array of its shape; anything but real numbers (text,
    ragged nesting, a dict) raises `error` naming `name`."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError):  # ragged nesting
        a = np.asarray(None)
    if a.dtype.kind not in "iuf":
        raise error(f"{name} must be an array of real numbers, got {reprlib.repr(value)}")
    return a.astype(float, copy=False)


def _vectors(error, least, **named):
    """The named arguments as 1-D float arrays of one length, at least `least`
    long; anything else (text, ragged nesting, a dict, a matrix) raises
    `error` naming the arguments."""
    out = [_real_array(name, value, error) for name, value in named.items()]
    if any(a.ndim != 1 or a.size != out[0].size for a in out) or out[0].size < least:
        kind = "a vector" if len(out) == 1 else "equal-length vectors"
        shapes = " and ".join(str(a.shape) for a in out)
        raise error(f"{' and '.join(named)} must hold {least}+ values and be {kind}, "
                    f"got shape {shapes}")
    return out


def _calibration_vectors(least, **named):
    """_vectors under CalibrationError, and every value finite."""
    out = _vectors(CalibrationError, least, **named)
    if not all(np.all(np.isfinite(a)) for a in out):
        raise CalibrationError(f"{' and '.join(named)} must be finite")
    return out


def _bin_index(edges, t_c):
    """The bin [e_i, e_{i+1}) of each temperature; one outside the edges
    counts in the nearer end bin."""
    return np.clip(np.searchsorted(edges, t_c, side="right") - 1, 0, edges.size - 2)


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
    """Temperature-binned residual spread (see fit_tolerance); half-width 2*sigma."""

    bin_edges_c: np.ndarray
    sigma_mw: np.ndarray

    def __post_init__(self):
        # lists too, kept as float arrays
        (edges,) = _calibration_vectors(2, bin_edges_c=self.bin_edges_c)
        if not np.all(np.diff(edges) > 0):
            raise CalibrationError(f"bin_edges_c must be strictly increasing, got {edges!r}")
        (sigma,) = _calibration_vectors(1, sigma_mw=self.sigma_mw)
        if sigma.size != edges.size - 1:
            raise CalibrationError(f"sigma_mw must hold one value per bin, got {sigma.shape}")
        if not np.all(sigma >= SIGMA_FLOOR_MW):
            raise CalibrationError(f"sigma_mw must be >= {SIGMA_FLOOR_MW} MW")
        object.__setattr__(self, "bin_edges_c", edges)
        object.__setattr__(self, "sigma_mw", sigma)

    def sigma(self, t_c):
        """sigma_mw at each temperature's bin, an array of t_c's shape."""
        return self.sigma_mw[_bin_index(self.bin_edges_c, _real_array("t_c", t_c, ConfigError))]

    def epsilon(self, t_c):
        """Band half-width: 2 * sigma at each temperature's bin."""
        return 2.0 * self.sigma(t_c)


def fit_tolerance(temps, residuals):
    """The tolerance band: per-bin population std of envelope residuals.

    Bins are BIN_WIDTH_C wide and half-open, [e_i, e_{i+1}), on multiples of
    the width spanning the temperatures; one outside them counts in the
    nearer end bin. A bin with MIN_BIN_COUNT or more points keeps its
    residuals' std; every other bin takes the nearest such bin's, the lower
    bin winning a tie, or with none, the std of all residuals. SIGMA_FLOOR_MW
    floors every sigma, keeping a band where residuals are flat.
    """
    temps, residuals = _calibration_vectors(1, temps=temps, residuals=residuals)
    lo = np.floor(temps.min() / BIN_WIDTH_C) * BIN_WIDTH_C
    hi = np.ceil(temps.max() / BIN_WIDTH_C) * BIN_WIDTH_C
    if hi <= lo:
        hi = lo + BIN_WIDTH_C
    edges = np.arange(lo, hi + BIN_WIDTH_C / 2, BIN_WIDTH_C)
    n_bins = edges.size - 1
    idx = _bin_index(edges, temps)
    populated = np.flatnonzero(np.bincount(idx, minlength=n_bins) >= MIN_BIN_COUNT)
    if populated.size == 0:
        sigma = np.full(n_bins, residuals.std())
    else:
        own = np.array([residuals[idx == b].std() for b in populated])
        # argmin takes the first, so the lower of two equally near bins
        sigma = own[np.argmin(np.abs(np.arange(n_bins)[:, None] - populated), axis=1)]
    return ToleranceModel(bin_edges_c=edges, sigma_mw=np.maximum(sigma, SIGMA_FLOOR_MW))


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
    pred, temp = _vectors(ConfigError, 1, pred_mw=pred_mw, temp_c=temp_c)
    return _squared_hinge(pred - envelope_demand(env, temp), tol.epsilon(temp))


def ramp_penalty(pred_mw, delta_max, pairs):
    """Mean squared exceedance of |pred_j - pred_i| over delta_max.

    `pairs` holds the (i, j) index pairs of predictions for consecutive
    hours, earlier first, as an integer (k, 2) array; a batch in any order
    names them explicitly. With no pairs the loss is 0 by convention.
    """
    (pred,) = _vectors(ConfigError, 1, pred_mw=pred_mw)
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

    pred_mw, target_mw and temp_c are 1-D, non-empty and of one length.
    Returns (loss, grad wrt pred, components dict). The components are the
    unweighted term values.
    """
    pred, target, temp = _vectors(ConfigError, 1, pred_mw=pred_mw, target_mw=target_mw,
                                  temp_c=temp_c)
    n = pred.size
    err = pred - target
    mse = float(np.mean(err ** 2))
    grad = 2.0 * err / n
    par_loss, par_grad = parabolic_penalty(pred, temp, env, tol)
    ramp_loss, ramp_grad = ramp_penalty(pred, cfg.delta_max_mw, pairs=pairs)
    loss = mse + cfg.lambda1 * par_loss + cfg.lambda2 * ramp_loss
    grad = grad + cfg.lambda1 * par_grad + cfg.lambda2 * ramp_grad
    parts = {"mse": mse, "parabolic": par_loss, "ramp": ramp_loss}
    return loss, grad, parts


def estimate_delta_max(train_demand):
    """Empirical DELTA_MAX_PERCENTILE percentile (linear interpolation between
    order statistics) of absolute hour-over-hour first differences."""
    (y,) = _calibration_vectors(2, train_demand=train_demand)
    return float(np.percentile(np.abs(np.diff(y)), DELTA_MAX_PERCENTILE))
