"""Central finite-difference gradients for verifying analytic backward passes."""

import numpy as np


def central_difference_grad(f, x, h=1e-5):
    """Numeric gradient of scalar f at x, one central difference per element.

    A float64 array x is perturbed in place and each element restored after
    its two calls, so f may read x where it lives, as a layer's parameter."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def relative_error(analytic, numeric, floor=1e-6):
    """Max elementwise |a - n| scaled by the larger gradient magnitude."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = max(floor, np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0))
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)
