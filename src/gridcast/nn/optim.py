"""Adam with bias correction, operating on named parameter dicts in place."""

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeError, check_real


@dataclass
class Adam:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = field(default=0, init=False)
    _m: dict = field(default_factory=dict, init=False, repr=False)
    _v: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name in ("beta1", "beta2"):
            setattr(self, name, check_real("betas", getattr(self, name), 0.0, 1.0))
        for name in ("lr", "eps"):
            setattr(self, name, check_real(name, getattr(self, name), 0.0, lo_open=True))

    def step(self, params, grads):
        """One update: params[k] -= lr * m_hat / (sqrt(v_hat) + eps).

        grads must hold a gradient of its parameter's shape for each key of
        params and no other key; otherwise ShapeError names the key and
        nothing is updated."""
        if grads.keys() != params.keys():
            for key in params:
                if key not in grads:
                    raise ShapeError(f"parameter {key!r} has no gradient")
            extra = next(key for key in grads if key not in params)
            raise ShapeError(f"gradient {extra!r} has no parameter")
        for key, p in params.items():
            if np.shape(grads[key]) != p.shape:
                raise ShapeError(f"gradient {key!r} has shape {np.shape(grads[key])}, "
                                 f"its parameter {p.shape}")
        self.step_count += 1
        t = self.step_count
        for key, p in params.items():
            g = grads[key]
            if key not in self._m:
                self._m[key] = np.zeros_like(p)
                self._v[key] = np.zeros_like(p)
            m = self._m[key]
            v = self._v[key]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1 ** t)
            v_hat = v / (1 - self.beta2 ** t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
