"""Adam with bias correction, operating on named parameter dicts in place."""

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError


@dataclass
class Adam:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    _m: dict = field(default_factory=dict, repr=False)
    _v: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("betas must lie in [0, 1)")

    def step(self, params, grads):
        """One update: params[k] -= lr * m_hat / (sqrt(v_hat) + eps)."""
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
