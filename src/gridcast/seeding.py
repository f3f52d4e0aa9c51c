"""Deterministic, purpose-scoped random number streams.

Every stochastic component (weight init, dropout, batch order, sampling)
draws from its own stream derived from a root seed plus a string label, so
adding randomness to one component never shifts another component's stream.
"""

import hashlib

import numpy as np

from .errors import check_int


def _label_entropy(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def seeded_rng(seed: int, *labels: str) -> np.random.Generator:
    """Generator for `seed` scoped to a purpose described by `labels`.

    Same (seed, labels) always yields the same stream; different labels yield
    independent streams. seed is an integer >= 0 by the settings rule;
    anything else raises ConfigError.
    """
    seed = check_int("seed", seed, 0)
    entropy = [seed] + [_label_entropy(lb) for lb in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))
