"""The tolerance band fit against its documented recipe, on drawn
temperatures and residuals: bins counted by comparing each temperature with
the interior edges, populated bins, the nearest-populated fill with the
lower bin winning a tie, the global fallback and the floor."""

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st

from gridcast import physics

W = physics.BIN_WIDTH_C


def counted_bin(edges, t):
    """The bin a temperature counts in: the number of interior edges at or
    below it, so [e_i, e_{i+1}) is bin i and the end bins take the rest."""
    return int(np.sum(edges[1:-1] <= t))


@given(seed=st.integers(0, 2**32 - 1), first_bin=st.integers(-15, 20),
       counts=st.lists(st.sampled_from([0, 1, 5, 29, 30, 31, 45]), min_size=1, max_size=7),
       on_edges=st.booleans(), top_edge=st.booleans(),
       spread=st.sampled_from([0.0, 0.4, 150.0]))
@example(seed=0, first_bin=0, counts=[30, 5, 40], on_edges=True, top_edge=False,
         spread=150.0)  # the middle bin is as near to each populated bin
@example(seed=1, first_bin=-3, counts=[5, 0, 29], on_edges=True, top_edge=True,
         spread=150.0)  # no bin populated
def test_band_fit_follows_the_recipe(seed, first_bin, counts, on_edges, top_edge, spread):
    rng = np.random.default_rng(seed)
    parts = []
    for b, count in enumerate(counts):
        frac = rng.uniform(0.0, 1.0, count)
        if on_edges:
            frac[:1] = 0.0  # exactly on the bin's lower edge
        parts.append((first_bin + b + frac) * W)
    if top_edge:  # exactly on the edge above the last drawn bin
        parts.append(np.array([(first_bin + len(counts)) * W]))
    temps = np.concatenate(parts)
    assume(temps.size > 0)
    residuals = rng.normal(0.0, spread, temps.size) if spread else np.full(temps.size, 3.0)

    tol = physics.fit_tolerance(temps, residuals)
    edges, sigma = tol.bin_edges_c, tol.sigma_mw
    n_bins = edges.size - 1
    assert np.all(np.diff(edges) == W) and edges[0] % W == 0
    assert edges[0] <= temps.min() < edges[0] + W
    assert edges[-1] - W <= temps.max() <= edges[-1]

    bins = np.array([counted_bin(edges, t) for t in temps])
    populated = [b for b in range(n_bins) if np.sum(bins == b) >= physics.MIN_BIN_COUNT]
    for b in range(n_bins):
        if populated:
            source = min(populated, key=lambda p: (abs(p - b), p))
            expected = residuals[bins == source].std()
        else:
            expected = residuals.std()
        assert sigma[b] == max(expected, physics.SIGMA_FLOOR_MW), b

    # the model reads each temperature in the bin the fit counted it in
    probes = np.concatenate([temps, edges, [edges[0] - 0.5 * W, edges[-1] + 3.0 * W]])
    for t in probes:
        assert tol.sigma(t) == sigma[counted_bin(edges, t)], t
    np.testing.assert_array_equal(
        tol.sigma(probes), sigma[[counted_bin(edges, t) for t in probes]])
