"""Two rules of the forecaster's spine in perfbench/workloads.py, as
properties: the ramp-pair rule, and the epoch-by-epoch batch schedule of the
train op that the training test also runs on."""

import itertools

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from gridcast import ingest
from gridcast.seeding import seeded_rng

import workloads  # perfbench's

T0 = np.datetime64("2024-01-01T00", "s")
EPOCHS = 3


@given(hours=st.lists(st.integers(0, 300), unique=True, max_size=80), data=st.data())
def test_ramp_pairs_are_the_positions_one_hour_apart(hours, data):
    stamps = T0 + np.array(data.draw(st.permutations(hours)), dtype=np.int64) * ingest.HOUR
    pairs = workloads.ramp_pairs(stamps)
    assert pairs.shape == (len(pairs), 2)
    got = [tuple(p) for p in pairs.tolist()]
    assert len(set(got)) == len(got)
    assert set(got) == {(i, j) for i, j in itertools.permutations(range(len(stamps)), 2)
                        if stamps[j] - stamps[i] == ingest.HOUR}


def schedule(n, seed, count):
    """The first count batches Train.batch draws for n train windows."""
    state = {"windows": {"train": range(n)}, "order": seeded_rng(seed, "batches"),
             "batches": []}
    return [workloads.Train().batch(state, i) for i in range(count)]


@given(n=st.integers(workloads.BATCH, 700), seed=st.integers(0, 2**64))
def test_each_epoch_is_a_new_shuffle_into_full_batches_fixed_by_the_seed(n, seed):
    per_epoch = n // workloads.BATCH
    batches = schedule(n, seed, EPOCHS * per_epoch)
    epochs = [np.concatenate(batches[e * per_epoch:(e + 1) * per_epoch]) for e in range(EPOCHS)]
    assert all(len(b) == workloads.BATCH for b in batches)
    for drawn in epochs:
        assert drawn.size == per_epoch * workloads.BATCH
        assert np.unique(drawn).size == drawn.size
        assert drawn.min() >= 0 and drawn.max() < n
    # one permutation reused every epoch would repeat this order
    assert len({drawn.tobytes() for drawn in epochs}) == EPOCHS
    again = schedule(n, seed, len(batches))
    assert [b.tobytes() for b in again] == [b.tobytes() for b in batches]
