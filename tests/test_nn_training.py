"""A short training run of both branches on float32 windows against the
same windows cast to float64, at a scale tier-1 can afford: a 1-year set
(train January-September, val October), convolutions of 8 and 16 filters,
and a Transformer with d_model 16, one encoder block and ff 32."""

import dataclasses

import numpy as np

from gridcast import ingest, nn
from gridcast.seeding import seeded_rng

import workloads  # perfbench's: calibration, ramp pairs, the train step and its schedule

SEED = 101
STEPS = 300
SCALE = workloads.Scale(1, ingest.SplitSpec(train=("2024-01-01", "2024-10-01"),
                                            val=("2024-10-01", "2024-11-01"),
                                            test=("2024-11-01", "2025-01-01")))
# On the benchmark's epoch schedule, float32 windows move the CNN's val MAE
# after these 300 steps by 0.33 %, 9e-7 and 0.30 % from the float64 run at
# seeds 101, 7 and 0, and the Transformer's by under 3e-7; rounding the
# float64 run's initial weights to float32 once moves either by under 3e-8.
# The tolerance, 2 %, is six times the largest gap: room for a BLAS that
# rounds the float32 steps differently, and a float32 path that computes
# wrongly still fails it.
VAL_MAE_RTOL = 0.02


def tiny_branches(seed, t=ingest.WINDOW_HOURS, n_in=ingest.N_FEATURES):
    rng = seeded_rng(seed, "init", "cnn")
    cnn = nn.Sequential([
        ("block1", nn.ConvBlock(n_in, 8, 3, rng)),
        ("block2", nn.ConvBlock(8, 16, 3, rng)),
        ("pool", nn.GlobalAvgPool()),
        ("head", nn.Dense(16, 1, rng)),
    ])
    rng = seeded_rng(seed, "init", "tr")
    tr = nn.Sequential([
        ("embed", nn.Dense(n_in, 16, rng)),
        ("pos", nn.PositionalEncodingAdd(t, 16)),
        ("enc1", nn.EncoderBlock(16, 2, 32, 0.1, rng)),
        ("pool", nn.GlobalAvgPool()),
        ("head", nn.Dense(16, 1, rng)),
    ])
    return {"cnn": cnn, "tr": tr}


def as_float64(ws):
    """ws over a float64 copy of its standardized frame."""
    return dataclasses.replace(ws, std_data=ws.std_data.astype(np.float64))


def train(data_dir, cast):
    """Both branches of tiny_branches after STEPS of the benchmark's train op
    on the 1-year set written to data_dir, every window set passed through
    cast: (val MAE in MW by branch, the bytes of every param by branch)."""
    bench = workloads.Train()
    state = bench.setup(SEED, SCALE, data_dir)
    branches = state["branches"] = tiny_branches(SEED)
    state["windows"] = {split: cast(ws) for split, ws in state["windows"].items()}
    for i in range(STEPS):
        assert bench.op(state, i) == (workloads.BATCH, True)
    val, standardizer = state["windows"]["val"], state["standardizer"]
    mae = {branch: float(np.mean(np.abs(
        standardizer.destandardize_demand(model.forward(val.inputs)[:, 0]) - val.targets_mw)))
        for branch, model in branches.items()}
    params = {branch: [p.tobytes() for p in model.named_params().values()]
              for branch, model in branches.items()}
    return mae, params


def test_float32_windows_train_as_float64_within_rounding_and_repeat_exactly(tmp_path):
    mae32, params32 = train(tmp_path, lambda ws: ws)
    mae64, _ = train(tmp_path, as_float64)
    for branch, want in mae64.items():
        assert abs(mae32[branch] - want) <= VAL_MAE_RTOL * want, (branch, mae32[branch], want)
    assert train(tmp_path, lambda ws: ws)[1] == params32
