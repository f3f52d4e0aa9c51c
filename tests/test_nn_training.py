"""A short training run of both branches on float32 windows against the
same windows cast to float64, at a scale tier-1 can afford: a 1-year set
(train January-September, val October), convolutions of 8 and 16 filters,
and a Transformer with d_model 16, one encoder block and ff 32."""

import numpy as np
import pytest

from gridcast import ingest, nn, physics, synthetic
from gridcast.seeding import seeded_rng

SEED = 101
STEPS = 300
BATCH = 64
SPLIT = ingest.SplitSpec(train=("2024-01-01", "2024-10-01"), val=("2024-10-01", "2024-11-01"),
                         test=("2024-11-01", "2025-01-01"))
# A float64 run whose initial weights are moved by one float32 rounding
# (relative 6e-8) ends these 300 steps with a CNN val MAE 0.4 % and 1.1 %
# away at seeds 101 and 7: at this scale the CNN amplifies any rounding that
# much. float32 windows moved it by 0.5 % and 0.8 %, and the Transformer's
# by under 0.01 %. The tolerance, 2 %, is about twice the larger amplification.
VAL_MAE_RTOL = 0.02


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """(standardizer, windows by split, calibration) of the 1-year set."""
    data_dir = tmp_path_factory.mktemp("tiny")
    cfg = synthetic.SyntheticConfig(seed=SEED, years=1, missing_rate=0.2)
    synthetic.write_dataset(cfg, data_dir)
    frame, _ = ingest.build_frame(ingest.parse_load_csv(data_dir / "load.csv"),
                                  ingest.parse_weather_csv(data_dir / "weather.csv"),
                                  set(cfg.stations),
                                  ingest.parse_holiday_file(data_dir / "holidays.txt"))
    standardizer = ingest.fit_standardizer(frame, SPLIT)
    lo, hi = SPLIT.range_of("train")
    rows = (frame.timestamps >= lo) & (frame.timestamps < hi)
    temps, demand = frame.data[rows, ingest.AIR_TEMP], frame.data[rows, ingest.DEMAND]
    env, residuals = physics.fit_envelope(temps, demand, physics.REFERENCE_ENVELOPE.t0_c)
    calibration = (env, physics.fit_tolerance(temps, residuals),
                   physics.PhysicsLossConfig(delta_max_mw=physics.estimate_delta_max(demand)))
    return standardizer, ingest.make_windows(frame, standardizer, SPLIT), calibration


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


def ramp_pairs(target_timestamps):
    order = np.argsort(target_timestamps)
    next_hour = np.diff(target_timestamps[order]) == ingest.HOUR
    return np.column_stack([order[:-1][next_hour], order[1:][next_hour]])


def train(tiny, dtype):
    """Both branches after STEPS Adam steps under the composite loss, on
    shuffled batches of the train windows cast to dtype: (val MAE in MW by
    branch, the bytes of every param by branch)."""
    standardizer, windows, (env, tol, loss_cfg) = tiny
    branches = tiny_branches(SEED)
    adams = {branch: nn.Adam() for branch in branches}
    train_ws = windows["train"]
    perm = seeded_rng(SEED, "batches").permutation(len(train_ws))
    sigma = standardizer.demand_std
    for step in range(STEPS):
        start = step * BATCH % (len(perm) - BATCH + 1)
        ws = train_ws.slice(perm[start:start + BATCH])
        x = ws.inputs.astype(dtype)
        pairs = ramp_pairs(ws.target_timestamps)
        for branch, model in branches.items():
            z = model.forward(x, train=True)[:, 0]
            _, grad_mw, _ = physics.composite_loss(
                standardizer.destandardize_demand(z), ws.targets_mw, ws.target_air_temp_c,
                pairs, env, tol, loss_cfg)
            model.zero_grads()
            model.backward((grad_mw / sigma)[:, None])
            adams[branch].step(model.named_params(), model.named_grads())
    val = windows["val"]
    x = val.inputs.astype(dtype)
    mae = {branch: float(np.mean(np.abs(
        standardizer.destandardize_demand(model.forward(x)[:, 0]) - val.targets_mw)))
        for branch, model in branches.items()}
    params = {branch: [p.tobytes() for p in model.named_params().values()]
              for branch, model in branches.items()}
    return mae, params


def test_float32_windows_train_as_float64_within_rounding_and_repeat_exactly(tiny):
    mae32, params32 = train(tiny, np.float32)
    mae64, _ = train(tiny, np.float64)
    for branch, want in mae64.items():
        assert abs(mae32[branch] - want) <= VAL_MAE_RTOL * want, (branch, mae32[branch], want)
    assert train(tiny, np.float32)[1] == params32
