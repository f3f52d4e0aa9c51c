"""The three benchmark workloads and the closed loop that times them.

Each workload has a set-up, an operation (one closed-loop op, one caller),
an output check that decides whether the op failed, and `trace_targets`:
the public functions and methods the traced run wraps in spans.

- ingest: parse the three input files, build the hourly frame, standardize,
  window and calibrate. Python-bound and never touches `nn`.
- train: one Adam step of both branches on a shuffled 64-window batch under
  the composite physics loss. Exercises nn forward/backward and physics.
- score: 64 test windows through both branches in inference mode, fused
  with a fixed weight. The batch-inference path, with no backward pass.

No set-up runs the training loop, so set-up stays short, fixed work.
"""

import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gridcast import ingest, nn, physics, synthetic
from gridcast.seeding import seeded_rng

import hostspeed
import tracing

BATCH = 64
FUSION_W = 0.5
MISSING_RATE = 0.2
# train reports the fused val MAE after this many steps; the traced phase
# of train also runs at least this many ops, so its counts are fixed too.
FIXED_STEPS = 64
# score re-scores one window per batch alone; it must match the batched
# prediction within this many demand standard deviations.
SINGLE_WINDOW_TOL_STD = 1e-4
HEAD_FIT_WINDOWS = 1024
# The timed loop runs the workload's host-speed reference (hostspeed.py)
# before the first op, after the last, and between ops at least this often.
REF_EVERY_S = 0.5
WEATHER = slice(2, 8)  # frame columns of ingest.WEATHER_COLUMNS

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "windows_per_s": "windows/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "mae_mw": "MW",
    "peak_rss_mb": "MB",
}

INGEST_STAGES = ("parse_load_csv", "parse_weather_csv", "parse_holiday_file",
                 "align_hourly", "impute_linear", "drop_unfilled_rows",
                 "encode_calendar", "add_lag_feature", "fit_standardizer",
                 "make_windows")
CALIBRATION = ("fit_envelope", "fit_tolerance", "estimate_delta_max")
NN_LAYERS = {
    "cnn": ("Conv1d", "BatchNorm1d", "ReLU", "MaxPool1d", "GlobalAvgPool", "Dense"),
    "tr": ("Dense", "PositionalEncodingAdd", "MultiHeadSelfAttention", "Dropout",
           "LayerNorm", "ReLU", "GlobalAvgPool"),
}
INGEST_COUNTS = ("ingest.rows_in", "ingest.cells_missing", "ingest.cells_imputed",
                 "ingest.windows_out")
TRACE_METRICS = {"trace.untraced_windows_per_s": "windows/s",
                 "trace.traced_windows_per_s": "windows/s",
                 "trace.overhead_pct": "%"}


def _per_layer_units():
    units = {f"ingest.{s}.ms": "ms" for s in INGEST_STAGES}
    units.update({f"physics.{s}.ms": "ms" for s in CALIBRATION})
    units.update({name: "count" for name in INGEST_COUNTS})
    for branch, layers in NN_LAYERS.items():
        for layer in layers:
            units[f"nn.{branch}.{layer}.fwd_ms"] = "ms"
            units[f"nn.{branch}.{layer}.bwd_ms"] = "ms"
    units.update({"nn.cnn.Adam.step_ms": "ms", "nn.tr.Adam.step_ms": "ms",
                  "physics.composite_loss.ms": "ms", "physics.ramp_pairs": "count"})
    units.update(TRACE_METRICS)
    return units


PER_LAYER = _per_layer_units()


def metric_of_span(name):
    """Span name -> per-layer metric name: "nn.tr.LayerNorm.fwd" ->
    "nn.tr.LayerNorm.fwd_ms", "ingest.make_windows" -> "ingest.make_windows.ms"."""
    kind = name.rsplit(".", 1)[-1]
    metric = name + ("_ms" if kind in ("fwd", "bwd", "step") else ".ms")
    return metric if metric in PER_LAYER else None


@dataclass(frozen=True)
class Scale:
    """Dataset length and the three chronological split ranges."""

    years: int
    split: ingest.SplitSpec


FULL = Scale(2, ingest.SplitSpec(train=("2024-01-01", "2025-04-01"),
                                 val=("2025-04-01", "2025-08-01"),
                                 test=("2025-08-01", "2026-01-01")))


# --- shared pieces -----------------------------------------------------------

def write_data(seed, scale, out_dir):
    cfg = synthetic.SyntheticConfig(seed=seed, years=scale.years,
                                    missing_rate=MISSING_RATE)
    synthetic.write_dataset(cfg, out_dir)
    return cfg


def ingest_and_calibrate(data_dir, stations, split):
    """CSV files -> (standardizer, windows by split, calibration)."""
    load = ingest.parse_load_csv(data_dir / "load.csv")
    weather = ingest.parse_weather_csv(data_dir / "weather.csv")
    holidays = ingest.parse_holiday_file(data_dir / "holidays.txt")
    frame, _ = ingest.build_frame(load, weather, stations, holidays)
    standardizer = ingest.fit_standardizer(frame, split)
    windows = ingest.make_windows(frame, standardizer, split)
    lo, hi = split.range_of("train")
    rows = (frame.timestamps >= lo) & (frame.timestamps < hi)
    temps = frame.data[rows, ingest.AIR_TEMP]
    demand = frame.data[rows, ingest.DEMAND]
    env, residuals = physics.fit_envelope(temps, demand, physics.REFERENCE_ENVELOPE.t0_c)
    tol = physics.fit_tolerance(temps, residuals)
    loss_cfg = physics.PhysicsLossConfig(delta_max_mw=physics.estimate_delta_max(demand))
    return standardizer, windows, (env, tol, loss_cfg)


def build_branches(seed, t=ingest.WINDOW_HOURS, n_in=ingest.N_FEATURES):
    """The two baseline branches, each a Sequential ending in a Dense head."""
    rng = seeded_rng(seed, "init", "cnn")
    cnn = nn.Sequential([
        ("block1", nn.ConvBlock(n_in, 64, 3, rng)),
        ("block2", nn.ConvBlock(64, 128, 3, rng)),
        ("pool", nn.GlobalAvgPool()),
        ("head", nn.Dense(128, 1, rng)),
    ])
    rng = seeded_rng(seed, "init", "tr")
    tr = nn.Sequential([
        ("embed", nn.Dense(n_in, 64, rng)),
        ("pos", nn.PositionalEncodingAdd(t, 64)),
        ("enc1", nn.EncoderBlock(64, 4, 128, 0.1, rng)),
        ("enc2", nn.EncoderBlock(64, 4, 128, 0.1, rng)),
        ("pool", nn.GlobalAvgPool()),
        ("head", nn.Dense(64, 1, rng)),
    ])
    return {"cnn": cnn, "tr": tr}


def fused_std(branches, x):
    """Fixed-weight fusion of the two branches, standardized demand units."""
    return (FUSION_W * branches["cnn"].forward(x)[:, 0]
            + (1.0 - FUSION_W) * branches["tr"].forward(x)[:, 0])


def in_batches(fn, inputs):
    """fn over BATCH-sized slices of inputs, concatenated. Evaluation runs at
    the op's batch size so it does not set the process's peak memory."""
    return np.concatenate([fn(inputs[i:i + BATCH]) for i in range(0, len(inputs), BATCH)])


def fused_mae_mw(branches, windows, standardizer):
    pred = in_batches(lambda x: fused_std(branches, x), windows.inputs)
    return float(np.mean(np.abs(standardizer.destandardize_demand(pred)
                                - windows.targets_mw)))


def ramp_pairs(target_timestamps):
    """(earlier, later) batch positions whose target hours are consecutive."""
    order = np.argsort(target_timestamps)
    next_hour = np.diff(target_timestamps[order]) == ingest.HOUR
    return np.column_stack([order[:-1][next_hour], order[1:][next_hour]])


def layer_targets(branch, model):
    """(obj, attr, span, None) for forward/backward of every leaf layer."""
    out = []
    stack = [model]
    while stack:
        layer = stack.pop()
        if layer.sublayers:
            stack.extend(sub for _, sub in layer.sublayers)
            continue
        name = f"nn.{branch}.{type(layer).__name__}"
        out.append((layer, "forward", name + ".fwd", None))
        out.append((layer, "backward", name + ".bwd", None))
    return out


def expected_window_counts(data, split, max_gap_hours=6):
    """Windows per split, derived from the generated data rather than from
    the ingest code: an hour is dropped when, for some weather field, no
    station reports it within a run that touches the series end or is longer
    than max_gap_hours; each contiguous stretch then loses 24 lag warm-up
    rows, and a split stretch of n rows yields n - 24 windows."""
    n = data.timestamps.size
    keep = np.ones(n, dtype=bool)
    reported = ~np.all([np.isnan(v) for v in data.station_weather.values()], axis=0)
    for col in range(reported.shape[1]):
        edges = np.diff(np.concatenate([[0], (~reported[:, col]).astype(int), [0]]))
        for start, end in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)):
            if start == 0 or end == n or end - start > max_gap_hours:
                keep[start:end] = False
    ts = data.timestamps[keep]

    def stretches(stamps):
        breaks = np.flatnonzero(np.diff(stamps) != ingest.HOUR) + 1
        return np.split(np.arange(stamps.size), breaks) if stamps.size else []

    ts = np.concatenate([ts[s[ingest.WINDOW_HOURS:]] for s in stretches(ts)])
    counts = {}
    for tag in ("train", "val", "test"):
        lo, hi = split.range_of(tag)
        sub = ts[(ts >= lo) & (ts < hi)]
        counts[tag] = sum(max(0, s.size - ingest.WINDOW_HOURS) for s in stretches(sub))
    return counts


# --- workloads ---------------------------------------------------------------

class Workload:
    """setup(seed, scale, dir) -> state; op(state, i) -> (windows, ok);
    after_op runs untimed after each op; mae_mw(state) after the loop.
    `reference` names the host-speed reference that matches the op's work."""

    min_ops = 0
    reference = "numpy"

    def after_op(self, state, i):
        pass


class Ingest(Workload):
    """One op: parse the three files -> build_frame -> fit_standardizer ->
    make_windows, then calibrate on train rows."""

    reference = "python"

    def setup(self, seed, scale, work_dir):
        cfg = write_data(seed, scale, work_dir)
        data = synthetic.generate(cfg)
        return {
            "dir": work_dir, "cfg": cfg, "split": scale.split,
            "counts": expected_window_counts(data, scale.split),
            "t0": data.timestamps[0], "demand_mw": data.demand_mw,
        }

    def op(self, state, i):
        standardizer, windows, _ = ingest_and_calibrate(
            state["dir"], state["cfg"].stations, state["split"])
        state["last"] = (standardizer, windows)
        ok = True
        for tag, ws in windows.items():
            hour = (ws.target_timestamps - state["t0"]) // ingest.HOUR
            ok &= len(ws) == state["counts"][tag]
            ok &= bool(np.array_equal(ws.targets_mw, state["demand_mw"][hour]))
        return sum(len(ws) for ws in windows.values()), ok

    def mae_mw(self, state):
        """Seasonal-naive test MAE: the demand 24 h before the target hour,
        which is the first row of each window."""
        standardizer, windows = state["last"]
        test = windows["test"]
        naive = standardizer.destandardize_demand(test.inputs[:, 0, ingest.DEMAND])
        return float(np.mean(np.abs(naive - test.targets_mw)))

    def trace_targets(self, state):
        def rows(args, result):
            yield "ingest.rows_in", len(result)

        def missing(args, frame):
            yield "ingest.cells_missing", frame.missing[:, WEATHER].sum()

        def imputed(args, result):
            yield "ingest.cells_imputed", (args[0].missing[:, WEATHER].sum()
                                           - result[0].missing[:, WEATHER].sum())

        def windows_out(args, result):
            yield "ingest.windows_out", sum(len(ws) for ws in result.values())

        counters = {"parse_load_csv": rows, "parse_weather_csv": rows,
                    "align_hourly": missing, "impute_linear": imputed,
                    "make_windows": windows_out}
        out = [(ingest, s, f"ingest.{s}", counters.get(s)) for s in INGEST_STAGES]
        out += [(physics, s, f"physics.{s}", None) for s in CALIBRATION]
        return out


class _Models(Workload):
    """Set-up shared by train and score: data, one ingest, branch init."""

    def setup(self, seed, scale, work_dir):
        cfg = write_data(seed, scale, work_dir)
        standardizer, windows, calibration = ingest_and_calibrate(
            work_dir, cfg.stations, scale.split)
        return {"standardizer": standardizer, "windows": windows,
                "calibration": calibration, "branches": build_branches(seed)}

    def trace_targets(self, state):
        out = []
        for branch, model in state["branches"].items():
            out += layer_targets(branch, model)
        return out


class Train(_Models):
    """One op: one Adam step of each branch on a shuffled 64-window batch."""

    min_ops = FIXED_STEPS

    def setup(self, seed, scale, work_dir):
        state = super().setup(seed, scale, work_dir)
        state["adams"] = {b: nn.Adam() for b in state["branches"]}
        state["order"] = seeded_rng(seed, "batches")
        state["batches"] = []
        return state

    def batch(self, state, i):
        """The i-th batch of the epoch-by-epoch shuffled schedule."""
        n = len(state["windows"]["train"])
        while len(state["batches"]) <= i:
            perm = state["order"].permutation(n)
            state["batches"] += [perm[k:k + BATCH] for k in range(0, n - BATCH + 1, BATCH)]
        return state["batches"][i]

    def op(self, state, i):
        ws = state["windows"]["train"].slice(self.batch(state, i))
        pairs = ramp_pairs(ws.target_timestamps)
        env, tol, loss_cfg = state["calibration"]
        sigma = state["standardizer"].demand_std
        ok = True
        for branch, model in state["branches"].items():
            z = model.forward(ws.inputs, train=True)[:, 0]
            pred_mw = state["standardizer"].destandardize_demand(z)
            loss, grad_mw, _ = physics.composite_loss(
                pred_mw, ws.targets_mw, ws.target_air_temp_c, pairs, env, tol, loss_cfg)
            # loss in MW^2 scaled by 1/sigma^2; d(loss/sigma^2)/dz = grad_mw / sigma
            model.zero_grads()
            model.backward((grad_mw / sigma)[:, None])
            grads = model.named_grads()
            ok &= bool(np.isfinite(loss / sigma ** 2))
            ok &= all(np.isfinite(g).all() for g in grads.values())
            state["adams"][branch].step(model.named_params(), grads)
        return len(ws), ok

    def after_op(self, state, i):
        if i == FIXED_STEPS - 1:
            state["mae"] = fused_mae_mw(state["branches"], state["windows"]["val"],
                                        state["standardizer"])

    def mae_mw(self, state):
        """Fused val MAE after FIXED_STEPS steps."""
        return state["mae"]

    def trace_targets(self, state):
        def pairs(args, result):
            yield "physics.ramp_pairs", len(args[3])

        out = super().trace_targets(state)
        out += [(adam, "step", f"nn.{b}.Adam.step", None)
                for b, adam in state["adams"].items()]
        out.append((physics, "composite_loss", "physics.composite_loss", pairs))
        return out


class Score(_Models):
    """One op: 64 test windows (cycling through the split) through both
    branches in inference mode, fused with the fixed weight."""

    def setup(self, seed, scale, work_dir):
        state = super().setup(seed, scale, work_dir)
        train = state["windows"]["train"]
        fit = np.linspace(0, len(train) - 1, HEAD_FIT_WINDOWS).astype(int)
        for model in state["branches"].values():
            fit_head(model, train.inputs[fit], train.targets_std[fit])
        return state

    def op(self, state, i):
        test = state["windows"]["test"]
        rows = (i * BATCH + np.arange(BATCH)) % len(test)
        x = test.inputs[rows]
        z = fused_std(state["branches"], x)
        pred_mw = state["standardizer"].destandardize_demand(z)
        j = i % BATCH
        alone = fused_std(state["branches"], x[j:j + 1])[0]
        ok = bool(np.isfinite(pred_mw).all()) and abs(alone - z[j]) <= SINGLE_WINDOW_TOL_STD
        return BATCH, ok

    def mae_mw(self, state):
        """Fused test MAE."""
        return fused_mae_mw(state["branches"], state["windows"]["test"],
                            state["standardizer"])


def fit_head(model, inputs, targets_std):
    """Least-squares fit of the final Dense on the pooled features."""
    def pooled(x):
        for _, layer in model.sublayers[:-1]:
            x = layer.forward(x)
        return x

    feats = in_batches(pooled, inputs)
    design = np.column_stack([feats, np.ones(len(feats))])
    coef = np.linalg.lstsq(design, targets_std, rcond=None)[0]
    head = model.sublayers[-1][1]
    head.params["W"][:, 0] = coef[:-1]
    head.params["b"][0] = coef[-1]


WORKLOADS = {"ingest": Ingest(), "train": Train(), "score": Score()}


# --- the closed loop ---------------------------------------------------------

@dataclass
class Phase:
    """Raw op latencies and, per op, its host-speed factor (hostspeed.py)."""

    latencies: list
    factors: list
    windows: int
    failed: int

    @property
    def corrected(self):
        return [t * f for t, f in zip(self.latencies, self.factors)]


def run_phase(workload, state, seconds, min_ops=0, tracer=None, hooks=True):
    """Closed loop, one caller: ops back to back until they have taken
    `seconds` in all (and at least `min_ops` ops). The workload's reference
    runs before the first op, after the last and between ops every
    REF_EVERY_S; an op's factor comes from the two reference runs around it.
    With `hooks`, workload.after_op runs untimed after each op."""
    kind = workload.reference
    refs = [hostspeed.reference_s(kind)]
    last_ref = time.perf_counter()
    segment = []  # per op: index of the reference run before it
    latencies, windows, failed, busy = [], 0, 0, 0.0
    i = 0
    while busy < seconds or i < min_ops:
        if i and time.perf_counter() - last_ref >= REF_EVERY_S:
            refs.append(hostspeed.reference_s(kind))
            last_ref = time.perf_counter()
        segment.append(len(refs) - 1)
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            n, ok = workload.op(state, i)
        except Exception:  # a failing op is counted, the loop keeps going
            traceback.print_exc(file=sys.stderr)
            n, ok = 0, False
        latencies.append(time.perf_counter() - t0)
        busy += latencies[-1]
        windows += n
        failed += not ok
        if hooks:
            workload.after_op(state, i)
        i += 1
    refs.append(hostspeed.reference_s(kind))
    factors = [hostspeed.factor(kind, refs[k], refs[k + 1]) for k in segment]
    return Phase(latencies, factors, windows, failed)


def setup_repeated(workload, seed, scale, work_dir, reps):
    """Run set-up `reps` times from scratch, each between two runs of the
    python reference (every set-up is mostly CSV writing and parsing); keep
    the last state. Returns (state, raw times, corrected times)."""
    raw, corrected = [], []
    before = hostspeed.reference_s("python")
    for rep in range(reps):
        state = None  # free the previous set-up before timing the next
        t0 = time.perf_counter()
        state = workload.setup(seed, scale, work_dir / f"setup{rep}")
        raw.append(time.perf_counter() - t0)
        after = hostspeed.reference_s("python")
        corrected.append(raw[-1] * hostspeed.factor("python", before, after))
        before = after
        if rep:
            shutil.rmtree(work_dir / f"setup{rep - 1}")
    return state, raw, corrected


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_values(setup_times, windows, latencies):
    lat_ms = [t * 1e3 for t in latencies]
    return {
        "setup_s": statistics.median(setup_times),
        "windows_per_s": windows / sum(latencies),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": float(np.percentile(lat_ms, 90)),
    }


def run(name, seed, seconds, trace, work_dir, scale=FULL, setup_reps=3, trace_path=None):
    """One benchmark run. Returns the result object (without printing) and
    its timed values without the host-speed correction, under "wall"."""
    workload = WORKLOADS[name]
    state, setup_raw, setup_corrected = setup_repeated(
        workload, seed, scale, Path(work_dir), 1 if trace else setup_reps)
    if not trace:
        phase = run_phase(workload, state, seconds, workload.min_ops)
        mae = workload.mae_mw(state)
        values = timed_values(setup_corrected, phase.windows, phase.corrected)
        values.update(mae_mw=mae, peak_rss_mb=peak_rss_mb())
        wall = timed_values(setup_raw, phase.windows, phase.latencies)
        wall["host_factor_p50"] = statistics.median(phase.factors)
        units = END_TO_END
        attempted, failed = len(phase.latencies), phase.failed
        correct = failed == 0 and bool(np.isfinite(mae))
    else:
        # Same process, same state: untraced quarter, traced half, untraced
        # quarter, so a steady drift in machine speed cancels in the overhead.
        before = run_phase(workload, state, seconds / 4, hooks=False)
        tracer = tracing.Tracer()
        with tracing.wrap_all(tracer, workload.trace_targets(state)):
            traced = run_phase(workload, state, seconds / 2, workload.min_ops,
                               tracer=tracer, hooks=False)
        after = run_phase(workload, state, seconds / 4, hooks=False)
        ops = range(len(traced.latencies))
        # a layer the workload never calls reads 0
        values = {m: 0 if unit == "count" else 0.0 for m, unit in PER_LAYER.items()}
        values.update(tracing.per_op_median_ms(tracer.spans, ops, metric_of_span))
        # counts are taken over a fixed set of ops so they repeat exactly
        values.update(tracing.count_totals(tracer.counts, range(max(1, workload.min_ops))))
        rates = {}
        for kind, pick in (("corrected", lambda ph: ph.corrected),
                           ("wall", lambda ph: ph.latencies)):
            rates[kind] = ((before.windows + after.windows)
                           / (sum(pick(before)) + sum(pick(after))),
                           traced.windows / sum(pick(traced)))
        untraced_rate, traced_rate = rates["corrected"]
        values["trace.untraced_windows_per_s"] = untraced_rate
        values["trace.traced_windows_per_s"] = traced_rate
        values["trace.overhead_pct"] = (untraced_rate / traced_rate - 1.0) * 100.0
        wall = {"trace.untraced_windows_per_s": rates["wall"][0],
                "trace.traced_windows_per_s": rates["wall"][1]}
        if trace_path is not None:
            tracer.write_jsonl(trace_path)
        units = PER_LAYER
        phases = (before, traced, after)
        attempted = sum(len(ph.latencies) for ph in phases)
        failed = sum(ph.failed for ph in phases)
        correct = failed == 0
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    return result, wall
