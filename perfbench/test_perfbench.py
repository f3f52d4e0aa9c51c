"""Fast self-tests of the benchmark code on one year of data and six months
of splits.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gridcast import ingest, synthetic  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Scale(1, ingest.SplitSpec(train=("2024-03-01", "2024-07-01"),
                                           val=("2024-07-01", "2024-08-01"),
                                           test=("2024-08-01", "2024-09-01")))


def span(name, start, end, parent, op=0):
    return [name, start, end, parent, op]


def test_self_time_subtracts_merged_and_clipped_children():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.inner", 2.0, 3.0, 1),
        span("b", 3.0, 6.0, 0),   # overlaps a: covered part of root is [1, 6]
        span("c", 8.0, 12.0, 0),  # runs past root: counts only up to 10
        span("other", 20.0, 21.0, -1, op=1),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 4.0, 1.0]


def test_per_op_median_sums_instances_and_fills_missing_ops_with_zero():
    spans = [
        span("x", 0.0, 0.001, -1, op=0), span("x", 0.002, 0.005, -1, op=0),
        span("x", 0.010, 0.012, -1, op=1),
        span("y", 0.020, 0.021, -1, op=2),
    ]
    med = tracing.per_op_median_ms(spans, range(3), lambda n: n + ".ms")
    assert med["x.ms"] == pytest.approx(2.0)  # per op: 4, 2, 0
    assert med["y.ms"] == pytest.approx(0.0)  # per op: 0, 0, 1


def test_tracer_nests_wrapped_calls_and_counts_outside_the_span():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_inner = tracer.wrap(inner, "inner", lambda args, r: [("calls", 1)])
    tracer.begin_op()
    assert tracer.wrap(outer, "outer")(1) == 4
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert tracer.counts == [(0, "calls", 1)]
    assert tracing.self_times(tracer.spans) == [2.0, 1.0]


def test_patched_restores_instance_and_module_attributes():
    model = workloads.build_branches(0)["cnn"]
    layer = model.sublayers[-1][1]
    before = workloads.fused_std
    with tracing.patched(layer, "forward", None), \
            tracing.patched(workloads, "fused_std", None):
        assert layer.forward is None and workloads.fused_std is None
    assert "forward" not in vars(layer)
    assert workloads.fused_std is before


def test_each_op_is_scaled_by_the_references_around_it(monkeypatch):
    class Counter(workloads.Workload):
        reference = "python"

        def op(self, state, i):
            return 1, True

    ref_times = iter([0.010, 0.030, 0.050, 0.070])
    monkeypatch.setattr(hostspeed, "reference_s", lambda kind: next(ref_times))
    monkeypatch.setattr(workloads, "REF_EVERY_S", 0.0)
    phase = workloads.run_phase(Counter(), None, seconds=0.0, min_ops=3)
    nominal = hostspeed.NOMINAL_S["python"]
    assert phase.factors == pytest.approx([nominal / 0.02, nominal / 0.04, nominal / 0.06])
    assert phase.corrected == pytest.approx(
        [t * f for t, f in zip(phase.latencies, phase.factors)])


def test_references_run_and_take_time():
    for kind in hostspeed.REFERENCES:
        assert hostspeed.reference_s(kind) > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_ramp_pairs_follow_timestamps_not_batch_order():
    t0 = np.datetime64("2024-01-01T00:00:00", "s")
    ts = t0 + np.array([2, 0, 1, 5]) * ingest.HOUR
    assert workloads.ramp_pairs(ts).tolist() == [[1, 2], [2, 0]]


def test_expected_window_counts_match_ingest(tmp_path):
    cfg = workloads.write_data(3, TINY, tmp_path)
    _, windows, _ = workloads.ingest_and_calibrate(tmp_path, cfg.stations, TINY.split)
    expected = workloads.expected_window_counts(synthetic.generate(cfg), TINY.split)
    assert expected == {tag: len(ws) for tag, ws in windows.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_clean_and_repeats_for_a_seed(name, tmp_path):
    runs = [workloads.run(name, 1, 0.2, 0, tmp_path / f"r{k}", TINY, setup_reps=1)[0]
            for k in range(2)]
    for r in runs:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
        assert set(r["metrics"]) == set(workloads.END_TO_END)
        assert all(v["value"] > 0 for v in r["metrics"].values())
    assert runs[0]["metrics"]["mae_mw"] == runs[1]["metrics"]["mae_mw"]


@pytest.mark.parametrize("name,owned", [
    ("ingest", ["ingest.parse_weather_csv.ms", "physics.fit_envelope.ms",
                "ingest.cells_imputed", "ingest.windows_out"]),
    ("train", ["nn.tr.MultiHeadSelfAttention.bwd_ms", "nn.cnn.Adam.step_ms",
               "physics.composite_loss.ms", "physics.ramp_pairs"]),
    ("score", ["nn.cnn.Conv1d.fwd_ms", "nn.tr.LayerNorm.fwd_ms"]),
])
def test_traced_run_reports_every_per_layer_metric(name, owned, tmp_path):
    out = tmp_path / "trace.jsonl"
    r, wall = workloads.run(name, 2, 0.2, 1, tmp_path / "w", TINY, trace_path=out)
    assert r["correct"]
    assert {m: v["unit"] for m, v in r["metrics"].items()} == workloads.PER_LAYER
    assert all(r["metrics"][m]["value"] > 0 for m in owned)
    assert r["metrics"]["trace.traced_windows_per_s"]["value"] > 0
    assert wall["trace.traced_windows_per_s"] > 0
    assert out.stat().st_size > 0


def test_ingest_check_fails_on_wrong_window_count(tmp_path):
    wl = workloads.Ingest()
    state = wl.setup(0, TINY, tmp_path)
    assert wl.op(state, 0)[1]
    state["counts"]["val"] += 1
    assert not wl.op(state, 0)[1]


def test_score_check_fails_when_a_prediction_depends_on_the_batch(tmp_path):
    wl = workloads.Score()
    state = wl.setup(0, TINY, tmp_path)
    assert wl.op(state, 0)[1]
    bn = state["branches"]["cnn"].sublayers[0][1].sublayers[1][1]
    batch_stats = type(bn).forward.__get__(bn)
    with tracing.patched(bn, "forward", lambda x, train=False: batch_stats(x, train=True)):
        assert not wl.op(state, 0)[1]


def test_train_check_fails_on_non_finite_gradients(tmp_path):
    wl = workloads.Train()
    state = wl.setup(0, TINY, tmp_path)
    assert wl.op(state, 0)[1]
    state["branches"]["tr"].sublayers[0][1].params["W"][0, 0] = np.nan
    assert not wl.op(state, 1)[1]
