"""Gradient checks and behavioral tests for every layer type.

The layer table drives the gradient checks: one central-difference test
runs over a row per leaf layer class (LEAF_LAYERS, which a test pins to
every leaf class in gridcast.nn) and a row per further configuration."""

import inspect
import re
import tracemalloc

import numpy as np
import pytest

import nn_reference as ref
from gradcheck import central_difference_grad, relative_error
from gridcast import nn
from gridcast.errors import ConfigError, ShapeError
from gridcast.seeding import seeded_rng

import workloads  # perfbench's: the branches at the benchmark's sizes


LEAF_LAYERS = {  # class -> (factory, input shape)
    nn.Dense: (lambda r: nn.Dense(4, 5, r), (3, 6, 4)),
    nn.ReLU: (lambda r: nn.ReLU(), (3, 6, 4)),
    nn.Conv1d: (lambda r: nn.Conv1d(4, 5, 3, r), (3, 6, 4)),
    nn.BatchNorm1d: (lambda r: nn.BatchNorm1d(4), (3, 6, 4)),
    nn.MaxPool1d: (lambda r: nn.MaxPool1d(), (3, 7, 4)),
    nn.GlobalAvgPool: (lambda r: nn.GlobalAvgPool(), (3, 6, 4)),
    nn.Dropout: (lambda r: nn.Dropout(0.5, r), (3, 6, 4)),
    nn.PositionalEncodingAdd: (lambda r: nn.PositionalEncodingAdd(6, 4), (3, 6, 4)),
    nn.LayerNorm: (lambda r: nn.LayerNorm(4), (3, 6, 4)),
    nn.MultiHeadSelfAttention: (lambda r: nn.MultiHeadSelfAttention(4, 2, r), (3, 6, 4)),
}

GRAD_CASES = {cls.__name__: row for cls, row in LEAF_LAYERS.items()} | {
    "Dense-2d": (lambda r: nn.Dense(5, 4, r), (3, 5)),
    "Conv1d-kernel-1": (lambda r: nn.Conv1d(3, 4, 1, r), (2, 6, 3)),
    "Conv1d-kernel-5": (lambda r: nn.Conv1d(3, 4, 5, r), (2, 6, 3)),
    "ConvBlock": (lambda r: nn.ConvBlock(3, 4, 3, r), (2, 6, 3)),
    "EncoderBlock": (lambda r: nn.EncoderBlock(8, 2, 12, 0.1, r), (2, 4, 8)),
}


def grad_check(make_layer, x_shape, seed):
    """Central differences of sum(forward(x, train=True) * proj) against
    backward, for the input and every parameter gradient. Each Dropout's
    generator is rewound before every forward, so every forward redraws the
    first forward's masks."""
    rng = seeded_rng(seed, "gradcheck")
    layer = make_layer(seeded_rng(seed, "gradcheck-layer"))
    drops = [d for _, d in layer.walk() if isinstance(d, nn.Dropout)]
    states = [d.rng.bit_generator.state for d in drops]

    def loss():
        for d, state in zip(drops, states):
            d.rng.bit_generator.state = state
        return float(np.sum(layer.forward(x, train=True) * proj))

    x = rng.normal(size=x_shape)
    proj = rng.normal(size=layer.forward(x, train=True).shape)
    loss()
    layer.zero_grads()
    analytic = {"input": layer.backward(proj), **layer.named_grads()}
    for name, a in {"input": x, **layer.named_params()}.items():
        err = relative_error(analytic[name], central_difference_grad(lambda _: loss(), a))
        assert err < 1e-4, f"{name}: rel err {err}"


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("make, shape", GRAD_CASES.values(), ids=list(GRAD_CASES))
def test_backward_matches_central_differences(make, shape, seed):
    grad_check(make, shape, seed)


def test_conv_block_identity_kernel_reduces_to_maxpool():
    rng = seeded_rng(0, "identity-conv")
    conv = nn.Conv1d(3, 3, 3, rng)
    block = nn.Sequential([("conv", conv), ("relu", nn.ReLU()), ("pool", nn.MaxPool1d())])
    conv.params["W"][...] = 0.0
    conv.params["W"][3:6] = np.eye(3)  # center tap passes channels through
    x = rng.uniform(0.5, 2.0, size=(2, 8, 3))  # positive so ReLU is inert
    expected = x.reshape(2, 4, 2, 3).max(axis=2)
    np.testing.assert_allclose(block.forward(x), expected)


def test_conv_block_zero_input_zero_bias_gives_zero():
    rng = seeded_rng(1, "zero-conv")
    conv = nn.Conv1d(2, 5, 3, rng)
    block = nn.Sequential([("conv", conv), ("relu", nn.ReLU()), ("pool", nn.MaxPool1d())])
    out = block.forward(np.zeros((1, 6, 2)))
    np.testing.assert_array_equal(out, np.zeros_like(out))


def test_conv_block_halves_length_24_to_12_to_6():
    rng = seeded_rng(2, "shapes")
    b1 = nn.ConvBlock(13, 64, 3, rng)
    b2 = nn.ConvBlock(64, 64, 3, rng)
    x = rng.normal(size=(2, 24, 13))
    h1 = b1.forward(x, train=True)
    h2 = b2.forward(h1, train=True)
    assert h1.shape == (2, 12, 64)
    assert h2.shape == (2, 6, 64)


def test_conv_rejects_too_short_sequences():
    rng = seeded_rng(3, "short")
    conv = nn.Conv1d(2, 2, 3, rng)
    with pytest.raises(ShapeError):
        conv.forward(np.zeros((1, 2, 2)))


def test_positional_encoding_values():
    pe = nn.positional_encoding(10, 6)
    np.testing.assert_array_equal(pe[0, 0::2], 0.0)   # sin(0)
    np.testing.assert_array_equal(pe[0, 1::2], 1.0)   # cos(0)
    assert pe[1, 0] == pytest.approx(np.sin(1.0), abs=1e-12)
    with pytest.raises(ConfigError):
        nn.positional_encoding(10, 5)


def test_attention_identical_keys_average_values():
    # make all key rows equal -> uniform weights -> context rows = mean of V
    rng = seeded_rng(4, "uniform-attn")
    attn = nn.MultiHeadSelfAttention(4, 1, rng)
    p = ref.projections(attn.params)
    p["Wk"][...] = 0.0
    p["bk"][...] = 1.0
    p["Wo"][...] = np.eye(4)
    p["bo"][...] = 0.0
    x = rng.normal(size=(1, 5, 4))
    out = attn.forward(x)
    v = x @ p["Wv"] + p["bv"]
    np.testing.assert_allclose(out, np.repeat(v.mean(axis=1, keepdims=True), 5, axis=1))
    np.testing.assert_allclose(attn.attention_weights(x).sum(axis=-1), 1.0, atol=1e-12)


def test_attention_single_token_returns_value_row():
    rng = seeded_rng(5, "single-token")
    attn = nn.MultiHeadSelfAttention(4, 2, rng)
    p = ref.projections(attn.params)
    p["Wo"][...] = np.eye(4)
    p["bo"][...] = 0.0
    x = rng.normal(size=(3, 1, 4))
    out = attn.forward(x)
    v = x @ p["Wv"] + p["bv"]
    np.testing.assert_allclose(out, v, atol=1e-12)


def test_softmax_weights_from_known_logits():
    # two tokens, one head, d_k = 1: logits {0, ln 3} -> weights {0.25, 0.75}
    rng = seeded_rng(6, "hand-softmax")
    attn = nn.MultiHeadSelfAttention(1, 1, rng)
    p = ref.projections(attn.params)
    p["Wq"][...] = 0.0
    p["bq"][...] = 1.0  # every query is 1, so logits equal the keys
    p["Wk"][...] = 1.0
    p["bk"][...] = 0.0
    x = np.array([[[0.0], [np.log(3.0)]]])
    np.testing.assert_allclose(attn.attention_weights(x)[0, 0, 0], [0.25, 0.75], atol=1e-12)


def test_attention_divisibility_error():
    with pytest.raises(ConfigError):
        nn.MultiHeadSelfAttention(6, 4, seeded_rng(0, "bad"))


@pytest.mark.parametrize("cls, sizes, name", [
    (nn.MultiHeadSelfAttention, (8, 0), "n_heads"),  # was ZeroDivisionError
    (nn.MultiHeadSelfAttention, (8, -2), "n_heads"),  # was a NaN scale
    (nn.MultiHeadSelfAttention, (0, 1), "d_model"),
    (nn.Dense, (0, 4), "d_in"),  # was ZeroDivisionError
    (nn.Dense, (4, 0), "d_out"),
    (nn.Dense, (2.0, 4), "d_in"),
    (nn.Conv1d, (3, 4, -1), "kernel"),  # was OverflowError
    (nn.Conv1d, (0, 4, 3), "c_in"),
    (nn.Conv1d, (3, 0, 3), "c_out"),
    (nn.BatchNorm1d, (-1,), "width"),  # was a raw ValueError
    (nn.BatchNorm1d, (2.5,), "width"),  # was a raw TypeError
    (nn.BatchNorm1d, (0,), "width"),  # was accepted
    (nn.LayerNorm, (-3,), "width"),
    (nn.LayerNorm, (0,), "width"),
    (nn.PositionalEncodingAdd, (24, -2), "d_model"),  # was a raw ValueError
    (nn.PositionalEncodingAdd, (-1, 4), "t"),
    (nn.PositionalEncodingAdd, (0, 4), "t"),  # was accepted
    (nn.PositionalEncodingAdd, (24, 0), "d_model"),
    # a bool was taken as 1, or failed in numpy with a raw TypeError
    (nn.Conv1d, (3, 4, True), "kernel"),
    (nn.MultiHeadSelfAttention, (4, True), "n_heads"),
    (nn.Dense, (True, 4), "d_in"),
    (nn.LayerNorm, (True,), "width"),
    (nn.positional_encoding, (True, 4), "t"),
], ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else None)
def test_constructors_reject_non_positive_sizes_naming_them(cls, sizes, name):
    rng = [seeded_rng(0, "sizes")] if "rng" in inspect.signature(cls).parameters else []
    with pytest.raises(ConfigError, match=f"^{name} must be a positive integer"):
        cls(*sizes, *rng)


def test_attention_init_draws_in_the_order_of_separate_projections():
    # Wq, Wk, Wv, Wo, then bq, bk, bv, bo: a reorder would move every result
    d = 8
    attn = nn.MultiHeadSelfAttention(d, 2, seeded_rng(9, "init-order"))
    rng = seeded_rng(9, "init-order")
    bound = np.sqrt(1.0 / d)
    w = [rng.uniform(-bound, bound, size=(d, d)) for _ in range(4)]
    b = [rng.uniform(-bound, bound, size=d) for _ in range(4)]
    assert list(attn.params) == ["Wqkv", "bqkv", "Wo", "bo"]
    np.testing.assert_array_equal(attn.params["Wqkv"], np.concatenate(w[:3], axis=1))
    np.testing.assert_array_equal(attn.params["bqkv"], np.concatenate(b[:3]))
    np.testing.assert_array_equal(attn.params["Wo"], w[3])
    np.testing.assert_array_equal(attn.params["bo"], b[3])


def test_dropout_modes():
    rng = seeded_rng(7, "dropout")
    x = rng.normal(size=(50, 40))
    # rate 0 draws a mask of all keeps like any rate: a new array of x's bits
    kept = nn.Dropout(0.0, rng).forward(x, train=True)
    assert kept is not x and kept.tobytes() == x.tobytes()
    assert nn.Dropout(0.5, rng).forward(x, train=False) is x
    drop = nn.Dropout(0.2, seeded_rng(7, "dropout-mask"))
    big = np.ones((300, 300))
    out = drop.forward(big, train=True)
    assert abs(out.mean() - 1.0) < 0.02  # inverted scaling keeps the mean
    zeros = out == 0.0
    assert abs(zeros.mean() - 0.2) < 0.02


def test_dropout_rejects_bad_rate():
    with pytest.raises(ConfigError):
        nn.Dropout(1.0, seeded_rng(0, "x"))
    with pytest.raises(ConfigError, match="dropout rate"):
        nn.Dropout(False, seeded_rng(0, "x"))  # was taken as 0


@pytest.mark.parametrize("rate", [np.False_, "0.1", None], ids=repr)
def test_dropout_rate_that_is_not_a_number_is_a_config_error(rate):
    # numpy's bool is no bool subclass and was taken as 0; a non-number
    # raised a raw TypeError from the comparison
    with pytest.raises(ConfigError, match="dropout rate"):
        nn.Dropout(rate, seeded_rng(0, "x"))


def test_batchnorm_infer_uses_running_stats():
    rng = seeded_rng(8, "bn-running")
    bn = nn.BatchNorm1d(2)
    x = rng.normal(loc=3.0, scale=2.0, size=(16, 10, 2))
    for _ in range(60):
        bn.forward(x, train=True)
    y = bn.forward(x, train=False)
    assert abs(y.mean()) < 0.1
    assert abs(y.std() - 1.0) < 0.1


def test_zero_output_grad_gives_zero_param_grads():
    rng = seeded_rng(9, "zero-grad")
    block = nn.EncoderBlock(4, 2, 8, 0.0, rng)
    x = rng.normal(size=(2, 3, 4))
    block.zero_grads()
    block.forward(x, train=True)
    dx = block.backward(np.zeros((2, 3, 4)))
    np.testing.assert_array_equal(dx, 0.0)
    for g in block.named_grads().values():
        np.testing.assert_array_equal(g, 0.0)


def test_dense_closed_form_gradient():
    # L = 0.5 || W x - y ||^2  ->  dL/dW = (W x - y) x^T
    rng = seeded_rng(10, "closed-form")
    dense = nn.Dense(3, 2, rng)
    dense.params["b"][...] = 0.0
    x = rng.normal(size=(1, 3))
    y = rng.normal(size=(1, 2))
    pred = dense.forward(x, train=True)
    dense.zero_grads()
    dense.backward(pred - y)  # dL/dpred for 0.5||.||^2
    expected = np.outer(x[0], (pred - y)[0])
    np.testing.assert_allclose(dense.grads["W"], expected, atol=1e-12)


def test_seeded_builds_are_identical():
    a = nn.Dense(4, 3, seeded_rng(11, "w"))
    b = nn.Dense(4, 3, seeded_rng(11, "w"))
    np.testing.assert_array_equal(a.params["W"], b.params["W"])
    np.testing.assert_array_equal(a.params["b"], b.params["b"])


# --- layer contract: pure inference, one walk, live state ------------------

def fingerprint(val):
    """Comparable deep value of a layer attribute; nested objects by identity."""
    if isinstance(val, np.ndarray):
        return ("array", val.dtype.str, val.shape, val.tobytes())
    if isinstance(val, dict):
        return {k: (id(v), fingerprint(v)) for k, v in val.items()}
    if isinstance(val, (list, tuple)):
        return [(id(v), fingerprint(v)) for v in val]
    if isinstance(val, np.random.Generator):
        return val.bit_generator.state
    if isinstance(val, nn.Layer):
        return "layer"
    return val


def layer_state(model):
    return {(path, attr): (id(val), fingerprint(val))
            for path, layer in model.walk() for attr, val in vars(layer).items()}


@pytest.mark.parametrize("rows, workers", [(3, None), (64, 2)],
                         ids=["3-windows", "64-windows-split-in-2"])
@pytest.mark.parametrize("branch", ["cnn", "tr"])
def test_inference_assigns_no_attribute(monkeypatch, branch, rows, workers):
    if workers is not None:
        monkeypatch.setattr(nn.layers, "_WORKERS", workers)
    model = workloads.build_branches(0)[branch]
    x = seeded_rng(0, "pure-x").normal(size=(64, 24, 13))
    # a train step first, so every backward cache exists and could be clobbered
    model.forward(x[:8], train=True)
    model.backward(np.ones((8, 1)))
    before = layer_state(model)
    model.forward(x[:rows], train=False)
    assert layer_state(model) == before


@pytest.mark.parametrize("branch", ["cnn", "tr"])
def test_eval_forward_between_forward_and_backward_keeps_grads(branch):
    rng = seeded_rng(1, "interleave")
    x = rng.normal(size=(8, 24, 13))
    dy = rng.normal(size=(8, 1))
    runs = []
    for interleave in (False, True):
        model = workloads.build_branches(1)[branch]
        model.zero_grads()
        model.forward(x, train=True)
        if interleave:
            model.forward(x[:5], train=False)
        dx = model.backward(dy)
        runs.append((dx, {k: g.copy() for k, g in model.named_grads().items()}))
    (dx_a, grads_a), (dx_b, grads_b) = runs
    np.testing.assert_array_equal(dx_a, dx_b)
    assert grads_a.keys() == grads_b.keys()
    for name in grads_a:
        np.testing.assert_array_equal(grads_a[name], grads_b[name], err_msg=name)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("branch", ["cnn", "tr"])
def test_batch_predictions_match_row_by_row(branch, dtype):
    # float32 layers meet the same bound: a row's features do not depend on
    # the batch size, and the head after the float64 pool runs in float64
    model = workloads.build_branches(2)[branch]
    x = seeded_rng(2, "rows-x").normal(size=(64, 24, 13)).astype(dtype)
    rows = np.concatenate([model.forward(x[i:i + 1]) for i in range(len(x))])
    np.testing.assert_allclose(model.forward(x), rows, rtol=0, atol=1e-12)


def test_a_head_fit_on_float32_pooled_features_predicts_one_window_as_in_a_batch():
    # the benchmark's score check: a least-squares head on the Transformer's
    # pooled features, as perfbench's fit_head fits it, then 64 windows
    # against one window at a time, within 1e-4 demand standard deviations
    rng = seeded_rng(24, "head-fit")
    model = workloads.build_branches(24)["tr"]
    x = rng.normal(size=(1024, 24, 13)).astype(np.float32)
    targets = x[:, :, 0].mean(axis=1) + 0.1 * rng.normal(size=len(x))
    trunk = nn.Sequential(model.sublayers[:-1])
    feats = np.concatenate([trunk.forward(x[i:i + 64]) for i in range(0, len(x), 64)])
    design = np.column_stack([feats, np.ones(len(feats))])
    coef = np.linalg.lstsq(design, targets, rcond=None)[0]
    # the pooled LayerNorm features sum to about zero, so the fit takes a
    # large weight along that near-null direction: a float32 head product
    # over it cancels to rounding noise that depends on the batch
    assert np.abs(coef[:-1]).max() > 100
    head = model.sublayers[-1][1]
    head.params["W"][:, 0] = coef[:-1]
    head.params["b"][0] = coef[-1]
    batch = model.forward(x[:64])[:, 0]
    alone = np.array([model.forward(x[i:i + 1])[0, 0] for i in range(64)])
    assert np.abs(batch - alone).max() <= 1e-4


@pytest.mark.parametrize("branch", ["cnn", "tr"])
def test_an_overlapping_window_view_gives_the_bits_of_its_copy(branch):
    # a whole split's inputs: a read-only sliding-window view of one frame
    frame = seeded_rng(20, "window-view").normal(size=(100, 13)).astype(np.float32)
    frame.flags.writeable = False
    view = np.lib.stride_tricks.sliding_window_view(frame, (24, 13))[:, 0][5:5 + 64]
    dy = seeded_rng(20, "window-view-dy").normal(size=(64, 1))
    runs = []
    for x in (view, np.ascontiguousarray(view)):
        model = workloads.build_branches(20)[branch]
        out = model.forward(x)
        train_out = model.forward(x, train=True)
        model.zero_grads()
        dx = model.backward(dy)
        runs.append([a.tobytes() for a in (out, train_out, dx, *model.named_grads().values())])
    assert runs[0] == runs[1]


def test_every_cnn_param_gets_a_gradient():
    # a param whose gradient is rounding noise is still moved by Adam, about
    # lr a step: a Conv1d bias before BatchNorm got 4e-16 of the largest
    rng = seeded_rng(23, "live-grads")
    model = workloads.build_branches(23)["cnn"]
    model.forward(rng.normal(size=(64, 24, 13)), train=True)
    model.zero_grads()
    model.backward(rng.normal(size=(64, 1)))
    grads = {name: np.abs(g).max() for name, g in model.named_grads().items()}
    largest = max(grads.values())
    assert [name for name, g in grads.items() if g < 1e-8 * largest] == []


def float32_layers(model):
    """(path, layer) for the layers a float32 batch reaches in float32: all
    of them up to the model's GlobalAvgPool, which returns float64."""
    for path, layer in model.walk():
        if isinstance(layer, nn.GlobalAvgPool):
            return
        yield path, layer


def as_dtype(model, dtype, layers=None):
    """Cast the params and buffers of `layers` (default: every layer) to dtype."""
    for _, layer in model.walk() if layers is None else layers:
        for attr in ("params", "buffers"):
            setattr(layer, attr, {k: v.astype(dtype) for k, v in getattr(layer, attr).items()})
    return model


def as_float32(model):
    """The model a float32 batch computes with: the params and buffers of
    its float32 layers cast to float32."""
    return as_dtype(model, np.float32, list(float32_layers(model)))


def out_dtype(model, dtype):
    """The dtype a model returns for a batch of dtype."""
    pools = any(isinstance(layer, nn.GlobalAvgPool) for _, layer in model.walk())
    return np.dtype(np.float64 if pools else dtype)


@pytest.mark.parametrize("branch", ["cnn", "tr"])
def test_float32_inference_pools_to_float64_near_float64(branch):
    x = seeded_rng(3, "f32-x").normal(size=(64, 24, 13))
    model = workloads.build_branches(3)[branch]
    expected = model.forward(x)
    out = model.forward(x.astype(np.float32))
    assert out.dtype == np.float64
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-4)


# --- a layer writes only to arrays it allocated ------------------------------

def models_and_inputs():
    rng = seeded_rng(15, "inputs-alone")
    for cls, (make, shape) in LEAF_LAYERS.items():
        yield cls.__name__, make(rng), shape
    for branch, model in workloads.build_branches(15).items():
        yield branch, model, (8, 24, 13)
    # chains that hand their input straight back: the skip must not add in place
    for rate in (0.0, 0.5):
        yield f"residual-dropout-{rate}", nn.Residual([("drop", nn.Dropout(rate, rng))]), (3, 6, 4)


def bad_shapes():
    """(factory, shape) per leaf layer for inputs one rank short, one rank
    over and, where the layer has a width, one wider."""
    for cls, (make, shape) in LEAF_LAYERS.items():
        if cls in (nn.ReLU, nn.Dropout):  # elementwise: any shape is valid
            continue
        bad = {"rank-1": shape[-1:], "rank-4": (2, *shape)}
        if cls not in (nn.MaxPool1d, nn.GlobalAvgPool):
            bad["width"] = (*shape[:-1], shape[-1] + 1)
        for what, bad_shape in bad.items():
            yield pytest.param(make, bad_shape, id=f"{cls.__name__}-{what}")


@pytest.mark.parametrize("make, shape", bad_shapes())
def test_leaf_layers_reject_bad_shapes_naming_them(make, shape):
    layer = make(seeded_rng(17, "bad-shape"))
    for train in (False, True):
        with pytest.raises(ShapeError, match=re.escape(str(shape))):
            layer.forward(np.ones(shape), train=train)


def test_every_leaf_layer_class_is_covered():
    leaves = {cls for cls in vars(nn).values() if isinstance(cls, type)
              and issubclass(cls, nn.Layer) and cls is not nn.Layer
              and not issubclass(cls, nn.Sequential)}
    assert leaves == set(LEAF_LAYERS)


@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("dtype", [np.int64, np.bool_], ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("cls", LEAF_LAYERS, ids=lambda cls: cls.__name__)
def test_forward_rejects_an_input_that_is_not_floating(cls, dtype, train):
    make, shape = LEAF_LAYERS[cls]
    layer = make(seeded_rng(22, "integer-batch"))
    with pytest.raises(ShapeError, match=f"got dtype {np.dtype(dtype)}$"):
        layer.forward(np.ones(shape, dtype), train=train)


def mixed_dtype_cases():
    for cls, (make, shape) in LEAF_LAYERS.items():
        yield pytest.param(make, shape, id=cls.__name__)
    for branch in ("cnn", "tr"):
        yield pytest.param(lambda r, b=branch: workloads.build_branches(18)[b], (8, 24, 13),
                           id=branch)


@pytest.mark.parametrize("make, shape", mixed_dtype_cases())
def test_float32_batch_into_float64_params_computes_as_the_float32_cast_layer(make, shape):
    rng = seeded_rng(18, "mixed-dtype")
    x32 = rng.normal(size=shape).astype(np.float32)

    def layer():
        return make(seeded_rng(18, "mixed-dtype-layer"))

    # both modes compute in the batch's dtype: the bits of the same layer
    # with the params and buffers it computes with cast to float32; a train
    # step adds its gradients to the float64 grads
    dy = seeded_rng(18, "mixed-dtype-dy").normal(size=layer().forward(x32).shape)
    runs = []
    for model in (layer(), as_float32(layer())):
        out = model.forward(x32)
        train_out = model.forward(x32, train=True)
        model.zero_grads()
        runs.append([out, train_out, model.backward(dy), *model.named_grads().values()])
    out, train_out, _, *grads = runs[0]
    assert out.dtype == train_out.dtype == out_dtype(layer(), np.float32)
    assert all(g.dtype == np.float64 for g in grads)
    assert [a.tobytes() for a in runs[0]] == [a.tobytes() for a in runs[1]]
    # and a float64 batch into float32 params computes in float64: the
    # float64 layer that holds the same float32-rounded values
    x64 = x32.astype(np.float64)
    out = as_float32(layer()).forward(x64)
    assert out.dtype == np.float64
    rounded = as_dtype(as_float32(layer()), np.float64)
    np.testing.assert_allclose(out, rounded.forward(x64), rtol=0, atol=1e-12)


F32_EPS = np.finfo(np.float32).eps


def float32_step_bound(layer, x):
    """How far a float32 train step may move a result from the float64-cast
    batch's, relative to the largest magnitude of that result.

    Both runs start from the same values: the batch and dy hold float32
    values, and each param is rounded once to float32, which moves it by at
    most F32_EPS / 2 relative. A float32 sum of n terms is then within
    n * F32_EPS of the sum of the terms' magnitudes; the float64 run's own
    rounding is 2**-29 of that. No sum here runs over more terms than n, the
    larger of the B·T rows a param gradient sums and the widest fan-in. A
    step runs each of the model's `depth` leaf layers once forward and once
    backward, and each layer carries an error on with a gain of order one
    at this init and unit-scale data (a normalization divides by a standard
    deviation near 1), so the error reaching any result is at most
    2 * depth * n * F32_EPS of its scale. This is the worst case; the
    rounding errors of random data mostly cancel.
    """
    depth = sum(1 for _, leaf in layer.walk() if not leaf.sublayers)
    fan_in = max((p.shape[0] for p in layer.named_params().values() if p.ndim == 2), default=1)
    n = max(x.shape[0] * x.shape[1], fan_in)
    return 2 * depth * n * F32_EPS


def cached_floats(model):
    """(path, name, array) for every float array a layer holds outside its
    params, grads and buffers: the train-mode cache, alone or in a tuple."""
    for path, layer in model.walk():
        for attr, val in vars(layer).items():
            for i, a in enumerate(val if isinstance(val, tuple) else (val,)):
                if isinstance(a, np.ndarray) and a.dtype.kind == "f":
                    yield path, f"{path}{attr}[{i}]", a


@pytest.mark.parametrize("make, shape", mixed_dtype_cases())
def test_float32_train_step_computes_in_float32_into_float64_grads(make, shape):
    x32 = seeded_rng(21, "f32-step").normal(size=shape).astype(np.float32)
    runs = []
    for x in (x32, x32.astype(np.float64)):
        layer = make(seeded_rng(21, "f32-step-layer"))  # the same layer twice
        out = layer.forward(x, train=True)
        cached = list(cached_floats(layer))
        dy = seeded_rng(21, "f32-step-dy").normal(size=out.shape).astype(np.float32)
        layer.zero_grads()
        dx = layer.backward(dy.astype(x.dtype))
        runs.append((out, cached, dx, layer.named_grads()))
    (out, cached, dx, grads), (out64, _, dx64, grads64) = runs
    # the pool returns float64, and the layers after it cache float64
    assert out.dtype == out_dtype(layer, np.float32)
    assert dx.dtype == np.float32
    float32_paths = {path for path, _ in float32_layers(layer)}
    assert {name: a.dtype for _, name, a in cached} == {
        name: np.float32 if path in float32_paths else np.float64 for path, name, _ in cached}
    bound = float32_step_bound(layer, x32)
    for got, want in ((out, out64), (dx, dx64)):
        np.testing.assert_allclose(got, want, rtol=0, atol=bound * np.abs(want).max())
    # one scale for every param: a gradient that cancels to near zero, as
    # attention's key bias does, keeps the rounding of its terms
    scale = max((np.abs(g).max() for g in grads64.values()), default=0.0)
    for name, g in grads.items():
        assert g.dtype == np.float64, name
        np.testing.assert_allclose(g, grads64[name], rtol=0, atol=bound * scale, err_msg=name)


def test_attention_weights_compute_in_the_input_dtype():
    def layer():
        return nn.MultiHeadSelfAttention(8, 2, seeded_rng(25, "weights-dtype-layer"))

    attn = layer()
    x = seeded_rng(25, "weights-dtype").normal(size=(3, 6, 8)).astype(np.float32)
    # a float64 batch meets the float64 params as they are
    weights = attn.attention_weights(x.astype(np.float64))
    assert weights.dtype == np.float64
    expected = ref.attention(x.astype(np.float64), attn.params, 2)[1]
    np.testing.assert_allclose(weights, expected, rtol=0, atol=1e-12)
    # a float32 batch gets the float32-cast layer's weights, near the float64 ones
    weights32 = attn.attention_weights(x)
    assert weights32.dtype == np.float32
    assert weights32.tobytes() == as_float32(layer()).attention_weights(x).tobytes()
    np.testing.assert_allclose(weights32, weights, rtol=0, atol=float32_step_bound(attn, x))


def test_eval_attention_frees_its_buffers_before_the_output_projection():
    b, t, d, heads = 64, 24, 64, 4
    attn = nn.MultiHeadSelfAttention(d, heads, seeded_rng(19, "attention-peak"))
    x = seeded_rng(19, "attention-peak-x").normal(size=(b, t, d))
    qkv, ctx, out = 3 * x.nbytes, x.nbytes, x.nbytes
    weights = t * b * heads * t * x.itemsize
    tracemalloc.start()
    try:
        attn.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # q | k | v and the weights are gone before the output is allocated
    assert peak < qkv + weights + ctx + out


@pytest.mark.parametrize("name, model, shape", [
    pytest.param(name, model, shape, id=name) for name, model, shape in models_and_inputs()])
def test_forward_and_backward_leave_their_inputs_alone(name, model, shape):
    rng = seeded_rng(16, "inputs-alone", name)
    x = rng.normal(size=shape)
    x_bytes = x.tobytes()
    dy = rng.normal(size=model.forward(x, train=True).shape)
    dy_bytes = dy.tobytes()
    model.backward(dy)
    model.forward(x, train=False)
    assert x.tobytes() == x_bytes
    assert dy.tobytes() == dy_bytes


def test_walk_names_match_params():
    block = nn.EncoderBlock(8, 2, 12, 0.1, seeded_rng(12, "walk"))
    paths = [path for path, _ in block.walk("enc.")]
    assert paths[:3] == ["enc.", "enc.attn.", "enc.attn.mhsa."]
    assert "enc.attn.mhsa.Wqkv" in block.named_params("enc.")
    assert "enc.ff.narrow.b" in block.named_grads("enc.")


def test_state_tensors_hold_live_batchnorm_stats_and_roundtrip(tmp_path):
    rng = seeded_rng(13, "state")
    model = nn.Sequential([
        ("outer", nn.Sequential([("b1", nn.ConvBlock(3, 4, 3, rng)),
                                 ("b2", nn.ConvBlock(4, 5, 3, rng))])),
        ("pool", nn.GlobalAvgPool()),
    ])
    state = model.state_tensors()
    buffers = {f"outer.{b}.bn.{s}" for b in ("b1", "b2") for s in ("running_mean", "running_var")}
    assert set(state) == set(model.named_params()) | buffers
    for _ in range(3):
        model.forward(rng.normal(loc=2.0, size=(6, 8, 3)), train=True)
    for path, layer in model.walk():
        if isinstance(layer, nn.BatchNorm1d):
            for key, live in layer.buffers.items():
                assert state[path + key] is live
    assert not np.any(state["outer.b1.bn.running_mean"] == 0.0)

    ckpt = tmp_path / "state.ckpt"
    nn.save_checkpoint(ckpt, state)
    loaded, _ = nn.load_checkpoint(ckpt)
    assert loaded.keys() == state.keys()
    for name, arr in state.items():
        np.testing.assert_array_equal(loaded[name], arr, err_msg=name)

    fresh = nn.Sequential([
        ("outer", nn.Sequential([("b1", nn.ConvBlock(3, 4, 3, seeded_rng(0, "other"))),
                                 ("b2", nn.ConvBlock(4, 5, 3, seeded_rng(0, "other")))])),
        ("pool", nn.GlobalAvgPool()),
    ])
    for name, arr in fresh.state_tensors().items():
        arr[...] = loaded[name]
    x = rng.normal(size=(2, 8, 3))
    np.testing.assert_array_equal(fresh.forward(x), model.forward(x))


def test_dropout_masks_do_not_depend_on_init_draws():
    def masks(extra_draws):
        rng = seeded_rng(14, "init")
        rng.random(extra_draws)
        block = nn.EncoderBlock(8, 2, 12, 0.5, rng)
        drops = [layer for _, layer in block.walk() if isinstance(layer, nn.Dropout)]
        return [d.forward(np.ones((3, 4, 8)), train=True) for d in drops]

    plain, shifted = masks(0), masks(5)
    assert len(plain) == 2
    for a, b in zip(plain, shifted):
        np.testing.assert_array_equal(a, b)
