"""Finite-difference checks and behavioral tests for every layer type."""

import numpy as np
import pytest

from gridcast import nn
from gridcast.errors import ConfigError, ShapeError
from gridcast.seeding import seeded_rng


def loss_through(layer, x, proj, train=True):
    """Scalar loss sum(forward(x) * proj), fixed random projection."""
    return float(np.sum(layer.forward(x, train=train) * proj))


def input_grad_check(make_layer, x_shape, seed, h=1e-5, tol=1e-4, train=True):
    rng = seeded_rng(seed, "gradcheck-input")
    layer = make_layer(seeded_rng(seed, "gradcheck-layer"))
    x = rng.normal(size=x_shape)
    y = layer.forward(x, train=train)
    proj = rng.normal(size=y.shape)
    layer.zero_grads()
    analytic = layer.backward(proj)
    numeric = nn.central_difference_grad(lambda v: loss_through(layer, v, proj, train), x, h=h)
    assert nn.relative_error(analytic, numeric) < tol


def param_grad_check(make_layer, x_shape, seed, h=1e-5, tol=1e-4):
    rng = seeded_rng(seed, "gradcheck-param")
    layer = make_layer(seeded_rng(seed, "gradcheck-layer"))
    x = rng.normal(size=x_shape)
    proj = rng.normal(size=layer.forward(x, train=True).shape)

    params = layer.named_params()
    layer.zero_grads()
    layer.forward(x, train=True)
    layer.backward(proj)
    analytic = {k: v.copy() for k, v in layer.named_grads().items()}

    for name, p in params.items():
        def f(v, _p=p):
            old = _p.copy()
            _p[...] = v
            out = loss_through(layer, x, proj, train=True)
            _p[...] = old
            return out

        numeric = nn.central_difference_grad(f, p.copy(), h=h)
        err = nn.relative_error(analytic[name], numeric)
        assert err < tol, f"param {name}: rel err {err}"


SEEDS = list(range(3))


@pytest.mark.parametrize("seed", SEEDS)
def test_dense_grads(seed):
    make = lambda r: nn.Dense(5, 4, r)
    input_grad_check(make, (3, 5), seed)
    param_grad_check(make, (3, 5), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_dense_on_sequences(seed):
    # dense must act per position on (B, T, D) tensors
    make = lambda r: nn.Dense(4, 6, r)
    input_grad_check(make, (2, 5, 4), seed)
    param_grad_check(make, (2, 5, 4), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_relu_grads(seed):
    input_grad_check(lambda r: nn.ReLU(), (4, 7), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_conv1d_grads(seed):
    make = lambda r: nn.Conv1d(3, 4, 3, r)
    input_grad_check(make, (2, 6, 3), seed)
    param_grad_check(make, (2, 6, 3), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_batchnorm_grads(seed):
    make = lambda r: nn.BatchNorm1d(3)
    input_grad_check(make, (4, 5, 3), seed)
    param_grad_check(make, (4, 5, 3), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_maxpool_grads(seed):
    input_grad_check(lambda r: nn.MaxPool1d(), (3, 8, 2), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_gap_grads(seed):
    input_grad_check(lambda r: nn.GlobalAvgPool(), (3, 6, 4), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_layernorm_grads(seed):
    make = lambda r: nn.LayerNorm(6)
    input_grad_check(make, (3, 4, 6), seed)
    param_grad_check(make, (3, 4, 6), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_attention_grads(seed):
    make = lambda r: nn.MultiHeadSelfAttention(8, 2, r)
    input_grad_check(make, (2, 4, 8), seed)
    param_grad_check(make, (2, 4, 8), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_encoder_block_grads(seed):
    make = lambda r: nn.EncoderBlock(8, 2, 12, 0.0, r)
    input_grad_check(make, (2, 4, 8), seed)
    param_grad_check(make, (2, 4, 8), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_conv_block_grads(seed):
    make = lambda r: nn.ConvBlock(3, 4, 3, r)
    input_grad_check(make, (2, 6, 3), seed)


def test_conv_block_identity_kernel_reduces_to_maxpool():
    rng = seeded_rng(0, "identity-conv")
    conv = nn.Conv1d(3, 3, 3, rng)
    block = nn.Sequential([("conv", conv), ("relu", nn.ReLU()), ("pool", nn.MaxPool1d())])
    conv.params["W"][...] = 0.0
    conv.params["W"][1] = np.eye(3)  # center tap passes channels through
    conv.params["b"][...] = 0.0
    x = rng.uniform(0.5, 2.0, size=(2, 8, 3))  # positive so ReLU is inert
    expected = x.reshape(2, 4, 2, 3).max(axis=2)
    np.testing.assert_allclose(block.forward(x), expected)


def test_conv_block_zero_input_zero_bias_gives_zero():
    rng = seeded_rng(1, "zero-conv")
    conv = nn.Conv1d(2, 5, 3, rng)
    block = nn.Sequential([("conv", conv), ("relu", nn.ReLU()), ("pool", nn.MaxPool1d())])
    conv.params["b"][...] = 0.0
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
    attn.params["Wk"][...] = 0.0
    attn.params["bk"][...] = 1.0
    attn.params["Wo"][...] = np.eye(4)
    attn.params["bo"][...] = 0.0
    x = rng.normal(size=(1, 5, 4))
    out = attn.forward(x)
    v = x @ attn.params["Wv"] + attn.params["bv"]
    np.testing.assert_allclose(out, np.repeat(v.mean(axis=1, keepdims=True), 5, axis=1))
    np.testing.assert_allclose(attn.attention_weights(x).sum(axis=-1), 1.0, atol=1e-12)


def test_attention_single_token_returns_value_row():
    rng = seeded_rng(5, "single-token")
    attn = nn.MultiHeadSelfAttention(4, 2, rng)
    attn.params["Wo"][...] = np.eye(4)
    attn.params["bo"][...] = 0.0
    x = rng.normal(size=(3, 1, 4))
    out = attn.forward(x)
    v = x @ attn.params["Wv"] + attn.params["bv"]
    np.testing.assert_allclose(out, v, atol=1e-12)


def test_softmax_weights_from_known_logits():
    # two tokens, one head, d_k = 1: logits {0, ln 3} -> weights {0.25, 0.75}
    rng = seeded_rng(6, "hand-softmax")
    attn = nn.MultiHeadSelfAttention(1, 1, rng)
    attn.params["Wq"][...] = 0.0
    attn.params["bq"][...] = 1.0  # every query is 1, so logits equal the keys
    attn.params["Wk"][...] = 1.0
    attn.params["bk"][...] = 0.0
    x = np.array([[[0.0], [np.log(3.0)]]])
    np.testing.assert_allclose(attn.attention_weights(x)[0, 0, 0], [0.25, 0.75], atol=1e-12)


def test_attention_divisibility_error():
    with pytest.raises(ConfigError):
        nn.MultiHeadSelfAttention(6, 4, seeded_rng(0, "bad"))


def test_dropout_modes():
    rng = seeded_rng(7, "dropout")
    x = rng.normal(size=(50, 40))
    assert nn.Dropout(0.0, rng).forward(x, train=True) is x
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


def test_batchnorm_infer_uses_running_stats():
    rng = seeded_rng(8, "bn-running")
    bn = nn.BatchNorm1d(2, momentum=0.5)
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

def benchmark_shaped_branches(seed, t=24, n_in=13):
    """The CNN and Transformer baselines at the benchmark's sizes."""
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


@pytest.mark.parametrize("branch", ["cnn", "tr"])
def test_inference_assigns_no_attribute(branch):
    model = benchmark_shaped_branches(0)[branch]
    x = seeded_rng(0, "pure-x").normal(size=(8, 24, 13))
    # a train step first, so every backward cache exists and could be clobbered
    model.forward(x, train=True)
    model.backward(np.ones((8, 1)))
    before = layer_state(model)
    model.forward(x[:3], train=False)
    assert layer_state(model) == before


@pytest.mark.parametrize("branch", ["cnn", "tr"])
def test_eval_forward_between_forward_and_backward_keeps_grads(branch):
    rng = seeded_rng(1, "interleave")
    x = rng.normal(size=(8, 24, 13))
    dy = rng.normal(size=(8, 1))
    runs = []
    for interleave in (False, True):
        model = benchmark_shaped_branches(1)[branch]
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


def test_walk_names_match_params():
    block = nn.EncoderBlock(8, 2, 12, 0.1, seeded_rng(12, "walk"))
    paths = [path for path, _ in block.walk("enc.")]
    assert paths[:3] == ["enc.", "enc.attn.", "enc.attn.mhsa."]
    assert "enc.attn.mhsa.Wq" in block.named_params("enc.")
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
