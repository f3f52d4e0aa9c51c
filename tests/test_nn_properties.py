"""The in-place nn kernels against their expression-per-line reference
(nn_reference), on generated batches of 1-6 sequences of 1-30 steps.

Bounds are in units of float64 machine epsilon times the magnitude of the
terms that meet in each result; where the arithmetic is unchanged, the
results are required to be equal.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nn_reference as ref
from gridcast import nn
from gridcast.nn.layers import BN_MOMENTUM, NORM_EPS
from gridcast.seeding import seeded_rng

EPS = np.finfo(np.float64).eps

batches = st.integers(1, 6)
steps = st.integers(1, 30)
seeds = st.integers(0, 2**32 - 1)
scales = st.floats(1e-3, 1e3)
offsets = st.floats(-1e3, 1e3)
examples = settings(max_examples=80, deadline=None)


def random_layer_norm(d, rng):
    ln = nn.LayerNorm(d)
    ln.params["gamma"][...] = rng.normal(size=d)
    ln.params["beta"][...] = rng.normal(size=d)
    return ln


@examples
@given(b=batches, t=steps, d=st.integers(1, 32), seed=seeds, scale=scales, offset=offsets)
def test_layer_norm_matches_reference(b, t, d, seed, scale, offset):
    rng = np.random.default_rng(seed)
    ln = random_layer_norm(d, rng)
    gamma, beta = ln.params["gamma"], ln.params["beta"]
    x = offset + scale * rng.normal(size=(b, t, d))
    out_ref, xhat_ref, inv_ref = ref.layer_norm(x, gamma, beta, NORM_EPS)

    # only the variance's summation order changed: d roundings, halved by sqrt
    out = ln.forward(x, train=False)
    assert np.all(np.abs(out - out_ref) <= (d + 4) * EPS * (np.abs(gamma * xhat_ref) + np.abs(beta)))
    np.testing.assert_array_equal(ln.forward(x, train=True), out)

    dy = rng.normal(size=x.shape)
    dxhat = np.abs(dy * gamma)
    terms = inv_ref * (dxhat + dxhat.mean(axis=-1, keepdims=True)
                       + np.abs(xhat_ref) * (dxhat * np.abs(xhat_ref)).mean(axis=-1, keepdims=True))
    dx = ln.backward(dy)
    dx_ref = ref.layer_norm_backward(dy, xhat_ref, inv_ref, gamma)
    assert np.all(np.abs(dx - dx_ref) <= 2 * (d + 8) * EPS * terms)


@examples
@given(b=batches, t=steps, d=st.integers(1, 32), seed=seeds, c=st.floats(-1e6, 1e6))
def test_layer_norm_of_constant_rows_is_beta(b, t, d, seed, c):
    rng = np.random.default_rng(seed)
    ln = random_layer_norm(d, rng)
    gamma, beta = ln.params["gamma"], ln.params["beta"]
    x = np.full((b, t, d), c)
    out = ln.forward(x)
    assert np.isfinite(out).all()
    # the row mean is within d*eps*|c| of c, and the scale is at most 1/sqrt(eps_ln)
    bound = 2 * np.abs(gamma) * d * EPS * abs(c) / np.sqrt(NORM_EPS) + EPS * np.abs(beta)
    assert np.all(np.abs(out - beta) <= bound)
    assert np.all(np.abs(out - ref.layer_norm(x, gamma, beta, NORM_EPS)[0]) <= 2 * bound)


def logit_attention():
    """One head of width 1 whose scores are the input values: q = 1, k = x."""
    attn = nn.MultiHeadSelfAttention(1, 1, seeded_rng(0, "logit-attention"))
    p = ref.projections(attn.params)
    p["Wq"][...] = 0.0
    p["bq"][...] = 1.0
    p["Wk"][...] = 1.0
    p["bk"][...] = 0.0
    return attn


@examples
@given(data=st.data(), b=batches, t=steps)
def test_softmax_of_logits_up_to_1e4_is_finite_and_sums_to_one(data, b, t):
    logits = data.draw(arrays(np.float64, (b, t, 1), elements=st.floats(-1e4, 1e4)))
    weights = logit_attention().attention_weights(logits)
    assert np.isfinite(weights).all()
    assert np.all(np.abs(weights.sum(axis=-1) - 1.0) <= (t + 1) * EPS)
    expected = ref.softmax(np.broadcast_to(logits[:, None, None, :, 0], weights.shape))
    # every score is 1 * logit, exact, so the exponentials are the reference's;
    # only the row sum's order changed, sequential over the keys against
    # numpy's pairwise sum: two t-term sums of positive terms differ by
    # (t - 1) * EPS of the sum, and each division rounds once
    assert np.all(np.abs(weights - expected) <= (t + 1) * EPS * expected)


@examples
@given(b=batches, t=steps, heads=st.sampled_from([1, 2, 4]), d_k=st.integers(1, 4),
       seed=seeds, scale=st.floats(1e-2, 1e1))
# the context cancels to near zero here, so only the t-term rounding of
# attn @ v bounds the output's error
@example(b=1, t=10, heads=1, d_k=1, seed=10, scale=8.75)
def test_attention_matches_reference(b, t, heads, d_k, seed, scale):
    d = heads * d_k
    attn = nn.MultiHeadSelfAttention(d, heads, seeded_rng(seed, "attention"))
    x = scale * np.random.default_rng(seed).normal(size=(b, t, d))
    out_ref, weights_ref, _ = ref.attention(x, attn.params, heads)
    weights = attn.attention_weights(x)
    w_bound = weights_bound(x, attn.params, heads, weights_ref)
    assert np.all(np.abs(weights - weights_ref) <= w_bound)
    out_bound = output_bound(x, attn.params, heads, weights_ref, w_bound)
    assert np.all(np.abs(attn.forward(x) - out_ref) <= out_bound)


def weights_bound(x, params, n_heads, weights_ref):
    """How far the layer's softmax weights may be from the reference's.

    The scores come from k @ q^T written into the key-major buffer: the
    reference's d_k products of q @ k^T, bit-identical wherever BLAS sums them
    in the same order (at every shape tried). Where a BLAS may not, a score
    moves by its d_k-term rounding plus the scale's and the shift's, at most
    r = (d_k + 4) * EPS * max_j scale * (|q| |k|^T)_ij over a row, and the
    row's weights by 2 * r + EPS (the exp's own rounding) relative. The row
    sum runs sequentially over the keys, against numpy's pairwise sum: two
    t-term sums of positive terms differ by (t - 1) * EPS of the sum, and
    the division rounds once more; one EPS more covers second-order terms.
    """
    params = ref.projections(params)
    d_k, t = x.shape[2] // n_heads, x.shape[1]
    q, k = (ref.split_heads(np.abs(x @ params[f"W{n}"] + params[f"b{n}"]), n_heads) for n in "qk")
    r = (d_k + 4) * EPS / np.sqrt(d_k) * (q @ k.transpose(0, 1, 3, 2)).max(axis=-1, keepdims=True)
    return ((t + 2) * EPS + 2 * r) * weights_ref


def output_bound(x, params, n_heads, weights_ref, w_bound):
    """How far the layer's output may be from the reference's, given that
    its weights are within w_bound of weights_ref.

    Each of the two computations rounds a sum of n terms to within n * EPS
    of the sum of the terms' magnitudes; their results differ by twice
    that. Step by step, with |.| taken elementwise:
    - v is a d-term projection plus its bias: the two v differ by at most
      dv = 2 * (d + 1) * EPS * (|x| @ |Wv| + |bv|).
    - ctx_i = sum_j w_ij v_j runs over t keys: the two roundings differ by
      2 * t * EPS * sum_j w_ij |v_j|; the weights' deviation adds
      sum_j w_bound_ij |v_j|, and v's deviation sum_j w_ij dv_j.
    - The output is a d-term projection of ctx plus bo: ctx's deviation
      reaches it as dctx @ |Wo|, and the two roundings differ by
      2 * (d + 1) * EPS * (|ctx| @ |Wo| + |bo|), with |ctx| at most
      sum_j w_ij |v_j|.
    One EPS more per sum covers the second-order terms (a rounding of a
    deviation, the weights' sum off 1 by its own rounding).
    """
    p = ref.projections(params)
    d, t = x.shape[2], x.shape[1]
    a_v = np.abs(x @ p["Wv"] + p["bv"])
    dv = 2 * (d + 2) * EPS * (np.abs(x) @ np.abs(p["Wv"]) + np.abs(p["bv"]))
    abs_ctx = ref.merge_heads(weights_ref @ ref.split_heads(a_v, n_heads))
    dctx = (2 * (t + 1) * EPS * abs_ctx
            + ref.merge_heads(w_bound @ ref.split_heads(a_v, n_heads))
            + ref.merge_heads(weights_ref @ ref.split_heads(dv, n_heads)))
    return (dctx @ np.abs(p["Wo"])
            + 2 * (d + 2) * EPS * (abs_ctx @ np.abs(p["Wo"]) + np.abs(p["bo"])))


@examples
@given(b=st.integers(2, 6), t=steps, heads=st.sampled_from([1, 2, 4]), d_k=st.integers(1, 4),
       seed=seeds, scale=st.floats(1e-2, 1e1))
def test_attention_windows_never_mix(b, t, heads, d_k, seed, scale):
    # the key-major buffer interleaves windows and heads: each window's
    # output and weights must be those of the window alone
    d = heads * d_k
    attn = nn.MultiHeadSelfAttention(d, heads, seeded_rng(seed, "attention"))
    x = scale * np.random.default_rng(seed).normal(size=(b, t, d))
    _, weights_ref, _ = ref.attention(x, attn.params, heads)
    w_bound = weights_bound(x, attn.params, heads, weights_ref)
    out_bound = output_bound(x, attn.params, heads, weights_ref, w_bound)
    out, weights = attn.forward(x), attn.attention_weights(x)
    for j in range(b):
        window = x[j : j + 1]
        assert np.all(np.abs(out[j] - attn.forward(window)[0]) <= out_bound[j])
        assert np.all(np.abs(weights[j] - attn.attention_weights(window)[0]) <= w_bound[j])


@examples
@given(b=st.integers(2, 6), t=st.integers(1, 12), c_in=st.integers(1, 4),
       heads=st.sampled_from([1, 2]), seed=seeds)
def test_transformer_windows_never_mix(b, t, c_in, heads, seed):
    d = 4 * heads
    rng = seeded_rng(seed, "transformer")
    body = nn.Sequential([
        ("embed", nn.Dense(c_in, d, rng)),
        ("pos", nn.PositionalEncodingAdd(t, d)),
        ("enc", nn.EncoderBlock(d, heads, 2 * d, 0.1, rng)),
    ])
    head = nn.Dense(d, 1, rng)
    model = nn.Sequential([("body", body), ("pool", nn.GlobalAvgPool()), ("head", head)])
    x = np.random.default_rng(seed).normal(size=(b, t, c_in))
    out = model.forward(x)
    # every layer runs each window through the same operations, so a window
    # alone gives the same rows, up to the forward check's rounding of a
    # dot product once per sum in the chain (t keys, d- and 2d-wide
    # projections), on the magnitudes that meet in the head
    pooled = np.abs(body.forward(x)).mean(axis=1)
    bound = 4 * (t + 3 * d) * EPS * (pooled @ np.abs(head.params["W"]) + np.abs(head.params["b"]))
    for j in range(b):
        assert np.all(np.abs(out[j] - model.forward(x[j : j + 1])[0]) <= bound[j])


def attention_backward_terms(x, params, n_heads, dy, weights):
    """Per result of ref.attention_backward, the magnitude of the terms that
    meet in it: the same chain on absolute values, with the softmax backward
    as A * (|dA| + sum(|dA| * A))."""
    params = ref.projections(params)
    d = x.shape[2]
    scale = 1.0 / np.sqrt(d // n_heads)
    q, k, v = (ref.split_heads(np.abs(x @ params[f"W{n}"] + params[f"b{n}"]), n_heads)
               for n in "qkv")
    ax, ady = np.abs(x).reshape(-1, d), np.abs(dy).reshape(-1, d)
    dctx = ref.split_heads(np.abs(dy) @ np.abs(params["Wo"]).T, n_heads)
    dweights = dctx @ v.transpose(0, 1, 3, 2)
    dscores = weights * (dweights + (dweights * weights).sum(axis=-1, keepdims=True))
    dqkv = {"q": ref.merge_heads(dscores @ k * scale),
            "k": ref.merge_heads(dscores.transpose(0, 1, 3, 2) @ q * scale),
            "v": ref.merge_heads(weights.transpose(0, 1, 3, 2) @ dctx)}
    terms = {"Wo": ref.merge_heads(weights @ v).reshape(-1, d).T @ ady, "bo": ady.sum(axis=0)}
    for n, dm in dqkv.items():
        terms[f"W{n}"] = ax.T @ dm.reshape(-1, d)
        terms[f"b{n}"] = dm.sum(axis=(0, 1))
    dx = sum(dm @ np.abs(params[f"W{n}"]).T for n, dm in dqkv.items())
    return dx, terms


@examples
@given(b=batches, t=steps, heads=st.sampled_from([1, 2, 4]), d_k=st.integers(1, 4),
       seed=seeds, scale=st.floats(1e-2, 1e1))
def test_attention_backward_matches_reference(b, t, heads, d_k, seed, scale):
    d = heads * d_k
    attn = nn.MultiHeadSelfAttention(d, heads, seeded_rng(seed, "attention"))
    rng = np.random.default_rng(seed)
    x = scale * rng.normal(size=(b, t, d))
    dy = rng.normal(size=x.shape)
    attn.forward(x, train=True)
    dx = attn.backward(dy)
    dx_ref, grads_ref = ref.attention_backward(x, attn.params, heads, dy)
    dx_terms, grad_terms = attention_backward_terms(
        x, attn.params, heads, dy, attn.attention_weights(x))
    # the longest chain of sums: b*t rows into a weight gradient, t steps
    # twice through the softmax backward and the 3d-wide input gradient
    n = b * t + 2 * t + 6 * d + 16
    assert np.all(np.abs(dx - dx_ref) <= 2 * n * EPS * dx_terms)
    first = {name: g.copy() for name, g in ref.projections(attn.grads).items()}
    for name, g in first.items():
        assert np.all(np.abs(g - grads_ref[name]) <= 2 * n * EPS * grad_terms[name]), name
    # without zero_grads a second backward adds the same gradient again
    np.testing.assert_array_equal(attn.backward(dy), dx)
    for name, g in first.items():
        np.testing.assert_array_equal(ref.projections(attn.grads)[name], 2 * g)


@examples
@given(b=batches, t=steps, c=st.integers(1, 16), seed=seeds, scale=scales, offset=offsets)
def test_batch_norm_inference_matches_reference(b, t, c, seed, scale, offset):
    rng = np.random.default_rng(seed)
    bn = nn.BatchNorm1d(c)
    gamma, beta = bn.params["gamma"], bn.params["beta"]
    mean, var = bn.buffers["running_mean"], bn.buffers["running_var"]
    gamma[...] = rng.normal(size=c)
    beta[...] = rng.normal(size=c)
    mean[...] = offset + scale * rng.normal(size=c)
    var[...] = scale ** 2 * rng.uniform(0.1, 10.0, size=c)
    x = offset + scale * rng.normal(size=(b, t, c))
    out_ref = ref.batch_norm_infer(x, gamma, beta, mean, var, NORM_EPS)
    # gamma folded into the scale moves one rounding: about 4 eps of gamma * xhat
    gxhat = np.abs(gamma * (x - mean)) / np.sqrt(var + NORM_EPS)
    assert np.all(np.abs(bn.forward(x) - out_ref) <= 8 * EPS * (gxhat + np.abs(beta)))


@examples
@given(b=batches, t=steps, d_in=st.integers(1, 16), d_out=st.integers(1, 16), seed=seeds,
       scale=scales)
def test_dense_matches_reference(b, t, d_in, d_out, seed, scale):
    dense = nn.Dense(d_in, d_out, seeded_rng(seed, "dense"))
    x = scale * np.random.default_rng(seed).normal(size=(b, t, d_in))
    for rows in (x, x[:, 0]):
        expected = ref.dense(rows, dense.params["W"], dense.params["b"])
        np.testing.assert_array_equal(dense.forward(rows), expected)


@examples
@given(b=batches, t=steps, d_in=st.integers(1, 16), d_out=st.integers(1, 16), seed=seeds,
       scale=scales)
def test_dense_backward_matches_reference(b, t, d_in, d_out, seed, scale):
    dense = nn.Dense(d_in, d_out, seeded_rng(seed, "dense"))
    rng = np.random.default_rng(seed)
    x = scale * rng.normal(size=(b, t, d_in))
    for rows in (x, x[:, 0]):
        dy = rng.normal(size=(*rows.shape[:-1], d_out))
        dense.zero_grads()
        dense.forward(rows, train=True)
        dx = dense.backward(dy)
        dx_ref, dw_ref, db_ref = ref.dense_backward(rows, dense.params["W"], dy)
        # the same 2-D products; only the bias sum runs another order, n rows
        np.testing.assert_array_equal(dx, dx_ref)
        np.testing.assert_array_equal(dense.grads["W"], dw_ref)
        n = dy.size // d_out
        ady = np.abs(dy).reshape(n, d_out)
        assert np.all(np.abs(dense.grads["b"] - db_ref) <= n * EPS * ady.sum(axis=0))
        # without zero_grads a second backward adds the same gradient again
        first = {name: g.copy() for name, g in dense.grads.items()}
        np.testing.assert_array_equal(dense.backward(dy), dx)
        for name, g in first.items():
            np.testing.assert_array_equal(dense.grads[name], 2 * g)


@examples
@given(data=st.data(), b=batches, kernel=st.sampled_from([1, 3, 5]), c_in=st.integers(1, 8),
       c_out=st.integers(1, 8), seed=seeds, scale=scales)
def test_conv1d_matches_im2col_reference(data, b, kernel, c_in, c_out, seed, scale):
    t = data.draw(st.integers(kernel, 30), label="t")
    conv = nn.Conv1d(c_in, c_out, kernel, seeded_rng(seed, "conv"))
    w = conv.params["W"]
    rng = np.random.default_rng(seed)
    x = scale * rng.normal(size=(b, t, c_in))
    out_ref, cols = ref.conv1d(x, w)
    # the same patches meet the same products, and each input step sums its
    # taps in the same order: every result is equal
    np.testing.assert_array_equal(conv.forward(x), out_ref)
    np.testing.assert_array_equal(conv.forward(x, train=True), out_ref)
    dy = rng.normal(size=out_ref.shape)
    conv.zero_grads()
    dx = conv.backward(dy)
    dx_ref, dw_ref = ref.conv1d_backward(dy, cols, w)
    np.testing.assert_array_equal(dx, dx_ref)
    np.testing.assert_array_equal(conv.grads["W"], dw_ref)


@examples
@given(b=batches, t=steps, c=st.integers(1, 16), seed=seeds, scale=scales, offset=offsets)
def test_batch_norm_train_matches_reference(b, t, c, seed, scale, offset):
    rng = np.random.default_rng(seed)
    bn = nn.BatchNorm1d(c)
    gamma, beta = bn.params["gamma"], bn.params["beta"]
    gamma[...] = rng.normal(size=c)
    beta[...] = rng.normal(size=c)
    x = offset + scale * rng.normal(size=(b, t, c))
    out_ref, xhat_ref, inv_ref, mean_ref, var_ref = ref.batch_norm_train(
        x, gamma, beta, NORM_EPS)
    n, m = b * t, BN_MOMENTUM

    # only the variance's summation order changed: n roundings, halved by sqrt
    out = bn.forward(x, train=True)
    assert np.all(np.abs(out - out_ref) <= (n + 4) * EPS * (np.abs(gamma * xhat_ref) + np.abs(beta)))
    np.testing.assert_array_equal(bn.buffers["running_mean"], (1 - m) * mean_ref)
    run_var_ref = m * 1.0 + (1 - m) * var_ref
    assert np.all(np.abs(bn.buffers["running_var"] - run_var_ref) <= (2 * n + 4) * EPS * run_var_ref)

    dy = rng.normal(size=x.shape)
    bn.zero_grads()
    dx = bn.backward(dy)
    dxhat = np.abs(dy * gamma)
    terms = inv_ref * (dxhat + dxhat.mean(axis=(0, 1))
                       + np.abs(xhat_ref) * (dxhat * np.abs(xhat_ref)).mean(axis=(0, 1)))
    dx_ref = ref.batch_norm_backward(dy, xhat_ref, inv_ref, gamma)
    assert np.all(np.abs(dx - dx_ref) <= 2 * (n + 8) * EPS * terms)
    gamma_terms = np.abs(dy * xhat_ref).sum(axis=(0, 1))
    assert np.all(np.abs(bn.grads["gamma"] - (dy * xhat_ref).sum(axis=(0, 1)))
                  <= 2 * (n + 4) * EPS * gamma_terms)
    np.testing.assert_array_equal(bn.grads["beta"], dy.sum(axis=(0, 1)))


@examples
@given(data=st.data(), b=batches, t=st.integers(2, 30), c=st.integers(1, 8), seed=seeds)
def test_max_pool_matches_argmax_reference(data, b, t, c, seed):
    # few distinct values, so pairs often tie
    x = data.draw(arrays(np.float64, (b, t, c), elements=st.sampled_from([-1.0, -0.0, 0.0, 2.0])),
                  label="x")
    pool = nn.MaxPool1d()
    out_ref, argmax = ref.max_pool(x)
    assert pool.forward(x).tobytes() == out_ref.tobytes()
    assert pool.forward(x, train=True).tobytes() == out_ref.tobytes()
    dy = np.random.default_rng(seed).normal(size=out_ref.shape)
    # a losing element gets dy * 0, which is -0.0 where dy < 0: equal by value to
    # the reference's 0.0
    np.testing.assert_array_equal(pool.backward(dy), ref.max_pool_backward(dy, argmax, t))


@examples
@given(data=st.data(), b=batches, t=steps, c=st.integers(1, 8), seed=seeds,
       rate=st.floats(0.01, 0.99))
def test_dropout_matches_float_mask_reference(data, b, t, c, seed, rate):
    # signed zeros and infinities among the values: masked, they must keep
    # the float mask's signs and NaNs
    values = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([-0.0, 0.0, np.inf, -np.inf]))
    x, dy = (data.draw(arrays(np.float64, (b, t, c), elements=values), label=name)
             for name in ("x", "dy"))
    drop = nn.Dropout(rate, np.random.default_rng(seed))
    u = np.random.default_rng(seed).random(x.shape)  # the layer's draws
    with np.errstate(invalid="ignore"):  # inf * 0
        assert drop.forward(x, train=True).tobytes() == ref.dropout(x, u, rate).tobytes()
        assert drop.backward(dy).tobytes() == ref.dropout(dy, u, rate).tobytes()
    assert drop._mask.dtype == np.bool_
