"""Expression-per-line reference versions of the in-place kernels in
gridcast.nn.layers.

Each function is the layer's formula written one numpy expression per line,
every step allocating a fresh array, as the layers computed it before their
arithmetic moved in place: LayerNorm forward and backward with `x.var`,
the row softmax and attention context with `_merge`'s copy, BatchNorm1d in
inference mode with gamma applied after the scale, and the Dense affine
map. The property tests in test_nn_properties.py hold the layers to them.
"""

import numpy as np


def dense(x, w, b):
    return x @ w + b


def layer_norm(x, gamma, beta, eps):
    """(output, xhat, inv) of LayerNorm over the last axis."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return gamma * xhat + beta, xhat, inv


def layer_norm_backward(dy, xhat, inv, gamma):
    """dx of LayerNorm given the forward's xhat and inv."""
    dxhat = dy * gamma
    m = dxhat.mean(axis=-1, keepdims=True)
    mx = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m - xhat * mx)


def softmax(scores):
    """Row softmax over the last axis, max-shifted."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    expn = np.exp(shifted)
    return expn / expn.sum(axis=-1, keepdims=True)


def attention(x, params, n_heads):
    """(output, weights, merged context) of multi-head self-attention with
    the layer's parameter dict: per-head softmax(Q K^T / sqrt(d_k)) V, heads
    merged and projected by Wo, bo."""
    b, t, d = x.shape
    d_k = d // n_heads

    def split(a):
        return a.reshape(b, t, n_heads, d_k).transpose(0, 2, 1, 3)

    q = split(x @ params["Wq"] + params["bq"])
    k = split(x @ params["Wk"] + params["bk"])
    v = split(x @ params["Wv"] + params["bv"])
    scores = q @ k.transpose(0, 1, 3, 2) * (1.0 / np.sqrt(d_k))
    weights = softmax(scores)
    ctx = (weights @ v).transpose(0, 2, 1, 3).reshape(b, t, d)
    return ctx @ params["Wo"] + params["bo"], weights, ctx


def batch_norm_infer(x, gamma, beta, running_mean, running_var, eps):
    """BatchNorm1d in inference mode: running statistics, then gain and bias."""
    inv = 1.0 / np.sqrt(running_var + eps)
    xhat = (x - running_mean) * inv
    return gamma * xhat + beta
