"""Expression-per-line reference versions of the in-place kernels in
gridcast.nn.layers.

Each function is the layer's formula written one numpy expression per line,
every step allocating a fresh array, as the layers computed it before their
arithmetic moved in place and their kernels were shared: LayerNorm forward
and backward with `x.var`, the row softmax and attention context with a
merging copy, attention's backward with one gradient per projection,
BatchNorm1d in train mode with `x.var` and the `n * dxhat - ...` backward,
BatchNorm1d in inference mode with gamma applied after the scale, the Dense
affine map and its gradients with the bias summed by `sum`, Conv1d as
im2col (`np.pad` plus a sliding view), MaxPool1d by `argmax` over each pair
and `put_along_axis`, Dropout by a float64 mask, and one Adam step on fresh
arrays. The property tests in test_nn_properties.py and test_nn_optim.py
hold the layers and the optimizer to them.
"""

import numpy as np


def dense(x, w, b):
    return x @ w + b


def dense_backward(x, w, dy):
    """(dx, dW, db) of Dense for upstream gradient dy, over the (rows, width)
    views of a 2-D or 3-D batch."""
    x2 = x.reshape(-1, w.shape[0])
    dy2 = dy.reshape(-1, w.shape[1])
    dx = (dy2 @ w.T).reshape(x.shape)
    return dx, x2.T @ dy2, dy2.sum(axis=0)


def adam_step(p, g, m, v, t, lr, beta1, beta2, eps):
    """(p, m, v) after Adam's step number t from moments m and v."""
    m = beta1 * m
    m = m + (1 - beta1) * g
    v = beta2 * v
    v = v + (1 - beta2) * g * g
    m_hat = m / (1 - beta1 ** t)
    v_hat = v / (1 - beta2 ** t)
    p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p, m, v


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


def split_heads(a, n_heads):
    """(B, T, d) -> (B, n_heads, T, d // n_heads), a view."""
    b, t, d = a.shape
    return a.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def merge_heads(a):
    """(B, n_heads, T, d_k) -> (B, T, n_heads * d_k), a copy."""
    b, h, t, d_k = a.shape
    return a.transpose(0, 2, 1, 3).reshape(b, t, h * d_k)


def projections(params):
    """The attention layer's params (or grads) keyed per projection: Wq, Wk,
    Wv, bq, bk, bv as views of the thirds of Wqkv and bqkv, with Wo and bo."""
    d = params["Wo"].shape[0]
    out = {"Wo": params["Wo"], "bo": params["bo"]}
    for i, n in enumerate("qkv"):
        out[f"W{n}"] = params["Wqkv"][:, i * d : (i + 1) * d]
        out[f"b{n}"] = params["bqkv"][i * d : (i + 1) * d]
    return out


def attention(x, params, n_heads):
    """(output, weights, merged context) of multi-head self-attention with
    the layer's parameter dict: per-head softmax(Q K^T / sqrt(d_k)) V, heads
    merged and projected by Wo, bo."""
    params = projections(params)
    scale = 1.0 / np.sqrt(x.shape[2] // n_heads)
    q = split_heads(x @ params["Wq"] + params["bq"], n_heads)
    k = split_heads(x @ params["Wk"] + params["bk"], n_heads)
    v = split_heads(x @ params["Wv"] + params["bv"], n_heads)
    scores = q @ k.transpose(0, 1, 3, 2) * scale
    weights = softmax(scores)
    ctx = merge_heads(weights @ v)
    return ctx @ params["Wo"] + params["bo"], weights, ctx


def attention_backward(x, params, n_heads, dy):
    """(dx, grads) of multi-head self-attention for upstream gradient dy:
    the softmax backward A * (dA - sum(dA * A)) and one affine gradient per
    projection, grads keyed as `projections` keys the parameters."""
    params = projections(params)
    d = x.shape[2]
    scale = 1.0 / np.sqrt(d // n_heads)
    q = split_heads(x @ params["Wq"] + params["bq"], n_heads)
    k = split_heads(x @ params["Wk"] + params["bk"], n_heads)
    v = split_heads(x @ params["Wv"] + params["bv"], n_heads)
    weights = softmax(q @ k.transpose(0, 1, 3, 2) * scale)
    ctx = merge_heads(weights @ v)
    dctx = split_heads(dy @ params["Wo"].T, n_heads)
    dweights = dctx @ v.transpose(0, 1, 3, 2)
    dscores = weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))
    dq = merge_heads(dscores @ k * scale)
    dk = merge_heads(dscores.transpose(0, 1, 3, 2) @ q * scale)
    dv = merge_heads(weights.transpose(0, 1, 3, 2) @ dctx)
    grads = {
        "Wo": ctx.reshape(-1, d).T @ dy.reshape(-1, d),
        "bo": dy.sum(axis=(0, 1)),
        "Wq": x.reshape(-1, d).T @ dq.reshape(-1, d),
        "bq": dq.sum(axis=(0, 1)),
        "Wk": x.reshape(-1, d).T @ dk.reshape(-1, d),
        "bk": dk.sum(axis=(0, 1)),
        "Wv": x.reshape(-1, d).T @ dv.reshape(-1, d),
        "bv": dv.sum(axis=(0, 1)),
    }
    dx = dq @ params["Wq"].T + dk @ params["Wk"].T + dv @ params["Wv"].T
    return dx, grads


def conv1d(x, w):
    """(output, patches) of a same-padded Conv1d whose W is
    (kernel * c_in, c_out) in tap-major order; patches are (B, T, kernel, c_in)."""
    kernel = w.shape[0] // x.shape[2]
    pad = kernel // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    view = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=1)
    cols = np.ascontiguousarray(view.transpose(0, 1, 3, 2))
    return cols.reshape(*x.shape[:2], -1) @ w, cols


def conv1d_backward(dy, cols, w):
    """(dx, dW) of Conv1d given the forward's patches."""
    bsz, t, kernel, c_in = cols.shape
    pad = kernel // 2
    dy2 = dy.reshape(bsz * t, -1)
    dw = cols.reshape(bsz * t, -1).T @ dy2
    dcols = (dy2 @ w.T).reshape(bsz, t, kernel, c_in)
    dxp = np.zeros((bsz, t + 2 * pad, c_in))
    for j in range(kernel):
        dxp[:, j : j + t, :] += dcols[:, :, j, :]
    return dxp[:, pad : pad + t, :], dw


def batch_norm_train(x, gamma, beta, eps):
    """(output, xhat, inv, mean, var) of BatchNorm1d by the statistics of x
    over (batch, time)."""
    mu = x.mean(axis=(0, 1))
    var = x.var(axis=(0, 1))
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return gamma * xhat + beta, xhat, inv, mu, var


def batch_norm_backward(dy, xhat, inv, gamma):
    """dx of BatchNorm1d in train mode given the forward's xhat and inv."""
    n = dy.shape[0] * dy.shape[1]
    dxhat = dy * gamma
    sum_dxhat = dxhat.sum(axis=(0, 1))
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 1))
    return inv / n * (n * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)


def batch_norm_infer(x, gamma, beta, running_mean, running_var, eps):
    """BatchNorm1d in inference mode: running statistics, then gain and bias."""
    inv = 1.0 / np.sqrt(running_var + eps)
    xhat = (x - running_mean) * inv
    return gamma * xhat + beta


def max_pool(x):
    """(output, argmax) of MaxPool1d over pairs of steps; an odd last step
    is dropped, and argmax takes the first of two equal elements."""
    b, t, c = x.shape
    pairs = x[:, : 2 * (t // 2)].reshape(b, t // 2, 2, c)
    return pairs.max(axis=2), pairs.argmax(axis=2)


def max_pool_backward(dy, argmax, t):
    """dx of MaxPool1d: each dy to its pair's argmax, zero elsewhere."""
    b, half, c = dy.shape
    dx = np.zeros((b, t, c))
    dpairs = dx[:, : 2 * half].reshape(b, half, 2, c)
    np.put_along_axis(dpairs, argmax[:, :, None, :], dy[:, :, None, :], axis=2)
    return dx


def dropout(a, u, rate):
    """Inverted dropout of a (an input or its upstream gradient) by the float
    mask (u < keep) / keep, for the layer's uniform draws u."""
    keep = 1.0 - rate
    return a * ((u < keep) / keep)
