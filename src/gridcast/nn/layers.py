"""Layers with manual forward/backward passes on float64 numpy arrays.

Shape conventions: sequence tensors are (batch, time, channels); flat
tensors are (batch, features). Dense applies to the last axis, so it doubles
as a per-position projection on sequence tensors.

Weight init is fan-in scaled uniform, U(-sqrt(1/fan_in), +sqrt(1/fan_in)),
drawn from the generator handed to the constructor.
"""

import numpy as np

from ..errors import ConfigError, ShapeError


def _uniform_init(rng, shape, fan_in):
    bound = np.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base layer: trainable params/grads, non-trainable buffers, and named
    sublayers.

    forward(x, train=True) may cache what backward() needs; forward(x,
    train=False) assigns no attribute. Buffers are updated in place, so the
    dicts from named_params() and state_tensors() stay live views.
    """

    def __init__(self):
        self.params = {}
        self.grads = {}
        self.buffers = {}
        self.sublayers = []

    def forward(self, x, train=False):
        raise NotImplementedError

    def backward(self, dy):
        raise NotImplementedError

    def walk(self, prefix=""):
        """Yield (prefix, layer) for this layer and its descendants, depth first."""
        yield prefix, self
        for name, sub in self.sublayers:
            yield from sub.walk(f"{prefix}{name}.")

    def _collect(self, prefix, *attrs):
        return {path + key: val
                for path, layer in self.walk(prefix)
                for attr in attrs
                for key, val in getattr(layer, attr).items()}

    def named_params(self, prefix=""):
        """Flat {name: array} over this layer and its sublayers (views)."""
        return self._collect(prefix, "params")

    def named_grads(self, prefix=""):
        return self._collect(prefix, "grads")

    def zero_grads(self):
        for g in self.named_grads().values():
            g[...] = 0.0

    def state_tensors(self, prefix=""):
        """Like named_params but also holding the buffers (BN running stats)."""
        return self._collect(prefix, "params", "buffers")


class Dense(Layer):
    """Affine map on the last axis: y = x @ W + b."""

    def __init__(self, d_in, d_out, rng):
        super().__init__()
        self.d_in, self.d_out = d_in, d_out
        self.params = {
            "W": _uniform_init(rng, (d_in, d_out), d_in),
            "b": _uniform_init(rng, (d_out,), d_in),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def forward(self, x, train=False):
        if x.shape[-1] != self.d_in:
            raise ShapeError(f"dense expects last axis {self.d_in}, got {x.shape}")
        if train:
            self._x = x
        return x @ self.params["W"] + self.params["b"]

    def backward(self, dy):
        x2 = self._x.reshape(-1, self.d_in)
        dy2 = dy.reshape(-1, self.d_out)
        self.grads["W"] += x2.T @ dy2
        self.grads["b"] += dy2.sum(axis=0)
        return dy @ self.params["W"].T


class ReLU(Layer):
    def forward(self, x, train=False):
        if train:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dy):
        return dy * self._mask


class Conv1d(Layer):
    """1-D convolution over time with zero same-padding.

    Weight shape (kernel, c_in, c_out); output keeps the input length.
    """

    def __init__(self, c_in, c_out, kernel, rng):
        super().__init__()
        if kernel % 2 != 1:
            raise ConfigError("same-padding conv requires an odd kernel")
        self.c_in, self.c_out, self.kernel = c_in, c_out, kernel
        self.pad = (kernel - 1) // 2
        self.params = {
            "W": _uniform_init(rng, (kernel, c_in, c_out), kernel * c_in),
            "b": _uniform_init(rng, (c_out,), kernel * c_in),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def _cols(self, x):
        # (B, T, C) -> (B, T, kernel, C) patch tensor
        xp = np.pad(x, ((0, 0), (self.pad, self.pad), (0, 0)))
        view = np.lib.stride_tricks.sliding_window_view(xp, self.kernel, axis=1)
        return np.ascontiguousarray(view.transpose(0, 1, 3, 2))

    def forward(self, x, train=False):
        if x.ndim != 3 or x.shape[2] != self.c_in:
            raise ShapeError(f"conv expects (B, T, {self.c_in}), got {x.shape}")
        if x.shape[1] < self.kernel:
            raise ShapeError(f"conv needs T >= {self.kernel}, got T={x.shape[1]}")
        cols = self._cols(x)
        if train:
            self._cols_cache = cols
        b, t = x.shape[:2]
        wf = self.params["W"].reshape(self.kernel * self.c_in, self.c_out)
        y = cols.reshape(b * t, -1) @ wf + self.params["b"]
        return y.reshape(b, t, self.c_out)

    def backward(self, dy):
        b, t, _ = dy.shape
        dy2 = dy.reshape(b * t, self.c_out)
        cols2 = self._cols_cache.reshape(b * t, -1)
        self.grads["W"] += (cols2.T @ dy2).reshape(self.params["W"].shape)
        self.grads["b"] += dy2.sum(axis=0)
        wf = self.params["W"].reshape(self.kernel * self.c_in, self.c_out)
        dcols = (dy2 @ wf.T).reshape(b, t, self.kernel, self.c_in)
        dxp = np.zeros((b, t + 2 * self.pad, self.c_in))
        for j in range(self.kernel):
            dxp[:, j : j + t, :] += dcols[:, :, j, :]
        return dxp[:, self.pad : self.pad + t, :]


class BatchNorm1d(Layer):
    """Per-channel normalization over (batch, time) with running statistics.

    Train mode normalizes by batch statistics (population variance) and
    decays running stats with `momentum`; infer mode uses the running stats.
    """

    def __init__(self, channels, momentum=0.9, eps=1e-5):
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.params = {
            "gamma": np.ones(channels),
            "beta": np.zeros(channels),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.buffers = {"running_mean": np.zeros(channels), "running_var": np.ones(channels)}

    def forward(self, x, train=False):
        if x.ndim != 3 or x.shape[2] != self.channels:
            raise ShapeError(f"batchnorm expects (B, T, {self.channels}), got {x.shape}")
        run_mean, run_var = self.buffers["running_mean"], self.buffers["running_var"]
        if train:
            mu = x.mean(axis=(0, 1))
            var = x.var(axis=(0, 1))
            run_mean[...] = self.momentum * run_mean + (1 - self.momentum) * mu
            run_var[...] = self.momentum * run_var + (1 - self.momentum) * var
            inv = 1.0 / np.sqrt(var + self.eps)
            xhat = (x - mu) * inv
            self._cache = (xhat, inv, x.shape[0] * x.shape[1])
        else:
            inv = 1.0 / np.sqrt(run_var + self.eps)
            xhat = (x - run_mean) * inv
        return self.params["gamma"] * xhat + self.params["beta"]

    def backward(self, dy):
        xhat, inv, n = self._cache
        self.grads["gamma"] += (dy * xhat).sum(axis=(0, 1))
        self.grads["beta"] += dy.sum(axis=(0, 1))
        dxhat = dy * self.params["gamma"]
        # dx via the standard batch-statistics chain rule
        sum_dxhat = dxhat.sum(axis=(0, 1))
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 1))
        return inv / n * (n * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)


class MaxPool1d(Layer):
    """Max pool over time, window 2 stride 2; odd tail element is dropped.

    Ties route the gradient to the earlier element.
    """

    def forward(self, x, train=False):
        b, t, c = x.shape
        if t < 2:
            raise ShapeError(f"maxpool needs T >= 2, got T={t}")
        th = t // 2
        pairs = x[:, : 2 * th, :].reshape(b, th, 2, c)
        if train:
            self._idx = pairs.argmax(axis=2)
            self._in_shape = x.shape
        return pairs.max(axis=2)

    def backward(self, dy):
        b, t, c = self._in_shape
        th = t // 2
        dpairs = np.zeros((b, th, 2, c))
        np.put_along_axis(dpairs, self._idx[:, :, None, :], dy[:, :, None, :], axis=2)
        dx = np.zeros((b, t, c))
        dx[:, : 2 * th, :] = dpairs.reshape(b, 2 * th, c)
        return dx


class GlobalAvgPool(Layer):
    """(B, T, C) -> (B, C) mean over time."""

    def forward(self, x, train=False):
        if train:
            self._t = x.shape[1]
        return x.mean(axis=1)

    def backward(self, dy):
        return np.repeat(dy[:, None, :], self._t, axis=1) / self._t


class Dropout(Layer):
    """Inverted dropout: train mode masks and rescales by 1/(1-rate)."""

    def __init__(self, rate, rng):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng

    def forward(self, x, train=False):
        if not train:
            return x
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(x.shape) < keep) / keep if self.rate else None
        return x if self._mask is None else x * self._mask

    def backward(self, dy):
        return dy if self._mask is None else dy * self._mask


def positional_encoding(t, d_model):
    """Sinusoidal position table, shape (t, d_model).

    Even columns carry sin(pos / 10000^(2i/d)), odd columns the matching cos.
    """
    if d_model % 2 != 0:
        raise ConfigError(f"positional encoding needs even d_model, got {d_model}")
    pos = np.arange(t)[:, None]
    i = np.arange(d_model // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d_model)
    pe = np.zeros((t, d_model))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


class PositionalEncodingAdd(Layer):
    """Adds the fixed sinusoidal table to a (B, T, d_model) tensor."""

    def __init__(self, t, d_model):
        super().__init__()
        self.pe = positional_encoding(t, d_model)

    def forward(self, x, train=False):
        if x.shape[1:] != self.pe.shape:
            raise ShapeError(f"expected (B, {self.pe.shape[0]}, {self.pe.shape[1]}), got {x.shape}")
        return x + self.pe

    def backward(self, dy):
        return dy


class LayerNorm(Layer):
    """Normalization over the last axis with learned gain and bias."""

    def __init__(self, d, eps=1e-5):
        super().__init__()
        self.d = d
        self.eps = eps
        self.params = {"gamma": np.ones(d), "beta": np.zeros(d)}
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def forward(self, x, train=False):
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mu) * inv
        if train:
            self._cache = (xhat, inv)
        return self.params["gamma"] * xhat + self.params["beta"]

    def backward(self, dy):
        xhat, inv = self._cache
        axes = tuple(range(dy.ndim - 1))
        self.grads["gamma"] += (dy * xhat).sum(axis=axes)
        self.grads["beta"] += dy.sum(axis=axes)
        dxhat = dy * self.params["gamma"]
        m = dxhat.mean(axis=-1, keepdims=True)
        mx = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return inv * (dxhat - m - xhat * mx)


class MultiHeadSelfAttention(Layer):
    """Scaled dot-product self-attention with n_heads and output projection.

    Per head: scores = Q K^T / sqrt(d_k), row-softmax, weighted sum of V;
    heads are concatenated and linearly projected back to d_model.
    """

    def __init__(self, d_model, n_heads, rng):
        super().__init__()
        if d_model % n_heads != 0:
            raise ConfigError(f"d_model {d_model} not divisible by n_heads {n_heads}")
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_k = d_model // n_heads
        self.scale = 1.0 / np.sqrt(self.d_k)
        self.params = {}
        for name in ("Wq", "Wk", "Wv", "Wo"):
            self.params[name] = _uniform_init(rng, (d_model, d_model), d_model)
        for name in ("bq", "bk", "bv", "bo"):
            self.params[name] = _uniform_init(rng, (d_model,), d_model)
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def _split(self, x):
        b, t, _ = x.shape
        return x.reshape(b, t, self.n_heads, self.d_k).transpose(0, 2, 1, 3)

    def _merge(self, x):
        b, h, t, dk = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * dk)

    def _attend(self, x):
        """Per-head (q, k, v, softmax weights) for x; stores nothing."""
        if x.ndim != 3 or x.shape[2] != self.d_model:
            raise ShapeError(f"attention expects (B, T, {self.d_model}), got {x.shape}")
        p = self.params
        q = self._split(x @ p["Wq"] + p["bq"])
        k = self._split(x @ p["Wk"] + p["bk"])
        v = self._split(x @ p["Wv"] + p["bv"])
        scores = q @ k.transpose(0, 1, 3, 2) * self.scale
        scores -= scores.max(axis=-1, keepdims=True)
        expn = np.exp(scores)
        return q, k, v, expn / expn.sum(axis=-1, keepdims=True)

    def attention_weights(self, x):
        """Row-softmax attention weights, shape (B, n_heads, T, T)."""
        return self._attend(x)[3]

    def forward(self, x, train=False):
        q, k, v, attn = self._attend(x)
        ctx = self._merge(attn @ v)
        if train:
            self._cache = (x, q, k, v, attn, ctx)
        return ctx @ self.params["Wo"] + self.params["bo"]

    def backward(self, dy):
        x, q, k, v, attn, ctx = self._cache
        p = self.params
        b, t, _ = dy.shape
        dy2 = dy.reshape(b * t, self.d_model)
        self.grads["Wo"] += ctx.reshape(b * t, self.d_model).T @ dy2
        self.grads["bo"] += dy2.sum(axis=0)
        dctx = self._split(dy @ p["Wo"].T)
        dattn = dctx @ v.transpose(0, 1, 3, 2)
        dv = attn.transpose(0, 1, 3, 2) @ dctx
        # softmax backward: dS = A * (dA - sum(dA * A))
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dq = dscores @ k * self.scale
        dk = dscores.transpose(0, 1, 3, 2) @ q * self.scale
        dx = np.zeros_like(x)
        x2 = x.reshape(b * t, self.d_model)
        for name, dmat in (("q", dq), ("k", dk), ("v", dv)):
            dflat = self._merge(dmat).reshape(b * t, self.d_model)
            self.grads[f"W{name}"] += x2.T @ dflat
            self.grads[f"b{name}"] += dflat.sum(axis=0)
            dx += (dflat @ p[f"W{name}"].T).reshape(b, t, self.d_model)
        return dx


class Sequential(Layer):
    """Chain of named layers; forward/backward run in order/reverse order."""

    def __init__(self, layers):
        super().__init__()
        self.sublayers = list(layers)

    def forward(self, x, train=False):
        for _, layer in self.sublayers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, dy):
        for _, layer in reversed(self.sublayers):
            dy = layer.backward(dy)
        return dy


class Residual(Sequential):
    """Skip connection around a chain: y = x + chain(x)."""

    def forward(self, x, train=False):
        return x + super().forward(x, train)

    def backward(self, dy):
        return dy + super().backward(dy)


class ConvBlock(Sequential):
    """Conv1d -> BatchNorm1d -> ReLU -> MaxPool(2, 2). Halves the length."""

    def __init__(self, c_in, filters, kernel, rng):
        super().__init__([
            ("conv", Conv1d(c_in, filters, kernel, rng)),
            ("bn", BatchNorm1d(filters)),
            ("relu", ReLU()),
            ("pool", MaxPool1d()),
        ])


class EncoderBlock(Sequential):
    """Post-norm transformer encoder block.

    x = LN(x + Drop(SelfAttn(x))); x = LN(x + Drop(FF(x))) with a
    ReLU feed-forward of width ff_dim.

    Weights are drawn from `rng`; both dropout layers draw from one child
    stream spawned from it, which takes no draw from `rng` itself.
    """

    def __init__(self, d_model, n_heads, ff_dim, dropout_rate, rng):
        # weights are drawn in this order: attention, widen, narrow
        mhsa = MultiHeadSelfAttention(d_model, n_heads, rng)
        widen = Dense(d_model, ff_dim, rng)
        narrow = Dense(ff_dim, d_model, rng)
        drop_rng = rng.spawn(1)[0]
        super().__init__([
            ("attn", Residual([("mhsa", mhsa), ("drop", Dropout(dropout_rate, drop_rng))])),
            ("ln1", LayerNorm(d_model)),
            ("ff", Residual([("widen", widen), ("relu", ReLU()), ("narrow", narrow),
                             ("drop", Dropout(dropout_rate, drop_rng))])),
            ("ln2", LayerNorm(d_model)),
        ])
