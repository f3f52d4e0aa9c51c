"""Layers with manual forward/backward passes on numpy arrays, under the
layer contract stated in the gridcast.nn package docstring.

Shape conventions: sequence tensors are (batch, time, channels); flat
tensors are (batch, features). Dense applies to the last axis, so it doubles
as a per-position projection on sequence tensors.

Weight init is fan-in scaled uniform, U(-sqrt(1/fan_in), +sqrt(1/fan_in)),
drawn from the generator handed to the constructor.
"""

import math

import numpy as np

from ..errors import ConfigError, ShapeError, check_int, check_real

# NORM_EPS keeps a constant channel or row finite; BatchNorm1d keeps
# BN_MOMENTUM of its running statistics at each train step.
NORM_EPS = 1e-5
BN_MOMENTUM = 0.9


def _uniform_init(rng, shape, fan_in):
    bound = np.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _check_sizes(**sizes):
    """Each size as an int; ConfigError names one that is not a positive integer."""
    return [check_int(name, n, 1) for name, n in sizes.items()]


def _affine(x, w, b):
    """x @ w + b, the bias added in place on the product."""
    y = x @ w
    y += b
    return y


def _affine_backward(x, dy, w, gw, gb=None):
    """Backward of y = x @ w (+ b) over the last axis: adds dL/dw to gw and
    dL/db to gb, if given; returns dL/dx in x's dtype, the dtype dy is cast
    to. Every product is 2-D, which BLAS runs fastest, the bias sum too: one
    GEMV of a row of ones with dy."""
    dy2 = dy.astype(x.dtype, copy=False).reshape(-1, w.shape[1])
    gw += x.reshape(-1, w.shape[0]).T @ dy2
    if gb is not None:
        gb += np.ones(len(dy2), dtype=dy2.dtype) @ dy2
    return (dy2 @ w.T).reshape(*dy.shape[:-1], w.shape[0])


def _check_floating(x):
    """ShapeError, naming the dtype, for an input that is not floating point,
    which no forward takes: a forward computes in its input's dtype, which
    would truncate the params, the positional table or Dropout's scale."""
    if x.dtype.kind != "f":
        raise ShapeError(f"this layer's forward needs floating-point input, got dtype {x.dtype}")


def _cast_params(x, *params):
    """The params or buffers cast to x's dtype: a forward computes in its
    input's dtype. A float64 array is returned as it is for a float64 x."""
    _check_floating(x)
    return [p.astype(x.dtype, copy=False) for p in params]


def _plus(skip, out):
    """skip + out, in place on out unless out is skip passed through."""
    if np.shares_memory(skip, out):
        return skip + out
    out += skip
    return out


class Layer:
    """Base layer: trainable params/grads, non-trainable buffers, and named
    sublayers.

    forward(x, train) computes in x's dtype, the params and buffers cast to
    it once per call (GlobalAvgPool returns float64); train mode may cache
    what backward() needs, the casts included. backward() returns gradients
    in x's dtype and adds param gradients to the float64 `grads`.
    forward(x, train=False) assigns no attribute. Buffers are updated in
    place, so the dicts from named_params() and state_tensors() stay live.
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
        """Like named_params but also holding the buffers (BatchNorm running
        stats, positional tables)."""
        return self._collect(prefix, "params", "buffers")


class Dense(Layer):
    """Affine map on the last axis: y = x @ W + b."""

    def __init__(self, d_in, d_out, rng):
        super().__init__()
        d_in, d_out = _check_sizes(d_in=d_in, d_out=d_out)
        self.d_in, self.d_out = d_in, d_out
        self.params = {
            "W": _uniform_init(rng, (d_in, d_out), d_in),
            "b": _uniform_init(rng, (d_out,), d_in),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def forward(self, x, train=False):
        if x.ndim not in (2, 3) or x.shape[-1] != self.d_in:
            raise ShapeError(f"dense expects (B, {self.d_in}) or (B, T, {self.d_in}), got {x.shape}")
        w, b = _cast_params(x, self.params["W"], self.params["b"])
        if train:
            self._x, self._w = x, w
        return _affine(x, w, b)

    def backward(self, dy):
        return _affine_backward(self._x, dy, self._w, self.grads["W"], self.grads["b"])


class ReLU(Layer):
    def forward(self, x, train=False):
        _check_floating(x)
        if train:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dy):
        return dy * self._mask


class Conv1d(Layer):
    """1-D convolution over time with zero same-padding: each step's patch
    times W; the output keeps the input length.

    W is (kernel·c_in, c_out), tap-major: rows j·c_in to (j+1)·c_in weight
    the input j − kernel // 2 steps after the output step. There is no bias:
    every Conv1d here feeds a BatchNorm1d, whose batch mean cancels one.
    """

    def __init__(self, c_in, c_out, kernel, rng):
        super().__init__()
        c_in, c_out, kernel = _check_sizes(c_in=c_in, c_out=c_out, kernel=kernel)
        if kernel % 2 != 1:
            raise ConfigError("same-padding conv requires an odd kernel")
        self.c_in, self.kernel = c_in, kernel
        self.d_in, self.d_out = kernel * c_in, c_out
        self.params = {"W": _uniform_init(rng, (self.d_in, c_out), self.d_in)}
        self.grads = {"W": np.zeros_like(self.params["W"])}

    def _taps(self, t):
        """Per tap: its patch columns, the output steps [lo, hi) whose input
        step is inside [0, t), and the input step's offset from them."""
        pad = self.kernel // 2
        for j in range(self.kernel):
            shift = j - pad
            yield slice(j * self.c_in, (j + 1) * self.c_in), max(0, -shift), min(t, t - shift), shift

    def forward(self, x, train=False):
        if x.ndim != 3 or x.shape[2] != self.c_in:
            raise ShapeError(f"conv expects (B, T, {self.c_in}), got {x.shape}")
        if x.shape[1] < self.kernel:
            raise ShapeError(f"conv needs T >= {self.kernel}, got T={x.shape[1]}")
        [w] = _cast_params(x, self.params["W"])
        cols = np.zeros((*x.shape[:2], self.d_in), dtype=x.dtype)  # the zeros are the padding
        for cols_j, lo, hi, shift in self._taps(x.shape[1]):
            cols[:, lo:hi, cols_j] = x[:, lo + shift : hi + shift]
        if train:
            self._cols, self._w = cols, w
        return cols @ w

    def backward(self, dy):
        dcols = _affine_backward(self._cols, dy, self._w, self.grads["W"])
        dx = np.zeros((*dcols.shape[:2], self.c_in), dtype=dcols.dtype)
        for cols_j, lo, hi, shift in self._taps(dx.shape[1]):
            dx[:, lo + shift : hi + shift] += dcols[:, lo:hi, cols_j]
        return dx


class _Norm(Layer):
    """gamma * (x - mean) / sqrt(var + NORM_EPS) + beta on (B, T, width)
    tensors, with the mean and population variance over the subclass's `axes`.
    """

    def __init__(self, width):
        super().__init__()
        [width] = _check_sizes(width=width)
        self.width = width
        self.params = {"gamma": np.ones(width), "beta": np.zeros(width)}
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def _check(self, x):
        if x.ndim != 3 or x.shape[2] != self.width:
            raise ShapeError(f"{type(self).__name__} expects (B, T, {self.width}), got {x.shape}")

    def _mean_of_product(self, a, b):
        """mean(a * b) over the statistic axes, kept as size-1 axes."""
        kept = [i for i in range(3) if i not in self.axes]
        shape = [a.shape[i] if i in kept else 1 for i in range(3)]
        # a Python int divisor keeps a float32 mean float32 under every numpy
        return np.einsum(a, [0, 1, 2], b, [0, 1, 2], kept).reshape(shape) / (a.size // math.prod(shape))

    def _normalize(self, x, train):
        """(y, mean, var) by x's own statistics; train mode caches for backward."""
        self._check(x)
        gamma, beta = _cast_params(x, self.params["gamma"], self.params["beta"])
        mean = x.mean(axis=self.axes, keepdims=True)
        xhat = x - mean  # centred once, then scaled in place
        var = self._mean_of_product(xhat, xhat)
        inv = 1.0 / np.sqrt(var + NORM_EPS)
        xhat *= inv
        if train:
            self._cache = (xhat, inv, gamma)
        y = np.multiply(xhat, gamma, out=None if train else xhat)
        y += beta
        return y, mean, var

    def backward(self, dy):
        """inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) for
        dxhat = dy * gamma, in place on dxhat. The subclass's _grad_means
        gives the two means from dy and dy * xhat, the arrays the beta and
        gamma gradients are summed from, without a reduction over dxhat."""
        xhat, inv, gamma = self._cache
        dyx = dy * xhat
        sum_dy, sum_dyx = dy.sum(axis=(0, 1)), dyx.sum(axis=(0, 1))
        self.grads["gamma"] += sum_dyx
        self.grads["beta"] += sum_dy
        m, mx = self._grad_means(dy, dyx, gamma, sum_dy, sum_dyx)
        dx = dy * gamma
        dx -= m
        dx -= np.multiply(xhat, mx, out=dyx)
        dx *= inv
        return dx


class BatchNorm1d(_Norm):
    """Per-channel normalization over (batch, time) with running statistics.

    Train mode normalizes by batch statistics (population variance) and
    decays running stats with BN_MOMENTUM; infer mode uses the running stats.
    Both modes compute in the input's dtype; the running stats stay float64.
    """

    axes = (0, 1)

    def __init__(self, width):
        super().__init__(width)
        self.buffers = {"running_mean": np.zeros(width), "running_var": np.ones(width)}

    def _grad_means(self, dy, dyx, gamma, sum_dy, sum_dyx):
        """mean(dy * gamma) and mean(dy * gamma * xhat) per channel: gamma
        times the beta and gamma gradient sums over the n = B·T rows."""
        n = dy.shape[0] * dy.shape[1]
        return gamma * sum_dy / n, gamma * sum_dyx / n

    def forward(self, x, train=False):
        run_mean, run_var = self.buffers["running_mean"], self.buffers["running_var"]
        if train:
            y, mean, var = self._normalize(x, train)
            run_mean[...] = BN_MOMENTUM * run_mean + (1 - BN_MOMENTUM) * mean.ravel()
            run_var[...] = BN_MOMENTUM * run_var + (1 - BN_MOMENTUM) * var.ravel()
            return y
        self._check(x)
        gamma, beta, run_mean, run_var = _cast_params(
            x, self.params["gamma"], self.params["beta"], run_mean, run_var)
        # running statistics are constants here: fold gamma into the scale
        y = x - run_mean
        y *= gamma / np.sqrt(run_var + NORM_EPS)
        y += beta
        return y


class MaxPool1d(Layer):
    """Max pool over time, window 2 stride 2; odd tail element is dropped.

    Ties route the gradient to the earlier element.
    """

    def forward(self, x, train=False):
        if x.ndim != 3:
            raise ShapeError(f"maxpool expects (B, T, C), got {x.shape}")
        t = x.shape[1]
        if t < 2:
            raise ShapeError(f"maxpool needs T >= 2, got T={t}")
        _check_floating(x)
        end = 2 * (t // 2)
        first, second = x[:, 0:end:2], x[:, 1:end:2]
        if train:
            self._second_wins = second > first  # a tie goes to the first
            self._in_shape = x.shape
        return np.maximum(first, second)

    def backward(self, dy):
        end = 2 * dy.shape[1]
        dx = np.zeros(self._in_shape, dtype=dy.dtype)
        # each half of the pairs takes dy where it won and a zero elsewhere
        np.multiply(dy, self._second_wins, out=dx[:, 1:end:2])
        np.multiply(dy, ~self._second_wins, out=dx[:, 0:end:2])
        return dx


class GlobalAvgPool(Layer):
    """(B, T, C) -> (B, C) mean over time, accumulated and returned in float64
    for a batch of any floating dtype, so the head and a least-squares fit on
    it run in float64; backward returns the input's dtype."""

    def forward(self, x, train=False):
        if x.ndim != 3:
            raise ShapeError(f"global average pool expects (B, T, C), got {x.shape}")
        _check_floating(x)
        if train:
            self._t, self._dtype = x.shape[1], x.dtype
        return x.mean(axis=1, dtype=np.float64)

    def backward(self, dy):
        return np.repeat((dy[:, None, :] / self._t).astype(self._dtype), self._t, axis=1)


class Dropout(Layer):
    """Inverted dropout: train mode draws a keep-mask, at rate 0 too, and
    rescales by 1/(1-rate); eval mode returns its input as it is.

    The cached keep-mask is bool, one byte an element; forward and backward
    multiply by it and then rescale in place, which gives the same bits as
    multiplying by the float mask (u < keep) / keep, signed zeros included.
    """

    def __init__(self, rate, rng):
        super().__init__()
        self.rate = check_real("dropout rate", rate, 0.0, 1.0)
        self.rng = rng

    def forward(self, x, train=False):
        _check_floating(x)
        if not train:
            return x
        self._mask = self.rng.random(x.shape) < 1.0 - self.rate
        return self._masked(x)

    def backward(self, dy):
        return self._masked(dy)

    def _masked(self, a):
        out = np.multiply(a, self._mask)
        out *= 1.0 / (1.0 - self.rate)
        return out


def positional_encoding(t, d_model):
    """Sinusoidal position table, shape (t, d_model).

    Even columns carry sin(pos / 10000^(2i/d)), odd columns the matching cos.
    """
    t, d_model = _check_sizes(t=t, d_model=d_model)
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
    """Adds the fixed sinusoidal table, buffer "pe", to a (B, T, d_model) tensor."""

    def __init__(self, t, d_model):
        super().__init__()
        self.buffers = {"pe": positional_encoding(t, d_model)}

    def forward(self, x, train=False):
        pe = self.buffers["pe"]
        if x.shape[1:] != pe.shape:
            raise ShapeError(f"expected (B, {pe.shape[0]}, {pe.shape[1]}), got {x.shape}")
        [pe] = _cast_params(x, pe)
        return x + pe

    def backward(self, dy):
        return dy


class LayerNorm(_Norm):
    """Normalization over the last axis with learned gain and bias."""

    axes = (2,)

    def forward(self, x, train=False):
        return self._normalize(x, train)[0]

    def _grad_means(self, dy, dyx, gamma, sum_dy, sum_dyx):
        """mean(dy * gamma) and mean(dy * gamma * xhat) per row: one GEMV each
        of the (B·T, d) views with gamma, kept as a size-1 last axis."""
        rows = (*dy.shape[:2], 1)
        return ((dy.reshape(-1, self.width) @ gamma).reshape(rows) / self.width,
                (dyx.reshape(-1, self.width) @ gamma).reshape(rows) / self.width)


class MultiHeadSelfAttention(Layer):
    """Scaled dot-product self-attention with n_heads and output projection.

    Per head: scores = Q K^T / sqrt(d_k), row-softmax, weighted sum of V;
    heads are concatenated and linearly projected back to d_model. The input
    projections are stored as one Wqkv = [Wq | Wk | Wv] of shape
    (d_model, 3·d_model) with bias bqkv = [bq | bk | bv].

    The softmax weights live in one key-major (T_k, B, n_heads, T_q) buffer,
    written by K Q^T and normalized over axis 0, so each softmax step is a
    few whole-vector operations rather than one reduction per row;
    attention_weights and the products with V read it through its
    (B, n_heads, T_q, T_k) transposed view. The backward's softmax gradient
    lives in a second buffer of the same layout.
    """

    def __init__(self, d_model, n_heads, rng):
        super().__init__()
        d_model, n_heads = _check_sizes(d_model=d_model, n_heads=n_heads)
        if d_model % n_heads != 0:
            raise ConfigError(f"d_model {d_model} not divisible by n_heads {n_heads}")
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_k = d_model // n_heads
        self.scale = 1.0 / math.sqrt(self.d_k)  # a Python float scales in any dtype
        # drawn Wq, Wk, Wv, Wo, then bq, bk, bv, bo: the order fixes every initial value
        w = [_uniform_init(rng, (d_model, d_model), d_model) for _ in range(4)]
        b = [_uniform_init(rng, (d_model,), d_model) for _ in range(4)]
        self.params = {"Wqkv": np.concatenate(w[:3], axis=1), "bqkv": np.concatenate(b[:3]),
                       "Wo": w[3], "bo": b[3]}
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def _split(self, a):
        """(B, T, m·d_model) -> per-head views (m, B, n_heads, T, d_k)."""
        b, t, width = a.shape
        heads = a.reshape(b, t, width // self.d_model, self.n_heads, self.d_k)
        return heads.transpose(2, 0, 3, 1, 4)

    def _attend(self, x, wqkv, bqkv):
        """Per-head (q, k, v, softmax weights) for x; stores nothing."""
        if x.ndim != 3 or x.shape[2] != self.d_model:
            raise ShapeError(f"attention expects (B, T, {self.d_model}), got {x.shape}")
        q, k, v = self._split(_affine(x, wqkv, bqkv))
        b, h, t, _ = q.shape
        w = np.empty((t, b, h, t), dtype=q.dtype)  # w[j, b, h, i]: key j, query i
        np.matmul(k, q.transpose(0, 1, 3, 2), out=w.transpose(1, 2, 0, 3))
        # row softmax in place, each step over the keys of all rows at once
        w *= self.scale
        w -= w.max(axis=0)
        np.exp(w, out=w)
        w /= w.sum(axis=0)
        return q, k, v, w.transpose(1, 2, 3, 0)

    def attention_weights(self, x):
        """Row-softmax weights (B, n_heads, T, T) in x's dtype: a view of a
        new key-major (T, B, n_heads, T) buffer, not a contiguous array."""
        return self._attend(x, *_cast_params(x, self.params["Wqkv"], self.params["bqkv"]))[3]

    def forward(self, x, train=False):
        p = self.params
        wqkv, bqkv, wo, bo = _cast_params(x, p["Wqkv"], p["bqkv"], p["Wo"], p["bo"])
        q, k, v, attn = self._attend(x, wqkv, bqkv)
        ctx = np.empty(x.shape, dtype=q.dtype)  # heads written straight into their merged layout
        np.matmul(attn, v, out=self._split(ctx)[0])
        if train:
            self._cache = (x, q, k, v, attn, ctx, wqkv, wo)
        # in eval mode this frees q | k | v and the weights before the
        # output projection allocates
        del q, k, v, attn
        return _affine(ctx, wo, bo)

    def backward(self, dy):
        x, q, k, v, attn, ctx, wqkv, wo = self._cache
        g = self.grads
        dctx_merged = _affine_backward(ctx, dy, wo, g["Wo"], g["bo"])
        dctx = self._split(dctx_merged)[0]
        # dq | dk | dv, each head written straight into its place in one buffer
        dqkv = np.empty((*x.shape[:2], 3 * self.d_model), dtype=dctx.dtype)
        dq, dk, dv = self._split(dqkv)
        np.matmul(attn.transpose(0, 1, 3, 2), dctx, out=dv)
        # with dv taken, dctx carries 1/sqrt(d_k) into dq and dk, scaled once
        dctx_merged *= self.scale
        # softmax backward, dS = A * (dA - sum(dA * A)), in the forward's
        # key-major layout: ds[j, b, h, i] and a[j, b, h, i] for key j, query i
        a = attn.transpose(3, 0, 1, 2)
        ds = np.empty(a.shape, dtype=dctx.dtype)
        np.matmul(v, dctx.transpose(0, 1, 3, 2), out=ds.transpose(1, 2, 0, 3))
        ds -= np.einsum("jbhi,jbhi->bhi", ds, a)
        ds *= a
        np.matmul(ds.transpose(1, 2, 3, 0), k, out=dq)
        np.matmul(ds.transpose(1, 2, 0, 3), q, out=dk)
        return _affine_backward(x, dqkv, wqkv, g["Wqkv"], g["bqkv"])


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
        return _plus(x, super().forward(x, train))

    def backward(self, dy):
        return _plus(dy, super().backward(dy))


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
