"""Minimal differentiable compute: numpy layers with manual reverse-mode
gradients, an Adam optimizer, and a deterministic checkpoint format.

One dtype rule holds in both modes: a layer takes a floating-point batch
and computes in its dtype around float64 master weights. forward(x, train)
casts each layer's params and buffers (BatchNorm1d's running statistics,
PositionalEncodingAdd's table) to x's dtype once per call; a train-mode
forward keeps the casts for backward, which returns gradients in that
dtype. The one exception is GlobalAvgPool's output: it accumulates its
mean in float64 and returns float64, so a float32 batch runs every
per-step layer in float32 and the head after the pool, any least-squares
fit on the pooled features, the fusion and the metrics in float64; its
backward casts the gradient back to its input's dtype. An affine backward
casts its incoming dy to its cached input's dtype. Param gradients are
added to the float64 `grads`, so Adam, the params and the checkpoint stay
float64, and a gradient check, which feeds float64 batches, runs in
float64 throughout. The layer contract:

- forward(x, train=True) caches whatever backward() needs; backward() uses
  the cache of the last train-mode forward.
- forward(x, train=False) stores nothing: it assigns no attribute, so
  inference may run between a train forward and its backward, or over a
  model shared with evaluation, without changing any result.
- A layer writes only to arrays it allocated, never to its input or its
  upstream gradient; further arithmetic runs in place on its own output.
  An input may therefore be a read-only strided view whose rows overlap in
  memory, as a whole split's WindowSet.inputs is, and gives the same bits
  as its contiguous copy.
- A train-mode cache holds no more than backward needs: Dropout keeps its
  keep-mask as bool, one byte an element, and rescales its output in place.
- Trainable arrays live in `params` (gradients in `grads`); non-trainable
  arrays, BatchNorm running statistics and the positional table, live in
  `buffers`, and those that change are updated in place.
- Layer.walk(prefix) is the one traversal of the layer tree; named_params,
  named_grads, zero_grads and state_tensors are built on it.
- Composition is Sequential (a chain) and Residual (x + chain(x)).
- An outermost chain's eval forward runs a batch of 64 rows or more as
  min(workers, rows // 32) fixed contiguous row blocks, each starting at a
  multiple of 32 rows, the first on the calling thread and the rest on a
  module-owned thread pool, and gives the serial loop's bytes. workers is
  the CPUs in the affinity mask, so one CPU runs the serial loop; a 32-row
  batch split 16 + 16 gained nothing. Train mode, nested chains, smaller
  batches and a chain whose layers have a forward set on the instance (a
  tracer's wrapper) run the serial loop. Sequential's docstring gives the
  measurements.
- Each kernel exists once: one affine gradient (Dense, Conv1d and the
  attention projections; attention stores its input projections as one
  parameter Wqkv = [Wq | Wk | Wv] of shape (d_model, 3·d_model), with bias
  bqkv, so one affine map gives q | k | v and one gradient goes back
  through it), one normalization (BatchNorm1d over batch and
  time, LayerNorm over the last axis), one tap rule for Conv1d, which
  multiplies each step's patch by W of shape (kernel·c_in, c_out),
  tap-major, and one softmax: attention writes its scores into a key-major
  (T_k, B, n_heads, T_q) buffer and normalizes it over axis 0;
  attention_weights returns the (B, n_heads, T_q, T_k) view of that buffer.
  The backward runs the softmax gradient in the same key-major layout: it
  writes V dctx^T into a new key-major buffer, sums over keys on axis 0,
  and reads dq and dk through transposed views.
- Conv1d is bias-free: every Conv1d feeds a BatchNorm1d, whose batch mean
  cancels a per-channel constant, so a bias there would get only rounding
  noise as its gradient. Dense is the one layer that is an affine map with a
  bias; attention's projections add theirs inside MultiHeadSelfAttention.
- A constructor checks its sizes and rates by the number rule of
  gridcast.errors (check_int, check_real): ConfigError names the argument.
- A leaf layer raises ShapeError, naming the expected and the actual shape,
  for an input of the wrong rank or width. Every forward, in either mode,
  takes floating-point input only: for any other dtype, integers and bools
  included, it raises ShapeError naming the dtype.
"""

from .layers import (
    BatchNorm1d,
    Conv1d,
    ConvBlock,
    Dense,
    Dropout,
    EncoderBlock,
    GlobalAvgPool,
    Layer,
    LayerNorm,
    MaxPool1d,
    MultiHeadSelfAttention,
    PositionalEncodingAdd,
    ReLU,
    Residual,
    Sequential,
    positional_encoding,
)
from .optim import Adam
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "Adam",
    "BatchNorm1d",
    "Conv1d",
    "ConvBlock",
    "Dense",
    "Dropout",
    "EncoderBlock",
    "GlobalAvgPool",
    "Layer",
    "LayerNorm",
    "MaxPool1d",
    "MultiHeadSelfAttention",
    "PositionalEncodingAdd",
    "ReLU",
    "Residual",
    "Sequential",
    "load_checkpoint",
    "positional_encoding",
    "save_checkpoint",
]
