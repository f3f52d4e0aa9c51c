"""Minimal differentiable compute: numpy layers with manual reverse-mode
gradients, an Adam optimizer, and a deterministic checkpoint format.

Everything runs in float64. The layer contract:

- forward(x, train=True) caches whatever backward() needs; backward() uses
  the cache of the last train-mode forward.
- forward(x, train=False) stores nothing: it assigns no attribute, so
  inference may run between a train forward and its backward, or over a
  model shared with evaluation, without changing any result.
- Trainable arrays live in `params` (gradients in `grads`); non-trainable
  state, such as BatchNorm running statistics, lives in `buffers` and is
  updated in place.
- Layer.walk(prefix) is the one traversal of the layer tree; named_params,
  named_grads, zero_grads and state_tensors are built on it.
- Composition is Sequential (a chain) and Residual (x + chain(x)).
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
from .gradcheck import central_difference_grad, relative_error

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
    "central_difference_grad",
    "load_checkpoint",
    "positional_encoding",
    "relative_error",
    "save_checkpoint",
]
