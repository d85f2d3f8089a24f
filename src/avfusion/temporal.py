"""Per-modality temporal encoding and the per-frame prediction head.

The encoder is a small stack of dilated causal convolutions with
identity residual connections, operating on feature matrices laid out
as channels x frames; every level keeps the input's channel count.
Level i (0-based) has dilation 2**i, so the receptive field is
1 + (kernel - 1) * (2**levels - 1).  Each convolution is one
:func:`~avfusion.autodiff.causal_conv` node (a sum of column-shifted
tap products) plus a bias.  Features may carry a leading batch axis
(B x channels x frames); the weights are shared across it.

The head is an MLP applied frame-wise: relu hidden layers, then a tanh
output bounded to [-1, 1] to match the label range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exceptions import ConfigError
from .fusion import xavier_uniform


@dataclass
class TcnConfig:
    levels: int = 2
    kernel_size: int = 3

    def __post_init__(self):
        if self.levels < 1:
            raise ConfigError(f"levels must be >= 1, got {self.levels}")
        if self.kernel_size < 2:
            raise ConfigError(f"kernel_size must be >= 2, got {self.kernel_size}")

    def receptive_field(self):
        return 1 + (self.kernel_size - 1) * (2**self.levels - 1)


class TcnParams:
    """Per level: one dim_in x dim_in tap matrix per kernel position and a
    dim_in x 1 bias; the output keeps the input's dimension."""

    def __init__(self, dim_in: int, config: TcnConfig, rng=None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.config = config
        self.taps = []
        self.biases = []
        k = config.kernel_size
        for _ in range(config.levels):
            # The k taps are summed, so the effective fan of the conv is k
            # times the per-tap fan; fold that into the Xavier limit.
            self.taps.append(
                [
                    Tensor(xavier_uniform(rng, dim_in, dim_in, fan=(k * dim_in, k * dim_in)))
                    for _ in range(k)
                ]
            )
            self.biases.append(Tensor(np.zeros((dim_in, 1))))

    def parameters(self, prefix="") -> dict:
        out = {}
        for level, (taps, bias) in enumerate(zip(self.taps, self.biases), start=1):
            for j, tap in enumerate(taps):
                out[f"{prefix}level{level}.tap{j}"] = tap
            out[f"{prefix}level{level}.bias"] = bias
        for name, tensor in out.items():
            tensor.name = tensor.name or name
        return out


def apply_dropout(x: Tensor, rate: float, rng) -> Tensor:
    """Inverted dropout; identity when rate is 0 or no rng is supplied (eval).

    One draw over a B x d x L batch is the same stream as B draws of
    d x L in turn.
    """
    if rate == 0.0 or rng is None:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.value.dtype)
    return ad.mul_const(x, keep / (1.0 - rate))


def tcn_forward(x: Tensor, params: TcnParams) -> Tensor:
    """Causal dilated convolution stack; output frame i sees only frames <= i.

    Tap j at dilation q reads the frame shifted right by (kernel-1-j)*q,
    so the last tap reads the current frame.  Left zero-padding keeps the
    length; a shift spanning the whole sequence is a configuration error.
    ``x`` is d x L, or B x d x L for a batch of windows.
    """
    config = params.config
    L = x.cols
    h = x
    for level in range(config.levels):
        dilation = 2**level
        max_offset = (config.kernel_size - 1) * dilation
        if max_offset >= L:
            raise ConfigError(
                f"level {level + 1} needs {max_offset} frames of left padding "
                f"but the sequence has only {L}; reduce levels or kernel_size"
            )
        conv = ad.causal_conv(h, params.taps[level], dilation)
        h = ad.relu(ad.add_colvec(conv, params.biases[level])) + h
    return h


@dataclass
class HeadConfig:
    hidden: tuple = (16,)

    def __post_init__(self):
        if any(n < 1 for n in self.hidden):
            raise ConfigError(f"hidden sizes must be >= 1, got {self.hidden}")


class HeadParams:
    def __init__(self, dim_in: int, config: HeadConfig, rng=None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.config = config
        sizes = [dim_in, *config.hidden, 1]  # one target channel
        self.weights = []
        self.biases = []
        for c_in, c_out in zip(sizes[:-1], sizes[1:]):
            self.weights.append(Tensor(xavier_uniform(rng, c_out, c_in)))
            self.biases.append(Tensor(np.zeros((c_out, 1))))

    def parameters(self, prefix="") -> dict:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases), start=1):
            out[f"{prefix}layer{i}.weight"] = w
            out[f"{prefix}layer{i}.bias"] = b
        for name, tensor in out.items():
            tensor.name = tensor.name or name
        return out


def head_forward(fused: Tensor, params: HeadParams) -> Tensor:
    """Frame-wise MLP: relu hiddens, tanh output; returns 1 x L in [-1, 1]."""
    h = fused
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = ad.add_colvec(w @ h, b)
        h = ad.tanh(h) if i == last else ad.relu(h)
    return h
