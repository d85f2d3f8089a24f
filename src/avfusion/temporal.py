"""Per-modality temporal encoding and the per-frame prediction head.

The encoder is a small stack of dilated causal convolutions with
identity residual connections, operating on feature matrices laid out
as channels x frames; every level keeps the input's channel count.
Level i (0-based) has dilation 2**i, so the receptive field is
1 + (kernel - 1) * (2**levels - 1).  Each level, the residual block
``relu(causal_conv(x) + bias) + x`` (a causal convolution is a sum of
column-shifted tap products), is one :func:`tcn_level` node.  Features
may carry a leading batch axis (B x channels x frames); the weights are
shared across it.

The head is an MLP applied frame-wise: relu hidden layers, then a tanh
output bounded to [-1, 1] to match the label range.

The sizes come from :class:`~avfusion.model.ModelConfig` (``tcn_levels``,
``tcn_kernel``, ``head_hidden``), which validates them; the parameter
classes take them as plain values and keep one ``weights`` dict (local
name -> leaf tensor), which the forward passes read by name.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exceptions import ConfigError
from .fusion import xavier_uniform


def check_tcn_fits(levels: int, kernel_size: int, seq_len: int):
    """Raise unless every level's largest shift is shorter than the sequence.

    The last level shifts furthest, (kernel_size - 1) * 2**(levels - 1)
    frames.  Past ``seq_len``'s bit length the power alone exceeds
    ``seq_len``, so the exponent is capped there to keep the check cheap.
    """
    if (kernel_size - 1) * 2 ** min(levels - 1, seq_len.bit_length()) >= seq_len:
        raise ConfigError(
            f"a window of {seq_len} frames is too short for tcn_levels {levels} with tcn_kernel "
            f"{kernel_size}: the last level needs (tcn_kernel - 1) * 2**(tcn_levels - 1) frames "
            f"of left padding, fewer than the window; reduce tcn_levels or tcn_kernel"
        )


class TcnParams:
    """Per level i (1-based): a dim_in x dim_in ``level{i}.tap{j}`` per kernel
    position j and a dim_in x 1 ``level{i}.bias``; the output keeps dim_in."""

    def __init__(self, dim_in: int, levels: int, kernel_size: int, rng):
        self.levels = levels
        self.kernel_size = kernel_size
        self.weights = {}
        fan = kernel_size * dim_in
        for level in range(1, levels + 1):
            # The taps are summed, so the effective fan of the conv is
            # kernel_size times the per-tap fan; fold that into the Xavier limit.
            for j in range(kernel_size):
                self.weights[f"level{level}.tap{j}"] = Tensor(xavier_uniform(rng, dim_in, dim_in, fan=(fan, fan)))
            self.weights[f"level{level}.bias"] = Tensor(np.zeros((dim_in, 1)))


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
    check_tcn_fits(params.levels, params.kernel_size, x.cols)
    h = x
    for level in range(1, params.levels + 1):
        taps = [params.weights[f"level{level}.tap{j}"] for j in range(params.kernel_size)]
        h = tcn_level(h, taps, params.weights[f"level{level}.bias"], 2 ** (level - 1))
    return h


def _padded(x: np.ndarray, pad: int) -> np.ndarray:
    """``x`` with ``pad`` zero columns on the left."""
    out = np.zeros((*x.shape[:-1], pad + x.shape[-1]))
    out[..., pad:] = x
    return out


def tcn_level(x: Tensor, taps, bias: Tensor, dilation: int) -> Tensor:
    """One residual level ``relu(causal_conv(x) + bias) + x`` as one node.

    The causal convolution is the sum over taps j of ``taps[j] @ x``
    shifted right by (k-1-j)*dilation columns: ``x`` padded on the left
    by (k-1)*dilation zero columns, tap j reading the L-column view that
    starts at j*dilation.  Output column i sees only input columns <= i,
    the last tap reads the current column, and a shift spanning the whole
    width reads only padding.  The padded input is a temporary: the node
    keeps its parent ``x`` and the relu pattern, and its backward pads
    ``x.value`` again.  It pushes ``g`` to ``x`` (the residual), then,
    with ``G`` the masked grad, ``G`` summed over columns to the bias,
    ``G view_j^T`` to each tap, and the taps' transposed products, added
    into their views in tap order, to ``x``.  These are the products and
    push order of a convolution, bias-column, relu and add node chain, so
    value and grads equal theirs bit for bit.
    """
    k, L = len(taps), x.cols
    pad = (k - 1) * dilation

    def views(padded):
        return [padded[..., j * dilation : j * dilation + L] for j in range(k)]

    inputs = views(_padded(x.value, pad))
    pre = taps[0].value @ inputs[0]
    for j in range(1, k):
        pre += taps[j].value @ inputs[j]
    del inputs
    pre += bias.value
    positive = ad.relu_pattern(pre)
    out = ad.relu_values(pre)
    out += x.value

    def backward(g):
        ad.accumulate(x, g, shared=True)
        g = g * positive
        ad.accumulate(bias, g.sum(axis=-1, keepdims=True))
        inputs = views(_padded(x.value, pad))
        for j, tap in enumerate(taps):
            ad.accumulate(tap, g @ np.swapaxes(inputs[j], -1, -2))
        del inputs
        # the last tap reads the current column, so its term covers every
        # column of x; the others add into their views, in tap order
        grad = _padded(taps[-1].value.T @ g, pad)
        for tap, view in zip(taps[:-1], views(grad)):
            view += tap.value.T @ g
        ad.accumulate(x, grad[..., pad:])

    return Tensor._make(out, (x, bias, *taps), backward)


class HeadParams:
    """Per layer i (1-based): ``layer{i}.weight`` and a ``layer{i}.bias``
    column, from dim_in through the ``hidden`` sizes to one target channel."""

    def __init__(self, dim_in: int, hidden, rng):
        sizes = [dim_in, *hidden, 1]
        self.layers = len(sizes) - 1
        self.weights = {}
        for i, (c_in, c_out) in enumerate(zip(sizes[:-1], sizes[1:]), start=1):
            self.weights[f"layer{i}.weight"] = Tensor(xavier_uniform(rng, c_out, c_in))
            self.weights[f"layer{i}.bias"] = Tensor(np.zeros((c_out, 1)))


def head_forward(fused: Tensor, params: HeadParams) -> Tensor:
    """Frame-wise MLP: relu hiddens, tanh output; returns 1 x L in [-1, 1]."""
    h = fused
    for i in range(1, params.layers + 1):
        h = ad.add_colvec(params.weights[f"layer{i}.weight"] @ h, params.weights[f"layer{i}.bias"])
        h = ad.tanh(h) if i == params.layers else ad.relu(h)
    return h
