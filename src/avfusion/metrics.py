"""Concordance correlation coefficient (CCC) and the CCC-based loss.

CCC measures agreement between predictions and targets:

    ccc = 2 * cov / (var_pred + var_truth + (mean_pred - mean_truth)^2)

All moments are population (1/N) statistics.  The plain :func:`ccc` works
on arrays for evaluation; :func:`ccc_loss` is the training loss 1 - ccc as
a single graph node, optionally restricted to valid frames by a 0/1 mask.
Both take their moments from one helper, so a loss value equals 1 minus
the evaluation score of the same frames bit for bit, and the loss's
backward is the closed-form derivative of ccc.  Both inputs constant
make the denominator zero: ccc is then 0.0, and the loss 1.0, whose
backward pushes a zero gradient.  Validation, the fold reports and
``eval`` score with ``training._pooled_ccc``: this ccc of the clips'
predictions pooled over their valid frames.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .exceptions import DimensionError


def _flatten_pair(pred, truth):
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    truth = np.asarray(truth, dtype=np.float64).reshape(-1)
    if pred.size != truth.size:
        raise DimensionError(f"ccc: lengths differ, {pred.size} vs {truth.size}")
    if pred.size < 2:
        raise DimensionError(f"ccc: need at least 2 samples, got {pred.size}")
    return pred, truth


def ccc(pred, truth) -> float:
    """Concordance between two equal-length vectors, in [-1, 1]; 0.0 when
    the denominator is zero (both vectors constant)."""
    return float(_moments(*_flatten_pair(pred, truth))[-1])


def _moments(pred, truth):
    """Target mean, CCC denominator and CCC of two flat vectors, or of
    every row of a stack of predictions against one target vector (the
    moments run over the last axis); the CCC is 0.0 where the denominator
    is zero."""
    mean_p = pred.mean(axis=-1, keepdims=True)
    mean_t = truth.mean(axis=-1, keepdims=True)
    var_p = pred.var(axis=-1)
    var_t = truth.var(axis=-1)
    cov = ((pred - mean_p) * (truth - mean_t)).mean(axis=-1)
    denom = var_p + var_t + (mean_p[..., 0] - mean_t[..., 0]) ** 2
    score = np.divide(2.0 * cov, denom, out=np.zeros_like(denom), where=denom != 0.0)
    return mean_t[..., 0], denom, score


def ccc_loss(pred: ad.Tensor, truth, valid=None) -> ad.Tensor:
    """1 - ccc of a 1 x N prediction row against constant targets, as one
    differentiable 1 x 1 node.

    Frames where ``valid`` is 0 are excluded from every moment and receive
    exactly zero gradient.  The value equals ``1 - ccc`` over the valid
    frames bit for bit; over those N frames the gradient is

        d(1 - ccc)/dp_i = -2 / (N * denom) * ((t_i - mean_t) - ccc * (p_i - mean_t))

    A zero denominator (both inputs constant) gives ccc 0 and a zero
    gradient.
    """
    truth = np.asarray(truth, dtype=np.float64).reshape(-1)
    if pred.shape != (1, truth.size):
        raise DimensionError(
            f"ccc_loss: prediction {pred.shape} does not match {truth.size} targets"
        )
    if valid is None:
        keep = np.ones(truth.size, dtype=bool)
    else:
        keep = np.asarray(valid).reshape(-1) != 0
        if keep.size != truth.size:
            raise DimensionError(
                f"ccc_loss: mask length {keep.size} does not match {truth.size} targets"
            )
    count = int(keep.sum())
    if count < 2:
        raise DimensionError(f"ccc_loss: need at least 2 valid frames, got {count}")
    p = pred.value[0, keep]
    t = truth[keep]
    mean_t, denom, value = _moments(p, t)

    def backward(g):
        grad = np.zeros_like(pred.value)
        if denom != 0.0:
            coef = -2.0 * g[0, 0] / (count * denom)
            grad[0, keep] = coef * ((t - mean_t) - value * (p - mean_t))
        ad.accumulate(pred, grad)

    return ad.Tensor._make(np.array([[1.0 - value]]), (pred,), backward)

