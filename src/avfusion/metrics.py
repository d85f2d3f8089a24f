"""Concordance correlation coefficient (CCC) and the CCC-based loss.

CCC measures agreement between predictions and targets:

    ccc = 2 * cov / (var_pred + var_truth + (mean_pred - mean_truth)^2)

All moments are population (1/N) statistics.  The plain :func:`ccc` works
on arrays for evaluation; :func:`ccc_loss` is the training loss 1 - ccc as
a single graph node, optionally restricted to valid frames by a 0/1 mask.
Both take their moments from one helper, so a loss value equals 1 minus
the evaluation score of the same frames bit for bit, and the loss's
backward is the closed-form derivative of ccc.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

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
    """Concordance between two equal-length vectors, in [-1, 1].

    Degenerate input (both vectors constant) yields 0.0; use
    :func:`ccc_flagged` to detect that case explicitly.
    """
    return ccc_flagged(pred, truth)[0]


def ccc_flagged(pred, truth):
    """CCC value plus a flag marking a zero denominator (both inputs constant)."""
    _, cov, denom = _moments(*_flatten_pair(pred, truth))
    if denom == 0.0:
        return 0.0, True
    return float(2.0 * cov / denom), False


def _moments(pred, truth):
    """Target mean, covariance and CCC denominator of two flat vectors."""
    mean_p = pred.mean()
    mean_t = truth.mean()
    var_p = pred.var()
    var_t = truth.var()
    cov = ((pred - mean_p) * (truth - mean_t)).mean()
    denom = var_p + var_t + (mean_p - mean_t) ** 2
    return mean_t, cov, denom


def ccc_loss(pred: ad.Tensor, truth, valid=None) -> ad.Tensor:
    """1 - ccc of a 1 x N prediction row against constant targets, as one
    differentiable 1 x 1 node.

    Frames where ``valid`` is 0 are excluded from every moment and receive
    exactly zero gradient.  The value equals ``1 - ccc_flagged`` over the
    valid frames bit for bit; over those N frames the gradient is

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
    mean_t, cov, denom = _moments(p, t)
    if denom == 0.0:
        return ad.Tensor._make(np.array([[1.0]]), (pred,), lambda g: None)
    value = float(2.0 * cov / denom)

    def backward(g):
        coef = -2.0 * g[0, 0] / (count * denom)
        pred.grad[0, keep] += coef * ((t - mean_t) - value * (p - mean_t))

    return ad.Tensor._make(np.array([[1.0 - value]]), (pred,), backward)


@dataclass
class EvalReport:
    """Pooled evaluation outcome for one model on one clip set.

    ``ccc_valence`` / ``ccc_arousal`` are pooled over all valid frames;
    a channel the model was not trained for is None.  ``per_clip`` keeps
    per-clip CCCs for diagnostics.
    """

    ccc_valence: float | None = None
    ccc_arousal: float | None = None
    frame_count: int = 0
    fold: int | None = None
    per_clip: dict = field(default_factory=dict)
    degenerate: bool = False

    CSV_HEADER = ["fold", "mode", "M", "T", "ccc_v", "ccc_a"]

    def csv_row(self, mode: str, depth: int, temperature: float):
        def cell(x):
            return "" if x is None else repr(float(x))

        return [
            "" if self.fold is None else str(self.fold),
            mode,
            str(depth),
            repr(temperature),
            cell(self.ccc_valence),
            cell(self.ccc_arousal),
        ]

    @staticmethod
    def rows_to_csv(rows) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(EvalReport.CSV_HEADER)
        writer.writerows(rows)
        return buf.getvalue()
