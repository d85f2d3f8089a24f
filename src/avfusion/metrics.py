"""Concordance correlation coefficient (CCC) and the CCC-based loss.

CCC measures agreement between predictions and targets:

    ccc = 2 * cov / (var_pred + var_truth + (mean_pred - mean_truth)^2)

All moments are population (1/N) statistics.  The plain :func:`ccc` works
on arrays for evaluation; :func:`ccc_loss` builds a differentiable graph
node for training, optionally restricted to valid frames by a 0/1 mask.
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
    pred, truth = _flatten_pair(pred, truth)
    mean_p = pred.mean()
    mean_t = truth.mean()
    var_p = pred.var()
    var_t = truth.var()
    cov = ((pred - mean_p) * (truth - mean_t)).mean()
    denom = var_p + var_t + (mean_p - mean_t) ** 2
    if denom == 0.0:
        return 0.0, True
    return float(2.0 * cov / denom), False


def ccc_node(pred: ad.Tensor, truth, valid=None):
    """Differentiable CCC of a 1 x N prediction row against constant targets.

    Parameters
    ----------
    pred : Tensor
        1 x N graph node.
    truth : array-like
        Target vector, length N.
    valid : array-like of 0/1, optional
        Frames with 0 are excluded from every moment and receive exactly
        zero gradient.

    Returns
    -------
    (Tensor, bool)
        1 x 1 CCC node and a degenerate flag.  When the denominator is
        zero the node is the constant 0 and carries no gradient.
    """
    truth = np.asarray(truth, dtype=np.float64).reshape(1, -1)
    if pred.rows != 1 or pred.cols != truth.size:
        raise DimensionError(
            f"ccc_node: prediction {pred.shape} does not match {truth.size} targets"
        )
    if valid is None:
        mask = np.ones_like(truth)
    else:
        mask = np.asarray(valid, dtype=np.float64).reshape(1, -1)
        if mask.size != truth.size:
            raise DimensionError(
                f"ccc_node: mask length {mask.size} does not match {truth.size} targets"
            )
    count = float(mask.sum())
    if count < 2:
        raise DimensionError(f"ccc_node: need at least 2 valid frames, got {int(count)}")

    truth_masked = truth * mask
    mean_t = float(truth_masked.sum() / count)
    var_t = float((truth_masked * truth).sum() / count - mean_t**2)

    masked = ad.mul_const(pred, mask)
    mean_p = masked.sum() / ad.Tensor([[count]])
    sq = ad.mul_const(mul_self(pred), mask).sum() / ad.Tensor([[count]])
    var_p = sq - mul_self(mean_p)
    cross = ad.mul_const(pred, truth_masked).sum() / ad.Tensor([[count]])
    cov = cross - mean_p * mean_t

    shift = mean_p - mean_t
    denom = var_p + mul_self(shift) + var_t
    if denom.item() == 0.0:
        return ad.constant([[0.0]]), True
    return ad.div_scalar(cov * 2.0, denom), False


def mul_self(x: ad.Tensor) -> ad.Tensor:
    return ad.mul(x, x)


def ccc_loss(pred: ad.Tensor, truth, valid=None, return_flags=False):
    """1 - ccc of one target channel, as a differentiable 1 x 1 tensor.

    Arguments are those of :func:`ccc_node`.  With ``return_flags`` the
    result is ``(loss, degenerate)``.
    """
    node, degenerate = ccc_node(pred, truth, valid=valid)
    loss = 1.0 - node
    if return_flags:
        return loss, degenerate
    return loss


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
