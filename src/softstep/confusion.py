"""Per-sample confusion-matrix memberships and batch-level counts.

Hard counts threshold each prediction (ties to the positive class) and
partition the batch into TP/FP/FN/TN. Soft counts replace the threshold
with a step surrogate so each sample contributes a weight in [0, 1] to
every cell, which makes the counts differentiable in the predictions.

The soft branch conditions are applied exactly as defined, e.g. a sample
contributes surrogate(p) to soft TP whenever its label is positive OR its
prediction falls below the threshold. One consequence is a small positive
soft-TP contribution from confidently-rejected negatives; the four soft
values of one sample also do not generally sum to 1. Both behaviors are
intentional and covered by tests.

Gradients are taken with respect to predictions only; the threshold is a
constant of the loss, never trained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .heaviside import ApproximationStack


@dataclass(frozen=True)
class LabeledBatch:
    """Predictions in [0,1] paired with binary labels, equal lengths >= 1."""

    predictions: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        preds = np.asarray(self.predictions, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        if preds.ndim != 1 or labels.ndim != 1:
            raise ValueError("predictions and labels must be 1-D arrays")
        if len(preds) != len(labels):
            raise ValueError(
                f"length mismatch: {len(preds)} predictions, {len(labels)} labels")
        if len(preds) == 0:
            raise ValueError("batch must contain at least one sample")
        # NaN fails both comparisons and +-inf one, so this also checks
        # that every prediction is finite
        if not (preds.min() >= 0.0 and preds.max() <= 1.0):
            raise ValueError("predictions must be finite and lie in [0, 1]")
        # x * (x - 1) is 0 exactly for x in {0, 1} and nonzero (or NaN)
        # for every other double
        if np.count_nonzero(labels * (labels - 1.0)):
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "predictions", preds)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _of_checked(cls, predictions, labels) -> "LabeledBatch":
        """The batch, unchecked: training passes logistic outputs, in [0, 1]
        once ``_finite_or_diverged`` finds them finite, and Dataset labels."""
        batch = object.__new__(cls)
        batch.__dict__.update(predictions=predictions, labels=labels)
        return batch

    @property
    def n(self) -> int:
        return len(self.predictions)


@dataclass(frozen=True)
class SoftCounts:
    tp: float
    fp: float
    fn: float
    tn: float


@dataclass(frozen=True)
class HardCounts:
    tp: int
    fp: int
    fn: int
    tn: int


@dataclass(frozen=True)
class SoftCountGrads:
    """Per-sample d(count)/d(prediction_i), one array per confusion cell."""

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    tn: np.ndarray


# Sign with which the surrogate h enters each soft cell (columns tp, fp, fn,
# tn) for each branch group 2 * label + (p < tau): +1 where the cell takes
# h(p), -1 where it takes 1 - h(p).
CELL_SIGNS = np.array([
    [-1.0, 1.0, -1.0, -1.0],   # negative, p >= tau
    [1.0, 1.0, 1.0, -1.0],     # negative, p < tau
    [1.0, -1.0, -1.0, -1.0],   # positive, p >= tau
    [1.0, 1.0, -1.0, 1.0],     # positive, p < tau
])
_TAKES_H = (CELL_SIGNS > 0.0).astype(float)
_TAKES_COMPLEMENT = 1.0 - _TAKES_H


class SoftConfusion(NamedTuple):
    """Soft counts at T thresholds plus what their gradient needs.

    ``counts`` is (T, 4) with columns tp, fp, fn, tn. ``cells`` gives each
    (threshold t, sample) pair its flat group id 4 t + 2 label + (p < tau_t)
    and ``slopes`` the surrogate derivative there, both (T, n).
    """

    counts: np.ndarray
    cells: np.ndarray
    slopes: np.ndarray

    def grad(self, d_counts) -> np.ndarray:
        """Per-sample gradient of a loss, given its (T, 4) d(loss)/d(counts)."""
        per_group = d_counts @ CELL_SIGNS.T
        return (per_group.ravel()[self.cells] * self.slopes).sum(axis=0)


def soft_confusion(batch: LabeledBatch,
                   stack: ApproximationStack) -> SoftConfusion:
    """Soft counts of ``batch`` at every threshold of an ApproximationStack.

    The surrogate and its derivative are evaluated once as (T, n) arrays;
    two weighted bincounts over the group ids sum h and 1 - h per group,
    and each cell adds the groups' sums with the signs of CELL_SIGNS.
    """
    h, slopes = stack.value_and_grad(batch.predictions)
    n_cells = 4 * len(stack.tau)
    cells = (np.arange(0, n_cells, 4)[:, None]
             + 2 * batch.labels.astype(np.intp))
    cells += batch.predictions < stack.tau
    flat = cells.ravel()
    sums_h = np.bincount(flat, h.ravel(), n_cells).reshape(-1, 4)
    sums_rest = np.bincount(flat, (1.0 - h).ravel(), n_cells).reshape(-1, 4)
    counts = sums_h @ _TAKES_H + sums_rest @ _TAKES_COMPLEMENT
    return SoftConfusion(counts, cells, slopes)


def aggregate_soft(batch: LabeledBatch, approx) -> SoftCounts:
    """Soft counts at a single approximation's threshold."""
    counts = soft_confusion(batch, ApproximationStack([approx])).counts[0]
    return SoftCounts(*(float(c) for c in counts))


def aggregate_soft_grad(batch: LabeledBatch, approx) -> SoftCountGrads:
    """d(soft count)/d(p_i) for every sample and every confusion cell.

    Each entry is +surrogate'(p_i) where the cell takes the surrogate and
    -surrogate'(p_i) where it takes the complement (see CELL_SIGNS).
    """
    soft = soft_confusion(batch, ApproximationStack([approx]))
    per_cell = CELL_SIGNS[soft.cells[0]] * soft.slopes[0][:, None]
    return SoftCountGrads(*per_cell.T)


def hard_counts(predicted: np.ndarray, positive: np.ndarray) -> HardCounts:
    """The partition of a boolean predicted-positive mask by boolean labels."""
    tp = int(np.count_nonzero(predicted & positive))
    fp = int(np.count_nonzero(predicted)) - tp
    fn = int(np.count_nonzero(positive)) - tp
    return HardCounts(tp=tp, fp=fp, fn=fn, tn=len(predicted) - tp - fp - fn)


def aggregate_hard(batch: LabeledBatch, tau: float) -> HardCounts:
    """Threshold predictions at tau (ties positive) and count the partition."""
    return hard_counts(batch.predictions >= tau, batch.labels == 1.0)
