"""Metrics over confusion counts and the differentiable losses built on them.

Evaluation metrics (accuracy, precision, recall, F-beta, AUROC) are computed
from hard counts and reported over a threshold grid. Training losses replace
hard counts with soft ones, so every loss here is differentiable in the
predictions and is defined as 1 - metric, keeping loss values in [0, 1]
(BCE is the exception, it is the usual log loss).

Every ratio is guarded by adding ``EPSILON`` to the denominator; a metric
whose unguarded denominator is zero is flagged undefined rather than
silently reported as a number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .confusion import LabeledBatch, aggregate_hard, soft_confusion
from .heaviside import APPROXIMATIONS, cached_stack

EPSILON = 1e-7
TAU_GRID_DEFAULT = tuple(i / 10 for i in range(1, 10))

FORMATS = ("tsv", "json")


class UndefinedMetricError(ValueError):
    """Metric requested on a batch where it has no value (e.g. one-class AUROC)."""


@dataclass(frozen=True)
class MetricValue:
    """One scored metric; ``tau`` is a threshold, "mean", or None (threshold-free)."""

    name: str
    value: float
    tau: float | str | None = None
    defined: bool = True

    def __post_init__(self):
        if self.defined and not -1e-9 <= self.value <= 1.0 + 1e-9:
            raise ValueError(
                f"{self.name} defined but out of range: {self.value}")


@dataclass(frozen=True)
class LossConfig:
    """Which objective to train on and the settings it needs.

    ``tau_train`` drives the single-threshold losses (accuracy, f_beta),
    ``tau_grid`` the threshold sweep inside the AUROC loss.
    ``approximation`` picks the step surrogate family: "piecewise" or
    "sigmoid_fit" (a logistic fitted to the piecewise curve).
    """

    objective: str = "f_beta"
    beta: float = 1.0
    tau_train: float = 0.5
    tau_grid: tuple[float, ...] = TAU_GRID_DEFAULT
    delta: float = 0.1
    approximation: str = "piecewise"

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, "
                             f"got {self.objective!r}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if math.isinf(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not self.tau_grid:
            raise ValueError("tau_grid must not be empty")
        # the losses' surrogates, built once and kept as train_stack and
        # grid_stack (outside equality, hashing and repr): HeavisideParams'
        # rules, the family check and any fit refuse a bad setting here
        for name, taus in (("train_stack", (self.tau_train,)),
                           ("grid_stack", self.tau_grid)):
            object.__setattr__(self, name, cached_stack(
                self.approximation, tuple(taus), self.delta))


def _guarded(name, num, den, tau=None, guard=EPSILON):
    if den <= 0.0:
        return MetricValue(name, 0.0, tau=tau, defined=False)
    return MetricValue(name, float(num / (den + guard)), tau=tau)


def precision(counts, tau=None) -> MetricValue:
    return _guarded("precision", counts.tp, counts.tp + counts.fp, tau)


def recall(counts, tau=None) -> MetricValue:
    return _guarded("recall", counts.tp, counts.tp + counts.fn, tau)


def accuracy(counts, tau=None) -> MetricValue:
    num = counts.tp + counts.tn
    den = counts.tp + counts.tn + counts.fp + counts.fn
    return _guarded("accuracy", num, den, tau)


def _fbeta_weights(beta: float):
    """F-beta's weights w and v on fn and fp, and its guard, for beta > 0.

    F = (1 + β²)·tp / ((1 + β²)·tp + β²·fn + fp) = tp / (tp + w·fn + v·fp)
    with w = 1 / (1 + β⁻²) and v = 1 / (1 + β²) = 1 - w, formed apart lest
    it round to 0; the guard EPSILON·v is floored so 1 / den² stays finite.
    """
    inv = 1.0 / beta
    v = 1.0 / (1.0 + beta * beta)
    return 1.0 / (1.0 + inv * inv), v, max(EPSILON * v, 1e-150)


def f_beta(counts, beta: float = 1.0, tau=None) -> MetricValue:
    """F-beta, equal to the precision/recall harmonic mean."""
    w_fn, w_fp, guard = _fbeta_weights(beta)
    den = counts.tp + w_fn * counts.fn + w_fp * counts.fp
    return _guarded(f"f_{beta:g}", counts.tp, den, tau, guard)


def fbeta_loss(batch: LabeledBatch, config: LossConfig):
    """1 - soft F-beta at ``config.tau_train`` and its gradient."""
    soft = soft_confusion(batch, config.train_stack)
    # the head in Python floats: numpy's operations in its order, same bits
    ((tp, fp, fn, _),) = soft.counts.tolist()
    w_fn, w_fp, guard = _fbeta_weights(config.beta)
    den = tp + w_fn * fn + w_fp * fp + guard
    scale = 1.0 / (den * den)
    d_counts = ((-(w_fn * fn + w_fp * fp + guard) * scale,
                 w_fp * tp * scale, w_fn * tp * scale, 0.0 * tp),)
    return 1.0 - tp / den, soft.grad(np.array(d_counts))


def accuracy_loss(batch: LabeledBatch, config: LossConfig):
    """1 - soft accuracy at ``config.tau_train`` and its gradient."""
    soft = soft_confusion(batch, config.train_stack)
    ((tp, fp, fn, tn),) = soft.counts.tolist()
    correct = tp + tn
    den = correct + fp + fn + EPSILON
    scale = 1.0 / (den * den)
    d_correct = (correct - den) * scale
    d_wrong = correct * scale
    d_counts = ((d_correct, d_wrong, d_wrong, d_correct),)
    return 1.0 - correct / den, soft.grad(np.array(d_counts))


def _require_both_classes(batch):
    n_pos = np.count_nonzero(batch.labels)
    if n_pos == 0 or n_pos == batch.n:
        raise UndefinedMetricError(
            "AUROC needs at least one positive and one negative sample")


def auroc_soft_loss(batch: LabeledBatch, config: LossConfig):
    """1 - area under the soft ROC curve swept over ``config.tau_grid``.

    For each grid threshold the soft counts give one (FPR, TPR) point;
    anchors (0,0) and (1,1) close the curve and the trapezoid rule
    integrates it. The gradient treats the FPR sort order as fixed, which
    is exact almost everywhere since both rates move continuously with
    the predictions.
    """
    _require_both_classes(batch)
    soft = soft_confusion(batch, config.grid_stack)
    # the head in Python floats over the T thresholds' (tp, fp, fn, tn);
    # sorted() is argsort's stable order
    counts = soft.counts.tolist()
    fpr_den = [fp + tn + EPSILON for _, fp, _, tn in counts]
    tpr_den = [tp + fn + EPSILON for tp, _, fn, _ in counts]
    fpr = [c[1] / den for c, den in zip(counts, fpr_den)]
    order = sorted(range(len(counts)), key=fpr.__getitem__)
    xs = [0.0] + [fpr[t] for t in order] + [1.0]
    ys = [0.0] + [counts[t][0] / tpr_den[t] for t in order] + [1.0]
    # np.trapezoid's own terms, summed by numpy (pairwise above 8 terms)
    area = float(np.array([(xs[j + 1] - xs[j]) * (ys[j + 1] + ys[j]) / 2.0
                           for j in range(len(xs) - 1)]).sum())
    # trapezoid area derivative at each interior vertex, neighbors fixed,
    # in threshold order and divided by the rate denominators
    d_counts = [None] * len(counts)
    for j, t in enumerate(order):
        tp, fp, fn, tn = counts[t]
        da_dx = 0.5 * (ys[j] - ys[j + 2]) / (fpr_den[t] * fpr_den[t])
        da_dy = 0.5 * (xs[j + 2] - xs[j]) / (tpr_den[t] * tpr_den[t])
        d_counts[t] = (-(fn + EPSILON) * da_dy, -(tn + EPSILON) * da_dx,
                       tp * da_dy, fp * da_dx)
    return 1.0 - area, soft.grad(np.array(d_counts))


def bce_loss(batch: LabeledBatch, config: LossConfig | None = None):
    """Mean binary cross-entropy with clamped predictions, plus gradient."""
    p = np.clip(batch.predictions, EPSILON, 1.0 - EPSILON)
    y = batch.labels
    loss = float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log1p(-p))))
    grad = (p - y) / (p * (1.0 - p)) / batch.n
    grad[p != batch.predictions] = 0.0  # clamped
    return loss, grad


# each objective's loss; LossConfig accepts exactly these names
_LOSSES = {"accuracy": accuracy_loss, "f_beta": fbeta_loss,
          "auroc": auroc_soft_loss, "bce": bce_loss}
OBJECTIVES = tuple(_LOSSES)


def objective_loss(batch: LabeledBatch, config: LossConfig):
    """The loss named by ``config.objective`` and its gradient."""
    return _LOSSES[config.objective](batch, config)


def auroc_hard(batch: LabeledBatch) -> float:
    """Rank-statistic AUROC: P(random positive outranks random negative).

    Ties in the predictions count half. Computed from average ranks, which
    is O(n log n) instead of enumerating all positive-negative pairs.
    """
    _require_both_classes(batch)
    preds = batch.predictions
    n = batch.n
    sorter = np.argsort(preds, kind="mergesort")
    sorted_p = preds[sorter]
    uniq, first = np.unique(sorted_p, return_index=True)
    group_sizes = np.diff(np.append(first, n))
    group_idx = np.searchsorted(uniq, sorted_p)
    avg_rank_sorted = first[group_idx] + (group_sizes[group_idx] + 1) / 2.0
    ranks = np.empty(n)
    ranks[sorter] = avg_rank_sorted
    positive = batch.labels == 1.0
    n_pos = int(np.sum(positive))
    n_neg = n - n_pos
    rank_sum = float(np.sum(ranks[positive]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def json_text(payload) -> str:
    """An artifact's JSON: indented, keys sorted, one final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class MetricTable:
    """Evaluation report: per-threshold rows, mean rows, and the AUROC row."""

    rows: tuple[MetricValue, ...]
    excluded_from_mean: dict[str, int] = field(default_factory=dict)

    @staticmethod
    def _format_tau(tau):
        if tau is None:
            return ""
        if isinstance(tau, str):
            return tau
        return "%.12g" % tau

    def to_tsv(self) -> str:
        lines = ["metric\ttau\tvalue\tdefined"]
        for row in self.rows:
            lines.append("%s\t%s\t%.12g\t%s" % (
                row.name, self._format_tau(row.tau), row.value,
                "true" if row.defined else "false"))
        dropped = {k: v for k, v in self.excluded_from_mean.items() if v}
        if dropped:
            note = ", ".join(f"{k}={v}" for k, v in sorted(dropped.items()))
            lines.append(f"# excluded_from_mean: {note}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "rows": [
                {"metric": r.name, "tau": r.tau, "value": r.value,
                 "defined": r.defined}
                for r in self.rows
            ],
            "excluded_from_mean": self.excluded_from_mean,
        }

    def to_json(self) -> str:
        return json_text(self.to_dict())


def evaluate_over_grid(batch: LabeledBatch, tau_grid=TAU_GRID_DEFAULT,
                       beta: float = 1.0) -> MetricTable:
    """Hard metrics at every grid threshold, their means, and hard AUROC.

    Undefined per-threshold entries are excluded from the mean (not
    zero-filled); the exclusion counts are part of the table.
    """
    if not tau_grid:
        raise ValueError("tau_grid must not be empty")
    metric_fns = {"accuracy": accuracy, "precision": precision,
                  "recall": recall,
                  f"f_{beta:g}": lambda c, t: f_beta(c, beta, tau=t)}
    counts_by_tau = [(tau, aggregate_hard(batch, tau)) for tau in tau_grid]
    rows = []
    excluded = {}
    for name, fn in metric_fns.items():
        per_tau = [fn(counts, tau) for tau, counts in counts_by_tau]
        rows.extend(per_tau)
        defined_vals = [m.value for m in per_tau if m.defined]
        excluded[name] = len(per_tau) - len(defined_vals)
        if defined_vals:
            rows.append(MetricValue(name, float(np.mean(defined_vals)),
                                    tau="mean"))
        else:
            rows.append(MetricValue(name, 0.0, tau="mean", defined=False))
    try:
        rows.append(MetricValue("auroc", auroc_hard(batch)))
    except UndefinedMetricError:
        rows.append(MetricValue("auroc", 0.0, defined=False))
    return MetricTable(rows=tuple(rows), excluded_from_mean=excluded)
