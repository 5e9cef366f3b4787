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
import sys
from dataclasses import dataclass, field

import numpy as np

from .confusion import LabeledBatch, aggregate_hard, soft_confusion
from .heaviside import APPROXIMATIONS, cached_stack

EPSILON = 1e-7
TAU_GRID_DEFAULT = tuple(i / 10 for i in range(1, 10))

FORMATS = ("tsv", "json")

# The largest beta whose F-beta loss gradient cannot overflow.  fbeta_loss
# squares den = (1 + b2)·tp + b2·fn + fp + EPSILON with b2 = beta², and
# tp + fn + fp <= n, so den <= 2·(1 + b2)·n with room for EPSILON and
# rounding.  den² stays finite on any batch of up to 2**53 rows while
# 1 + b2 <= sqrt(float max) / (2·2**53); beta is about 8.6e68.
BETA_MAX = math.sqrt(math.sqrt(sys.float_info.max) / 2.0 ** 54 - 1.0)


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
        if self.approximation not in APPROXIMATIONS:
            raise ValueError(f"approximation must be one of {APPROXIMATIONS}, "
                             f"got {self.approximation!r}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.beta > BETA_MAX:
            raise ValueError(f"beta must be at most {BETA_MAX:.3g}, or the "
                             f"F-beta loss gradient can overflow, got beta "
                             f"{self.beta}")
        if not 0.0 < self.tau_train < 1.0:
            raise ValueError(f"tau_train must lie in (0,1), got {self.tau_train}")
        if not self.tau_grid:
            raise ValueError("tau_grid must not be empty")
        for tau in self.tau_grid:
            if not 0.0 < tau < 1.0:
                raise ValueError(f"tau_grid entries must lie in (0,1), got {tau}")
        if not 0.0 < self.delta < 0.5:
            raise ValueError(f"delta must lie in (0, 0.5), got {self.delta}")


def _guarded(name, num, den, tau=None):
    value = num / (den + EPSILON)
    if den <= 0.0:
        return MetricValue(name, 0.0, tau=tau, defined=False)
    return MetricValue(name, float(value), tau=tau)


def precision(counts, tau=None) -> MetricValue:
    return _guarded("precision", counts.tp, counts.tp + counts.fp, tau)


def recall(counts, tau=None) -> MetricValue:
    return _guarded("recall", counts.tp, counts.tp + counts.fn, tau)


def accuracy(counts, tau=None) -> MetricValue:
    num = counts.tp + counts.tn
    den = counts.tp + counts.tn + counts.fp + counts.fn
    return _guarded("accuracy", num, den, tau)


def f_beta(counts, beta: float = 1.0, tau=None) -> MetricValue:
    """F-beta in count form, equal to the precision/recall harmonic mean."""
    b2 = beta * beta
    num = (1.0 + b2) * counts.tp
    den = (1.0 + b2) * counts.tp + b2 * counts.fn + counts.fp
    return _guarded(f"f_{beta:g}", num, den, tau)


def _soft_confusion(batch, config, taus):
    stack = cached_stack(config.approximation, tuple(taus), config.delta)
    return soft_confusion(batch, stack)


def fbeta_loss(batch: LabeledBatch, config: LossConfig):
    """1 - soft F-beta at ``config.tau_train`` and its gradient."""
    soft = _soft_confusion(batch, config, (config.tau_train,))
    tp, fp, fn, _ = soft.counts.T
    b2 = config.beta * config.beta
    den = (1.0 + b2) * tp + b2 * fn + fp + EPSILON
    value = (1.0 + b2) * tp / den
    scale = (1.0 + b2) / den ** 2
    d_counts = np.array((-(b2 * fn + fp + EPSILON) * scale,
                         tp * scale, b2 * tp * scale, np.zeros_like(tp))).T
    return 1.0 - float(value[0]), soft.grad(d_counts)


def accuracy_loss(batch: LabeledBatch, config: LossConfig):
    """1 - soft accuracy at ``config.tau_train`` and its gradient."""
    soft = _soft_confusion(batch, config, (config.tau_train,))
    tp, fp, fn, tn = soft.counts.T
    correct = tp + tn
    den = correct + fp + fn + EPSILON
    value = correct / den
    scale = 1.0 / den ** 2
    d_correct = (correct - den) * scale
    d_wrong = correct * scale
    d_counts = np.array((d_correct, d_wrong, d_wrong, d_correct)).T
    return 1.0 - float(value[0]), soft.grad(d_counts)


def _require_both_classes(batch):
    n_pos = int(np.sum(batch.labels == 1.0))
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
    soft = _soft_confusion(batch, config, config.tau_grid)
    tp, fp, fn, tn = soft.counts.T
    fpr_den = fp + tn + EPSILON
    tpr_den = tp + fn + EPSILON
    fpr = fp / fpr_den
    order = np.argsort(fpr, kind="stable")
    xs = np.concatenate(([0.0], fpr[order], [1.0]))
    ys = np.concatenate(([0.0], (tp / tpr_den)[order], [1.0]))
    # np.trapezoid's own formula; numpy < 2.0 names it np.trapz
    area = float((np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0).sum())
    # trapezoid area derivative at each interior vertex, neighbors fixed,
    # in threshold order and divided by the rate denominators
    unsort = np.argsort(order)
    da_dx = 0.5 * (ys[:-2] - ys[2:])[unsort] / fpr_den ** 2
    da_dy = 0.5 * (xs[2:] - xs[:-2])[unsort] / tpr_den ** 2
    d_counts = np.array((-(fn + EPSILON) * da_dy, -(tn + EPSILON) * da_dx,
                         tp * da_dy, fp * da_dx)).T
    return 1.0 - area, soft.grad(d_counts)


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


class Artifact:
    """What a command writes to --out; subclasses give to_tsv and to_json."""

    has_errors = False

    def render(self, fmt: str) -> str:
        if fmt == "tsv":
            return self.to_tsv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}")


def json_text(payload) -> str:
    """An artifact's JSON: indented, keys sorted, one final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class MetricTable(Artifact):
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
