"""Property tests for the soft-confusion kernel over whole threshold grids."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from softstep.confusion import LabeledBatch, aggregate_hard, soft_confusion
from softstep.heaviside import (
    HeavisideParams,
    cached_stack,
    fit_sigmoid,
    heaviside_approx,
    sigmoid_approx,
)
from softstep.metrics import (
    APPROXIMATIONS,
    LossConfig,
    accuracy_loss,
    auroc_soft_loss,
    fbeta_loss,
)

FD_STEP = 1e-6
MARGIN = 1e-4

families = st.sampled_from(APPROXIMATIONS)
deltas = st.floats(0.01, 0.49)
tau_grids = st.lists(st.floats(0.01, 0.99), min_size=1, max_size=9).map(tuple)
# thresholds at least 0.05 apart keep the swept ROC points apart
lattice_grids = st.lists(st.integers(1, 19), min_size=2, max_size=9,
                         unique=True).map(lambda ks: tuple(k / 20 for k in ks))


@st.composite
def batches(draw, max_size=64, values=st.floats(0.0, 1.0),
            both_classes=False):
    n = draw(st.integers(2 if both_classes else 1, max_size))
    preds = draw(arrays(float, n, elements=values))
    labels = draw(arrays(float, n, elements=st.sampled_from([0.0, 1.0])))
    if both_classes:
        labels[:2] = (1.0, 0.0)
    return LabeledBatch(preds, labels)


# predictions for the gradient checks stay off the ends of [0, 1]
interior = st.floats(2 * MARGIN, 1.0 - 2 * MARGIN)


def approximation(family, tau, delta):
    """One member of the family's stack at ``tau``, built on its own."""
    params = HeavisideParams(tau, delta)
    return params if family == "piecewise" else fit_sigmoid(params)


def reference_counts(batch, approx):
    """Soft (tp, fp, fn, tn) at one threshold, straight from the case table."""
    value = (heaviside_approx if isinstance(approx, HeavisideParams)
             else sigmoid_approx)
    h = value(batch.predictions, approx)
    positive = batch.labels == 1.0
    below = batch.predictions < approx.tau
    cells = (np.where(positive | below, h, 1.0 - h),
             np.where(~positive | below, h, 1.0 - h),
             np.where(positive | ~below, 1.0 - h, h),
             np.where(~positive | ~below, 1.0 - h, h))
    return [math.fsum(cell) for cell in cells]


@settings(max_examples=150, deadline=None)
@given(batches(), tau_grids, deltas, families)
def test_kernel_counts_match_per_threshold_reference(batch, taus, delta,
                                                     family):
    counts = soft_confusion(batch, cached_stack(family, taus, delta)).counts
    expected = [reference_counts(batch, approximation(family, t, delta))
                for t in taus]
    np.testing.assert_allclose(counts, expected, rtol=1e-12, atol=0.0)


@settings(max_examples=150, deadline=None)
@given(batches(), tau_grids, deltas, families)
def test_kernel_counts_lie_within_batch_size(batch, taus, delta, family):
    counts = soft_confusion(batch, cached_stack(family, taus, delta)).counts
    assert counts.shape == (len(taus), 4)
    assert np.all(counts >= 0.0) and np.all(counts <= batch.n)


@settings(max_examples=150, deadline=None)
@given(batches(values=st.sampled_from([0.0, 1.0])), tau_grids, deltas)
def test_saturated_predictions_give_hard_counts_at_every_threshold(
        batch, taus, delta):
    # only the piecewise surrogate is exactly 0 and 1 at p = 0 and 1
    counts = soft_confusion(batch, cached_stack("piecewise", taus,
                                                delta)).counts
    for row, tau in zip(counts, taus):
        hard = aggregate_hard(batch, tau)
        assert tuple(row) == (hard.tp, hard.fp, hard.fn, hard.tn)


def assume_smooth(batch, config, taus):
    """Keep every prediction clear of the points where the loss has a kink."""
    stack = cached_stack(config.approximation, tuple(taus), config.delta)
    bounds = [stack.tau]
    if stack.piecewise:
        bounds += [stack.kink_low, stack.kink_high]
    assume(min(np.abs(batch.predictions - b).min() for b in bounds) > MARGIN)


def assume_fbeta_well_conditioned(batch, config, taus):
    """Skip batches whose F-beta denominator is near zero.

    There the epsilon guard dominates the loss, and its curvature swamps a
    central difference (the analytic gradient stays exact).
    """
    b2 = config.beta ** 2
    for tau in taus:
        approx = approximation(config.approximation, tau, config.delta)
        tp, fp, fn, _ = reference_counts(batch, approx)
        assume((1.0 + b2) * tp + b2 * fn + fp > 0.05)


def assert_gradient_matches_differences(loss_fn, batch, config):
    """Analytic gradient against a fourth-order central difference.

    Where the soft counts are small the F-beta loss bends sharply, and a
    second-order difference at FD_STEP is off by 2.5e-5 relative on the
    example pinned below.
    """
    _, grad = loss_fn(batch, config)
    for i in range(batch.n):
        def loss_at(steps):
            preds = batch.predictions.copy()
            preds[i] += steps * FD_STEP
            return loss_fn(LabeledBatch(preds, batch.labels), config)[0]

        fd = (8.0 * (loss_at(1) - loss_at(-1))
              - (loss_at(2) - loss_at(-2))) / (12.0 * FD_STEP)
        assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


single_thresholds = st.floats(0.02, 0.98)


@settings(max_examples=60, deadline=None)
@given(batches(max_size=10, values=interior), single_thresholds, deltas,
       families, st.floats(0.25, 4.0))
# one negative at h = 0.0032: F-beta is 10h / (20h + eps)
@example(LabeledBatch(np.array([0.0002]), np.array([0.0])), 0.03125, 0.25,
         "piecewise", 3.0)
def test_single_threshold_fbeta_gradient(batch, tau, delta, family, beta):
    config = LossConfig(objective="f_beta", beta=beta, tau_train=tau,
                        delta=delta, approximation=family)
    assume_smooth(batch, config, (tau,))
    assume_fbeta_well_conditioned(batch, config, (tau,))
    assert_gradient_matches_differences(fbeta_loss, batch, config)


@settings(max_examples=60, deadline=None)
@given(batches(max_size=10, values=interior), tau_grids, deltas, families,
       st.floats(0.25, 4.0))
def test_grid_averaged_fbeta_gradient(batch, taus, delta, family, beta):
    config = LossConfig(objective="f_beta", beta=beta, tau_grid=taus,
                        delta=delta, approximation=family,
                        average_over_grid=True)
    assume_smooth(batch, config, taus)
    assume_fbeta_well_conditioned(batch, config, taus)
    assert_gradient_matches_differences(fbeta_loss, batch, config)


@settings(max_examples=60, deadline=None)
@given(batches(max_size=10, values=interior), single_thresholds, deltas,
       families)
def test_single_threshold_accuracy_gradient(batch, tau, delta, family):
    config = LossConfig(objective="accuracy", tau_train=tau, delta=delta,
                        approximation=family)
    assume_smooth(batch, config, (tau,))
    assert_gradient_matches_differences(accuracy_loss, batch, config)


@settings(max_examples=60, deadline=None)
@given(batches(max_size=10, values=interior), tau_grids, deltas, families)
def test_grid_averaged_accuracy_gradient(batch, taus, delta, family):
    config = LossConfig(objective="accuracy", tau_grid=taus, delta=delta,
                        approximation=family, average_over_grid=True)
    assume_smooth(batch, config, taus)
    assert_gradient_matches_differences(accuracy_loss, batch, config)


@settings(max_examples=60, deadline=None)
@given(batches(max_size=10, values=interior, both_classes=True),
       lattice_grids, deltas, families)
def test_auroc_gradient(batch, taus, delta, family):
    config = LossConfig(objective="auroc", tau_grid=taus, delta=delta,
                        approximation=family)
    assume_smooth(batch, config, taus)
    # the gradient holds the ROC points' order fixed; keep them apart
    counts = soft_confusion(batch, cached_stack(family, taus, delta)).counts
    fpr = np.sort(counts[:, 1] / (counts[:, 1] + counts[:, 3]))
    assume(np.all(np.diff(fpr) > 1e-3))
    assert_gradient_matches_differences(auroc_soft_loss, batch, config)
