import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from softstep.confusion import (
    HardCounts,
    LabeledBatch,
    SoftCounts,
    aggregate_soft,
    soft_confusion,
)
from softstep.heaviside import HeavisideParams, cached_stack
from softstep.metrics import (
    APPROXIMATIONS,
    EPSILON,
    LossConfig,
    MetricValue,
    TAU_GRID_DEFAULT,
    UndefinedMetricError,
    _fbeta_weights,
    accuracy,
    accuracy_loss,
    auroc_hard,
    auroc_soft_loss,
    bce_loss,
    evaluate_over_grid,
    f_beta,
    fbeta_loss,
    objective_loss,
    precision,
    recall,
)


def auroc_pairs(preds, labels):
    """Independent oracle: enumerate every positive-negative pair."""
    pos = preds[labels == 1.0]
    neg = preds[labels == 0.0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def random_batch(rng, n):
    labels = rng.integers(0, 2, n)
    if labels.min() == labels.max():   # force both classes for AUROC paths
        labels[0] = 1 - labels[0]
    return LabeledBatch(rng.uniform(0.0, 1.0, n), labels)


# boundaries where the default-grid soft losses are non-differentiable
LOSS_BOUNDARIES = sorted(
    {b for t in TAU_GRID_DEFAULT
     for b in (HeavisideParams(t, 0.1).kink_low, t,
               HeavisideParams(t, 0.1).kink_high)})


def smooth_random_batch(rng, n, margin=1e-3):
    while True:
        preds = rng.uniform(margin, 1.0 - margin, n)
        if min(abs(p - b) for p in preds for b in LOSS_BOUNDARIES) < margin:
            continue
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        return LabeledBatch(preds, labels)


def central_difference(loss_fn, batch, i, h=1e-6):
    up = batch.predictions.copy()
    dn = batch.predictions.copy()
    up[i] += h
    dn[i] -= h
    l_up, _ = loss_fn(LabeledBatch(up, batch.labels))
    l_dn, _ = loss_fn(LabeledBatch(dn, batch.labels))
    return (l_up - l_dn) / (2.0 * h)


# ----------------------------------------------------------------- metrics


def test_precision_recall_example():
    counts = HardCounts(tp=8, fp=2, fn=2, tn=0)
    assert precision(counts).value == pytest.approx(0.8, rel=1e-6)
    assert recall(counts).value == pytest.approx(0.8, rel=1e-6)


def test_zero_denominator_flags():
    counts = HardCounts(tp=0, fp=0, fn=5, tn=0)
    assert recall(counts).value == 0.0
    assert recall(counts).defined
    p = precision(counts)
    assert not p.defined and p.value == 0.0


def test_accuracy_examples():
    assert accuracy(HardCounts(1, 1, 1, 1)).value == pytest.approx(0.5, rel=1e-6)
    assert accuracy(HardCounts(30, 0, 0, 10)).value == pytest.approx(1.0, abs=1e-6)
    # all-negative predictor at 2.32% positive rate
    counts = HardCounts(tp=0, fp=0, fn=232, tn=9768)
    assert accuracy(counts).value == pytest.approx(0.9768, abs=1e-4)


def test_f_beta_examples():
    counts = HardCounts(tp=8, fp=2, fn=2, tn=0)
    assert f_beta(counts, 1.0).value == pytest.approx(0.8, rel=1e-6)
    # large beta pulls f_beta toward recall
    skewed = HardCounts(tp=8, fp=4, fn=2, tn=0)
    rec = recall(skewed).value
    assert f_beta(skewed, 100.0).value == pytest.approx(rec, abs=1e-3)
    undef = f_beta(HardCounts(0, 0, 0, 4), 1.0)
    assert not undef.defined and undef.value == 0.0


def test_f1_equals_harmonic_mean():
    rng = np.random.default_rng(89)
    for _ in range(100):
        tp, fp, fn = rng.integers(1, 50, 3)
        counts = HardCounts(int(tp), int(fp), int(fn), 0)
        p = tp / (tp + fp)
        r = tp / (tp + fn)
        harmonic = 2 * p * r / (p + r)
        assert f_beta(counts, 1.0).value == pytest.approx(harmonic, abs=1e-6)


def test_soft_hard_metric_consistency_when_saturated():
    rng = np.random.default_rng(97)
    preds = rng.integers(0, 2, 60).astype(float)
    labels = rng.integers(0, 2, 60)
    batch = LabeledBatch(preds, labels)
    soft = aggregate_soft(batch, HeavisideParams(0.5, 0.1))
    from softstep.confusion import aggregate_hard
    hard = aggregate_hard(batch, 0.5)
    for metric in (precision, recall, accuracy):
        assert metric(soft).value == metric(hard).value


def test_metric_value_range_guard():
    with pytest.raises(ValueError):
        MetricValue("bogus", 1.5)
    MetricValue("bogus", 1.5, defined=False)  # undefined rows may carry junk 0


# ------------------------------------------------------------- f_beta loss


def test_fbeta_loss_separated_batch():
    batch = LabeledBatch(np.array([1.0, 1.0, 0.0, 0.0]),
                         np.array([1.0, 1.0, 0.0, 0.0]))
    loss, grad = fbeta_loss(batch, LossConfig(objective="f_beta"))
    assert loss == pytest.approx(0.0, abs=1e-6)
    assert grad.shape == (4,)


def test_fbeta_loss_all_predictions_at_threshold():
    # every surrogate value is 0.5, so every soft count is n/2
    n = 10
    batch = LabeledBatch(np.full(n, 0.5), np.array([1.0] * 5 + [0.0] * 5))
    loss, _ = fbeta_loss(batch, LossConfig(objective="f_beta"))
    expected = 1.0 - 2 * (n / 2) / (2 * (n / 2) + n / 2 + n / 2 + 1e-7)
    assert loss == pytest.approx(expected, abs=1e-9)
    assert loss == pytest.approx(0.5, abs=1e-6)


def test_fbeta_loss_gradient_finite_difference():
    rng = np.random.default_rng(101)
    config = LossConfig(objective="f_beta", beta=2.0, tau_train=0.5)
    for _ in range(10):
        batch = smooth_random_batch(rng, 12)
        _, grad = fbeta_loss(batch, config)
        for i in range(batch.n):
            fd = central_difference(lambda b: fbeta_loss(b, config), batch, i)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_metric_losses_stay_in_unit_interval():
    rng = np.random.default_rng(107)
    for _ in range(30):
        batch = random_batch(rng, 25)
        for cfg in (LossConfig(objective="f_beta"),
                    LossConfig(objective="accuracy"),
                    LossConfig(objective="auroc")):
            loss, _ = objective_loss(batch, cfg)
            assert 0.0 <= loss <= 1.0


# ------------------------------------------- f_beta's form for every beta


def count_form_fbeta_loss(batch, config):
    """The loss in count form, (1 + b2)·tp / ((1 + b2)·tp + b2·fn + fp)."""
    soft = soft_confusion(batch, config.train_stack)
    tp, fp, fn, _ = soft.counts.T
    b2 = config.beta * config.beta
    den = (1.0 + b2) * tp + b2 * fn + fp + EPSILON
    value = (1.0 + b2) * tp / den
    scale = (1.0 + b2) / den ** 2
    d_counts = np.array((-(b2 * fn + fp + EPSILON) * scale,
                         tp * scale, b2 * tp * scale, np.zeros_like(tp))).T
    return 1.0 - float(value[0]), soft.grad(d_counts)


def count_form_f1(counts):
    return 2.0 * counts.tp / (2.0 * counts.tp + counts.fn + counts.fp
                              + EPSILON)


# halving a subnormal count can round, so the bit-for-bit check draws none
normal_predictions = st.floats(0.0, 1.0, allow_subnormal=False)
labels_01 = st.sampled_from([0.0, 1.0])
hard_counts = st.builds(HardCounts, *[st.integers(0, 10 ** 6)] * 4)
surrogates = st.sampled_from(APPROXIMATIONS)
taus = st.sampled_from((0.3, 0.5, 0.7))


@st.composite
def batches_with_a_positive(draw, predictions=st.floats(0.0, 1.0)):
    n = draw(st.integers(1, 32))
    preds = draw(arrays(float, n, elements=predictions))
    labels = draw(arrays(float, n, elements=labels_01))
    labels[draw(st.integers(0, n - 1))] = 1.0
    return LabeledBatch(preds, labels)


@settings(max_examples=200, deadline=None)
@given(batches_with_a_positive(), st.floats(-150.0, 300.0), surrogates,
       taus)
@example(LabeledBatch(np.array([0.8, 0.2]), np.array([1.0, 0.0])), 0.0,
         "piecewise", 0.5)
def test_fbeta_loss_is_the_harmonic_mean_of_soft_precision_and_recall(
        batch, log_beta, family, tau):
    beta = 10.0 ** log_beta
    config = LossConfig(beta=beta, tau_train=tau, approximation=family)
    # a positive predicted 1 adds exactly 1 to tp + w·fn + (1 - w)·fp, so
    # the guard, at most EPSILON, moves F by less than EPSILON relative
    batch = LabeledBatch(np.append(batch.predictions, 1.0),
                         np.append(batch.labels, 1.0))
    loss, _ = fbeta_loss(batch, config)
    tp, fp, fn, _ = (Fraction(float(count)) for count in
                     soft_confusion(batch, config.train_stack).counts[0])
    p, r, b2 = tp / (tp + fp), tp / (tp + fn), Fraction(beta) ** 2
    textbook = (1 + b2) * p * r / (b2 * p + r)
    assert math.isclose(1.0 - loss, textbook, rel_tol=2 * EPSILON)


@settings(max_examples=200, deadline=None)
@given(batches_with_a_positive(normal_predictions), surrogates, taus,
       hard_counts)
def test_f1_is_the_count_form_bit_for_bit(batch, family, tau, counts):
    config = LossConfig(beta=1.0, tau_train=tau, approximation=family)
    loss, grad = fbeta_loss(batch, config)
    count_loss, count_grad = count_form_fbeta_loss(batch, config)
    assert loss == count_loss
    assert grad.tobytes() == count_grad.tobytes()
    assert f_beta(counts, 1.0).value == count_form_f1(counts)


@settings(max_examples=200, deadline=None)
@given(batches_with_a_positive(), surrogates)
def test_fbeta_loss_gradient_at_beta_1e200_is_finite_and_nonzero(
        batch, family):
    config = LossConfig(beta=1e200, approximation=family)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        loss, grad = fbeta_loss(batch, config)
    assert 0.0 <= loss <= 1.0
    assert np.all(np.isfinite(grad)) and np.any(grad != 0.0)


@pytest.mark.parametrize("beta", [1e154, 1e200, sys.float_info.max])
def test_fbeta_loss_on_a_zero_denominator_is_finite(beta):
    # no positive, and every prediction 0: tp, fn and fp are all 0
    batch = LabeledBatch(np.zeros(8), np.zeros(8))
    with np.errstate(all="raise"):
        loss, grad = fbeta_loss(batch, LossConfig(beta=beta))
    assert loss == 1.0
    assert np.all(np.isfinite(grad))


@settings(max_examples=200, deadline=None)
@given(hard_counts, st.floats(0.0, exclude_min=True, allow_infinity=False))
def test_hard_f_beta_is_finite_for_every_finite_beta(counts, beta):
    # MetricValue refuses a defined value outside [0, 1], NaN included
    assert math.isfinite(f_beta(counts, beta).value)


def test_hard_f_beta_at_extreme_betas_is_recall_or_precision():
    counts = HardCounts(tp=5, fp=3, fn=2, tn=10)
    assert f_beta(counts, 1e200).value == pytest.approx(5 / 7, rel=EPSILON)
    assert f_beta(counts, 1e-200).value == pytest.approx(5 / 8, rel=EPSILON)
    # fp keeps its weight 1 / (1 + beta²) where 1.0 - w has rounded to 0
    no_positive = f_beta(HardCounts(tp=0, fp=3, fn=0, tn=5), 1e9)
    assert no_positive.defined and no_positive.value == 0.0


# ----------------------------------------------------------- accuracy loss


def test_accuracy_loss_gradient_finite_difference():
    rng = np.random.default_rng(109)
    config = LossConfig(objective="accuracy", tau_train=0.5)
    for _ in range(10):
        batch = smooth_random_batch(rng, 12)
        _, grad = accuracy_loss(batch, config)
        for i in range(batch.n):
            fd = central_difference(lambda b: accuracy_loss(b, config), batch, i)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_accuracy_loss_all_correct():
    batch = LabeledBatch(np.array([1.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0]))
    loss, _ = accuracy_loss(batch, LossConfig(objective="accuracy"))
    assert loss == pytest.approx(0.0, abs=1e-6)


def test_soft_recall_monotone_in_positive_prediction():
    rng = np.random.default_rng(113)
    params = HeavisideParams(0.5, 0.1)
    for _ in range(50):
        batch = random_batch(rng, 20)
        positives = np.flatnonzero(batch.labels == 1.0)
        i = int(rng.choice(positives))
        if batch.predictions[i] > 0.99:
            continue
        counts = aggregate_soft(batch, params)
        before = recall(counts).value
        bumped = batch.predictions.copy()
        bumped[i] += 0.01
        counts_after = aggregate_soft(
            LabeledBatch(np.clip(bumped, 0, 1), batch.labels), params)
        assert recall(counts_after).value >= before - 1e-12


# -------------------------------------------------------------- hard AUROC


def test_auroc_hard_example():
    batch = LabeledBatch(np.array([0.9, 0.8, 0.7, 0.1]),
                         np.array([1.0, 0.0, 1.0, 0.0]))
    assert auroc_hard(batch) == pytest.approx(0.75, abs=1e-12)


def test_auroc_hard_perfect_and_tied():
    perfect = LabeledBatch(np.array([0.9, 0.8, 0.2, 0.1]),
                           np.array([1.0, 1.0, 0.0, 0.0]))
    assert auroc_hard(perfect) == 1.0
    tied = LabeledBatch(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert auroc_hard(tied) == 0.5


def test_auroc_hard_random_labels_near_half():
    rng = np.random.default_rng(127)
    batch = random_batch(rng, 4000)
    assert auroc_hard(batch) == pytest.approx(0.5, abs=0.05)


def test_auroc_hard_matches_pair_enumeration():
    rng = np.random.default_rng(131)
    for _ in range(25):
        n = int(rng.integers(5, 40))
        preds = np.round(rng.uniform(0, 1, n), 2)   # induce ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        batch = LabeledBatch(preds, labels)
        assert auroc_hard(batch) == pytest.approx(
            auroc_pairs(batch.predictions, batch.labels), abs=1e-12)


def test_auroc_hard_rank_invariance():
    rng = np.random.default_rng(137)
    batch = random_batch(rng, 100)
    base = auroc_hard(batch)
    for transform in (lambda p: p ** 3, lambda p: np.sqrt(p),
                      lambda p: p / 2.0 + 0.25):
        warped = LabeledBatch(transform(batch.predictions), batch.labels)
        assert auroc_hard(warped) == pytest.approx(base, abs=1e-12)


def test_auroc_hard_requires_both_classes():
    with pytest.raises(UndefinedMetricError):
        auroc_hard(LabeledBatch(np.array([0.2, 0.8]), np.array([1.0, 1.0])))


# -------------------------------------------------------------- soft AUROC


def test_auroc_soft_loss_separated_batch():
    batch = LabeledBatch(np.array([1.0, 1.0, 0.0, 0.0]),
                         np.array([1.0, 1.0, 0.0, 0.0]))
    loss, grad = auroc_soft_loss(batch, LossConfig(objective="auroc"))
    assert loss == pytest.approx(0.0, abs=1e-6)
    assert grad.shape == (4,)


def test_auroc_soft_loss_constant_predictions_balanced():
    # balanced classes put every swept ROC point on the diagonal
    batch = LabeledBatch(np.full(20, 0.4), np.array([1.0] * 10 + [0.0] * 10))
    loss, _ = auroc_soft_loss(batch, LossConfig(objective="auroc"))
    assert loss == pytest.approx(0.5, abs=1e-6)


def test_auroc_soft_area_matches_manual_trapezoid():
    # recompute the swept curve with independent loops and integrate
    rng = np.random.default_rng(139)
    config = LossConfig(objective="auroc")
    for _ in range(5):
        batch = random_batch(rng, 15)
        points = [(0.0, 0.0)]
        for tau in config.tau_grid:
            params = HeavisideParams(tau, config.delta)
            # one sample at a time: each one-sample count is its membership
            cells = [aggregate_soft(LabeledBatch(np.array([p]), np.array([y])),
                                    params)
                     for p, y in zip(batch.predictions, batch.labels)]
            tp = sum(c.tp for c in cells)
            fp = sum(c.fp for c in cells)
            fn = sum(c.fn for c in cells)
            tn = sum(c.tn for c in cells)
            points.append((fp / (fp + tn + EPSILON),
                           tp / (tp + fn + EPSILON)))
        points.append((1.0, 1.0))
        points.sort(key=lambda q: q[0])
        xs = [q[0] for q in points]
        ys = [q[1] for q in points]
        manual = sum(0.5 * (xs[j + 1] - xs[j]) * (ys[j + 1] + ys[j])
                     for j in range(len(xs) - 1))
        loss, _ = auroc_soft_loss(batch, config)
        assert loss == pytest.approx(1.0 - manual, abs=1e-12)


def test_auroc_soft_loss_gradient_finite_difference():
    rng = np.random.default_rng(149)
    config = LossConfig(objective="auroc")
    for _ in range(4):
        batch = smooth_random_batch(rng, 10)
        _, grad = auroc_soft_loss(batch, config)
        for i in range(batch.n):
            fd = central_difference(
                lambda b: auroc_soft_loss(b, config), batch, i)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_auroc_soft_loss_requires_both_classes():
    with pytest.raises(UndefinedMetricError):
        auroc_soft_loss(LabeledBatch(np.array([0.2, 0.8]), np.zeros(2)),
                        LossConfig(objective="auroc"))


# --------------------------------------------------------------------- BCE


def test_bce_loss_examples():
    batch = LabeledBatch(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    loss, _ = bce_loss(batch)
    assert loss == pytest.approx(np.log(2.0), rel=1e-9)
    single = LabeledBatch(np.array([0.9]), np.array([1.0]))
    assert bce_loss(single)[0] == pytest.approx(0.105360515658, rel=1e-9)
    exact = LabeledBatch(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert bce_loss(exact)[0] == pytest.approx(0.0, abs=1e-6)


def test_bce_loss_gradient_finite_difference():
    rng = np.random.default_rng(151)
    for _ in range(10):
        batch = LabeledBatch(rng.uniform(0.05, 0.95, 12),
                             rng.integers(0, 2, 12))
        _, grad = bce_loss(batch)
        for i in range(batch.n):
            fd = central_difference(lambda b: bce_loss(b), batch, i)
            assert grad[i] == pytest.approx(fd, rel=1e-5)


# ------------------------------------------------------------- dispatcher


def test_objective_loss_dispatch():
    rng = np.random.default_rng(157)
    batch = random_batch(rng, 20)
    pairs = [
        (LossConfig(objective="accuracy"), accuracy_loss),
        (LossConfig(objective="f_beta", beta=2.0), fbeta_loss),
        (LossConfig(objective="auroc"), auroc_soft_loss),
        (LossConfig(objective="bce"), bce_loss),
    ]
    for config, direct in pairs:
        via_dispatch = objective_loss(batch, config)
        expected = direct(batch, config)
        assert via_dispatch[0] == expected[0]
        assert np.array_equal(via_dispatch[1], expected[1])


def test_fbeta_loss_gradient_at_the_largest_beta_is_finite_and_nonzero():
    # the count form squared (1 + beta²)·tp, so past about 1e77 a 256-row
    # batch got a gradient of exactly zero; the weighted form has no bound
    rng = np.random.default_rng(0)
    batch = LabeledBatch(rng.random(4096),
                         (rng.random(4096) < 0.3).astype(float))
    with np.errstate(all="raise"):
        loss, grad = fbeta_loss(batch, LossConfig(beta=1e200))
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad)) and np.any(grad != 0.0)


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(objective="hinge")
    with pytest.raises(ValueError):
        LossConfig(beta=0.0)
    with pytest.raises(ValueError, match="beta must be finite, got inf"):
        LossConfig(beta=math.inf)
    for beta in (1e155, sys.float_info.max, 5e-324):
        LossConfig(beta=beta)
    with pytest.raises(ValueError):
        LossConfig(tau_train=1.0)
    with pytest.raises(ValueError):
        LossConfig(tau_grid=())
    with pytest.raises(ValueError):
        LossConfig(tau_grid=(0.5, 1.2))
    with pytest.raises(ValueError):
        LossConfig(approximation="spline")
    # delta outside (0, 0.5) would only fail at the first loss call
    with pytest.raises(ValueError, match="delta"):
        LossConfig(delta=0.7)


def test_loss_config_keeps_its_stacks_outside_equality_and_repr():
    config = LossConfig(tau_train=0.3, approximation="sigmoid_fit")
    assert config.train_stack is cached_stack("sigmoid_fit", (0.3,), 0.1)
    assert config.grid_stack is cached_stack("sigmoid_fit",
                                             TAU_GRID_DEFAULT, 0.1)
    assert "stack" not in repr(config)
    same = LossConfig(tau_train=0.3, approximation="sigmoid_fit")
    assert config == same and hash(config) == hash(same)


# ----------------------------------------------------------- metric tables


def test_evaluate_over_grid_shape():
    rng = np.random.default_rng(163)
    batch = random_batch(rng, 200)
    table = evaluate_over_grid(batch)
    # 4 swept metrics x (9 thresholds + 1 mean) + auroc
    assert len(table.rows) == 41
    names = {r.name for r in table.rows}
    assert names == {"accuracy", "precision", "recall", "f_1", "auroc"}
    mean_rows = [r for r in table.rows if r.tau == "mean"]
    assert len(mean_rows) == 4


def test_evaluate_over_grid_single_tau_mean():
    rng = np.random.default_rng(167)
    batch = random_batch(rng, 100)
    table = evaluate_over_grid(batch, tau_grid=(0.5,))
    acc_rows = [r for r in table.rows if r.name == "accuracy"]
    assert acc_rows[0].value == acc_rows[1].value


def test_evaluate_over_grid_refuses_an_empty_grid():
    batch = LabeledBatch(np.array([0.2, 0.8]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="tau_grid must not be empty"):
        evaluate_over_grid(batch, tau_grid=())


def test_evaluate_over_grid_degenerate_predictor():
    # all predictions far below every threshold, 10% positives
    preds = np.full(100, 0.05)
    labels = np.array([1.0] * 10 + [0.0] * 90)
    table = evaluate_over_grid(LabeledBatch(preds, labels))
    by_key = {(r.name, r.tau): r for r in table.rows}
    f1_mean = by_key[("f_1", "mean")]
    assert f1_mean.value == pytest.approx(0.0, abs=1e-9)
    acc_mean = by_key[("accuracy", "mean")]
    assert acc_mean.value == pytest.approx(0.9, abs=1e-3)
    # precision has no defined threshold anywhere: tp=fp=0 at every tau
    assert table.excluded_from_mean["precision"] == 9
    assert not by_key[("precision", "mean")].defined


def test_metric_table_serialization():
    rng = np.random.default_rng(173)
    batch = random_batch(rng, 50)
    table = evaluate_over_grid(batch)
    tsv = table.to_tsv()
    lines = tsv.strip().split("\n")
    assert lines[0] == "metric\ttau\tvalue\tdefined"
    data_lines = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data_lines) == 41
    payload = json.loads(table.to_json())
    assert len(payload["rows"]) == 41
    assert set(payload["rows"][0]) == {"metric", "tau", "value", "defined"}
    # serialization is deterministic
    assert tsv == evaluate_over_grid(batch).to_tsv()
    assert table.to_json() == evaluate_over_grid(batch).to_json()


def test_metric_table_reports_exclusions_in_tsv():
    preds = np.full(50, 0.05)
    labels = np.array([1.0] * 5 + [0.0] * 45)
    table = evaluate_over_grid(LabeledBatch(preds, labels))
    assert "# excluded_from_mean:" in table.to_tsv()
    assert "precision=9" in table.to_tsv()


# ------------------------------ the loss heads in Python floats, pinned


def numpy_fbeta_loss(batch, config):
    """fbeta_loss with its head in numpy arrays, the form it replaced."""
    soft = soft_confusion(batch, config.train_stack)
    tp, fp, fn, _ = soft.counts.T
    w_fn, w_fp, guard = _fbeta_weights(config.beta)
    den = tp + w_fn * fn + w_fp * fp + guard
    value = tp / den
    scale = 1.0 / den ** 2
    d_counts = np.array((-(w_fn * fn + w_fp * fp + guard) * scale,
                         w_fp * tp * scale, w_fn * tp * scale, 0.0 * tp)).T
    return 1.0 - float(value[0]), soft.grad(d_counts)


def numpy_accuracy_loss(batch, config):
    """accuracy_loss with its head in numpy arrays, the form it replaced."""
    soft = soft_confusion(batch, config.train_stack)
    tp, fp, fn, tn = soft.counts.T
    correct = tp + tn
    den = correct + fp + fn + EPSILON
    value = correct / den
    scale = 1.0 / den ** 2
    d_correct = (correct - den) * scale
    d_wrong = correct * scale
    d_counts = np.array((d_correct, d_wrong, d_wrong, d_correct)).T
    return 1.0 - float(value[0]), soft.grad(d_counts)


def numpy_auroc_soft_loss(batch, config):
    """auroc_soft_loss with its head in numpy arrays, the form it replaced."""
    soft = soft_confusion(batch, config.grid_stack)
    tp, fp, fn, tn = soft.counts.T
    fpr_den = fp + tn + EPSILON
    tpr_den = tp + fn + EPSILON
    fpr = fp / fpr_den
    order = np.argsort(fpr, kind="stable")
    xs = np.concatenate(([0.0], fpr[order], [1.0]))
    ys = np.concatenate(([0.0], (tp / tpr_den)[order], [1.0]))
    area = float((np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0).sum())
    unsort = np.argsort(order)
    da_dx = 0.5 * (ys[:-2] - ys[2:])[unsort] / fpr_den ** 2
    da_dy = 0.5 * (xs[2:] - xs[:-2])[unsort] / tpr_den ** 2
    d_counts = np.array((-(fn + EPSILON) * da_dy, -(tn + EPSILON) * da_dx,
                         tp * da_dy, fp * da_dx)).T
    return 1.0 - area, soft.grad(d_counts)


grid_taus = (0.1, 0.2, 0.3, 0.5, 0.7, 0.9)


@st.composite
def two_class_batches(draw, taus):
    """Predictions that sit at 0, at 1 and on a threshold, besides any
    others, and labels of both classes."""
    n = draw(st.integers(2, 40))
    marked = st.sampled_from((0.0, 1.0) + tuple(taus))
    preds = draw(arrays(float, n, elements=st.one_of(st.floats(0.0, 1.0),
                                                      marked)))
    labels = draw(arrays(float, n, elements=labels_01))
    labels[:2] = 0.0, 1.0
    return LabeledBatch(preds, labels)


def assert_same_bits(got, expected):
    """The same loss, with the sign of a zero, and the same gradient bytes."""
    (loss, grad), (ref_loss, ref_grad) = got, expected
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert grad.tobytes() == ref_grad.tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), tau=st.sampled_from(grid_taus), family=surrogates,
       beta=st.floats(0.5, 4.0), objective=st.sampled_from(
           ("accuracy", "f_beta")))
def test_single_threshold_heads_keep_the_numpy_bits(data, tau, family, beta,
                                                    objective):
    batch = data.draw(two_class_batches((tau,)))
    config = LossConfig(objective=objective, beta=beta, tau_train=tau,
                        approximation=family)
    reference = (numpy_accuracy_loss if objective == "accuracy"
                 else numpy_fbeta_loss)
    assert_same_bits(objective_loss(batch, config),
                     reference(batch, config))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), family=surrogates,
       grid=st.lists(st.sampled_from(grid_taus), min_size=1, max_size=12))
def test_auroc_head_keeps_the_numpy_bits(data, family, grid):
    # a threshold listed twice, or predictions that all clear a few
    # thresholds, tie those thresholds' FPRs
    batch = data.draw(two_class_batches(grid))
    config = LossConfig(objective="auroc", tau_grid=tuple(grid),
                        approximation=family)
    assert_same_bits(auroc_soft_loss(batch, config),
                     numpy_auroc_soft_loss(batch, config))
