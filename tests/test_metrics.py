import json
import math

import numpy as np
import pytest

from softstep.confusion import HardCounts, LabeledBatch, SoftCounts, aggregate_soft
from softstep.heaviside import HeavisideParams
from softstep.metrics import (
    BETA_MAX,
    EPSILON,
    LossConfig,
    MetricValue,
    TAU_GRID_DEFAULT,
    UndefinedMetricError,
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
    # past about 1e77 a 256-row batch squared its denominator to inf and
    # got a gradient of exactly zero; at the bound 4096 rows are still fine
    rng = np.random.default_rng(0)
    batch = LabeledBatch(rng.random(4096),
                         (rng.random(4096) < 0.3).astype(float))
    with np.errstate(all="raise"):
        loss, grad = fbeta_loss(batch, LossConfig(beta=BETA_MAX))
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad)) and np.any(grad != 0.0)


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(objective="hinge")
    with pytest.raises(ValueError):
        LossConfig(beta=0.0)
    for beta in (float("inf"), 1e155, math.nextafter(BETA_MAX, math.inf)):
        with pytest.raises(ValueError, match="beta must be at most 8.63e"):
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
