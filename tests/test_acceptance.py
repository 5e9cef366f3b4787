"""Acceptance suite: ten go/no-go checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one PASSED/FAILED
line per criterion; each test also prints a short PASS summary visible
under ``-s``.  Tolerances are pinned in the assertions, not computed.
"""

import time

import numpy as np
import pytest

from softstep.confusion import (
    LabeledBatch,
    aggregate_hard,
    aggregate_soft,
    aggregate_soft_grad,
)
from softstep.experiments import (
    DatasetSource,
    ExperimentSpec,
    loss_config_for,
    prepared_split,
    run_batch_sweep,
    run_fbeta_sweep,
    run_sigmoid_compare,
    trial_model,
)
from softstep.heaviside import (
    HeavisideParams,
    build_lookup_table,
    heaviside_approx,
    heaviside_approx_grad,
    lookup,
)
from softstep.cli import main
from softstep.metrics import (
    LossConfig,
    accuracy,
    auroc_hard,
    f_beta,
    objective_loss,
)
from softstep.network import MlpModel, backward, forward
from softstep.training import TrainConfig, train

# imbalanced desk preset shared by criteria 6, 7, 8: 5000 negatives plus
# 150 kept positives (2.91% positive) with slightly tighter blobs than the
# balanced default so the minority class is learnable at this sample size
IMBALANCED = DatasetSource(sigma=8.0, keep_fraction=0.03)

TAU_GRID = tuple(i / 10 for i in range(1, 10))


def random_params(rng):
    return HeavisideParams(tau=float(rng.uniform(0.01, 0.99)),
                           delta=float(rng.uniform(0.01, 0.49)))


def relative_gap(analytic, numeric):
    scale = max(abs(analytic), abs(numeric))
    if scale < 1e-8:
        return abs(analytic - numeric)   # both effectively zero
    return abs(analytic - numeric) / scale


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_approximation_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    grid = np.linspace(0.0, 1.0, 10_000)
    for _ in range(1000):
        params = random_params(rng)
        exact = heaviside_approx(np.array([0.0, params.tau, 1.0]), params)
        assert exact[0] == 0.0 and exact[1] == 0.5 and exact[2] == 1.0
        for kink, target in ((params.kink_low, params.delta),
                             (params.kink_high, 1.0 - params.delta)):
            assert abs(heaviside_approx(kink, params) - target) < 1e-12
            left = heaviside_approx(np.nextafter(kink, 0.0), params)
            right = heaviside_approx(np.nextafter(kink, 1.0), params)
            assert abs(right - left) < 1e-12
        values = heaviside_approx(grid, params)
        assert np.all(np.diff(values) > 0.0)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"criterion 1 PASS: 1000 parameter pairs exact at {{0, tau, 1}}, "
          f"kink gap < 1e-12, strictly monotone on a 10^4 grid "
          f"({elapsed:.2f}s < 5s)")


# ---------------------------------------------------------------- criterion 2


FD_STEP = 1e-5
BOUNDARY_MARGIN = 1.5e-3


def central_difference(fn, x, step=FD_STEP):
    return (fn(x + step) - fn(x - step)) / (2.0 * step)


def clear_of(points, values, margin=BOUNDARY_MARGIN):
    values = np.atleast_1d(values)
    gaps = np.abs(values[:, None] - np.asarray(points)[None, :])
    return bool(np.all(gaps > margin))


def test_criterion_02_gradient_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(202)

    # (a) the approximation itself, 500 probes off the kinks
    probes = 0
    while probes < 500:
        params = random_params(rng)
        p = float(rng.uniform(1e-3, 1.0 - 1e-3))
        if not clear_of((params.kink_low, params.kink_high), p):
            continue
        numeric = central_difference(lambda x: heaviside_approx(x, params), p)
        analytic = heaviside_approx_grad(p, params)
        assert relative_gap(analytic, numeric) < 1e-4
        probes += 1

    # (b) soft counts: batch gradients against per-sample differences
    probes = 0
    while probes < 500:
        params = random_params(rng)
        boundaries = (params.kink_low, params.tau, params.kink_high)
        preds = rng.uniform(1e-3, 1.0 - 1e-3, size=20)
        keep = np.array([clear_of(boundaries, p) for p in preds])
        preds = preds[keep]
        if preds.size == 0:
            continue
        labels = rng.integers(0, 2, size=preds.size).astype(float)
        batch = LabeledBatch(preds, labels)
        grads = aggregate_soft_grad(batch, params)
        for field in ("tp", "fp", "fn", "tn"):
            analytic = getattr(grads, field)
            for j in range(preds.size):
                def count_at(x, j=j, field=field):
                    moved = preds.copy()
                    moved[j] = x
                    counts = aggregate_soft(LabeledBatch(moved, labels),
                                            params)
                    return getattr(counts, field)
                numeric = central_difference(count_at, preds[j])
                assert relative_gap(analytic[j], numeric) < 1e-4
        probes += preds.size

    # (c) every loss end to end through a 2-feature network
    boundary_pool = {"f_beta": (0.25, 0.5, 0.75),
                     "accuracy": (0.25, 0.5, 0.75),
                     "bce": ()}
    auroc_boundaries = []
    for tau in TAU_GRID:
        params = HeavisideParams(tau=tau)
        auroc_boundaries += [params.kink_low, tau, params.kink_high]
    boundary_pool["auroc"] = tuple(sorted(set(auroc_boundaries)))

    probes = 0
    for objective, boundaries in boundary_pool.items():
        config = LossConfig(objective=objective)
        model = MlpModel.create(2, rng=np.random.default_rng(7))
        model.weights[2][...] *= 4.0        # widen the prediction range

        features = None
        while features is None:
            cand = rng.normal(scale=2.0, size=(48, 2))
            preds = forward(model, cand).preds
            if boundaries and not clear_of(boundaries, preds):
                continue
            if np.any(preds < 1e-3) or np.any(preds > 1 - 1e-3):
                continue
            features = cand
        labels = rng.integers(0, 2, size=48).astype(float)
        labels[:2] = (0.0, 1.0)             # both classes, for auroc
        flat = model.flat.copy()

        def loss_at(theta):
            probe = MlpModel.create(2, rng=np.random.default_rng(7))
            probe.flat[:] = theta
            batch = LabeledBatch(forward(probe, features).preds, labels)
            return objective_loss(batch, config)[0]

        fwd = forward(model, features)
        batch = LabeledBatch(fwd.preds, labels)
        _, pred_grad = objective_loss(batch, config)
        analytic = backward(model, pred_grad, fwd)

        for index in rng.choice(flat.size, size=130, replace=False):
            def at(x, index=index):
                moved = flat.copy()
                moved[index] = x
                return loss_at(moved)
            numeric = central_difference(at, flat[index])
            assert relative_gap(analytic[index], numeric) < 1e-4, \
                f"{objective} parameter {index}"
            probes += 1
    assert probes >= 500

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 2 PASS: analytic gradients match central differences "
          f"(rel err < 1e-4) for the approximation, soft counts, and all "
          f"four losses through a 2-feature network ({elapsed:.1f}s < 30s)")


# ---------------------------------------------------------------- criterion 3


def test_criterion_03_saturation_equivalence():
    rng = np.random.default_rng(303)
    for _ in range(100):
        n = int(rng.integers(4, 200))
        preds = rng.integers(0, 2, size=n).astype(float)
        labels = rng.integers(0, 2, size=n).astype(float)
        params = random_params(rng)
        batch = LabeledBatch(preds, labels)
        soft = aggregate_soft(batch, params)
        hard = aggregate_hard(batch, params.tau)
        assert (soft.tp, soft.fp, soft.fn, soft.tn) == \
            (hard.tp, hard.fp, hard.fn, hard.tn)
        assert f_beta(soft, 1.0).value == f_beta(hard, 1.0).value
        assert accuracy(soft).value == accuracy(hard).value
    print("criterion 3 PASS: soft counts and soft F1/accuracy collapse to "
          "their hard counterparts exactly on 100 saturated batches")


# ---------------------------------------------------------------- criterion 4


def auroc_by_pair_enumeration(preds, labels):
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


def test_criterion_04_hard_auroc_oracle():
    rng = np.random.default_rng(404)
    for round_idx in range(100):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, size=n).astype(float)
        labels[:2] = (0.0, 1.0)
        preds = rng.uniform(size=n)
        if round_idx % 2:
            preds = np.round(preds, 1)      # force rank ties
        batch = LabeledBatch(preds, labels)
        assert abs(auroc_hard(batch)
                   - auroc_by_pair_enumeration(preds, labels)) <= 1e-12
    print("criterion 4 PASS: rank-statistic AUROC matches pair enumeration "
          "within 1e-12 on 100 batches (ties included)")


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_balanced_reproduction_band():
    started = time.perf_counter()
    spec = ExperimentSpec(
        command="sigmoid-compare",
        dataset=DatasetSource(),            # balanced default geometry
        losses=("accuracy", "f_1"),
        trials=3, seed=0,
        max_epochs=150, window=30, batch_size=1024)
    table = run_sigmoid_compare(spec)
    assert not table.has_errors

    means = {(r.loss, r.approximation, r.metric): r.mean
             for r in table.rows}
    assert len(means) == 8
    for value in means.values():
        assert 0.78 <= value <= 0.90
    for loss in ("accuracy", "f_1"):
        for metric in ("accuracy", "f_1"):
            gap = abs(means[(loss, "piecewise", metric)]
                      - means[(loss, "sigmoid_fit", metric)])
            assert gap <= 0.03
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(f"criterion 5 PASS: balanced-task accuracy/F1 all in "
          f"[0.78, 0.90] and the two approximation families agree within "
          f"0.03 ({elapsed:.0f}s < 600s)")


# ---------------------------------------------------------------- criterion 6


def hard_test_metrics(model, split, tau=0.5):
    preds = forward(model, split.test.features).preds
    counts = aggregate_hard(LabeledBatch(preds, split.test.labels), tau)
    return f_beta(counts, 1.0).value, accuracy(counts).value


def test_criterion_06_imbalance_degeneracy():
    started = time.perf_counter()
    spec = ExperimentSpec(
        command="loss-grid", dataset=IMBALANCED, losses=("accuracy", "f_1"),
        trials=3, seed=0, max_epochs=400, window=60, batch_size=256)
    split = prepared_split(spec)
    data_positive_fraction = 150 / 5150
    assert data_positive_fraction <= 0.03

    results = {}
    for token in ("accuracy", "f_1"):
        label, loss = loss_config_for(spec, token, spec.approximation)
        scores = []
        for trial in range(spec.trials):
            seed = spec.seed + trial
            model = trial_model(spec, split.train.dims, seed)
            train(model, split, TrainConfig(
                loss=loss, batch_size=spec.batch_size,
                max_epochs=spec.max_epochs, window=spec.window, seed=seed))
            scores.append(hard_test_metrics(model, split))
        results[label] = scores

    # accuracy loss degenerates to the all-negative predictor
    for f1, acc in results["accuracy"]:
        assert f1 == 0.0
        assert acc >= (1.0 - data_positive_fraction) - 0.01
    # F1 loss trains a usable minority-class detector on the same data
    assert np.mean([f1 for f1, _ in results["f_1"]]) >= 0.3

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(f"criterion 6 PASS: at 2.9% positives the accuracy loss yields "
          f"F1 = 0 with majority-level accuracy while the F1 loss reaches "
          f"mean F1 "
          f"{np.mean([f1 for f1, _ in results['f_1']]):.2f} >= 0.3 "
          f"({elapsed:.0f}s < 600s)")


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_fbeta_ordering():
    started = time.perf_counter()
    spec = ExperimentSpec(
        command="fbeta-sweep", dataset=IMBALANCED, betas=(1.0, 2.0, 3.0),
        trials=3, seed=0, max_epochs=400, window=60, batch_size=256)
    table = run_fbeta_sweep(spec)
    assert not table.has_errors

    recall = [r.mean for r in table.rows if r.metric == "recall"]
    precision = [r.mean for r in table.rows if r.metric == "precision"]
    assert len(recall) == len(precision) == 3
    assert recall[0] <= recall[1] <= recall[2]
    assert precision[0] >= precision[1] >= precision[2]

    elapsed = time.perf_counter() - started
    assert elapsed < 900.0
    print(f"criterion 7 PASS: over beta 1/2/3 mean recall rises "
          f"({recall[0]:.3f} -> {recall[2]:.3f}) while mean precision "
          f"falls ({precision[0]:.3f} -> {precision[2]:.3f}) "
          f"({elapsed:.0f}s < 900s)")


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_batch_sweep_trend():
    started = time.perf_counter()
    spec = ExperimentSpec(
        command="batch-sweep", dataset=IMBALANCED, losses=("f_1",),
        batch_sizes=(64, 256, 1024), trials=1, seed=0,
        max_epochs=400, window=60)
    table = run_batch_sweep(spec)
    assert not table.has_errors

    by_size = {r.batch_size: r.mean for r in table.rows}
    assert by_size[64] >= by_size[256] >= by_size[1024]

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(f"criterion 8 PASS: mean |F1(batch) - F1(split)| is "
          f"non-increasing over batch 64/256/1024 "
          f"({by_size[64]:.3f} >= {by_size[256]:.3f} >= "
          f"{by_size[1024]:.3f}) ({elapsed:.0f}s < 600s)")


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_lookup_table_bound():
    # tau spacing 0.1 and p truncated at two decimals: 101 x 9 cells
    table = build_lookup_table(101, TAU_GRID, delta=0.1)
    p_step = table.p_step
    assert p_step == pytest.approx(0.01)
    for tau in TAU_GRID:
        params = HeavisideParams(tau=tau, delta=0.1)
        bound = params.slope_mid * p_step
        # exhaustive: every cell's worst case is its right edge, since
        # the approximation increases within a truncation bucket
        for i in range(101):
            right = min((i + 1) * p_step, 1.0)
            edge = np.nextafter(right, 0.0) if right < 1.0 else 1.0
            stored = lookup(table, i * p_step, tau)
            worst = heaviside_approx(edge, params) - stored
            assert 0.0 <= worst <= bound + 1e-12

    quantized = build_lookup_table(101, TAU_GRID, delta=0.1, quantized=True)
    assert quantized.nbytes <= 1024
    print(f"criterion 9 PASS: lookup error bounded by slope x p_step in "
          f"every one of {101 * 9} cells; quantized table is "
          f"{quantized.nbytes} bytes <= 1kB")


# --------------------------------------------------------------- criterion 10


def test_criterion_10_cli_determinism(tmp_path):
    argv = ["fbeta-sweep", "--dataset", "blobs:n_per_class=150,sigma=8",
            "--betas", "1,2", "--trials", "2", "--epochs", "20",
            "--window", "8", "--batch-size", "64", "--seed", "7"]
    runs = []
    for name in ("first.tsv", "second.tsv"):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]

    json_runs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        assert main(["loss-grid", "--dataset",
                     "blobs:n_per_class=120,sigma=8", "--loss", "f_1",
                     "--trials", "1", "--epochs", "10", "--window", "5",
                     "--batch-size", "64", "--seed", "3",
                     "--format", "json", "--out", str(out)]) == 0
        json_runs.append(out.read_bytes())
    assert json_runs[0] == json_runs[1]
    print("criterion 10 PASS: repeated CLI runs with identical spec and "
          "seed write byte-identical tsv and json artifacts")
