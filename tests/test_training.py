import dataclasses
import json

import numpy as np
import pytest

from softstep.confusion import LabeledBatch
from softstep.data import Dataset, generate_blobs, standardize_and_split
from softstep.metrics import LossConfig, objective_loss
from softstep.network import MlpModel, forward
from softstep.training import (
    TrainConfig,
    TrainingDivergedError,
    TrainReport,
    train,
)


def small_split(seed=0, n_per_class=120, sigma=10.0):
    data = generate_blobs(n_per_class=n_per_class, sigma=sigma, seed=seed)
    return standardize_and_split(data, seed=seed)


def fresh_model(split, config):
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 7]))
    return MlpModel.create(split.train.dims, dropout=config.dropout, rng=rng)


def run(config, split=None):
    split = split or small_split(seed=config.seed)
    model = fresh_model(split, config)
    report = train(model, split, config)
    return model, report


# --------------------------------------------------------------- happy path


def test_train_bce_on_overlapping_blobs_stops_early():
    # overlapping clusters: validation loss plateaus at the noise floor,
    # so the stagnation window must fire well before max_epochs
    split = small_split(seed=1)
    config = TrainConfig(loss=LossConfig(objective="bce"), batch_size=64,
                         max_epochs=300, window=5, dropout=0.2, seed=1)
    model = fresh_model(split, config)
    report = train(model, split, config)
    assert report.epochs_run < 300
    assert report.best_val_loss < 0.65
    by_key = {(r.name, r.tau): r for r in report.final_metrics.rows}
    assert by_key[("accuracy", 0.5)].value > 0.7
    assert by_key[("auroc", None)].value > 0.8


def test_train_fbeta_objective_improves_over_init():
    split = small_split(seed=2)
    config = TrainConfig(loss=LossConfig(objective="f_beta"), batch_size=64,
                         max_epochs=60, window=10, dropout=0.0, seed=2)
    model = fresh_model(split, config)
    init_val = objective_loss(
        LabeledBatch(forward(model, split.validation.features),
                     split.validation.labels), config.loss)[0]
    report = train(model, split, config)
    assert report.best_val_loss < init_val


# ------------------------------------------------------------- determinism


def test_train_fixed_seed_reproduces_report_and_model():
    config = TrainConfig(loss=LossConfig(objective="f_beta"), batch_size=32,
                         max_epochs=12, window=4, seed=11)
    split = small_split(seed=11, n_per_class=60)
    model_a = fresh_model(split, config)
    report_a = train(model_a, split, config)
    model_b = fresh_model(split, config)
    report_b = train(model_b, split, config)
    assert report_a.train_loss == report_b.train_loss
    assert report_a.val_loss == report_b.val_loss
    assert report_a.best_epoch == report_b.best_epoch
    for p, q in zip(model_a.parameters(), model_b.parameters()):
        assert np.array_equal(p, q)
    dict_a = report_a.summary_dict()
    dict_b = report_b.summary_dict()
    dict_a.pop("duration_seconds")
    dict_b.pop("duration_seconds")
    assert dict_a == dict_b


# ------------------------------------------------------------ early stopping


def test_early_stop_fires_after_window_stagnant_epochs():
    # lr below float resolution: parameters never actually move, so the
    # validation loss is constant and only epoch 1 counts as an improvement
    config = TrainConfig(loss=LossConfig(objective="bce"), batch_size=64,
                         max_epochs=50, window=6, dropout=0.0, lr=1e-20,
                         seed=3)
    _, report = run(config)
    assert report.epochs_run == config.window + 1
    assert report.best_epoch == 1


def test_best_epoch_parameters_are_restored():
    config = TrainConfig(loss=LossConfig(objective="f_beta"), batch_size=32,
                         max_epochs=25, window=5, dropout=0.3, seed=13)
    split = small_split(seed=13, n_per_class=80)
    model = fresh_model(split, config)
    report = train(model, split, config)
    assert report.best_val_loss == min(report.val_loss)
    assert report.val_loss[report.best_epoch - 1] == report.best_val_loss
    # the restored parameters reproduce the recorded best validation loss
    preds = forward(model, split.validation.features)
    recomputed = objective_loss(
        LabeledBatch(preds, split.validation.labels), config.loss)[0]
    assert recomputed == pytest.approx(report.best_val_loss, abs=1e-12)


def test_history_lengths_respect_stopping():
    config = TrainConfig(loss=LossConfig(objective="bce"), batch_size=64,
                         max_epochs=15, window=3, seed=5)
    _, report = run(config)
    assert len(report.train_loss) == report.epochs_run <= 15
    assert len(report.val_loss) == report.epochs_run


# ------------------------------------------------------ divergence handling


def test_poisoned_parameters_raise_diverged_error():
    split = small_split(seed=7, n_per_class=40)
    config = TrainConfig(loss=LossConfig(objective="bce"), batch_size=16,
                         max_epochs=5, window=3, seed=7)
    model = fresh_model(split, config)

    def poison(mdl, epoch, step, idx):
        mdl.weights[0][0, 0] = np.nan

    with pytest.raises(TrainingDivergedError):
        train(model, split, config, step_callback=poison)


# ----------------------------------------------------------------- callback


def test_step_callback_sees_every_batch():
    split = small_split(seed=9, n_per_class=50)   # train split has 64 rows
    config = TrainConfig(loss=LossConfig(objective="bce"), batch_size=48,
                         max_epochs=3, window=10, seed=9)
    model = fresh_model(split, config)
    seen = []
    train(model, split, config,
          step_callback=lambda m, epoch, step, idx: seen.append(
              (epoch, step, idx)))
    n_train = split.train.n
    per_epoch = {}
    for epoch, step, idx in seen:
        per_epoch.setdefault(epoch, []).append(idx)
    assert set(per_epoch) == {1, 2, 3}
    for epoch, rows in per_epoch.items():
        # each epoch's batches partition the train split
        assert np.array_equal(np.sort(np.concatenate(rows)),
                              np.arange(n_train))
        assert len(rows[-1]) == n_train % 48 or n_train % 48 == 0
    steps = [step for _, step, _ in seen]
    assert steps == list(range(1, len(steps) + 1))


# ------------------------------------------------------- one-class batches


def test_single_class_batches_skipped_for_auroc():
    rng = np.random.default_rng(15)
    feats = rng.normal(size=(60, 3))
    labels = np.zeros(60)
    labels[:12] = 1.0    # 20% positives, batch_size 4 gives one-class batches
    feats[labels == 1.0] += 2.0
    data = Dataset(feats, labels)
    split = standardize_and_split(data, seed=15)
    config = TrainConfig(loss=LossConfig(objective="auroc"), batch_size=4,
                         max_epochs=4, window=10, seed=15)
    model = fresh_model(split, config)
    report = train(model, split, config)
    assert report.skipped_batches > 0
    assert report.epochs_run == 4


def test_auroc_objective_refuses_single_class_validation_split():
    split = small_split(seed=15, n_per_class=60)
    all_negative = Dataset(split.validation.features,
                           np.zeros(split.validation.n))
    split = dataclasses.replace(split, validation=all_negative)
    config = TrainConfig(loss=LossConfig(objective="auroc"), batch_size=16,
                         max_epochs=3, window=3, seed=15)
    model = fresh_model(split, config)
    before = model.copy_parameters()
    with pytest.raises(ValueError, match="auroc.*validation split"):
        train(model, split, config,
              step_callback=lambda *args: pytest.fail("a step ran"))
    assert all(np.array_equal(a, b)
               for a, b in zip(before, model.copy_parameters()))


# ------------------------------------------------------------------- report


def test_report_json_round_trips():
    config = TrainConfig(loss=LossConfig(objective="bce"), batch_size=64,
                         max_epochs=4, window=10, seed=17)
    _, report = run(config)
    payload = json.loads(report.to_json())
    assert payload["epochs_run"] == report.epochs_run
    assert payload["best_epoch"] == report.best_epoch
    assert len(payload["train_loss"]) == report.epochs_run
    assert payload["final_metrics"] is not None
    assert isinstance(report, TrainReport)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(window=0)
    with pytest.raises(ValueError):
        TrainConfig(dropout=1.0)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr)
