import collections
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import softstep.network
import softstep.training
from softstep.confusion import LabeledBatch
from softstep.data import (
    Dataset,
    batches,
    generate_blobs,
    standardize_and_split,
    subsample_positives,
)
from softstep.experiments import score
from softstep.metrics import LossConfig, json_text, objective_loss
from softstep.network import MlpModel, forward
from softstep.training import (
    TrainConfig,
    TrainingDivergedError,
    TrainingStalledError,
    TrainReport,
    train,
)


def small_split(seed=0, n_per_class=120, sigma=10.0):
    data = generate_blobs(n_per_class=n_per_class, sigma=sigma, seed=seed)
    return standardize_and_split(data, seed=seed)


def fresh_model(split, config, dropout=0.5):
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 7]))
    return MlpModel.create(split.train.dims, dropout=dropout, rng=rng)


def run(config, split=None, dropout=0.5):
    split = split or small_split(seed=config.seed)
    model = fresh_model(split, config, dropout)
    report = train(model, split, config)
    return model, report


# --------------------------------------------------------------- happy path


def test_train_bce_on_overlapping_blobs_stops_early():
    # overlapping clusters: validation loss plateaus at the noise floor,
    # so the stagnation window must fire well before max_epochs
    split = small_split(seed=1)
    config = TrainConfig(loss=LossConfig(objective="bce"), batch_size=64,
                         max_epochs=300, window=5, seed=1)
    model = fresh_model(split, config, dropout=0.2)
    report = train(model, split, config)
    assert report.epochs_run < 300
    assert report.best_val_loss < 0.65
    table = score(model, split.test, config.loss.tau_grid, config.loss.beta)
    by_key = {(r.name, r.tau): r for r in table.rows}
    assert by_key[("accuracy", 0.5)].value > 0.7
    assert by_key[("auroc", None)].value > 0.8


def test_train_fbeta_objective_improves_over_init():
    split = small_split(seed=2)
    config = TrainConfig(loss=LossConfig(objective="f_beta"), batch_size=64,
                         max_epochs=60, window=10, seed=2)
    model = fresh_model(split, config, dropout=0.0)
    init_val = objective_loss(
        LabeledBatch(forward(model, split.validation.features).preds,
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
    assert np.array_equal(model_a.flat, model_b.flat)
    dict_a = report_a.summary_dict()
    dict_b = report_b.summary_dict()
    dict_a.pop("duration_seconds")
    dict_b.pop("duration_seconds")
    assert dict_a == dict_b


# ------------------------------------------------------------ early stopping


def validation_loss_of(value):
    """A stand-in for ``_epoch_validation_loss`` that reports ``value``."""
    def validate(model, split, config, kernel):
        return value, kernel(model)
    return validate


def test_early_stop_fires_after_window_stagnant_epochs(monkeypatch):
    # a constant validation loss: only epoch 1 counts as an improvement
    config = TrainConfig(loss=LossConfig(objective="bce"), batch_size=64,
                         max_epochs=50, window=6, seed=3)
    monkeypatch.setattr(softstep.training, "_epoch_validation_loss",
                        validation_loss_of(0.25))
    _, report = run(config, dropout=0.0)
    assert report.epochs_run == config.window + 1
    assert report.best_epoch == 1


def test_best_epoch_parameters_are_restored():
    config = TrainConfig(loss=LossConfig(objective="f_beta"), batch_size=32,
                         max_epochs=25, window=5, seed=13)
    split = small_split(seed=13, n_per_class=80)
    model = fresh_model(split, config, dropout=0.3)
    report = train(model, split, config)
    assert report.best_val_loss == min(report.val_loss)
    assert report.val_loss[report.best_epoch - 1] == report.best_val_loss
    # the restored parameters reproduce the recorded best validation loss
    preds = forward(model, split.validation.features).preds
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


@settings(max_examples=60, deadline=None)
@given(objective=st.sampled_from(["accuracy", "f_beta", "auroc", "bce"]),
       value=st.sampled_from([np.nan, np.inf, -np.inf]),
       k=st.integers(1, 12))
@example(objective="bce", value=np.nan, k=1)    # 4 steps an epoch here
@example(objective="bce", value=np.nan, k=3)
@example(objective="bce", value=np.nan, k=4)
def test_poisoned_parameters_raise_diverged_error(objective, value, k):
    # a weight poisoned after step k is caught by the next forward: step
    # k + 1's, or the validation's when step k ends its epoch
    split = small_split(seed=7, n_per_class=40)
    config = TrainConfig(loss=LossConfig(objective=objective), batch_size=16,
                         max_epochs=5, window=5, seed=7)
    model = fresh_model(split, config)
    where = []

    def poison(mdl, epoch, step, idx):
        if step == k:
            mdl.weights[1][0, 0] = value
            last = batches(split.train, config.batch_size, config.seed,
                           epoch)[-1]
            where.append("on the validation split"
                         if np.array_equal(idx, last)
                         else f"at epoch {epoch}, step {k + 1}")

    with pytest.raises(TrainingDivergedError) as caught:
        train(model, split, config, step_callback=poison)
    assert where and str(caught.value) == f"non-finite predictions {where[0]}"


def test_training_steps_do_not_check_their_inputs_again(monkeypatch):
    # the model checked its dropout rates when it was built, the Dataset
    # its labels, and _finite_or_diverged checks each pass's predictions
    split = small_split(seed=7, n_per_class=40)
    config = TrainConfig(loss=LossConfig(objective="f_beta"), batch_size=16,
                         max_epochs=3, window=3, seed=7)
    model = fresh_model(split, config)
    calls = collections.Counter()

    def counted(name, function):
        def count(*args):
            calls[name] += 1
            return function(*args)
        return count

    monkeypatch.setattr(softstep.network, "check_dropout",
                        counted("check_dropout",
                                softstep.network.check_dropout))
    monkeypatch.setattr(LabeledBatch, "__post_init__",
                        counted("LabeledBatch", LabeledBatch.__post_init__))
    assert train(model, split, config).epochs_run == 3
    assert not calls
    fresh_model(split, config)
    LabeledBatch(np.array([0.5]), np.array([1.0]))
    assert calls == {"check_dropout": 2, "LabeledBatch": 1}


@pytest.mark.parametrize("loss, grad", [(np.nan, 0.0), (0.5, np.inf)])
def test_nonfinite_loss_or_gradient_raises_diverged_error(monkeypatch, loss,
                                                          grad):
    split = small_split(seed=7, n_per_class=40)
    config = TrainConfig(loss=LossConfig(objective="bce"), batch_size=16,
                         max_epochs=5, window=3, seed=7)
    monkeypatch.setattr(softstep.training, "objective_loss",
                        lambda batch, _: (loss, np.full(batch.n, grad)))
    with pytest.raises(TrainingDivergedError,
                       match="non-finite loss at epoch 1, step 1"):
        train(fresh_model(split, config), split, config)


def test_nonfinite_validation_loss_raises_diverged_error(monkeypatch):
    split = small_split(seed=7, n_per_class=40)
    config = TrainConfig(loss=LossConfig(objective="bce"), batch_size=16,
                         max_epochs=5, window=3, seed=7)
    monkeypatch.setattr(softstep.training, "_epoch_validation_loss",
                        validation_loss_of(np.nan))
    with pytest.raises(TrainingDivergedError,
                       match="non-finite validation loss at epoch 1"):
        train(fresh_model(split, config), split, config)


@pytest.mark.parametrize("lr", [1e-300, 1e-20])
def test_training_that_changes_no_prediction_is_refused(lr):
    # updates this small round away in every pre-activation, although the
    # zero-initialized biases do move
    config = TrainConfig(loss=LossConfig(objective="bce"), batch_size=64,
                         max_epochs=3, window=3, lr=lr, seed=3)
    split = small_split(seed=3)
    model = fresh_model(split, config, dropout=0.0)
    initial = model.flat.copy()
    with pytest.raises(TrainingStalledError,
                       match=r"^\d+ optimizer steps changed no validation "
                             r"prediction: objective bce, surrogate "
                             r"piecewise, tau 0.5$"):
        train(model, split, config)
    assert not np.array_equal(model.flat, initial)


def test_stalled_auroc_training_names_its_threshold_grid():
    config = TrainConfig(loss=LossConfig(objective="auroc",
                                         tau_grid=(0.25, 0.75)),
                         batch_size=64, max_epochs=2, window=2, lr=1e-300,
                         seed=3)
    split = small_split(seed=3)
    with pytest.raises(TrainingStalledError,
                       match=r"objective auroc, surrogate piecewise, "
                             r"tau grid \(0.25, 0.75\)$"):
        train(fresh_model(split, config), split, config)


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
    before = model.flat.copy()
    with pytest.raises(ValueError, match="auroc.*validation split"):
        train(model, split, config,
              step_callback=lambda *args: pytest.fail("a step ran"))
    assert np.array_equal(before, model.flat)


# ------------------------------------------------------------------- report


def test_report_json_round_trips():
    config = TrainConfig(loss=LossConfig(objective="bce"), batch_size=64,
                         max_epochs=4, window=10, seed=17)
    split = small_split(seed=config.seed)
    model, report = run(config, split)
    payload = json.loads(json_text(report.summary_dict()))
    assert payload["epochs_run"] == report.epochs_run
    assert payload["best_epoch"] == report.best_epoch
    assert len(payload["train_loss"]) == report.epochs_run
    assert payload["duration_seconds"] == report.duration_seconds
    table = score(model, split.test, config.loss.tau_grid, config.loss.beta)
    assert json.loads(table.to_json())["rows"]
    assert isinstance(report, TrainReport)


# --------------------------------------------------------------- test split

# an auroc objective at batch 4 on 20% positives skips one-class batches
BLIND_CONFIG = TrainConfig(loss=LossConfig(objective="auroc"), batch_size=4,
                           max_epochs=6, window=3, seed=19)
BLIND_SPLIT = standardize_and_split(subsample_positives(
    generate_blobs(n_per_class=48, sigma=8.0, seed=19), 0.25, seed=19),
    seed=19)


def trained_bits(split):
    """Every output of a training on ``split``, as bytes and integers."""
    model = fresh_model(split, BLIND_CONFIG)
    report = train(model, split, BLIND_CONFIG)
    return (model.flat.tobytes(), np.array(report.train_loss).tobytes(),
            np.array(report.val_loss).tobytes(), report.epochs_run,
            report.best_epoch, np.float64(report.best_val_loss).tobytes(),
            report.skipped_batches)


BLIND_BITS = trained_bits(BLIND_SPLIT)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_training_never_reads_the_test_split(data):
    rows = data.draw(st.integers(1, 40), label="test rows")
    features = data.draw(arrays(
        np.float64, (rows, BLIND_SPLIT.train.dims),
        elements=st.floats(allow_nan=False, allow_infinity=False)))
    labels = data.draw(arrays(np.float64, rows,
                              elements=st.sampled_from([0.0, 1.0])))
    split = dataclasses.replace(BLIND_SPLIT, test=Dataset(features, labels))
    assert trained_bits(split) == BLIND_BITS
    assert BLIND_BITS[-1] > 0    # skipped_batches is held to a count


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(window=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr)
