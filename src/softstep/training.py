"""Early-stopped training loop wiring the network to the metric losses.

One epoch = shuffled mini-batches (reshuffled every epoch, last partial
batch kept), one optimizer step per batch. After each epoch the objective
is evaluated on the full validation split with dropout off; training stops
when the best validation loss has not improved for ``window`` consecutive
epochs or at ``max_epochs``. The returned model carries the parameters of
the best-validation epoch, not the last one. The test split is never read:
``experiments.score`` scores it on the returned model.

Ranking objectives need both classes in a batch; single-class mini-batches
carry no signal for them, so those steps are skipped and counted instead of
aborting the run.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .confusion import LabeledBatch
from .data import SplitDataset, batches
from .metrics import LossConfig, UndefinedMetricError, objective_loss
from .network import (AdamState, DropoutBytes, EvalKernel, MlpModel,
                      adam_step, backward, forward)

_TAG_DROPOUT = 31


class TrainingDivergedError(RuntimeError):
    """Loss or gradient became non-finite during training."""


class TrainingStalledError(RuntimeError):
    """Optimizer steps ran, but the model predicts exactly as it started."""


@dataclass(frozen=True)
class TrainConfig:
    loss: LossConfig = field(default_factory=LossConfig)
    batch_size: int = 1024
    max_epochs: int = 5000
    window: int = 100
    lr: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")


@dataclass(frozen=True)
class TrainReport:
    """Loss histories, the stopping decision and the skipped batch count."""

    train_loss: tuple
    val_loss: tuple
    epochs_run: int
    best_epoch: int
    best_val_loss: float
    skipped_batches: int
    duration_seconds: float

    def summary_dict(self) -> dict:
        """The fields as JSON values: a non-finite loss becomes None."""
        def clean(x):
            return float(x) if np.isfinite(x) else None

        return {**asdict(self), "best_val_loss": clean(self.best_val_loss),
                "train_loss": [clean(v) for v in self.train_loss],
                "val_loss": [clean(v) for v in self.val_loss]}


def _finite_or_diverged(preds, context):
    if not np.all(np.isfinite(preds)):
        raise TrainingDivergedError(f"non-finite predictions {context}")


def _epoch_validation_loss(model, split, config, kernel):
    """The validation objective and the predictions ``kernel`` scored."""
    preds = kernel(model)
    _finite_or_diverged(preds, "on the validation split")
    batch = LabeledBatch._of_checked(preds, split.validation.labels)
    loss, _ = objective_loss(batch, config.loss)
    return loss, preds


def _require_both_validation_classes(split, config):
    """AUROC is undefined on one class, so every validation would fail."""
    validation = split.validation
    if (config.loss.objective == "auroc"
            and validation.n_positive in (0, validation.n)):
        raise UndefinedMetricError(
            f"the auroc objective needs both classes in the validation "
            f"split, which has {validation.n_positive} positive rows of "
            f"{validation.n}")


# the finiteness checks report a divergence; numpy's warnings would repeat it
@np.errstate(over="ignore", invalid="ignore")
def train(model: MlpModel, split: SplitDataset, config: TrainConfig,
          step_callback=None) -> TrainReport:
    """Run the early-stopped loop; mutates ``model`` toward the best epoch.

    ``step_callback(model, epoch, step, idx)`` fires after each optimizer
    step with the batch's row indices into ``split.train``; experiments use
    it to probe batch-level statistics.  An auroc objective on a validation
    split without both classes raises UndefinedMetricError (a ValueError)
    before the first step.  Steps that change no validation prediction
    raise TrainingStalledError.
    """
    _require_both_validation_classes(split, config)
    started = time.perf_counter()
    dropout_bytes = DropoutBytes(np.random.default_rng(
        np.random.SeedSequence([config.seed, _TAG_DROPOUT])))
    optimizer = AdamState.create(model, lr=config.lr)
    best_val = np.inf
    best_epoch = 0
    best_params = model.flat.copy()
    kernel = EvalKernel(split.validation.features)    # forward's bits
    initial_preds = kernel(model)
    skipped = 0
    step = 0
    train_hist = []
    val_hist = []

    for epoch in range(1, config.max_epochs + 1):
        loss_sum = 0.0
        seen = 0
        for idx in batches(split.train, config.batch_size, config.seed,
                           epoch):
            # np.take: the same rows as fancy indexing, in a quarter the time
            labels = np.take(split.train.labels, idx)
            fwd = forward(model, np.take(split.train.features, idx, axis=0),
                          train_mode=True, rng=dropout_bytes)
            _finite_or_diverged(fwd.preds,
                                f"at epoch {epoch}, step {step + 1}")
            try:
                loss, loss_grad = objective_loss(
                    LabeledBatch._of_checked(fwd.preds, labels), config.loss)
            except UndefinedMetricError:
                skipped += 1
                continue
            if not np.isfinite(loss) or not np.all(np.isfinite(loss_grad)):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, step {step + 1}")
            adam_step(optimizer, model, backward(model, loss_grad, fwd))
            step += 1
            loss_sum += loss * len(labels)
            seen += len(labels)
            if step_callback is not None:
                step_callback(model, epoch, step, idx)
        train_hist.append(loss_sum / seen if seen else float("nan"))

        val_loss, val_preds = _epoch_validation_loss(model, split, config,
                                                     kernel)
        if not np.isfinite(val_loss):
            raise TrainingDivergedError(
                f"non-finite validation loss at epoch {epoch}")
        val_hist.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = model.flat.copy()
        elif epoch - best_epoch >= config.window:
            break

    # the last epoch's validation ran on the weights training ended with
    if step and np.array_equal(val_preds, initial_preds):
        loss = config.loss
        tau = (f"tau grid {loss.tau_grid}" if loss.objective == "auroc"
               else f"tau {loss.tau_train:g}")
        raise TrainingStalledError(
            f"{step} optimizer steps changed no validation prediction: "
            f"objective {loss.objective}, surrogate {loss.approximation}, "
            f"{tau}")
    model.flat[:] = best_params
    return TrainReport(
        train_loss=tuple(train_hist),
        val_loss=tuple(val_hist),
        epochs_run=len(val_hist),
        best_epoch=best_epoch,
        best_val_loss=float(best_val),
        skipped_batches=skipped,
        duration_seconds=time.perf_counter() - started,
    )
