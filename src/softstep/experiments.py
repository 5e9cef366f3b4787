"""Experiment protocols: trial sweeps emitting flat, reproducible tables.

Every runner follows the same discipline: the dataset and split are
derived from the master seed, each trial reseeds as ``seed + trial_index``
(so trial order or concurrency cannot change results), and the output is
a flat table that serializes byte-identically for identical specs.  A
failed cell becomes an explicit error row instead of aborting siblings.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from softstep.confusion import LabeledBatch, aggregate_hard
from softstep.data import (
    Dataset,
    SplitDataset,
    generate_blobs,
    load_csv,
    standardize_and_split,
    subsample_positives,
)
from softstep.metrics import (
    APPROXIMATIONS,
    LossConfig,
    TAU_GRID_DEFAULT,
    evaluate_over_grid,
    f_beta,
)
from softstep.network import MlpModel, forward
from softstep.training import TrainConfig, train

COMMANDS = ("train", "evaluate", "batch-sweep", "loss-grid",
            "fbeta-sweep", "sigmoid-compare")
FORMATS = ("tsv", "json")
BATCH_SIZES_DEFAULT = (128, 1024, 2048, 4096)
BETAS_DEFAULT = (1.0, 2.0, 3.0)

# rng purpose tag for model initialization; data/training tags live in
# their own modules
_TAG_MODEL_INIT = 7

_F_TOKEN = re.compile(r"^f_(-?\d+(?:\.\d+)?)$")


def parse_loss_token(token: str, default_beta: float = 1.0):
    """Map a loss name to (canonical label, objective, beta).

    Accepted: accuracy, auroc, bce, f_beta (uses the configured beta),
    or an explicit f_<number> such as f_1, f_2, f_0.5.
    """
    token = token.strip()
    if token in ("accuracy", "auroc", "bce"):
        return token, token, default_beta
    if token == "f_beta":
        return "f_%g" % default_beta, "f_beta", default_beta
    match = _F_TOKEN.match(token)
    if match:
        beta = float(match.group(1))
        if not beta > 0:
            raise ValueError(f"beta must be positive, got {beta}")
        return "f_%g" % beta, "f_beta", beta
    raise ValueError(f"unknown loss {token!r}; expected accuracy, auroc, "
                     "bce, f_beta, or f_<number>")


@dataclass(frozen=True)
class DatasetSource:
    """Where the data comes from: synthetic blobs or a CSV file."""

    kind: str = "blobs"
    n_per_class: int = 5000
    sigma: float = 10.0
    dims: int = 3
    keep_fraction: float | None = None
    path: str | None = None
    label_column: str | None = None
    positive_value: str | None = None

    def __post_init__(self):
        if self.kind not in ("blobs", "csv"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "blobs":
            if self.n_per_class < 1:
                raise ValueError("n_per_class must be >= 1")
            if not self.sigma > 0:
                raise ValueError("sigma must be positive")
            if self.dims < 1:
                raise ValueError("dims must be >= 1")
            if self.keep_fraction is not None and not (
                    0 < self.keep_fraction <= 1):
                raise ValueError("keep_fraction must be in (0, 1]")
        else:
            if not self.path:
                raise ValueError("csv source needs a path")
            if not self.label_column or self.positive_value is None:
                raise ValueError(
                    "csv source needs label_column and positive_value")


def parse_dataset_source(text: str, label_column=None,
                         positive_value=None) -> DatasetSource:
    """Parse a --dataset argument.

    ``blobs`` or ``blobs:key=value,...`` (keys: n_per_class, sigma, dims,
    keep) selects the synthetic generator; anything else is a CSV path and
    requires label_column/positive_value.
    """
    if text == "blobs" or text.startswith("blobs:"):
        kwargs = {}
        body = text[len("blobs:"):] if ":" in text else ""
        for item in filter(None, body.split(",")):
            if "=" not in item:
                raise ValueError(f"bad blobs parameter {item!r}")
            key, value = item.split("=", 1)
            key = key.strip()
            if key == "n_per_class":
                kwargs["n_per_class"] = int(value)
            elif key == "sigma":
                kwargs["sigma"] = float(value)
            elif key == "dims":
                kwargs["dims"] = int(value)
            elif key == "keep":
                kwargs["keep_fraction"] = float(value)
            else:
                raise ValueError(f"unknown blobs parameter {key!r}")
        return DatasetSource(kind="blobs", **kwargs)
    return DatasetSource(kind="csv", path=text, label_column=label_column,
                         positive_value=positive_value)


def realize_dataset(source: DatasetSource, seed: int) -> Dataset:
    """Materialize the dataset a source describes; deterministic in seed."""
    if source.kind == "blobs":
        data = generate_blobs(n_per_class=source.n_per_class,
                              sigma=source.sigma, dims=source.dims,
                              seed=seed)
        if source.keep_fraction is not None and source.keep_fraction < 1:
            data = subsample_positives(data, source.keep_fraction, seed=seed)
        return data
    data, _rejected = load_csv(source.path, source.label_column,
                               source.positive_value)
    return data


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully validated description of one CLI invocation.

    Validation happens here, before any computation starts; runners may
    assume every field is usable.  Fields that feed a LossConfig or a
    TrainConfig are validated by building those configs.
    """

    command: str
    dataset: DatasetSource = field(default_factory=DatasetSource)
    losses: tuple[str, ...] = ("f_1",)
    beta: float = 1.0
    betas: tuple[float, ...] = BETAS_DEFAULT
    tau: float = 0.5
    tau_grid: tuple[float, ...] = TAU_GRID_DEFAULT
    delta: float = 0.1
    approximation: str = "piecewise"
    batch_size: int = 1024
    batch_sizes: tuple[int, ...] = BATCH_SIZES_DEFAULT
    trials: int = 10
    seed: int = 0
    max_epochs: int = 400
    window: int = 40
    lr: float = 0.001
    dropout: float = 0.5
    out: str | None = None
    format: str = "tsv"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        for name in ("losses", "betas", "batch_sizes"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}")
        # every other field is checked by the configs the runners build
        _, loss = loss_config_for(self, "f_beta", self.approximation)
        for token in (*self.losses, *("f_%g" % b for b in self.betas)):
            loss_config_for(self, token, self.approximation)
        for batch_size in (self.batch_size, *self.batch_sizes):
            train_config_for(self, loss, self.seed, batch_size)


# --------------------------------------------------------------- result rows


@dataclass(frozen=True)
class ResultRow:
    """One cell of an experiment table.

    batch_size and steps are populated by the batch sweep only; metric-free
    error rows leave mean/std empty.  status is "ok" or "error: ...".
    """

    experiment: str
    loss: str
    approximation: str
    metric: str
    mean: float | None
    std: float | None
    trials: int
    tau_policy: str
    status: str = "ok"
    batch_size: int | None = None
    steps: int | None = None


_COLUMNS = ("experiment", "loss", "approximation", "metric", "batch_size",
            "mean", "std", "trials", "steps", "tau_policy", "status")


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[ResultRow, ...]

    @property
    def has_errors(self) -> bool:
        return any(row.status != "ok" for row in self.rows)

    @staticmethod
    def _cell(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return "%.12g" % value
        return str(value)

    def to_tsv(self) -> str:
        lines = ["\t".join(_COLUMNS)]
        for row in self.rows:
            lines.append("\t".join(
                self._cell(getattr(row, col)) for col in _COLUMNS))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = [{col: getattr(row, col) for col in _COLUMNS}
                   for row in self.rows]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "tsv":
            return self.to_tsv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}")


# ------------------------------------------------------------ trial plumbing


def loss_config_for(spec: ExperimentSpec, token: str,
                    approximation: str) -> tuple[str, LossConfig]:
    label, objective, beta = parse_loss_token(token, spec.beta)
    return label, LossConfig(objective=objective, beta=beta,
                             tau_train=spec.tau, tau_grid=spec.tau_grid,
                             delta=spec.delta, approximation=approximation)


def train_config_for(spec: ExperimentSpec, loss: LossConfig, seed: int,
                     batch_size: int | None = None) -> TrainConfig:
    return TrainConfig(loss=loss,
                       batch_size=(spec.batch_size if batch_size is None
                                   else batch_size),
                       max_epochs=spec.max_epochs, window=spec.window,
                       dropout=spec.dropout, lr=spec.lr, seed=seed)


def trial_model(spec: ExperimentSpec, dims: int, seed: int) -> MlpModel:
    rng = np.random.default_rng(np.random.SeedSequence(
        [seed, _TAG_MODEL_INIT]))
    return MlpModel.create(dims, dropout=spec.dropout, rng=rng)


def _grid_means(model: MlpModel, split: SplitDataset,
                spec: ExperimentSpec) -> dict[str, float]:
    """Test-split metrics averaged over the threshold grid, plus AUROC.

    Evaluation is always at beta=1 so sweeps trained at other betas stay
    comparable on the same F1 column.
    """
    preds = forward(model, split.test.features)
    batch = LabeledBatch(preds, split.test.labels)
    table = evaluate_over_grid(batch, spec.tau_grid, beta=1.0)
    means = {}
    for row in table.rows:
        if row.tau == "mean" or row.name == "auroc":
            means[row.name] = row.value
    return means


def _run_cell(spec: ExperimentSpec, split: SplitDataset,
              loss: LossConfig) -> list[dict[str, float]]:
    """Train spec.trials models for one (loss, approximation) cell."""
    per_trial = []
    for index in range(spec.trials):
        trial_seed = spec.seed + index
        model = trial_model(spec, split.train.dims, trial_seed)
        train(model, split, train_config_for(spec, loss, trial_seed))
        per_trial.append(_grid_means(model, split, spec))
    return per_trial


def _metric_rows(experiment: str, label: str, approximation: str,
                 per_trial: list[dict[str, float]],
                 metrics: tuple[str, ...]) -> list[ResultRow]:
    rows = []
    for metric in metrics:
        values = np.array([t[metric] for t in per_trial])
        policy = "threshold_free" if metric == "auroc" else "grid_mean"
        rows.append(ResultRow(
            experiment=experiment, loss=label, approximation=approximation,
            metric=metric, mean=float(values.mean()),
            std=float(values.std()), trials=len(per_trial),
            tau_policy=policy))
    return rows


def _error_row(experiment: str, label: str, approximation: str,
               exc: Exception, **extra) -> ResultRow:
    return ResultRow(experiment=experiment, loss=label,
                     approximation=approximation, metric="", mean=None,
                     std=None, trials=0, tau_policy="",
                     status=f"error: {type(exc).__name__}: {exc}", **extra)


def prepared_split(spec: ExperimentSpec) -> SplitDataset:
    return standardize_and_split(realize_dataset(spec.dataset, spec.seed),
                                 seed=spec.seed)


# -------------------------------------------------------------- the runners


def _run_table(spec: ExperimentSpec, experiment: str, cells,
               metrics: tuple[str, ...]) -> ResultTable:
    """Train each (loss token, approximation) cell over spec.trials.

    A cell that fails becomes an error row; the cells after it still run.
    """
    split = prepared_split(spec)
    rows = []
    for token, approximation in cells:
        label, loss = loss_config_for(spec, token, approximation)
        try:
            rows.extend(_metric_rows(experiment, label, approximation,
                                     _run_cell(spec, split, loss), metrics))
        except Exception as exc:
            rows.append(_error_row(experiment, label, approximation, exc))
    return ResultTable(rows=tuple(rows))


def run_loss_grid(spec: ExperimentSpec) -> ResultTable:
    """Per training loss: accuracy/F1/AUROC on the test split over trials."""
    return _run_table(spec, "loss-grid",
                      [(token, spec.approximation) for token in spec.losses],
                      ("accuracy", "f_1", "auroc"))


def run_fbeta_sweep(spec: ExperimentSpec) -> ResultTable:
    """Train at each beta; report F1, precision, recall of the result."""
    return _run_table(spec, "fbeta-sweep",
                      [("f_%g" % beta, spec.approximation)
                       for beta in spec.betas],
                      ("f_1", "precision", "recall"))


def run_sigmoid_compare(spec: ExperimentSpec) -> ResultTable:
    """Same losses trained under both approximation families."""
    return _run_table(spec, "sigmoid-compare",
                      [(token, approximation) for token in spec.losses
                       for approximation in APPROXIMATIONS],
                      ("accuracy", "f_1"))


def run_batch_sweep(spec: ExperimentSpec) -> ResultTable:
    """Per batch size: |F1(batch) - F1(train split)| across every step.

    One training run per batch size, all from the same seed, so the only
    moving part is how the (identical) epoch permutation is sliced.
    """
    split = prepared_split(spec)
    label, loss = loss_config_for(spec, spec.losses[0], spec.approximation)
    rows = []
    for batch_size in spec.batch_sizes:
        try:
            deviations = _batch_deviations(spec, split, loss, batch_size)
            rows.append(ResultRow(
                experiment="batch-sweep", loss=label,
                approximation=spec.approximation, metric="f1_abs_deviation",
                mean=float(np.mean(deviations)),
                std=float(np.std(deviations)), trials=1,
                tau_policy="fixed:%g" % spec.tau, batch_size=batch_size,
                steps=len(deviations)))
        except Exception as exc:
            rows.append(_error_row("batch-sweep", label, spec.approximation,
                                   exc, batch_size=batch_size))
    return ResultTable(rows=tuple(rows))


def _batch_deviations(spec: ExperimentSpec, split: SplitDataset,
                      loss: LossConfig, batch_size: int) -> list[float]:
    labels = split.train.labels
    deviations = []

    def record(model, epoch, step, idx):
        # the batch's rows are rows of the train split, so one eval forward
        # over the split scores both
        preds = forward(model, split.train.features)
        batch_f1 = _hard_f1(preds[idx], labels[idx], spec.tau)
        split_f1 = _hard_f1(preds, labels, spec.tau)
        deviations.append(abs(batch_f1 - split_f1))

    model = trial_model(spec, split.train.dims, spec.seed)
    train(model, split, train_config_for(spec, loss, spec.seed, batch_size),
          step_callback=record)
    if not deviations:
        raise RuntimeError("no optimizer steps ran")
    return deviations


def _hard_f1(preds, labels, tau: float) -> float:
    counts = aggregate_hard(LabeledBatch(preds, labels), tau)
    return f_beta(counts, 1.0, tau=tau).value
