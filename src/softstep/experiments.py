"""Experiment protocols: trial sweeps emitting flat, reproducible tables.

Every runner follows the same discipline: the dataset and split are
derived from the master seed, each trial reseeds as ``seed + trial_index``
(so trial order or concurrency cannot change results), and the output is
a flat table that serializes byte-identically for identical specs.  A
failed cell becomes an explicit error row instead of aborting siblings.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from softstep.confusion import LabeledBatch, hard_counts
from softstep.data import (
    Dataset,
    SplitDataset,
    check_blobs,
    check_keep_fraction,
    generate_blobs,
    load_csv,
    standardize_and_split,
    subsample_positives,
)
from softstep.metrics import (
    APPROXIMATIONS,
    FORMATS,
    LossConfig,
    MetricTable,
    TAU_GRID_DEFAULT,
    evaluate_over_grid,
    f_beta,
    json_text,
)
from softstep.network import EvalKernel, MlpModel, check_dropout, forward
from softstep.training import TrainConfig, train

BATCH_SIZES_DEFAULT = (128, 1024, 2048, 4096)
BETAS_DEFAULT = (1.0, 2.0, 3.0)

# rng purpose tag for model initialization; data/training tags live in
# their own modules
_TAG_MODEL_INIT = 7


def parse_loss_token(token: str):
    """Map a loss name to (canonical label, objective, beta).

    Accepted: accuracy, auroc, bce, or f_<x> with x read by ``float``,
    such as f_1, f_0.5 or f_1e+200; the label is "f_%g" % beta.
    LossConfig checks the beta.
    """
    token = token.strip()
    if token in ("accuracy", "auroc", "bce"):
        return token, token, 1.0
    try:
        if token.startswith("f_"):
            beta = float(token[2:])
            return "f_%g" % beta, "f_beta", beta
    except ValueError:
        pass
    raise ValueError(f"unknown loss {token!r}; expected accuracy, auroc, "
                     "bce or f_<number>")


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
            if (self.label_column, self.positive_value) != (None, None):
                raise ValueError("label_column and positive_value name a "
                                 "CSV's label; a blobs dataset takes neither")
            check_blobs(self.n_per_class, self.sigma, self.dims)
            if self.keep_fraction is not None:
                check_keep_fraction(self.keep_fraction)
        else:
            if not self.path:
                raise ValueError("csv source needs a path")
            if not self.label_column or self.positive_value is None:
                raise ValueError(
                    "csv source needs label_column and positive_value")


# --dataset blobs key: (DatasetSource field, converter)
_BLOBS_KEYS = {"n_per_class": ("n_per_class", int), "sigma": ("sigma", float),
               "dims": ("dims", int), "keep": ("keep_fraction", float)}


def parse_dataset_source(text: str, label_column=None,
                         positive_value=None) -> DatasetSource:
    """Parse a --dataset argument.

    ``blobs`` or ``blobs:key=value,...`` (keys: n_per_class, sigma, dims,
    keep) selects the synthetic generator and refuses label_column and
    positive_value; anything else is a CSV path and requires both.
    """
    if text == "blobs" or text.startswith("blobs:"):
        kwargs = {}
        body = text[len("blobs:"):] if ":" in text else ""
        for item in filter(None, body.split(",")):
            if "=" not in item:
                raise ValueError(f"bad blobs parameter {item!r}")
            key, value = item.split("=", 1)
            key = key.strip()
            if key not in _BLOBS_KEYS:
                raise ValueError(f"unknown blobs parameter {key!r}")
            name, convert = _BLOBS_KEYS[key]
            kwargs[name] = convert(value)
        return DatasetSource(kind="blobs", label_column=label_column,
                             positive_value=positive_value, **kwargs)
    return DatasetSource(kind="csv", path=text, label_column=label_column,
                         positive_value=positive_value)


def realize_dataset(source: DatasetSource, seed: int) -> Dataset:
    """Materialize the dataset a source describes; deterministic in seed.

    A CSV source that lost rows to ``load_csv``'s checks reports the count
    of each reason in one line on stderr.
    """
    if source.kind == "blobs":
        data = generate_blobs(n_per_class=source.n_per_class,
                              sigma=source.sigma, dims=source.dims,
                              seed=seed)
        if source.keep_fraction is not None and source.keep_fraction < 1:
            data = subsample_positives(data, source.keep_fraction, seed=seed)
        return data
    data, rejected = load_csv(source.path, source.label_column,
                              source.positive_value)
    lost = sum(rejected.values())
    if lost:
        counts = ", ".join(f"{reason} {count}"
                           for reason, count in rejected.items())
        print(f"{source.path}: rejected {lost} of {data.n + lost} data rows "
              f"({counts})", file=sys.stderr)
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
        from softstep.cli import COMMANDS  # the one list of commands
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        for name in ("losses", "betas", "batch_sizes"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if COMMANDS[self.command].one_loss and len(self.losses) > 1:
            raise ValueError(f"{self.command} takes one loss, got "
                             f"{len(self.losses)}: {','.join(self.losses)}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}")
        check_dropout(self.dropout)
        # every other field is checked by building the configs it feeds
        for batch_size in (self.batch_size, *self.batch_sizes):
            train_config_for(self, self.cells[0][1], self.seed, batch_size)

    @cached_property
    def cells(self) -> tuple[tuple[str, LossConfig], ...]:
        """The (row label, LossConfig) pairs the command trains, in order."""
        families = (APPROXIMATIONS if self.command == "sigmoid-compare"
                    else (self.approximation,))
        # every loss token, then each of betas by its exact repr, also
        # where no cell reads them, so any command names the same bad setting
        for token in self.losses:
            loss_config_for(self, token, families[0])
        by_beta = tuple(loss_config_for(self, f"f_{beta!r}", families[0])
                        for beta in self.betas)
        if self.command == "fbeta-sweep":
            return by_beta
        return tuple(loss_config_for(self, token, family)
                     for token in self.losses for family in families)


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
        return json_text([{col: getattr(row, col) for col in _COLUMNS}
                          for row in self.rows])


# ------------------------------------------------------------ trial plumbing


def loss_config_for(spec: ExperimentSpec, token: str,
                    approximation: str) -> tuple[str, LossConfig]:
    """The row label and LossConfig of a loss token."""
    label, objective, beta = parse_loss_token(token)
    return label, LossConfig(objective=objective, beta=beta,
                             tau_train=spec.tau, tau_grid=spec.tau_grid,
                             delta=spec.delta, approximation=approximation)


def train_config_for(spec: ExperimentSpec, loss: LossConfig, seed: int,
                     batch_size: int | None = None) -> TrainConfig:
    return TrainConfig(loss=loss,
                       batch_size=(spec.batch_size if batch_size is None
                                   else batch_size),
                       max_epochs=spec.max_epochs, window=spec.window,
                       lr=spec.lr, seed=seed)


def trial_model(spec: ExperimentSpec, dims: int, seed: int) -> MlpModel:
    rng = np.random.default_rng(np.random.SeedSequence(
        [seed, _TAG_MODEL_INIT]))
    return MlpModel.create(dims, dropout=spec.dropout, rng=rng)


def score(model: MlpModel, data: Dataset, tau_grid,
          beta: float) -> MetricTable:
    """``evaluate_over_grid`` of eval-mode ``forward`` on data (not of
    ``EvalKernel``, whose bits differ from it on one- and two-row data)."""
    preds = forward(model, data.features).preds
    return evaluate_over_grid(LabeledBatch(preds, data.labels), tau_grid,
                              beta=beta)


def _run_cell(spec: ExperimentSpec, split: SplitDataset,
              loss: LossConfig) -> list[dict[str, float]]:
    """Train spec.trials models for one (loss, approximation) cell.

    Each trial scores the test split once, and keeps its metrics averaged
    over the threshold grid, plus AUROC, always at beta=1 so sweeps
    trained at other betas stay comparable on the same F1 column.
    """
    per_trial = []
    for index in range(spec.trials):
        trial_seed = spec.seed + index
        model = trial_model(spec, split.train.dims, trial_seed)
        train(model, split, train_config_for(spec, loss, trial_seed))
        table = score(model, split.test, spec.tau_grid, beta=1.0)
        per_trial.append({row.name: row.value for row in table.rows
                          if row.tau == "mean" or row.name == "auroc"})
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


def _run_table(spec: ExperimentSpec, metrics: tuple[str, ...]) -> ResultTable:
    """Train each of spec.cells over spec.trials.

    A cell that fails becomes an error row; the cells after it still run.
    """
    split = prepared_split(spec)
    rows = []
    for label, loss in spec.cells:
        try:
            rows.extend(_metric_rows(spec.command, label, loss.approximation,
                                     _run_cell(spec, split, loss), metrics))
        except Exception as exc:
            rows.append(_error_row(spec.command, label, loss.approximation,
                                   exc))
    return ResultTable(rows=tuple(rows))


def run_loss_grid(spec: ExperimentSpec) -> ResultTable:
    """Per training loss: accuracy/F1/AUROC on the test split over trials."""
    return _run_table(spec, ("accuracy", "f_1", "auroc"))


def run_fbeta_sweep(spec: ExperimentSpec) -> ResultTable:
    """Train at each beta; report F1, precision, recall of the result."""
    return _run_table(spec, ("f_1", "precision", "recall"))


def run_sigmoid_compare(spec: ExperimentSpec) -> ResultTable:
    """Same losses trained under both approximation families."""
    return _run_table(spec, ("accuracy", "f_1"))


def run_batch_sweep(spec: ExperimentSpec) -> ResultTable:
    """Per batch size: |F1(batch) - F1(train split)| across every step.

    One training run per batch size, all from the same seed, so the only
    moving part is how the (identical) epoch permutation is sliced.
    """
    split = prepared_split(spec)
    label, loss = spec.cells[0]
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
    """Train one model and score each step's probe, in step order."""
    model = trial_model(spec, split.train.dims, spec.seed)
    probe = _DeviationProbe(split.train, spec.tau)
    train(model, split, train_config_for(spec, loss, spec.seed, batch_size),
          step_callback=probe)
    if not probe.deviations:
        raise RuntimeError("no optimizer steps ran")
    return probe.deviations


class _DeviationProbe:
    """Step callback keeping |F1(batch) - F1(train split)| at threshold tau.

    The batch's rows are rows of the split, so one eval forward over the
    split scores both, and one thresholded mask gives both sets of counts.
    """

    def __init__(self, train_split: Dataset, tau: float):
        self.kernel = EvalKernel(train_split.features)
        self.positive = train_split.labels == 1.0
        self.tau = tau
        self.deviations = []

    def __call__(self, model: MlpModel, epoch: int, step: int, idx) -> None:
        preds = self.kernel(model)
        # NaN fails both comparisons and +-inf one
        if not (preds.min() >= 0.0 and preds.max() <= 1.0):
            raise ValueError("predictions must be finite and lie in [0, 1]")
        predicted = preds >= self.tau
        batch = hard_counts(predicted[idx], self.positive[idx])
        split = hard_counts(predicted, self.positive)
        self.deviations.append(abs(f_beta(batch, 1.0, tau=self.tau).value
                                   - f_beta(split, 1.0, tau=self.tau).value))
