"""Experiment protocols: trial sweeps emitting flat, reproducible tables.

Every runner follows the same discipline: the dataset and split are
derived from the master seed, each trial reseeds as ``seed + trial_index``
(so trial order or concurrency cannot change results), and the output is
a flat table that serializes byte-identically for identical specs.  A
failed cell becomes an explicit error row instead of aborting siblings.

The batch sweep's per-step probe only reads the weights and never feeds
back into training, so where the process can fork (see _probe_can_fork)
a worker process scores most steps beside training, with the same
results as inline.
"""

from __future__ import annotations

import collections
import os
import re
import sys
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
    FORMATS,
    Artifact,
    LossConfig,
    TAU_GRID_DEFAULT,
    f_beta,
    json_text,
)
from softstep.network import MlpModel, check_dropout, forward
from softstep.training import TrainConfig, score_test_split, train

BATCH_SIZES_DEFAULT = (128, 1024, 2048, 4096)
BETAS_DEFAULT = (1.0, 2.0, 3.0)

# rng purpose tag for model initialization; data/training tags live in
# their own modules
_TAG_MODEL_INIT = 7

# Batch-sweep steps whose probe may be owed by the worker at once: one
# being scored while training takes the next steps, and one queued behind
# it.
_PROBE_WINDOW = 2
# Training scores every third step's probe itself and the worker the other
# two.  On a 2-vCPU VM a probe took about 610 us and a batch-64 training
# step about 260 us, so this keeps both processes about equally busy at
# small batches (about 460 and 410 us a step); a worker that scored every
# step would hold training up.
_PROBE_IN_TRAINING_EVERY = 3

_F_TOKEN = re.compile(r"^f_(-?\d+(?:\.\d+)?)$")


def parse_loss_token(token: str, default_beta: float = 1.0):
    """Map a loss name to (canonical label, objective, beta).

    Accepted: accuracy, auroc, bce, f_beta (uses the configured beta),
    or an explicit f_<number> such as f_1, f_2, f_0.5.  LossConfig checks
    the beta.
    """
    token = token.strip()
    if token in ("accuracy", "auroc", "bce"):
        return token, token, default_beta
    if token == "f_beta":
        return "f_%g" % default_beta, "f_beta", default_beta
    match = _F_TOKEN.match(token)
    if match:
        beta = float(match.group(1))
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
            if (self.label_column, self.positive_value) != (None, None):
                raise ValueError("label_column and positive_value name a "
                                 "CSV's label; a blobs dataset takes neither")
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
        # every other field is checked by the configs the runners build
        _, loss = loss_config_for(self, "f_beta", self.approximation)
        for token in self.losses:
            loss_config_for(self, token, self.approximation)
        for beta in self.betas:
            loss_config_for(self, "f_beta", self.approximation, beta)
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
class ResultTable(Artifact):
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


def loss_config_for(spec: ExperimentSpec, token: str, approximation: str,
                    beta: float | None = None) -> tuple[str, LossConfig]:
    """The row label and LossConfig of a loss token.

    ``beta`` stands in for spec.beta as the beta of the ``f_beta`` token, so
    fbeta-sweep trains at exactly each of its betas ("f_%g" is only the
    label).
    """
    label, objective, beta = parse_loss_token(
        token, spec.beta if beta is None else beta)
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


def _grid_means(model: MlpModel, split: SplitDataset,
                spec: ExperimentSpec) -> dict[str, float]:
    """Test-split metrics averaged over the threshold grid, plus AUROC.

    Evaluation is always at beta=1 so sweeps trained at other betas stay
    comparable on the same F1 column.
    """
    table = score_test_split(model, split, spec.tau_grid, beta=1.0)
    return {row.name: row.value for row in table.rows
            if row.tau == "mean" or row.name == "auroc"}


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
    """Train each (row label, LossConfig) cell over spec.trials.

    A cell that fails becomes an error row; the cells after it still run.
    """
    split = prepared_split(spec)
    rows = []
    for label, loss in cells:
        try:
            rows.extend(_metric_rows(experiment, label, loss.approximation,
                                     _run_cell(spec, split, loss), metrics))
        except Exception as exc:
            rows.append(_error_row(experiment, label, loss.approximation,
                                   exc))
    return ResultTable(rows=tuple(rows))


def run_loss_grid(spec: ExperimentSpec) -> ResultTable:
    """Per training loss: accuracy/F1/AUROC on the test split over trials."""
    return _run_table(spec, "loss-grid",
                      [loss_config_for(spec, token, spec.approximation)
                       for token in spec.losses],
                      ("accuracy", "f_1", "auroc"))


def run_fbeta_sweep(spec: ExperimentSpec) -> ResultTable:
    """Train at each beta; report F1, precision, recall of the result."""
    return _run_table(spec, "fbeta-sweep",
                      [loss_config_for(spec, "f_beta", spec.approximation,
                                       beta) for beta in spec.betas],
                      ("f_1", "precision", "recall"))


def run_sigmoid_compare(spec: ExperimentSpec) -> ResultTable:
    """Same losses trained under both approximation families."""
    return _run_table(spec, "sigmoid-compare",
                      [loss_config_for(spec, token, approximation)
                       for token in spec.losses
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
    model = trial_model(spec, split.train.dims, spec.seed)
    config = train_config_for(spec, loss, spec.seed, batch_size)
    if _probe_can_fork():
        deviations = _deviations_in_worker(model, split, config, spec.tau)
    else:
        deviations = []

        def record(model, epoch, step, idx):
            deviations.append(_probe_deviation(
                model, split.train.features, split.train.labels, idx,
                spec.tau))

        train(model, split, config, step_callback=record)
    if not deviations:
        raise RuntimeError("no optimizer steps ran")
    return deviations


def _probe_deviation(model: MlpModel, features, labels, idx,
                     tau: float) -> float:
    """|F1(batch) - F1(split)| of the model, at threshold tau.

    The batch's rows are rows of the split, so one eval forward over the
    split scores both.
    """
    preds = forward(model, features)
    return abs(_hard_f1(preds[idx], labels[idx], tau)
               - _hard_f1(preds, labels, tau))


def _probe_can_fork() -> bool:
    """Whether a forked worker can run the probe beside training.

    Only on Linux, from a process with one OS thread (forking a threaded
    process is unsafe, and a BLAS thread pool would compete with the
    worker for the CPUs) that may run on at least two CPUs.
    """
    if not sys.platform.startswith("linux"):
        return False
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return False
    return threads == 1 and len(os.sched_getaffinity(0)) >= 2


def _deviations_in_worker(model: MlpModel, split: SplitDataset,
                          config: TrainConfig, tau: float) -> list[float]:
    """Train in this process; probe most steps in a forked worker.

    This process scores every _PROBE_IN_TRAINING_EVERY-th step itself.
    After each other step the weights and the batch's row indices go down
    a pipe, and the worker scores that step while training takes the next.
    Which process scores a step depends only on the step, never on timing,
    and deviations are kept in step order.  The worker owes at most
    _PROBE_WINDOW steps, and never outlives this call.
    """
    import multiprocessing

    features, labels = split.train.features, split.train.labels
    context = multiprocessing.get_context("fork")
    pipe, worker_end = context.Pipe()
    worker = context.Process(target=_probe_worker, daemon=True,
                             args=(worker_end, model, features, labels, tau))
    worker.start()
    worker_end.close()
    deviations = []
    owed = collections.deque()    # steps the worker scores, in send order
    worker_error = None

    def worker_died():
        worker.join()
        return RuntimeError(
            f"probe worker exited with code {worker.exitcode}")

    def receive():
        nonlocal worker_error
        try:
            result = pipe.recv()
        except (EOFError, OSError):
            raise worker_died() from None
        slot = owed.popleft()
        if isinstance(result, Exception):
            worker_error = result
            raise result
        deviations[slot] = result

    def probe(model, epoch, step, idx):
        if step % _PROBE_IN_TRAINING_EVERY == 0:
            deviations.append(
                _probe_deviation(model, features, labels, idx, tau))
            return
        if len(owed) == _PROBE_WINDOW:
            receive()
        try:
            pipe.send_bytes(model.flat)
            pipe.send_bytes(idx)
        except OSError:
            raise worker_died() from None
        owed.append(len(deviations))
        deviations.append(None)

    try:
        try:
            train(model, split, config, step_callback=probe)
        except Exception as exc:
            # the steps the worker owes all came before this failure, so
            # the first probe error among them is the one inline raises
            if exc is not worker_error:
                while owed:
                    receive()
            raise
        while owed:
            receive()
    finally:
        try:
            pipe.send_bytes(b"")
        except OSError:
            pass
        worker.join()
        pipe.close()
    return deviations


def _probe_worker(pipe, model: MlpModel, features, labels,
                  tau: float) -> None:
    """Score (weights, indices) message pairs until an empty message.

    An exception is sent back in place of the deviation, so the parent
    raises it as the inline probe would have.
    """
    while pipe.recv_bytes_into(model.flat):
        idx = np.frombuffer(pipe.recv_bytes(), dtype=np.intp)
        try:
            result = _probe_deviation(model, features, labels, idx, tau)
        except Exception as exc:
            result = exc
        pipe.send(result)


def _hard_f1(preds, labels, tau: float) -> float:
    counts = aggregate_hard(LabeledBatch(preds, labels), tau)
    return f_beta(counts, 1.0, tau=tau).value
