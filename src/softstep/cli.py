"""Command-line entry point.

COMMANDS lists the subcommands.  Settings resolve in precedence order:
command-line flag, then the config file section named after the
subcommand, then the config file's [DEFAULT] section, then built-in
defaults.  Exit codes: 0 full success, 2 when some cells failed (error
rows in the table), 1 on usage or spec errors or a fatal failure of a
single-model command.

Artifacts written to --out contain no wall-clock fields, so identical
specs produce byte-identical files; timing goes to stderr and to the
optional --report file.  --out, --report and --checkpoint files are
replaced atomically.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from typing import NamedTuple

from softstep.confusion import LabeledBatch
from softstep.data import write_atomic
from softstep.experiments import (
    ExperimentSpec,
    loss_config_for,
    parse_dataset_source,
    prepared_split,
    run_batch_sweep,
    run_fbeta_sweep,
    run_loss_grid,
    run_sigmoid_compare,
    train_config_for,
    trial_model,
)
from softstep.metrics import (
    APPROXIMATIONS,
    FORMATS,
    MetricTable,
    evaluate_over_grid,
    json_text,
)
from softstep.network import forward, load_checkpoint, save_checkpoint
from softstep.training import TrainReport, train


class Command(NamedTuple):
    """A subcommand: its default --loss, its runner and its file flags.

    ``runner`` names a function of this module, looked up when the command
    runs so that a wrapper set on the module attribute is the one called.
    It takes the spec and each file flag as a keyword and returns the
    Artifact for --out.
    """

    losses: str
    runner: str
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()

    @property
    def files(self) -> tuple[str, ...]:
        return self.required + self.optional


COMMANDS = {
    "train": Command("f_1", "_train_single",
                     optional=("checkpoint", "report")),
    "evaluate": Command("f_1", "_evaluate_checkpoint",
                        required=("checkpoint",)),
    "batch-sweep": Command("f_1", "run_batch_sweep"),
    "loss-grid": Command("accuracy,f_1,auroc", "run_loss_grid"),
    "fbeta-sweep": Command("f_1", "run_fbeta_sweep"),
    "sigmoid-compare": Command("accuracy,f_1", "run_sigmoid_compare"),
}

_FILE_HELP = {
    "checkpoint": "weights file: written by train, read by evaluate",
    "report": "full diagnostics JSON (includes wall-clock time)",
}


def _comma(convert):
    """Converter of a comma list; blank items are skipped."""
    return lambda text: tuple(convert(v.strip()) for v in text.split(",")
                              if v.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softstep",
        description="Train and evaluate binary classifiers that optimize "
                    "confusion-matrix metrics directly.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", help="INI config file")
        sub.add_argument("--dataset",
                         help="'blobs[:key=value,...]' (keys n_per_class, "
                              "sigma, dims, keep) or a CSV path")
        sub.add_argument("--label-column", dest="label_column")
        sub.add_argument("--positive-value", dest="positive_value")
        sub.add_argument("--loss", help="comma list: accuracy, auroc, bce, "
                                        "f_beta, f_<number>")
        sub.add_argument("--beta", type=float)
        sub.add_argument("--betas", help="comma list for fbeta-sweep")
        sub.add_argument("--tau", type=float)
        sub.add_argument("--tau-grid", dest="tau_grid")
        sub.add_argument("--delta", type=float)
        sub.add_argument("--approximation", choices=APPROXIMATIONS)
        sub.add_argument("--batch-size", dest="batch_size",
                         help="training batch size; comma list for "
                              "batch-sweep")
        sub.add_argument("--trials", type=int)
        sub.add_argument("--seed", type=int)
        sub.add_argument("--epochs", type=int, dest="epochs")
        sub.add_argument("--window", type=int)
        sub.add_argument("--lr", type=float)
        sub.add_argument("--dropout", type=float)
        sub.add_argument("--out")
        sub.add_argument("--format", choices=FORMATS)
        for flag in command.files:
            sub.add_argument(f"--{flag}", help=_FILE_HELP[flag],
                             required=flag in command.required)
    return parser


def _file_section(path: str, command: str):
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ValueError(f"config file not found or unreadable: {path}")
    if cp.has_section(command):
        return cp[command]
    return cp["DEFAULT"]


def _resolver(args):
    section = _file_section(args.config, args.command) if args.config else {}

    def pick(key, convert, fallback):
        flag = getattr(args, key, None)
        if flag is not None:
            return convert(flag) if isinstance(flag, str) else flag
        if key in section:
            return convert(section[key])
        return fallback

    return pick


def build_spec(args) -> ExperimentSpec:
    """Merge flags, config file, and defaults into a validated spec."""
    pick = _resolver(args)
    label_column = pick("label_column", str, None)
    positive_value = pick("positive_value", str, None)
    dataset = parse_dataset_source(pick("dataset", str, "blobs"),
                                   label_column=label_column,
                                   positive_value=positive_value)
    defaults = ExperimentSpec(command=args.command)
    batch_sizes = defaults.batch_sizes
    batch_size = defaults.batch_size
    raw_batch = pick("batch_size", str, None)
    if raw_batch is not None:
        sizes = _comma(int)(str(raw_batch))
        if args.command == "batch-sweep":
            batch_sizes = sizes
        elif len(sizes) == 1:
            batch_size = sizes[0]
        else:
            raise ValueError("--batch-size takes one value outside "
                             "batch-sweep")
    return ExperimentSpec(
        command=args.command,
        dataset=dataset,
        losses=_comma(str)(pick("loss", str,
                                COMMANDS[args.command].losses)),
        beta=pick("beta", float, defaults.beta),
        betas=pick("betas", _comma(float), defaults.betas),
        tau=pick("tau", float, defaults.tau),
        tau_grid=pick("tau_grid", _comma(float), defaults.tau_grid),
        delta=pick("delta", float, defaults.delta),
        approximation=pick("approximation", str, defaults.approximation),
        batch_size=batch_size,
        batch_sizes=batch_sizes,
        trials=pick("trials", int, defaults.trials),
        seed=pick("seed", int, defaults.seed),
        max_epochs=pick("epochs", int, defaults.max_epochs),
        window=pick("window", int, defaults.window),
        lr=pick("lr", float, defaults.lr),
        dropout=pick("dropout", float, defaults.dropout),
        out=pick("out", str, None),
        format=pick("format", str, defaults.format),
    )


def _train_single(spec: ExperimentSpec, checkpoint: str | None = None,
                  report: str | None = None) -> TrainReport:
    split = prepared_split(spec)
    label, loss = loss_config_for(spec, spec.losses[0], spec.approximation)
    model = trial_model(spec, split.train.dims, spec.seed)
    result = train(model, split, train_config_for(spec, loss, spec.seed))
    if checkpoint:
        save_checkpoint(model, checkpoint)
    if report:
        write_atomic(report,
                     json_text(result.summary_dict()).encode("utf-8"))
    print(f"trained {label} for {result.epochs_run} epochs "
          f"(best epoch {result.best_epoch}) "
          f"in {result.duration_seconds:.1f}s", file=sys.stderr)
    return result


def _evaluate_checkpoint(spec: ExperimentSpec,
                         checkpoint: str) -> MetricTable:
    model = load_checkpoint(checkpoint)
    split = prepared_split(spec)
    _, loss = loss_config_for(spec, spec.losses[0], spec.approximation)
    preds = forward(model, split.test.features)
    return evaluate_over_grid(LabeledBatch(preds, split.test.labels),
                              loss.tau_grid, beta=loss.beta,
                              epsilon=loss.epsilon)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error and exits 2, which here
        # means failed cells
        return 1 if exc.code == 2 else exc.code
    command = COMMANDS[args.command]
    try:
        spec = build_spec(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        artifact = globals()[command.runner](
            spec, **{flag: getattr(args, flag) for flag in command.files})
        text = artifact.render(spec.format)
        if spec.out:
            write_atomic(spec.out, text.encode("utf-8"))
        else:
            sys.stdout.write(text)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if artifact.has_errors:
        print("warning: some cells failed; see error rows", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
