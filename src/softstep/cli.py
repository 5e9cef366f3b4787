"""Command-line entry point.

COMMANDS lists the subcommands, each with the settings its runner reads,
and SETTINGS converts and documents every setting.  A setting is a flag
and, under its argparse dest (``tau_grid`` for ``--tau-grid``), a
config-file key.  A command takes only the settings it declares: the
flag of another is a usage error, and so is its key in the config file
section named after the command.  [DEFAULT] is shared: it may hold any
setting, and each command takes the ones it declares.  Precedence:
flag, then the command's section, then [DEFAULT], then ExperimentSpec's
defaults.  A config key that names no setting and a section that names
no command are refused; --config, --checkpoint and --report are flags
only.  Exit codes: 0 full success, 2 when some cells failed (error rows
in the table), 1 on usage or spec errors or a fatal failure of a
single-model command.

Artifacts written to --out contain no wall-clock fields, so identical
specs produce byte-identical files; timing goes to stderr and to the
optional --report file.  --out, --report and --checkpoint files are
checked before any work starts and replaced atomically.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from typing import NamedTuple

from softstep.data import check_writable, write_atomic
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
from softstep.metrics import MetricTable, json_text
from softstep.network import load_checkpoint, save_checkpoint
from softstep.training import TrainReport, score_test_split, train


class Command(NamedTuple):
    """A subcommand: its runner, the settings it reads and its file flags.

    ``runner`` names a function of this module, looked up when the command
    runs so that a wrapper set on the module attribute is the one called.
    It takes the spec and each file flag as a keyword and returns the
    Artifact for --out.  ``settings`` are the SETTINGS keys the command
    reads.  ``losses`` is the default --loss of a command that reads one;
    a ``one_loss`` command refuses a --loss list.  The file flags a
    command ``reads`` are required, the ones it ``writes`` optional.
    """

    runner: str
    settings: tuple[str, ...]
    losses: str | None = None
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    one_loss: bool = False

    @property
    def files(self) -> tuple[str, ...]:
        return self.reads + self.writes


# the settings every command reads, those every trainer adds, and the
# training loss of the commands that train under one approximation
_SHARED = ("dataset", "label_column", "positive_value", "seed", "out",
           "format")
_TRAINING = _SHARED + ("tau", "tau_grid", "delta", "batch_size", "epochs",
                       "window", "lr", "dropout")
_LOSS = ("loss", "beta", "approximation")

COMMANDS = {
    "train": Command("_train_single", _TRAINING + _LOSS, "f_1",
                     writes=("checkpoint", "report"), one_loss=True),
    "evaluate": Command("_evaluate_checkpoint",
                        _SHARED + ("loss", "beta", "tau_grid"), "f_1",
                        reads=("checkpoint",), one_loss=True),
    "batch-sweep": Command("run_batch_sweep", _TRAINING + _LOSS, "f_1",
                           one_loss=True),
    "loss-grid": Command("run_loss_grid", _TRAINING + _LOSS + ("trials",),
                         "accuracy,f_1,auroc"),
    "fbeta-sweep": Command("run_fbeta_sweep",
                           _TRAINING + ("betas", "approximation", "trials")),
    "sigmoid-compare": Command("run_sigmoid_compare",
                               _TRAINING + ("loss", "beta", "trials"),
                               "accuracy,f_1"),
}

_FILE_HELP = {
    "checkpoint": "weights file: written by train, read by evaluate",
    "report": "full diagnostics JSON (includes wall-clock time)",
}


def _comma(convert):
    """Converter of a comma list; blank items are skipped."""
    def convert_list(text):
        return tuple(convert(v.strip()) for v in text.split(",")
                     if v.strip())
    # argparse names the type in its error: "invalid float list value"
    convert_list.__name__ = f"{convert.__name__} list"
    return convert_list


# Every setting: argparse dest (also the config-file key) -> (converter,
# help).  ExperimentSpec holds the defaults and checks the values.
SETTINGS = {
    "dataset": (str, "'blobs[:key=value,...]' (keys n_per_class, sigma, "
                     "dims, keep) or a CSV path"),
    "label_column": (str, "CSV column holding the label"),
    "positive_value": (str, "label value of the positive class"),
    "loss": (_comma(str), "comma list: accuracy, auroc, bce, f_beta, "
                          "f_<number>"),
    "beta": (float, "beta of the f_beta loss token"),
    "betas": (_comma(float), "comma list for fbeta-sweep"),
    "tau": (float, "training threshold"),
    "tau_grid": (_comma(float), "comma list of evaluation thresholds"),
    "delta": (float, "slope parameter of the step surrogate"),
    "approximation": (str, "piecewise or sigmoid_fit"),
    "batch_size": (_comma(int), "training batch size; comma list for "
                                "batch-sweep"),
    "trials": (int, "trainings per table cell"),
    "seed": (int, "master seed"),
    "epochs": (int, "maximum epochs"),
    "window": (int, "epochs without improvement before stopping"),
    "lr": (float, "Adam learning rate"),
    "dropout": (float, "dropout rate of both hidden layers"),
    "out": (str, "output file (default stdout)"),
    "format": (str, "tsv or json"),
}

_SPEC_FIELDS = {"loss": "losses", "epochs": "max_epochs"}  # renamed fields


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softstep",
        description="Train and evaluate binary classifiers that optimize "
                    "confusion-matrix metrics directly.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # no prefixes: evaluate would take --tau for --tau-grid, and
        # fbeta-sweep --beta for --betas
        sub = subparsers.add_parser(name, allow_abbrev=False)
        sub.add_argument("--config", help="INI config file")
        for key, (convert, text) in SETTINGS.items():
            if key in command.settings:
                sub.add_argument("--" + key.replace("_", "-"), dest=key,
                                 type=convert, help=text)
        for flag in command.files:
            sub.add_argument(f"--{flag}", help=_FILE_HELP[flag],
                             required=flag in command.reads)
    return parser


def _config_settings(path: str, command: str) -> dict:
    """The converted settings a config file gives ``command``.

    [DEFAULT] may hold any setting, a command's section only the settings
    that command declares; ``command`` takes the ones it declares from
    [DEFAULT], then its section's.  A file configparser cannot read, a
    section that names no command and a key its section may not hold are
    refused.
    """
    # no default section: [DEFAULT] is read as a section of its own, so
    # its keys do not show up in every other section
    cp = configparser.ConfigParser(default_section="")
    try:
        if not cp.read(path):
            raise ValueError(f"config file not found or unreadable: {path}")
        for name in cp.sections():
            if name != "DEFAULT" and name not in COMMANDS:
                raise ValueError(f"{path}: [{name}] names no command")
            allowed = COMMANDS[name].settings if name in COMMANDS else SETTINGS
            unknown = sorted(set(cp[name]) - set(allowed))
            if unknown:
                raise ValueError(f"{path}: [{name}] has unknown keys: "
                                 f"{', '.join(unknown)}")
        return {key: SETTINGS[key][0](value)
                for name in ("DEFAULT", command) if cp.has_section(name)
                for key, value in cp[name].items()
                if key in COMMANDS[command].settings}
    except configparser.Error as exc:
        raise ValueError(f"{path}: {' '.join(str(exc).split())}") from exc


def build_spec(args) -> ExperimentSpec:
    """Flags over the config file; ExperimentSpec holds the defaults."""
    command = COMMANDS[args.command]
    given = _config_settings(args.config, args.command) if args.config else {}
    given.update((key, getattr(args, key)) for key in command.settings
                 if getattr(args, key) is not None)
    dataset = parse_dataset_source(
        given.pop("dataset", "blobs"),
        label_column=given.pop("label_column", None),
        positive_value=given.pop("positive_value", None))
    if command.losses:
        given.setdefault("loss", _comma(str)(command.losses))
    sizes = given.pop("batch_size", None)
    if sizes is not None and args.command == "batch-sweep":
        given["batch_sizes"] = sizes
    elif sizes is not None:
        if len(sizes) != 1:
            raise ValueError("--batch-size takes one value outside "
                             "batch-sweep")
        given["batch_size"] = sizes[0]
    return ExperimentSpec(command=args.command, dataset=dataset,
                          **{_SPEC_FIELDS.get(key, key): value
                             for key, value in given.items()})


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
    _, loss = loss_config_for(spec, spec.losses[0], spec.approximation)
    return score_test_split(model, prepared_split(spec), loss.tau_grid,
                            loss.beta)


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
        for path in (spec.out, *(getattr(args, f) for f in command.writes)):
            if path:
                check_writable(path)
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
