"""Command-line entry point.

Subcommands: train, evaluate, batch-sweep, loss-grid, fbeta-sweep,
sigmoid-compare.  Settings resolve in precedence order: command-line flag,
then the config file section named after the subcommand, then the config
file's [DEFAULT] section, then built-in defaults.  Exit codes: 0 full
success, 2 when some cells failed (error rows in the table), 1 on spec
errors or a fatal failure of a single-model command.

Artifacts written to --out contain no wall-clock fields, so identical
specs produce byte-identical files; timing goes to stderr and to the
optional --report file.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys

from softstep.confusion import LabeledBatch
from softstep.experiments import (
    FORMATS,
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
from softstep.metrics import APPROXIMATIONS, evaluate_over_grid
from softstep.network import forward, load_checkpoint, save_checkpoint
from softstep.training import train

_DEFAULT_LOSSES = {
    "train": "f_1",
    "evaluate": "f_1",
    "batch-sweep": "f_1",
    "loss-grid": "accuracy,f_1,auroc",
    "fbeta-sweep": "f_1",
    "sigmoid-compare": "accuracy,f_1",
}

_RUNNERS = {
    "batch-sweep": run_batch_sweep,
    "loss-grid": run_loss_grid,
    "fbeta-sweep": run_fbeta_sweep,
    "sigmoid-compare": run_sigmoid_compare,
}


def _comma_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _comma_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _comma_names(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softstep",
        description="Train and evaluate binary classifiers that optimize "
                    "confusion-matrix metrics directly.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in _DEFAULT_LOSSES:
        sub = subparsers.add_parser(command)
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
        sub.add_argument("--checkpoint",
                         help="weights file: written by train, read by "
                              "evaluate")
        sub.add_argument("--report",
                         help="train only: full diagnostics JSON "
                              "(includes wall-clock time)")
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
        sizes = _comma_ints(str(raw_batch))
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
        losses=_comma_names(pick("loss", str,
                                 _DEFAULT_LOSSES[args.command])),
        beta=pick("beta", float, defaults.beta),
        betas=pick("betas", _comma_floats, defaults.betas),
        tau=pick("tau", float, defaults.tau),
        tau_grid=pick("tau_grid", _comma_floats, defaults.tau_grid),
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


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _train_single(spec: ExperimentSpec, checkpoint: str | None,
                  report_path: str | None) -> int:
    split = prepared_split(spec)
    label, loss = loss_config_for(spec, spec.losses[0], spec.approximation)
    model = trial_model(spec, split.train.dims, spec.seed)
    report = train(model, split, train_config_for(spec, loss, spec.seed))
    if checkpoint:
        save_checkpoint(model, checkpoint)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
    print(f"trained {label} for {report.epochs_run} epochs "
          f"(best epoch {report.best_epoch}) "
          f"in {report.duration_seconds:.1f}s", file=sys.stderr)
    summary = report.summary_dict()
    summary.pop("duration_seconds")
    if spec.format == "json":
        _emit(json.dumps(summary, indent=2, sort_keys=True) + "\n", spec.out)
    else:
        _emit(report.final_metrics.to_tsv(), spec.out)
    return 0


def _evaluate_checkpoint(spec: ExperimentSpec, checkpoint: str) -> int:
    model = load_checkpoint(checkpoint)
    split = prepared_split(spec)
    _, loss = loss_config_for(spec, spec.losses[0], spec.approximation)
    preds = forward(model, split.test.features)
    table = evaluate_over_grid(LabeledBatch(preds, split.test.labels),
                               loss.tau_grid, beta=loss.beta,
                               epsilon=loss.epsilon)
    text = table.to_json() if spec.format == "json" else table.to_tsv()
    _emit(text, spec.out)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = build_spec(args)
        if args.command == "evaluate" and not args.checkpoint:
            raise ValueError("evaluate requires --checkpoint")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "train":
            return _train_single(spec, args.checkpoint, args.report)
        if args.command == "evaluate":
            return _evaluate_checkpoint(spec, args.checkpoint)
        table = _RUNNERS[args.command](spec)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _emit(table.render(spec.format), spec.out)
    if table.has_errors:
        print("warning: some cells failed; see error rows", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
