import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import softstep.cli
from softstep.cli import COMMANDS, SETTINGS, build_parser, build_spec, main
from softstep.experiments import prepared_split, trial_model
from softstep.network import load_checkpoint

TOY_DATA = "blobs:n_per_class=120,sigma=8"

# a short training; the protocol tables also take ONE_TRIAL per cell
FAST = ["--epochs", "8", "--window", "4", "--batch-size", "64",
        "--seed", "5"]
ONE_TRIAL = ["--trials", "1"]


def parse(argv):
    return build_parser().parse_args(argv)


def command_argv(command):
    """The command and the file flags it cannot run without."""
    return [command, *(arg for flag in COMMANDS[command].reads
                       for arg in (f"--{flag}", "m.ckpt"))]


@pytest.fixture
def runners_unreached(monkeypatch):
    """Every command's runner fails the run with a message of its own."""
    def unreached(spec, **files):
        raise AssertionError("the runner was reached")
    for command in COMMANDS.values():
        monkeypatch.setattr(softstep.cli, command.runner, unreached)


# ------------------------------------------------------------- spec building


def test_flags_reach_the_spec():
    spec = build_spec(parse([
        "loss-grid", "--dataset", TOY_DATA, "--loss", "f_2,accuracy",
        "--tau", "0.4", "--tau-grid", "0.2,0.5,0.8",
        "--delta", "0.2", "--approximation", "sigmoid_fit",
        "--trials", "4", "--seed", "9", "--epochs", "50", "--window", "7",
        "--lr", "0.01", "--dropout", "0.25", "--format", "json"]))
    assert spec.command == "loss-grid"
    assert spec.dataset.n_per_class == 120
    assert spec.losses == ("f_2", "accuracy")
    assert [loss.beta for _, loss in spec.cells] == [2.0, 1.0]
    assert spec.tau == 0.4
    assert spec.tau_grid == (0.2, 0.5, 0.8)
    assert spec.delta == 0.2
    assert spec.approximation == "sigmoid_fit"
    assert spec.trials == 4
    assert spec.seed == 9
    assert spec.max_epochs == 50 and spec.window == 7
    assert spec.lr == 0.01 and spec.dropout == 0.25
    assert spec.format == "json"


def test_config_file_defaults_and_sections(tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text(
        "[DEFAULT]\n"
        "dataset = blobs:n_per_class=80\n"
        "trials = 2\n"
        "seed = 11\n"
        "[loss-grid]\n"
        "trials = 5\n"
        "loss = accuracy\n")
    # section beats DEFAULT; DEFAULT beats built-ins
    spec = build_spec(parse(["loss-grid", "--config", str(config)]))
    assert spec.trials == 5
    assert spec.seed == 11
    assert spec.losses == ("accuracy",)
    assert spec.dataset.n_per_class == 80
    # a command without its own section falls back to DEFAULT alone
    spec = build_spec(parse(["fbeta-sweep", "--config", str(config)]))
    assert spec.trials == 2
    assert spec.losses == ("f_1",)


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text("[DEFAULT]\ntrials = 2\nseed = 11\n")
    spec = build_spec(parse(["loss-grid", "--config", str(config),
                             "--trials", "7"]))
    assert spec.trials == 7
    assert spec.seed == 11


@pytest.mark.parametrize("section", ["DEFAULT", "train", "evaluate"])
def test_config_key_that_names_no_setting_is_refused(tmp_path, capsys,
                                                     monkeypatch, section):
    # a misspelt setting or a file flag in any section; file flags are
    # flags only
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "exp.ini"
    config.write_text(f"[{section}]\ntrails = 3\ncheckpoint = m.ckpt\n"
                      "report = r.json\nseed = 1\n")
    assert main(["train", "--dataset", TOY_DATA, *FAST,
                 "--config", str(config)]) == 1
    assert (f"error: {config}: [{section}] has unknown keys: checkpoint, "
            "report, trails") in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["exp.ini"]


@pytest.mark.parametrize("body, message", [
    ("trials = 3\n", "File contains no section headers."),
    ("[loss-grid]\ntrials = 3\ntrials = 4\n",
     "option 'trials' in section 'loss-grid' already exists"),
    ("[DEFAULT]\nseed = 1\n[DEFAULT]\ntrials = 3\n",
     "section 'DEFAULT' already exists"),
])
def test_config_file_configparser_cannot_read_is_refused(tmp_path, capsys,
                                                         body, message):
    config = tmp_path / "exp.ini"
    config.write_text(body)
    assert main(["loss-grid", "--dataset", TOY_DATA, *FAST,
                 "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ")
    assert message in err
    assert "Traceback" not in err


def test_config_section_that_names_no_command_is_refused(tmp_path, capsys):
    # [loss_grid] is no command, so its trials would never be read
    config = tmp_path / "exp.ini"
    config.write_text("[DEFAULT]\nseed = 1\n[loss_grid]\ntrials = 3\n")
    assert main(["loss-grid", "--dataset", TOY_DATA, *FAST,
                 "--config", str(config)]) == 1
    assert (f"error: {config}: [loss_grid] names no command"
            in capsys.readouterr().err)


@pytest.mark.parametrize("flags", [["--label-column", "y"],
                                   ["--positive-value", "1"]])
def test_label_flags_with_a_blobs_dataset_are_refused(capsys, flags):
    assert main(["train", "--dataset", TOY_DATA, *FAST, *flags]) == 1
    assert ("a blobs dataset takes neither"
            in capsys.readouterr().err)


@pytest.mark.parametrize("keep, shown", [("0", "0.0"), ("-0.5", "-0.5"),
                                         ("1.5", "1.5"), ("nan", "nan")])
def test_keep_fraction_outside_the_unit_interval_is_refused(
        capsys, runners_unreached, keep, shown):
    # subsample_positives' rule and wording, checked at spec time
    assert main(["train", "--dataset", f"blobs:keep={keep}"]) == 1
    assert capsys.readouterr().err == \
        f"error: keep_fraction must lie in (0, 1], got {shown}\n"


@pytest.mark.parametrize("command", ["train", "evaluate", "batch-sweep"])
def test_single_model_commands_take_one_loss(tmp_path, capsys, command):
    # build_spec refuses the list before evaluate opens its checkpoint
    argv = [command, "--dataset", TOY_DATA, "--loss", "accuracy,auroc",
            "--out", str(tmp_path / "out.tsv")]
    if command == "evaluate":
        argv += ["--checkpoint", str(tmp_path / "m.ckpt")]
    else:
        argv += FAST
    assert main(argv) == 1
    assert (f"error: {command} takes one loss, got 2: accuracy,auroc"
            in capsys.readouterr().err)
    assert os.listdir(tmp_path) == []


# one value per setting, unlike its default and unlike CSV_FLAGS
SAMPLES = {
    "dataset": "e.csv", "label_column": "z", "positive_value": "yes",
    "loss": "f_2,accuracy", "betas": "1,4", "tau": "0.4",
    "tau_grid": "0.2,0.7", "delta": "0.2", "approximation": "sigmoid_fit",
    "batch_size": "32", "trials": "3", "seed": "9", "epochs": "20",
    "window": "5", "lr": "0.01", "dropout": "0.25", "out": "x.tsv",
    "format": "json",
}
CSV_FLAGS = {"dataset": "d.csv", "label_column": "y", "positive_value": "1"}


def flag_args(settings):
    return [arg for key, value in settings.items()
            for arg in ("--" + key.replace("_", "-"), value)]


@pytest.mark.parametrize("key", list(SETTINGS))
def test_config_key_and_flag_build_the_same_spec(tmp_path, key):
    # in the section of each command that declares the key
    commands = [name for name, command in COMMANDS.items()
                if key in command.settings]
    assert commands
    for name in commands:
        value = SAMPLES[key]
        if key == "loss" and COMMANDS[name].one_loss:
            value = "f_2"
        others = [*command_argv(name), *flag_args(
            {k: v for k, v in CSV_FLAGS.items() if k != key})]
        config = tmp_path / "exp.ini"
        config.write_text(f"[{name}]\n{key} = {value}\n")
        from_file = build_spec(parse([*others, "--config", str(config)]))
        from_flag = build_spec(parse([*others, *flag_args({key: value})]))
        assert from_file == from_flag, name
        assert from_flag != build_spec(parse([*command_argv(name),
                                              *flag_args(CSV_FLAGS)])), name


@pytest.mark.parametrize("command, key", [
    (name, key) for name, command in COMMANDS.items() for key in SETTINGS
    if key not in command.settings])
def test_setting_a_command_does_not_read_is_refused(tmp_path, capsys,
                                                   monkeypatch,
                                                   runners_unreached,
                                                   command, key):
    # as a flag and as a key of the command's own section
    monkeypatch.chdir(tmp_path)
    flag = flag_args({key: SAMPLES[key]})
    assert main([*command_argv(command), *flag]) == 1
    # reported under the command's own usage line, not the top-level one
    err = capsys.readouterr().err
    assert err.startswith(f"usage: softstep {command} ")
    assert (f"\nsoftstep {command}: error: unrecognized arguments: "
            f"{' '.join(flag)}\n" in err)
    config = tmp_path / "exp.ini"
    config.write_text(f"[{command}]\n{key} = {SAMPLES[key]}\n")
    assert main([*command_argv(command), "--config", str(config)]) == 1
    assert (f"error: {config}: [{command}] has unknown keys: {key}\n"
            == capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["exp.ini"]


@pytest.mark.parametrize("command", COMMANDS)
def test_beta_is_set_only_by_the_loss_token(tmp_path, capsys, monkeypatch,
                                            runners_unreached, command):
    monkeypatch.chdir(tmp_path)
    assert main([*command_argv(command), "--beta", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: softstep {command} ")
    assert (f"\nsoftstep {command}: error: unrecognized arguments: "
            "--beta 2\n" in err)
    config = tmp_path / "exp.ini"
    config.write_text("[DEFAULT]\nbeta = 2\n")
    assert main([*command_argv(command), "--config", str(config)]) == 1
    assert (f"error: {config}: [DEFAULT] has unknown keys: beta\n"
            == capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["exp.ini"]


def test_default_section_serves_only_the_commands_that_declare_a_key(
        tmp_path, capsys):
    config = tmp_path / "exp.ini"
    config.write_text("[DEFAULT]\ntrials = 3\nseed = 4\n")
    spec = build_spec(parse(["train", "--config", str(config)]))
    assert (spec.trials, spec.seed) == (10, 4)
    spec = build_spec(parse(["loss-grid", "--config", str(config)]))
    assert (spec.trials, spec.seed) == (3, 4)
    config.write_text("[train]\ntrials = 3\n")
    assert main(["train", "--config", str(config)]) == 1
    assert (f"error: {config}: [train] has unknown keys: trials"
            in capsys.readouterr().err)


def test_batch_size_flag_is_list_only_for_sweep():
    spec = build_spec(parse(["batch-sweep", "--batch-size", "32,64"]))
    assert spec.batch_sizes == (32, 64)
    spec = build_spec(parse(["train", "--batch-size", "256"]))
    assert spec.batch_size == 256
    with pytest.raises(ValueError):
        build_spec(parse(["train", "--batch-size", "32,64"]))


def test_csv_dataset_needs_label_flags(tmp_path):
    with pytest.raises(ValueError):
        build_spec(parse(["train", "--dataset", "d.csv"]))
    spec = build_spec(parse(["train", "--dataset", "d.csv",
                             "--label-column", "y",
                             "--positive-value", "1"]))
    assert spec.dataset.kind == "csv"
    assert spec.dataset.label_column == "y"


# ------------------------------------------------------------- exit statuses


def test_main_rejects_bad_spec(capsys):
    assert main(["loss-grid", "--loss", "hinge"]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_rejects_missing_config(capsys):
    assert main(["loss-grid", "--config", "/nonexistent.ini"]) == 1
    assert "config file" in capsys.readouterr().err


def test_main_evaluate_requires_checkpoint(capsys):
    assert main(["evaluate", "--dataset", TOY_DATA]) == 1
    assert "checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["loss-grid", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["loss-grid", "--trials", "x"], "invalid int value: 'x'"),
    (["loss-grid", "--tau-grid", "0.2,x"], "argument --tau-grid"),
])
def test_usage_errors_exit_1(capsys, argv, message):
    # 2 is kept for tables with failed cells
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: softstep")
    assert message in err


@pytest.mark.parametrize("argv", [
    ["loss-grid", "--checkpoint", "m.ckpt", "--report", "r.json"],
    ["evaluate", "--checkpoint", "m.ckpt", "--report", "r.json"],
])
def test_file_flags_a_command_ignores_are_usage_errors(tmp_path, capsys,
                                                      monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--dataset", TOY_DATA, *FAST,
                 "--checkpoint", "m.ckpt"]) == 0
    weights = (tmp_path / "m.ckpt").read_bytes()
    capsys.readouterr()
    assert main([*argv, "--dataset", TOY_DATA, "--seed", "5"]) == 1
    assert "unrecognized arguments:" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["m.ckpt"]
    assert (tmp_path / "m.ckpt").read_bytes() == weights


def test_main_partial_failure_exit_code(tmp_path, capsys):
    # lone positive lands in the train split at this seed, so the auroc
    # cell dies on an all-negative validation split; accuracy survives
    out = tmp_path / "grid.tsv"
    code = main(["loss-grid", "--dataset", "blobs:n_per_class=50,keep=0.02",
                 "--loss", "accuracy,auroc", "--trials", "1",
                 "--epochs", "5", "--window", "3", "--seed", "0",
                 "--out", str(out)])
    assert code == 2
    assert "error rows" in capsys.readouterr().err
    body = out.read_text()
    assert "UndefinedMetricError" in body
    assert "\taccuracy\t" in body


# ----------------------------------------------------------------- commands


def test_loss_grid_writes_table(tmp_path):
    out = tmp_path / "grid.tsv"
    code = main(["loss-grid", "--dataset", TOY_DATA, "--loss", "f_1",
                 *FAST, *ONE_TRIAL, "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("experiment\tloss\t")
    assert len(lines) == 4


def test_loss_grid_stdout_and_json(capsys):
    code = main(["loss-grid", "--dataset", TOY_DATA, "--loss", "f_1",
                 *FAST, *ONE_TRIAL, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["experiment"] == "loss-grid"
    assert payload[0]["status"] == "ok"


def test_cli_output_is_byte_identical_across_runs(tmp_path):
    first = tmp_path / "a.tsv"
    second = tmp_path / "b.tsv"
    argv = ["fbeta-sweep", "--dataset", TOY_DATA, "--betas", "1,2", *FAST,
            *ONE_TRIAL]
    assert main([*argv, "--out", str(first)]) == 0
    assert main([*argv, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_train_then_evaluate_roundtrip(tmp_path, capsys):
    # train's JSON --out is the test table, the same bytes evaluate writes
    # for the checkpoint, the dataset, the seed and the scoring flags
    flags = ["--dataset", TOY_DATA, "--loss", "f_1", "--seed", "5",
             "--format", "json"]
    ckpt = tmp_path / "model.ckpt"
    trained, evaluated = tmp_path / "train.json", tmp_path / "eval.json"
    assert main(["train", *flags, *FAST[:6], "--checkpoint", str(ckpt),
                 "--out", str(trained)]) == 0
    assert "trained f_1" in capsys.readouterr().err
    assert main(["evaluate", *flags, "--checkpoint", str(ckpt),
                 "--out", str(evaluated)]) == 0
    assert trained.read_bytes() == evaluated.read_bytes()
    assert set(json.loads(trained.read_text())) == {"rows",
                                                    "excluded_from_mean"}


def test_train_report_keeps_the_histories_and_the_out_table(tmp_path):
    # the run diagnostics go to --report only, with the --out table as
    # final_metrics and the wall-clock duration_seconds
    ckpt, report = tmp_path / "m.ckpt", tmp_path / "report.json"
    trained = tmp_path / "train.json"
    assert main(["train", "--dataset", TOY_DATA, "--loss", "f_2",
                 "--tau-grid", "0.3,0.6", *FAST, "--format", "json",
                 "--checkpoint", str(ckpt), "--report", str(report),
                 "--out", str(trained)]) == 0
    table, full = json.loads(trained.read_text()), json.loads(
        report.read_text())
    assert full["final_metrics"] == table
    assert "f_2" in {row["metric"] for row in table["rows"]}
    assert isinstance(full["duration_seconds"], float)
    assert 1 <= full["best_epoch"] <= full["epochs_run"]
    assert len(full["train_loss"]) == len(full["val_loss"]) == \
        full["epochs_run"]
    assert set(full) == {"train_loss", "val_loss", "epochs_run",
                         "best_epoch", "best_val_loss", "skipped_batches",
                         "duration_seconds", "final_metrics"}


def run_cli(*argv):
    """``python -m softstep.cli`` on this tree: (exit code, stderr)."""
    src = str(Path(softstep.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "softstep.cli", *argv],
                          env=env, capture_output=True, text=True)
    return done.returncode, done.stderr


@pytest.mark.parametrize("sigma", ["1e300", "1e200", "1e150"])
def test_train_standardizes_features_at_any_magnitude(tmp_path, sigma):
    out = tmp_path / "out.tsv"
    returned, err = run_cli("train", "--dataset",
                            f"blobs:n_per_class=60,sigma={sigma}",
                            "--epochs", "3", "--window", "3",
                            "--out", str(out))
    assert returned == 0
    assert "Warning" not in err
    assert out.exists()


def test_diverging_train_prints_only_its_error(tmp_path):
    # the divergence check reports what numpy's overflow warnings would
    returned, err = run_cli("train", "--dataset",
                            "blobs:n_per_class=60,sigma=8", "--lr", "1e300",
                            "--epochs", "3", "--window", "3",
                            "--batch-size", "32", "--seed", "0")
    assert returned == 1
    assert err == ("error: TrainingDivergedError: non-finite predictions at "
                   "epoch 1, step 2\n")


def test_train_and_evaluate_tables_match_for_the_same_flags(tmp_path):
    # evaluate takes the dataset and the scoring flags of train's
    ckpt = tmp_path / "model.ckpt"
    flags = ["--dataset", TOY_DATA, "--loss", "f_2", "--tau-grid", "0.3,0.6",
             "--seed", "5"]
    trained, evaluated = tmp_path / "train.tsv", tmp_path / "eval.tsv"
    assert main(["train", *flags, "--epochs", "8", "--window", "4",
                 "--batch-size", "64", "--checkpoint", str(ckpt),
                 "--out", str(trained)]) == 0
    assert main(["evaluate", *flags, "--checkpoint", str(ckpt),
                 "--out", str(evaluated)]) == 0
    assert trained.read_bytes() == evaluated.read_bytes()
    rows = [line.split("\t") for line in trained.read_text().splitlines()]
    assert {row[1] for row in rows[1:] if row[0] != "auroc"} == {
        "0.3", "0.6", "mean"}
    assert {row[0] for row in rows[1:]} == {
        "accuracy", "precision", "recall", "f_2", "auroc"}


@pytest.mark.parametrize("labels, which", [("neg", "no"), ("pos", "every")])
def test_train_refuses_single_class_csv(tmp_path, capsys, labels, which):
    path = tmp_path / "one_class.csv"
    path.write_text("x,y,label\n" + "".join(
        f"{i},{2 * i},{labels}\n" for i in range(40)))
    code = main(["train", "--dataset", str(path), "--label-column", "label",
                 "--positive-value", "pos", *FAST])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{which} usable row has label == 'pos'" in err


def test_train_refuses_duplicate_column_names(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text("x,label,label\n" + "".join(
        f"{i},{i % 2},{i % 2}\n" for i in range(40)))
    code = main(["train", "--dataset", str(path), "--label-column", "label",
                 "--positive-value", "1", *FAST])
    assert code == 1
    assert "duplicate column names ['label']" in capsys.readouterr().err


def test_train_refuses_auroc_on_single_class_validation_split(tmp_path,
                                                             capsys):
    # 4 positives in 204 rows: this seed's validation split has none
    out = tmp_path / "train.tsv"
    code = main(["train", "--dataset", "blobs:n_per_class=200,keep=0.02",
                 "--loss", "auroc", "--epochs", "3", "--window", "3",
                 "--seed", "3", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert ("error: UndefinedMetricError: the auroc objective needs both "
            "classes in the validation split, which has 0 positive rows "
            "of 33") in err
    assert "trained" not in err
    assert not out.exists()


def test_train_artifact_deterministic(tmp_path):
    argv = ["train", "--dataset", TOY_DATA, "--loss", "accuracy", *FAST,
            "--format", "json"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main([*argv, "--out", str(a)]) == 0
    assert main([*argv, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_batch_sweep_cli(tmp_path):
    out = tmp_path / "sweep.tsv"
    code = main(["batch-sweep", "--dataset", TOY_DATA,
                 "--batch-size", "32,128", "--loss", "f_1",
                 "--epochs", "6", "--window", "3",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert "\t32\t" in lines[1] and "\t128\t" in lines[2]


def test_sigmoid_compare_cli(capsys):
    code = main(["sigmoid-compare", "--dataset", TOY_DATA,
                 "--loss", "f_1", *FAST, *ONE_TRIAL])
    assert code == 0
    body = capsys.readouterr().out
    assert "piecewise" in body and "sigmoid_fit" in body


def test_failed_writes_leave_old_artifacts_intact(tmp_path, failing_writes,
                                                  capsys):
    # every artifact a command writes goes through a temporary file, so a
    # write that dies halfway leaves the previous file whole
    old = {"model.ckpt": b"old checkpoint", "train.tsv": b"old table\n",
           "report.json": b"{}\n", "grid.tsv": b"old grid\n"}
    for name, body in old.items():
        (tmp_path / name).write_bytes(body)
    for flag in ("--checkpoint", "--out", "--report"):
        target = {"--checkpoint": "model.ckpt", "--out": "train.tsv",
                  "--report": "report.json"}[flag]
        code = main(["train", "--dataset", TOY_DATA, *FAST,
                     flag, str(tmp_path / target)])
        assert code == 1
        assert "No space left" in capsys.readouterr().err
    assert main(["loss-grid", "--dataset", TOY_DATA, "--loss", "f_1",
                 *FAST, *ONE_TRIAL, "--out", str(tmp_path / "grid.tsv")]) == 1
    assert "No space left" in capsys.readouterr().err
    for name, body in old.items():
        assert (tmp_path / name).read_bytes() == body
    assert sorted(os.listdir(tmp_path)) == sorted(old)


def test_fbeta_sweep_accepts_a_beta_without_a_loss_token(tmp_path):
    # the cell trains at exactly 1e-05; f_1e-05 is its label
    out = tmp_path / "sweep.tsv"
    assert main(["fbeta-sweep", "--dataset", TOY_DATA,
                 "--betas", "0.00001,1", *FAST, *ONE_TRIAL,
                 "--out", str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
    assert [row[1] for row in rows] == ["f_1e-05"] * 3 + ["f_1"] * 3
    assert all(row[-1] == "ok" for row in rows)


@pytest.mark.parametrize("argv", [
    ["train", "--loss", "f_inf"],
    ["evaluate", "--loss", "f_inf", "--checkpoint", "m.ckpt"],
    ["fbeta-sweep", "--betas", "1,inf"],
])
def test_beta_whose_square_overflows_is_refused_before_training(
        capsys, runners_unreached, argv):
    # an infinite beta; any finite one trains, however large its square
    assert main([*argv, "--dataset", TOY_DATA]) == 1
    assert "error: beta must be finite, got inf\n" in capsys.readouterr().err


@pytest.mark.parametrize("beta, shown", [("nan", "nan"), ("0", "0.0"),
                                         ("-2", "-2.0")])
def test_beta_that_is_not_positive_is_refused_before_training(
        capsys, runners_unreached, beta, shown):
    assert main(["train", "--loss", f"f_{beta}",
                 "--dataset", TOY_DATA]) == 1
    assert f"error: beta must be positive, got {shown}\n" \
        in capsys.readouterr().err


def test_beta_1e100_trains_and_moves_its_weights(tmp_path):
    # the count form squared (1 + beta²)·tp to inf here, so every gradient
    # was exactly 0 and the weights never moved
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--loss", "f_1e100",
                 "--dataset", TOY_DATA, *FAST,
                 "--checkpoint", str(ckpt)]) == 0
    spec = build_spec(parse(["train", "--dataset", TOY_DATA, *FAST]))
    initial = trial_model(spec, prepared_split(spec).train.dims, spec.seed)
    assert not np.array_equal(load_checkpoint(ckpt).flat, initial.flat)


@pytest.mark.parametrize("argv", [
    ["train", "--loss", "f_1e200"],
    ["fbeta-sweep", "--betas", "1,1e200", *ONE_TRIAL],
])
def test_beta_1e200_trains_and_scores(tmp_path, argv):
    out = tmp_path / "out.tsv"
    assert main([*argv, "--dataset", TOY_DATA, *FAST,
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    if argv[0] == "train":
        assert any(line.startswith("f_1e+200\tmean\t") for line in lines)
    else:
        assert [line.split("\t")[1] for line in lines[1:]] == \
            ["f_1"] * 3 + ["f_1e+200"] * 3
        assert all(line.endswith("\tok") for line in lines[1:])


@pytest.mark.parametrize("argv", [["loss-grid", "--out"],
                                  ["train", "--checkpoint"],
                                  ["train", "--report"]])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_output_path_that_cannot_be_written_is_refused_first(
        tmp_path, capsys, runners_unreached, argv, where):
    path = tmp_path / "missing" / "x" if where == "missing directory" \
        else tmp_path
    assert main([*argv, str(path), "--dataset", TOY_DATA]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ")
    assert os.path.realpath(path) in err
    assert os.listdir(tmp_path) == []


def test_blas_threads_do_not_change_the_tables(tmp_path):
    # BLAS on one thread (the CLI's default) and on two give the same
    # tables, batch-sweep's probe and training alike
    src = str(Path(softstep.cli.__file__).resolve().parents[1])
    runs = {"batch-sweep": ["--batch-size", "32,128"],
            "loss-grid": ["--loss", "f_1,accuracy", "--batch-size", "64",
                          *ONE_TRIAL]}
    tables = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        for command, extra in runs.items():
            out = tmp_path / f"{command}-{threads}.tsv"
            subprocess.run([sys.executable, "-m", "softstep.cli", command,
                            "--dataset", TOY_DATA, "--epochs", "6",
                            "--window", "3", "--seed", "5", *extra,
                            "--out", str(out)], env=env, check=True)
            tables[command, threads] = out.read_bytes()
    for command in runs:
        assert tables[command, "1"] == tables[command, "2"]
        assert b"\terror" not in tables[command, "1"]


# -------------------------------------------- refusals before any training


@pytest.mark.parametrize("argv, message", [
    (["train", "--tau", "1e-310"],
     "slope_low must be positive and finite, got inf"),
    (["train", "--approximation", "sigmoid_fit", "--tau", "0.0002"],
     "no logistic fit at tau 0.0002, delta 0.1: normal equations are "
     "singular"),
    (["loss-grid", "--tau-grid", "0.5,1e-310", "--loss", "f_1,auroc",
      *ONE_TRIAL], "slope_low must be positive and finite, got inf"),
    (["sigmoid-compare", "--tau", "0.0002", *ONE_TRIAL],
     "no logistic fit at tau 0.0002, delta 0.1: normal equations are "
     "singular"),
])
def test_threshold_no_surrogate_can_take_is_refused_before_training(
        tmp_path, capsys, runners_unreached, argv, message):
    # a spec error, not a failure inside the run: no type name, no table
    out = tmp_path / "out.tsv"
    assert main([*argv, "--dataset", TOY_DATA, *FAST,
                 "--out", str(out)]) == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tau", ["0.0005", "0.9996"])
def test_sigmoid_fit_trains_where_its_steep_start_cannot_fit(
        tmp_path, capsys, tau):
    # the logistic fit starts again from a gentler slope at these tau, so
    # the spec builds and training runs; the fitted step is flat at every
    # prediction the network makes, so no step moves one, and train says so
    out = tmp_path / "out.tsv"
    assert main(["train", "--approximation", "sigmoid_fit", "--tau", tau,
                 "--dataset", TOY_DATA, *FAST, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: TrainingStalledError: ")
    assert err.endswith(f"objective f_beta, surrogate sigmoid_fit, "
                        f"tau {tau}\n")
    assert not out.exists()


def test_training_whose_updates_round_away_exits_1(tmp_path, capsys):
    # the validation loss stayed the same in every epoch, and train exited 0
    report = tmp_path / "report.json"
    assert main(["train", "--dataset", "blobs:n_per_class=150,sigma=8",
                 "--lr", "1e-300", "--epochs", "4", "--window", "4",
                 "--report", str(report)]) == 1
    assert "error: TrainingStalledError: " in capsys.readouterr().err
    assert not report.exists()


def test_stalled_sigmoid_compare_cell_is_an_error_row(tmp_path):
    out = tmp_path / "compare.tsv"
    assert main(["sigmoid-compare", "--dataset", TOY_DATA, "--tau", "0.0005",
                 "--loss", "f_1", *FAST, *ONE_TRIAL,
                 "--out", str(out)]) == 2
    rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
    assert [(row[2], row[-1]) for row in rows] == [
        ("piecewise", "ok"), ("piecewise", "ok"),
        ("sigmoid_fit", "error: TrainingStalledError: 15 optimizer steps "
         "changed no validation prediction: objective f_beta, surrogate "
         "sigmoid_fit, tau 0.0005")]


def test_batch_sweep_with_no_optimizer_step_writes_an_error_row(
        tmp_path, capsys):
    # a one-row batch holds one class, so the auroc loss skips every step
    out = tmp_path / "sweep.tsv"
    assert main(["batch-sweep", "--dataset", TOY_DATA, "--loss", "auroc",
                 "--batch-size", "1", "--epochs", "2", "--window", "2",
                 "--out", str(out)]) == 2
    assert out.read_text().splitlines()[1].endswith(
        "\terror: RuntimeError: no optimizer steps ran")
    assert "some cells failed" in capsys.readouterr().err


_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc/self/task and two usable CPUs")
@pytest.mark.parametrize("openblas", [None, "2"])
def test_cli_runs_blas_on_one_thread_unless_told_otherwise(openblas):
    src = str(Path(softstep.cli.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items()
           if key not in _BLAS_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    if openblas:
        env["OPENBLAS_NUM_THREADS"] = openblas
    code = ("import os, softstep.cli; "
            "print(len(os.listdir('/proc/self/task')), "
            "*(os.environ[v] for v in %r))" % (_BLAS_VARIABLES,))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    threads, *values = done.stdout.split()
    assert values == [openblas or "1", "1", "1"]
    if not openblas:
        assert threads == "1"


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """A CSV, a config file and a checkpoint in the working directory."""
    monkeypatch.chdir(tmp_path)
    Path("d.csv").write_text("x,y,label\n" + "".join(
        f"{i % 7},{i % 11},{'pos' if i % 3 else 'neg'}\n"
        for i in range(120)))
    Path("c.ini").write_text("[DEFAULT]\nseed = 5\n")
    Path("link.csv").symlink_to("d.csv")
    assert main(["train", "--dataset", TOY_DATA, *FAST,
                 "--checkpoint", "m.ckpt"]) == 0
    return {name: Path(name).read_bytes()
            for name in ("d.csv", "c.ini", "m.ckpt")}


CSV = ["--dataset", "d.csv", "--label-column", "label",
       "--positive-value", "pos"]
BLOBS = ["--dataset", TOY_DATA]


@pytest.mark.parametrize("argv, flags, path", [
    (["train", *CSV, "--out", "d.csv"], ("--out", "--dataset"), "d.csv"),
    (["train", *CSV, "--out", "link.csv"], ("--out", "--dataset"), "d.csv"),
    (["loss-grid", *BLOBS, "--config", "c.ini", "--out", "c.ini"],
     ("--out", "--config"), "c.ini"),
    (["evaluate", *BLOBS, "--checkpoint", "m.ckpt", "--out", "m.ckpt"],
     ("--out", "--checkpoint"), "m.ckpt"),
    (["train", *BLOBS, "--checkpoint", "x", "--out", "x"],
     ("--checkpoint", "--out"), "x"),
    (["train", *BLOBS, "--out", "x", "--report", "x"],
     ("--report", "--out"), "x"),
    (["train", *BLOBS, "--checkpoint", "x", "--report", "./x"],
     ("--report", "--checkpoint"), "x"),
])
def test_output_naming_an_input_or_another_output_is_refused(
        inputs, capsys, argv, flags, path):
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {flags[0]} and {flags[1]} name the same file "
        f"{os.path.realpath(path)}\n")
    assert {name: Path(name).read_bytes() for name in inputs} == inputs
    assert sorted(os.listdir()) == ["c.ini", "d.csv", "link.csv", "m.ckpt"]
