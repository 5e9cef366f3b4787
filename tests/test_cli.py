import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import softstep.cli
from softstep.cli import COMMANDS, SETTINGS, build_parser, build_spec, main

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
        "--beta", "2", "--tau", "0.4", "--tau-grid", "0.2,0.5,0.8",
        "--delta", "0.2", "--approximation", "sigmoid_fit",
        "--trials", "4", "--seed", "9", "--epochs", "50", "--window", "7",
        "--lr", "0.01", "--dropout", "0.25", "--format", "json"]))
    assert spec.command == "loss-grid"
    assert spec.dataset.n_per_class == 120
    assert spec.losses == ("f_2", "accuracy")
    assert spec.beta == 2.0
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
    "loss": "f_2,accuracy", "beta": "2", "betas": "1,4", "tau": "0.4",
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
    ckpt = tmp_path / "model.ckpt"
    report = tmp_path / "report.json"
    out = tmp_path / "train.json"
    code = main(["train", "--dataset", TOY_DATA, "--loss", "f_1", *FAST,
                 "--checkpoint", str(ckpt), "--report", str(report),
                 "--format", "json", "--out", str(out)])
    assert code == 0
    assert "trained f_1" in capsys.readouterr().err

    summary = json.loads(out.read_text())
    assert "duration_seconds" not in summary     # deterministic artifact
    assert summary["epochs_run"] >= 1
    assert "duration_seconds" in json.loads(report.read_text())

    eval_out = tmp_path / "eval.tsv"
    code = main(["evaluate", "--dataset", TOY_DATA, "--seed", "5",
                 "--checkpoint", str(ckpt), "--out", str(eval_out)])
    assert code == 0
    assert eval_out.read_text().startswith("metric\ttau\tvalue\tdefined")


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
    # 1e-05 prints as f_1e-05, which is no f_<number> token; it is a label
    out = tmp_path / "sweep.tsv"
    assert main(["fbeta-sweep", "--dataset", TOY_DATA,
                 "--betas", "0.00001,1", *FAST, *ONE_TRIAL,
                 "--out", str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
    assert [row[1] for row in rows] == ["f_1e-05"] * 3 + ["f_1"] * 3
    assert all(row[-1] == "ok" for row in rows)


@pytest.mark.parametrize("argv", [
    ["train", "--loss", "f_beta", "--beta", "inf"],
    ["evaluate", "--loss", "f_beta", "--beta", "inf",
     "--checkpoint", "m.ckpt"],
    ["fbeta-sweep", "--betas", "1,1e200"],
])
def test_beta_whose_square_overflows_is_refused_before_training(
        capsys, runners_unreached, argv):
    assert main([*argv, "--dataset", TOY_DATA]) == 1
    assert "error: beta must be at most 8.63e+68, or the F-beta loss " \
        "gradient can overflow, got beta " in capsys.readouterr().err


def test_beta_whose_loss_gradient_would_vanish_is_refused(tmp_path, capsys):
    # beta squared is finite, but the loss's squared denominator is not, so
    # training would run on a zero gradient and exit 0
    report = tmp_path / "report.tsv"
    assert main(["train", "--loss", "f_beta", "--beta", "1e100",
                 "--dataset", TOY_DATA, *FAST,
                 "--report", str(report)]) == 1
    assert "got beta 1e+100" in capsys.readouterr().err
    assert not report.exists()


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
    # one BLAS thread leaves the process single-threaded, so batch-sweep
    # probes in its forked worker; two start a BLAS thread, and the probe
    # runs inline
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
