import json

import pytest

from softstep.cli import build_parser, build_spec, main

TOY_DATA = "blobs:n_per_class=120,sigma=8"

FAST = ["--trials", "1", "--epochs", "8", "--window", "4",
        "--batch-size", "64", "--seed", "5"]


def parse(argv):
    return build_parser().parse_args(argv)


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
                 *FAST, "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("experiment\tloss\t")
    assert len(lines) == 4


def test_loss_grid_stdout_and_json(capsys):
    code = main(["loss-grid", "--dataset", TOY_DATA, "--loss", "f_1",
                 *FAST, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["experiment"] == "loss-grid"
    assert payload[0]["status"] == "ok"


def test_cli_output_is_byte_identical_across_runs(tmp_path):
    first = tmp_path / "a.tsv"
    second = tmp_path / "b.tsv"
    argv = ["fbeta-sweep", "--dataset", TOY_DATA, "--betas", "1,2", *FAST]
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
    ckpt = tmp_path / "model.ckpt"
    flags = ["--dataset", TOY_DATA, "--loss", "f_2", "--tau-grid", "0.3,0.6",
             *FAST]
    trained, evaluated = tmp_path / "train.tsv", tmp_path / "eval.tsv"
    assert main(["train", *flags, "--checkpoint", str(ckpt),
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
                 "--trials", "1", "--epochs", "6", "--window", "3",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert "\t32\t" in lines[1] and "\t128\t" in lines[2]


def test_sigmoid_compare_cli(capsys):
    code = main(["sigmoid-compare", "--dataset", TOY_DATA,
                 "--loss", "f_1", *FAST])
    assert code == 0
    body = capsys.readouterr().out
    assert "piecewise" in body and "sigmoid_fit" in body
