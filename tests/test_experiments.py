import json

import numpy as np
import pytest

from softstep.confusion import LabeledBatch, aggregate_hard
from softstep.experiments import (
    BATCH_SIZES_DEFAULT,
    DatasetSource,
    ExperimentSpec,
    ResultRow,
    ResultTable,
    _batch_deviations,
    loss_config_for,
    parse_dataset_source,
    parse_loss_token,
    prepared_split,
    realize_dataset,
    run_batch_sweep,
    run_fbeta_sweep,
    run_loss_grid,
    run_sigmoid_compare,
    train_config_for,
    trial_model,
)
from softstep.metrics import f_beta
from softstep.network import forward
from softstep.training import train

# small blob task: separated enough that a few epochs produce a real
# classifier, small enough that a full sweep stays under a second
TOY = DatasetSource(n_per_class=150, sigma=8.0)


def toy_spec(command, **overrides):
    base = dict(command=command, dataset=TOY, trials=2, seed=3,
                max_epochs=25, window=10, batch_size=64)
    base.update(overrides)
    return ExperimentSpec(**base)


# -------------------------------------------------------------- loss tokens


def test_parse_loss_token_fixed_names():
    assert parse_loss_token("accuracy") == ("accuracy", "accuracy", 1.0)
    assert parse_loss_token("auroc") == ("auroc", "auroc", 1.0)
    assert parse_loss_token("bce") == ("bce", "bce", 1.0)


def test_parse_loss_token_beta_forms():
    assert parse_loss_token("f_beta", 2.0) == ("f_2", "f_beta", 2.0)
    assert parse_loss_token("f_1") == ("f_1", "f_beta", 1.0)
    assert parse_loss_token("f_2.5") == ("f_2.5", "f_beta", 2.5)
    with pytest.raises(ValueError):
        parse_loss_token("hinge")
    with pytest.raises(ValueError):
        parse_loss_token("f_0")


# ----------------------------------------------------------- dataset source


def test_parse_dataset_source_blobs():
    src = parse_dataset_source("blobs")
    assert src.kind == "blobs" and src.n_per_class == 5000
    src = parse_dataset_source("blobs:n_per_class=200,sigma=4,dims=2,keep=0.1")
    assert (src.n_per_class, src.sigma, src.dims, src.keep_fraction) == \
        (200, 4.0, 2, 0.1)
    with pytest.raises(ValueError):
        parse_dataset_source("blobs:radius=2")
    with pytest.raises(ValueError):
        parse_dataset_source("blobs:sigma")


def test_parse_dataset_source_csv():
    src = parse_dataset_source("data/train.csv", label_column="y",
                               positive_value="1")
    assert src.kind == "csv" and src.path == "data/train.csv"
    with pytest.raises(ValueError):
        parse_dataset_source("data/train.csv")   # no label column


def test_dataset_source_validation():
    with pytest.raises(ValueError):
        DatasetSource(kind="parquet")
    with pytest.raises(ValueError):
        DatasetSource(n_per_class=0)
    with pytest.raises(ValueError):
        DatasetSource(sigma=-1.0)
    with pytest.raises(ValueError):
        DatasetSource(keep_fraction=1.5)
    with pytest.raises(ValueError):
        DatasetSource(kind="csv", path="x.csv")


def test_realize_dataset_blobs_and_subsample():
    data = realize_dataset(DatasetSource(n_per_class=100), seed=1)
    assert data.n == 200 and data.n_positive == 100
    skewed = realize_dataset(DatasetSource(n_per_class=100,
                                           keep_fraction=0.2), seed=1)
    assert skewed.n == 120 and skewed.n_positive == 20
    again = realize_dataset(DatasetSource(n_per_class=100,
                                          keep_fraction=0.2), seed=1)
    assert np.array_equal(skewed.features, again.features)


def test_realize_dataset_csv(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n1,2,pos\n3,4,neg\n5,6,pos\n")
    src = DatasetSource(kind="csv", path=str(path), label_column="y",
                        positive_value="pos")
    data = realize_dataset(src, seed=0)
    assert data.n == 3 and data.n_positive == 2


# ------------------------------------------------------------ spec checking


def test_spec_defaults_follow_stated_protocol():
    spec = ExperimentSpec(command="loss-grid")
    assert spec.trials == 10
    assert spec.batch_sizes == BATCH_SIZES_DEFAULT == (128, 1024, 2048, 4096)
    assert spec.betas == (1.0, 2.0, 3.0)
    assert spec.tau_grid == tuple(i / 10 for i in range(1, 10))


@pytest.mark.parametrize("overrides", [
    dict(command="teleport"),
    dict(losses=()),
    dict(losses=("hinge",)),
    dict(beta=0.0),
    dict(betas=(1.0, -2.0)),
    dict(tau=1.0),
    dict(tau_grid=(0.1, 1.2)),
    dict(delta=0.5),
    dict(approximation="spline"),
    dict(batch_size=0),
    dict(batch_sizes=()),
    dict(trials=0),
    dict(seed=-1),
    dict(max_epochs=0),
    dict(window=0),
    dict(lr=0.0),
    dict(dropout=1.0),
    dict(format="csv"),
    dict(batch_sizes=(0,)),
    dict(lr=float("nan")),
    dict(betas=(0.0,)),
])
def test_spec_rejects_bad_fields(overrides):
    fields = dict(command="loss-grid")
    fields.update(overrides)
    with pytest.raises(ValueError):
        ExperimentSpec(**fields)


def test_train_config_for_rejects_batch_size_zero():
    # an explicit 0 is a bad batch size, not a request for the default
    spec = ExperimentSpec(command="train")
    _, loss = loss_config_for(spec, "f_1", spec.approximation)
    assert train_config_for(spec, loss, 0).batch_size == spec.batch_size
    with pytest.raises(ValueError, match="batch_size"):
        train_config_for(spec, loss, 0, 0)


# -------------------------------------------------------------- result table


def sample_rows():
    return (
        ResultRow(experiment="loss-grid", loss="f_1",
                  approximation="piecewise", metric="accuracy", mean=0.5,
                  std=0.25, trials=3, tau_policy="grid_mean"),
        ResultRow(experiment="batch-sweep", loss="f_1",
                  approximation="piecewise", metric="f1_abs_deviation",
                  mean=None, std=None, trials=0, tau_policy="",
                  status="error: RuntimeError: boom", batch_size=64),
    )


def test_result_table_tsv_schema():
    text = ResultTable(rows=sample_rows()).to_tsv()
    lines = text.splitlines()
    assert lines[0] == ("experiment\tloss\tapproximation\tmetric\t"
                        "batch_size\tmean\tstd\ttrials\tsteps\t"
                        "tau_policy\tstatus")
    assert lines[1].split("\t") == ["loss-grid", "f_1", "piecewise",
                                    "accuracy", "", "0.5", "0.25", "3", "",
                                    "grid_mean", "ok"]
    # error rows leave numeric cells empty rather than writing placeholders
    assert lines[2].split("\t")[5] == ""
    assert lines[2].endswith("error: RuntimeError: boom")
    assert text.endswith("\n")


def test_result_table_json_and_render():
    table = ResultTable(rows=sample_rows())
    payload = json.loads(table.to_json())
    assert payload[0]["mean"] == 0.5
    assert payload[1]["mean"] is None
    assert table.render("tsv") == table.to_tsv()
    assert table.render("json") == table.to_json()
    with pytest.raises(ValueError):
        table.render("yaml")
    assert table.has_errors
    assert not ResultTable(rows=sample_rows()[:1]).has_errors


# ------------------------------------------------------------------ runners


def test_loss_grid_shape_and_metrics():
    table = run_loss_grid(toy_spec("loss-grid", losses=("accuracy", "f_1")))
    assert len(table.rows) == 6
    assert [r.metric for r in table.rows[:3]] == ["accuracy", "f_1", "auroc"]
    assert {r.loss for r in table.rows} == {"accuracy", "f_1"}
    assert all(r.status == "ok" for r in table.rows)
    assert all(r.trials == 2 for r in table.rows)
    auroc_rows = [r for r in table.rows if r.metric == "auroc"]
    assert all(r.tau_policy == "threshold_free" for r in auroc_rows)
    assert all(0.0 <= r.mean <= 1.0 for r in table.rows)


def test_loss_grid_single_trial_has_zero_std():
    table = run_loss_grid(toy_spec("loss-grid", losses=("f_1",), trials=1))
    assert all(r.std == 0.0 for r in table.rows)
    assert all(r.trials == 1 for r in table.rows)


def test_loss_grid_deterministic_and_seed_sensitive():
    spec = toy_spec("loss-grid", losses=("f_1",))
    assert run_loss_grid(spec).to_tsv() == run_loss_grid(spec).to_tsv()
    other = toy_spec("loss-grid", losses=("f_1",), seed=4)
    assert run_loss_grid(other).to_tsv() != run_loss_grid(spec).to_tsv()


def test_loss_grid_isolates_failed_cell():
    # one positive sample total, landing in the train split: the auroc
    # validation loss is undefined on an all-negative validation split, so
    # that cell fails while the accuracy cell still trains
    spec = ExperimentSpec(
        command="loss-grid",
        dataset=DatasetSource(n_per_class=50, keep_fraction=0.02),
        losses=("accuracy", "auroc"), trials=1, seed=0,
        max_epochs=5, window=3, batch_size=64)
    table = run_loss_grid(spec)
    by_loss = {}
    for row in table.rows:
        by_loss.setdefault(row.loss, []).append(row)
    assert all(r.status == "ok" for r in by_loss["accuracy"])
    assert len(by_loss["auroc"]) == 1
    assert by_loss["auroc"][0].status.startswith("error: ")
    assert "UndefinedMetricError" in by_loss["auroc"][0].status
    assert by_loss["auroc"][0].mean is None
    assert table.has_errors


def test_fbeta_sweep_rows_and_labels():
    table = run_fbeta_sweep(toy_spec("fbeta-sweep", betas=(1.0, 3.0)))
    assert [r.loss for r in table.rows] == ["f_1"] * 3 + ["f_3"] * 3
    assert [r.metric for r in table.rows[:3]] == ["f_1", "precision",
                                                  "recall"]
    assert all(r.status == "ok" for r in table.rows)


def test_fbeta_sweep_beta_one_matches_loss_grid_cell():
    # the beta=1 sweep row and a loss-grid run of f_1 train identical models
    sweep = run_fbeta_sweep(toy_spec("fbeta-sweep", betas=(1.0,)))
    grid = run_loss_grid(toy_spec("loss-grid", losses=("f_1",)))
    sweep_f1 = next(r for r in sweep.rows if r.metric == "f_1")
    grid_f1 = next(r for r in grid.rows if r.metric == "f_1")
    assert sweep_f1.mean == grid_f1.mean
    assert sweep_f1.std == grid_f1.std


def test_sigmoid_compare_produces_both_families():
    table = run_sigmoid_compare(toy_spec("sigmoid-compare",
                                         losses=("f_1",)))
    assert [r.approximation for r in table.rows] == \
        ["piecewise", "piecewise", "sigmoid_fit", "sigmoid_fit"]
    assert [r.metric for r in table.rows] == ["accuracy", "f_1"] * 2
    assert all(r.status == "ok" for r in table.rows)
    # same task, same seeds: the two families should land close together
    for metric in ("accuracy", "f_1"):
        vals = [r.mean for r in table.rows if r.metric == metric]
        assert abs(vals[0] - vals[1]) < 0.15


def test_batch_sweep_full_split_batch_has_zero_deviation():
    # batch covering the whole train split: F1(batch) is F1(split) at
    # every step, so the deviation is exactly zero
    table = run_batch_sweep(toy_spec("batch-sweep", batch_sizes=(512,),
                                     trials=1))
    row = table.rows[0]
    assert row.batch_size == 512
    assert row.mean == 0.0 and row.std == 0.0
    assert row.metric == "f1_abs_deviation"
    assert row.steps == 25          # one full-split step per epoch
    assert row.tau_policy == "fixed:0.5"


def test_batch_sweep_counts_steps_per_batch_size():
    table = run_batch_sweep(toy_spec("batch-sweep", batch_sizes=(64, 512),
                                     max_epochs=10))
    by_size = {r.batch_size: r for r in table.rows}
    # 192 train rows: three batches of 64 per epoch, one batch of 512
    assert by_size[64].steps == 30
    assert by_size[512].steps == 10
    assert by_size[64].loss == "f_1"


def test_batch_sweep_deterministic():
    spec = toy_spec("batch-sweep", batch_sizes=(64, 128))
    assert run_batch_sweep(spec).to_tsv() == run_batch_sweep(spec).to_tsv()


def test_batch_probe_matches_a_fresh_forward_on_each_batch():
    # the probe scores the batch from the split's predictions at the
    # batch's row indices; the reference runs its own eval forward on the
    # batch's rows
    spec = toy_spec("batch-sweep", max_epochs=4, window=4)
    split = prepared_split(spec)
    _, loss = loss_config_for(spec, "f_1", spec.approximation)
    deviations = _batch_deviations(spec, split, loss, 32)

    def hard_f1(model, rows):
        preds = forward(model, split.train.features[rows])
        counts = aggregate_hard(
            LabeledBatch(preds, split.train.labels[rows]), spec.tau)
        return f_beta(counts, 1.0, tau=spec.tau).value

    reference = []

    def fresh_forward_probe(model, epoch, step, idx):
        everything = np.arange(split.train.n)
        reference.append(abs(hard_f1(model, idx)
                             - hard_f1(model, everything)))

    model = trial_model(spec, split.train.dims, spec.seed)
    train(model, split, train_config_for(spec, loss, spec.seed, 32),
          step_callback=fresh_forward_probe)
    assert deviations == reference
    # deviations that vary from step to step make misaligned rows show
    assert len(set(deviations)) > len(deviations) // 2
