import numpy as np
import pytest

from softstep.data import (
    Dataset,
    batches,
    generate_blobs,
    load_csv,
    standardize_and_split,
    subsample_positives,
)


# ----------------------------------------------------------------- datasets


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        Dataset(np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        Dataset(np.full((2, 2), np.inf), np.zeros(2))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0.0, 2.0]))


def test_dataset_properties():
    data = Dataset(np.zeros((8, 3)), np.array([1.0] * 2 + [0.0] * 6))
    assert data.n == 8
    assert data.dims == 3
    assert data.n_positive == 2
    assert data.positive_fraction == 0.25


# -------------------------------------------------------------------- blobs


def test_generate_blobs_defaults():
    data = generate_blobs(seed=1)
    assert data.features.shape == (10000, 3)
    assert data.positive_fraction == 0.5
    # negatives first, positives second
    assert np.all(data.labels[:5000] == 0.0)
    assert np.all(data.labels[5000:] == 1.0)


def test_generate_blobs_deterministic():
    a = generate_blobs(n_per_class=100, seed=42)
    b = generate_blobs(n_per_class=100, seed=42)
    c = generate_blobs(n_per_class=100, seed=43)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_generate_blobs_tiny_sigma_separable():
    data = generate_blobs(n_per_class=200, sigma=1e-6, seed=3)
    neg = data.features[data.labels == 0.0]
    pos = data.features[data.labels == 1.0]
    assert np.allclose(neg, 0.0, atol=1e-4)
    assert np.allclose(pos, 10.0, atol=1e-4)


def test_generate_blobs_class_means_learnable():
    # nearest-centroid probe must clear 55% accuracy on the default task
    data = generate_blobs(n_per_class=2000, seed=5)
    center_neg = data.features[data.labels == 0.0].mean(axis=0)
    center_pos = data.features[data.labels == 1.0].mean(axis=0)
    d_neg = np.linalg.norm(data.features - center_neg, axis=1)
    d_pos = np.linalg.norm(data.features - center_pos, axis=1)
    preds = (d_pos < d_neg).astype(float)
    assert np.mean(preds == data.labels) > 0.55


def test_generate_blobs_custom_centers_and_validation():
    data = generate_blobs(n_per_class=50, sigma=1.0, dims=2, seed=7,
                          centers=(np.array([-5.0, 0.0]), np.array([5.0, 0.0])))
    assert data.features[data.labels == 0.0].mean(axis=0)[0] < 0
    assert data.features[data.labels == 1.0].mean(axis=0)[0] > 0
    with pytest.raises(ValueError):
        generate_blobs(n_per_class=0)
    with pytest.raises(ValueError):
        generate_blobs(sigma=0.0)
    with pytest.raises(ValueError):
        generate_blobs(dims=0)
    with pytest.raises(ValueError):
        generate_blobs(dims=3, centers=(np.zeros(2), np.ones(2)))


# -------------------------------------------------------------- subsampling


def test_subsample_keep_all_is_identity():
    data = generate_blobs(n_per_class=100, seed=9)
    out = subsample_positives(data, 1.0, seed=9)
    assert np.array_equal(out.features, data.features)
    assert np.array_equal(out.labels, data.labels)


def test_subsample_totals_match_counting_contract():
    data = generate_blobs(seed=11)    # 10000 rows, 5000 positives
    half = subsample_positives(data, 0.5, seed=11)
    assert half.n == 7500
    assert half.n_positive == 2500
    assert half.positive_fraction == pytest.approx(1 / 3)
    quarter = subsample_positives(data, 0.25, seed=11)
    assert quarter.n == 6250
    assert quarter.n_positive == 1250
    assert quarter.positive_fraction == pytest.approx(0.2)


def test_subsample_keeps_every_negative():
    data = generate_blobs(n_per_class=80, seed=13)
    out = subsample_positives(data, 0.3, seed=13)
    neg_before = data.features[data.labels == 0.0]
    neg_after = out.features[out.labels == 0.0]
    assert np.array_equal(neg_before, neg_after)
    assert out.n_positive == round(0.3 * 80)


def test_subsample_deterministic_and_validated():
    data = generate_blobs(n_per_class=60, seed=15)
    a = subsample_positives(data, 0.5, seed=1)
    b = subsample_positives(data, 0.5, seed=1)
    c = subsample_positives(data, 0.5, seed=2)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)
    with pytest.raises(ValueError):
        subsample_positives(data, 0.0)
    with pytest.raises(ValueError):
        subsample_positives(data, 1.5)
    tiny = Dataset(np.zeros((10, 2)), np.array([1.0] + [0.0] * 9))
    with pytest.raises(ValueError):
        subsample_positives(tiny, 0.05)   # rounds to zero positives
    all_neg = Dataset(np.zeros((4, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        subsample_positives(all_neg, 0.5)


# ---------------------------------------------------------------------- csv


def test_load_csv_happy_path(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("x,y,label\n1.0,2.0,yes\n3.5,4.0,no\n5.0,0.5,yes\n"
                    "0.0,1.0,no\n")
    data, rejected = load_csv(path, "label", "yes")
    assert rejected == 0
    assert data.features.shape == (4, 2)
    assert data.labels.tolist() == [1.0, 0.0, 1.0, 0.0]


def test_load_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "messy.csv"
    path.write_text(
        "x,y,label\n"
        "1.0,2.0,yes\n"
        "oops,2.0,no\n"        # unparseable feature
        "3.0,,no\n"            # missing feature cell
        "4.0,inf,yes\n"        # non-finite feature
        "5.0,6.0,\n"           # missing label
        "7.0,8.0\n"            # wrong column count
        "9.0,10.0,no\n")
    data, rejected = load_csv(path, "label", "yes")
    assert rejected == 5
    assert data.n == 2
    assert data.labels.tolist() == [1.0, 0.0]


def test_load_csv_label_column_position_free(tmp_path):
    path = tmp_path / "mid.csv"
    path.write_text("x,label,y\n1.0,pos,2.0\n3.0,neg,4.0\n")
    data, _ = load_csv(path, "label", "pos")
    assert data.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert data.labels.tolist() == [1.0, 0.0]


def test_load_csv_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "absent.csv", "label", "1")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_csv(empty, "label", "1")
    no_col = tmp_path / "nocol.csv"
    no_col.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_csv(no_col, "label", "1")
    all_bad = tmp_path / "allbad.csv"
    all_bad.write_text("a,label\nx,1\ny,0\n")
    with pytest.raises(ValueError):
        load_csv(all_bad, "label", "1")
    only_label = tmp_path / "onlylabel.csv"
    only_label.write_text("label\n1\n0\n")
    with pytest.raises(ValueError):
        load_csv(only_label, "label", "1")


def test_load_csv_refuses_a_single_class(tmp_path):
    path = tmp_path / "one_class.csv"
    path.write_text("x,label\n1.0,pos\n2.0,pos\nbad,neg\n")
    with pytest.raises(ValueError, match="no usable row has label == 'yes'"):
        load_csv(path, "label", "yes")
    # the only negative row is rejected, so every usable row is positive
    with pytest.raises(ValueError, match="every usable row has label == 'pos'"):
        load_csv(path, "label", "pos")


# -------------------------------------------------------------------- split


def test_split_sizes_and_standardization():
    data = generate_blobs(n_per_class=500, seed=17)
    split = standardize_and_split(data, seed=17)
    assert split.train.n == 640
    assert split.validation.n == 160
    assert split.test.n == 200
    means = split.train.features.mean(axis=0)
    variances = split.train.features.var(axis=0)
    assert np.all(np.abs(means) < 1e-9)
    assert np.all(np.abs(variances - 1.0) < 1e-6)


def test_split_statistics_come_from_train_only():
    data = generate_blobs(n_per_class=500, seed=19)
    split = standardize_and_split(data, seed=19)
    # validation/test are standardized by train statistics, so their own
    # means are near but not exactly zero
    val_means = split.validation.features.mean(axis=0)
    assert not np.all(np.abs(val_means) < 1e-12)
    # undoing the transform recovers rows of the original dataset
    recovered = split.test.features * split.scale + split.mean
    original = {tuple(np.round(row, 9)) for row in data.features}
    for row in recovered[:20]:
        assert tuple(np.round(row, 9)) in original


def test_split_disjoint_and_exhaustive():
    data = generate_blobs(n_per_class=50, seed=21)
    split = standardize_and_split(data, seed=21)
    recovered = np.vstack([
        split.train.features * split.scale + split.mean,
        split.validation.features * split.scale + split.mean,
        split.test.features * split.scale + split.mean,
    ])
    assert recovered.shape == data.features.shape
    order_a = np.lexsort(recovered.T)
    order_b = np.lexsort(data.features.T)
    assert np.allclose(recovered[order_a], data.features[order_b], atol=1e-9)


def test_split_constant_feature_scale_guard():
    rng = np.random.default_rng(23)
    feats = np.column_stack([rng.normal(size=100), np.full(100, 7.7)])
    data = Dataset(feats, rng.integers(0, 2, 100))
    split = standardize_and_split(data, seed=23)
    assert split.scale[1] == 1.0
    assert np.all(np.abs(split.train.features[:, 1]) < 1e-9)


def test_split_validation_errors():
    data = generate_blobs(n_per_class=500, seed=25)
    with pytest.raises(ValueError):
        standardize_and_split(data, fractions=(0.5, 0.3, 0.3))
    with pytest.raises(ValueError):
        standardize_and_split(data, fractions=(0.8, 0.2))
    with pytest.raises(ValueError):
        standardize_and_split(data, fractions=(1.0, -0.1, 0.1))
    small = Dataset(np.zeros((3, 1)), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        standardize_and_split(small)


def test_split_deterministic():
    data = generate_blobs(n_per_class=100, seed=27)
    a = standardize_and_split(data, seed=27)
    b = standardize_and_split(data, seed=27)
    assert np.array_equal(a.train.features, b.train.features)
    assert np.array_equal(a.test.labels, b.test.labels)


# ------------------------------------------------------------------ batches


def test_batches_sizes_and_partition():
    data = Dataset(np.arange(20).reshape(10, 2).astype(float),
                   np.array([0.0, 1.0] * 5))
    out = batches(data, 4, seed=1, epoch=1)
    assert [len(idx) for idx in out] == [4, 4, 2]
    assert np.array_equal(np.sort(np.concatenate(out)), np.arange(10))


def test_batches_keyed_by_seed_and_epoch():
    data = generate_blobs(n_per_class=50, seed=29)
    a = batches(data, 16, seed=5, epoch=3)
    b = batches(data, 16, seed=5, epoch=3)
    c = batches(data, 16, seed=5, epoch=4)
    assert all(np.array_equal(i1, i2) for i1, i2 in zip(a, b))
    assert not all(np.array_equal(i1, i2) for i1, i2 in zip(a, c))
    with pytest.raises(ValueError):
        batches(data, 0, seed=1, epoch=1)
