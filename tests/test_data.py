import csv
import errno
import math
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softstep.data
from softstep.data import (
    REJECTION_REASONS,
    Dataset,
    batches,
    generate_blobs,
    load_csv,
    standardize_and_split,
    subsample_positives,
    write_atomic,
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


# -------------------------------------------------------------------- blobs


def test_generate_blobs_defaults():
    data = generate_blobs(seed=1)
    assert data.features.shape == (10000, 3)
    assert data.n_positive == 5000
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


def test_generate_blobs_fixed_centers_and_validation():
    # the centers are the origin and (10, ..., 10)
    data = generate_blobs(n_per_class=50, sigma=1.0, dims=2, seed=7)
    np.testing.assert_allclose(
        data.features[data.labels == 0.0].mean(axis=0), 0.0, atol=0.5)
    np.testing.assert_allclose(
        data.features[data.labels == 1.0].mean(axis=0), 10.0, atol=0.5)
    with pytest.raises(ValueError):
        generate_blobs(n_per_class=0)
    with pytest.raises(ValueError):
        generate_blobs(sigma=0.0)
    with pytest.raises(ValueError):
        generate_blobs(dims=0)


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
    quarter = subsample_positives(data, 0.25, seed=11)
    assert quarter.n == 6250
    assert quarter.n_positive == 1250


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
    assert rejected == dict.fromkeys(REJECTION_REASONS, 0)
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
    assert rejected == {"wrong cell count": 1, "empty label": 1,
                        "unparseable feature": 2, "non-finite feature": 1}
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


def test_load_csv_refuses_duplicate_column_names(tmp_path):
    # without the check the second "label" column became a feature
    clean = tmp_path / "clean.csv"
    clean.write_text("x,label, label\n0.1,1,1\n0.5,0,0\n0.2,1,1\n")
    messy = tmp_path / "messy.csv"
    messy.write_text("x,label,x,y\n0.1,1,2,3\noops,0,1,2\n\n0.5,0,1,2\n")
    for path, names in ((clean, ["label"]), (messy, ["x"])):
        message = f"duplicate column names {names} in header"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_csv(path, "label", "1")


def _reference_load(path, label_column, positive_value):
    """The row-by-row loop every load_csv result must equal."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = [h.strip() for h in next(rows)]
        label_pos = header.index(label_column)
        feature_pos = [i for i in range(len(header)) if i != label_pos]
        features, labels = [], []
        rejected = dict.fromkeys(REJECTION_REASONS, 0)
        for cells in rows:
            if len(cells) != len(header):
                rejected["wrong cell count"] += 1
                continue
            label_cell = cells[label_pos].strip()
            if not label_cell:
                rejected["empty label"] += 1
                continue
            try:
                feats = [float(cells[i]) for i in feature_pos]
            except ValueError:
                rejected["unparseable feature"] += 1
                continue
            if not all(map(math.isfinite, feats)):
                rejected["non-finite feature"] += 1
                continue
            features.append(feats)
            labels.append(1.0 if label_cell == positive_value else 0.0)
    return (np.array(features, dtype=float).reshape(-1, len(feature_pos)),
            np.array(labels, dtype=float), rejected)


def _assert_loads_like_reference(path, positive_value="pos"):
    features, labels, rejected = _reference_load(path, "label",
                                                 positive_value)
    if labels.sum() in (0, len(labels)):
        with pytest.raises(ValueError, match="usable"):
            load_csv(path, "label", positive_value)
        return
    data, got = load_csv(path, "label", positive_value)
    assert data.features.tobytes() == features.tobytes()
    assert data.labels.tobytes() == labels.tobytes()
    assert got == rejected


_FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)
# cells the row path and numpy's reader read alike, finite or not
_PLAIN_NUMBERS = st.one_of(
    _FLOATS.map(repr), _FLOATS.map(lambda v: "%.6f" % v),
    _FLOATS.map(lambda v: "%g" % v),
    st.sampled_from(["nan", "-inf", "inf", "Infinity", "1e400", "-1e400",
                     "1e-400", "-0", "+.5", "5.", " 1.5 ", "\xa02\xa0",
                     "3\x0b", "\t4"]))
_PLAIN_LABELS = st.sampled_from(
    ["pos", "neg", " pos ", "\xa0pos\xa0", "pos\x0b", " neg", "", "  ",
     "\xa0", "p#s", "Pos", "pos neg", "1"])
# cells that need the row path, or that the row loop rejects
_MESSY_CELLS = st.one_of(
    st.sampled_from(["1_000", "0x10", "", "abc", "1#2", "#", "1e", ".",
                     "١", '"1.5"', '"1,5"', '"pos"', "pos\x00", "1\x00",
                     '"', "1\r2", "pos\r"]),
    st.text(alphabet="0123456789.e+-_ #\"\xa0naif", max_size=6))


@st.composite
def _csv_files(draw, max_traps):
    """CSV text: a label column among 1-3 features and plain rows, then up
    to ``max_traps`` edits, each a kind of row or byte the row loop reads
    differently from numpy's reader."""
    n_features = draw(st.integers(1, 3))
    names = [f"x{i}" for i in range(n_features)]
    names.insert(draw(st.integers(0, n_features)), "label")
    rows = [[draw(_PLAIN_LABELS) if name == "label" else draw(_PLAIN_NUMBERS)
             for name in names] for _ in range(draw(st.integers(1, 20)))]
    for _ in range(draw(st.integers(0, max_traps))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["cell", "longer", "shorter", "line"]))
        if kind == "cell":
            if row:
                row[draw(st.integers(0, len(row) - 1))] = draw(_MESSY_CELLS)
        elif kind == "longer":
            row.append(draw(_PLAIN_NUMBERS))
        elif kind == "shorter":
            del row[-1:]
        else:
            rows.insert(draw(st.integers(0, len(rows))),
                        [draw(st.sampled_from(["", "  ", "\t", "\xa0"]))])
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) \
        if max_traps else "\n"
    lines = [",".join(names)] + [",".join(row) for row in rows]
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


@settings(max_examples=400, deadline=None)
@given(text=_csv_files(max_traps=3), positive_value=st.sampled_from(
    ["pos", "", "neg"]))
def test_load_csv_equals_the_row_loop_on_fuzzed_files(tmp_path_factory,
                                                     text, positive_value):
    path = tmp_path_factory.getbasetemp() / "fuzzed.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_loads_like_reference(path, positive_value)


@settings(max_examples=150, deadline=None)
@given(text=_csv_files(max_traps=0))
def test_plain_files_take_the_numpy_path(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "plain.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(softstep.data, "_parse_rows",
                           side_effect=AssertionError("took the row path")):
        _assert_loads_like_reference(path)


@pytest.mark.parametrize("text", [
    "x,label\n1,pos\n2,neg\n\n",            # blank line: numpy skips it
    "x,label\n1,pos\n  \n2,neg\n",          # whitespace-only line
    "x,label\n1,pos,7\n2,neg\n",            # a longer row
    "x,label\n1,pos,7\n2\n3,neg\n",         # a longer and a shorter row
    "x,label\n1,pos,7\n2,neg,8\n",          # every row longer
    "x,y,label\n1,pos\n2,neg\n",            # every row shorter
    "x,label\n1,pos,7\n\n2,neg\n",
    "x,label\n1,\n2,neg\n3,\n4,pos\n",      # empty labels
    "x,label\n",                             # a header alone: numpy warns
    "x,label",
    "x,label\n1,pos\x00\n2,neg\n3,pos\n",   # "pos\x00" is not "pos"
    "x,label\n1#5,pos\n2,neg\n3,pos\n",     # '#' is no comment
    'x,label\n"1",pos\n2,neg\n',            # csv unquotes
    'x,label\n1,"pos"\n2,neg\n',
    "x,label\r\n1,pos\r\n2,neg\r\n",        # CRLF
    "x,label\n1,pos\r\r\n2,neg\n",          # csv ends a row at a bare CR
    "x,label\n1_000,pos\n2,neg\n",          # float() only
    "label,x\n pos ,1\n\xa0neg\xa0,nan\n,2\nneg,1e400\nneg,3\n",
])
@pytest.mark.parametrize("chunk", [softstep.data._SCAN_CHUNK, 2])
@pytest.mark.parametrize("positive_value", ["pos", ""])
@pytest.mark.filterwarnings("error")
def test_load_csv_traps_match_the_row_loop(tmp_path, text, chunk,
                                           positive_value):
    # 2-byte reads put a "\n\n" across two chunks of the scan; an empty
    # positive value must not turn an empty label positive
    path = tmp_path / "trap.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(softstep.data, "_SCAN_CHUNK", chunk):
        _assert_loads_like_reference(path, positive_value)


def test_workload_shaped_file_takes_the_numpy_path(tmp_path):
    rng = np.random.default_rng(3)
    positive = rng.random(2000) < 0.2
    features = rng.normal(size=(2000, 8)) + 0.6 * positive[:, None]
    path = tmp_path / "data.csv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(f"x{i}" for i in range(8)) + ",label\n")
        for row, pos in zip(features.tolist(), positive.tolist()):
            handle.write(",".join("%.6f" % v for v in row))
            handle.write(",pos\n" if pos else ",neg\n")
    with mock.patch.object(softstep.data, "_parse_rows",
                           side_effect=AssertionError("took the row path")):
        _assert_loads_like_reference(path)


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


# ------------------------------------------------------------ atomic writes


def test_write_atomic_replaces_the_file(tmp_path):
    path = tmp_path / "out.bin"
    write_atomic(path, b"first")
    write_atomic(path, b"second")
    assert path.read_bytes() == b"second"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_write_failing_midway_leaves_the_old_file(tmp_path,
                                                  failing_writes):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old contents")
    with pytest.raises(OSError, match="No space"):
        write_atomic(path, b"new contents that never fully land")
    assert path.read_bytes() == b"old contents"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_failed_rename_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old contents")

    def refuse(src, dst):
        raise PermissionError(errno.EACCES, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError):
        write_atomic(path, b"new")
    assert path.read_bytes() == b"old contents"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_write_atomic_replaces_a_symlinks_target(tmp_path):
    target = tmp_path / "target.tsv"
    target.write_bytes(b"old")
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    write_atomic(link, b"new")
    assert link.is_symlink()
    assert target.read_bytes() == b"new"
    assert sorted(os.listdir(tmp_path)) == ["link.tsv", "target.tsv"]


def test_write_atomic_refuses_what_is_not_a_regular_file(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    for path in (fifo, tmp_path):
        with pytest.raises(ValueError, match="not a regular file"):
            write_atomic(path, b"new")
    assert os.listdir(tmp_path) == ["pipe"]


def test_write_atomic_refuses_a_path_in_no_directory(tmp_path):
    path = tmp_path / "missing" / "out.bin"
    with pytest.raises(ValueError,
                       match=re.escape(f"no such directory {path.parent}")):
        write_atomic(path, b"new")
    assert os.listdir(tmp_path) == []
