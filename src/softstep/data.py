"""Synthetic data generation, CSV ingestion, standardization, splits, batches.

The synthetic task is two isotropic Gaussian blobs (one per class); class
imbalance is produced by randomly removing positives. Real data arrives as
comma-delimited CSV with a header row: every non-label column is a feature,
and rows with a missing, non-numeric or non-finite cell are rejected and
counted by reason rather than imputed. Artifacts are written with
``write_atomic``.

All randomness is drawn from purpose-keyed SeedSequences, so generation,
subsampling, splitting and batching each have independent streams derived
from one user-facing seed.
"""

from __future__ import annotations

import csv
import math
import os
from array import array
from dataclasses import dataclass

import numpy as np

SPLIT_FRACTIONS = (0.64, 0.16, 0.20)  # train, validation, test

# stream tags keeping the module's RNG purposes disjoint
_TAG_BLOBS = 11
_TAG_SUBSAMPLE = 13
_TAG_SPLIT = 17
_TAG_BATCH = 23

# bytes per read while load_csv scans a file for what numpy reads otherwise
_SCAN_CHUNK = 1 << 20

# why load_csv rejects a data row, in the order the checks run
REJECTION_REASONS = ("wrong cell count", "empty label",
                     "unparseable feature", "non-finite feature")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with binary labels; immutable once constructed."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        if labels.ndim != 1 or len(labels) != len(feats):
            raise ValueError("labels must be 1-D and match feature rows")
        if len(feats) == 0:
            raise ValueError("dataset must contain at least one row")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        if not np.all((labels == 0.0) | (labels == 1.0)):
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def dims(self) -> int:
        return self.features.shape[1]

    @property
    def n_positive(self) -> int:
        return int(np.sum(self.labels == 1.0))


@dataclass(frozen=True)
class SplitDataset:
    """Train/validation/test datasets plus the train-fitted standardization."""

    train: Dataset
    validation: Dataset
    test: Dataset
    mean: np.ndarray
    scale: np.ndarray


def check_blobs(n_per_class: int, sigma: float, dims: int) -> None:
    """Refuse generate_blobs parameters it cannot draw a dataset from."""
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")


def check_keep_fraction(keep_fraction: float) -> None:
    """Refuse a share of positives that subsample_positives cannot keep."""
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(
            f"keep_fraction must lie in (0, 1], got {keep_fraction}")


def generate_blobs(n_per_class: int = 5000, sigma: float = 10.0,
                   dims: int = 3, seed: int = 0) -> Dataset:
    """Two isotropic Gaussian clusters, negatives first, one per class.

    The centers are the origin and (10, ..., 10); with sigma=10 the
    separation equals one standard deviation, so the classes overlap
    substantially and the task is learnable but not saturable.
    """
    check_blobs(n_per_class, sigma, dims)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_BLOBS]))
    neg = rng.normal(loc=0.0, scale=sigma, size=(n_per_class, dims))
    pos = rng.normal(loc=10.0, scale=sigma, size=(n_per_class, dims))
    features = np.vstack([neg, pos])
    labels = np.concatenate([np.zeros(n_per_class), np.ones(n_per_class)])
    return Dataset(features, labels)


def subsample_positives(data: Dataset, keep_fraction: float,
                        seed: int = 0) -> Dataset:
    """Drop a random (1 - keep_fraction) share of positive rows.

    Keeps every negative plus round(keep_fraction * n_pos) uniformly chosen
    positives, preserving original row order. From a 10000-sample balanced
    base, keep 1/2 gives 7500 rows and keep 1/4 gives 6250.
    """
    check_keep_fraction(keep_fraction)
    pos_idx = np.flatnonzero(data.labels == 1.0)
    if len(pos_idx) == 0:
        raise ValueError("dataset has no positives to subsample")
    n_keep = int(round(keep_fraction * len(pos_idx)))
    if n_keep == 0:
        raise ValueError(
            f"keep_fraction {keep_fraction} keeps zero of "
            f"{len(pos_idx)} positives")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_SUBSAMPLE]))
    kept_pos = rng.permutation(pos_idx)[:n_keep]
    keep = np.sort(np.concatenate(
        [np.flatnonzero(data.labels == 0.0), kept_pos]))
    return Dataset(data.features[keep], data.labels[keep])


def load_csv(path, label_column: str, positive_value: str):
    """Read a header-rowed CSV into a Dataset, rejecting unusable rows.

    Every column except ``label_column`` must parse as a finite float. A
    row is rejected for a cell count other than the header's, an empty
    stripped label, an unparseable feature or a non-finite one, checked in
    that order. The label is positive when its stripped text equals
    ``positive_value``. A header that repeats a column name, and a file
    whose usable rows are all positive or all negative, are refused.
    Returns (dataset, rejected): ``rejected`` maps each of
    ``REJECTION_REASONS`` to its count of rows.

    A file that numpy's C reader provably reads like the csv module is
    parsed by it (see ``_parse_with_numpy``); any other goes through
    ``_parse_rows``, which is the definition of the rules.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        header = [h.strip() for h in header]
        duplicates = sorted({h for h in header if header.count(h) > 1})
        if duplicates:
            raise ValueError(
                f"{path}: duplicate column names {duplicates} in header")
        if label_column not in header:
            raise ValueError(
                f"{path}: no column named {label_column!r} in header {header}")
        label_pos = header.index(label_column)
        feature_pos = [i for i in range(len(header)) if i != label_pos]
        if not feature_pos:
            raise ValueError(f"{path}: no feature columns besides the label")
        parsed = _parse_with_numpy(path, len(header), label_pos, feature_pos,
                                   positive_value)
        if parsed is None:
            parsed = _parse_rows(rows, len(header), label_pos, feature_pos,
                                 positive_value)
    features, labels, rejected = parsed
    if not len(labels):
        raise ValueError(f"{path}: no usable data rows "
                         f"(rejected {sum(rejected.values())})")
    if labels.sum() in (0, len(labels)):
        raise ValueError(f"{path}: {'every' if labels[0] else 'no'} usable "
                         f"row has {label_column} == {positive_value!r}")
    return Dataset(features, labels), rejected


def _parse_rows(rows, n_cells, label_pos, feature_pos, positive_value):
    """(features, labels, rejected) of csv rows, checked one at a time."""
    # accepted rows go straight into flat float buffers, so a large file
    # costs no Python object per row
    values = array("d")
    labels = array("d")
    rejected = dict.fromkeys(REJECTION_REASONS, 0)
    for cells in rows:
        if len(cells) != n_cells:
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
        values.extend(feats)
        labels.append(1.0 if label_cell == positive_value else 0.0)
    features = np.frombuffer(values).reshape(len(labels), len(feature_pos))
    return features, np.frombuffer(labels), rejected


def _parse_with_numpy(path, n_cells, label_pos, feature_pos, positive_value):
    """``_parse_rows``'s result through ``np.loadtxt``, or None.

    None unless numpy provably reads the file as the csv module does. The
    file must hold no quote (numpy does not unquote), no carriage return
    (the csv module ends a row at a bare one), no NUL byte (numpy does not
    document how it reads one), no blank line (numpy skips it, the row
    loop rejects it) and at least one data line (numpy warns on none).
    numpy raises on a row whose cell count differs from the first data
    row's, and the first row's count must be the header's. A feature numpy
    cannot parse as a float raises too: numpy's float syntax is a subset of
    ``float()``'s, with equal values. Labels reach a converter as Python
    strings, so strip and == are the row loop's.
    """
    lines = 0
    last = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(_SCAN_CHUNK):
            if (b'"' in chunk or b"\0" in chunk or b"\r" in chunk
                    or b"\n\n" in chunk or last + chunk[:1] == b"\n\n"):
                return None
            lines += chunk.count(b"\n")
            last = chunk[-1:]
    if lines + (last != b"\n") < 2:
        return None

    def label_code(cell):
        cell = cell.strip()
        return -1.0 if not cell else 1.0 if cell == positive_value else 0.0

    try:
        cells = np.loadtxt(path, delimiter=",", comments=None, skiprows=1,
                           encoding="utf-8", converters={label_pos: label_code},
                           ndmin=2)
    except ValueError:
        return None
    if cells.shape[1] != n_cells:
        return None
    codes = cells[:, label_pos].copy()
    features = cells[:, feature_pos]
    del cells  # freed before the masks copy rows
    empty = codes < 0.0
    finite = np.isfinite(features).all(axis=1)
    keep = finite & ~empty
    rejected = dict.fromkeys(REJECTION_REASONS, 0)
    rejected["empty label"] = int(empty.sum())
    rejected["non-finite feature"] = int((~finite & ~empty).sum())
    if not keep.all():
        features, codes = features[keep], codes[keep]
    return features, codes, rejected


def standardize_and_split(data: Dataset, seed: int = 0) -> SplitDataset:
    """Shuffle, split by SPLIT_FRACTIONS, standardize with train statistics.

    Scale is the per-feature train standard deviation; a feature whose
    train max equals its min gets scale 1, so it passes through centered
    whatever its units.  A ValueError names the first feature (from 0)
    whose standard deviation underflows to zero in the data's units.
    """
    n = data.n
    n_train = int(round(SPLIT_FRACTIONS[0] * n))
    n_val = int(round(SPLIT_FRACTIONS[1] * n))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(
            f"degenerate split sizes ({n_train}, {n_val}, {n_test}) for n={n}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_SPLIT]))
    perm = rng.permutation(n)
    idx_train = perm[:n_train]
    idx_val = perm[n_train:n_train + n_val]
    idx_test = perm[n_train + n_val:]
    # dividing a column by the power of two that brings its largest |x|
    # into [1, 2) keeps its statistics and x - mean in range, exactly
    scaled = np.take(data.features, idx_train, axis=0)
    _, exponent = np.frexp(np.abs(scaled).max(axis=0))
    unit = np.ldexp(1.0, exponent - 1)
    scaled /= unit
    # exact, so the rule does not depend on the data's units: a column
    # whose train rows all equal the first (max == min) gets scale 1
    varies = (scaled != scaled[0]).any(axis=0)
    mean = scaled.mean(axis=0) * unit
    scale = np.where(varies, scaled.std(axis=0) * unit, 1.0)
    underflowed = np.flatnonzero(scale == 0.0)
    if underflowed.size:
        raise ValueError(f"feature column {underflowed[0]}: its train-split "
                         "standard deviation underflows to zero")
    unit = np.where(varies, unit, 1.0)    # constants stay in their units

    def standardized(idx):
        return Dataset((np.take(data.features, idx, axis=0) / unit
                        - mean / unit) / (scale / unit), data.labels[idx])

    return SplitDataset(train=standardized(idx_train),
                        validation=standardized(idx_val),
                        test=standardized(idx_test),
                        mean=mean, scale=scale)


def batches(data: Dataset, batch_size: int, seed: int, epoch: int):
    """Row indices of shuffled mini-batches; final partial batch kept.

    The order is keyed by (seed, epoch) so each epoch reshuffles and any
    epoch's order can be reproduced independently.  Callers gather the
    rows with the indices; ``TrainConfig`` checks ``batch_size`` >= 1.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, _TAG_BATCH, epoch]))
    perm = rng.permutation(data.n)
    return [perm[start:start + batch_size]
            for start in range(0, data.n, batch_size)]


def check_writable(path) -> str:
    """The real path ``write_atomic`` would replace, or ValueError.

    A symlink resolves to its target. A path that exists and is no regular
    file (a directory, a pipe, a terminal) is refused, and so is one whose
    directory does not exist.
    """
    real = os.path.realpath(path)
    if os.path.exists(real) and not os.path.isfile(real):
        raise ValueError(f"cannot replace {real}: not a regular file")
    folder = os.path.dirname(real)
    if not os.path.isdir(folder):
        raise ValueError(f"cannot write {real}: no such directory {folder}")
    return real


def write_atomic(path, payload: bytes) -> None:
    """Replace ``path`` with ``payload`` so that no reader sees a partial file.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path`` in one rename; if anything fails first, the old file
    stays as it was and the temporary file is removed. ``check_writable``
    decides which paths are refused, with ValueError.
    """
    path = check_writable(path)
    temporary = f"{path}.{os.getpid()}.tmp"
    handle = open(temporary, "xb")
    try:
        with handle:
            handle.write(payload)
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise
