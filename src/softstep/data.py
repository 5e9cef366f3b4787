"""Synthetic data generation, CSV ingestion, standardization, splits, batches.

The synthetic task is two isotropic Gaussian blobs (one per class); class
imbalance is produced by randomly removing positives. Real data arrives as
comma-delimited CSV with a header row: every non-label column is a feature,
and rows with missing or non-numeric feature cells are rejected and counted
rather than imputed.

All randomness is drawn from purpose-keyed SeedSequences, so generation,
subsampling, splitting and batching each have independent streams derived
from one user-facing seed.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass

import numpy as np

SPLIT_FRACTIONS_DEFAULT = (0.64, 0.16, 0.20)

# stream tags keeping the module's RNG purposes disjoint
_TAG_BLOBS = 11
_TAG_SUBSAMPLE = 13
_TAG_SPLIT = 17
_TAG_BATCH = 23

_ZERO_VARIANCE_GUARD = 1e-12


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

    @property
    def positive_fraction(self) -> float:
        return self.n_positive / self.n


@dataclass(frozen=True)
class SplitDataset:
    """Train/validation/test datasets plus the train-fitted standardization."""

    train: Dataset
    validation: Dataset
    test: Dataset
    mean: np.ndarray
    scale: np.ndarray


def generate_blobs(n_per_class: int = 5000, sigma: float = 10.0,
                   dims: int = 3, seed: int = 0,
                   centers: tuple | None = None) -> Dataset:
    """Two isotropic Gaussian clusters, negatives first, one per class.

    Default centers are the origin and (10, ..., 10); with sigma=10 the
    separation equals one standard deviation, so the classes overlap
    substantially and the task is learnable but not saturable.
    """
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    if centers is None:
        centers = (np.zeros(dims), np.full(dims, 10.0))
    center_neg = np.asarray(centers[0], dtype=float)
    center_pos = np.asarray(centers[1], dtype=float)
    if center_neg.shape != (dims,) or center_pos.shape != (dims,):
        raise ValueError("centers must match dims")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_BLOBS]))
    neg = rng.normal(loc=center_neg, scale=sigma, size=(n_per_class, dims))
    pos = rng.normal(loc=center_pos, scale=sigma, size=(n_per_class, dims))
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
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(
            f"keep_fraction must lie in (0, 1], got {keep_fraction}")
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

    Every column except ``label_column`` must parse as a finite float; a row
    with any missing or unparseable feature cell (or a missing label) is
    dropped. A file whose usable rows are all positive or all negative
    is refused. Returns (dataset, number_of_rejected_rows).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row")
        header = [h.strip() for h in header]
        if label_column not in header:
            raise ValueError(
                f"{path}: no column named {label_column!r} in header {header}")
        label_pos = header.index(label_column)
        feature_pos = [i for i in range(len(header)) if i != label_pos]
        if not feature_pos:
            raise ValueError(f"{path}: no feature columns besides the label")
        # accepted rows go straight into flat float buffers, so a large file
        # costs no Python object per row
        values = array("d")
        labels = array("d")
        rejected = 0
        for cells in reader:
            if len(cells) != len(header):
                rejected += 1
                continue
            label_cell = cells[label_pos].strip()
            if not label_cell:
                rejected += 1
                continue
            try:
                feats = [float(cells[i]) for i in feature_pos]
            except ValueError:
                rejected += 1
                continue
            if not all(map(math.isfinite, feats)):
                rejected += 1
                continue
            values.extend(feats)
            labels.append(1.0 if label_cell == positive_value else 0.0)
    if not labels:
        raise ValueError(f"{path}: no usable data rows (rejected {rejected})")
    if sum(labels) in (0, len(labels)):
        raise ValueError(f"{path}: {'every' if labels[0] else 'no'} usable "
                         f"row has {label_column} == {positive_value!r}")
    features = np.frombuffer(values).reshape(len(labels), len(feature_pos))
    return Dataset(features, np.frombuffer(labels)), rejected


def standardize_and_split(data: Dataset,
                          fractions=SPLIT_FRACTIONS_DEFAULT,
                          seed: int = 0) -> SplitDataset:
    """Shuffle, split by fractions, standardize with train-only statistics.

    Scale is the per-feature train standard deviation; features with
    (near) zero variance get scale 1 so they pass through centered.
    """
    if len(fractions) != 3 or any(f <= 0.0 for f in fractions):
        raise ValueError(f"need three positive fractions, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    n = data.n
    n_train = int(round(fractions[0] * n))
    n_val = int(round(fractions[1] * n))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(
            f"degenerate split sizes ({n_train}, {n_val}, {n_test}) for n={n}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_SPLIT]))
    perm = rng.permutation(n)
    idx_train = perm[:n_train]
    idx_val = perm[n_train:n_train + n_val]
    idx_test = perm[n_train + n_val:]
    train_feats = data.features[idx_train]
    mean = train_feats.mean(axis=0)
    scale = train_feats.std(axis=0)
    scale = np.where(scale < _ZERO_VARIANCE_GUARD, 1.0, scale)

    def standardized(idx):
        return Dataset((data.features[idx] - mean) / scale, data.labels[idx])

    return SplitDataset(train=standardized(idx_train),
                        validation=standardized(idx_val),
                        test=standardized(idx_test),
                        mean=mean, scale=scale)


def batches(data: Dataset, batch_size: int, seed: int, epoch: int):
    """Row indices of shuffled mini-batches; final partial batch kept.

    The order is keyed by (seed, epoch) so each epoch reshuffles and any
    epoch's order can be reproduced independently.  Callers gather the
    batch's rows from ``data`` with the indices.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, _TAG_BATCH, epoch]))
    perm = rng.permutation(data.n)
    return [perm[start:start + batch_size]
            for start in range(0, data.n, batch_size)]
