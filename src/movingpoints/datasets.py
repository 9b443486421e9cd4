"""Dataset ingestion, synthetic blobs, standardization, PCA, and splitting.

CSV convention: comma separated, first row is the header, UTF-8, '.' decimal
point. A missing value is an empty field or the string ``NA``. Rows with a
missing or unparseable value in any selected column are dropped; the number
of dropped rows is kept on the returned dataset.

All randomness (blob sampling, split membership) goes through the portable
generator in :mod:`movingpoints.rng`, so every artifact is reproducible
bit-for-bit from its seed on any platform.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import EPS_DEGENERATE
from .rng import SplitMix64


class NonBinaryLabelsError(ValueError):
    """Labels are not the two classes {0, 1}."""


class MissingColumnError(ValueError):
    """A named column is absent from the CSV header."""


class NoRowsRemainingError(ValueError):
    """Every row was dropped or filtered out."""


class SingleClassError(ValueError):
    """Only one class is present after filtering."""


class MalformedCsvError(ValueError):
    """The csv module cannot parse the file, e.g. a field past its size limit."""


class InvalidParamsError(ValueError):
    """Generator parameters out of range."""


class EmptyDatasetError(ValueError):
    """Operation requires a non-empty dataset."""


class InvalidKError(ValueError):
    """Requested component count is out of range."""


class DegenerateSplitError(ValueError):
    """A split came out empty or stripped the training side of a class."""


@dataclass
class Dataset:
    """An m x n feature matrix with binary labels.

    feature_names is optional display metadata; dropped_rows records how
    many input rows a loader discarded for missing/unparseable values.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: list[str] | None = None
    dropped_rows: int = 0

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=int)
        if X.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {X.shape}")
        if X.shape[0] == 0:
            raise EmptyDatasetError("dataset has no rows")
        if not np.all(np.isfinite(X)):
            raise ValueError("features contain non-finite values")
        if y.shape != (X.shape[0],):
            raise ValueError(
                f"labels length {y.shape} does not match {X.shape[0]} rows"
            )
        if not np.all((y == 0) | (y == 1)):
            raise NonBinaryLabelsError("labels must be 0 or 1")
        if self.feature_names is not None:
            names = [str(c) for c in self.feature_names]
            if len(names) != X.shape[1]:
                raise ValueError("feature_names length does not match columns")
            self.feature_names = names
        self.features = X
        self.labels = y

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]

    def class_points(self, label: int) -> np.ndarray:
        return self.features[self.labels == label]

    def require_binary(self) -> None:
        """Raise unless both classes are present."""
        present = set(np.unique(self.labels).tolist())
        if present != {0, 1}:
            raise NonBinaryLabelsError(
                f"need both classes 0 and 1, found {sorted(present)}"
            )


def _parse_cell(text: str):
    s = text.strip()
    if s == "" or s == "NA":
        return None
    try:
        v = float(s)
    except ValueError:
        return None
    if not math.isfinite(v):
        return None
    return v


def _read_csv(path, feature_columns=None, label_column: str | None = None,
              keep_labels=None):
    """Parse a CSV into (features, labels, feature column names, dropped rows).

    feature_columns=None selects every column except the label column.
    labels holds the stripped label cells, or None without a label column;
    with keep_labels given, rows whose label is not in it are filtered out
    before their features are parsed. Rows of the wrong length or with a
    missing/unparseable feature value are dropped and counted.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
            rows = list(reader)
        except StopIteration:
            raise NoRowsRemainingError(f"{path}: file is empty") from None
        except csv.Error as exc:
            raise MalformedCsvError(f"{path}: line {reader.line_num}: {exc}") from None

    if label_column is not None and label_column not in header:
        raise MissingColumnError(
            f"label column {label_column!r} not in header {header}"
        )
    if feature_columns is None:
        feature_columns = [c for c in header if c != label_column]
    for c in feature_columns:
        if c not in header:
            raise MissingColumnError(f"feature column {c!r} not in header {header}")
    if not feature_columns:
        raise MissingColumnError("no feature columns selected")

    label_idx = None if label_column is None else header.index(label_column)
    feat_idx = [header.index(c) for c in feature_columns]
    feats = []
    labels = None if label_idx is None else []
    dropped = 0
    for row in rows:
        if len(row) != len(header):
            dropped += 1
            continue
        if labels is not None:
            raw_label = row[label_idx].strip()
            if keep_labels is not None and raw_label not in keep_labels:
                continue  # filtered, not a data defect
        values = [_parse_cell(row[i]) for i in feat_idx]
        if any(v is None for v in values):
            dropped += 1
            continue
        feats.append(values)
        if labels is not None:
            labels.append(raw_label)

    if not feats:
        raise NoRowsRemainingError(f"{path}: no usable rows remain")
    return np.array(feats, dtype=float), labels, list(feature_columns), dropped


def load_csv(path, label_column: str, positive_label: str,
             feature_columns=None, negative_label: str | None = None) -> Dataset:
    """Load a labeled CSV into a binary Dataset.

    Label equality is tested against the raw cell text (whitespace
    stripped). With negative_label given, rows carrying any other label are
    filtered out first; otherwise every non-positive row becomes class 0.
    Rows with missing/unparseable feature values are dropped and counted in
    the result's dropped_rows.
    """
    keep = None if negative_label is None else (positive_label, negative_label)
    X, raw_labels, names, dropped = _read_csv(path, feature_columns, label_column, keep)
    labels = [1 if s == positive_label else 0 for s in raw_labels]
    if len(set(labels)) < 2:
        raise SingleClassError(
            f"{path}: only one class present after filtering "
            f"(positive {positive_label!r})"
        )
    return Dataset(X, np.array(labels, dtype=int), feature_names=names,
                   dropped_rows=dropped)


def make_blobs(seed: int, std: float, n_per_class: int = 50, dim: int = 2,
               center_halfwidth: float = 20.0) -> Dataset:
    """Two isotropic Gaussian clusters with uniformly drawn centers.

    Centers are uniform in [-center_halfwidth, center_halfwidth]^dim. The
    default half-width is calibrated so that the benchmark's scatter sweep
    (std 1.0..1.9) yields mostly separable datasets with an occasional
    overlapping pair: mean best-case accuracy across the suite's grid sits
    near 0.98.

    Word budget from the seed's stream: 2*dim words for the two centers,
    then 2*n_per_class*dim words of normals per class (class 0 first). The
    scatter scale multiplies the same normal draws, so two calls differing
    only in std share their centers and per-point directions exactly.
    """
    if not (std > 0) or n_per_class < 1 or dim < 2 or not (center_halfwidth > 0):
        raise InvalidParamsError(
            f"need std > 0, n_per_class >= 1, dim >= 2, center_halfwidth > 0; "
            f"got std={std}, n_per_class={n_per_class}, dim={dim}, "
            f"center_halfwidth={center_halfwidth}"
        )
    stream = SplitMix64(seed)
    centers = (-center_halfwidth
               + 2.0 * center_halfwidth * stream.uniforms(2 * dim).reshape(2, dim))
    blocks = []
    for c in range(2):
        z = stream.normals(n_per_class * dim).reshape(n_per_class, dim)
        blocks.append(centers[c] + std * z)
    X = np.vstack(blocks)
    y = np.repeat([0, 1], n_per_class)
    names = [f"x{j}" for j in range(dim)]
    return Dataset(X, y, feature_names=names)


@dataclass(frozen=True)
class StandardizerParams:
    """Per-feature location/scale fitted on a training split (population std)."""

    mean: np.ndarray
    std: np.ndarray


def standardize_fit(train: Dataset) -> StandardizerParams:
    if train.m == 0:
        raise EmptyDatasetError("cannot standardize an empty dataset")
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)  # population (ddof 0)
    return StandardizerParams(mean=mean, std=std)


def standardize_apply(params: StandardizerParams, ds: Dataset) -> Dataset:
    """Shift/scale by training statistics; (near-)constant columns map to 0."""
    out = ds.features - params.mean
    dead = params.std <= EPS_DEGENERATE * np.maximum(1.0, np.abs(params.mean))
    out[:, dead] = 0.0
    out[:, ~dead] /= params.std[~dead]
    return Dataset(out, ds.labels.copy(), feature_names=ds.feature_names,
                   dropped_rows=ds.dropped_rows)


def _jacobi_eigh(a: np.ndarray, sweeps: int = 100, tol: float = 1e-14):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors-as-columns), unordered. Deterministic:
    fixed pivot order (p < q row-major), no randomized starts.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v
    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(sweeps):
        off = math.sqrt(float(np.sum(np.tril(a, -1) ** 2)))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                # Rutishauser's stable rotation parameters.
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                a[p, q] = a[q, p] = 0.0
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    return a.diagonal().copy(), v


@dataclass(frozen=True)
class PcaParams:
    """Feature means plus the top-k covariance eigenvectors (columns).

    eigenvalues holds the k retained eigenvalues, descending; components'
    sign convention makes each column's largest-magnitude entry positive.
    """

    mean: np.ndarray
    components: np.ndarray
    k: int
    eigenvalues: np.ndarray = field(default_factory=lambda: np.empty(0))


def pca_fit(train: Dataset, k: int) -> PcaParams:
    n = train.n
    if not (1 <= k <= n):
        raise InvalidKError(f"k must be in 1..{n}, got {k}")
    if train.m < 2:
        raise EmptyDatasetError("PCA needs at least 2 rows")
    mean = train.features.mean(axis=0)
    xc = train.features - mean
    cov = (xc.T @ xc) / train.m  # population covariance
    vals, vecs = _jacobi_eigh(cov)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    comps = vecs[:, :k].copy()
    for j in range(k):
        lead = int(np.argmax(np.abs(comps[:, j])))
        if comps[lead, j] < 0:
            comps[:, j] = -comps[:, j]
    return PcaParams(mean=mean, components=comps, k=k, eigenvalues=vals[:k].copy())


def pca_apply(params: PcaParams, ds: Dataset) -> Dataset:
    proj = (ds.features - params.mean) @ params.components
    names = [f"pc{j + 1}" for j in range(params.k)]
    return Dataset(proj, ds.labels.copy(), feature_names=names,
                   dropped_rows=ds.dropped_rows)


def _check_test_fraction(test_fraction: float) -> None:
    if not (0.0 < test_fraction < 1.0):
        raise InvalidParamsError(f"test_fraction must be in (0, 1), got {test_fraction}")


def _ceil_count(m: int, fraction: float) -> int:
    p = m * fraction
    r = round(p)
    # guard against float noise pushing an exact product across an integer
    if abs(p - r) < 1e-9 * max(1, m):
        return int(r)
    return int(math.ceil(p))


def train_test_split(ds: Dataset, test_fraction: float, seed: int):
    """Seeded shuffle, then partition into (train, test).

    Test size is ceil(m * test_fraction). Row order within each side is
    ascending by original index, so the split is a pure membership choice.
    The training side must keep both classes (the test side may be
    single-class when it is very small); violations raise DegenerateSplit.
    """
    _check_test_fraction(test_fraction)
    m = ds.m
    n_test = _ceil_count(m, test_fraction)
    n_train = m - n_test
    if n_test < 1 or n_train < 1:
        raise DegenerateSplitError(
            f"split {n_train}/{n_test} of {m} rows leaves an empty side"
        )
    perm = SplitMix64(seed).permutation(m)
    test_idx = np.sort(np.array(perm[:n_test], dtype=int))
    train_idx = np.sort(np.array(perm[n_test:], dtype=int))

    def take(idx):
        return Dataset(ds.features[idx].copy(), ds.labels[idx].copy(),
                       feature_names=ds.feature_names)

    train, test = take(train_idx), take(test_idx)
    if np.unique(train.labels).size < 2:
        raise DegenerateSplitError("training split lost a class; try another seed")
    return train, test
