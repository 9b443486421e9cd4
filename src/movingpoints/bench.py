"""Benchmark protocols and report plumbing.

Two protocols:

* synthetic suite: a grid of generated blob datasets (seeds x scatter
  widths), each split 80/20 and run through all four classifiers with one
  fixed, untuned parameter set;
* dataset protocol: repeated seeded splits of one real dataset, each
  standardized (statistics from the training side only) and PCA-reduced,
  then run through the moving-points classifier and the linear SVM.

Seeding is hierarchical and documented: the blob content of a synthetic
cell depends only on its dataset seed, while every stochastic choice made
on top (split membership, training shuffles) keys off
derive_seed(master_seed, ...) so the whole report reproduces bit-for-bit
from one master seed, cell by cell.
"""

from __future__ import annotations

import io
import math
import operator
from dataclasses import dataclass, field, replace
from functools import partial

from . import baselines, mpa
from .datasets import (
    Dataset,
    DegenerateSplitError,
    InvalidParamsError,
    _check_test_fraction,
    make_blobs,
    pca_apply,
    pca_fit,
    standardize_apply,
    standardize_fit,
    train_test_split,
)
from .rng import derive_seed


# Suggested learning rates for the bundled dataset protocols. These are
# untuned config defaults within the usual working range, not claims of
# optimality; pass an explicit eta to override.
DATASET_ETA_DEFAULTS = {
    "pima": 3e-5,
    "penguins": 5e-5,
    "iris": 8e-5,
}


class LengthMismatchError(ValueError):
    """Predictions and labels have different lengths."""


class EmptyError(ValueError):
    """Accuracy of zero items is undefined."""


def accuracy(predictions, labels) -> float:
    """Fraction of exact matches of two equal-length sequences or 1-D arrays."""
    p = predictions.tolist() if hasattr(predictions, "tolist") else list(predictions)
    t = labels.tolist() if hasattr(labels, "tolist") else list(labels)
    if len(p) != len(t):
        raise LengthMismatchError(f"lengths differ: {len(p)} vs {len(t)}")
    if not p:
        raise EmptyError("no items to score")
    return sum(map(operator.eq, p, t)) / len(p)


@dataclass(frozen=True)
class RunRecord:
    """One classifier on one dataset; error set and accuracies None if it failed."""

    dataset_id: str
    classifier: str
    train_accuracy: float | None
    test_accuracy: float | None
    error: str | None = None


@dataclass(frozen=True)
class Aggregate:
    classifier: str
    mean_train: float
    mean_test: float
    gap: float
    runs: int
    failures: int


@dataclass
class BenchReport:
    records: list[RunRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def aggregates(self) -> list[Aggregate]:
        """Per-classifier means over non-failed records.

        Records are sorted by (dataset id, classifier) before summation, so
        the result is bit-identical no matter what order runs completed in.
        """
        ordered = sorted(self.records, key=lambda r: (r.dataset_id, r.classifier))
        names = sorted({r.classifier for r in ordered})
        out = []
        for name in names:
            ok = [r for r in ordered if r.classifier == name and r.error is None]
            bad = sum(1 for r in ordered if r.classifier == name and r.error is not None)
            if not ok:
                out.append(Aggregate(name, float("nan"), float("nan"),
                                     float("nan"), 0, bad))
                continue
            # Added in order: sum() of floats is compensated from Python 3.12.
            mt = me = 0.0
            for r in ok:
                mt += r.train_accuracy
                me += r.test_accuracy
            mt /= len(ok)
            me /= len(ok)
            out.append(Aggregate(name, mt, me, mt - me, len(ok), bad))
        return out

    @property
    def failure_count(self) -> int:
        return sum(1 for r in self.records if r.error is not None)


def _fail_all(records, dataset_id, classifiers, exc):
    msg = f"{type(exc).__name__}: {exc}"
    for name in classifiers:
        records.append(RunRecord(dataset_id, name, None, None, error=msg))


# name -> (seed slot, fit). fit(train, seed, params) trains on a Dataset and
# returns the predict_many of the fitted model; params holds mpa_cfg, svm_reg
# and svm_epochs. Slot 0 is the split's; a classifier without a slot draws no
# randomness. The lambdas look up mpa.* and baselines.* when they run, so a
# rebound module attribute (a tracer's wrapper, say) is honored.
CLASSIFIERS = {
    "knn": (None, lambda train, seed, params: partial(
        baselines.knn_predict_many, baselines.knn_fit(train, k=3))),
    "mpa": (1, lambda train, seed, params: partial(
        mpa.predict_many, mpa.train(train, replace(params["mpa_cfg"], seed=seed))[0])),
    "perceptron": (2, lambda train, seed, params: partial(
        baselines.linear_predict_many,
        baselines.perceptron_fit(train, eta=1.0, epochs=50, seed=seed))),
    "svm": (3, lambda train, seed, params: partial(
        baselines.linear_predict_many,
        baselines.linear_svm_fit(train, reg=params["svm_reg"],
                                 epochs=params["svm_epochs"], seed=seed))),
}


def _run_classifiers(records, run_id, names, train, test, base_seed, params):
    """Fit each named classifier on train and score it on train and test."""
    for name in names:
        slot, fit = CLASSIFIERS[name]
        seed = None if slot is None else derive_seed(base_seed, slot)
        try:
            predict = fit(train, seed, params)
            records.append(RunRecord(run_id, name,
                                     accuracy(predict(train.features), train.labels),
                                     accuracy(predict(test.features), test.labels)))
        except Exception as exc:  # recorded, never silently dropped
            _fail_all(records, run_id, (name,), exc)


def _check_at_least(**limits) -> None:
    """InvalidParamsError unless each name=(value, lowest allowed) holds."""
    for name, (value, low) in limits.items():
        if value < low:
            raise InvalidParamsError(f"{name} must be at least {low}, got {value}")


def _mpa_metadata(cfg: mpa.MpaConfig) -> dict:
    """Report metadata shared by both protocols: the MPA training knobs."""
    return {
        "eta": repr(cfg.eta),
        "alpha": "auto" if cfg.alpha is None else repr(cfg.alpha),
        "epochs": str(cfg.epochs),
        "near_cluster_percentile": repr(cfg.near_cluster_percentile),
        "init_spread": repr(cfg.init_spread),
    }


def run_synthetic_cell(seed: int, std_index: int, master_seed: int = 0,
                       mpa_cfg: mpa.MpaConfig | None = None,
                       n_per_class: int = 50, dim: int = 2,
                       test_fraction: float = 0.2) -> list[RunRecord]:
    """All four classifiers on one (seed, scatter-width) cell.

    Blob content depends only on (seed, std); the split and the training
    shuffles key off cell = derive_seed(master_seed, seed, std_index) with
    fixed slots: split 0, moving points 1, perceptron 2, SVM 3.
    """
    mpa_cfg = mpa_cfg or mpa.MpaConfig()
    std = 1.0 + 0.1 * std_index
    cell_id = f"seed{seed:02d}-std{std:.1f}"
    records: list[RunRecord] = []

    try:
        ds = make_blobs(seed=seed, std=std, n_per_class=n_per_class, dim=dim)
        cell = derive_seed(master_seed, seed, std_index)
        train_ds, test_ds = train_test_split(ds, test_fraction, derive_seed(cell, 0))
    except Exception as exc:
        _fail_all(records, cell_id, CLASSIFIERS, exc)
        return records

    _run_classifiers(records, cell_id, CLASSIFIERS, train_ds, test_ds, cell,
                     {"mpa_cfg": mpa_cfg, "svm_reg": 0.01, "svm_epochs": 30})
    return records


def run_synthetic_suite(n_seeds: int = 50, n_stds: int = 10, master_seed: int = 0,
                        mpa_cfg: mpa.MpaConfig | None = None,
                        n_per_class: int = 50, dim: int = 2,
                        test_fraction: float = 0.2) -> BenchReport:
    """Dataset seeds 0..n_seeds-1 crossed with scatter widths 1.0, 1.1, ...

    One untuned parameter set is shared by every cell. Cells are
    independent; the report is assembled in sorted cell order. Parameters
    no cell can use (a test_fraction outside (0, 1), no seeds or stds, no
    points per class, dim below 2) raise InvalidParamsError before any
    cell runs.
    """
    _check_test_fraction(test_fraction)
    _check_at_least(n_seeds=(n_seeds, 1), n_stds=(n_stds, 1),
                    n_per_class=(n_per_class, 1), dim=(dim, 2))
    mpa_cfg = mpa_cfg or mpa.MpaConfig()
    report = BenchReport(metadata={
        "protocol": "synthetic-suite",
        "master_seed": str(master_seed),
        "seeds": str(n_seeds),
        "stds": str(n_stds),
        "n_per_class": str(n_per_class),
        "dim": str(dim),
        "test_fraction": repr(test_fraction),
        **_mpa_metadata(mpa_cfg),
    })
    for seed in range(n_seeds):
        for j in range(n_stds):
            report.records.extend(run_synthetic_cell(
                seed, j, master_seed=master_seed, mpa_cfg=mpa_cfg,
                n_per_class=n_per_class, dim=dim, test_fraction=test_fraction))
    return report


def run_dataset_protocol(ds: Dataset, repetitions: int = 5,
                         mpa_cfg: mpa.MpaConfig | None = None,
                         master_seed: int = 0, test_fraction: float = 0.2,
                         pca_k: int = 3, svm_reg: float = 0.01,
                         svm_epochs: int = 30) -> BenchReport:
    """Repeated split -> standardize -> PCA -> train/evaluate runs.

    Standardization and PCA statistics come from each repetition's training
    side only; the test side is transformed with them. Seed slots per
    repetition r (rep = derive_seed(master_seed, r)): split 0, moving
    points 1, SVM 3. A test_fraction outside (0, 1), no repetitions, a
    pca_k or svm_epochs below 1, or an svm_reg that is not finite and
    positive raise InvalidParamsError before any repetition runs; a pca_k
    above the feature count keeps every component.
    """
    _check_test_fraction(test_fraction)
    _check_at_least(repetitions=(repetitions, 1), pca_k=(pca_k, 1),
                    svm_epochs=(svm_epochs, 1))
    if not 0.0 < svm_reg < math.inf:
        raise InvalidParamsError(f"svm_reg must be finite and positive, got {svm_reg}")
    mpa_cfg = mpa_cfg or mpa.MpaConfig()
    report = BenchReport(metadata={
        "protocol": "dataset",
        "master_seed": str(master_seed),
        "repetitions": str(repetitions),
        "test_fraction": repr(test_fraction),
        "pca_k": str(pca_k),
        **_mpa_metadata(mpa_cfg),
        "svm_reg": repr(svm_reg),
        "svm_epochs": str(svm_epochs),
    })
    params = {"mpa_cfg": mpa_cfg, "svm_reg": svm_reg, "svm_epochs": svm_epochs}
    for r in range(repetitions):
        rep_id = f"rep{r:03d}"
        rep = derive_seed(master_seed, r)
        try:
            train_raw, test_raw = train_test_split(ds, test_fraction,
                                                   derive_seed(rep, 0))
            scaler = standardize_fit(train_raw)
            train_std = standardize_apply(scaler, train_raw)
            test_std = standardize_apply(scaler, test_raw)
            k = min(pca_k, train_std.n)
            pca = pca_fit(train_std, k)
            train_p = pca_apply(pca, train_std)
            test_p = pca_apply(pca, test_std)
        except DegenerateSplitError as exc:
            _fail_all(report.records, rep_id, ("mpa", "svm"), exc)
            continue
        _run_classifiers(report.records, rep_id, ("mpa", "svm"), train_p, test_p,
                         rep, params)
    return report


def report_text(report: BenchReport) -> str:
    """Machine-readable report: '#'-prefixed metadata, then CSV records."""
    buf = io.StringIO()
    for key in sorted(report.metadata):
        buf.write(f"# {key}: {report.metadata[key]}\n")
    buf.write("dataset_id,classifier,train_accuracy,test_accuracy,error\n")
    for r in sorted(report.records, key=lambda r: (r.dataset_id, r.classifier)):
        tr = "" if r.train_accuracy is None else repr(float(r.train_accuracy))
        te = "" if r.test_accuracy is None else repr(float(r.test_accuracy))
        err = "" if r.error is None else r.error.replace("\n", " ").replace(",", ";")
        buf.write(f"{r.dataset_id},{r.classifier},{tr},{te},{err}\n")
    return buf.getvalue()


def write_report(report: BenchReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report_text(report))


def render_table(report: BenchReport) -> str:
    """Aggregate table: one row per classifier, fixed 4-decimal columns."""
    rows = [("classifier", "mean train acc", "mean test acc", "gap", "runs")]
    for a in report.aggregates():
        rows.append((a.classifier, f"{a.mean_train:.4f}", f"{a.mean_test:.4f}",
                     f"{a.gap:.4f}", str(a.runs)))
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]
    failed = report.failure_count
    if failed:
        lines.append(f"excluded failed runs: {failed}")
    return "\n".join(lines) + "\n"
