"""Benchmark bookkeeping: record handling, isolation, deterministic reports."""

import hashlib
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from movingpoints import bench, mpa
from movingpoints.bench import (
    Aggregate,
    BenchReport,
    EmptyError,
    LengthMismatchError,
    RunRecord,
    accuracy,
    render_table,
    report_text,
    run_dataset_protocol,
    run_synthetic_cell,
    run_synthetic_suite,
    write_report,
)
from movingpoints.datasets import InvalidParamsError
from movingpoints.rng import SplitMix64

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


class TestAccuracy:
    def test_fractions(self):
        assert accuracy([1, 0, 1, 1], [1, 0, 0, 1]) == 0.75
        assert accuracy([0], [0]) == 1.0

    def test_is_a_python_float_with_the_bits_of_the_mean(self):
        rng = np.random.default_rng(3)
        for size in (1, 7, 80, 1000):
            p = rng.integers(0, 2, size=size)
            t = rng.integers(0, 2, size=size)
            got = accuracy(p, t)
            assert type(got) is float
            assert got == float(np.mean(p == t))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            accuracy([1, 0], [1])

    def test_empty(self):
        with pytest.raises(EmptyError):
            accuracy([], [])


class TestReportAggregation:
    def records(self):
        return [
            RunRecord("d2", "mpa", 0.9, 0.8),
            RunRecord("d1", "mpa", 1.0, 0.9),
            RunRecord("d1", "svm", 0.8, 0.7),
            RunRecord("d2", "svm", None, None, error="ValueError: boom"),
        ]

    def test_means_exclude_failures(self):
        rep = BenchReport(records=self.records())
        aggs = {a.classifier: a for a in rep.aggregates()}
        assert aggs["mpa"].mean_train == pytest.approx(0.95)
        assert aggs["mpa"].mean_test == pytest.approx(0.85)
        assert aggs["mpa"].gap == pytest.approx(0.10)
        assert aggs["mpa"].runs == 2
        assert aggs["svm"].runs == 1
        assert aggs["svm"].failures == 1

    def test_aggregate_order_independent(self):
        a = BenchReport(records=self.records()).aggregates()
        b = BenchReport(records=list(reversed(self.records()))).aggregates()
        assert a == b

    def test_failure_count(self):
        rep = BenchReport(records=self.records())
        assert rep.failure_count == 1

    def test_all_failed_classifier_gets_nan_row(self):
        rep = BenchReport(records=[
            RunRecord("d1", "knn", None, None, error="x"),
        ])
        agg = rep.aggregates()[0]
        assert agg.runs == 0 and agg.failures == 1
        assert np.isnan(agg.mean_test)


class TestReportText:
    def build(self):
        return BenchReport(
            records=[
                RunRecord("d1", "mpa", 1.0, 0.875),
                RunRecord("d1", "svm", None, None,
                          error="ValueError: bad, worse, worst"),
            ],
            metadata={"zeta": "9", "alpha": "auto"},
        )

    def test_sorted_metadata_then_csv(self):
        text = report_text(self.build())
        lines = text.splitlines()
        assert lines[0] == "# alpha: auto"
        assert lines[1] == "# zeta: 9"
        assert lines[2] == "dataset_id,classifier,train_accuracy,test_accuracy,error"
        assert lines[3] == "d1,mpa,1.0,0.875,"

    def test_error_commas_become_semicolons(self):
        text = report_text(self.build())
        failed = text.splitlines()[4]
        assert failed.count(",") == 4  # still a clean 5-field row
        assert "bad; worse; worst" in failed

    def test_write_report(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(self.build(), path)
        assert path.read_text(encoding="utf-8") == report_text(self.build())

    def test_byte_stable(self):
        assert report_text(self.build()) == report_text(self.build())

    def test_numpy_scalar_accuracy_writes_as_float(self):
        # repr(np.float64(0.5)) is "np.float64(0.5)" under numpy 2.
        report = BenchReport(records=[RunRecord("d1", "mpa", np.float64(0.5), np.float64(1.0))])
        assert report_text(report).splitlines()[-1] == "d1,mpa,0.5,1.0,"


class TestRenderTable:
    def test_four_decimals_and_exclusions(self):
        rep = BenchReport(records=[
            RunRecord("d1", "mpa", 0.97531, 0.86421),
            RunRecord("d2", "mpa", None, None, error="x"),
        ])
        table = render_table(rep)
        assert "0.9753" in table and "0.8642" in table
        assert "excluded failed runs: 1" in table

    def test_no_exclusion_line_when_clean(self):
        rep = BenchReport(records=[RunRecord("d1", "mpa", 1.0, 1.0)])
        assert "excluded" not in render_table(rep)


class TestSyntheticSuite:
    def test_cell_ids_and_classifiers(self):
        records = run_synthetic_cell(seed=3, std_index=2, master_seed=1,
                                     n_per_class=20)
        assert {r.dataset_id for r in records} == {"seed03-std1.2"}
        assert {r.classifier for r in records} == {"mpa", "perceptron", "knn", "svm"}

    def test_cell_reproducible(self):
        a = run_synthetic_cell(seed=5, std_index=0, master_seed=2, n_per_class=20)
        b = run_synthetic_cell(seed=5, std_index=0, master_seed=2, n_per_class=20)
        assert a == b

    def test_suite_contains_exact_cells(self):
        # the suite must equal its cells run in isolation: no shared state
        suite = run_synthetic_suite(n_seeds=2, n_stds=2, master_seed=3,
                                    n_per_class=20)
        lone = run_synthetic_cell(seed=1, std_index=1, master_seed=3,
                                  n_per_class=20)
        got = [r for r in suite.records if r.dataset_id == "seed01-std1.1"]
        assert sorted(got, key=lambda r: r.classifier) == \
            sorted(lone, key=lambda r: r.classifier)

    def test_dim8_cell_golden(self):
        # An overlapping 8-D cell: about 150 planes through 8 moving points
        # are built, so this pins the n >= 3 training path bit for bit.
        text = report_text(BenchReport(records=run_synthetic_cell(0, 90, dim=8)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
            "ef529968bf4ed167fc37f1c0cea64f8652ec07a838837c0931e0887359035a6d"

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 2.0, -0.5])
    def test_bad_test_fraction_rejected_before_any_cell(self, fraction):
        with pytest.raises(InvalidParamsError, match="test_fraction"):
            run_synthetic_suite(n_seeds=1, n_stds=1, test_fraction=fraction)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_seeds": 0}, "n_seeds"),
        ({"n_stds": 0}, "n_stds"),
        ({"n_per_class": 0}, "n_per_class"),
        ({"dim": 1}, "dim"),
    ], ids=["seeds-0", "stds-0", "n-per-class-0", "dim-1"])
    def test_unusable_grid_rejected_before_any_cell(self, kwargs, message, monkeypatch):
        cells = []
        monkeypatch.setattr(bench, "run_synthetic_cell", lambda *a, **k: cells.append(1))
        with pytest.raises(InvalidParamsError, match=message):
            run_synthetic_suite(**{"n_seeds": 1, "n_stds": 1, **kwargs})
        assert cells == []

    def test_suite_metadata(self):
        suite = run_synthetic_suite(n_seeds=1, n_stds=1, master_seed=0,
                                    n_per_class=20)
        assert suite.metadata["protocol"] == "synthetic-suite"
        assert suite.metadata["seeds"] == "1"
        assert len(suite.records) == 4


class TestDatasetProtocol:
    def test_repetition_ids_and_reproducibility(self, iris_hard):
        cfg = mpa.MpaConfig(eta=5e-4)
        a = run_dataset_protocol(iris_hard, repetitions=3, master_seed=1,
                                 mpa_cfg=cfg)
        b = run_dataset_protocol(iris_hard, repetitions=3, master_seed=1,
                                 mpa_cfg=cfg)
        assert a.records == b.records
        assert {r.dataset_id for r in a.records} == {"rep000", "rep001", "rep002"}
        assert {r.classifier for r in a.records} == {"mpa", "svm"}

    def test_pca_cap_respected(self, iris_hard):
        rep = run_dataset_protocol(iris_hard, repetitions=1, master_seed=0,
                                   mpa_cfg=mpa.MpaConfig(eta=5e-4), pca_k=3)
        assert rep.metadata["pca_k"] == "3"
        assert not any(r.error for r in rep.records)

    @pytest.mark.parametrize("kwargs, message", [
        ({"test_fraction": 2.0}, "test_fraction"),
        ({"pca_k": 0}, "pca_k"),
        ({"repetitions": 0}, "repetitions"),
        ({"svm_reg": float("inf")}, "svm_reg"),
        ({"svm_epochs": 0}, "svm_epochs"),
    ], ids=["test-fraction-2", "pca-k-0", "reps-0", "svm-reg-inf", "svm-epochs-0"])
    def test_bad_parameter_rejected_before_any_repetition(self, iris_hard,
                                                          kwargs, message):
        with pytest.raises(InvalidParamsError, match=message):
            run_dataset_protocol(iris_hard, **{"repetitions": 1, **kwargs})

    def test_eta_defaults_exported(self):
        assert bench.DATASET_ETA_DEFAULTS["pima"] == pytest.approx(3e-5)
        assert bench.DATASET_ETA_DEFAULTS["penguins"] == pytest.approx(5e-5)
        assert bench.DATASET_ETA_DEFAULTS["iris"] == pytest.approx(8e-5)


def test_benchmark_call_surface_resolves():
    # perfbench/run.py --trace 1 wraps every LAYERS function by name; a
    # missing one stops the traced benchmark, so tier-1 checks the names
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert callable(SplitMix64.permutation)  # traced as rng.permutation
    for module, func in tracing.LAYERS:
        if (module, func) == ("rng", "permutation"):
            continue
        target = getattr(importlib.import_module(f"movingpoints.{module}"), func, None)
        assert callable(target), f"movingpoints.{module}.{func} is gone"
