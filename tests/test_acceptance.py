"""The acceptance gate: one test per criterion, reported as a summary block.

Each test narrates its criterion in the marker title. Protocol datasets that
ship with the repo run for real; Pima and Penguins are user-supplied files
and their checks skip (with the expected path and columns named) when the
files are absent.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from movingpoints import bench, mpa
from movingpoints.bench import run_dataset_protocol, run_synthetic_suite
from movingpoints.cli import main
from movingpoints.datasets import load_csv, make_blobs
from movingpoints.geometry import (
    DegeneratePointsError,
    Hyperplane,
    coordinate_scale,
    hyperplane_from_points,
    line_from_points,
    region_sign,
    signed_displacement,
)
from movingpoints.mpa import MpaConfig, MpaModel, overfit_guard, train, training_accuracy
from movingpoints.rng import SplitMix64

DATA_DIR = Path(__file__).parent / "data"

PIMA_COLUMNS = ("Pregnancies, Glucose, BloodPressure, SkinThickness, Insulin, "
                "BMI, DiabetesPedigreeFunction, Age, Outcome (labels 1/0)")
PENGUIN_COLUMNS = ("species plus the four numeric columns bill_length_mm, "
                   "bill_depth_mm, flipper_length_mm, body_mass_g")

# sha256 of the C1 model document and of the C2 and C3-iris report texts,
# byte for byte the files the matching CLI commands write (ROADMAP goldens).
GOLDEN_C1_MODEL = "b0008f890c6d8fd175c1056da493c73547e859027981ef34c5ff73cf03cd40dd"
GOLDEN_C2_REPORT = "b3bad4861458a960888e803e52f53804766ed8fb1df8b712f6ac4a0f2eb6475e"
GOLDEN_C3_IRIS_REPORT = "9947684ad4673621f1bb978a524f7b141cd8335f3a20c5a821dd0222ecc85853"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.acceptance("C1", "iris pair trains to exactly 1.0 within 200 epochs")
def test_c1_iris_separability(iris_easy):
    t0 = time.perf_counter()
    model, log = train(iris_easy, MpaConfig(eta=0.5, epochs=200, seed=0))
    elapsed = time.perf_counter() - t0
    assert training_accuracy(model, iris_easy) == 1.0
    assert log.epochs_run <= 200
    assert elapsed < 5.0
    assert sha256(mpa.model_document(model)) == GOLDEN_C1_MODEL


@pytest.mark.acceptance("C2", "synthetic suite mean inside window with expected ordering")
def test_c2_synthetic_suite():
    t0 = time.perf_counter()
    report = run_synthetic_suite(n_seeds=50, n_stds=10, master_seed=0)
    elapsed = time.perf_counter() - t0
    aggs = {a.classifier: a for a in report.aggregates()}
    assert report.failure_count == 0
    assert 0.956 <= aggs["mpa"].mean_test <= 0.996
    assert aggs["mpa"].gap < aggs["knn"].gap
    assert aggs["mpa"].mean_test > aggs["perceptron"].mean_test
    assert elapsed < 600.0
    assert sha256(bench.report_text(report)) == GOLDEN_C2_REPORT


@pytest.mark.acceptance("C3-pima", "pima protocol means near reported values")
def test_c3_pima_protocol():
    path = DATA_DIR / "pima.csv"
    if not path.exists():
        pytest.skip(
            f"user-supplied dataset not present: put the diabetes CSV at "
            f"{path} with columns {PIMA_COLUMNS}"
        )
    ds = load_csv(path, "Outcome", "1")
    report = run_dataset_protocol(
        ds, repetitions=5, master_seed=0,
        mpa_cfg=MpaConfig(eta=bench.DATASET_ETA_DEFAULTS["pima"]))
    aggs = {a.classifier: a for a in report.aggregates()}
    assert abs(aggs["mpa"].mean_test - 0.7208) <= 0.05
    assert abs(aggs["svm"].mean_test - 0.7337) <= 0.05


@pytest.mark.acceptance("C3-penguins", "penguins protocol mean near reported value")
def test_c3_penguins_protocol():
    path = DATA_DIR / "penguins.csv"
    if not path.exists():
        pytest.skip(
            f"user-supplied dataset not present: put the penguins CSV at "
            f"{path} with {PENGUIN_COLUMNS}"
        )
    ds = load_csv(path, "species", "Gentoo",
                  feature_columns=["bill_length_mm", "bill_depth_mm",
                                   "flipper_length_mm", "body_mass_g"],
                  negative_label="Adelie")
    report = run_dataset_protocol(
        ds, repetitions=5, master_seed=0,
        mpa_cfg=MpaConfig(eta=bench.DATASET_ETA_DEFAULTS["penguins"]))
    aggs = {a.classifier: a for a in report.aggregates()}
    assert abs(aggs["mpa"].mean_test - 0.9408) <= 0.05


@pytest.mark.acceptance("C3-iris", "iris versicolor/virginica protocol mean near reported value")
def test_c3_iris_pair_protocol(iris_hard):
    report = run_dataset_protocol(iris_hard, repetitions=5, master_seed=0,
                                  mpa_cfg=MpaConfig(eta=5e-4))
    aggs = {a.classifier: a for a in report.aggregates()}
    assert abs(aggs["mpa"].mean_test - 0.905) <= 0.05
    assert sha256(bench.report_text(report)) == GOLDEN_C3_IRIS_REPORT


@pytest.mark.acceptance("C4", "hyperplanes pass through their defining points")
def test_c4_hyperplane_correctness():
    stream = SplitMix64(400)
    built = 0
    per_dim = 200
    for n in (2, 3, 4, 5, 6):
        for _ in range(per_dim):
            pts = 10.0 * stream.normals(n * n).reshape(n, n)
            try:
                h = hyperplane_from_points(pts)
            except DegeneratePointsError:
                continue
            built += 1
            scale = coordinate_scale(pts)
            for p in pts:
                assert abs(signed_displacement(h, p)) <= 1e-9 * scale
    assert built >= 995  # gaussian draws are almost never degenerate

    # the 2-D determinant route must agree with the closed form up to scalar
    for _ in range(200):
        e, f = stream.normals(4).reshape(2, 2)
        ca = np.append(*(lambda h: (h.weights, h.bias))(
            hyperplane_from_points([e, f])))
        cb = np.append(*(lambda h: (h.weights, h.bias))(line_from_points(e, f)))
        bound = 1e-9 * (1.0 + np.abs(ca).max() * np.abs(cb).max())
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(ca[i] * cb[j] - ca[j] * cb[i]) <= bound


@pytest.mark.acceptance("C5", "region signs partition sampled space")
def test_c5_trichotomy():
    stream = SplitMix64(500)
    for _ in range(100):
        dim = 2 + int(stream.uniforms(1)[0] * 4)
        h = Hyperplane(stream.normals(dim), float(stream.normals(1)[0]))
        pts = 3.0 * stream.normals(1000 * dim).reshape(1000, dim)
        signs = np.array([region_sign(h, p) for p in pts])
        # every point lands in exactly one of the three buckets
        neg = signs == -1
        on = signs == 0
        pos = signs == 1
        assert np.all(neg | on | pos)
        assert not np.any((neg & on) | (neg & pos) | (on & pos))


@pytest.mark.acceptance("C6", "guard removes approach components, passes receding moves untouched")
def test_c6_overfit_guard():
    stream = SplitMix64(600)
    activations = 0
    while activations < 1000:
        pts = stream.normals(9).reshape(3, 3)
        try:
            model = MpaModel(pts, {0: -1, 1: 1}, alpha=10.0, config=MpaConfig())
        except DegeneratePointsError:
            continue
        t_in = stream.normals(3)
        directions = []
        for other in (1, 2):
            r = pts[other] - pts[0]
            nr = np.linalg.norm(r)
            if nr > 1e-9:
                directions.append(r / nr)
        if not any(float(t_in @ r) > 0 for r in directions):
            continue  # need a genuine activation
        activations += 1
        t_out = overfit_guard(model, 0, t_in)
        for r in directions:
            assert float(t_out @ r) <= 1e-12

    # receding proposals must come back bit-for-bit untouched
    passed_through = 0
    while passed_through < 200:
        pts = stream.normals(9).reshape(3, 3)
        try:
            model = MpaModel(pts, {0: -1, 1: 1}, alpha=10.0, config=MpaConfig())
        except DegeneratePointsError:
            continue
        t_in = stream.normals(3)
        recedes = True
        for other in (1, 2):
            r = pts[other] - pts[0]
            nr = np.linalg.norm(r)
            if nr > 1e-9 and float(t_in @ (r / nr)) > 0:
                recedes = False
        if not recedes:
            continue
        passed_through += 1
        t_out = overfit_guard(model, 0, t_in)
        assert t_out is t_in
        assert t_out.tobytes() == t_in.tobytes()


@pytest.mark.acceptance("C7", "well-separated blobs reach perfect training accuracy")
def test_c7_separable_convergence():
    std = 1.0
    chosen = []
    seed = 0
    while len(chosen) < 100:
        ds = make_blobs(seed=seed, std=std)
        mu0 = ds.features[ds.labels == 0].mean(axis=0)
        mu1 = ds.features[ds.labels == 1].mean(axis=0)
        if np.linalg.norm(mu1 - mu0) >= 10.0 * std:
            chosen.append((seed, ds))
        seed += 1
    wins = 0
    for s, ds in chosen:
        model, _ = train(ds, MpaConfig(eta=0.5, epochs=200, seed=s))
        if training_accuracy(model, ds) == 1.0:
            wins += 1
    assert wins >= 95


@pytest.mark.acceptance("C8", "same seed means byte-identical models and reports")
def test_c8_determinism(iris_path, tmp_path):
    fit_argv = ["fit", "--input", str(iris_path),
                "--label-col", "Species", "--positive-label", "Iris-setosa",
                "--negative-label", "Iris-versicolor",
                "--features", "SepalLengthCm,SepalWidthCm",
                "--eta", "0.5", "--epochs", "200", "--seed", "0"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(fit_argv + ["--output", str(a)]) == 0
    assert main(fit_argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json.log").read_bytes() == \
        (tmp_path / "b.json.log").read_bytes()

    synth = ["bench", "synthetic", "--seeds", "2", "--stds", "2",
             "--n-per-class", "25", "--seed", "11"]
    sa, sb = tmp_path / "sa.csv", tmp_path / "sb.csv"
    assert main(synth + ["--output", str(sa)]) == 0
    assert main(synth + ["--output", str(sb)]) == 0
    assert sa.read_bytes() == sb.read_bytes()

    dsb = ["bench", "dataset", "--input", str(iris_path),
           "--label-col", "Species", "--positive-label", "Iris-virginica",
           "--negative-label", "Iris-versicolor",
           "--reps", "3", "--seed", "7", "--eta", "0.0005"]
    da, db = tmp_path / "da.csv", tmp_path / "db.csv"
    assert main(dsb + ["--output", str(da)]) == 0
    assert main(dsb + ["--output", str(db)]) == 0
    assert da.read_bytes() == db.read_bytes()


@pytest.mark.acceptance("C9", "displacement matches the projection oracle")
def test_c9_oracle_equivalence():
    stream = SplitMix64(900)
    checked = 0
    while checked < 10000:
        dim = 2 + int(stream.uniforms(1)[0] * 5)
        w = stream.normals(dim)
        if np.linalg.norm(w) <= 1e-9:
            continue
        b = float(stream.normals(1)[0])
        x = 5.0 * stream.normals(dim)
        h = Hyperplane(w, b)
        raw = float(w @ x + b)
        foot = x - (raw / float(w @ w)) * w
        oracle = np.sign(raw) * float(np.linalg.norm(x - foot))
        got = signed_displacement(h, x)
        assert abs(got - oracle) <= 1e-9 * max(1.0, abs(oracle))
        checked += 1
