"""Layer micro-benchmarks (pytest-benchmark); not part of the test suite.

Run with ``python -m pytest benchmarks/bench_layers.py``. The file name
does not match ``test_*.py``, so a plain ``pytest`` run never collects it.
Most cases rebuild the split of one `bench synthetic` cell exactly as
``bench.run_synthetic_cell`` does. The training cases time ``mpa.train``
on it and check that moves plus skips add up to the misclassified visits
and that the points stay finite; the baseline cases time one classifier
with the cell's parameters and seed slot. One more training case times
the n = 3 MPA fit of rep 0 of the Iris ``bench dataset`` protocol. The
plane cases time ``hyperplane_from_points`` on Gaussian points and one
rank-one update of the plane that ``mpa.fit`` carries between fresh
builds (n >= 4). The cell cases time one whole grid cell and the fixed
cost around its training loops: ``derive_seed`` and MPA's
``near_clusters`` and ``initialize`` on the cell's split.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from movingpoints import baselines, bench, mpa
from movingpoints.datasets import (
    load_csv,
    make_blobs,
    pca_apply,
    pca_fit,
    standardize_apply,
    standardize_fit,
    train_test_split,
)
from movingpoints.geometry import hyperplane_from_points
from movingpoints.rng import SplitMix64, derive_seed


def cell_split(seed: int, std_index: int, dim: int):
    """(train, test, cell seed) of one synthetic cell at master seed 0."""
    ds = make_blobs(seed=seed, std=1.0 + 0.1 * std_index, n_per_class=50, dim=dim)
    cell = derive_seed(0, seed, std_index)
    train_ds, test_ds = train_test_split(ds, 0.2, derive_seed(cell, 0))
    return train_ds, test_ds, cell


def cell_config(cell: int) -> mpa.MpaConfig:
    """The MPA config of a cell: the defaults with the cell's seed slot."""
    return mpa.MpaConfig(seed=derive_seed(cell, 1))


def test_permutation_80(benchmark):
    perm = benchmark(lambda: SplitMix64(12345).permutation(80))
    assert sorted(perm) == list(range(80))


# A warm stream, whose words mostly come from the buffer already mixed:
# what each epoch of mpa.fit, the SVM and the perceptron pays.
def test_permutation_80_warm(benchmark):
    stream = SplitMix64(12345)
    perm = benchmark(stream.permutation, 80)
    assert sorted(perm) == list(range(80))


# Grid cell (0, 9) separates at initialization (0 moves: set-up plus one
# clean epoch); grid cell (2, 9) makes 5400 moves, so it times the per-move
# path at n = 2; overlap cell (0, 90) rebuilds an 8-point plane per move.
@pytest.mark.parametrize("seed, std_index, dim", [(0, 9, 2), (2, 9, 2), (0, 90, 8)],
                         ids=["grid-0-9-dim2", "grid-2-9-dim2", "overlap-0-90-dim8"])
def test_train_cell(benchmark, seed, std_index, dim):
    train_ds, _, cell = cell_split(seed, std_index, dim)
    model, log = benchmark(mpa.train, train_ds, cell_config(cell))
    benchmark.extra_info["moves"] = log.moves
    assert log.moves + sum(log.skips.values()) == sum(log.misclassified)
    assert np.all(np.isfinite(model.moving_points))


# The fixed cost around a grid cell's training loops: the whole cell as the
# grid-2d workload runs it, the cell seed, and MPA's set-up on its split.
def test_run_synthetic_cell_grid_2_9(benchmark):
    records = benchmark(bench.run_synthetic_cell, 2, 9)
    assert len(records) == 4 and all(r.error is None for r in records)


def test_derive_seed_cell(benchmark):
    assert benchmark(derive_seed, 0, 2, 9) == derive_seed(0, 2, 9)


def test_near_clusters_grid_2_9(benchmark):
    train_ds, _, _ = cell_split(2, 9, 2)
    clusters = benchmark(mpa.near_clusters, train_ds, mpa.MpaConfig().near_cluster_percentile)
    assert all(clusters[label].members.size > 0 for label in (0, 1))


def test_initialize_grid_2_9(benchmark):
    train_ds, _, cell = cell_split(2, 9, 2)
    model = benchmark(mpa.initialize, train_ds.class_points(0), train_ds.class_points(1),
                      cell_config(cell))
    assert model.dim == 2


# Rep 0 of `mpa bench dataset` on Iris, virginica vs versicolor, --eta 0.0005,
# as bench.run_dataset_protocol builds it: split, standardize, PCA to k = 3,
# then the MPA fit with the rep's seed slot. It times the n = 3 loop.
def test_train_iris_dataset_rep0(benchmark):
    iris = load_csv(Path(__file__).resolve().parents[1] / "tests" / "data" / "iris.csv",
                    label_column="Species", positive_label="Iris-virginica",
                    negative_label="Iris-versicolor")
    rep = derive_seed(0, 0)
    train_raw, _ = train_test_split(iris, 0.2, derive_seed(rep, 0))
    train_std = standardize_apply(standardize_fit(train_raw), train_raw)
    train_ds = pca_apply(pca_fit(train_std, 3), train_std)
    cfg = mpa.MpaConfig(eta=0.0005, seed=derive_seed(rep, 1))
    model, log = benchmark(mpa.train, train_ds, cfg)
    benchmark.extra_info["moves"] = log.moves
    assert model.dim == 3 and log.moves > 0
    assert log.moves + sum(log.skips.values()) == sum(log.misclassified)


# The baselines with the parameters of bench.CLASSIFIERS: the SVM's 30
# epochs of 80 steps and the perceptron's shuffled sweeps. On grid cell
# (2, 9) they run the unrolled n = 2 loops on Python floats; on overlap
# cell (0, 90) the generic loops, also on Python floats. KNN (k = 3)
# searches a cell's 80 training rows for its 100 rows.
def svm_case(benchmark, seed, std_index, dim):
    train_ds, _, cell = cell_split(seed, std_index, dim)
    model = benchmark(baselines.linear_svm_fit, train_ds, reg=0.01, epochs=30,
                      seed=derive_seed(cell, 3))
    assert np.all(np.isfinite(model.weights))


def perceptron_case(benchmark, seed, std_index, dim):
    train_ds, _, cell = cell_split(seed, std_index, dim)
    model = benchmark(baselines.perceptron_fit, train_ds, eta=1.0, epochs=50,
                      seed=derive_seed(cell, 2))
    assert np.all(np.isfinite(model.weights))


def test_linear_svm_fit_grid_2_9(benchmark):
    svm_case(benchmark, 2, 9, 2)


def test_linear_svm_fit_overlap_0_90_dim8(benchmark):
    svm_case(benchmark, 0, 90, 8)


def test_perceptron_fit_grid_2_9(benchmark):
    perceptron_case(benchmark, 2, 9, 2)


def test_perceptron_fit_overlap_0_90_dim8(benchmark):
    perceptron_case(benchmark, 0, 90, 8)


def knn_case(benchmark, seed, std_index, dim):
    train_ds, test_ds, _ = cell_split(seed, std_index, dim)
    model = baselines.knn_fit(train_ds, k=3)
    X = np.vstack([train_ds.features, test_ds.features])
    preds = benchmark(baselines.knn_predict_many, model, X)
    assert preds.shape == (100,) and set(preds.tolist()) <= {0, 1}


def test_knn_predict_many_grid_2_9(benchmark):
    knn_case(benchmark, 2, 9, 2)


def test_knn_predict_many_overlap_0_90_dim8(benchmark):
    knn_case(benchmark, 0, 90, 8)


@pytest.mark.parametrize("n", [3, 8, 16, 32])
def test_hyperplane_from_points(benchmark, n):
    points = SplitMix64(n).normals(n * n).reshape(n, n)
    h = benchmark(hyperplane_from_points, points)
    assert np.all(np.isfinite(h.weights))


def test_tracked_update_n8(benchmark):
    # One accepted rank-one update at n = 8: each round moves one point a
    # small step and resets the update count, so no round is a fresh build.
    stream = SplitMix64(8)
    P = stream.normals(64).reshape(8, 8)
    boundary = mpa._Boundary(P)
    steps = 0.01 * stream.normals(8 * 64).reshape(64, 8)
    rounds = iter(range(10**9))

    def setup():
        k = next(rounds)
        i = k % 8
        old = P[i].copy()
        P[i] += steps[k % 64]
        boundary.updates = 0
        return (i, old), {}

    benchmark.pedantic(boundary.moved, setup=setup, rounds=2000)
    assert boundary.updates == 1


def test_epoch_overlap_0_90_dim8(benchmark):
    # One epoch of overlap cell (0, 90) from its initial points.
    train_ds, _, cell = cell_split(0, 90, 8)
    cfg = replace(cell_config(cell), epochs=1)
    model, log = benchmark(mpa.train, train_ds, cfg)
    benchmark.extra_info["moves"] = log.moves
    assert log.epochs_run == 1 and log.moves > 0


def test_predict_many_overlap_0_90_dim8(benchmark):
    train_ds, test_ds, cell = cell_split(0, 90, 8)
    model, _ = mpa.train(train_ds, cell_config(cell))
    X = np.vstack([train_ds.features, test_ds.features])
    preds = benchmark(mpa.predict_many, model, X)
    assert preds.shape == (100,) and set(preds.tolist()) <= {0, 1}
