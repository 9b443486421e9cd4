"""Layer micro-benchmarks (pytest-benchmark); not part of the test suite.

Run with ``python -m pytest benchmarks/bench_layers.py``. The file name
does not match ``test_*.py``, so a plain ``pytest`` run never collects it.
A run times the checkout it runs from: pyproject.toml puts its ``src``
ahead of PYTHONPATH, so when PYTHONPATH names another ``movingpoints``,
collection stops with a message that names both.
The generator cases time ``SplitMix64.permutation(80)`` on a fresh and
a warm stream and on a warm slice that holds a word >= 2^64 - 2^32 (the
rare exact path), ``permutations(80, 30)`` (the SVM's per-fit draw) on a
warm stream and on fresh streams whose first block holds 2^64 - 1, and
``randint(40)`` on a warm stream. Most cases rebuild the split of one `bench synthetic` cell exactly as
``bench.run_synthetic_cell`` does. The training cases time ``mpa.train``
on it and check that moves plus skips add up to the misclassified visits
and that the points stay finite; the baseline cases time one classifier
with the cell's parameters and seed slot. One more training case times
the n = 3 MPA fit of rep 0 of the Iris ``bench dataset`` protocol. One
KNN case puts its rows on an integer grid, so that most rows tie at the
k-th distance. The
plane cases time ``hyperplane_from_points`` on Gaussian points and, 64
to a round, the planes that ``mpa.fit`` re-reads after one move, through
the builder of ``geometry._plane_builder(n)``, at n = 2, 3, 4, 8, 16 and
32. The epoch
cases time one epoch of ``mpa.train`` at dims 8 and 16. Two more
training cases time a dim-8 train whose alpha makes the guard's
pre-check run on nearly every move, its worst case. The guard
cases time ``mpa.overfit_guard`` at n = 2, 3 and 8 on a step that it
projects, so they put the per-n cost of the one shared guard on record.
The cell cases time one whole grid cell and the fixed cost around its
training loops: ``derive_seed`` and MPA's ``near_clusters`` and
``initialize`` on the cell's split. The start-up cases time fresh
processes, as a user starts them: ``python -c pass``; ``import
movingpoints`` and its CLI, as the set-up child of perfbench's iris-cli
workload does; and ``mpa fit``, ``mpa predict`` and ``mpa bench dataset``
with the Iris flags of that workload, run through the entry point of the
installed ``mpa`` script on this checkout's package; predict reads a model
that fit wrote once, untimed.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import movingpoints
from movingpoints import baselines, bench, mpa
from movingpoints.datasets import (
    Dataset,
    load_csv,
    make_blobs,
    pca_apply,
    pca_fit,
    standardize_apply,
    standardize_fit,
    train_test_split,
)
from movingpoints.geometry import _plane_builder, hyperplane_from_points
from movingpoints.rng import _GAMMA, _MASK, _MIX1, _MIX2, SplitMix64, derive_seed


def named_package() -> Path | None:
    """The movingpoints package of the first PYTHONPATH entry that holds one."""
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        package = Path(entry) / "movingpoints"
        if (package / "__init__.py").is_file():
            return package.resolve()
    return None


NAMED, TIMED = named_package(), Path(movingpoints.__file__).resolve().parent
if NAMED not in (None, TIMED):
    pytest.exit(f"PYTHONPATH names {NAMED}, but this run would time {TIMED}; "
                "run bench_layers.py from the checkout to be timed")


IRIS = Path(__file__).resolve().parents[1] / "tests" / "data" / "iris.csv"
# The entry point of the installed `mpa` script, and the C1 Iris fit.
CLI_ENTRY = "import sys; from movingpoints.cli import main; sys.exit(main())"
FIT_ARGV = ["fit", "--input", str(IRIS), "--label-col", "Species",
            "--positive-label", "Iris-setosa", "--negative-label", "Iris-versicolor",
            "--features", "SepalLengthCm,SepalWidthCm", "--eta", "0.5", "--epochs", "200",
            "--seed", "0"]
BENCH_DATASET_ARGV = ["bench", "dataset", "--input", str(IRIS), "--label-col", "Species",
                      "--positive-label", "Iris-virginica", "--negative-label",
                      "Iris-versicolor", "--reps", "5", "--eta", "0.0005"]
START_ROUNDS = 15  # fresh processes per start-up case


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


def unmix(z: int) -> int:
    """The seed whose first SplitMix64 word is z: the output mix inverted."""
    def unxorshift(x, shift):
        y = x
        for _ in range(64 // shift + 1):
            y = x ^ (y >> shift)
        return y

    z = (unxorshift(z, 31) * pow(_MIX2, -1, 1 << 64)) & _MASK
    z = (unxorshift(z, 27) * pow(_MIX1, -1, 1 << 64)) & _MASK
    return (unxorshift(z, 30) - _GAMMA) & _MASK


# Word k of permutation(80)'s slice is 2^64 - 1, so the slice is drawn by
# randint, whose exact test takes word k and every later word of the buffer.
# Word 4 is the early case of tests/test_rng.py, word 78 the last of the
# slice. The stream rewinds to the slice each call.
@pytest.mark.parametrize("k", [4, 78], ids=["word4", "word78"])
def test_permutation_80_exact_path(benchmark, k):
    stream = SplitMix64((unmix(_MASK) - k * _GAMMA) & _MASK)
    first = stream.permutation(80)

    def draw():
        stream._pos = 0
        return stream.permutation(80)

    assert benchmark(draw) == first
    assert stream._safe_end == k


# The SVM's per-fit draw: 30 epoch orders of its 80 training rows, taken in
# blocks of 12 orders (948 words), on a warm stream.
def test_permutations_80x30_warm(benchmark):
    stream = SplitMix64(12345)
    orders = benchmark(stream.permutations, 80, 30)
    assert len(orders) == 30 and all(sorted(order) == list(range(80)) for order in orders)


# Its exact-path twin: word 4 of the first block is 2^64 - 1, so that block
# is given back and drawn by randint word by word. Each round starts a
# fresh stream (untimed), so the round pays the block's refills, as a fit's
# fresh stream does.
def test_permutations_80x30_exact_path(benchmark):
    seed = (unmix(_MASK) - 4 * _GAMMA) & _MASK
    first = SplitMix64(seed).permutations(80, 30)
    orders = benchmark.pedantic(lambda stream: stream.permutations(80, 30),
                                setup=lambda: ((SplitMix64(seed),), {}), rounds=2000)
    assert orders == first


# One near-cluster draw of an MPA move, on a warm stream.
def test_randint_40_warm(benchmark):
    stream = SplitMix64(12345)
    assert 0 <= benchmark(stream.randint, 40) < 40


# The guard's pre-check at its busiest: overlap cell (0, 90) at dim 8, with
# alpha 1 or 2 times the least gap between the initial moving points. At 1x
# the pre-check runs on 142 of the 150 moves and finds no point within
# alpha on 61, each of which refreshes the mover's gap floor, so the floor
# saves almost nothing and costs its upkeep; at 2x every move runs _guard.
@pytest.mark.parametrize("factor", [1.0, 2.0], ids=["alpha-1x-gap", "alpha-2x-gap"])
def test_train_overlap_0_90_dim8_guard_heavy(benchmark, factor):
    train_ds, _, cell = cell_split(0, 90, 8)
    cfg = cell_config(cell)
    pts = mpa.initialize(train_ds.class_points(0), train_ds.class_points(1), cfg).moving_points
    cfg = replace(cfg, alpha=factor * mpa._least_gap(pts))
    model, log = benchmark(mpa.train, train_ds, cfg)
    benchmark.extra_info["moves"] = log.moves
    assert log.moves + sum(log.skips.values()) == sum(log.misclassified)


# Grid cell (0, 9) separates at initialization (0 moves: set-up plus one
# clean epoch); grid cell (2, 9) makes 5400 moves, so it times the per-move
# path at n = 2; overlap cell (0, 90) carries an 8-point plane from move to move.
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
    assert all(clusters[label].size > 0 for label in (0, 1))


def test_initialize_grid_2_9(benchmark):
    train_ds, _, cell = cell_split(2, 9, 2)
    model = benchmark(mpa.initialize, train_ds.class_points(0), train_ds.class_points(1),
                      cell_config(cell))
    assert model.dim == 2


# Rep 0 of `mpa bench dataset` on Iris, virginica vs versicolor, --eta 0.0005,
# as bench.run_dataset_protocol builds it: split, standardize, PCA to k = 3,
# then the MPA fit with the rep's seed slot. It times the n = 3 loop.
def test_train_iris_dataset_rep0(benchmark):
    iris = load_csv(IRIS, label_column="Species", positive_label="Iris-virginica",
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
# epochs of 80 steps and the perceptron's shuffled sweeps, each in the loop
# on Python floats generated for the cell's n. Grid cell (2, 9) runs them at
# n = 2; overlap cell (0, 90)'s blobs run them at n = 3, 8 and 16. KNN
# (k = 3) searches a cell's 80 training rows for its 100 rows.
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


def test_linear_svm_fit_overlap_0_90_dim3(benchmark):
    svm_case(benchmark, 0, 90, 3)


def test_linear_svm_fit_overlap_0_90_dim16(benchmark):
    svm_case(benchmark, 0, 90, 16)


def test_perceptron_fit_grid_2_9(benchmark):
    perceptron_case(benchmark, 2, 9, 2)


def test_perceptron_fit_overlap_0_90_dim8(benchmark):
    perceptron_case(benchmark, 0, 90, 8)


def test_perceptron_fit_overlap_0_90_dim3(benchmark):
    perceptron_case(benchmark, 0, 90, 3)


def test_perceptron_fit_overlap_0_90_dim16(benchmark):
    perceptron_case(benchmark, 0, 90, 16)


def knn_case(benchmark, seed, std_index, dim):
    train_ds, test_ds, _ = cell_split(seed, std_index, dim)
    model = baselines.knn_fit(train_ds, k=3)
    X = np.vstack([train_ds.features, test_ds.features])
    preds = benchmark(baselines.knn_predict_many, model, X)
    assert len(preds) == 100 and set(preds) <= {0, 1}


def test_knn_predict_many_grid_2_9(benchmark):
    knn_case(benchmark, 2, 9, 2)


def test_knn_predict_many_overlap_0_90_dim8(benchmark):
    knn_case(benchmark, 0, 90, 8)


# Ties at the k-th distance in 82 of the 100 rows: 80 training points and
# the rows on a small integer grid, so the k nearest are cut from the tied
# points by index, KNN's slow branch.
def test_knn_predict_many_integer_grid_ties(benchmark):
    stream = SplitMix64(3)
    points = np.array([[stream.randint(5), stream.randint(5)] for _ in range(80)], dtype=float)
    labels = np.array([stream.randint(2) for _ in range(80)])
    labels[:2] = (0, 1)
    X = np.array([[stream.randint(7) - 1, stream.randint(7) - 1] for _ in range(100)], dtype=float)
    model = baselines.knn_fit(Dataset(points, labels), k=3)
    preds = benchmark(baselines.knn_predict_many, model, X)
    assert len(preds) == 100 and set(preds) <= {0, 1}


@pytest.mark.parametrize("n", [3, 8, 16, 32])
def test_hyperplane_from_points(benchmark, n):
    points = SplitMix64(n).normals(n * n).reshape(n, n)
    h = benchmark(hyperplane_from_points, points)
    assert np.all(np.isfinite(h.weights))


# The mover, point 0, has its nearest neighbour within alpha and steps
# toward it, so every call projects.
@pytest.mark.parametrize("n", [2, 3, 8])
def test_overfit_guard(benchmark, n):
    P = SplitMix64(n).normals(n * n).reshape(n, n)
    gaps = np.linalg.norm(P[1:] - P[0], axis=1)
    model = mpa.MpaModel(P, {0: -1, 1: 1}, alpha=1.5 * gaps.min(), config=mpa.MpaConfig())
    t = 0.1 * (P[1 + gaps.argmin()] - P[0]) + 0.01 * SplitMix64(n + 1).normals(n)
    out = benchmark(mpa.overfit_guard, model, 0, t)
    assert out is not t and np.all(np.isfinite(out))


# The planes of 64 one-move point lists, as fit's loop re-reads them:
# move k carries point k % n a small step, and the lists are made once,
# untimed. Each round builds all 64 planes with the builder of
# _plane_builder(n): the line at n = 2, the cross product at n = 3 and the
# elimination above. A round's time is 64 builds, so that a per-round
# setup does not weigh on the cheap builders of n = 2 to 4; divide by 64
# for one build. n = 16 and 32 put on record the per-move cost that no
# workload runs; n = 32 is past the unrolled elimination and takes the
# numpy one.
@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 32], ids=lambda n: f"n{n}")
def test_plane_builder(benchmark, n):
    stream = SplitMix64(n)
    pts = stream.normals(n * n).reshape(n, n).tolist()
    steps = (0.01 * stream.normals(n * 64).reshape(64, n)).tolist()
    trials = []
    for k, step in enumerate(steps):
        trial = pts[:]
        trial[k % n] = [p + d for p, d in zip(pts[k % n], step)]
        trials.append(trial)
    build = _plane_builder(n)

    def all_moves():
        return [build(*trial) for trial in trials]

    planes = benchmark(all_moves)
    assert all(len(plane) == n + 2 for plane in planes) and np.all(np.isfinite(planes))


# One epoch from a cell's initial points: overlap cell (0, 90) at dim 8,
# and cell (2, 99), the first dim-16 cell with a misclassified example at
# its initial plane, where the generated loop's O(n^2) nearest-point
# search and lambda sums weigh most.
def epoch_case(benchmark, seed, std_index, dim):
    train_ds, _, cell = cell_split(seed, std_index, dim)
    cfg = replace(cell_config(cell), epochs=1)
    model, log = benchmark(mpa.train, train_ds, cfg)
    benchmark.extra_info["moves"] = log.moves
    assert log.epochs_run == 1 and log.moves > 0


def test_epoch_overlap_0_90_dim8(benchmark):
    epoch_case(benchmark, 0, 90, 8)


def test_epoch_cell_2_99_dim16(benchmark):
    epoch_case(benchmark, 2, 99, 16)


def test_predict_many_overlap_0_90_dim8(benchmark):
    train_ds, test_ds, cell = cell_split(0, 90, 8)
    model, _ = mpa.train(train_ds, cell_config(cell))
    X = np.vstack([train_ds.features, test_ds.features])
    preds = benchmark(mpa.predict_many, model, X)
    assert len(preds) == 100 and set(preds) <= {0, 1}


# Fresh processes, each timed from its start to its exit: the interpreter
# alone, the import of the package and its CLI, then the three Iris
# commands of the iris-cli workload. Each command writes into a temporary
# directory; predict's model comes from one untimed fit there.
def run_process(*args: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(TIMED.parent)}
    subprocess.run([sys.executable, *args], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def test_start_python_pass(benchmark):
    benchmark.pedantic(run_process, args=("-c", "pass"), rounds=START_ROUNDS)


def test_start_import_cli(benchmark):
    code = "import movingpoints; from movingpoints import cli"
    benchmark.pedantic(run_process, args=("-c", code), rounds=START_ROUNDS)


def test_start_mpa_fit_iris(benchmark, tmp_path):
    argv = [*FIT_ARGV, "--output", str(tmp_path / "model.json")]
    benchmark.pedantic(run_process, args=("-c", CLI_ENTRY, *argv), rounds=START_ROUNDS)
    assert (tmp_path / "model.json").is_file()


def test_start_mpa_predict_iris(benchmark, tmp_path):
    model = tmp_path / "model.json"
    run_process("-c", CLI_ENTRY, *FIT_ARGV, "--output", str(model))
    argv = ["predict", "--model", str(model), "--input", str(IRIS),
            "--output", str(tmp_path / "pred.csv")]
    benchmark.pedantic(run_process, args=("-c", CLI_ENTRY, *argv), rounds=START_ROUNDS)
    assert (tmp_path / "pred.csv").is_file()


def test_start_mpa_bench_dataset_iris(benchmark, tmp_path):
    argv = [*BENCH_DATASET_ARGV, "--output", str(tmp_path / "report.csv")]
    benchmark.pedantic(run_process, args=("-c", CLI_ENTRY, *argv), rounds=START_ROUNDS)
    assert (tmp_path / "report.csv").is_file()
