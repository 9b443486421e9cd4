"""MPA training at every n, the linear baselines and the plane builder take
no bits from the BLAS kernel.

Grid models (MPA, the perceptron and the linear SVM) trained in child
processes that force another OpenBLAS core must hash the same as the ones
trained here, and so must n = 3 MPA models, the dim-8 MPA models,
perceptrons and linear SVMs, and the planes hyperplane_from_points builds.
The grid cells
are the first 20, in (seed, std index) order, whose MPA models took other
bits under the Haswell and Prescott cores while the n = 2 loop still used
BLAS dot and matrix-vector products. The n = 3 cells overlap (std 7.0 to
10.0), so training makes about 36,000 moves; their models took other bits
under the Haswell core while the n = 3 loop still worked on arrays. The
dim-8 cells are those of the benchmark's overlap-8d workload; their MPA
models took other bits under the Haswell and Prescott cores while the
n >= 4 loop carried its plane by rank-one updates in BLAS and LAPACK.
`benchmarks/check_kernels.py` runs the full check over all 500 grid cells
and every golden output.
"""

import functools
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from movingpoints import baselines, mpa
from movingpoints.datasets import make_blobs, train_test_split
from movingpoints.geometry import hyperplane_from_points
from movingpoints.rng import SplitMix64, derive_seed

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
from write_bench import openblas_core  # noqa: E402
from check_kernels import (  # noqa: E402
    GOLDEN,
    NP_LOG_VARIANT,
    UNGOLDEN,
    VARIANTS,
    compare,
    exit_status,
)

CELLS = [(0, 3), (0, 9), (1, 0), (1, 5), (1, 9), (3, 6), (3, 8), (4, 2), (5, 2), (6, 0),
         (6, 3), (6, 4), (6, 5), (6, 8), (6, 9), (7, 7), (7, 9), (8, 7), (9, 1), (9, 5)]

# Dataset seeds 0-9 x std indices 60, 75 and 90 of the grid's blobs at dim 3.
CELLS_3D = [(seed, std_index) for seed in range(10) for std_index in (60, 75, 90)]

# Dataset seeds 0-2 x std indices 90-99 of the grid's blobs at dim 8.
CELLS_8D = [(seed, std_index) for seed in range(3) for std_index in range(90, 100)]

# Prints [openblas_core(), grid_model_digest(), plane_digest(), model3_digest(),
# linear8_digest(), model8_digest()] of a fresh interpreter.
CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
         "from test_kernels import grid_model_digest, linear8_digest, model3_digest, "
         "model8_digest, openblas_core, plane_digest; print(json.dumps([openblas_core(), "
         "grid_model_digest(), plane_digest(), model3_digest(), linear8_digest(), "
         "model8_digest()]))")


def cell_split(seed: int, std_index: int, dim: int):
    """(training split, cell seed) of one cell, split as bench.run_synthetic_cell splits it."""
    ds = make_blobs(seed=seed, std=1.0 + 0.1 * std_index, n_per_class=50, dim=dim)
    cell = derive_seed(0, seed, std_index)
    train, _ = train_test_split(ds, 0.2, derive_seed(cell, 0))
    return train, cell


def cell_model(seed: int, std_index: int, dim: int):
    """(training split, cell seed, MPA model) of one cell, trained as
    bench.run_synthetic_cell trains it: default config, the cell's seed slots."""
    train, cell = cell_split(seed, std_index, dim)
    model, _ = mpa.train(train, mpa.MpaConfig(seed=derive_seed(cell, 1)))
    return train, cell, model


def add_linear_models(digest, train, cell: int) -> None:
    """Feeds digest the perceptron's and the linear SVM's weights and bias,
    trained with the parameters of bench and the cell's seed slots 2 and 3."""
    for linear in (
        baselines.perceptron_fit(train, eta=1.0, epochs=50, seed=derive_seed(cell, 2)),
        baselines.linear_svm_fit(train, reg=0.01, epochs=30, seed=derive_seed(cell, 3)),
    ):
        digest.update(linear.weights.tobytes())
        digest.update(struct.pack("<d", linear.bias))


@functools.lru_cache(maxsize=1)
def grid_model_digest() -> str:
    """sha256 over the models trained on CELLS as the grid trains them: per
    cell the MPA model document, then the perceptron's and the linear SVM's
    weights and bias."""
    digest = hashlib.sha256()
    for seed, std_index in CELLS:
        train, cell, model = cell_model(seed, std_index, 2)
        digest.update(mpa.model_document(model).encode("utf-8"))
        add_linear_models(digest, train, cell)
    return digest.hexdigest()


@functools.lru_cache(maxsize=1)
def linear8_digest() -> str:
    """sha256 over the perceptron's and the linear SVM's weights and bias on
    the training splits of CELLS_8D."""
    digest = hashlib.sha256()
    for seed, std_index in CELLS_8D:
        add_linear_models(digest, *cell_split(seed, std_index, 8))
    return digest.hexdigest()


@functools.lru_cache(maxsize=1)
def model3_digest() -> str:
    """sha256 over the MPA model documents of CELLS_3D."""
    digest = hashlib.sha256()
    for seed, std_index in CELLS_3D:
        _, _, model = cell_model(seed, std_index, 3)
        digest.update(mpa.model_document(model).encode("utf-8"))
    return digest.hexdigest()


@functools.lru_cache(maxsize=1)
def model8_digest() -> str:
    """sha256 over the MPA model documents of CELLS_8D."""
    digest = hashlib.sha256()
    for seed, std_index in CELLS_8D:
        _, _, model = cell_model(seed, std_index, 8)
        digest.update(mpa.model_document(model).encode("utf-8"))
    return digest.hexdigest()


def plane_digest() -> str:
    """sha256 over the coefficients of hyperplane_from_points on 20 Gaussian
    point sets (SplitMix64(n).normals) at each n in 3, 4, 8 and 16."""
    digest = hashlib.sha256()
    for n in (3, 4, 8, 16):
        stream = SplitMix64(n)
        for _ in range(20):
            h = hyperplane_from_points(stream.normals(n * n).reshape(n, n))
            digest.update(struct.pack(f"<{h.dim}d", *h.weights))
            digest.update(struct.pack("<d", h.bias))
    return digest.hexdigest()


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_grid_models_do_not_depend_on_openblas_core(core):
    if openblas_core() is None:
        pytest.skip("the OpenBLAS core in use cannot be read here")
    # The forced core is set in the child's environment only; the child
    # imports the movingpoints that this process runs.
    src = str(Path(mpa.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(Path(__file__).parent)],
                          env=env, capture_output=True, text=True, check=True)
    child_core, digest, planes, models3, linear8, models8 = json.loads(
        proc.stdout.strip().splitlines()[-1])
    ran = f"OPENBLAS_CORETYPE={core} ran core {child_core}"
    assert digest == grid_model_digest(), ran
    assert planes == plane_digest(), ran
    assert models3 == model3_digest(), ran
    assert linear8 == linear8_digest(), ran
    assert models8 == model8_digest(), ran


def kernel_results(changed: dict) -> dict:
    """check_kernels results with every output as expected, then `changed`
    (variant name -> {output: digest}) applied."""
    base = {**GOLDEN, **{key: key.replace(" ", "-") for key in UNGOLDEN},
            "openblas_core": "SkylakeX"}
    return {name: {**base, **changed.get(name, {})} for name in VARIANTS}


@pytest.mark.parametrize("changed, status", [
    ({}, 0),
    ({NP_LOG_VARIANT: {"C1 model": "0" * 64}}, 1),
    ({"OPENBLAS_CORETYPE=Haswell": {"grid models": "other"}}, 1),
    ({NP_LOG_VARIANT: {"grid models": "other", "n >= 4 fits": "other"}}, 0),
], ids=["all-same", "golden-differs-avx512-off", "ungolden-differs-haswell",
        "ungolden-differs-avx512-off-only"])
def test_check_kernels_exit_status(changed, status):
    assert exit_status(kernel_results(changed)) == status


def test_check_kernels_does_not_compare_np_log_digests():
    results = kernel_results({NP_LOG_VARIANT: {"grid models": "other"}})
    lines = [line for line, _ in compare(NP_LOG_VARIANT, results[NP_LOG_VARIANT],
                                         results["unchanged"])]
    assert [line.endswith("not compared (np.log)") for line in lines] == [
        key in UNGOLDEN for key in (*GOLDEN, *UNGOLDEN)]
