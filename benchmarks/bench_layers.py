"""Layer micro-benchmarks (pytest-benchmark); not part of the test suite.

Run with ``python -m pytest benchmarks/bench_layers.py``. The file name
does not match ``test_*.py``, so a plain ``pytest`` run never collects it.
Each training case rebuilds the training split of one `bench synthetic`
cell exactly as ``bench.run_synthetic_cell`` does and times ``mpa.train``
on it; each case also checks that moves plus skips add up to the
misclassified visits and that the points stay finite.
"""

import numpy as np
import pytest

from movingpoints import mpa
from movingpoints.datasets import make_blobs, train_test_split
from movingpoints.rng import SplitMix64, derive_seed


def cell_training_set(seed: int, std_index: int, dim: int):
    """Training split and MPA config of one synthetic cell at master seed 0."""
    ds = make_blobs(seed=seed, std=1.0 + 0.1 * std_index, n_per_class=50, dim=dim)
    cell = derive_seed(0, seed, std_index)
    train_ds, _ = train_test_split(ds, 0.2, derive_seed(cell, 0))
    return train_ds, mpa.MpaConfig(seed=derive_seed(cell, 1))


def test_permutation_80(benchmark):
    perm = benchmark(lambda: SplitMix64(12345).permutation(80))
    assert sorted(perm) == list(range(80))


# Grid cell (0, 9) separates at initialization (0 moves: set-up plus one
# clean epoch); grid cell (2, 9) makes 5400 moves, so it times the per-move
# path at n = 2; overlap cell (0, 90) rebuilds an 8-point plane per move.
@pytest.mark.parametrize("seed, std_index, dim", [(0, 9, 2), (2, 9, 2), (0, 90, 8)],
                         ids=["grid-0-9-dim2", "grid-2-9-dim2", "overlap-0-90-dim8"])
def test_train_cell(benchmark, seed, std_index, dim):
    train_ds, cfg = cell_training_set(seed, std_index, dim)
    model, log = benchmark(mpa.train, train_ds, cfg)
    benchmark.extra_info["moves"] = log.moves
    assert log.moves + sum(log.skips.values()) == sum(log.misclassified)
    assert np.all(np.isfinite(model.moving_points))
