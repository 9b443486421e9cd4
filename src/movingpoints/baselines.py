"""Reference classifiers for the benchmark: perceptron, KNN, linear SVM.

These are minimal self-contained stand-ins for the usual library
implementations, kept in-repo so benchmark runs are auditable end to end.
Published accuracy tables for the equivalent library models are
reproduction targets with tolerance, not bit-exact references: the
training heuristics (learning-rate schedules, solvers) differ. Every
predictor returns a list of 0/1 ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

from .datasets import Dataset
from .geometry import _generated, _margins, as_rows, float_rows
from .rng import SplitMix64

# np.ndarray in an annotation names numpy's array type; numpy itself is
# imported only by the functions that compute on arrays, when they run.


class EmptyModelError(ValueError):
    """The model holds no training data."""


def _check_epochs(epochs) -> None:
    if isinstance(epochs, bool) or not (isinstance(epochs, Integral) and epochs >= 1):
        raise ValueError(f"epochs must be a positive integer, got {epochs!r}")


@dataclass
class PerceptronModel:
    weights: np.ndarray
    bias: float
    eta: float
    epochs: int
    seed: int


def perceptron_fit(data: Dataset, eta: float = 1.0, epochs: int = 50,
                   seed: int = 0) -> PerceptronModel:
    """Rosenblatt's rule from a zero start, shuffled sweeps.

    Labels map to y in {-1, +1}; every example with y*(w.x + b) <= 0
    triggers w += eta*y*x, b += eta*y. Stops early on a clean sweep, after
    which further epochs could not change anything. The sweeps run on
    Python floats in a loop generated for the data's n (_perceptron_loop),
    with the margin x0*w0 + x1*w1 + ... + b summed in that order, so the
    model takes no bits from BLAS. ValueError unless eta is finite and
    positive and epochs is a positive integer.
    """
    import numpy as np

    data.require_binary()
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be finite and positive, got {eta}")
    _check_epochs(epochs)
    y = np.where(data.labels == 1, 1.0, -1.0).tolist()
    w, b = _perceptron_loop(data.n)(data.features.tolist(), y, eta, epochs, SplitMix64(seed))
    return PerceptronModel(weights=np.array(w), bias=b, eta=eta, epochs=epochs, seed=seed)


@dataclass
class KnnModel:
    points: np.ndarray
    labels: np.ndarray
    k: int


def knn_fit(data: Dataset, k: int = 3) -> KnnModel:
    if isinstance(k, bool) or not (isinstance(k, Integral) and 1 <= k <= data.m):
        raise ValueError(f"k must be an integer in 1..{data.m}, got {k!r}")
    return KnnModel(points=data.features.copy(), labels=data.labels.copy(), k=k)


# Rows of X per block: keeps each (rows, points) array of squared
# distances near 512 KB.
_KNN_BLOCK_ELEMENTS = 1 << 16


def knn_predict_many(model: KnnModel, X) -> list[int]:
    """Per row of X, the majority label of its k nearest points.

    Distances are Euclidean, the square root of the squared coordinate
    differences summed column by column, (p0-x0)^2 + (p1-x1)^2 + ..., in
    that order and element-wise, as geometry._margins sums: neither numpy's
    reduction order nor the memory layout of X can move a near tie. The k
    nearest are those of a stable sort: every point nearer than the k-th
    distance, then the points at that distance by index. A tied vote goes
    to the single nearest point, the first by index among equals.
    X is checked by geometry.as_rows: DimensionMismatchError unless it is
    (m, n) for the model's n, ValueError if it holds a non-finite value.
    """
    import numpy as np

    P = model.points
    if P.shape[0] == 0:
        raise EmptyModelError("no training points")
    X = as_rows(X, P.shape[1])
    k = model.k
    is_one = model.labels == 1
    out = np.empty(X.shape[0], dtype=int)
    block = max(1, _KNN_BLOCK_ELEMENTS // P.shape[0])
    for start in range(0, X.shape[0], block):
        Xb = X[start:start + block]
        sq = P[:, 0] - Xb[:, 0, None]
        sq *= sq
        D = np.empty_like(sq)
        for j in range(1, P.shape[1]):
            np.subtract(P[:, j], Xb[:, j, None], out=D)
            D *= D
            sq += D
        dist = np.sqrt(sq)
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1, None]
        chosen = dist <= kth  # at least k per row, and exactly k unless a row ties at kth
        if np.count_nonzero(chosen) != k * dist.shape[0]:
            chosen = dist < kth
            at_kth = dist == kth
            at_kth &= np.cumsum(at_kth, axis=1) <= k - np.count_nonzero(chosen, axis=1)[:, None]
            chosen |= at_kth
        ones = np.count_nonzero(chosen & is_one, axis=1)
        nearest = model.labels[dist.argmin(axis=1)]
        out[start:start + block] = np.where(2 * ones == k, nearest, 2 * ones > k)
    return out.tolist()


@dataclass
class LinearSvmModel:
    weights: np.ndarray
    bias: float
    reg: float
    epochs: int
    seed: int


def linear_svm_fit(data: Dataset, reg: float = 0.01, epochs: int = 30,
                   seed: int = 0) -> LinearSvmModel:
    """Hinge-loss subgradient descent with L2 regularization.

    Pegasos-style schedule: at global step t the rate is 1/(reg*t); each
    epoch sweeps a fresh shuffle. The bias rides along as an appended
    constant feature, so it is (lightly) regularized with the rest. The
    steps run on Python floats in a loop generated for the data's n
    (_svm_loop), with the margin x0*w0 + x1*w1 + ... + wb summed in that
    order (wb the bias, as 1.0*wb is wb), and each step rounds the shrink
    and then the add per coordinate, as w *= shrink; w += s*x does, so the
    model takes no bits from BLAS. ValueError unless reg is finite and
    positive and epochs is a positive integer.
    """
    import numpy as np

    data.require_binary()
    if not 0.0 < reg < math.inf:
        raise ValueError(f"reg must be finite and positive, got {reg}")
    _check_epochs(epochs)
    y = np.where(data.labels == 1, 1.0, -1.0).tolist()
    rates, shrinks = _svm_schedule(float(reg), epochs * data.m)
    w, b = _svm_loop(data.n)(data.features.tolist(), y, rates, shrinks, SplitMix64(seed))
    return LinearSvmModel(weights=np.array(w), bias=b, reg=reg, epochs=epochs, seed=seed)


@lru_cache(maxsize=4)
def _svm_schedule(reg: float, steps: int) -> tuple[tuple, tuple]:
    """Pegasos' rates 1/(reg*t) and shrinks 1 - rate*reg for t = 1..steps.

    A grid or dataset protocol fits every SVM with one reg, epoch count
    and training size, so the schedule is built once; an entry holds two
    floats per step.
    """
    rates = tuple(1.0 / (reg * t) for t in range(1, steps + 1))
    return rates, tuple(1.0 - step * reg for step in rates)


# The two training loops, written out for one n: a row unpacks into the
# locals x0..x{n-1}, each weight is a local, and each sum is spelled term by
# term in _dot's order, so no sum() (compensated from Python 3.12), BLAS
# call or fused multiply-add can change a bit. {w} is "w0 = w1 = ...",
# {x} the row unpack, {margin} "x0 * w0 + x1 * w1 + ...", and {shrink} and
# {add} hold one update line per coordinate.
_PERCEPTRON_SOURCE = """\
def perceptron_loop(rows, y, eta, epochs, rng):
    {w} = b = 0.0
    for _ in range(epochs):
        updates = 0
        for i in rng.permutation(len(rows)):
            {x} = rows[i]
            yi = y[i]
            if yi * ({margin} + b) <= 0.0:
                s = eta * yi
{add}
                b += s
                updates += 1
        if updates == 0:
            break
    return [{ws}], b
"""

_SVM_SOURCE = """\
def svm_loop(rows, y, rates, shrinks, rng):
    {w} = wb = 0.0
    m = len(rows)
    for start, order in zip(range(0, len(rates), m), rng.permutations(m, len(rates) // m)):
        stop = start + m
        for i, step, shrink in zip(order, rates[start:stop], shrinks[start:stop]):
            {x} = rows[i]
            yi = y[i]
            margin = yi * ({margin} + wb)
{shrink}
            wb *= shrink
            if margin < 1.0:
                s = step * yi
{add}
                wb += s
    return [{ws}], wb
"""


def _loop_source(template: str, n: int) -> str:
    """template filled in for rows of n coordinates; ValueError if n < 1."""
    if n < 1:
        raise ValueError(f"rows need at least one coordinate, got {n}")
    ks = range(n)
    return template.format(
        w=" = ".join(f"w{k}" for k in ks),
        ws=", ".join(f"w{k}" for k in ks),
        x=", ".join(f"x{k}" for k in ks) + ("," if n == 1 else ""),
        margin=" + ".join(f"x{k} * w{k}" for k in ks),
        shrink="\n".join(f"            w{k} *= shrink" for k in ks),
        add="\n".join(f"                w{k} += s * x{k}" for k in ks))


@_generated("perceptron_loop")
def _perceptron_loop(n: int):
    """perceptron_fit's sweeps for rows of n coordinates:
    loop(rows, y, eta, epochs, rng) -> (weights list, bias)."""
    return _loop_source(_PERCEPTRON_SOURCE, n)


@_generated("svm_loop")
def _svm_loop(n: int):
    """linear_svm_fit's steps for rows of n coordinates, one epoch per
    m-long stretch of the schedule: loop(rows, y, rates, shrinks, rng) ->
    (weights list, bias). The epochs' orders come from one
    rng.permutations call, the orders of one permutation per epoch."""
    return _loop_source(_SVM_SOURCE, n)


def linear_predict_many(model: PerceptronModel | LinearSvmModel, X) -> list[int]:
    """Class 1 where weights . x + bias > 0, else class 0, per row of X.

    weights . x + bias is geometry's fixed-order sum (_margins), as in
    geometry.sides, and X is checked as sides checks it (geometry.float_rows).
    """
    w = model.weights.tolist()
    n = len(w)
    return [1 if raw > 0.0 else 0
            for raw in _margins(n)(float_rows(X, n), *w, float(model.bias))]
