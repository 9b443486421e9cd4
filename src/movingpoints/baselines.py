"""Reference classifiers for the benchmark: perceptron, KNN, linear SVM.

These are minimal self-contained stand-ins for the usual library
implementations, kept in-repo so benchmark runs are auditable end to end.
Published accuracy tables for the equivalent library models are
reproduction targets with tolerance, not bit-exact references: the
training heuristics (learning-rate schedules, solvers) differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from .datasets import Dataset
from .geometry import _affine, _dot, as_rows
from .rng import SplitMix64


class EmptyModelError(ValueError):
    """The model holds no training data."""


def _check_epochs(epochs) -> None:
    if not (isinstance(epochs, Integral) and epochs >= 1):
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
    which further epochs could not change anything. The loop runs on
    Python floats with the margin x0*w0 + x1*w1 + ... + b summed in that
    order, so the model takes no bits from BLAS; n = 2 has its own
    unrolled copy of the loop. ValueError unless eta is finite and
    positive and epochs is a positive integer.
    """
    data.require_binary()
    if not 0.0 < eta < np.inf:
        raise ValueError(f"eta must be finite and positive, got {eta}")
    _check_epochs(epochs)
    y = np.where(data.labels == 1, 1.0, -1.0).tolist()
    rng = SplitMix64(seed)
    if data.n == 2:
        w0, w1, b = _perceptron_line(data.features.tolist(), y, eta, epochs, rng)
        return PerceptronModel(weights=np.array([w0, w1]), bias=b, eta=eta, epochs=epochs,
                               seed=seed)
    rows = data.features.tolist()
    w = [0.0] * data.n
    b = 0.0
    for _ in range(epochs):
        updates = 0
        for i in rng.permutation(data.m):
            x, yi = rows[i], y[i]
            if yi * (_dot(x, w) + b) <= 0.0:
                s = eta * yi
                w = [wk + s * xk for wk, xk in zip(w, x)]
                b += s
                updates += 1
        if updates == 0:
            break
    return PerceptronModel(weights=np.array(w), bias=b, eta=eta, epochs=epochs, seed=seed)


def _perceptron_line(rows: list, y: list, eta: float, epochs: int,
                     rng: SplitMix64) -> tuple[float, float, float]:
    """perceptron_fit's sweeps for n = 2 on Python floats: (w0, w1, b)."""
    w0 = w1 = b = 0.0
    for _ in range(epochs):
        updates = 0
        for i in rng.permutation(len(rows)):
            x0, x1 = rows[i]
            yi = y[i]
            if yi * (x0 * w0 + x1 * w1 + b) <= 0.0:
                s = eta * yi
                w0 += s * x0
                w1 += s * x1
                b += s
                updates += 1
        if updates == 0:
            break
    return w0, w1, b


@dataclass
class KnnModel:
    points: np.ndarray
    labels: np.ndarray
    k: int


def knn_fit(data: Dataset, k: int = 3) -> KnnModel:
    if data.m == 0:
        raise EmptyModelError("no training points")
    if not (1 <= k <= data.m):
        raise ValueError(f"k must be in 1..{data.m}, got {k}")
    return KnnModel(points=data.features.copy(), labels=data.labels.copy(), k=k)


# Rows of X per block: keeps each (rows, points) array of squared
# distances near 512 KB.
_KNN_BLOCK_ELEMENTS = 1 << 16


def knn_predict_many(model: KnnModel, X) -> np.ndarray:
    """Per row of X, the majority label of its k nearest points.

    Distances are Euclidean, the square root of the squared coordinate
    differences summed column by column, (p0-x0)^2 + (p1-x1)^2 + ..., in
    that order and element-wise, as geometry._affine sums: neither numpy's
    reduction order nor the memory layout of X can move a near tie. The k
    nearest are those of a stable sort: every point nearer than the k-th
    distance, then the points at that distance by index. A tied vote goes
    to the single nearest point, the first by index among equals.
    X is checked by geometry.as_rows: DimensionMismatchError unless it is
    (m, n) for the model's n, ValueError if it holds a non-finite value.
    """
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
        chosen = dist < kth
        at_kth = dist == kth
        at_kth &= np.cumsum(at_kth, axis=1) <= k - np.count_nonzero(chosen, axis=1)[:, None]
        chosen |= at_kth
        ones = np.count_nonzero(chosen & is_one, axis=1)
        nearest = model.labels[dist.argmin(axis=1)]
        out[start:start + block] = np.where(2 * ones == k, nearest, 2 * ones > k)
    return out


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
    loop runs on Python floats with the margin x0*w0 + x1*w1 + ... + wn
    summed in that order, and each step rounds the shrink and then the add
    per coordinate, as w *= shrink; w += s*x does, so the model takes no
    bits from BLAS; n = 2 has its own unrolled copy of the loop.
    ValueError unless reg is finite and positive and epochs is a positive
    integer.
    """
    data.require_binary()
    if not 0.0 < reg < np.inf:
        raise ValueError(f"reg must be finite and positive, got {reg}")
    _check_epochs(epochs)
    y = np.where(data.labels == 1, 1.0, -1.0).tolist()
    rng = SplitMix64(seed)
    if data.n == 2:
        w0, w1, w2 = _svm_line(data.features.tolist(), y, reg, epochs, rng)
        return LinearSvmModel(weights=np.array([w0, w1]), bias=w2, reg=reg,
                              epochs=epochs, seed=seed)
    rows = [x + [1.0] for x in data.features.tolist()]
    w = [0.0] * (data.n + 1)
    for i, step, shrink in _svm_steps(rng, data.m, reg, epochs):
        x, yi = rows[i], y[i]
        margin = yi * _dot(x, w)
        if margin < 1.0:
            s = step * yi
            w = [wk * shrink + s * xk for wk, xk in zip(w, x)]
        else:
            w = [wk * shrink for wk in w]
    return LinearSvmModel(weights=np.array(w[:-1]), bias=w[-1], reg=reg,
                          epochs=epochs, seed=seed)


def _svm_line(rows: list, y: list, reg: float, epochs: int,
              rng: SplitMix64) -> tuple[float, float, float]:
    """linear_svm_fit's steps for n = 2 on Python floats: (w0, w1, w2), w2 the bias.

    The shrink and then the add are applied per coordinate, as
    w *= shrink; w += s*x does; the constant feature makes w2's terms
    1.0*w2 = w2 and s*1.0 = s.
    """
    w0 = w1 = w2 = 0.0
    for i, step, shrink in _svm_steps(rng, len(rows), reg, epochs):
        x0, x1 = rows[i]
        yi = y[i]
        margin = yi * (x0 * w0 + x1 * w1 + w2)
        w0 *= shrink
        w1 *= shrink
        w2 *= shrink
        if margin < 1.0:
            s = step * yi
            w0 += s * x0
            w1 += s * x1
            w2 += s
    return w0, w1, w2


@lru_cache(maxsize=4)
def _svm_schedule(reg: float, steps: int) -> tuple[tuple, tuple]:
    """Pegasos' rates 1/(reg*t) and shrinks 1 - rate*reg for t = 1..steps.

    A grid or dataset protocol fits every SVM with one reg, epoch count
    and training size, so the schedule is built once; an entry holds two
    floats per step.
    """
    rates = tuple(1.0 / (reg * t) for t in range(1, steps + 1))
    return rates, tuple(1.0 - step * reg for step in rates)


def _svm_steps(rng: SplitMix64, m: int, reg: float, epochs: int):
    """(example, rate, shrink) per step: each epoch a fresh shuffle of the m
    examples, zipped with its stretch of the schedule."""
    rates, shrinks = _svm_schedule(float(reg), epochs * m)
    for start in range(0, epochs * m, m):
        yield from zip(rng.permutation(m), rates[start:start + m], shrinks[start:start + m])


def linear_predict_many(model: PerceptronModel | LinearSvmModel, X) -> np.ndarray:
    """Class 1 where weights . x + bias > 0, else class 0, per row of X.

    weights . x + bias is geometry's fixed-order sum, as in geometry.sides,
    and X is checked as sides checks it (geometry.as_rows).
    """
    raw = _affine(as_rows(X, model.weights.size), model.weights, model.bias)
    return (raw > 0).astype(int)
