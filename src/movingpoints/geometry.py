"""Vectors, hyperplanes, and the determinant construction.

Points are plain 1-D float64 numpy arrays (validated by :func:`as_vector`).
A hyperplane is stored as the coefficients of its implicit equation
``weights . x + bias = 0``; no normalization is imposed, so two coefficient
sets that differ by a nonzero scalar describe the same flat.

Construction from n points in n dimensions expands the bordered
determinant

    | x_1  ... x_n  1 |
    | p1_1 ... p1_n 1 |
    | ...           . |
    | pn_1 ... pn_n 1 |  = 0

along its first row: weight i is the signed cofactor of the variable
column i, the bias is the signed cofactor of the constant column. The n+1
minors are evaluated numerically, all at once, by Gaussian elimination
over one (n+1, n, n) stack with partial pivoting chosen per minor, so no
symbolic algebra is involved. Every element sees the same floating-point
operations in the same order as eliminating each minor on its own, so the
cofactors are bit-identical to the one-minor-at-a-time loop.

Training (mpa.fit) runs this construction only at fresh builds when
n >= 3: between them it carries the same first-row cofactors by rank-one
updates of the inverse of the bordered matrix (see mpa._Boundary), so a
plane met during training can differ from this one in the last bits.
Every plane of n >= 3 points that a model stores comes from here.
The line through two 2-D points is read in closed form on Python floats
(_line_coeffs), the one routine that line_from_points and mpa.fit's
n = 2 loop share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

EPS_DEGENERATE = 1e-9
EPS_ON_PLANE = 1e-12


class DimensionMismatchError(ValueError):
    """Operands live in different dimensions."""


class DegeneratePointsError(ValueError):
    """The points cannot define a unique hyperplane."""


class ZeroVectorError(ValueError):
    """A direction was required but the vector has (near-)zero norm."""


def as_vector(coords) -> np.ndarray:
    """Validate and return a point as a 1-D float64 array.

    Rejects empty vectors and non-finite coordinates.
    """
    v = np.asarray(coords, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D point, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("point has non-finite coordinates")
    return v


def coordinate_scale(*arrays) -> float:
    """Largest absolute coordinate among the inputs, floored at 1.0.

    Used to scale the degeneracy and on-plane tolerances so they behave
    relatively on unstandardized data while staying absolute near zero.
    """
    m = 1.0
    for a in arrays:
        a = np.asarray(a, dtype=float)
        if a.size:
            m = max(m, float(np.abs(a).max()))
    return m


@dataclass(frozen=True)
class Hyperplane:
    """Coefficients of ``weights . x + bias = 0``."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        w = as_vector(self.weights)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))
        _normal_norm(w, self.bias)

    @property
    def dim(self) -> int:
        return self.weights.size

    def _check_dim(self, x: np.ndarray) -> None:
        if x.size != self.dim:
            raise DimensionMismatchError(
                f"point has dimension {x.size}, hyperplane has {self.dim}"
            )


def _determinants(stack: np.ndarray) -> np.ndarray:
    """Determinants of a (k, n, n) stack by Gaussian elimination.

    Each slice is eliminated with its own partial pivoting, and every
    element update is the multiply-then-subtract of the one-matrix loop,
    so each result is bit-identical to eliminating that slice alone. A
    slice whose pivot is exactly 0.0 has determinant exactly 0.0; the
    inf/nan its later columns produce stay inside that slice.
    """
    a = np.array(stack, dtype=float, order="C")
    k, n = a.shape[:2]
    det = np.ones(k)
    singular = np.zeros(k, dtype=bool)
    slices = np.arange(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        for col in range(n):
            pivot = col + np.abs(a[:, col:, col]).argmax(axis=1)
            swap = pivot != col
            if swap.any():
                # Slices that keep their row write it back onto itself.
                pivot_rows = a[slices, pivot, col:]
                a[slices, pivot, col:] = a[:, col, col:]
                a[:, col, col:] = pivot_rows
                det[swap] = -det[swap]
            p = a[:, col, col]
            singular |= p == 0.0
            det *= p
            a[:, col + 1:, col:] -= (a[:, col + 1:, col] / p[:, None])[..., None] \
                * a[:, col, None, col:]
    det[singular] = 0.0
    return det


def determinant(matrix: np.ndarray) -> float:
    """Determinant by Gaussian elimination with partial pivoting."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    return float(_determinants(a[None])[0])


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a 1-D float64 array, with its bits and less overhead.

    For a vector, numpy takes sqrt(v.dot(v)) of v raveled in memory order;
    so does this, and math.sqrt rounds like numpy's sqrt.
    """
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def _dot(u, v) -> float:
    """u . v of two equal-length sequences of Python floats, summed in order.

    u[0]*v[0] + u[1]*v[1] + ...: no BLAS kernel and no fused multiply-add,
    so the bits are the same on every CPU.
    """
    total = u[0] * v[0]
    for i in range(1, len(u)):
        total += u[i] * v[i]
    return total


def _normal_norm(weights: np.ndarray, bias: float) -> float:
    """||weights|| (a fixed-order sum, see _dot) of a plane whose
    coefficients pass the Hyperplane checks.

    Raises ValueError on non-finite coefficients and DegeneratePointsError
    when the normal is (near-)zero relative to the coefficients.
    """
    wl = weights.tolist()
    if not all(map(math.isfinite, wl)):
        raise ValueError("point has non-finite coordinates")
    if not math.isfinite(bias):
        raise ValueError("bias is not finite")
    norm = math.sqrt(_dot(wl, wl))
    if norm <= EPS_DEGENERATE * max(max(map(abs, wl)), abs(bias), 1.0):
        raise DegeneratePointsError("hyperplane normal is (near-)zero")
    return norm


def _line_coeffs(x1: float, y1: float, x2: float, y2: float) -> tuple[float, float, float, float]:
    """(w0, w1, bias, ||w||) of the line through (x1, y1) and (x2, y2), on Python floats.

    Coefficients are (y1 - y2, x2 - x1) with constant x1*y2 - x2*y1, read
    directly off the two-point line equation; ||w|| is
    sqrt(w0*w0 + w1*w1), which is also the distance between the points.
    Raises ValueError when a coordinate is not finite, DegeneratePointsError
    when the points coincide, then the checks of :func:`_normal_norm`, in
    that order.
    """
    if not all(map(math.isfinite, (x1, y1, x2, y2))):
        raise ValueError("point has non-finite coordinates")
    w0 = y1 - y2
    w1 = x2 - x1
    norm = math.sqrt(w0 * w0 + w1 * w1)
    # coordinate_scale of the two points, on the Python floats.
    if norm <= EPS_DEGENERATE * max(1.0, abs(x1), abs(y1), abs(x2), abs(y2)):
        raise DegeneratePointsError("the two points coincide")
    bias = x1 * y2 - x2 * y1
    if not (math.isfinite(w0) and math.isfinite(w1)):
        raise ValueError("point has non-finite coordinates")
    if not math.isfinite(bias):
        raise ValueError("bias is not finite")
    if norm <= EPS_DEGENERATE * max(abs(w0), abs(w1), abs(bias), 1.0):
        raise DegeneratePointsError("hyperplane normal is (near-)zero")
    return w0, w1, bias, norm


def line_from_points(e, f) -> Hyperplane:
    """Line through two distinct 2-D points, closed form (see _line_coeffs)."""
    e = as_vector(e)
    f = as_vector(f)
    if e.size != 2 or f.size != 2:
        raise DimensionMismatchError("line_from_points requires 2-D points")
    w0, w1, bias, _ = _line_coeffs(*e.tolist(), *f.tolist())
    return Hyperplane(np.array([w0, w1]), bias)


@lru_cache(maxsize=64)
def _minor_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns kept by each of the n+1 minors, and the cofactor signs."""
    keep = np.array([[c for c in range(n + 1) if c != j] for j in range(n + 1)])
    signs = np.array([(-1.0) ** j for j in range(n + 1)])
    keep.setflags(write=False)
    signs.setflags(write=False)
    return keep, signs


def hyperplane_from_points(points) -> Hyperplane:
    """Hyperplane through n points in n dimensions (bordered determinant).

    All n+1 minors of the bordered matrix are eliminated together as one
    stack, with per-minor partial pivoting and the operation order of a
    one-minor-at-a-time loop, so the coefficients are bit-identical to it.

    Raises DegeneratePointsError when the points are affinely dependent,
    i.e. lie on a common (n-2)-flat, which drives every cofactor to zero.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise ValueError(f"expected a sequence of 1-D points, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point has non-finite coordinates")
    n = pts.shape[0]
    if pts.shape != (n, n):
        raise DimensionMismatchError(
            f"need exactly n points of dimension n, got {pts.shape[0]} points "
            f"of dimension {pts.shape[1]}"
        )
    keep, signs = _minor_layout(n)
    # Rows 2..n+1 of the bordered matrix: [point, 1]; minor j drops column j.
    bordered = np.hstack([pts, np.ones((n, 1))])
    coeffs = signs * _determinants(bordered[:, keep].transpose(1, 0, 2))
    weights, bias = coeffs[:n], coeffs[n]
    scale = coordinate_scale(pts)
    # Cofactors scale like coordinate^(n-1); normalize the test accordingly.
    if _norm(weights) <= EPS_DEGENERATE * scale ** (n - 1):
        raise DegeneratePointsError(
            "points are affinely dependent and define no unique hyperplane"
        )
    return Hyperplane(weights, bias)


def signed_displacement(h: Hyperplane, x) -> float:
    """Signed perpendicular distance of x from h.

    (weights . x + bias) / ||weights||; the sign says which side of the
    hyperplane x lies on, following the orientation of the coefficients.
    """
    x = as_vector(x)
    h._check_dim(x)
    return float((h.weights @ x + h.bias) / np.linalg.norm(h.weights))


def _affine(X: np.ndarray, w: np.ndarray, bias: float) -> np.ndarray:
    """X @ w + bias per row of the (m, n) array X, summed column by column.

    X[:, 0]*w[0] + X[:, 1]*w[1] + ... + bias, in that order and element-wise,
    not by BLAS, so a row's value does not depend on the CPU kernel or on
    the other rows of X.
    """
    if X.ndim != 2 or X.shape[1] != w.size:
        raise DimensionMismatchError(
            f"expected rows of dimension {w.size}, got shape {X.shape}"
        )
    raw = X[:, 0] * w[0]
    for j in range(1, w.size):
        raw += X[:, j] * w[j]
    raw += bias
    return raw


def sides(h: Hyperplane, X: np.ndarray) -> np.ndarray:
    """-1, 0 or +1 per row of the (m, n) array X: which region it falls in.

    0 is returned only when |weights . x + bias| is within the on-plane
    tolerance EPS_ON_PLANE * max(1, max|weights| * max|x|, |bias|), scaled
    to the magnitudes involved. weights . x + bias is the fixed-order sum
    of _affine, so a row's side does not depend on the other rows of X.
    """
    w = h.weights
    raw = _affine(X, w, h.bias)
    scale = np.maximum.reduce([
        np.ones(X.shape[0]),
        float(np.max(np.abs(w))) * np.max(np.abs(X), axis=1),
        np.full(X.shape[0], abs(h.bias)),
    ])
    return np.where(np.abs(raw) <= EPS_ON_PLANE * scale, 0, np.where(raw > 0, 1, -1))


def region_sign(h: Hyperplane, x) -> int:
    """-1, 0, or +1: which of the three regions the point x falls in (see sides)."""
    x = as_vector(x)
    h._check_dim(x)
    return int(sides(h, x[None, :])[0])


def angle_between(u, v) -> float:
    """Angle in [0, pi] between two nonzero vectors."""
    u = as_vector(u)
    v = as_vector(v)
    if u.size != v.size:
        raise DimensionMismatchError(f"dimensions differ: {u.size} vs {v.size}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu <= EPS_DEGENERATE or nv <= EPS_DEGENERATE:
        raise ZeroVectorError("angle is undefined for a zero vector")
    c = float(u @ v) / (nu * nv)
    return float(np.arccos(np.clip(c, -1.0, 1.0)))
