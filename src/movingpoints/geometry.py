"""Vectors, hyperplanes, and the bordered-determinant construction.

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
column i, the bias is the signed cofactor of the constant column. All
n+1 come from one numerical Gaussian elimination (_cofactors).

Training (mpa.fit) runs this construction only at fresh builds when
n >= 4: between them it carries the same first-row cofactors by rank-one
updates of the inverse of the bordered matrix (see mpa._Boundary), so a
plane met during training can differ from this one in the last bits.
Every plane of n >= 4 points that a model stores comes from here.
For n = 2 and 3 the same cofactors have closed forms on Python floats:
the line through two 2-D points (_line_coeffs, shared by line_from_points
and mpa.fit's n = 2 loop) and the cross product of the plane through
three 3-D points (_plane3_coeffs, which mpa uses for every n = 3 plane
a model trains with or stores). The latter can differ from this
construction in the last bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

EPS_DEGENERATE = 1e-9
EPS_ON_PLANE = 1e-12


class DimensionMismatchError(ValueError):
    """Operands live in different dimensions."""


class DegeneratePointsError(ValueError):
    """The points cannot define a unique hyperplane."""


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


def _degeneracy_threshold(scale: float, power: int) -> float:
    """EPS_DEGENERATE * scale ** power, or the largest float where ** overflows.

    A norm taken as the square root of a sum of squares is finite only below
    the square root of the largest float, far below a threshold past 1e-9
    times the largest float. So every finite norm is below the largest float
    as it is below the true threshold, and a non-finite norm is not.
    """
    try:
        return EPS_DEGENERATE * scale ** power
    except OverflowError:
        return sys.float_info.max


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

    Raises ValueError on non-finite coefficients or a norm past the float
    range, and DegeneratePointsError when the normal is (near-)zero
    relative to the coefficients.
    """
    wl = weights.tolist()
    if not all(map(math.isfinite, wl)):
        raise ValueError("point has non-finite coordinates")
    if not math.isfinite(bias):
        raise ValueError("bias is not finite")
    norm = math.sqrt(_dot(wl, wl))
    if not math.isfinite(norm):
        raise ValueError("the norm of the hyperplane normal overflows")
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
    if not math.isfinite(norm):
        raise ValueError("the norm of the hyperplane normal overflows")
    if norm <= EPS_DEGENERATE * max(abs(w0), abs(w1), abs(bias), 1.0):
        raise DegeneratePointsError("hyperplane normal is (near-)zero")
    return w0, w1, bias, norm


def _plane3_coeffs(p1, p2, p3) -> tuple[float, float, float, float, float]:
    """(w0, w1, w2, bias, ||w||) of the plane through three 3-D points, on Python floats.

    p1, p2 and p3 are sequences of three floats. The normal is the cross
    product w = (p2 - p1) x (p3 - p1) and the bias is -(w . p1), the
    first-row cofactors of the bordered determinant, so the orientation
    is that of hyperplane_from_points; ||w|| is sqrt(w0*w0 + w1*w1 + w2*w2).
    Raises what hyperplane_from_points raises, in its order, with its
    threshold EPS_DEGENERATE * max(1, max|p|)^2, then the checks of
    :func:`_normal_norm`.
    """
    a0, a1, a2 = p1
    b0, b1, b2 = p2
    c0, c1, c2 = p3
    coords = (a0, a1, a2, b0, b1, b2, c0, c1, c2)
    if not all(map(math.isfinite, coords)):
        raise ValueError("point has non-finite coordinates")
    u0 = b0 - a0
    u1 = b1 - a1
    u2 = b2 - a2
    v0 = c0 - a0
    v1 = c1 - a1
    v2 = c2 - a2
    w0 = u1 * v2 - u2 * v1
    w1 = u2 * v0 - u0 * v2
    w2 = u0 * v1 - u1 * v0
    norm = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    # coordinate_scale of the three points, on the Python floats.
    scale = max(1.0, *map(abs, coords))
    if norm <= _degeneracy_threshold(scale, 2):
        raise DegeneratePointsError(
            "points are affinely dependent and define no unique hyperplane"
        )
    bias = -(w0 * a0 + w1 * a1 + w2 * a2)
    if not (math.isfinite(w0) and math.isfinite(w1) and math.isfinite(w2)):
        raise ValueError("point has non-finite coordinates")
    if not math.isfinite(bias):
        raise ValueError("bias is not finite")
    if not math.isfinite(norm):
        raise ValueError("the norm of the hyperplane normal overflows")
    if norm <= EPS_DEGENERATE * max(abs(w0), abs(w1), abs(w2), abs(bias), 1.0):
        raise DegeneratePointsError("hyperplane normal is (near-)zero")
    return w0, w1, w2, bias, norm


def line_from_points(e, f) -> Hyperplane:
    """Line through two distinct 2-D points, closed form (see _line_coeffs)."""
    e = as_vector(e)
    f = as_vector(f)
    if e.size != 2 or f.size != 2:
        raise DimensionMismatchError("line_from_points requires 2-D points")
    w0, w1, bias, _ = _line_coeffs(*e.tolist(), *f.tolist())
    return Hyperplane(np.array([w0, w1]), bias)


def _cofactors(pts: np.ndarray) -> list[float]:
    """First-row cofactors (w, b) of the bordered matrix of the n x n pts.

    They are the left null vector c of B = [pts | 1]^T, (n+1) x n, scaled
    so that c . x = det([x | B]). Gaussian elimination with partial
    pivoting gives Pi B = L U; c is Pi^T of d * (last row of L^-1), where d
    is the sign of Pi times (-1)^n times the product of the pivots, and
    is read by back substitution with _dot. Element-wise numpy and _dot
    only, so no bit comes from BLAS. A pivot of exactly 0.0 means B has
    rank below n, and every cofactor is 0.0.
    """
    n = pts.shape[0]
    a = np.ones((n + 1, n))
    a[:n] = pts.T
    order = list(range(n + 1))
    det = (-1.0) ** n
    for col in range(n):
        row = col + int(np.abs(a[col:, col]).argmax())
        if row != col:
            a[[col, row]] = a[[row, col]]
            order[col], order[row] = order[row], order[col]
            det = -det
        p = float(a[col, col])
        if p == 0.0:
            return [0.0] * (n + 1)
        det *= p
        a[col + 1:, col + 1:] -= (a[col + 1:, col] / p)[:, None] * a[col, col + 1:]
    # a[k+1:, k] is column k of L times pivot k: divide once per entry of c.
    c = [det]
    for k in range(n - 1, -1, -1):
        c.insert(0, -_dot(a[k + 1:, k].tolist(), c) / float(a[k, k]))
    return [ck for _, ck in sorted(zip(order, c))]  # c[k] belongs to row order[k]


def hyperplane_from_points(points) -> Hyperplane:
    """Hyperplane through n points in n dimensions (bordered determinant).

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
    *weights, bias = _cofactors(pts)
    # Cofactors scale like coordinate^(n-1); normalize the test accordingly.
    if math.sqrt(_dot(weights, weights)) <= _degeneracy_threshold(coordinate_scale(pts), n - 1):
        raise DegeneratePointsError(
            "points are affinely dependent and define no unique hyperplane"
        )
    return Hyperplane(np.array(weights), bias)


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
    scale = np.abs(X).max(axis=1) * max(map(abs, w.tolist()))
    np.maximum(scale, max(1.0, abs(h.bias)), out=scale)
    return np.where(np.abs(raw) <= EPS_ON_PLANE * scale, 0, np.where(raw > 0, 1, -1))


def region_sign(h: Hyperplane, x) -> int:
    """-1, 0, or +1: which of the three regions the point x falls in (see sides)."""
    x = as_vector(x)
    h._check_dim(x)
    return int(sides(h, x[None, :])[0])
