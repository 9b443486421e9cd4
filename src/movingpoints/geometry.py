"""Vectors, hyperplanes, and the bordered-determinant construction.

A set of points is a C-ordered (m, n) float64 array, one point per row;
every point set the library takes is validated by :func:`as_rows`. A
hyperplane is stored as the coefficients of its implicit equation
``weights . x + bias = 0``; no normalization is imposed, so two
coefficient sets that differ by a nonzero scalar describe the same flat.

Construction from n points in n dimensions expands the bordered
determinant

    | x_1  ... x_n  1 |
    | p1_1 ... p1_n 1 |
    | ...           . |
    | pn_1 ... pn_n 1 |  = 0

along its first row: weight i is the signed cofactor of the variable
column i, the bias is the signed cofactor of the constant column.
hyperplane_from_points builds this plane for every n with the builder
that _plane_builder(n) picks: closed forms on Python floats for n = 2
(_line_coeffs) and n = 3 (_plane3_coeffs, a cross product), one
Gaussian elimination written out per n for 4 <= n <= 16 (_unrolled),
and numpy's element-wise elimination past that (_plane_coeffs). All
take the coordinate scale and then the points as rows, refuse a plane
through one _refuse, and are what the loop mpa.fit generates calls
after every move, so every plane met in training is the plane a model
stores, bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import chain

import numpy as np

EPS_DEGENERATE = 1e-9
_MAX_UNROLLED = 16  # _unrolled_source grows as n^3, to 15,000 lines at n = 32
_DEPENDENT = "points are affinely dependent and define no unique hyperplane"


class DimensionMismatchError(ValueError):
    """Operands live in different dimensions."""


class DegeneratePointsError(ValueError):
    """The points cannot define a unique hyperplane."""


def as_rows(points, n: int | None = None) -> np.ndarray:
    """Validate and return points as a C-ordered (m, n) float64 array.

    Every row must be a point, one or more finite coordinates, n wide when
    n is given; a single point is checked as the set [point].
    DimensionMismatchError on a bad shape, ragged rows included, ValueError
    on a non-finite coordinate or one that is not a number. Zero rows pass.
    The C order makes a mean over axis 0 add the rows one after another,
    whatever the layout of the input.
    """
    try:
        X = np.ascontiguousarray(points, dtype=float)
    except ValueError:
        # numpy's error for rows of unequal length; a sequence where a
        # number belongs is what tells it from a coordinate like "a".
        if any(np.ndim(x) for x in np.array(points, dtype=object).flat):
            raise DimensionMismatchError("rows differ in length") from None
        raise
    if X.ndim != 2 or X.shape[1] < 1:
        raise DimensionMismatchError(f"expected a 1-D point, got shape {X.shape[1:]}")
    if n is not None and X.shape[1] != n:
        raise DimensionMismatchError(f"expected rows of dimension {n}, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("point has non-finite coordinates")
    return X


def coordinate_scale(*arrays) -> float:
    """Largest absolute coordinate among the inputs, floored at 1.0.

    Used to scale the degeneracy tolerances so they behave relatively on
    unstandardized data while staying absolute near zero.
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
        w = as_rows([self.weights])[0]
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))
        _normal_norm(w, self.bias)

    @property
    def dim(self) -> int:
        return self.weights.size


def _dot(u, v) -> float:
    """u . v of two equal-length sequences of Python floats, summed in order.

    u[0]*v[0] + u[1]*v[1] + ...: no BLAS kernel and no fused multiply-add,
    so the bits are the same on every CPU.
    """
    total = u[0] * v[0]
    for i in range(1, len(u)):
        total += u[i] * v[i]
    return total


def _check_normal(b: float, norm: float) -> None:
    """The checks of a plane's normal, in order: ValueError when the bias
    is not finite, ValueError when ||w|| is not finite (a non-finite weight
    or a norm past the float range), and DegeneratePointsError when the
    normal is (near-)zero relative to the coefficients: ||w|| <=
    EPS_DEGENERATE * max(|bias|, 1). A computed ||w|| is never below
    (1 - 2^-52) * max|w_i|, so a max|w_i| term could never decide the last.
    """
    if not math.isfinite(b):
        raise ValueError("bias is not finite")
    if not math.isfinite(norm):
        raise ValueError("the norm of the hyperplane normal overflows")
    if norm <= EPS_DEGENERATE * max(abs(b), 1.0):
        raise DegeneratePointsError("hyperplane normal is (near-)zero")


def _normal_norm(weights: np.ndarray, bias: float) -> float:
    """||weights|| (a fixed-order sum, see _dot) of a plane that passes
    :func:`_check_normal`, which raises otherwise."""
    wl = weights.tolist()
    norm = math.sqrt(_dot(wl, wl))
    _check_normal(bias, norm)
    return norm


def _refuse(coords, b: float, norm: float, threshold: float, message: str) -> None:
    """Raise why a builder's plane (w, b) through the points coords is
    refused, in the order every builder documents: ValueError when a
    coordinate is not finite, DegeneratePointsError(message) when ||w|| <=
    threshold, then :func:`_check_normal`.

    A builder calls it only when its one test, threshold < ||w|| < inf and
    EPS_DEGENERATE * max(|b|, 1) < ||w||, fails, and one of these checks
    then fails too. A non-finite coordinate always fails that test (a
    builder's docstring says how), so the coordinates are read only here.
    """
    if not all(map(math.isfinite, coords)):
        raise ValueError("point has non-finite coordinates")
    if norm <= threshold:
        raise DegeneratePointsError(message)
    _check_normal(b, norm)


def _line_coeffs(scale: float, p1, p2) -> tuple[float, float, float, float]:
    """(w0, w1, bias, ||w||) of the line through two 2-D points, on Python floats.

    scale is coordinate_scale(p1, p2); p1 = (x1, y1) and p2 = (x2, y2) are
    sequences of two floats. Coefficients are (y1 - y2, x2 - x1) with
    constant x1*y2 - x2*y1, read directly off the two-point line equation;
    ||w|| is sqrt(w0*w0 + w1*w1), which is also the distance between the
    points. The threshold is EPS_DEGENERATE * scale, and a refused line
    raises through :func:`_refuse` ("the two points coincide"). Each
    coordinate enters one difference, so a non-finite one makes ||w||
    non-finite.
    """
    x1, y1 = p1
    x2, y2 = p2
    w0 = y1 - y2
    w1 = x2 - x1
    bias = x1 * y2 - x2 * y1
    norm = math.sqrt(w0 * w0 + w1 * w1)
    threshold = EPS_DEGENERATE * scale
    if not (threshold < norm < math.inf and EPS_DEGENERATE * max(abs(bias), 1.0) < norm):
        _refuse((x1, y1, x2, y2), bias, norm, threshold, "the two points coincide")
    return w0, w1, bias, norm


def _plane3_coeffs(scale: float, p1, p2, p3) -> tuple[float, float, float, float, float]:
    """(w0, w1, w2, bias, ||w||) of the plane through three 3-D points, on Python floats.

    scale is coordinate_scale(p1, p2, p3); p1, p2 and p3 are sequences of
    three floats. The normal is the cross product w = (p2 - p1) x (p3 - p1)
    and the bias is -(w . p1), the first-row cofactors of the bordered
    determinant, with the orientation of _eliminate; ||w|| is
    sqrt(w0*w0 + w1*w1 + w2*w2). The threshold is _plane_coeffs'
    EPS_DEGENERATE * scale^2, and a refused plane raises through
    :func:`_refuse`. A non-finite coordinate makes a
    component of u or v non-finite, and its products with the other
    vector's two other components (x * inf and x * nan are never finite)
    make two components of w, and so ||w||, non-finite.
    """
    a0, a1, a2 = p1
    b0, b1, b2 = p2
    c0, c1, c2 = p3
    u0 = b0 - a0
    u1 = b1 - a1
    u2 = b2 - a2
    v0 = c0 - a0
    v1 = c1 - a1
    v2 = c2 - a2
    w0 = u1 * v2 - u2 * v1
    w1 = u2 * v0 - u0 * v2
    w2 = u0 * v1 - u1 * v0
    bias = -(w0 * a0 + w1 * a1 + w2 * a2)
    norm = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    threshold = _degeneracy_threshold(scale, 2)
    if not (threshold < norm < math.inf and EPS_DEGENERATE * max(abs(bias), 1.0) < norm):
        _refuse((a0, a1, a2, b0, b1, b2, c0, c1, c2), bias, norm, threshold, _DEPENDENT)
    return w0, w1, w2, bias, norm


def _eliminate(pts: np.ndarray) -> list[float]:
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


def _unrolled_source(n: int) -> str:
    """plane(scale, r0, ...), the plane builder for one n on Python floats:
    _eliminate written out, ||w|| in _dot's order, and the builders' one
    test against _degeneracy_threshold(scale, n - 1), refusing via _refuse.

    a{r}_{k} is entry (r, k) of [pts | 1]^T and o{r} the input row now in
    row r; every product, quotient and sum is _eliminate's, in its order.
    A pivot search keeps the first largest |entry|, as argmax does, and a
    row swap is one tuple assignment. argmax would take a NaN candidate
    first, which this search passes over; but a NaN candidate always ends
    in a zero pivot or a non-finite cofactor, and either hands the call to
    _plane_coeffs, so every plane returned has _eliminate's bits. A
    non-finite cofactor always fails the test, so only then are they read.
    """
    ks, rs, a = range(n), range(n + 1), "a{}_{}".format
    args, w = (", ".join(f"{v}{k}" for k in ks) for v in "rw")
    numpy_path = f"return _plane_coeffs(scale, {args})"
    lines = [f"def plane(scale, {args}):",
             *(f"    {''.join(a(k, i) + ', ' for k in ks)}= r{i}" for i in ks),
             f"    {' = '.join(a(n, k) for k in ks)} = 1.0",
             f"    {', '.join(f'o{r}' for r in rs)} = {', '.join(map(str, rs))}",
             f"    det = {(-1.0) ** n}"]
    for col in ks:
        below = range(col + 1, n + 1)
        lines.append(f"    m = {col}\n    best = abs({a(col, col)})")
        lines += [f"    v = abs({a(r, col)})\n    if v > best:\n        m = {r}\n        best = v"
                  for r in below]
        for r in below:
            top, other = ([*(a(i, k) for k in ks), f"o{i}"] for i in (col, r))
            lines.append(f"    {'if' if r == col + 1 else 'elif'} m == {r}:\n"
                         f"        {', '.join(top + other)} = {', '.join(other + top)}\n"
                         "        det = -det")
        lines.append(f"    p = {a(col, col)}\n    if p == 0.0:\n        {numpy_path}\n"
                     "    det *= p")
        right = range(col + 1, n)  # empty for the last column: nothing is left to reduce
        for r in below if right else ():
            lines.append(f"    l = {a(r, col)} / p")
            lines += [f"    {a(r, k)} -= l * {a(col, k)}" for k in right]
    lines.append(f"    c{n} = det")
    for k in reversed(ks):
        terms = " + ".join(f"{a(r, k)} * c{r}" for r in range(k + 1, n + 1))
        lines.append(f"    c{k} = -({terms}) / {a(k, k)}")
    lines += [f"    out = [0.0] * {n + 1}", *(f"    out[o{r}] = c{r}" for r in rs),
              f"    {w}, b = out",
              f"    norm = math.sqrt({' + '.join(f'w{k} * w{k}' for k in ks)})",
              f"    threshold = _degeneracy_threshold(scale, {n - 1})",
              "    if not (threshold < norm < math.inf"
              " and EPS_DEGENERATE * max(abs(b), 1.0) < norm):",
              f"        if not math.isfinite({' + '.join(f'c{r}' for r in rs)}):",
              f"            {numpy_path}",
              f"        _refuse(chain({args}), b, norm, threshold, _DEPENDENT)",
              f"    return {w}, b, norm"]
    return "\n".join(lines) + "\n"


def _generated(*names: str, maxsize: int = 32):
    """Decorator for source(n), a function that writes Python text for one
    n: the decorated function returns what that text defines under names,
    one object or a tuple of them. It compiles the text in source's module
    globals on the first call for each n, so importing builds nothing, and
    lru_cache keeps the last maxsize n. Every loop generated per n is built
    here: the plane (_unrolled), mpa's training loop and the baselines'."""
    def decorate(source):
        def compiled(n: int):
            namespace: dict = {}
            exec(compile(source(n), f"<{source.__name__} n={n}>", "exec"),
                 source.__globals__, namespace)
            found = tuple(namespace[name] for name in names)
            return found if len(found) > 1 else found[0]
        return lru_cache(maxsize=maxsize)(wraps(source)(compiled))
    return decorate


@_generated("plane", maxsize=_MAX_UNROLLED)
def _unrolled(n: int):
    """The plane function of _unrolled_source(n)."""
    return _unrolled_source(n)


def _plane_coeffs(scale: float, *rows) -> tuple[float, ...]:
    """(w0, ..., w_{n-1}, bias, ||w||) of the plane through the n points
    rows, lists of n Python floats, with scale = coordinate_scale(rows):
    _eliminate's cofactors and ||w|| in _dot's order. The builder past
    _MAX_UNROLLED, and of the points the unrolled one hands on.

    The threshold is EPS_DEGENERATE * scale^(n-1) (cofactors scale like
    coordinate^(n-1)), and a refused plane raises through :func:`_refuse`.
    A non-finite coordinate fails the builders' one test: a NaN one makes
    every cofactor NaN, or 0.0 when a zero pivot comes first, and an
    infinite one with no NaN beside it makes the scale, and so the
    threshold, infinite.
    """
    *w, b = _eliminate(np.array(rows))
    norm = math.sqrt(_dot(w, w))
    threshold = _degeneracy_threshold(scale, len(rows) - 1)
    if not (threshold < norm < math.inf and EPS_DEGENERATE * max(abs(b), 1.0) < norm):
        _refuse(chain.from_iterable(rows), b, norm, threshold, _DEPENDENT)
    return (*w, b, norm)


def _plane_builder(n: int):
    """The builder of the plane through n points in n dimensions:
    _line_coeffs at n = 2, _plane3_coeffs at n = 3, _unrolled(n) up to
    _MAX_UNROLLED and _plane_coeffs past it. Each maps (scale, *rows) to
    (w0, ..., w_{n-1}, bias, ||w||), with scale = coordinate_scale(rows),
    which a loop that moves one point at a time keeps per point (mpa.fit),
    and refuses a plane through _refuse."""
    return ({2: _line_coeffs, 3: _plane3_coeffs}.get(n)
            or (_unrolled(n) if n <= _MAX_UNROLLED else _plane_coeffs))


def hyperplane_from_points(points) -> Hyperplane:
    """Hyperplane through n points in n dimensions (bordered determinant).

    The cofactors come from _plane_builder(n), the builder that mpa.fit
    trains with, so this is every plane a model meets in training and the
    plane it stores. Raises DegeneratePointsError when the points are
    affinely dependent, i.e. lie on a common (n-2)-flat, which drives every
    cofactor to zero.
    """
    pts = as_rows(points)
    n = pts.shape[0]
    if pts.shape[1] != n:
        raise DimensionMismatchError(
            f"need exactly n points of dimension n, got {pts.shape[0]} points "
            f"of dimension {pts.shape[1]}"
        )
    *weights, bias, _ = _plane_builder(n)(coordinate_scale(pts), *pts.tolist())
    return Hyperplane(np.array(weights), bias)


def line_from_points(e, f) -> Hyperplane:
    """Line through two distinct 2-D points: hyperplane_from_points([e, f])."""
    return hyperplane_from_points(as_rows([e, f], 2))


def signed_displacement(h: Hyperplane, x) -> float:
    """Signed perpendicular distance of x from h.

    (weights . x + bias) / ||weights||; the sign says which side of the
    hyperplane x lies on, following the orientation of the coefficients.
    Both sums are fixed-order (_affine, _normal_norm), so times the pseudo
    sign this is the lambda that mpa.fit computes at n = 2 and 3, bit for bit.
    """
    X = as_rows([x], h.dim)
    return float(_affine(X, h.weights, h.bias)[0]) / _normal_norm(h.weights, h.bias)


def _affine(X: np.ndarray, w: np.ndarray, bias: float) -> np.ndarray:
    """X @ w + bias per row of X, an as_rows array of w.size columns,
    summed column by column.

    X[:, 0]*w[0] + X[:, 1]*w[1] + ... + bias, in that order and element-wise,
    not by BLAS, so a row's value does not depend on the CPU kernel or on
    the other rows of X.
    """
    raw = X[:, 0] * w[0]
    for j in range(1, w.size):
        raw += X[:, j] * w[j]
    raw += bias
    return raw


def sides(h: Hyperplane, X) -> np.ndarray:
    """-1, 0 or +1 per row of the (m, n) array X: the sign of weights . x +
    bias, the fixed-order sum of _affine, so a row's side does not depend
    on the other rows of X. 0 means exactly on the plane, or a sum that is
    not a number (products past the float range). X is checked by as_rows.
    """
    raw = _affine(as_rows(X, h.dim), h.weights, h.bias)
    return (raw > 0).astype(int) - (raw < 0)


def region_sign(h: Hyperplane, x) -> int:
    """-1, 0, or +1: the sign of weights . x + bias at the point x (see sides)."""
    return int(sides(h, [x])[0])
