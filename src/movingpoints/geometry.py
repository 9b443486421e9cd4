"""Vectors, hyperplanes, and the plane through n points.

A set of points is a list of rows, one point per row, with two checks
of one rule: :func:`as_rows` makes a data matrix a C-ordered (m, n)
float64 array, and :func:`float_rows` makes a model's points, a plane's
weights and the rows that :func:`sides` places lists of Python floats.
A hyperplane is stored as the coefficients of its implicit equation
``weights . x + bias = 0``, the weights a tuple of floats; no
normalization is imposed, so two coefficient sets that differ by a
nonzero scalar describe the same flat. A side is the sign of the
fixed-order sum x0*w0 + x1*w1 + ... + b (_margins), the one rule of fit,
predict and the linear baselines. Only as_rows and the elimination past
n = 16 import numpy, each when it runs.

The plane through n points p_0, ..., p_{n-1} in n dimensions is read off
the edges p_i - p_0: w . y = det([p_1 - p_0 | ... | p_{n-1} - p_0 | y])
and bias = -(w . p_0), the first-row cofactors of the bordered
determinant |x 1; p_0 1; ...; p_{n-1} 1| with p_0 moved to the origin.
The points are refused when ||w|| <= n 2^-42 prod ||p_i - p_0||: the
ratio has no unit, lies in [0, 1] (Hadamard) and bounds the builders'
relative error in w, at most 2n eps over it (eps = 2^-52), by 2^-9.
Points in general position lose ratio as n grows; past n = 35 they are
typically refused. hyperplane_from_points builds this plane for every n
with the builder that _plane_builder(n) picks: closed forms on Python
floats for n = 2 (_line_coeffs) and n = 3 (_plane3_coeffs, a cross
product), one Gaussian elimination written out per n for n <= 16
(_unrolled), and numpy's element-wise elimination past that
(_plane_coeffs). All take the points as rows, check a plane that fails
their fast test through one _recheck, and are what the loop mpa.fit
generates calls after every move, so every plane met in training is the
plane a model stores, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import chain

# np.ndarray in an annotation names numpy's array type; numpy itself is
# imported only by the functions that compute on arrays, when they run.
_RATIO_EPS = 2.0 ** -42  # 2^10 eps: the refusal ratio per point (see above)
_MAX_UNROLLED = 16  # _unrolled_source grows as n^3, to 15,000 lines at n = 32
_DEPENDENT = "points are affinely dependent and define no unique hyperplane"


class DimensionMismatchError(ValueError):
    """Operands live in different dimensions."""


class DegeneratePointsError(ValueError):
    """The points cannot define a unique hyperplane."""


class NonFinitePlaneError(ValueError):
    """A point or the plane's coefficients lie outside the float range."""


def as_rows(points, n: int | None = None) -> np.ndarray:
    """Validate and return points as a C-ordered (m, n) float64 array.

    Every row must be a point, one or more finite coordinates, n wide when
    n is given; a single point is checked as the set [point].
    DimensionMismatchError on a bad shape, ragged rows included, ValueError
    on a non-finite coordinate or one that is not a number. Zero rows pass.
    The C order makes a mean over axis 0 add the rows one after another,
    whatever the layout of the input.
    """
    import numpy as np

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
    if not np.isfinite(X).all():
        raise ValueError("point has non-finite coordinates")
    return X


def float_rows(points, n: int | None = None) -> list[list[float]]:
    """Validate and return points as a list of rows of Python floats.

    The rule of :func:`as_rows`: every row one or more finite coordinates,
    n wide when n is given; zero rows pass. Sequences are checked on Python
    floats, without numpy. An array, which numpy made, and a set that fails
    the check go to as_rows, which raises its own error for a malformed set
    (DimensionMismatchError on a bad shape, ValueError on a non-finite
    coordinate or one that is not a number), so both checks refuse alike.
    """
    rows = points
    if not hasattr(points, "tolist"):
        try:
            rows = list(points)
            out = None if str in map(type, rows) else [list(map(float, row)) for row in rows]
        except (TypeError, ValueError):
            out = None
        if out is not None and _well_formed(out, n):
            return out
    return as_rows(rows, n).tolist()


def _well_formed(rows: list, n: int | None) -> bool:
    """Whether rows, lists of floats, are one width of one or more (n when
    given) and every coordinate is finite."""
    widths = set(map(len, rows))
    return (not widths or len(widths) == 1 and 0 not in widths
            and (n is None or widths == {n})
            and all(map(math.isfinite, chain.from_iterable(rows))))


@dataclass(frozen=True)
class Hyperplane:
    """Coefficients of ``weights . x + bias = 0``: a tuple of floats and a float."""

    weights: tuple[float, ...]
    bias: float

    def __post_init__(self):
        w = tuple(float_rows([self.weights])[0])
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))
        _normal_norm(w, self.bias)

    @property
    def dim(self) -> int:
        return len(self.weights)


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
    """The checks of a plane's normal, in order: NonFinitePlaneError when
    the bias is not finite or when ||w|| is not finite (a non-finite weight
    or a norm past the float range), and DegeneratePointsError when ||w||
    is 0, so that no signed distance divides by it.
    """
    if not math.isfinite(b):
        raise NonFinitePlaneError("bias is not finite")
    if not math.isfinite(norm):
        raise NonFinitePlaneError("the norm of the hyperplane normal overflows")
    if not norm:
        raise DegeneratePointsError("hyperplane normal is zero")


def _normal_norm(weights, bias: float) -> float:
    """||weights|| (a fixed-order sum, see _dot) of a plane that passes
    :func:`_check_normal`, which raises otherwise."""
    norm = math.sqrt(_dot(weights, weights))
    _check_normal(bias, norm)
    return norm


def _hadamard_ratio(norm: float, rows) -> float:
    """norm / (||p_1 - p_0|| * ... * ||p_{n-1} - p_0||) for the points
    rows, in [0, 1] when norm is the exact ||w|| (Hadamard's inequality).

    Each edge is scaled by a power of two for math.hypot, and the quotient
    kept as a mantissa and an exponent, so that nothing on the way leaves
    the float range. 0.0 when an edge is 0; 4 or more reads as [2, 4).
    """
    ratio, exp = math.frexp(norm)
    p0 = rows[0]
    for p in rows[1:]:
        edge = [x - z for x, z in zip(p, p0)]
        top = max(map(abs, edge))
        if not top:
            return 0.0
        k = math.frexp(top)[1]
        ratio, e = math.frexp(ratio / math.hypot(*[math.ldexp(d, -k) for d in edge]))
        exp += e - k
    return math.ldexp(ratio, min(exp, 2))


def _recheck(rows, b: float, norm: float, message: str) -> None:
    """Check a builder's plane (w, b) through the points rows, in the order
    every builder documents: NonFinitePlaneError when a coordinate is not
    finite, DegeneratePointsError(message) when ||w|| is finite and its
    :func:`_hadamard_ratio` is at most n * _RATIO_EPS for the n points,
    then :func:`_check_normal`. A builder calls it only when its fast test,
    a finite bias and 0 < n * _RATIO_EPS * h < ||w|| < inf with h the
    float product of the edge norms, fails, as h past the float range and
    a non-finite coordinate always make it (a builder's docstring says
    how), so only here are the coordinates read.
    """
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise NonFinitePlaneError("point has non-finite coordinates")
    if norm < math.inf and _hadamard_ratio(norm, rows) <= len(rows) * _RATIO_EPS:
        raise DegeneratePointsError(message)
    _check_normal(b, norm)


def _line_coeffs(p1, p2) -> tuple[float, float, float, float]:
    """(w0, w1, bias, ||w||) of the line through two 2-D points, on Python floats.

    p1 = (x1, y1) and p2 = (x2, y2) are sequences of two floats.
    Coefficients are (y1 - y2, x2 - x1) with constant x1*y2 - x2*y1, read
    directly off the two-point line equation; ||w|| is sqrt(w0*w0 + w1*w1),
    which is also the distance between the points. At n = 2 the one edge
    is w turned a quarter, so the Hadamard ratio is 1 and the fast test is
    0 < ||w|| < inf with a finite bias; a line that fails it goes through
    :func:`_recheck` ("the two points coincide"). Each coordinate enters
    one difference, so a non-finite one makes ||w|| non-finite.
    """
    x1, y1 = p1
    x2, y2 = p2
    w0 = y1 - y2
    w1 = x2 - x1
    bias = x1 * y2 - x2 * y1
    norm = math.sqrt(w0 * w0 + w1 * w1)
    if not (0.0 < norm < math.inf and math.isfinite(bias)):
        _recheck((p1, p2), bias, norm, "the two points coincide")
    return w0, w1, bias, norm


def _plane3_coeffs(p1, p2, p3) -> tuple[float, float, float, float, float]:
    """(w0, w1, w2, bias, ||w||) of the plane through three 3-D points, on Python floats.

    p1, p2 and p3 are sequences of three floats. The normal is the cross
    product w = (p2 - p1) x (p3 - p1) of the edges u and v and the bias is
    -(w . p1), with the orientation of _eliminate; ||w|| is
    sqrt(w0*w0 + w1*w1 + w2*w2). The fast test takes h = ||u|| ||v||, and
    a plane that fails it goes through :func:`_recheck`. A non-finite
    coordinate makes a component of u or v non-finite, and its products
    with the other vector's two other components (x * inf and x * nan are
    never finite) make two components of w, and so ||w||, non-finite.
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
    h = math.hypot(u0, u1, u2) * math.hypot(v0, v1, v2)
    if not (0.0 < 3.0 * _RATIO_EPS * h < norm < math.inf and math.isfinite(bias)):
        _recheck((p1, p2, p3), bias, norm, _DEPENDENT)
    return w0, w1, w2, bias, norm


def _eliminate(edges) -> list[float]:
    """The normal w of the plane through p_0 and p_0 + each of the n - 1
    edges, rows of n floats: the left null vector c of A = edges^T, n x
    (n - 1), scaled so that c . y = det([A | y]).

    Gaussian elimination with partial pivoting gives Pi A = L U; c is
    Pi^T of d * (last row of L^-1), where d is the sign of Pi times the
    product of the pivots, and is read by back substitution with _dot.
    Element-wise numpy and _dot only, so no bit comes from BLAS. A pivot
    of exactly 0.0 means A has rank below n - 1, and every entry is 0.0.
    Floating-point warnings are off, as the Python-float builders raise
    none; the builders' test refuses what does not stay finite.
    """
    import numpy as np

    a = np.array(edges, dtype=float).T.copy()
    n = a.shape[0]
    order = list(range(n))
    det = 1.0
    with np.errstate(all="ignore"):
        for col in range(n - 1):
            row = col + int(np.abs(a[col:, col]).argmax())
            if row != col:
                a[[col, row]] = a[[row, col]]
                order[col], order[row] = order[row], order[col]
                det = -det
            p = float(a[col, col])
            if p == 0.0:
                return [0.0] * n
            det *= p
            a[col + 1:, col + 1:] -= (a[col + 1:, col] / p)[:, None] * a[col, col + 1:]
    # a[k+1:, k] is column k of L times pivot k: divide once per entry of c.
    c = [det]
    for k in range(n - 2, -1, -1):
        c.insert(0, -_dot(a[k + 1:, k].tolist(), c) / float(a[k, k]))
    return [ck for _, ck in sorted(zip(order, c))]  # c[k] belongs to row order[k]


def _unrolled_source(n: int) -> str:
    """plane(r0, ...), the plane builder for one n on Python floats: the
    edges r_i - r0, their norms' product h, _eliminate written out, b =
    -(w . r0) and ||w|| in _dot's order, and the builders' one fast test,
    checking a plane that fails it via _recheck.

    a{r}_{k} is entry (r, k) of the edge matrix A (coordinate r of edge
    k + 1) and o{r} the coordinate row now in row r; every product,
    quotient and sum is _eliminate's, in its order. A pivot search keeps
    the first largest |entry|, as argmax does, and a row swap is one tuple
    assignment. argmax would take a NaN candidate first, which this search
    passes over; but a NaN candidate always ends in a zero pivot or a
    non-finite cofactor, and either hands the call to _plane_coeffs, so
    every plane returned has _eliminate's bits. A non-finite cofactor
    always fails the test, so only then are they read.
    """
    ks, cols, a = range(n), range(n - 1), "a{}_{}".format
    args, w = (", ".join(f"{v}{k}" for k in ks) for v in "rw")
    numpy_path = f"return _plane_coeffs({args})"
    lines = [f"def plane({args}):", f"    {''.join(f'z{i}, ' for i in ks)}= r0"]
    for k in cols:
        lines.append(f"    {''.join(f'q{i}, ' for i in ks)}= r{k + 1}")
        lines += [f"    {a(i, k)} = q{i} - z{i}" for i in ks]
    norms = (f"math.hypot({', '.join(a(i, k) for i in ks)})" for k in cols)
    lines += [f"    h = {' * '.join(norms) or '1.0'}",
              f"    {''.join(f'o{r}, ' for r in ks)}= {', '.join(map(str, ks))},",
              "    det = 1.0"]
    for col in cols:
        below = range(col + 1, n)
        lines.append(f"    m = {col}\n    best = abs({a(col, col)})")
        lines += [f"    v = abs({a(r, col)})\n    if v > best:\n        m = {r}\n        best = v"
                  for r in below]
        for r in below:
            top, other = ([*(a(i, k) for k in cols), f"o{i}"] for i in (col, r))
            lines.append(f"    {'if' if r == col + 1 else 'elif'} m == {r}:\n"
                         f"        {', '.join(top + other)} = {', '.join(other + top)}\n"
                         "        det = -det")
        lines.append(f"    p = {a(col, col)}\n    if p == 0.0:\n        {numpy_path}\n"
                     "    det *= p")
        right = range(col + 1, n - 1)  # empty for the last column: nothing is left to reduce
        for r in below if right else ():
            lines.append(f"    l = {a(r, col)} / p")
            lines += [f"    {a(r, k)} -= l * {a(col, k)}" for k in right]
    lines.append(f"    c{n - 1} = det")
    for k in reversed(cols):
        terms = " + ".join(f"{a(r, k)} * c{r}" for r in range(k + 1, n))
        lines.append(f"    c{k} = -({terms}) / {a(k, k)}")
    lines += [f"    out = [0.0] * {n}", *(f"    out[o{r}] = c{r}" for r in ks),
              f"    {w}, = out",
              f"    b = -({' + '.join(f'w{k} * z{k}' for k in ks)})",
              f"    norm = math.sqrt({' + '.join(f'w{k} * w{k}' for k in ks)})",
              f"    if not (0.0 < {n * _RATIO_EPS!r} * h < norm < math.inf and math.isfinite(b)):",
              f"        if not math.isfinite({' + '.join(f'c{r}' for r in ks)}):",
              f"            {numpy_path}",
              f"        _recheck(({args},), b, norm, _DEPENDENT)",
              f"    return {w}, b, norm"]
    return "\n".join(lines) + "\n"


def _generated(*names: str, maxsize: int = 32):
    """Decorator for source(n), a function that writes Python text for one
    n: the decorated function returns what that text defines under names,
    one object or a tuple of them. It compiles the text in source's module
    globals on the first call for each n, so importing builds nothing, and
    lru_cache keeps the last maxsize n. Every loop generated per n is built
    here: the plane (_unrolled), the side rule's sum (_margins), mpa's
    training loop and the baselines'."""
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


def _plane_coeffs(*rows) -> tuple[float, ...]:
    """(w0, ..., w_{n-1}, bias, ||w||) of the plane through the n points
    rows, lists of n Python floats: _eliminate's normal of the edges
    r_i - r_0, b = -(w . r_0) and ||w|| in _dot's order. The builder past
    _MAX_UNROLLED, and of the points the unrolled one hands on.

    The fast test takes h, the product of the edge norms (math.hypot) from
    the first, and a plane that fails it goes through :func:`_recheck`. A
    non-finite coordinate fails that test: a NaN one makes h NaN, and an
    infinite one makes it infinite or NaN.
    """
    p0 = rows[0]
    edges = [[x - z for x, z in zip(p, p0)] for p in rows[1:]]
    w = _eliminate(edges)
    b = -_dot(w, p0)
    norm = math.sqrt(_dot(w, w))
    h = math.prod(math.hypot(*edge) for edge in edges)
    if not (0.0 < len(rows) * _RATIO_EPS * h < norm < math.inf and math.isfinite(b)):
        _recheck(rows, b, norm, _DEPENDENT)
    return (*w, b, norm)


def _plane_builder(n: int):
    """The builder of the plane through n points in n dimensions:
    _line_coeffs at n = 2, _plane3_coeffs at n = 3, _unrolled(n) up to
    _MAX_UNROLLED and _plane_coeffs past it. Each maps the points, given
    as rows, to (w0, ..., w_{n-1}, bias, ||w||), and checks a plane that
    fails its fast test through _recheck."""
    return ({2: _line_coeffs, 3: _plane3_coeffs}.get(n)
            or (_unrolled(n) if n <= _MAX_UNROLLED else _plane_coeffs))


def hyperplane_from_points(points) -> Hyperplane:
    """Hyperplane through n points in n dimensions (the edges p_i - p_0).

    The coefficients come from _plane_builder(n), the builder that mpa.fit
    trains with, so this is every plane a model meets in training and the
    plane it stores. Raises DegeneratePointsError when the points are
    affinely dependent, i.e. lie on a common (n-2)-flat, or so nearly that
    ||w|| <= n 2^-42 prod ||p_i - p_0|| (as 3 of 20 Gaussian draws at n = 32
    are, 14 at n = 36 and all at n = 40), and NonFinitePlaneError when a
    coefficient or ||w|| is not finite.
    """
    pts = float_rows(points)
    n = len(pts)
    if not pts or len(pts[0]) != n:
        raise DimensionMismatchError(
            f"need exactly n points of dimension n, got {n} points "
            f"of dimension {len(pts[0]) if pts else 0}"
        )
    *weights, bias, _ = _plane_builder(n)(*pts)
    return Hyperplane(tuple(weights), bias)


def line_from_points(e, f) -> Hyperplane:
    """Line through two distinct 2-D points: hyperplane_from_points([e, f])."""
    return hyperplane_from_points(float_rows([e, f], 2))


@_generated("margins")
def _margins(n: int):
    """margins(rows, w0, ..., w{n-1}, b): the list of x0*w0 + x1*w1 + ...
    + b for the rows of n Python floats, summed in that order (_dot's,
    then + b): no BLAS kernel and no fused multiply-add, so a row's value
    does not depend on the CPU or on the other rows. The margin of fit's
    loop is spelled the same."""
    xs, ws = (", ".join(f"{v}{k}" for k in range(n)) for v in "xw")
    terms = " + ".join(f"x{k} * w{k}" for k in range(n))
    return (f"def margins(rows, {ws}, b):\n"
            f"    return [{terms} + b for {xs}{',' if n == 1 else ''} in rows]\n")


def signed_displacement(h: Hyperplane, x) -> float:
    """Signed perpendicular distance of x from h.

    (weights . x + bias) / ||weights||; the sign says which side of the
    hyperplane x lies on, following the orientation of the coefficients.
    Both sums are fixed-order (_margins, _normal_norm), so times the pseudo
    sign this is the lambda that mpa.fit computes at every n, bit for bit.
    """
    raw, = _margins(h.dim)(float_rows([x], h.dim), *h.weights, h.bias)
    return raw / _normal_norm(h.weights, h.bias)


def sides(h: Hyperplane, X) -> list[int]:
    """-1, 0 or +1 per row of X: the sign of weights . x + bias, the
    fixed-order sum of _margins, so a row's side does not depend on the
    other rows of X. 0 means exactly on the plane, or a sum that is not a
    number (products past the float range). X is checked by float_rows.
    """
    return [(raw > 0.0) - (raw < 0.0)
            for raw in _margins(h.dim)(float_rows(X, h.dim), *h.weights, h.bias)]


def region_sign(h: Hyperplane, x) -> int:
    """-1, 0, or +1: the sign of weights . x + bias at the point x (see sides)."""
    return sides(h, [x])[0]
