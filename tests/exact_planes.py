"""The plane through n points in exact arithmetic, a reference for the
float builders of movingpoints.geometry.

Every finite float is a dyadic rational, so fractions.Fraction holds each
coordinate, edge and cofactor exactly, and the comparisons below are
decided exactly. Nothing here shares code with the library.
"""

from __future__ import annotations

from fractions import Fraction


def det(rows: list[list[int]]) -> int:
    """The determinant of a square integer matrix, by Bareiss's
    fraction-free elimination (every division is exact); 1 for 0 x 0."""
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def exact_plane(points) -> tuple[list[Fraction], Fraction]:
    """(w, b) of the plane through the n points, rows of n finite floats.

    w . y = det([p_1 - p_0 | ... | p_{n-1} - p_0 | y]), the generalized
    cross product of the edges, so w_k = (-1)^(k + n - 1) times the minor
    of the edge matrix without coordinate k; b = -(w . p_0). This is the
    bordered determinant's first-row expansion, and the builders'
    orientation. The edges are scaled to integers by a common power of two.
    """
    pts = [[Fraction(x) for x in row] for row in points]
    n = len(pts)
    unit = max(q.denominator for row in pts for q in row)  # every denominator divides it
    edges = [[int((x - z) * unit) for x, z in zip(p, pts[0])] for p in pts[1:]]
    w = []
    for k in range(n):
        minor = [[edge[i] for edge in edges] for i in range(n) if i != k]
        w.append((-1) ** (k + n - 1) * Fraction(det(minor), unit ** (n - 1)))
    return w, -sum(wk * zk for wk, zk in zip(w, pts[0]))


def edge_norms_squared(points) -> Fraction:
    """prod_i ||p_i - p_0||^2 of the exact edges; 1 for one point."""
    p0 = [Fraction(x) for x in points[0]]
    out = Fraction(1)
    for p in points[1:]:
        out *= sum((Fraction(x) - z) ** 2 for x, z in zip(p, p0))
    return out


def refusal_ratio(n: int) -> float:
    """The Hadamard ratio at or below which the builders refuse the plane
    through n points: n * 2^-42, 2^10 times the n eps by which their
    normal errs relative to prod_i ||p_i - p_0||."""
    return n * 2.0 ** -42


def below_hadamard_bound(norm: float, points) -> bool:
    """Whether norm <= refusal_ratio(n) * prod_i ||p_i - p_0|| for the
    exact edges of the n points, compared squared, so exactly."""
    eps = Fraction(refusal_ratio(len(points)))
    return Fraction(norm) ** 2 <= eps ** 2 * edge_norms_squared(points)


def hadamard_ratio(points) -> float:
    """||w|| / prod_i ||p_i - p_0|| of the exact plane, rounded to a float;
    0.0 when two points coincide."""
    w, _ = exact_plane(points)
    edges = edge_norms_squared(points)
    return float(sum(wk * wk for wk in w) / edges) ** 0.5 if edges else 0.0
