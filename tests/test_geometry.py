"""Geometry checks: hand-worked values plus numpy oracles."""

import inspect
import json
import math
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from exact_planes import below_hadamard_bound, exact_plane, hadamard_ratio, refusal_ratio
from movingpoints import geometry
from movingpoints.cli import RefuseNon2DError, render_scatter_svg
from movingpoints.geometry import (
    DegeneratePointsError,
    DimensionMismatchError,
    Hyperplane,
    NonFinitePlaneError,
    _line_coeffs,
    _plane3_coeffs,
    as_rows,
    float_rows,
    hyperplane_from_points,
    line_from_points,
    region_sign,
    sides,
    signed_displacement,
)
from movingpoints.baselines import (
    PerceptronModel,
    knn_fit,
    knn_predict_many,
    linear_predict_many,
    linear_svm_fit,
    perceptron_fit,
)
from movingpoints.datasets import Dataset, make_blobs
from movingpoints.mpa import (
    MpaConfig,
    MpaModel,
    model_document,
    parse_model_document,
    predict_many,
    train,
)
from movingpoints.rng import SplitMix64


def projection_distance(h: Hyperplane, x) -> float:
    """Independent route: project x onto the plane, return signed length."""
    x = np.asarray(x, dtype=float)
    w = np.array(h.weights)
    raw = float(w @ x + h.bias)
    foot = x - (raw / float(w @ w)) * w
    return np.sign(raw) * float(np.linalg.norm(x - foot))


class TestLineFromPoints:
    def test_diagonal(self):
        h = line_from_points((0, 0), (1, 1))
        np.testing.assert_array_equal(h.weights, [-1.0, 1.0])
        assert h.bias == 0.0

    def test_vertical(self):
        h = line_from_points((0, 0), (0, 1))
        np.testing.assert_array_equal(h.weights, [-1.0, 0.0])
        assert h.bias == 0.0

    def test_generic(self):
        h = line_from_points((1, 2), (3, 5))
        np.testing.assert_array_equal(h.weights, [-3.0, 2.0])
        assert h.bias == -1.0
        # both defining points must satisfy -3x + 2y - 1 = 0
        assert -3 * 1 + 2 * 2 - 1 == 0
        assert -3 * 3 + 2 * 5 - 1 == 0

    def test_coincident_points_degenerate(self):
        with pytest.raises(DegeneratePointsError):
            line_from_points((2, 2), (2, 2))

    @pytest.mark.parametrize("e", [(np.inf, 0.0), (0.0, -np.inf), (np.nan, 1.0)])
    def test_non_finite_point_is_not_degenerate(self, e):
        # A point moved to infinity fails as non-finite; it is not a
        # coincidence to revert.
        with pytest.raises(ValueError) as info:
            _line_coeffs(e, (0.0, 1.0))
        assert type(info.value) is NonFinitePlaneError


class TestHyperplaneFromPoints:
    def test_matches_2d_closed_form_up_to_scalar(self):
        ha = hyperplane_from_points([(0, 0), (1, 1)])
        hb = line_from_points((0, 0), (1, 1))
        ca = np.append(ha.weights, ha.bias)
        cb = np.append(hb.weights, hb.bias)
        k = ca[np.argmax(np.abs(cb))] / cb[np.argmax(np.abs(cb))]
        np.testing.assert_allclose(ca, k * cb, atol=1e-12)

    def test_unit_simplex_plane(self):
        h = hyperplane_from_points([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        coeffs = np.append(h.weights, h.bias)
        want = np.array([1.0, 1.0, 1.0, -1.0])
        k = coeffs[0] / want[0]
        np.testing.assert_allclose(coeffs, k * want, atol=1e-12)

    def test_collinear_3d_degenerate(self):
        with pytest.raises(DegeneratePointsError):
            hyperplane_from_points([(0, 0, 0), (1, 0, 0), (2, 0, 0)])

    def test_wrong_count_rejected(self):
        with pytest.raises(DimensionMismatchError):
            hyperplane_from_points([(0, 0, 0), (1, 1, 0)])

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatchError):
            hyperplane_from_points([(0, 0, 0), (1, 1, 0), (1, 0)])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_defining_points_lie_on_plane(self, n):
        stream = SplitMix64(500 + n)
        for _ in range(60):
            pts = 10.0 * stream.normals(n * n).reshape(n, n)
            try:
                h = hyperplane_from_points(pts)
            except DegeneratePointsError:
                continue  # vanishingly rare for gaussian draws
            scale = float(np.abs(pts).max())
            for p in pts:
                assert abs(signed_displacement(h, p)) <= 1e-9 * scale

    def test_scalar_agreement_random_2d(self):
        stream = SplitMix64(77)
        for _ in range(200):
            e, f = stream.normals(4).reshape(2, 2)
            ha = hyperplane_from_points([e, f])
            hb = line_from_points(e, f)
            ca = np.append(ha.weights, ha.bias)
            cb = np.append(hb.weights, hb.bias)
            # cross products of coefficient pairs vanish iff proportional
            for i in range(3):
                for j in range(i + 1, 3):
                    assert abs(ca[i] * cb[j] - ca[j] * cb[i]) <= 1e-9 * (
                        1.0 + np.abs(ca).max() * np.abs(cb).max()
                    )


def oracle_determinant(matrix) -> float:
    """One matrix at a time, row by row: the reference elimination."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    det = 1.0
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0.0:
            return 0.0
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            det = -det
        det *= a[col, col]
        for row in range(col + 1, n):
            a[row, col:] -= (a[row, col] / a[col, col]) * a[col, col:]
    return det


def oracle_plane(points) -> SimpleNamespace:
    """The bordered-determinant plane with one elimination per minor, as
    weights and bias, refused by the builders' rule decided on the exact
    plane: a Hadamard ratio ||w|| / prod ||p_i - p_0|| of at most
    refusal_ratio(n). The untranslated minors lose a plane whose edges are
    small against the coordinates (one of 1e-38 beside coordinates of 1
    came out 0.0), so their own norm cannot decide."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if pts.shape != (n, n):
        raise DimensionMismatchError(f"got shape {pts.shape}")
    if hadamard_ratio(pts.tolist()) <= refusal_ratio(n):
        raise DegeneratePointsError("affinely dependent")
    bordered = np.hstack([pts, np.ones((n, 1))])
    coeffs = np.empty(n + 1)
    for col in range(n + 1):
        minor = np.delete(bordered, col, axis=1)
        coeffs[col] = (-1.0) ** col * oracle_determinant(minor)
    return SimpleNamespace(weights=coeffs[:n], bias=coeffs[n])


@st.composite
def point_sets(draw, dims=st.integers(2, 8)):
    """n points in n dimensions, shaped to hit the kernel's edge cases.

    Small-integer coordinates give exactly zero pivots and exactly
    singular minors; a constant column and a duplicated point make
    minors singular by construction.
    """
    n = draw(dims)
    shape = draw(st.sampled_from(["plain", "constant_column", "small_int", "duplicate"]))
    if shape == "small_int":
        return draw(hnp.arrays(np.float64, (n, n), elements=st.integers(-2, 2)))
    scale = 10.0 ** draw(st.integers(-6, 6))
    pts = scale * draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
    if shape == "constant_column":
        pts[:, draw(st.integers(0, n - 1))] = scale * draw(st.floats(-1.0, 1.0))
    elif shape == "duplicate":
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        pts[j] = pts[i]
    return pts


def plane_outcome(build, pts):
    """The coefficients (w, b) of the plane, or the type of the exception raised."""
    try:
        h = build(pts)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)
    return np.append(h.weights, h.bias)


def closed_form_plane3(pts) -> Hyperplane:
    rows = np.asarray(pts, dtype=float).tolist()
    w0, w1, w2, b, norm = _plane3_coeffs(*rows)
    assert norm == np.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    return Hyperplane(np.array([w0, w1, w2]), b)


def assert_matches_oracle(pts, build=hyperplane_from_points):
    """Same outcome type, and coefficients that agree to 1e-9 of max|c| plus
    n * eps times the size of the products each is summed from: s^(n-1) for
    a weight and s^n for the bias, s = max|p|. The second term is the
    rounding of cancelling sums, and scales with the points as the
    coefficients do. A builder's ||w|| is the root of a sum of squares,
    which reads 0 for a normal below about 2^-537, and such a plane is
    refused; so point sets whose exact normal is that small are left out.
    """
    w_exact, _ = exact_plane(np.asarray(pts, dtype=float).tolist())
    assume(not 0 < max(map(abs, w_exact)) < 2.0 ** -500)
    got, want = plane_outcome(build, pts), plane_outcome(oracle_plane, pts)
    if isinstance(want, type):
        assert got is want
    else:
        assert not isinstance(got, type), got
        n, s = len(pts), float(np.abs(pts).max())
        terms = np.append(np.full(n, s ** (n - 1)), s ** n)
        tol = 1e-9 * np.abs(want).max() + n * np.finfo(float).eps * terms
        assert np.all(np.abs(got - want) <= tol), (got - want, tol)


# n = 6 with max|c| = 0.088 from products of size 10^5 (weights) and 10^6
# (bias): against exact cofactors the elimination is 1.14e-10 off in the
# bias and the oracle 2.5e-11, so the two differ by 8.9e-11, just above
# 1e-9 * max|c| alone.
_A = 1.192092896e-06
CANCELLING_SET = np.array([
    [10, _A, _A, -10, _A, 7.3828125], [10, _A, _A, _A, _A, _A], [10, _A, 10, _A, _A, _A],
    [10, _A, _A, 0, _A, _A], [10, _A, _A, _A, 10, _A], [10, 10, _A, _A, _A, _A]])


class TestEliminationMatchesPerMinorOracle:
    """One elimination of the edges gives the cofactors of the per-minor loop."""

    @settings(max_examples=300, deadline=None)
    @given(point_sets())
    @example(CANCELLING_SET)
    def test_matches_per_minor_oracle(self, pts):
        assert_matches_oracle(pts)

    @settings(max_examples=12, deadline=None)
    @given(point_sets(dims=st.just(16)))
    def test_matches_per_minor_oracle_n16(self, pts):
        assert_matches_oracle(pts)

    @settings(max_examples=300, deadline=None)
    @given(point_sets())
    def test_plane_passes_through_its_points(self, pts):
        try:
            h = hyperplane_from_points(pts)
        except DegeneratePointsError:
            return
        w, b = h.weights, h.bias
        residual = np.abs(pts @ w + b).max()
        assert residual <= 1e-12 * (np.abs(pts).max() * np.linalg.norm(w) + abs(b))

    # A Gaussian draw at n = 32 has a Hadamard ratio of about 5e-10, above
    # the refusal ratio 32 * 2^-42 = 7.3e-12, so its plane is built.
    def test_gaussian_points_at_n32_build(self):
        pts = SplitMix64(32).normals(32 * 32).reshape(32, 32)
        assert 1e-10 < hadamard_ratio(pts.tolist()) < 1e-9
        h = hyperplane_from_points(pts)
        assert np.all(np.isfinite(h.weights)) and math.isfinite(h.bias)

    @pytest.mark.parametrize("p", [49.0, -7.0, 0.3, 0.0])  # 49 * (1/49) != 1
    def test_one_point_plane_is_x_minus_p(self, p):
        h = hyperplane_from_points([[p]])
        assert h.weights == (1.0,) and h.bias == -p


class TestBuildersMatchExactPlane:
    """Every builder against the exact plane (exact_planes). With H the
    product of the exact edge norms ||p_i - p_0||, the normal is within
    2n eps H of the exact one: a relative error of at most 2n eps over the
    Hadamard ratio ||w*|| / H, however far the points lie from the origin.
    The bias -(w . p_0) of n != 2 is within 3n eps H ||p_0||, that of
    n = 2, x1*y2 - x2*y1, within 2 eps of its two products. A builder
    refuses only points whose exact ratio is at most twice its refusal
    ratio n 2^-42 (refusal_ratio), and builds the plane of every ratio
    above half of it."""

    # Gaussian points, translated by up to 1e6 and scaled by 2^k, and sets
    # whose last point lies within 10^-flat of the line through the first
    # two, which makes ratios from about 1 down to 1e-15.
    @settings(max_examples=300, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 16]), k=st.integers(-40, 40),
           offset=st.sampled_from([0.0, 1e3, 1e6]), flat=st.sampled_from([None, 3, 6, 9, 12, 15]),
           seed=st.integers(0, 2**64 - 1))
    @example(n=16, k=40, offset=1e6, flat=None, seed=0)
    @example(n=8, k=0, offset=1e6, flat=9, seed=1)
    def test_within_eps_over_the_hadamard_ratio(self, n, k, offset, flat, seed):
        stream = SplitMix64(seed)
        pts = stream.normals(n * n).reshape(n, n) + offset * stream.normals(n)
        if flat is not None and n >= 3:
            pts[-1] = pts[0] + 0.37 * (pts[1] - pts[0]) + 10.0 ** -flat * stream.normals(n)
        rows = (pts * 2.0 ** (k if n <= 8 else k // 2)).tolist()  # no ||w||^2 past the range
        ratio = hadamard_ratio(rows)
        try:
            *w, b, _ = geometry._plane_builder(n)(*rows)
        except DegeneratePointsError:
            assert ratio <= 2 * refusal_ratio(n)
            return
        assert ratio > refusal_ratio(n) / 2
        w_exact, b_exact = exact_plane(rows)
        eps = np.finfo(float).eps
        h = math.prod(math.dist(p, rows[0]) for p in rows[1:])
        dw = math.sqrt(float(sum((Fraction(x) - y) ** 2 for x, y in zip(w, w_exact))))
        assert dw <= 2 * n * eps * h
        db = abs(float(Fraction(b) - b_exact))
        if n == 2:
            (x1, y1), (x2, y2) = rows
            assert db <= 2 * eps * (abs(x1 * y2) + abs(x2 * y1))
        else:
            assert db <= 3 * n * eps * h * math.hypot(*rows[0])


def left_sum(values) -> float:
    """values[0] + values[1] + ..., left to right, with no compensation."""
    total = values[0]
    for v in values[1:]:
        total += v
    return total


class TestUnrolledEliminationMatchesNumpy:
    """The builder written out per n (geometry._unrolled, which
    _plane_builder returns) gives the plane of the numpy one
    (geometry._plane_coeffs) bit for bit, or raises its error."""

    # Scales 2^-1000..2^1000 reach subnormal products and products, pivot
    # products included, that overflow to inf and then NaN. A zero
    # coordinate makes a row of the edge matrix that stays 0.0, small integers
    # and a duplicated point make exact zero pivots, and an infinite or NaN
    # coordinate exercises argmax's rule that the first NaN is the largest.
    @settings(max_examples=400, deadline=None)
    @given(n=st.integers(4, 16), exponent=st.integers(-1000, 1000),
           shape=st.sampled_from(["plain", "zero_coordinate", "duplicate", "small_int",
                                  "non_finite"]), data=st.data())
    @example(n=4, exponent=0, shape="zero_coordinate", data=None)
    @example(n=16, exponent=1000, shape="plain", data=None)
    def test_bit_identical(self, n, exponent, shape, data):
        if data is None:  # the examples: a fixed draw of each shape
            pts = SplitMix64(n).normals(n * n).reshape(n, n)
        else:
            pts = data.draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
        pts = pts * 2.0 ** exponent
        if shape == "zero_coordinate":
            pts[:, n // 2] = 0.0
        elif shape == "duplicate":
            pts[-1] = pts[0]
        elif shape == "small_int":
            pts = np.round(pts / 2.0 ** exponent * 2.0)
        elif shape == "non_finite":
            pts[n // 3, n // 2] = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        rows = pts.tolist()
        assert geometry._plane_builder(n) is geometry._unrolled(n)
        want = coeffs_outcome(geometry._plane_coeffs, rows)
        assert coeffs_outcome(geometry._plane_builder(n), rows) == want

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_gaussian_points_take_the_unrolled_path(self, n, monkeypatch):
        pts = SplitMix64(n).normals(n * n).reshape(n, n)
        want = geometry._plane_coeffs(*pts.tolist())

        def numpy_path(*args):
            raise AssertionError("the unrolled builder handed the points on")

        monkeypatch.setattr(geometry, "_plane_coeffs", numpy_path)
        got = geometry._unrolled(n)(*pts.tolist())
        assert got == want and list(got[:-2]) == geometry._eliminate(pts[1:] - pts[0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("n", [4, 8])
    def test_non_finite_point_is_not_degenerate(self, n, bad):
        # Two equal points give a zero edge, so an exact zero pivot at the
        # first step, before the elimination reaches the last point's bad
        # coordinate: every cofactor is 0.0, and the coordinate is still
        # what is refused.
        pts = SplitMix64(n).normals(n * n).reshape(n, n)
        pts[:2] = 2.0
        pts[n - 1, n - 1] = bad
        with np.errstate(all="ignore"):
            assert geometry._eliminate(pts[1:] - pts[0]) == [0.0] * n
        with pytest.raises(ValueError) as info:
            geometry._plane_coeffs(*pts.tolist())
        assert type(info.value) is NonFinitePlaneError
        assert str(info.value) == "point has non-finite coordinates"


class TestPlane3ClosedForm:
    """The cross-product plane of three 3-D points against the per-minor oracle."""

    @settings(max_examples=300, deadline=None)
    @given(point_sets(dims=st.just(3)))
    def test_matches_per_minor_oracle(self, pts):
        assert_matches_oracle(pts, build=closed_form_plane3)

    def test_unit_simplex_orientation(self):
        pts = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
        assert _plane3_coeffs(*pts) == (1.0, 1.0, 1.0, -1.0, np.sqrt(3.0))
        h = hyperplane_from_points(pts)
        assert np.append(h.weights, h.bias).tolist() == [1.0, 1.0, 1.0, -1.0]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", [0, 4, 8])
    def test_non_finite_point_is_not_degenerate(self, bad, where):
        coords = [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0]
        coords[where] = bad
        with pytest.raises(ValueError) as info:
            _plane3_coeffs(coords[:3], coords[3:6], coords[6:])
        assert type(info.value) is NonFinitePlaneError

    def test_overflowing_bias_is_not_finite(self):
        # Finite points whose coefficients overflow: both constructions
        # raise NonFinitePlaneError, not DegeneratePointsError.
        pts = [(1e120, 1e120, 1e120), (1e120, -1e120, 0.0), (0.0, 1e120, -1e120)]
        for build in (closed_form_plane3, hyperplane_from_points):
            with pytest.raises(ValueError) as info:
                build(pts)
            assert type(info.value) is NonFinitePlaneError

    @pytest.mark.parametrize("pts, error", [
        pytest.param(1e200 * np.eye(3), NonFinitePlaneError, id="n3-1e200-not-finite"),
        pytest.param(1e50 * np.eye(8), NonFinitePlaneError, id="n8-1e50-not-finite"),
        pytest.param(np.diag([1e45] + [1.0] * 7), DegeneratePointsError, id="n8-1e45-nearly-flat"),
    ])
    def test_large_coordinates_refused(self, pts, error):
        # Coefficients that overflow are not finite. The points of
        # n8-1e45 are finite, but all seven edges point within 1e-45 of
        # the first axis: the Hadamard ratio is about 1e-270.
        pts = np.asarray(pts, dtype=float)
        for build in [hyperplane_from_points] + [closed_form_plane3] * (len(pts) == 3):
            with pytest.raises(ValueError) as info:
                build(pts)
            assert type(info.value) is error

    @pytest.mark.parametrize("offset", [1e155, 1e200, 1e300])
    @pytest.mark.parametrize("n", [3, 8])
    def test_plane_far_from_the_origin(self, n, offset):
        # The plane x0 = offset through unit edges: its Hadamard ratio is 1
        # however far out it lies, so it is built, with bias -w0 * offset.
        pts = np.zeros((n, n))
        pts[:, 0] = offset
        pts[1:, 1:] = np.eye(n - 1)
        for build in [hyperplane_from_points] + [closed_form_plane3] * (n == 3):
            h = build(pts)
            assert np.abs(h.weights).tolist() == [1.0] + [0.0] * (n - 1)
            assert h.bias == -h.weights[0] * offset


class TestNormPastFloatRange:
    # Finite coefficients whose ||w|| overflows: every signed distance
    # would read 0. Each builder refuses the plane with a plain ValueError,
    # as it refuses coefficients that are not finite.
    @pytest.mark.parametrize("build, args", [
        pytest.param(_plane3_coeffs, [(0, 0, 0), (0, 1e155, 0), (0, 0, 1e147)], id="plane3"),
        pytest.param(_line_coeffs, [(0, 0), (1e155, 0)], id="line"),
        # The plane x3 = 0 through points of scale 1e40, one of them moved
        # out to 1e100: w = (0, 0, 0, 3e180).
        pytest.param(lambda *pts: geometry._plane_coeffs(*[list(p) for p in pts]),
                     [(1e40, 0, 0, 0), (0, 1e40, 0, 0), (-1e40, -1e40, 0, 0), (0, 0, 1e100, 0)],
                     id="plane_coeffs"),
        pytest.param(lambda *pts: hyperplane_from_points(pts), [(0, 0), (1e155, 0)],
                     id="hyperplane_from_points"),
        pytest.param(lambda *pts: line_from_points(*pts), [(0, 0), (1e155, 0)],
                     id="line_from_points"),
        pytest.param(lambda w: Hyperplane(np.array(w), 0.0), [[1e155, 1e155]], id="Hyperplane"),
    ])
    def test_refused_as_not_finite(self, build, args):
        with pytest.raises(ValueError, match="the norm of the hyperplane normal overflows") \
                as info:
            build(*args)
        assert type(info.value) is NonFinitePlaneError

    @pytest.mark.parametrize("scale", [1e153, 1e100])
    def test_finite_norm_keeps_its_bits(self, scale):
        # ||w|| = 1e306 and 1e200: below the float range, built as before
        pts = [(0.0, 0.0), (scale, 0.0)]
        assert _line_coeffs(*pts) == (0.0, scale, 0.0, scale)

    # Finite points whose first edge has a norm past the float range
    # (2e308), as has the product of the edge norms in floats, while
    # ||w|| = 0.55: the ratio is taken without overflow, and with
    # orthogonal edges (ratio 1) the plane is built, w = 1.4e308 * 2^-1025
    # times (1, -1, 0, ...) up to sign.
    @pytest.mark.parametrize("n", [3, 4, 8, 20])
    def test_edge_norm_past_float_range(self, n):
        pts = np.zeros((n, n))
        pts[1, :2] = 1.4e308
        pts[2, 2] = 2.0 ** -1025
        pts[3:, 3:] = np.eye(n - 3)
        h = hyperplane_from_points(pts)
        assert np.abs(h.weights).tolist() == [1.4e308 * 2.0 ** -1025] * 2 + [0.0] * (n - 2)
        assert h.bias == 0.0


def frozen_checks(rows, bias, norm, message):
    """The builders' checks after the coordinates', in their documented
    order: DegeneratePointsError(message) when ||w|| is finite and at most
    n 2^-42 times the product of the edge norms, decided on the
    exact edges; then a bias that is not finite and a norm that is not
    finite (NonFinitePlaneError), and a zero norm."""
    if norm < math.inf and below_hadamard_bound(norm, rows):
        raise DegeneratePointsError(message)
    if not math.isfinite(bias):
        raise NonFinitePlaneError("bias is not finite")
    if not math.isfinite(norm):
        raise NonFinitePlaneError("the norm of the hyperplane normal overflows")
    if norm == 0.0:
        raise DegeneratePointsError("hyperplane normal is zero")


def frozen_coordinates(rows):
    if not all(math.isfinite(c) for row in rows for c in row):
        raise NonFinitePlaneError("point has non-finite coordinates")


def frozen_line_coeffs(p1, p2):
    """_line_coeffs as it would be if it tested every coordinate first."""
    frozen_coordinates([p1, p2])
    x1, y1 = p1
    x2, y2 = p2
    w0 = y1 - y2
    w1 = x2 - x1
    norm = math.sqrt(w0 * w0 + w1 * w1)
    bias = x1 * y2 - x2 * y1
    frozen_checks([p1, p2], bias, norm, "the two points coincide")
    return w0, w1, bias, norm


def frozen_plane3_coeffs(p1, p2, p3):
    """_plane3_coeffs as it would be if it tested every coordinate first."""
    frozen_coordinates([p1, p2, p3])
    a0, a1, a2 = p1
    b0, b1, b2 = p2
    c0, c1, c2 = p3
    u0, u1, u2 = b0 - a0, b1 - a1, b2 - a2
    v0, v1, v2 = c0 - a0, c1 - a1, c2 - a2
    w0 = u1 * v2 - u2 * v1
    w1 = u2 * v0 - u0 * v2
    w2 = u0 * v1 - u1 * v0
    norm = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    bias = -(w0 * a0 + w1 * a1 + w2 * a2)
    frozen_checks([p1, p2, p3], bias, norm,
                  "points are affinely dependent and define no unique hyperplane")
    return w0, w1, w2, bias, norm


def frozen_plane_coeffs(*rows):
    """_plane_coeffs with its checks in the documented order, the
    coordinates tested first: then _eliminate's normal of the edges,
    b = -(w . p_0), and the checks of frozen_checks."""
    frozen_coordinates(rows)
    pts = np.array(rows)
    with np.errstate(all="ignore"):
        w = geometry._eliminate(pts[1:] - pts[0])
    norm = math.sqrt(left_sum([wk * wk for wk in w]))
    b = -left_sum([wk * zk for wk, zk in zip(w, rows[0])])
    frozen_checks(rows, b, norm, "points are affinely dependent and define no unique hyperplane")
    return (*w, b, norm)


def coeffs_outcome(build, pts):
    """The coefficients' bits, or the class and message of the error raised,
    of build(*pts)."""
    try:
        with np.errstate(all="ignore"):
            return [c.hex() for c in build(*pts)]
    except ValueError as exc:
        return type(exc), str(exc)


BUILDERS = {2: (_line_coeffs, frozen_line_coeffs), 3: (_plane3_coeffs, frozen_plane3_coeffs),
            4: (geometry._plane_builder(4), frozen_plane_coeffs),
            8: (geometry._plane_builder(8), frozen_plane_coeffs)}
DISTINCT = {2: [[0.5, -1.0], [2.0, 3.0]], 3: [[0.5, -1.0, 0.0], [2.0, 3.0, 1.0], [-1.0, 0.0, 4.0]],
            4: SplitMix64(4).normals(16).reshape(4, 4).tolist(),
            8: SplitMix64(8).normals(64).reshape(8, 8).tolist()}


def corner_simplex(n, offset, step):
    """A corner at offset in every coordinate, and the corner moved by step
    along each of the first n - 1 axes."""
    return [[offset + step * (k == i) for k in range(n)] for i in range(-1, n - 1)]


def deferred_check_cases():
    """(n, points, id): each non-finite value in each coordinate of distinct
    and of coincident points, finite points whose terms overflow, and
    planes far from the origin, which no rule without a unit refuses."""
    for n, base in DISTINCT.items():
        yield n, base, f"n{n}-finite"
        yield n, [base[0]] * n, f"n{n}-coincident"
        for bad in (math.inf, -math.inf, math.nan):
            for shape, pts in (("distinct", base), ("coincident", [base[0]] * n)):
                for k in range(n * n):
                    rows = [list(p) for p in pts]
                    rows[k // n][k % n] = bad
                    yield n, rows, f"n{n}-{shape}-{bad}-at-{k}"
    big = 1e308
    yield 2, [[big, 0.0], [-big, 0.0]], "n2-difference-overflows"
    yield 2, [[0.0, -big], [1.0, big]], "n2-difference-overflows-both"
    yield 2, [[1e200, 1e200], [1e200, -1e200]], "n2-bias-overflows"
    yield 2, [[big, big], [-big, -big]], "n2-everything-overflows"
    yield 2, [[1e10, 1e10], [1e10, 1e10 + 100.0]], "n2-far-from-the-origin"
    yield 3, [[big, 0.0, 0.0], [-big, 0.0, 0.0], [0.0, 1.0, 0.0]], "n3-difference-overflows"
    yield 3, [[big, big, 0.0], [-big, 0.0, big], [0.0, -big, -big]], "n3-cross-product-nan"
    yield 3, [[1e120, 1e120, 1e120], [1e120, -1e120, 0.0], [0.0, 1e120, -1e120]], \
        "n3-bias-overflows"
    yield 3, [[0.0, 0.0, 0.0], [0.0, 1e155, 0.0], [0.0, 0.0, 1e147]], "n3-norm-overflows"
    yield 3, [[big, big, big]] * 3, "n3-coincident-at-float-max"
    yield 3, [[1e10, 1e10, 1e10], [1e10 + 1e6, 1e10, 1e10], [1e10, 1e10 + 1e6, 1e10]], \
        "n3-far-from-the-origin"
    for n in (4, 8):
        # The cofactors of finite points overflow: inf, or NaN from inf - inf.
        yield n, (SplitMix64(n).normals(n * n) * 1e100).reshape(n, n).tolist(), \
            f"n{n}-cofactors-overflow"
        # ||w|| = step^(n-1), far below the bias; then finite, 1e200, so
        # that only its square overflows.
        yield n, corner_simplex(n, 1e10, 1e9), f"n{n}-far-from-the-origin"
        yield n, corner_simplex(n, 0.0, 10.0 ** (200 / (n - 1))), f"n{n}-norm-overflows"
    for n in (3, 4, 8):
        # One edge norm past the float range, and a finite ||w|| with
        # orthogonal edges: built. Then a product of the edge norms past
        # the float range with ||w|| = 1e100: a ratio of 1e-220, refused.
        pts = np.zeros((n, n))
        pts[1, :2] = 1.4e308
        pts[2, 2] = 2.0 ** -1025
        pts[3:, 3:] = np.eye(n - 3)
        yield n, pts.tolist(), f"n{n}-edge-norm-overflows"
        pts = np.eye(n)
        pts[0, 0] = 0.0
        pts[1, :2] = 1e200, 0.0
        pts[2, :3] = 1e120, 1e-100, 0.0
        yield n, pts.tolist(), f"n{n}-edge-product-overflows"


SPECIAL_COORDINATES = [0.0, -0.0, 1.0, -1.0, 1e-300, 1e154, 1e200, 1e308, -1e308,
                       math.inf, -math.inf, math.nan]


@st.composite
def builder_points(draw):
    """n = 2, 3, 4 or 8 points with any float coordinates, often coincident."""
    n = draw(st.sampled_from(sorted(BUILDERS)))
    coordinate = st.one_of(st.floats(), st.sampled_from(SPECIAL_COORDINATES))
    pts = [draw(st.lists(coordinate, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        pts[1] = list(pts[0])
    return n, pts


class TestDeferredFiniteCheck:
    """Every builder tests the coordinates only when its one test fails; it
    raises and returns what the frozen test-first versions do."""

    @pytest.mark.parametrize("n, pts", [pytest.param(n, pts, id=name)
                                        for n, pts, name in deferred_check_cases()])
    def test_table_matches_test_first_order(self, n, pts):
        build, frozen = BUILDERS[n]
        assert coeffs_outcome(build, pts) == coeffs_outcome(frozen, pts)

    @settings(max_examples=400, deadline=None)
    @given(builder_points())
    def test_any_floats_match_test_first_order(self, case):
        n, pts = case
        build, frozen = BUILDERS[n]
        assert coeffs_outcome(build, pts) == coeffs_outcome(frozen, pts)

    @pytest.mark.parametrize("n", sorted(BUILDERS))
    def test_table_reaches_every_outcome(self, n):
        reached = set()
        for m, pts, _ in deferred_check_cases():
            if m == n:
                out = coeffs_outcome(BUILDERS[n][0], pts)
                reached.add(out[1] if isinstance(out, tuple) else "coefficients")
        assert reached == {
            "coefficients", "point has non-finite coordinates",
            "the two points coincide" if n == 2 else
            "points are affinely dependent and define no unique hyperplane",
            "bias is not finite", "the norm of the hyperplane normal overflows"}

    @pytest.mark.parametrize("dim", [4, 8])
    def test_train_names_an_overflowing_normal(self, dim):
        # Finite data whose initial plane's cofactors overflow: every
        # coordinate is finite, and the error names the check that failed.
        ds = make_blobs(1, 3.0, 20, dim, 4.0)
        with pytest.raises(ValueError, match="^bias is not finite$") as info:
            train(Dataset(ds.features * 1e100, ds.labels))
        assert type(info.value) is NonFinitePlaneError


class TestSignedDisplacement:
    def test_unit_offset_from_diagonal(self):
        h = Hyperplane(np.array([-1.0, 1.0]), 0.0)
        assert signed_displacement(h, (0, 1)) == pytest.approx(0.70710678, abs=1e-8)

    def test_simplex_point(self):
        h = Hyperplane(np.array([1.0, 1.0, 1.0]), -1.0)
        assert signed_displacement(h, (1, 1, 1)) == pytest.approx(2 / np.sqrt(3))

    def test_on_plane_is_zero(self):
        h = Hyperplane(np.array([2.0, -1.0]), 3.0)
        # pick x on the plane: 2x - y + 3 = 0 at x=1 -> y=5
        assert abs(signed_displacement(h, (1, 5))) <= 1e-12

    def test_matches_projection_oracle(self):
        stream = SplitMix64(31)
        for _ in range(300):
            w = stream.normals(3)
            b = float(stream.normals(1)[0])
            x = 5.0 * stream.normals(3)
            h = Hyperplane(w, b)
            assert signed_displacement(h, x) == pytest.approx(
                projection_distance(h, x), rel=1e-9, abs=1e-12
            )

    def test_dimension_mismatch(self):
        h = Hyperplane(np.array([1.0, 0.0]), 0.0)
        with pytest.raises(DimensionMismatchError):
            signed_displacement(h, (1, 2, 3))


class TestRegionSign:
    def test_left_of_vertical_line(self):
        h = Hyperplane(np.array([1.0, 0.0]), 0.0)
        assert region_sign(h, (-2, 0)) == -1

    def test_on_plane(self):
        h = Hyperplane(np.array([1.0, 0.0]), 0.0)
        assert region_sign(h, (0, 7)) == 0

    def test_positive_side(self):
        h = Hyperplane(np.array([1.0, 0.0]), -2.0)
        assert region_sign(h, (5, -1)) == 1

    def test_only_an_exact_zero_is_on_the_plane(self):
        # One last bit off the plane x + y = 1e6 is off it, on either side.
        h = Hyperplane(np.array([1.0, 1.0]), -1e6)
        assert region_sign(h, (5e5, 5e5)) == 0
        assert region_sign(h, (math.nextafter(1e6, math.inf), 0.0)) == 1
        assert region_sign(h, (math.nextafter(1e6, -math.inf), 0.0)) == -1

    def test_partitions_samples(self):
        stream = SplitMix64(55)
        w = stream.normals(4)
        h = Hyperplane(w, 0.3)
        signs = [region_sign(h, stream.normals(4)) for _ in range(1000)]
        assert set(signs) <= {-1, 0, 1}
        # each point lands in exactly one bucket by construction; the real
        # content is consistency with the displacement sign
        for _ in range(200):
            x = stream.normals(4)
            s = region_sign(h, x)
            d = signed_displacement(h, x)
            if s != 0:
                assert np.sign(d) == s


def scalar_region_sign(h: Hyperplane, x) -> int:
    """The side rule for one point on Python floats: the sign of
    x0*w0 + x1*w1 + ... + b, summed left to right."""
    x, w = np.asarray(x, dtype=float).tolist(), list(h.weights)
    raw = x[0] * w[0]
    for xk, wk in zip(x[1:], w[1:]):
        raw += xk * wk
    raw += h.bias
    return (raw > 0) - (raw < 0)


class TestSideRuleMatchesScalar:
    """The vectorized side rule gives every point the scalar rule's region."""

    @settings(max_examples=300, deadline=None)
    @given(point_sets(), st.data())
    def test_region_sign_and_sides(self, pts, data):
        n = pts.shape[0]
        scale = float(np.abs(pts).max()) or 1.0
        try:
            h = hyperplane_from_points(pts)  # its defining points lie on it
        except DegeneratePointsError:
            # dependent points (a duplicate, small integers) have no
            # plane through them; a unit-scale plane still sorts the rows
            h = Hyperplane(data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.5, 2.0))),
                           data.draw(st.floats(-1.0, 1.0)))
        off = scale * data.draw(hnp.arrays(np.float64, (8, n), elements=st.floats(-1.0, 1.0)))
        X = np.vstack([pts, off])
        want = [scalar_region_sign(h, x) for x in X]
        assert [region_sign(h, x) for x in X] == want
        assert sides(h, X) == want


class TestSides:
    def test_row_side_does_not_depend_on_other_rows(self):
        # w . x + b for the third row lands within a last bit of 0; a BLAS
        # product over the three rows once put it on the plane while
        # region_sign on the row alone put it at -1
        h = line_from_points(np.array([0.0, 1.0]) * 1e-6, np.array([2.0, 2.0]) * 1e-6)
        X = np.array([[0.0, 1.0], [2.0, 2.0], [1.0, 1.0]]) * 1e-6
        assert sides(h, X) == [region_sign(h, x) for x in X]

    def test_wrong_width_is_refused(self):
        h = Hyperplane(np.array([1.0, 0.0]), 0.0)
        with pytest.raises(DimensionMismatchError):
            sides(h, np.zeros((4, 3)))


def frozen_affine(X, w, bias) -> np.ndarray:
    """The side rule's sum as numpy computed it before it moved to Python
    floats (geometry._affine): X @ w + bias per row of X, summed column by
    column and element-wise, X[:, 0]*w[0] + X[:, 1]*w[1] + ... + bias."""
    X = np.asarray(X, dtype=float)
    w = np.asarray(w, dtype=float)
    with np.errstate(all="ignore"):  # products past the float range are the point
        raw = X[:, 0] * w[0]
        for j in range(1, w.size):
            raw += X[:, j] * w[j]
        raw += bias
    return raw


def nudged(x: float, ulps: int) -> float:
    """x moved ulps units in the last place, up for ulps > 0."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def planes_and_rows(draw):
    """(w, b, rows): a plane in 1..8 dimensions and rows around it. Rows of
    any finite floats make products past the float range (inf, and inf -
    inf = NaN), and the rows whose last coordinate solves w . x + b = 0,
    then moves a few ulps, lie within a few roundings of the plane."""
    n = draw(st.integers(1, 8))
    weight = st.one_of(st.floats(-4.0, 4.0), st.floats(-1e150, 1e150))
    w = draw(st.lists(weight, min_size=n, max_size=n))
    b = draw(st.one_of(st.floats(-4.0, 4.0), st.floats(allow_nan=False, allow_infinity=False)))
    wide = st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.lists(st.one_of(st.floats(-4.0, 4.0), wide), min_size=n,
                                  max_size=n), max_size=6))
    for x in draw(st.lists(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n),
                           max_size=6)):
        if w[-1]:
            x[-1] = -(float(frozen_affine([x[:-1] + [0.0]], w, b)[0])) / w[-1]
            x[-1] = nudged(x[-1], draw(st.integers(-3, 3)))
            if math.isfinite(x[-1]):
                rows.append(x)
    return w, b, rows


class TestSideRuleMatchesFrozenAffine:
    """fit, sides, region_sign, signed_displacement, predict_many and
    linear_predict_many all read a row's side off one per-row sum, x0*w0 +
    x1*w1 + ... + b on Python floats; it must keep the bits of the numpy
    column-by-column sum it replaced, NaN (side 0) included."""

    @settings(max_examples=400, deadline=None)
    @given(planes_and_rows())
    @example(([1e150, 1e150], 0.0, [[1e300, -1e300], [1e300, 1e300], [-1e300, 1.0]]))
    @example(([1.0, 1.0], -1e6, [[5e5, 5e5], [nudged(1e6, 1), 0.0], [nudged(1e6, -1), 0.0]]))
    def test_bit_for_bit(self, problem):
        w, b, rows = problem
        try:
            h = Hyperplane(w, b)
        except ValueError:  # a zero or overflowing normal has no plane
            assume(False)
        want = frozen_affine(np.array(rows, dtype=float).reshape(len(rows), len(w)), w, b)
        got = geometry._margins(len(w))(float_rows(rows, len(w)), *w, b)
        assert [v.hex() for v in got] == [float(v).hex() for v in want]
        signs = [0 if math.isnan(v) else (v > 0) - (v < 0) for v in want.tolist()]
        assert sides(h, rows) == signs
        assert [region_sign(h, x) for x in rows] == signs
        norm = math.sqrt(geometry._dot(w, w))
        assert [signed_displacement(h, x).hex() for x in rows] == \
            [(float(v) / norm).hex() for v in want]
        linear = PerceptronModel(weights=np.array(w), bias=b, eta=1.0, epochs=1, seed=0)
        assert linear_predict_many(linear, rows) == [int(v > 0) for v in want.tolist()]

    def test_products_past_the_float_range_are_on_the_plane(self):
        # inf + -inf is NaN, which neither side claims.
        h = Hyperplane([1e150, 1e150], 0.0)
        assert sides(h, [[1e300, -1e300], [1e300, 1e300], [-1e300, 1.0]]) == [0, 1, -1]


class TestHyperplaneType:
    def test_zero_weights_rejected(self):
        with pytest.raises(DegeneratePointsError):
            Hyperplane(np.array([0.0, 0.0]), 1.0)

    def test_dim(self):
        assert Hyperplane(np.array([1.0, 2.0, 3.0]), 0.0).dim == 3


BLOBS = make_blobs(seed=0, std=1.0, n_per_class=10, center_halfwidth=4.0)
# Every predictor of 2-D rows, built when its test runs.
PREDICTORS = {
    "mpa.predict_many": lambda: partial(predict_many, train(BLOBS, MpaConfig(epochs=2))[0]),
    "perceptron": lambda: partial(linear_predict_many, perceptron_fit(BLOBS)),
    "svm": lambda: partial(linear_predict_many, linear_svm_fit(BLOBS)),
    "knn": lambda: partial(knn_predict_many, knn_fit(BLOBS)),
    "sides": lambda: partial(sides, Hyperplane(np.array([1.0, -1.0]), 0.5)),
}


@pytest.mark.parametrize("X, error", [
    pytest.param([[0.0, 1.0], [np.nan, 2.0]], ValueError, id="nan"),
    pytest.param([[0.0, 1.0], [np.inf, 2.0]], ValueError, id="inf"),
    pytest.param([[0.0, 1.0], [2.0, -np.inf]], ValueError, id="-inf"),
    pytest.param(np.zeros((3, 3)), DimensionMismatchError, id="wrong-width"),
    pytest.param([[0.0, 1.0], [2.0, 3.0, 4.0]], DimensionMismatchError, id="ragged"),
    pytest.param([[0.0, 1.0], ["a", 2.0]], ValueError, id="not-a-number"),
])
@pytest.mark.parametrize("predictor", sorted(PREDICTORS))
def test_every_predictor_refuses_a_bad_row(predictor, X, error):
    # The rows are checked once, by as_rows, whoever predicts them.
    with pytest.raises(error) as info:
        PREDICTORS[predictor]()(X)
    assert type(info.value) is error


# Each way a point set can be malformed, and the error as_rows gives it.
BAD_POINT_SETS = {
    "nan": ValueError,
    "inf": ValueError,
    "-inf": ValueError,
    "string": ValueError,
    "ragged": DimensionMismatchError,
    "wrong-width": DimensionMismatchError,
    "1-d": DimensionMismatchError,
    "3-d": DimensionMismatchError,
    "zero-columns": DimensionMismatchError,
}


def bad_points(case, m, n=2):
    """m points of n coordinates, malformed as BAD_POINT_SETS' case says."""
    rows = [[float(n * i + j + 1) for j in range(n)] for i in range(m)]
    if case in ("nan", "inf", "-inf"):
        rows[-1][0] = float(case)
    elif case == "string":
        rows[-1][0] = "a"
    elif case == "1-d":  # numbers where the rows belong
        return [row[0] for row in rows]
    elif case == "ragged" and m > 1:
        rows[-1].pop()
    elif case == "ragged":  # one point is ragged by a sequence for a coordinate
        rows[-1].append([1.0])
    elif case == "wrong-width":
        for row in rows:
            row.append(0.0)
    elif case == "3-d":
        return np.repeat(np.array(rows)[:, :, None], 2, axis=2)
    elif case == "zero-columns":
        return np.zeros((m, 0))
    return rows


PLANE = Hyperplane(np.array([1.0, -1.0]), 0.5)
MODEL_DOCUMENT = json.loads(model_document(
    MpaModel([[0.0, 0.5], [1.0, 1.5]], {0: -1, 1: 1}, 0.0, MpaConfig())))


def with_points(pts) -> str:
    """MODEL_DOCUMENT with its moving points replaced by pts."""
    points = np.asarray(pts, dtype=object).tolist()
    return json.dumps({**MODEL_DOCUMENT, "moving_points": points})


# Entry point: (how many points it takes, the width it asks as_rows for or
# None when it has none or refuses a wrong width itself, the call).
ENTRY_POINTS = {
    "Dataset": (2, None, lambda pts: Dataset(pts, [0, 1])),
    "Hyperplane": (1, None, lambda pts: Hyperplane(pts[0], 0.5)),
    "line_from_points": (2, 2, lambda pts: line_from_points(*pts)),
    "MpaModel": (2, None, lambda pts: MpaModel(pts, {0: -1, 1: 1}, 0.0, MpaConfig())),
    "parse_model_document": (2, None, lambda pts: parse_model_document(with_points(pts))),
    "render_scatter_svg-features": (
        2, None, lambda pts: render_scatter_svg(pts, [0, 1], PLANE, [[0.0, 0.5], [1.0, 1.5]])),
    "render_scatter_svg-moving_points": (
        2, None, lambda pts: render_scatter_svg(BLOBS.features, BLOBS.labels, PLANE, pts)),
    "predict_many": (3, 2, lambda pts: PREDICTORS["mpa.predict_many"]()(pts)),
    "knn_predict_many": (3, 2, lambda pts: PREDICTORS["knn"]()(pts)),
}


# The two row checks are one rule: float_rows, the check of a model's
# points, a plane's weights and the rows that sides places, refuses each
# malformed set as as_rows does, with its error, and returns as_rows' rows
# for every set it takes, at any width asked.
@pytest.mark.parametrize("width", [None, 2, 3])
@pytest.mark.parametrize("case", sorted(BAD_POINT_SETS))
def test_float_rows_refuses_as_as_rows_does(case, width):
    pts = bad_points(case, 3)
    try:
        want = as_rows(pts, width).tolist()
    except ValueError as exc:
        assert width != 2 or type(exc) is BAD_POINT_SETS[case]
        with pytest.raises(ValueError) as got:
            float_rows(pts, width)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
    else:
        assert float_rows(pts, width) == want


class TestOneRowCheck:
    """Every point set the library takes passes geometry.as_rows or
    geometry.float_rows, which refuses it as as_rows does."""

    @pytest.mark.parametrize("entry, case", [
        (entry, case) for entry, (_, width, _) in ENTRY_POINTS.items()
        for case in BAD_POINT_SETS if case != "wrong-width" or width is not None])
    def test_refused_as_as_rows_refuses_it(self, entry, case):
        m, width, call = ENTRY_POINTS[entry]
        pts = bad_points(case, m)
        with pytest.raises(ValueError) as want:
            as_rows(pts, width)
        assert type(want.value) is BAD_POINT_SETS[case]
        with pytest.raises(ValueError) as got:
            call(pts)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("entry, error", [
        ("MpaModel", DimensionMismatchError),
        ("parse_model_document", ValueError),
        ("render_scatter_svg-features", RefuseNon2DError),
        ("render_scatter_svg-moving_points", RefuseNon2DError),
    ])
    def test_wrong_width_is_refused_by_the_entry_point(self, entry, error):
        m, _, call = ENTRY_POINTS[entry]
        with pytest.raises(error) as info:
            call(bad_points("wrong-width", m))
        assert type(info.value) is error

    def test_no_finite_check_but_as_rows(self):
        # math.isfinite on Python floats is another matter: it checks
        # coordinates that no array holds.
        assert inspect.getsource(as_rows).count("np.isfinite") == 1
        src = Path(geometry.__file__).parent
        hits = {path.name: path.read_text(encoding="utf-8").count("np.isfinite")
                for path in sorted(src.glob("*.py"))}
        assert {name: count for name, count in hits.items() if count} == {"geometry.py": 1}
