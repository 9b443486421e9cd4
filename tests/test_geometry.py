"""Geometry checks: hand-worked values plus numpy oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from movingpoints.geometry import (
    EPS_DEGENERATE,
    EPS_ON_PLANE,
    DegeneratePointsError,
    DimensionMismatchError,
    Hyperplane,
    _line_coeffs,
    _plane3_coeffs,
    as_vector,
    coordinate_scale,
    hyperplane_from_points,
    line_from_points,
    region_sign,
    sides,
    signed_displacement,
)
from movingpoints.rng import SplitMix64


def projection_distance(h: Hyperplane, x) -> float:
    """Independent route: project x onto the plane, return signed length."""
    x = np.asarray(x, dtype=float)
    w = h.weights
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
        # coincidence to revert (inf <= EPS_DEGENERATE * inf would say so).
        with pytest.raises(ValueError) as info:
            _line_coeffs(*e, 0.0, 1.0)
        assert type(info.value) is ValueError


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

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_defining_points_lie_on_plane(self, n):
        stream = SplitMix64(500 + n)
        for _ in range(60):
            pts = 10.0 * stream.normals(n * n).reshape(n, n)
            try:
                h = hyperplane_from_points(pts)
            except DegeneratePointsError:
                continue  # vanishingly rare for gaussian draws
            scale = coordinate_scale(pts)
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


def oracle_plane(points) -> Hyperplane:
    """The bordered-determinant plane with one elimination per minor."""
    pts = np.asarray([as_vector(p) for p in points], dtype=float)
    n = pts.shape[0]
    if pts.shape != (n, n):
        raise DimensionMismatchError(f"got shape {pts.shape}")
    bordered = np.hstack([pts, np.ones((n, 1))])
    coeffs = np.empty(n + 1)
    for col in range(n + 1):
        minor = np.delete(bordered, col, axis=1)
        coeffs[col] = (-1.0) ** col * oracle_determinant(minor)
    weights, bias = coeffs[:n], coeffs[n]
    if float(np.linalg.norm(weights)) <= EPS_DEGENERATE * coordinate_scale(pts) ** (n - 1):
        raise DegeneratePointsError("affinely dependent")
    return Hyperplane(weights, bias)


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
    w0, w1, w2, b, norm = _plane3_coeffs(*np.asarray(pts, dtype=float).tolist())
    assert norm == np.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    return Hyperplane(np.array([w0, w1, w2]), b)


def assert_matches_oracle(pts, build=hyperplane_from_points):
    """Same outcome type, and coefficients that agree to 1e-9 of max|c| plus
    n * eps times the size of the products each is summed from: s^(n-1) for
    a weight and s^n for the bias, s = max|p|. The second term is the
    rounding of cancelling sums, and scales with the points as the
    coefficients do."""
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
    """One elimination of [P | 1]^T gives the cofactors of the per-minor loop."""

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

    @pytest.mark.parametrize("p", [49.0, -7.0, 0.3, 0.0])  # 49 * (1/49) != 1
    def test_one_point_plane_is_x_minus_p(self, p):
        h = hyperplane_from_points([[p]])
        assert h.weights.tolist() == [1.0] and h.bias == -p


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
        assert type(info.value) is ValueError

    def test_overflowing_bias_is_not_finite(self):
        # Finite points whose coefficients overflow: both constructions
        # raise a plain ValueError, not DegeneratePointsError.
        pts = [(1e120, 1e120, 1e120), (1e120, -1e120, 0.0), (0.0, 1e120, -1e120)]
        for build in (closed_form_plane3, hyperplane_from_points):
            with pytest.raises(ValueError) as info:
                build(pts)
            assert type(info.value) is ValueError

    @pytest.mark.parametrize("pts, error", [
        pytest.param(1e200 * np.eye(3), ValueError, id="n3-1e200-not-finite"),
        pytest.param(1e50 * np.eye(8), ValueError, id="n8-1e50-not-finite"),
        pytest.param([(1e200, 0, 0), (1e200, 1, 0), (1e200, 0, 1)], DegeneratePointsError,
                     id="n3-1e200-finite"),
        pytest.param([(1e155, 0, 0), (1e155, 1, 0), (1e155, 0, 1)], DegeneratePointsError,
                     id="n3-1e155-finite"),
    ])
    def test_scale_power_past_float_range(self, pts, error):
        # coordinate_scale(P) ** (n - 1) overflows, where ** raised
        # OverflowError. Coefficients that overflow too are not finite; a
        # finite normal is below the threshold, 1e391 at s = 1e200 and 1e301
        # at s = 1e155.
        pts = np.asarray(pts, dtype=float)
        for build in [hyperplane_from_points] + [closed_form_plane3] * (len(pts) == 3):
            with pytest.raises(ValueError) as info:
                build(pts)
            assert type(info.value) is error


class TestNormPastFloatRange:
    # Finite coefficients whose ||w|| overflows: every signed distance
    # would read 0. Each builder refuses the plane with a plain ValueError,
    # as it refuses coefficients that are not finite.
    @pytest.mark.parametrize("build, args", [
        pytest.param(_plane3_coeffs, [(0, 0, 0), (0, 1e155, 0), (0, 0, 1e147)], id="plane3"),
        pytest.param(_line_coeffs, [0, 0, 1e155, 0], id="line"),
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
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("scale", [1e153, 1e100])
    def test_finite_norm_keeps_its_bits(self, scale):
        # ||w|| = 1e306 and 1e200: below the float range, built as before
        assert _line_coeffs(0.0, 0.0, scale, 0.0) == (0.0, scale, 0.0, scale)


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

    def test_tolerance_scales_with_bias(self):
        # |bias| exceeds max|weights| * max|x| here, so it sets the scale
        h = Hyperplane(np.array([1.0, 1.0]), -1e6)
        assert region_sign(h, (5e5 + 7e-7, 5e5)) == 0
        assert region_sign(h, (5e5 + 2e-6, 5e5)) == 1

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
    """The side rule for one point, as region_sign computed it on its own."""
    x = as_vector(x)
    raw = float(h.weights @ x + h.bias)
    scale = max(1.0, float(np.max(np.abs(h.weights))) * float(np.max(np.abs(x))),
                abs(h.bias))
    if abs(raw) <= EPS_ON_PLANE * scale:
        return 0
    return 1 if raw > 0 else -1


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
            # tiny coordinates have no representable plane through them;
            # a unit-scale plane still exercises the floored tolerance
            h = Hyperplane(data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.5, 2.0))),
                           data.draw(st.floats(-1.0, 1.0)))
        off = scale * data.draw(hnp.arrays(np.float64, (8, n), elements=st.floats(-1.0, 1.0)))
        X = np.vstack([pts, off])
        want = [scalar_region_sign(h, x) for x in X]
        assert [region_sign(h, x) for x in X] == want
        assert sides(h, X).tolist() == want


class TestSides:
    def test_row_side_does_not_depend_on_other_rows(self):
        # w . x + b for the third row lands within a last bit of the on-plane
        # tolerance; a BLAS product over the three rows once called it on the
        # plane while region_sign on the row alone called it -1
        h = line_from_points(np.array([0.0, 1.0]) * 1e-6, np.array([2.0, 2.0]) * 1e-6)
        X = np.array([[0.0, 1.0], [2.0, 2.0], [1.0, 1.0]]) * 1e-6
        assert sides(h, X).tolist() == [region_sign(h, x) for x in X]

    def test_wrong_width_is_refused(self):
        h = Hyperplane(np.array([1.0, 0.0]), 0.0)
        with pytest.raises(DimensionMismatchError):
            sides(h, np.zeros((4, 3)))


class TestHyperplaneType:
    def test_zero_weights_rejected(self):
        with pytest.raises(DegeneratePointsError):
            Hyperplane(np.array([0.0, 0.0]), 1.0)

    def test_dim(self):
        assert Hyperplane(np.array([1.0, 2.0, 3.0]), 0.0).dim == 3
