"""Training-loop checks: hand-worked steps, guard properties, a plain
sequential reimplementation of the epoch loop to pin the vectorized one,
and a frozen copy of the object-level per-move code to pin the raw-array
loop bit for bit."""

import hashlib
import json
import math
import struct
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from exact_planes import below_hadamard_bound
from movingpoints import bench, geometry, mpa
from movingpoints.datasets import Dataset, NonBinaryLabelsError, make_blobs
from movingpoints.geometry import (
    DegeneratePointsError,
    DimensionMismatchError,
    Hyperplane,
    hyperplane_from_points,
    line_from_points,
    region_sign,
    signed_displacement,
)
from movingpoints.mpa import (
    IdenticalMeansError,
    MeanOnBoundaryError,
    MpaConfig,
    MpaModel,
    ZeroDisplacementError,
    assign_pseudo,
    fit,
    initialize,
    movement_vector,
    near_clusters,
    overfit_guard,
    predict,
    predict_many,
    train,
    training_accuracy,
)
from movingpoints.rng import SplitMix64


def bits(values) -> bytes:
    """The float64 bytes of values, floats or rows of floats (a model's
    points, a plane's weights), as ndarray.tobytes() gives them."""
    return np.array(values, dtype=float).tobytes()


def lambda_value(model: MpaModel, x, label: int) -> float:
    """Signed displacement times the label's pseudo sign; negative = wrong."""
    return signed_displacement(model.hyperplane, x) * model.pseudo_sign[label]


def vertical_model(x0=0.0, pseudo=None, alpha=0.5, config=None):
    """Model whose boundary is x = x0, oriented so displacement = x - x0."""
    pts = np.array([[x0, 1.0], [x0, 0.0]])
    return MpaModel(pts, pseudo or {0: -1, 1: 1}, alpha=alpha, config=config or MpaConfig())


class TestInitialize:
    def test_2d_construction(self):
        c0 = np.array([[-1.0, 0.0], [1.0, 0.0]])  # mean (0, 0)
        c1 = np.array([[3.0, 0.0], [5.0, 0.0]])   # mean (4, 0)
        model = initialize(c0, c1, MpaConfig(init_spread=0.5))
        np.testing.assert_allclose(
            np.sort(model.moving_points, axis=0), [[2.0, 0.0], [2.0, 2.0]]
        )
        h = model.hyperplane
        # boundary is x = 2: normal parallel to e1, passes through (2, 0)
        assert abs(h.weights[1]) <= 1e-12 * abs(h.weights[0])
        assert abs(signed_displacement(h, (2.0, 123.0))) <= 1e-9

    def test_3d_construction(self):
        c0 = np.zeros((2, 3))
        c1 = np.full((2, 3), [4.0, 0.0, 0.0])
        model = initialize(c0, c1, MpaConfig(init_spread=0.5))
        pts = np.array(model.moving_points)
        got = pts[np.lexsort(pts.T)]
        want = np.array([[2.0, 0.0, 0.0], [2.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
        want = want[np.lexsort(want.T)]
        np.testing.assert_allclose(got, want)

    def test_identical_means(self):
        pts = np.array([[1.0, 1.0]])
        with pytest.raises(IdenticalMeansError):
            initialize(pts, pts.copy(), MpaConfig())

    @pytest.mark.parametrize("c0, message", [
        ([[0.0, np.nan]], "point has non-finite coordinates"),
        ([[[0.0, 1.0]]], r"expected a 1-D point, got shape \(1, 2\)"),
        ([1.0, 2.0], r"expected a 1-D point, got shape \(\)"),
        ([[]], r"expected a 1-D point, got shape \(0,\)"),
        ([], "both classes must be non-empty"),
        (np.zeros((0, 2)), "both classes must be non-empty"),
        ([[0.0, 1.0], [2.0]], "rows differ in length"),
    ], ids=["non-finite", "2-D point", "scalar point", "empty point", "no points",
            "no rows", "ragged"])
    def test_bad_class_points_are_refused(self, c0, message):
        c1 = np.array([[3.0, 0.0], [5.0, 0.0]])
        with pytest.raises(ValueError, match=message):
            initialize(c0, c1, MpaConfig())

    def test_alpha_resolves_from_point_spacing(self):
        c0 = np.array([[-1.0, 0.0], [1.0, 0.0]])
        c1 = np.array([[3.0, 0.0], [5.0, 0.0]])
        model = initialize(c0, c1, MpaConfig(init_spread=0.5))
        # points are 2 apart, so the auto threshold is 0.2
        assert model.alpha == pytest.approx(0.2)

    def test_explicit_alpha_kept(self):
        c0 = np.array([[-1.0, 0.0], [1.0, 0.0]])
        c1 = np.array([[3.0, 0.0], [5.0, 0.0]])
        model = initialize(c0, c1, MpaConfig(alpha=0.7))
        assert model.alpha == 0.7


class TestAssignPseudo:
    def test_readout(self):
        h = Hyperplane(np.array([1.0, 0.0]), 0.0)
        assert assign_pseudo(h, (-2, 0), (2, 0)) == {0: -1, 1: 1}

    def test_swapped(self):
        h = Hyperplane(np.array([1.0, 0.0]), 0.0)
        assert assign_pseudo(h, (2, 0), (-2, 0)) == {0: 1, 1: -1}

    def test_mean_on_boundary(self):
        h = Hyperplane(np.array([1.0, 0.0]), 0.0)
        with pytest.raises(MeanOnBoundaryError):
            assign_pseudo(h, (0, 0), (2, 0))

    # A side is the sign of w.x + b, which no unit can flip, and neither
    # the means' test nor the line's has a unit. So at n = 2, data that
    # initializes at one scale initializes, with the same pseudo signs, at
    # every scale 2^k. The means of the examples lie about 8 std apart.
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), std=st.floats(0.5, 4.0), k=st.integers(-40, 40))
    @example(seed=0, std=3.0, k=-30)
    @example(seed=0, std=1.0, k=-36)
    @example(seed=0, std=1.0, k=-40)
    def test_pseudo_signs_do_not_depend_on_units(self, seed, std, k):
        ds = make_blobs(seed=seed, std=std, n_per_class=40)
        cfg = MpaConfig()
        try:
            want = initialize(ds.class_points(0), ds.class_points(1), cfg).pseudo_sign
        except ValueError:
            assume(False)
        scaled = ds.features * 2.0 ** k
        got = initialize(scaled[ds.labels == 0], scaled[ds.labels == 1], cfg).pseudo_sign
        assert got == want


class TestLambda:
    def test_correct_point_is_positive(self):
        m = vertical_model()
        assert lambda_value(m, (-3, 0), 0) == pytest.approx(3.0)

    def test_misclassified_point_is_negative(self):
        m = vertical_model()
        assert lambda_value(m, (-3, 0), 1) == pytest.approx(-3.0)

    def test_magnitude_is_distance(self):
        m = vertical_model()
        assert lambda_value(m, (0.5, 9), 1) == pytest.approx(0.5)


class TestMovementVector:
    def test_hand_worked_step(self):
        # mover c=(0,1); q=(2,2); g=(4,1); eta=0.1; lambda=-0.5
        pts = np.array([[0.0, 1.0], [9.0, 9.0]])
        model = MpaModel(pts, {0: -1, 1: 1}, alpha=0.1, config=MpaConfig(eta=0.1))
        mover, t = movement_vector(model, (2, 2), (4, 1), -0.5)
        assert mover == 0
        np.testing.assert_allclose(t, [0.05, 0.0], atol=1e-15)
        np.testing.assert_allclose(pts[0] + t, [0.05, 1.0])

    def test_nearest_mover_tie_prefers_lowest_index(self):
        pts = np.array([[0.0, 1.0], [0.0, -1.0]])  # equidistant from q
        model = MpaModel(pts, {0: -1, 1: 1}, alpha=0.1, config=MpaConfig(eta=0.1))
        mover, _ = movement_vector(model, (5.0, 0.0), (9.0, 0.5), -1.0)
        assert mover == 0

    def test_tie_after_rounding_prefers_lowest_index(self):
        # Row 0's squared distance to q is one ulp larger than row 1's, but
        # the distances round to the same value, so row 0 is the mover.
        pts = np.array([[1.6067566809382403, 0.7977858300985793],
                        [1.1459420306212666, 1.380197857157211]])
        sq = (pts * pts).sum(axis=1)
        assert sq[0] > sq[1] and np.sqrt(sq[0]) == np.sqrt(sq[1])
        model = MpaModel(pts, {0: -1, 1: 1}, alpha=0.0, config=MpaConfig(eta=0.1))
        mover, _ = movement_vector(model, (0.0, 0.0), (9.0, 0.5), -1.0)
        assert mover == 0

    def test_g_equal_mover_rejected(self):
        model = vertical_model()
        # nearest moving point to q=(2, 0) is (0, 0), index 1
        with pytest.raises(ZeroDisplacementError):
            movement_vector(model, (2, 0), model.moving_points[1], -1.0)

    @pytest.mark.parametrize("offset", [1e-12, 2.5e-162, 5e-324],
                             ids=["1e-12 |c|", "square rounds", "square underflows"])
    def test_near_target_takes_a_full_step(self, offset):
        # g is offset from the mover c = (1, 0), as near as 1e-12 |c|, or so
        # near that the offset's square rounds to the least subnormal or to
        # 0.0: it is not c, so c steps toward it at full length, not 1.125
        # times that or not at all. Only g == c has no direction and is
        # refused.
        model = MpaModel(np.array([[1.0, 0.0], [0.0, 5.0]]), {0: -1, 1: 1}, alpha=0.1,
                         config=MpaConfig(eta=0.1))
        mover, t = movement_vector(model, (1.0, -1.0), (1.0, offset), -0.5)
        assert mover == 0
        assert t == [0.0, 0.05]
        with pytest.raises(ZeroDisplacementError):
            movement_vector(model, (1.0, -1.0), (1.0, 0.0), -0.5)

    def test_magnitude_scales_with_eta_times_lambda(self):
        for eta, lam in [(0.1, -0.5), (0.01, -2.0), (1.0, -0.125)]:
            model = vertical_model(config=MpaConfig(eta=eta))
            _, t = movement_vector(model, (3, 4), (-2, 5), lam)
            assert np.linalg.norm(t) == pytest.approx(abs(eta * lam))


class TestOverfitGuard:
    def build(self, points, alpha):
        return MpaModel(np.asarray(points, dtype=float), {0: -1, 1: 1},
                        alpha=alpha, config=MpaConfig())

    def test_projects_out_approach(self):
        model = self.build([[0.0, 0.0], [1.0, 0.0]], alpha=2.0)
        t = overfit_guard(model, 0, np.array([0.5, 0.5]))
        np.testing.assert_allclose(t, [0.0, 0.5], atol=1e-15)

    def test_receding_move_untouched_bitwise(self):
        model = self.build([[0.0, 0.0], [1.0, 0.0]], alpha=2.0)
        t_in = np.array([-0.5, 0.5])
        t_out = overfit_guard(model, 0, t_in)
        assert t_out is t_in  # pass-through, not a copy

    def test_far_neighbor_untouched(self):
        model = self.build([[0.0, 0.0], [1.0, 0.0]], alpha=0.5)
        t_in = np.array([0.5, 0.5])
        assert overfit_guard(model, 0, t_in) is t_in

    def test_two_neighbors_iterative(self):
        # mover pinched between two close neighbors in 3-D
        pts = np.array([[0.0, 0.0, 0.0],
                        [1.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0]])
        model = self.build(pts, alpha=2.0)
        t = overfit_guard(model, 0, np.array([0.6, 0.7, 0.4]))
        for other in (1, 2):
            r = pts[other] - pts[0]
            r = r / np.linalg.norm(r)
            assert float(t @ r) <= 1e-12

    def test_random_activations_orthogonal(self):
        stream = SplitMix64(71)
        for _ in range(200):
            pts = stream.normals(9).reshape(3, 3)
            try:
                model = self.build(pts, alpha=10.0)  # everything triggers
            except DegeneratePointsError:
                continue
            t = overfit_guard(model, 0, stream.normals(3))
            for other in (1, 2):
                r = pts[other] - pts[0]
                nr = np.linalg.norm(r)
                if nr <= 1e-9:
                    continue
                assert float(t @ (r / nr)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_step_is_checked_at_the_api_edge(self, n):
        # The guard pairs the step with each direction coordinate by
        # coordinate, so a step of the wrong length must be refused here
        # rather than cut short, and a non-finite one must not pass.
        model = self.build(np.eye(n), alpha=10.0)  # every neighbour is near
        for length in (n - 1, n + 1):
            with pytest.raises(DimensionMismatchError):
                overfit_guard(model, 0, np.full(length, 0.1))
        for bad in (math.nan, math.inf, -math.inf):
            t = np.full(n, 0.1)
            t[-1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                overfit_guard(model, 0, t)


class TestLineGuardSkip:
    # _line_coeffs documents its ||w|| as the distance between the two
    # points; here it is the gap that _guard computes, bit for bit, for
    # either mover. fit's loop reads no ||w|| for the guard: its pre-check
    # computes _guard's own gap at every n. The guard shows its gap
    # through alpha: given a unit step straight at the neighbour, it
    # projects when gap <= alpha and returns the step itself when
    # gap > alpha. So a projection at alpha = ||w|| and none at the float
    # below it mean gap == ||w||. Where _line_coeffs refuses the points
    # (no line, so fit never holds their ||w||), the gap is held to
    # sqrt(w0*w0 + w1*w1) with w = (y1 - y2, x2 - x1), as _line_coeffs
    # computes it.
    @settings(max_examples=400, deadline=None)
    @given(exponent=st.one_of(st.integers(-150, 150), st.integers(-8, 8)),
           offset=st.sampled_from([0.0, 1e4, 1e12]),
           coords=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
           mover=st.integers(0, 1))
    def test_line_norm_is_the_guard_gap(self, exponent, offset, coords, mover):
        scale = 10.0 ** exponent
        x1, y1, x2, y2 = (scale * (offset + c) for c in coords)
        try:
            norm_w = geometry._line_coeffs((x1, y1), (x2, y2))[3]
        except ValueError:
            w0, w1 = y1 - y2, x2 - x1
            norm_w = math.sqrt(w0 * w0 + w1 * w1)
        assume(norm_w > 0.0)  # a zero gap gives the guard no direction
        pts = [[x1, y1], [x2, y2]]
        e, f = pts[mover], pts[1 - mover]
        t = [(fk - ek) / norm_w for fk, ek in zip(f, e)]
        assert mpa._guard(pts, mover, t, norm_w) is not t
        assert mpa._guard(pts, mover, t, math.nextafter(norm_w, 0.0)) is t


class TestGuardProperties:
    # Random points at n 2..8 and scales 1e-6..1e6; alpha lies halfway
    # between two gaps, so that the k nearest neighbours of the mover
    # (0 to n - 1) are near and no gap sits on the edge. A component is
    # summed with math.fsum on unit directions computed here, so it may
    # differ from the guard's own by the rounding of an n-term dot product
    # on each side. The guard leaves a component of at most
    # 64 * 2^-52 * ||t|| (guard_tolerance).
    # The guard reads only the points and alpha, so the model is built on
    # the identity and then given the points.
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 8), exponent=st.integers(-6, 6),
           seed=st.integers(0, 2**64 - 1), k=st.integers(0, 7),
           step_exponent=st.integers(-3, 1), recede=st.booleans())
    def test_no_approach_left_and_identity_when_none(self, n, exponent, seed, k,
                                                     step_exponent, recede):
        scale = 10.0 ** exponent
        stream = SplitMix64(seed)
        pts = scale * stream.normals(n * n).reshape(n, n)
        mover = int(stream.uniforms(1)[0] * n)
        gaps = np.linalg.norm(np.delete(pts, mover, axis=0) - pts[mover], axis=1)
        edges = np.concatenate([[0.0], np.sort(gaps), [2.0 * gaps.max()]])
        k = min(k, n - 1)
        alpha = 0.5 * (edges[k] + edges[k + 1])
        model = MpaModel(np.eye(n), {0: -1, 1: 1}, alpha=alpha, config=MpaConfig())
        model.moving_points = pts.tolist()
        t = scale * 10.0 ** step_exponent * stream.normals(n)
        units = [(pts[i] - pts[mover]) / gap for i, gap in
                 zip((i for i in range(n) if i != mover), gaps) if gap <= alpha]
        if recede and units:  # away from the near neighbours' mean direction
            t = -np.abs(t).max() * np.sum(units, axis=0)
        out = overfit_guard(model, mover, t)
        slack = 4 * n * np.finfo(float).eps * float(np.linalg.norm(out))
        components = [math.fsum(u * out) for u in units]
        assert all(c <= guard_tolerance(t) + slack for c in components)
        if all(c < -slack for c in (math.fsum(u * t) for u in units)):
            assert out is t  # nothing approached: the input object itself

    # The same points, with at least one neighbour near: after the guarded
    # step each gap that was within alpha is no smaller, up to the rounding
    # of the moved point and of the two distances, and up to the tolerance:
    # the guard leaves a component of at most that much toward a neighbour,
    # which closes the gap by as much. The example closes a gap of 3.2e-6
    # by 1.6e-13, more than the rounding at that scale allows.
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 8), exponent=st.integers(-6, 6),
           seed=st.integers(0, 2**64 - 1), k=st.integers(1, 7),
           step_exponent=st.integers(-3, 1))
    @example(n=5, exponent=-6, seed=3695, k=4, step_exponent=-3)
    def test_guarded_step_never_closes_a_near_gap(self, n, exponent, seed, k,
                                                  step_exponent):
        scale = 10.0 ** exponent
        stream = SplitMix64(seed)
        pts = scale * stream.normals(n * n).reshape(n, n)
        mover = int(stream.uniforms(1)[0] * n)
        others = [i for i in range(n) if i != mover]
        gaps = [math.dist(pts[i], pts[mover]) for i in others]
        edges = [0.0] + sorted(gaps) + [2.0 * max(gaps)]
        k = min(k, n - 1)
        alpha = 0.5 * (edges[k] + edges[k + 1])
        model = MpaModel(np.eye(n), {0: -1, 1: 1}, alpha=alpha, config=MpaConfig())
        model.moving_points = pts.tolist()
        t = scale * 10.0 ** step_exponent * stream.normals(n)
        moved = pts[mover] + overfit_guard(model, mover, t)
        slack = 4 * np.finfo(float).eps * max(float(np.abs(pts).max()),
                                              float(np.abs(moved).max()))
        for i, gap in zip(others, gaps):
            if gap <= alpha:
                assert math.dist(pts[i], moved) >= gap - guard_tolerance(t) - slack

    # One near neighbour and a step with a component toward it: the guard
    # projects that component out once and keeps the rest, at every scale.
    # A tolerance that does not scale with ||t|| lies below the rounding of
    # the projection, about 1e-16 of ||t||, at large scales, and the guard
    # then projects until its pass cap and returns a zero step.
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 8), exponent=st.integers(-6, 6), seed=st.integers(0, 2**64 - 1))
    @example(n=3, exponent=6, seed=0)
    def test_one_neighbour_projection_keeps_a_step(self, n, exponent, seed):
        scale = 10.0 ** exponent
        stream = SplitMix64(seed)
        pts = scale * stream.normals(n * n).reshape(n, n)
        gaps = sorted(math.dist(pts[0], p) for p in pts[1:])
        alpha = 2.0 * gaps[0] if n == 2 else 0.5 * (gaps[0] + gaps[1])
        near = min(range(1, n), key=lambda i: math.dist(pts[0], pts[i]))
        model = MpaModel(np.eye(n), {0: -1, 1: 1}, alpha=alpha, config=MpaConfig())
        model.moving_points = pts.tolist()
        t = scale * stream.normals(n)
        if np.dot(t, pts[near] - pts[0]) < 0.0:
            t = -t
        out = overfit_guard(model, 0, t)
        assert out is not t and np.any(out)
        unit = (pts[near] - pts[0]) / math.dist(pts[0], pts[near])
        assert math.fsum(unit * out) <= guard_tolerance(t) + 4 * n * np.finfo(float).eps * \
            float(np.linalg.norm(out))


def guard_tolerance(t) -> float:
    """The largest component toward a near neighbour that the guard leaves:
    64 * 2^-52 times ||t||, the step it was given."""
    return 64 * 2.0 ** -52 * float(np.linalg.norm(t))


class TestNearClusters:
    def test_full_percentile_keeps_everyone(self, two_blobs):
        out = near_clusters(two_blobs, 100.0)
        assert out[0].size == 50
        assert out[1].size == 50

    def test_membership_rule(self, two_blobs):
        out = near_clusters(two_blobs, 50.0)
        for label in (0, 1):
            idx = np.nonzero(two_blobs.labels == label)[0]
            pts = two_blobs.features[idx]
            mean = pts.mean(axis=0)
            dist = np.linalg.norm(pts - mean, axis=1)
            radius = np.percentile(dist, 50.0)
            want = set(idx[dist <= radius].tolist())
            assert set(out[label].tolist()) == want
            assert 0 < len(want) < idx.size

    def test_members_index_into_dataset(self, two_blobs):
        out = near_clusters(two_blobs, 50.0)
        assert np.all(two_blobs.labels[out[0]] == 0)
        assert np.all(two_blobs.labels[out[1]] == 1)

    # The radius comes from mpa._percentile on sorted Python floats; it must
    # give np.percentile's bits. Small integers make exact ties, and large
    # magnitudes make b - a overflow to inf.
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.one_of(
               st.integers(0, 3).map(float),
               st.floats(0.0, 1e300, allow_nan=False),
               st.floats(0.0, 10.0, allow_nan=False)), min_size=1, max_size=60),
           percentile=st.one_of(st.floats(0.0, 100.0),
                                st.sampled_from([50.0, 100.0, 1e-300, 100.0 / 3, 99.99999999999999]),
                                st.integers(1, 100)))
    @example(values=[1.0, math.inf, math.inf], percentile=80.0)
    def test_percentile_matches_numpy(self, values, percentile):
        with np.errstate(invalid="ignore"):
            want = np.percentile(np.array(values), percentile)
        got = mpa._percentile(sorted(values), percentile)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("percentile", [-5.0, 150.0, math.nan])
    def test_percentile_out_of_range_is_refused_as_numpy_does(self, two_blobs, percentile):
        with pytest.raises(ValueError, match="Percentiles must be in the range"):
            near_clusters(two_blobs, percentile)


def fixed_order_lambda(model, x, label):
    """lambda as fit computes it at n = 2 and 3:
    (x0*w0 + x1*w1 [+ x2*w2] + b) / ||w|| * sign, summed left to right."""
    w = model.hyperplane.weights
    raw = float(x[0]) * w[0]
    sq = w[0] * w[0]
    for xi, wi in zip(x[1:], w[1:]):
        raw += float(xi) * wi
        sq += wi * wi
    raw += model.hyperplane.bias
    return raw / math.sqrt(sq) * model.pseudo_sign[label]


class TestFit:
    def test_separated_blobs_reach_perfect_accuracy(self, two_blobs):
        model, log = train(two_blobs, MpaConfig(eta=0.5, epochs=200, seed=7))
        assert training_accuracy(model, two_blobs) == 1.0
        assert log.epochs_run <= 200

    def test_iris_pair_reaches_perfect_accuracy(self, iris_easy):
        model, log = train(iris_easy, MpaConfig(eta=0.5, epochs=200, seed=0))
        assert training_accuracy(model, iris_easy) == 1.0

    def test_single_class_rejected(self):
        ds = Dataset(np.arange(8, dtype=float).reshape(4, 2),
                     np.array([1, 1, 1, 1]))
        with pytest.raises(NonBinaryLabelsError):
            train(ds, MpaConfig())

    def test_deterministic(self):
        ds = make_blobs(seed=12, std=1.6)
        cfg = MpaConfig(eta=5e-5, epochs=40, seed=3)
        a, la = train(ds, cfg)
        b, lb = train(ds, cfg)
        assert np.array_equal(a.moving_points, b.moving_points)
        assert la.misclassified == lb.misclassified
        assert la.moves == lb.moves

    def test_log_shapes(self):
        ds = make_blobs(seed=2, std=1.8)
        cfg = MpaConfig(eta=1e-4, epochs=25, seed=1, early_stop=False)
        model, log = train(ds, cfg)
        assert log.epochs_run == 25
        assert len(log.misclassified) == 25
        assert log.moves + sum(log.skips.values()) == sum(log.misclassified)
        assert np.shape(model.moving_points) == (2, 2)
        assert np.all(np.isfinite(model.moving_points))
        # fit leaves the plane of the final points in the model
        h = line_from_points(*model.moving_points)
        assert bits(model.hyperplane.weights) == bits(h.weights)
        assert model.hyperplane.bias == h.bias

    def test_early_stop_halts_after_clean_epoch(self, two_blobs):
        model, log = train(two_blobs, MpaConfig(eta=0.5, epochs=200, seed=7))
        assert log.stopped_early
        assert log.misclassified[-1] == 0
        assert log.epochs_run < 200

    def test_rows_a_last_bit_off_the_plane_count_by_their_side(self):
        # The initial boundary is the float line through (0, 0) and
        # (0.5000000000000001, 0.5). w.x + b is 1.1e-16 at (1, 1) of class 0
        # and -1.1e-16 at (-1, -1) of class 1, each on its class's side, so
        # the first epoch misses nothing and every prediction is right.
        model, log = train(FOUR_ROWS, MpaConfig(eta=0.1))
        assert log.misclassified == [0]
        assert log.stopped_early
        assert training_accuracy(model, FOUR_ROWS) == 1.0


    def test_matches_plain_sequential_loop(self):
        # overlapping blobs (close centers) so moves keep happening
        ds = make_blobs(seed=4, std=1.9, center_halfwidth=4.0)
        cfg = MpaConfig(eta=0.01, epochs=30, seed=5, early_stop=False)

        model = initialize(ds.class_points(0), ds.class_points(1), cfg)
        log = fit(model, ds)
        assert log.moves > 0

        ref = initialize(ds.class_points(0), ds.class_points(1), cfg)
        ref_log = self.plain_fit(ref, ds, cfg)

        assert log.misclassified == ref_log["misclassified"]
        assert log.moves == ref_log["moves"]
        # lambda_value is signed_displacement, which sums lambda in fit's
        # fixed order (test_signed_displacement_is_fits_lambda), so the
        # points agree bit for bit
        assert bits(model.moving_points) == bits(ref.moving_points)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_signed_displacement_is_fits_lambda(self, dim):
        # signed_displacement times the pseudo sign is the lambda of fit's
        # n = 2 and 3 loops, bit for bit, on every row of trained models
        for seed in range(10):
            ds = make_blobs(seed=seed, std=2.5, n_per_class=25, dim=dim,
                            center_halfwidth=4.0)
            model, _ = train(ds, MpaConfig(eta=0.01, epochs=3, seed=seed, early_stop=False))
            for x, label in zip(ds.features, ds.labels.tolist()):
                assert lambda_value(model, x, label).hex() == \
                    fixed_order_lambda(model, x, label).hex()

    @pytest.mark.parametrize("eta, alpha, dim", [
        (0.01, None, 2), (0.3, 8.0, 2), (6.0, None, 2),
        (0.01, None, 3), (0.3, 8.0, 3), (6.0, None, 3),
    ], ids=["plain", "guard", "reverts", "plain-3d", "guard-3d", "reverts-3d"])
    def test_public_step_and_guard_replay_fit_bitwise(self, eta, alpha, dim):
        # At n = 2 and 3 fit takes the steps of movement_vector and
        # overfit_guard and the plane of hyperplane_from_points. Fed fit's
        # fixed-order lambda, the plain loop through those public functions
        # lands on the same points bit for bit.
        ds = make_blobs(seed=7, std=2.5, n_per_class=25, dim=dim, center_halfwidth=4.0)
        cfg = MpaConfig(eta=eta, epochs=12, alpha=alpha, seed=1, early_stop=False)
        model = initialize(ds.class_points(0), ds.class_points(1), cfg)
        log = fit(model, ds)
        ref = initialize(ds.class_points(0), ds.class_points(1), cfg)
        ref_log = self.plain_fit(ref, ds, cfg, lam_of=fixed_order_lambda)
        assert log.moves > 0
        assert log.misclassified == ref_log["misclassified"]
        assert log.moves == ref_log["moves"]
        assert bits(model.moving_points) == bits(ref.moving_points)

    @staticmethod
    def plain_fit(model, ds, cfg, lam_of=lambda_value):
        """One example at a time, nothing vectorized, same draw discipline."""
        clusters = near_clusters(ds, cfg.near_cluster_percentile)
        rng = SplitMix64(cfg.seed)
        X, y = ds.features, ds.labels
        out = {"misclassified": [], "moves": 0}
        for _ in range(cfg.epochs):
            miss = 0
            for j in rng.permutation(ds.m):
                lam = lam_of(model, X[j], int(y[j]))
                if lam >= 0:
                    continue
                miss += 1
                members = clusters[1 - int(y[j])]
                pair = None
                for _attempt in range(1 + mpa.MAX_RESAMPLES):
                    g = X[members[rng.randint(members.size)]]
                    try:
                        pair = movement_vector(model, X[j], g, lam)
                        break
                    except ZeroDisplacementError:
                        pair = None
                if pair is None:
                    continue
                mover, t = pair
                t = overfit_guard(model, mover, t)
                if not np.any(t):
                    continue
                old = model.moving_points[mover]
                model.moving_points[mover] = (np.array(old) + t).tolist()
                try:
                    model.hyperplane = hyperplane_from_points(model.moving_points)
                except DegeneratePointsError:
                    model.moving_points[mover] = old
                    continue
                out["moves"] += 1
            out["misclassified"].append(miss)
        return out


FOUR_ROWS = Dataset(np.array([[-2.0, 0.0], [1.0, 1.0], [2.0, 0.0], [-1.0, -1.0]]),
                    np.array([0, 0, 1, 1]))


@st.composite
def grid_problems(draw):
    """Rows on a small integer grid in 2..8 dimensions, labelled by the side
    of an integer hyperplane through the origin; a row on it gets a drawn
    label. Rows often lie on the initial boundary, where lambda is 0."""
    n = draw(st.integers(2, 8))
    m = draw(st.integers(n + 2, 6 * n))
    X = draw(hnp.arrays(np.float64, (m, n), elements=st.integers(-2, 2)))
    v = draw(hnp.arrays(np.float64, n, elements=st.integers(-2, 2)))
    raw = X @ v  # exact: small integers
    ties = draw(hnp.arrays(np.int64, m, elements=st.integers(0, 1)))
    return Dataset(X, np.where(raw > 0, 1, np.where(raw < 0, 0, ties)))


class TestEarlyStopMeansAPerfectFit:
    @settings(max_examples=150, deadline=None)
    @given(ds=grid_problems(), exponent=st.integers(-6, 6),
           eta=st.sampled_from([0.01, 0.1, 0.5]))
    @example(ds=FOUR_ROWS, exponent=0, eta=0.1)
    def test_stopped_early_implies_training_accuracy_one(self, ds, exponent, eta):
        ds = Dataset(10.0 ** exponent * ds.features, ds.labels)
        try:
            model, log = train(ds, MpaConfig(eta=eta, epochs=30))
        except ValueError:  # one class only, coincident means, a degenerate start
            assume(False)
        if log.stopped_early:
            assert log.misclassified[-1] == 0
            assert training_accuracy(model, ds) == 1.0


# Frozen copy of the per-move code that fit used before it ran on raw
# arrays: movement_vector, overfit_guard, line_from_points with the
# Hyperplane checks, and the model's plane rebuilt through the points. It
# must not be rewritten to share code with the library. For n = 2 and
# n = 3 every dot product and norm is written out as plain scalar
# arithmetic in a fixed order (x0*w0 + x1*w1 + x2*w2,
# sqrt(d0*d0 + d1*d1 + d2*d2)), which is what fit computes there on Python
# floats, so no n <= 3 value takes its bits from BLAS; the n = 3 plane is
# the closed-form cross product. The n >= 4 step, guard and ||w|| sum in
# the same fixed order (frozen_dot), as fit's do for every n. For every n
# the plane is re-read through the points after each move; for n >= 4 its
# cofactors come from the numpy elimination geometry._eliminate, which
# test_geometry pins to the unrolled one that fit runs and to a per-minor
# oracle. A plane is refused by the rule without a unit, ||w|| at most
# n 2^-42 times the product of the edge norms, decided on the exact
# edges (below_hadamard_bound), and a move whose plane is refused as
# degenerate, or whose point or plane is not finite, is undone. A step is
# refused only when g == c: a v = g - c shorter than SHORT is scaled by
# SHORT_UP, exactly, before its norm, so no nonzero square underflows.
SHORT, SHORT_UP = 2.0 ** -400, 2.0 ** 600


def frozen_hyperplane(weights, bias):
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1 or not np.all(np.isfinite(w)):
        raise ValueError("bad weights")
    bias = float(bias)
    if not np.isfinite(bias):
        raise ValueError("bias is not finite")
    norm = math.sqrt(frozen_dot(w.tolist(), w.tolist()))
    if not math.isfinite(norm):
        raise ValueError("the norm of the hyperplane normal overflows")
    if norm == 0.0:
        raise DegeneratePointsError("hyperplane normal is zero")
    return w, bias


def frozen_degenerate(w, points):
    """Whether the plane of normal w through the points is refused as
    degenerate: a finite ||w|| of at most n 2^-42 times the
    product of the exact edge norms."""
    norm = math.sqrt(frozen_dot(w, w))
    return norm < math.inf and below_hadamard_bound(norm, points)


def frozen_line_from_points(e, f):
    x1, y1 = (float(v) for v in e)
    x2, y2 = (float(v) for v in f)
    if not all(math.isfinite(v) for v in (x1, y1, x2, y2)):
        raise ValueError("point has non-finite coordinates")
    w = [y1 - y2, x2 - x1]
    if frozen_degenerate(w, [[x1, y1], [x2, y2]]):
        raise DegeneratePointsError("the two points coincide")
    return frozen_hyperplane(np.array(w), x1 * y2 - x2 * y1)


def frozen_plane3(points):
    """The plane through three 3-D points: normal (p2 - p1) x (p3 - p1), bias -(w . p1)."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = points.tolist()
    if not all(math.isfinite(v) for v in (a0, a1, a2, b0, b1, b2, c0, c1, c2)):
        raise ValueError("point has non-finite coordinates")
    u0, u1, u2 = b0 - a0, b1 - a1, b2 - a2
    v0, v1, v2 = c0 - a0, c1 - a1, c2 - a2
    w0 = u1 * v2 - u2 * v1
    w1 = u2 * v0 - u0 * v2
    w2 = u0 * v1 - u1 * v0
    if frozen_degenerate([w0, w1, w2], points.tolist()):
        raise DegeneratePointsError("points are affinely dependent")
    return frozen_hyperplane(np.array([w0, w1, w2]), -(w0 * a0 + w1 * a1 + w2 * a2))


def frozen_plane(points):
    """n >= 4: the normal of the numpy elimination of the edges
    p_i - p_0, and the bias -(w . p_0)."""
    if not np.all(np.isfinite(points)):
        raise ValueError("point has non-finite coordinates")
    with np.errstate(all="ignore"):
        w = geometry._eliminate(points[1:] - points[0])
    if frozen_degenerate(w, points.tolist()):
        raise DegeneratePointsError("points are affinely dependent")
    return frozen_hyperplane(np.array(w), -frozen_dot(w, points[0].tolist()))


def frozen_refresh(points):
    if points.shape[0] == 2:
        return frozen_line_from_points(points[0], points[1])
    if points.shape[0] == 3:
        return frozen_plane3(points)
    return frozen_plane(points)


def frozen_movement_vector(points, q, g, lam, eta):
    if points.shape[0] == 2:
        return frozen_movement_vector_2d(points, q, g, lam, eta)
    if points.shape[0] == 3:
        return frozen_movement_vector_3d(points, q, g, lam, eta)
    q = [float(v) for v in q]
    g = [float(v) for v in g]
    mover = 0
    for i, p in enumerate(points.tolist()):
        d = [pk - qk for pk, qk in zip(p, q)]
        dist = math.sqrt(frozen_dot(d, d))
        if i == 0 or dist < least:  # the lowest index wins ties
            mover, least = i, dist
    c = points[mover].tolist()
    v = [gk - ck for gk, ck in zip(g, c)]
    nv = math.sqrt(frozen_dot(v, v))
    if nv < SHORT:
        v = [vk * SHORT_UP for vk in v]
        nv = math.sqrt(frozen_dot(v, v))
    if not nv:
        raise ZeroDisplacementError("sampled target coincides with the mover")
    step = abs(eta * lam)
    return mover, np.array([vk / nv * step for vk in v])


def frozen_movement_vector_2d(points, q, g, lam, eta):
    q0, q1 = (float(v) for v in q)
    g0, g1 = (float(v) for v in g)
    dists = []
    for p0, p1 in points.tolist():
        d0 = p0 - q0
        d1 = p1 - q1
        dists.append(math.sqrt(d0 * d0 + d1 * d1))
    mover = 0 if dists[0] <= dists[1] else 1
    c0, c1 = points[mover].tolist()
    v0 = g0 - c0
    v1 = g1 - c1
    nv = math.sqrt(v0 * v0 + v1 * v1)
    if nv < SHORT:
        v0, v1 = v0 * SHORT_UP, v1 * SHORT_UP
        nv = math.sqrt(v0 * v0 + v1 * v1)
    if not nv:
        raise ZeroDisplacementError("sampled target coincides with the mover")
    step = abs(eta * lam)
    return mover, np.array([v0 / nv * step, v1 / nv * step])


def frozen_movement_vector_3d(points, q, g, lam, eta):
    q0, q1, q2 = (float(v) for v in q)
    g0, g1, g2 = (float(v) for v in g)
    dists = []
    for p0, p1, p2 in points.tolist():
        d0 = p0 - q0
        d1 = p1 - q1
        d2 = p2 - q2
        dists.append(math.sqrt(d0 * d0 + d1 * d1 + d2 * d2))
    mover = 0
    for i in (1, 2):
        if dists[i] < dists[mover]:
            mover = i
    c0, c1, c2 = points[mover].tolist()
    v0 = g0 - c0
    v1 = g1 - c1
    v2 = g2 - c2
    nv = math.sqrt(v0 * v0 + v1 * v1 + v2 * v2)
    if nv < SHORT:
        v0, v1, v2 = v0 * SHORT_UP, v1 * SHORT_UP, v2 * SHORT_UP
        nv = math.sqrt(v0 * v0 + v1 * v1 + v2 * v2)
    if not nv:
        raise ZeroDisplacementError("sampled target coincides with the mover")
    step = abs(eta * lam)
    return mover, np.array([v0 / nv * step, v1 / nv * step, v2 / nv * step])


def frozen_overfit_guard(points, mover, t, alpha, stats):
    if points.shape[0] == 2:
        return frozen_overfit_guard_2d(points, mover, t, alpha, stats)
    if points.shape[0] == 3:
        return frozen_overfit_guard_3d(points, mover, t, alpha, stats)
    e = points[mover].tolist()
    rhats = []
    for i, f in enumerate(points.tolist()):
        if i == mover:
            continue
        r = [fk - ek for fk, ek in zip(f, e)]
        gap = math.sqrt(frozen_dot(r, r))
        if 0.0 < gap <= alpha:
            rhats.append([rk / gap for rk in r])
    if not rhats:
        return t
    out = t.tolist()
    tol = 64 * 2.0 ** -52 * math.sqrt(frozen_dot(out, out))
    projected = False
    for _ in range(64):
        # the neighbours approached at the start of the pass, in order
        dots = [frozen_dot(r, out) for r in rhats]
        if not any(d > tol for d in dots):
            return np.array(out) if projected else t
        if not projected:
            projected = True
            stats["projected"] += 1
        for r, first in zip(rhats, dots):
            if first > tol:
                d = frozen_dot(r, out)
                if d > tol:
                    out = [ok - rk * d for ok, rk in zip(out, r)]
    return np.zeros_like(t)


def frozen_dot(u, v):
    """u[0]*v[0] + u[1]*v[1] + ..., summed left to right."""
    total = u[0] * v[0]
    for uk, vk in zip(u[1:], v[1:]):
        total += uk * vk
    return total


def frozen_overfit_guard_2d(points, mover, t, alpha, stats):
    e0, e1 = points[mover].tolist()
    f0, f1 = points[1 - mover].tolist()
    r0 = f0 - e0
    r1 = f1 - e1
    gap = math.sqrt(r0 * r0 + r1 * r1)
    if not gap <= alpha:
        return t
    r0 = r0 / gap
    r1 = r1 / gap
    t0, t1 = t.tolist()
    tol = 64 * 2.0 ** -52 * math.sqrt(t0 * t0 + t1 * t1)
    projected = False
    for _ in range(64):
        d = r0 * t0 + r1 * t1
        if not d > tol:
            return np.array([t0, t1]) if projected else t
        if not projected:
            projected = True
            stats["projected"] += 1
        t0 = t0 - r0 * d
        t1 = t1 - r1 * d
    return np.zeros_like(t)


def frozen_overfit_guard_3d(points, mover, t, alpha, stats):
    e0, e1, e2 = points[mover].tolist()
    rhats = []
    for i, (f0, f1, f2) in enumerate(points.tolist()):
        if i == mover:
            continue
        r0 = f0 - e0
        r1 = f1 - e1
        r2 = f2 - e2
        gap = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2)
        if 0.0 < gap <= alpha:
            rhats.append((r0 / gap, r1 / gap, r2 / gap))
    if not rhats:
        return t
    t0, t1, t2 = t.tolist()
    tol = 64 * 2.0 ** -52 * math.sqrt(t0 * t0 + t1 * t1 + t2 * t2)
    projected = False
    for _ in range(64):
        # the neighbours approached at the start of the pass, in order
        dots = [r0 * t0 + r1 * t1 + r2 * t2 for r0, r1, r2 in rhats]
        if not any(d > tol for d in dots):
            return np.array([t0, t1, t2]) if projected else t
        if not projected:
            projected = True
            stats["projected"] += 1
        for (r0, r1, r2), first in zip(rhats, dots):
            if first > tol:
                d = r0 * t0 + r1 * t1 + r2 * t2
                if d > tol:
                    t0 = t0 - r0 * d
                    t1 = t1 - r1 * d
                    t2 = t2 - r2 * d
    return np.zeros_like(t)


def frozen_fit(model, ds, cfg):
    """The object-level loop on copies of the model's state."""
    points = np.array(model.moving_points)
    w, b = frozen_refresh(points)
    alpha = model.alpha if cfg.alpha is None else cfg.alpha
    clusters = near_clusters(ds, cfg.near_cluster_percentile)
    rng = SplitMix64(cfg.seed)
    X, y, m = ds.features, ds.labels, ds.m
    pseudo = np.where(y == 1, model.pseudo_sign[1], model.pseudo_sign[0]).astype(float)
    out = {"misclassified": [], "moves": 0, "projected": 0, "reverted": 0, "overflowed": 0}
    for _ in range(cfg.epochs):
        order = np.array(rng.permutation(m), dtype=int)
        miss = 0
        i = 0
        while i < m:
            rows = order[i:]
            if points.shape[0] == 2:  # x0*w0 + x1*w1 + b, element by element
                w0, w1 = w.tolist()
                norm_w = math.sqrt(w0 * w0 + w1 * w1)
                raw = X[rows, 0] * w0 + X[rows, 1] * w1 + b
            elif points.shape[0] == 3:  # x0*w0 + x1*w1 + x2*w2 + b, likewise
                w0, w1, w2 = w.tolist()
                norm_w = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
                raw = X[rows, 0] * w0 + X[rows, 1] * w1 + X[rows, 2] * w2 + b
            else:  # x0*w0 + x1*w1 + ... + b, column by column
                norm_w = math.sqrt(frozen_dot(w.tolist(), w.tolist()))
                margin = X[rows, 0] * w[0]
                for k in range(1, w.size):
                    margin = margin + X[rows, k] * w[k]
                raw = margin + b
            lam = raw / norm_w * pseudo[rows]
            # wrong: the side, +1 where raw >= 0, is not the pseudo sign
            bad = np.nonzero((raw < 0.0) != (pseudo[rows] < 0.0))[0]
            if bad.size == 0:
                break
            k = int(bad[0])
            j = rows[k]
            miss += 1
            i += k + 1
            if cfg.eta * lam[k] == 0.0:  # on the plane, or an underflow: no step
                continue
            members = clusters[1 - int(y[j])]
            pair = None
            for _attempt in range(1 + mpa.MAX_RESAMPLES):
                g = X[members[rng.randint(members.size)]]
                try:
                    pair = frozen_movement_vector(points, X[j], g, float(lam[k]), cfg.eta)
                    break
                except ZeroDisplacementError:
                    pair = None
            if pair is None:
                continue
            mover, t = pair
            t = frozen_overfit_guard(points, mover, t, alpha, out)
            if not np.any(t):
                continue
            old = points[mover].copy()
            points[mover] = old + t
            try:
                w, b = frozen_refresh(points)
            except DegeneratePointsError:
                points[mover] = old
                out["reverted"] += 1
                continue
            except ValueError:  # the point or its plane is not finite
                points[mover] = old
                out["overflowed"] += 1
                continue
            out["moves"] += 1
        out["misclassified"].append(miss)
        if cfg.early_stop and miss == 0:
            break
    out["points"] = points
    out["plane"] = frozen_refresh(points)  # fit leaves a fresh plane in the model
    return out


def assert_fit_matches_frozen(dim, eta, seed, blob_seed, std, scale, alpha_factor,
                              epochs=12, early_stop=False):
    ds = make_blobs(seed=blob_seed, std=std, n_per_class=25, dim=dim,
                    center_halfwidth=4.0)
    ds = Dataset(ds.features * scale, ds.labels)
    alpha = None if alpha_factor is None else alpha_factor * scale
    cfg = MpaConfig(eta=eta, epochs=epochs, alpha=alpha, seed=seed,
                    early_stop=early_stop)
    try:
        model = initialize(ds.class_points(0), ds.class_points(1), cfg)
    except ValueError:
        return None  # no usable initial boundary; nothing to train
    return assert_loop_matches_frozen(model, ds)


def assert_loop_matches_frozen(model, ds):
    """fit the model on ds and check it against frozen_fit, bit for bit;
    returns frozen_fit's record."""
    ref = frozen_fit(model, ds, model.config)
    log = fit(model, ds)
    assert bits(model.moving_points) == ref["points"].tobytes()
    assert log.misclassified == ref["misclassified"]
    assert log.moves == ref["moves"]
    assert log.skips[mpa.DEGENERATE_REVERT] == ref["reverted"]
    assert log.skips[mpa.OVERFLOW_REVERT] == ref["overflowed"]
    assert log.moves + sum(log.skips.values()) == sum(log.misclassified)
    w, b = ref["plane"]
    assert bits(model.hyperplane.weights) == w.tobytes()
    assert np.float64(model.hyperplane.bias).tobytes() == np.float64(b).tobytes()
    return ref


class TestFitMatchesFrozenLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(2, 5),
        eta=st.sampled_from([1e-4, 1e-2, 0.3, 2.0, 6.0]),
        seed=st.integers(0, 2**64 - 1),
        blob_seed=st.integers(0, 10_000),
        std=st.floats(1.0, 4.0),
        scale=st.sampled_from([1e-4, 1.0, 1e4]),
        alpha_factor=st.sampled_from([None, 0.0, 0.5, 2.0, 8.0]),
        early_stop=st.booleans(),
    )
    @example(dim=3, eta=0.3, seed=1, blob_seed=7, std=2.5, scale=1.0,
             alpha_factor=8.0, early_stop=False)
    def test_bit_identical(self, dim, eta, seed, blob_seed, std, scale,
                           alpha_factor, early_stop):
        assert_fit_matches_frozen(dim, eta, seed, blob_seed, std, scale,
                                  alpha_factor, early_stop=early_stop)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_guard_projects_and_matches(self, dim):
        ref = assert_fit_matches_frozen(dim, 0.3, 1, 7, 2.5, 1.0, 8.0)
        assert ref["projected"] > 0 and ref["moves"] > 0

    # At eta 30 a step overshoots and the next is longer still, until a
    # moved point or its plane leaves the float range and is undone.
    @pytest.mark.parametrize("dim", [2, 3])
    def test_overflow_reverts_match(self, dim):
        ref = assert_fit_matches_frozen(dim, 30.0, 3, 11, 3.0, 1.0, None)
        assert ref["overflowed"] > 0 and ref["moves"] > 0

    # A class-1 row at depth 5 (x_{n-1} = -5 under the plane x_{n-1} = 0)
    # pulls point 0 five units toward the class-0 row g, which lands it on
    # point 1 at n = 2 and on the line through points 1 and 2 at n = 3
    # (6/10 * 5 and 8/10 * 5 round to 3.0 and 4.0). The plane is refused,
    # the move undone, and the same happens every epoch; g itself lies on
    # the plane and is skipped as a zero step.
    @pytest.mark.parametrize("points, row, g", [
        pytest.param([[0.0, 0.0], [5.0, 0.0]], [0.2, -5.0], [3.0, 0.0], id="n2-coincident"),
        pytest.param([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [3.0, 8.0, 0.0]],
                     [0.1, 0.1, -5.0], [6.0, 8.0, 0.0], id="n3-collinear"),
    ])
    def test_degenerate_reverts_match(self, points, row, g):
        ds = Dataset(np.array([g, row]), np.array([0, 1]))
        model = MpaModel(np.array(points), {0: -1, 1: 1}, alpha=0.5,
                         config=MpaConfig(eta=1.0, epochs=3, seed=5))
        ref = assert_loop_matches_frozen(model, ds)
        assert ref["reverted"] == 3 and ref["moves"] == 0
        assert model.moving_points == points

    @pytest.mark.parametrize("dim", [3, 8])
    def test_skipped_and_run_guards_match(self, dim, monkeypatch):
        # With alpha = 2.0 the pre-check finds no point within alpha of the
        # mover on some moves and skips _guard; on others the guard runs and
        # projects. Both paths replay the frozen loop.
        calls = []
        guard = mpa._guard
        monkeypatch.setattr(mpa, "_guard", lambda *args: calls.append(1) or guard(*args))
        ref = assert_fit_matches_frozen(dim, 2.0, 1, 7, 2.5, 1.0, 2.0)
        assert ref["projected"] > 0
        assert 0 < len(calls) < ref["moves"]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_loop_builds_every_plane_through_build(self, n):
        # One builder lookup: the loop names no builder of its own.
        source = mpa._fixed_order_source(n)
        assert "build(" in source
        for name in ("_line_coeffs", "_plane3_coeffs", "_plane_coeffs"):
            assert name not in source


def guard_sees_a_near_point(points, mover, alpha):
    """Whether a point lies within alpha of the mover by _guard's own gap,
    the root of (f0 - e0)^2 + (f1 - e1)^2 + ... summed left to right; the
    mover, and a gap of 0.0, are passed over as _guard passes them."""
    e = points[mover]
    for i, f in enumerate(points):
        r = [fk - ek for fk, ek in zip(f, e)]
        if i != mover and 0.0 < math.sqrt(frozen_dot(r, r)) <= alpha:
            return True
    return False


def largest_gap(P):
    return max(math.dist(p, q) for p in P for q in P)


def recording_guard(calls):
    """_guard, appending (mover, the points' bytes) to calls at each call."""
    guard = mpa._guard

    def recording(pts, mover, t, alpha):
        calls.append((mover, np.array(pts).tobytes()))
        return guard(pts, mover, t, alpha)
    return recording


class TestGapFloor:
    # fit runs _guard's pre-check only where a gap floor cannot prove that
    # no point lies within alpha of the mover (mpa._EPOCHS_SOURCE). So fit
    # must keep the frozen loop's bits, and call _guard on exactly the moves
    # where a point lies within alpha, here found at every move of the
    # frozen loop by an exact pre-check of its own. n 2..8, scales
    # 2^-500..2^500, alpha from 0 to 10 times the largest gap between the
    # moving points, eta up to 6. Past about 2^(+-1000/n) the initial plane
    # under- or overflows and nothing trains; below that, both loops train
    # alike at every scale.
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 8),
           exponent=st.one_of(st.integers(-500, 500), st.integers(-20, 20)),
           alpha_factor=st.floats(0.0, 10.0),
           eta=st.sampled_from([1e-4, 0.01, 0.3, 2.0, 6.0]),
           seed=st.integers(0, 2**64 - 1), blob_seed=st.integers(0, 10_000),
           std=st.floats(1.0, 4.0))
    @example(n=8, exponent=0, alpha_factor=0.3, eta=2.0, seed=1, blob_seed=7, std=2.5)
    @example(n=3, exponent=-18, alpha_factor=0.05, eta=0.3, seed=5, blob_seed=3, std=3.0)
    def test_fit_guards_exactly_the_near_moves(self, n, exponent, alpha_factor, eta, seed,
                                               blob_seed, std):
        scale = 2.0 ** exponent
        ds = make_blobs(seed=blob_seed, std=std, n_per_class=25, dim=n, center_halfwidth=4.0)
        ds = Dataset(ds.features * scale, ds.labels)
        cfg = MpaConfig(eta=eta, epochs=12, seed=seed, early_stop=False)
        try:
            model = initialize(ds.class_points(0), ds.class_points(1), cfg)
        except ValueError:
            return  # no usable initial boundary; nothing to train
        model.alpha = alpha_factor * largest_gap(model.moving_points)
        want, got = [], []
        frozen_guard = frozen_overfit_guard

        def frozen_recording(points, mover, t, alpha, stats):
            if guard_sees_a_near_point(points.tolist(), mover, alpha):
                want.append((mover, points.tobytes()))
            return frozen_guard(points, mover, t, alpha, stats)

        with mock.patch.dict(globals(), frozen_overfit_guard=frozen_recording):
            ref = frozen_fit(model, ds, cfg)
        with mock.patch.object(mpa, "_guard", recording_guard(got)):
            log = fit(model, ds)
        assert got == want
        assert bits(model.moving_points) == ref["points"].tobytes()
        assert log.misclassified == ref["misclassified"]
        assert log.moves == ref["moves"]
        w, b = ref["plane"]
        assert bits(model.hyperplane.weights) == w.tobytes()
        assert np.float64(model.hyperplane.bias).tobytes() == np.float64(b).tobytes()

    # The generated loop itself, on points at 2^k times the unit scale of
    # make_blobs, with the plane builder and step_to run on the points
    # scaled back by 2^-k, so that no plane or step of theirs under- or
    # overflows at any scale (2^k scales a normal float exactly). At
    # k = -530 every gap's squares are subnormal, so the pre-check's least
    # gap is below _MIN_GAP and sets no key, and each move adds more to
    # moved for the rounding of such squares than it moves. Each move that
    # reaches the guard is seen in step_to, whose mover is the row of the
    # last plane built that holds c.
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 8), k=st.integers(-540, 500), alpha_factor=st.floats(0.0, 10.0),
           eta=st.sampled_from([0.01, 0.3, 2.0, 6.0]), seed=st.integers(0, 2**32 - 1))
    @example(n=4, k=-530, alpha_factor=0.3, eta=2.0, seed=3)
    def test_loop_guards_exactly_the_near_moves_at_any_scale(self, n, k, alpha_factor, eta,
                                                             seed):
        up, down = 2.0 ** k, 2.0 ** -k
        unit = make_blobs(seed=seed, std=2.5, n_per_class=25, dim=n, center_halfwidth=4.0)
        cfg = MpaConfig(eta=eta, epochs=8, seed=seed)
        try:
            model = initialize(unit.class_points(0), unit.class_points(1), cfg)
        except ValueError:
            return
        ds = Dataset(unit.features * up, unit.labels)
        alpha = alpha_factor * largest_gap(model.moving_points) * up
        build = geometry._plane_builder(n)
        nearest, step_to, epochs = mpa._fixed_order(n)
        state, want, got = [], [], []

        def scaled_build(*rows):
            rows_unit = [[x * down for x in row] for row in rows]
            *w, b, norm_w = build(*rows_unit)
            state[:] = rows  # the loop's points once this plane is kept
            return (*w, b * up, norm_w)

        def scaled_step_to(*args):
            c_unit, g_unit = ([x * down for x in args[i:i + n]] for i in (0, n))
            t = step_to(*c_unit, *g_unit, args[-1] * down)
            movers = [i for i, row in enumerate(state) if list(row) == list(args[:n])]
            assert len(movers) == 1
            if guard_sees_a_near_point(state, movers[0], alpha):
                want.append((movers[0], np.array(state).tobytes()))
            return [x * up for x in t]

        clusters = near_clusters(ds, cfg.near_cluster_percentile)
        draws = [clusters[1 - label].tolist() for label in ds.labels.tolist()]
        below = [model.pseudo_sign[label] < 0 for label in ds.labels.tolist()]
        loop = epochs([[x * up for x in row] for row in model.moving_points], ds.features,
                      below, draws,
                      SplitMix64(seed), cfg, alpha, mpa.TrainingLog(), scaled_build,
                      step_to=scaled_step_to)
        with mock.patch.object(mpa, "_guard", recording_guard(got)):
            misclassified = list(loop)
        assert got == want
        assume(sum(misclassified) > 0)


# sha256 over n = 2 and n = 3 trains: per blob seed 0-3, scale 1e-6, 1 and
# 1e6 and (eta, alpha / scale) setting below, the model document and the
# TrainingLog, then 5 movement_vector steps of the trained model, or the
# name of the error train raised. The digests were taken from the
# hand-written n = 2 and n = 3 loops that ran before the loop was generated
# per n, so they hold the generated loop to those bits. They were retaken
# when the skips gained the zero_step key, which every log now holds, and
# when a side became the exact sign of w.x + b: the three n = 2 trains of
# blob seed 2 at scale 1e-6, whose class mean sat within the deleted
# on-plane band, raised MeanOnBoundaryError and now train. With a zero
# zero_step dropped from the logs, n = 3 hashed as before. They were
# retaken when the plane and the guard lost their units and the skips
# gained the overflow_revert key. At n = 2, 16 of the 36 trains moved: the
# 12 revert-heavy ones, whose far-out planes were refused as degenerate
# and whose overshooting moves are now undone as overflows, and the 4
# guard-heavy ones at scale 1e6, where the guard zeroed steps. At n = 3,
# the same 16 and 2 guard-heavy ones at scale 1 moved, and the 12 trains
# at scale 1e-6, which raised DegeneratePointsError, now train.
SMALL_N_SETTINGS = ((0.01, None), (0.3, 8.0), (6.0, None))  # plain, guard-, revert-heavy
SMALL_N_DIGESTS = {
    2: "5c7800ae7567638dceef1c18e5aabe5cede96ce501fdd113b1498266ed15f19f",
    3: "1d065fd69927fc8c210bdf38a61630fd059b0b79e0108d4a80d0552c5162b988",
}


@pytest.mark.parametrize("dim", sorted(SMALL_N_DIGESTS))
def test_small_n_trains_keep_their_bits(dim, monkeypatch):
    seen = {"projected": 0, "reverted": 0, "trained": 0}
    guard = mpa._guard

    def counting(pts, mover, t, alpha):
        out = guard(pts, mover, t, alpha)
        seen["projected"] += out is not t
        return out

    monkeypatch.setattr(mpa, "_guard", counting)
    digest = hashlib.sha256()
    for scale in (1e-6, 1.0, 1e6):
        for eta, alpha_factor in SMALL_N_SETTINGS:
            for seed in range(4):
                ds = make_blobs(seed=seed, std=2.5, n_per_class=25, dim=dim,
                                center_halfwidth=4.0)
                ds = Dataset(ds.features * scale, ds.labels)
                alpha = None if alpha_factor is None else alpha_factor * scale
                try:
                    model, log = train(ds, MpaConfig(eta=eta, epochs=30, alpha=alpha,
                                                     seed=seed))
                except ValueError as exc:
                    digest.update(type(exc).__name__.encode())
                    continue
                seen["trained"] += 1
                seen["reverted"] += log.skips[mpa.DEGENERATE_REVERT] + log.skips[mpa.OVERFLOW_REVERT]
                digest.update(mpa.model_document(model).encode())
                digest.update(json.dumps(asdict(log), sort_keys=True).encode())
                X = ds.features
                for k in range(5):
                    try:
                        mover, t = movement_vector(model, X[k], X[-1 - k], -0.5)
                    except ZeroDisplacementError:
                        digest.update(b"zero")
                        continue
                    digest.update(struct.pack(f"<q{len(t)}d", mover, *t))
    assert min(seen.values()) > 0, seen
    assert digest.hexdigest() == SMALL_N_DIGESTS[dim]


# Two sha256 per n >= 4 over trains at scales 1e-6, 1 and 1e6, each
# SMALL_N_SETTINGS setting and blob seeds 0-2, and over the reports of
# run_synthetic_cell(seed, 95, dim) for seeds 0-2. The first covers the
# TrainingLog of each plain train, or the name of the error train raised,
# and the reports. It was taken while the n >= 4 step still summed its
# norms in BLAS, and holds the fixed-order step to those logs and reports.
# The second covers the logs of the guard- and revert-heavy trains and
# every model document. It was retaken when lambda moved from a BLAS
# matrix-vector product to the generated loop's fixed-order sum, which
# moves a point's last bits; with steps this large (eta 0.3 and 6.0) that
# can change a later accept-or-revert decision. Over n = 4, 5 and 8, 34
# of the 54 models and 12 of those 36 logs changed then; the first digest
# held. It was retaken again when every move began to re-read its plane
# from a fresh elimination in place of a rank-one update: 35 of the 54
# models and 11 of the 36 logs changed, and the first digest held. Both
# were retaken when the skips gained the zero_step key; with a zero
# zero_step dropped from the logs, every digest hashed as before. Both
# were retaken when the plane came from the edges p_i - p_0 with no unit
# in its test: at each n, 12 of the 18 trains at scales 1 and 1e6 moved
# (every train that moves a point takes the translated elimination's
# bits), the 9 at scale 1e-6, which raised DegeneratePointsError, now
# train, and the three cell reports held.
LARGE_N_DIGESTS = {
    4: ("6ec2f2dfbd7d051812a7f25b3ef108bf4043a9383477bb6ba6cf30e49b7ad096",
        "b5285910e8cd1ae1d7d41dfccf81742eebef3b8fc7430556d4a4566d05398676"),
    5: ("f212c7d887dde8aca892fc37cd0d55d56ffc16240753ae2bc95175840efc63e0",
        "5d847f7900c58f4ddc32a24b730737e19b700887f1c85b8772da5dba7da2f684"),
    8: ("de90a6183c782c92aa350964a0be6f21e677020b9e072fd68a751a6178e1b0b1",
        "28315d591ffa0c965eaab867d176274901d5d9998c7af5a09bdef1f1592ab9fb"),
}


@pytest.mark.parametrize("dim", sorted(LARGE_N_DIGESTS))
def test_large_n_trains_keep_their_bits(dim, monkeypatch):
    seen = {"projected": 0, "reverted": 0, "trained": 0}
    guard = mpa._guard

    def counting(pts, mover, t, alpha):
        out = guard(pts, mover, t, alpha)
        seen["projected"] += out is not t
        return out

    monkeypatch.setattr(mpa, "_guard", counting)
    held, changed = hashlib.sha256(), hashlib.sha256()
    for scale in (1e-6, 1.0, 1e6):
        for setting, (eta, alpha_factor) in enumerate(SMALL_N_SETTINGS):
            for seed in range(3):
                ds = make_blobs(seed=seed, std=2.5, n_per_class=25, dim=dim,
                                center_halfwidth=4.0)
                ds = Dataset(ds.features * scale, ds.labels)
                alpha = None if alpha_factor is None else alpha_factor * scale
                try:
                    model, log = train(ds, MpaConfig(eta=eta, epochs=30, alpha=alpha,
                                                     seed=seed))
                except ValueError as exc:
                    held.update(type(exc).__name__.encode())
                    continue
                seen["trained"] += 1
                seen["reverted"] += log.skips[mpa.DEGENERATE_REVERT] + log.skips[mpa.OVERFLOW_REVERT]
                (changed if setting else held).update(
                    json.dumps(asdict(log), sort_keys=True).encode())
                changed.update(mpa.model_document(model).encode())
    for seed in range(3):
        records = bench.run_synthetic_cell(seed, 95, dim=dim)
        held.update(bench.report_text(bench.BenchReport(records=records)).encode())
    assert seen["trained"] > 0 and seen["projected"] > 0, seen
    assert seen["reverted"] > 0 or dim == 8, seen  # no setting here reverts at n = 8
    assert (held.hexdigest(), changed.hexdigest()) == LARGE_N_DIGESTS[dim]


def patch_builder(monkeypatch, build):
    """Make build the builder that _plane_builder returns, both to fit,
    which imports the lookup into mpa, and to hyperplane_from_points."""
    monkeypatch.setattr(geometry, "_plane_builder", lambda n: build)
    monkeypatch.setattr(mpa, "_plane_builder", lambda n: build)


class TestMovementVectorMatchesFrozen:
    # The public step is fit's generated nearest and step_to at every n,
    # held here to the frozen per-move code bit for bit. With
    # mirror set, row j is row i with coordinate k negated and the query
    # has 0 there, so the two distances tie exactly and the lower index
    # must win. g is drawn free or as one of the rows: on the mover both
    # sides must refuse the step. Scales 2^-500 and 2^500 reach squares
    # that fall below the normal range and others near 2^1000. The model
    # is built on the identity and then given the points, which need not
    # define a plane.
    @settings(max_examples=300, deadline=None)
    @given(n=st.sampled_from([2, 3, 4, 8, 16]), exponent=st.sampled_from([-500, 0, 500]),
           mirror=st.booleans(), eta=st.sampled_from([5e-5, 0.3, 6.0]),
           lam=st.floats(-4.0, 4.0), data=st.data())
    def test_bit_identical(self, n, exponent, mirror, eta, lam, data):
        scale = 2.0 ** exponent
        unit = st.floats(-1.0, 1.0)
        P = data.draw(hnp.arrays(float, (n, n), elements=unit)) * scale
        q = data.draw(hnp.arrays(float, n, elements=unit)) * scale
        if mirror:
            i, j = sorted(data.draw(st.permutations(range(n)))[:2])
            k = data.draw(st.integers(0, n - 1))
            P[j] = P[i]
            P[j, k] = -P[i, k]
            q[k] = 0.0
        row = data.draw(st.sampled_from([None, *range(n)]))
        g = data.draw(hnp.arrays(float, n, elements=unit)) * scale if row is None else P[row]
        model = MpaModel(np.eye(n), {0: -1, 1: 1}, alpha=0.0, config=MpaConfig(eta=eta))
        model.moving_points = P.tolist()

        def outcome(step):
            try:
                mover, t = step()
            except ZeroDisplacementError:
                return "refused"
            return mover, bits(t)

        got = outcome(lambda: movement_vector(model, q, g, lam))
        assert got == outcome(lambda: frozen_movement_vector(P, q, g, lam, eta))
        if row is not None and got != "refused":
            assert got[0] != row


def hand_model(alpha, eta):
    """Boundary x = 0 through (0, 1) and (0, 0); displacement = x."""
    cfg = MpaConfig(eta=eta, epochs=3, alpha=alpha, near_cluster_percentile=100.0,
                    early_stop=False)
    pts = np.array([[0.0, 1.0], [0.0, 0.0]])
    return MpaModel(pts, {0: -1, 1: 1}, alpha=alpha, config=cfg), cfg


class TestSkipReasons:
    # One class-0 example (pseudo sign -1) sits on the class-1 side, so it
    # is misclassified every epoch: at (0.5, -0.2), whose nearest moving
    # point is (0, 0), or on the line x = 0 itself, where its step is 0.0.
    # The lone class-1 point on the boundary is the only draw for g.
    @pytest.mark.parametrize("reason, row, g, alpha, eta", [
        (mpa.RESAMPLE_EXHAUSTED, (0.5, -0.2), (0.0, 0.0), 0.0, 0.1),  # g is the mover
        (mpa.GUARD_ZEROED, (0.5, -0.2), (0.0, 5.0), 2.0, 0.1),  # head-on toward (0, 1)
        (mpa.DEGENERATE_REVERT, (0.5, -0.2), (0.0, 1.0), 0.0, 2.0),  # lands on (0, 1)
        (mpa.ZERO_STEP, (0.0, -0.2), (0.0, 5.0), 0.0, 0.1),  # lambda is 0
        (mpa.OVERFLOW_REVERT, (0.5, -0.2), (0.0, 5.0), 0.0, 1e308),  # lands at y = 5e307
    ], ids=mpa.SKIP_REASONS)
    def test_each_reason_counted(self, reason, row, g, alpha, eta):
        model, cfg = hand_model(alpha, eta)
        ds = Dataset(np.array([row, g]), np.array([0, 1]))
        before = model.moving_points.copy()
        log = fit(model, ds)
        assert log.misclassified == [1, 1, 1]
        assert log.moves == 0
        assert log.skips == {r: 3 if r == reason else 0 for r in mpa.SKIP_REASONS}
        np.testing.assert_array_equal(model.moving_points, before)

    # Only the builder's refusals undo a move: any other ValueError from
    # the build, as a fault in it would raise, leaves fit.
    def test_other_build_errors_are_not_skips(self, monkeypatch):
        model, cfg = hand_model(0.0, 0.1)
        ds = Dataset(np.array([(0.5, -0.2), (0.0, 5.0)]), np.array([0, 1]))
        builds = []

        def build(*rows):
            builds.append(rows)
            if len(builds) > 1:
                raise ValueError("not enough values to unpack")
            return geometry._line_coeffs(*rows)

        monkeypatch.setattr(mpa, "_plane_builder", lambda n: build)
        with pytest.raises(ValueError, match="^not enough values to unpack$"):
            fit(model, ds)
        assert len(builds) == 2


# initialize's documented errors: the class means coincide, a mean lies on
# the initial boundary, both lie on one side, or the initial points define
# no plane.
INITIALIZE_ERRORS = (IdenticalMeansError, MeanOnBoundaryError, mpa.SameSideMeansError,
                     DegeneratePointsError)


class TestDivergence:
    # A step is |eta * lambda|, so at a large eta it overshoots and the next
    # lambda, and step, is larger still. A move whose point or plane leaves
    # the float range is undone and counted, so fit raises nothing on
    # finite data, and every miss is a move or a skip.
    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(2, 8), eta=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1),
           blob_seed=st.integers(0, 10_000), std=st.sampled_from([1.0, 2.5, 4.0]))
    @example(dim=2, eta=30.0, seed=0, blob_seed=0, std=2.5)
    @example(dim=8, eta=1e3, seed=1, blob_seed=3, std=4.0)
    def test_train_ends_at_any_eta(self, dim, eta, seed, blob_seed, std):
        ds = make_blobs(blob_seed, std, 25, dim, 4.0)
        try:
            model, log = train(ds, MpaConfig(eta=eta, epochs=30, seed=seed))
        except INITIALIZE_ERRORS:
            return
        assert log.moves + sum(log.skips.values()) == sum(log.misclassified)
        want = hyperplane_from_points(model.moving_points)
        assert bits(model.hyperplane.weights) == bits(want.weights)
        assert model.hyperplane.bias == want.bias

    def test_runaway_train_counts_its_overflows(self):
        # 30 epochs at eta 30: the points run out until the moves that
        # would carry them past the float range are undone. The last
        # point's norm is near 1e154, where the plane's ||w|| overflows.
        ds = make_blobs(0, 2.5, 25, 2, 4.0)
        model, log = train(ds, MpaConfig(eta=30.0, epochs=30))
        assert log.misclassified == [16, 24, 31, 29] + [26] * 4 + [25] * 22
        assert log.moves == 211
        assert log.skips == {**dict.fromkeys(mpa.SKIP_REASONS, 0), mpa.OVERFLOW_REVERT: 543}
        assert 1e153 < np.abs(model.moving_points).max() < 1e154


class TestUnits:
    # Nothing in training has a unit: scaling the data by 2^k scales every
    # moving point by 2^k exactly and keeps every count, and a translated
    # data set trains whenever the data set does. Overlapping blobs
    # (std up to 20 against centers in [-20, 20]) keep the loop moving.
    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(2, 8), k=st.integers(-30, 30), seed=st.integers(0, 10_000),
           std=st.floats(1.0, 20.0))
    @example(dim=8, k=-30, seed=0, std=3.0)
    @example(dim=4, k=30, seed=1, std=15.0)
    def test_scaled_data_trains_to_scaled_points(self, dim, k, seed, std):
        ds = make_blobs(seed, std, 40, dim)
        scaled = Dataset(ds.features * 2.0 ** k, ds.labels)
        try:
            model, log = train(ds)
        except INITIALIZE_ERRORS as exc:
            with pytest.raises(type(exc)):
                train(scaled)
            return
        model_k, log_k = train(scaled)
        assert bits(model_k.moving_points) == (np.array(model.moving_points) * 2.0 ** k).tobytes()
        assert asdict(log_k) == asdict(log)

    # At n = 2 the shifts stop at 1e4: the line's bias x1*y2 - x2*y1
    # cancels to noise far from the origin (README "How it works").
    @settings(max_examples=40, deadline=None)
    @given(dim_shift=st.integers(2, 8).flatmap(lambda dim: st.tuples(
               st.just(dim), st.sampled_from([1e3, -1e3, 1e4, -1e4]
                                             + [1e8, -1e8, 1e12, -1e12] * (dim > 2)))),
           seed=st.integers(0, 10_000), std=st.floats(1.0, 20.0))
    @example(dim_shift=(8, 1e3), seed=0, std=3.0)
    @example(dim_shift=(4, 1e4), seed=0, std=3.0)
    @example(dim_shift=(3, 1e12), seed=0, std=1.0)
    @example(dim_shift=(8, -1e12), seed=5, std=20.0)
    @example(dim_shift=(5, 1e8), seed=2, std=10.0)
    def test_shifted_data_trains(self, dim_shift, seed, std):
        dim, shift = dim_shift
        ds = make_blobs(seed, std, 40, dim)
        try:
            train(ds)
        except INITIALIZE_ERRORS:
            assume(False)
        model, log = train(Dataset(ds.features + shift, ds.labels))
        assert log.moves + sum(log.skips.values()) == sum(log.misclassified)


@st.composite
def rows_around_a_plane(draw):
    """(w, b, X): an integer plane whose last weight is +-1, and rows on
    small integers that lie exactly on it (w.x + b sums exactly to 0), one
    last bit off it in one coordinate, or anywhere, all scaled by 2^k."""
    n = draw(st.integers(2, 5))
    small = st.integers(-4, 4)
    w = draw(st.lists(small, min_size=n - 1, max_size=n - 1)) + [draw(st.sampled_from([-1, 1]))]
    b = draw(small)
    rows = []
    for kind in draw(st.lists(st.sampled_from(["on", "off", "free"]), min_size=4, max_size=24)):
        x = [float(v) for v in draw(st.lists(small, min_size=n, max_size=n))]
        if kind != "free":
            x[-1] = -w[-1] * (sum(xk * wk for xk, wk in zip(x[:-1], w)) + b)
        if kind == "off":
            k = draw(st.integers(0, n - 1))
            x[k] = math.nextafter(x[k], draw(st.sampled_from([-math.inf, math.inf])))
        rows.append(x)
    up = 2.0 ** draw(st.integers(-20, 20))
    return [float(v) for v in w], b * up, np.array(rows) * up


class TestOneSideRule:
    # The loop counts a miss exactly where predict_many is wrong. Here
    # build returns one fixed plane whatever the points, so every epoch
    # meets that plane, and its count must be the number of rows that
    # predict_many gets wrong under it, rows on the plane included.
    @settings(max_examples=150, deadline=None)
    @given(problem=rows_around_a_plane(), flip=st.booleans(), labels=st.data(),
           eta=st.sampled_from([0.01, 0.3]), seed=st.integers(0, 2**32 - 1))
    def test_each_epoch_counts_the_rows_predict_many_gets_wrong(self, problem, flip, labels,
                                                               eta, seed):
        w, b, X = problem
        m, n = X.shape
        y = np.array([0, 1] + labels.draw(st.lists(st.integers(0, 1), min_size=m - 2,
                                                   max_size=m - 2)))
        cfg = MpaConfig(eta=eta, epochs=3, seed=seed)
        model = MpaModel(np.eye(n), {0: 1, 1: -1} if flip else {0: -1, 1: 1}, 0.0, cfg)
        model.hyperplane = Hyperplane(np.array(w), b)
        norm_w = math.sqrt(geometry._dot(w, w))
        wrong = int(np.count_nonzero(predict_many(model, X) != y))
        clusters = near_clusters(Dataset(X, y), cfg.near_cluster_percentile)
        draws = [clusters[1 - label].tolist() for label in y.tolist()]
        below = [model.pseudo_sign[label] < 0 for label in y.tolist()]
        log = mpa.TrainingLog()
        loop = mpa._fixed_order(n)[2](model.moving_points.copy(), X, below, draws,
                                      SplitMix64(seed), cfg, 0.0, log,
                                      lambda *rows: (*w, b, norm_w))
        assert list(loop) == [wrong] * 3
        assert log.moves + sum(log.skips.values()) == 3 * wrong


class TestHyperplaneMatchesPointsOnExit:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
           std=st.floats(0.5, 3.0), eta=st.sampled_from([5e-5, 0.01]))
    def test_stored_plane_is_hyperplane_from_points(self, n, seed, std, eta):
        # One builder for every n: the plane a trained model holds is the
        # public one of its points, bit for bit.
        ds = make_blobs(seed=seed, std=std, n_per_class=25, dim=n, center_halfwidth=4.0)
        model, _ = train(ds, MpaConfig(eta=eta, epochs=20, seed=seed))
        want = hyperplane_from_points(model.moving_points)
        assert bits(model.hyperplane.weights) == bits(want.weights)
        assert model.hyperplane.bias == want.bias

    def test_after_failure_in_plane_kernel(self, monkeypatch):
        # n >= 4 moves points held outside the model, as n = 2 and 3 do.
        # The 25th plane is built in the second epoch (18 misclassified in
        # the first), and no move of this run is reverted.
        ds = make_blobs(seed=4, std=1.9, dim=4, center_halfwidth=4.0)
        cfg = MpaConfig(eta=0.01, epochs=30, seed=5, early_stop=False)
        model = initialize(ds.class_points(0), ds.class_points(1), cfg)
        plane = geometry._plane_builder(4)
        seen = []

        def failing(*rows):
            seen.append(rows)
            if len(seen) == 25:
                raise RuntimeError("plane failure")
            return plane(*rows)

        # fit passes geometry's builder to the loop, and its exit plane
        # goes through hyperplane_from_points: both are counted.
        patch_builder(monkeypatch, failing)
        with pytest.raises(RuntimeError):
            fit(model, ds)
        monkeypatch.undo()
        # Call 26 is fit's exit plane, built from the points of call 24,
        # the last move kept.
        assert len(seen) == 26
        assert list(seen[25]) == list(seen[23]) == model.moving_points
        want = hyperplane_from_points(model.moving_points)
        assert bits(model.hyperplane.weights) == bits(want.weights)
        assert model.hyperplane.bias == want.bias

    def test_after_failure_in_line_mid_epoch(self, monkeypatch):
        # n = 2 moves points held outside the model; a failure mid-epoch
        # must still leave the points of the last accepted move there.
        ds = make_blobs(seed=4, std=1.9, center_halfwidth=4.0)
        cfg = MpaConfig(eta=0.01, epochs=30, seed=5, early_stop=False)
        model = initialize(ds.class_points(0), ds.class_points(1), cfg)
        line = geometry._plane_builder(2)
        seen = []

        def failing(*points):
            seen.append(points)
            if len(seen) == 40:
                raise RuntimeError("line failure")
            return line(*points)

        patch_builder(monkeypatch, failing)
        with pytest.raises(RuntimeError):
            fit(model, ds)
        monkeypatch.undo()
        # The last line built before the failing one, with no revert here;
        # the last call is fit's exit plane.
        assert model.moving_points == list(map(list, seen[-3]))
        want = line_from_points(model.moving_points[0], model.moving_points[1])
        assert bits(model.hyperplane.weights) == bits(want.weights)
        assert model.hyperplane.bias == want.bias

    def test_after_failure_in_plane3_mid_epoch(self, monkeypatch):
        # n = 3 moves points held outside the model, as n = 2 does. The
        # 20th plane is built in the second epoch (13 misclassified in the
        # first), and no move of this run is reverted.
        ds = make_blobs(seed=4, std=1.9, dim=3, center_halfwidth=4.0)
        cfg = MpaConfig(eta=0.01, epochs=30, seed=5, early_stop=False)
        model = initialize(ds.class_points(0), ds.class_points(1), cfg)
        plane3 = geometry._plane_builder(3)
        seen = []

        def failing(*points):
            seen.append(points)
            if len(seen) == 20:
                raise RuntimeError("plane failure")
            return plane3(*points)

        # fit passes geometry's builder to the loop, and its exit plane
        # goes through hyperplane_from_points: both are counted.
        patch_builder(monkeypatch, failing)
        with pytest.raises(RuntimeError):
            fit(model, ds)
        monkeypatch.undo()
        # Call 21 is fit's exit plane, built from the points of call 19,
        # the last move kept.
        assert len(seen) == 21
        assert list(seen[20]) == list(seen[18]) == model.moving_points
        reloaded = mpa.parse_model_document(mpa.model_document(model))
        assert bits(model.hyperplane.weights) == bits(reloaded.hyperplane.weights)
        assert model.hyperplane.bias == reloaded.hyperplane.bias
        np.testing.assert_allclose(model.hyperplane.weights,
                                   hyperplane_from_points(model.moving_points).weights,
                                   rtol=1e-12)

    def test_non_finite_step_is_undone(self):
        model, cfg = hand_model(0.0, 1.0)
        cfg.eta = float("inf")  # MpaConfig rejects it; fit must still undo it
        ds = Dataset(np.array([[0.5, -0.2], [0.0, 5.0]]), np.array([0, 1]))
        before = model.moving_points.copy()
        log = fit(model, ds)
        assert log.skips[mpa.OVERFLOW_REVERT] == 3 and log.moves == 0
        np.testing.assert_array_equal(model.moving_points, before)
        np.testing.assert_array_equal(model.hyperplane.weights, [1.0, 0.0])


class TestPredict:
    def test_positive_side(self):
        m = vertical_model(2.0)
        assert predict(m, (5, 0)) == 1

    def test_negative_side(self):
        m = vertical_model(2.0)
        assert predict(m, (0, 0)) == 0

    def test_on_boundary_tie_rule(self):
        m = vertical_model(2.0)
        assert predict(m, (2, 0)) == 1  # pseudo +1 class wins ties
        flipped = vertical_model(2.0, pseudo={0: 1, 1: -1})
        assert predict(flipped, (2, 0)) == 0

    def test_predict_many_agrees_with_scalar(self):
        stream = SplitMix64(90)
        m = vertical_model(0.5)
        X = stream.normals(60).reshape(30, 2) * 3.0
        got = predict_many(m, X)
        want = np.array([predict(m, row) for row in X])
        np.testing.assert_array_equal(got, want)

    def test_prediction_consistent_with_lambda_sign(self, two_blobs):
        model, _ = train(two_blobs, MpaConfig(eta=0.5, epochs=50, seed=1))
        for row, label in zip(two_blobs.features, two_blobs.labels):
            if predict(model, row) == label:
                assert lambda_value(model, row, int(label)) >= 0
            else:
                assert lambda_value(model, row, int(label)) <= 0


def scalar_predict(model, x) -> int:
    """predict as written before it wrapped predict_many: region_sign plus the tie rule."""
    s = region_sign(model.hyperplane, x)
    if s == 0:
        return 1 if model.pseudo_sign[1] == 1 else 0
    return 1 if model.pseudo_sign[1] == s else 0


class TestPredictMatchesScalarRule:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8), st.integers(-6, 6), st.booleans(), st.data())
    def test_both_orientations(self, n, exponent, small_int, data):
        scale = 10.0 ** exponent
        elements = st.integers(-2, 2) if small_int else st.floats(-1.0, 1.0)
        pts = scale * data.draw(hnp.arrays(np.float64, (n, n), elements=elements))
        off = scale * data.draw(hnp.arrays(np.float64, (8, n), elements=elements))
        X = np.vstack([pts, off])  # the moving points lie on the boundary
        for pseudo in ({0: -1, 1: 1}, {0: 1, 1: -1}):
            try:
                model = MpaModel(pts, pseudo, alpha=1.0, config=MpaConfig())
            except DegeneratePointsError:
                assume(False)
            want = [scalar_predict(model, x) for x in X]
            assert predict_many(model, X) == want
            assert [predict(model, x) for x in X] == want


class TestSerialization:
    def test_round_trip_bit_exact(self, iris_easy):
        model, _ = train(iris_easy, MpaConfig(eta=0.5, epochs=200, seed=0))
        doc = mpa.model_document(model)
        clone = mpa.parse_model_document(doc)
        assert np.array_equal(clone.moving_points, model.moving_points)
        assert clone.pseudo_sign == model.pseudo_sign
        assert clone.alpha == model.alpha
        assert clone.feature_names == model.feature_names
        assert mpa.model_document(clone) == doc

    def test_document_structure(self, two_blobs):
        model, _ = train(two_blobs, MpaConfig(eta=0.5, epochs=10, seed=0))
        doc = json.loads(mpa.model_document(model))
        assert doc["format"] == "moving-points-model"
        assert doc["version"] == 1
        assert doc["dim"] == 2
        assert set(doc["pseudo_sign"]) == {"0", "1"}

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(2, 8), seed=st.integers(0, 2**64 - 1),
           blob_seed=st.integers(0, 10_000), std=st.floats(1.0, 4.0),
           eta=st.sampled_from([1e-3, 1e-2, 0.3]))
    @example(dim=5, seed=1, blob_seed=7, std=2.5, eta=0.3)
    def test_round_trip_after_train_keeps_plane_and_predictions(self, dim, seed, blob_seed,
                                                                std, eta):
        # fit leaves the plane of a fresh build in the model, which is what
        # loading rebuilds, so nothing moves in a save/load cycle.
        ds = make_blobs(seed=blob_seed, std=std, n_per_class=25, dim=dim,
                        center_halfwidth=4.0)
        try:
            model, _ = train(ds, MpaConfig(eta=eta, epochs=10, seed=seed, early_stop=False))
        except ValueError:
            assume(False)
        clone = mpa.parse_model_document(mpa.model_document(model))
        assert bits(clone.moving_points) == bits(model.moving_points)
        assert bits(clone.hyperplane.weights) == bits(model.hyperplane.weights)
        assert np.float64(clone.hyperplane.bias).tobytes() == \
            np.float64(model.hyperplane.bias).tobytes()
        np.testing.assert_array_equal(predict_many(clone, ds.features),
                                      predict_many(model, ds.features))

    def test_save_load_file(self, tmp_path, two_blobs):
        model, _ = train(two_blobs, MpaConfig(eta=0.5, epochs=10, seed=0))
        path = tmp_path / "model.json"
        mpa.save_model(model, path)
        clone = mpa.load_model(path)
        assert np.array_equal(clone.moving_points, model.moving_points)
        X = two_blobs.features
        np.testing.assert_array_equal(predict_many(clone, X),
                                      predict_many(model, X))


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            MpaConfig(eta=0.0)
        with pytest.raises(ValueError):
            MpaConfig(epochs=0)
        with pytest.raises(ValueError):
            MpaConfig(near_cluster_percentile=0.0)
        with pytest.raises(ValueError):
            MpaConfig(init_spread=-1.0)
        with pytest.raises(ValueError, match="init_spread must be positive and finite"):
            MpaConfig(init_spread=math.inf)
        with pytest.raises(ValueError):
            MpaConfig(seed=-1)
        with pytest.raises(ValueError):
            MpaConfig(alpha=-0.5)
        with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
            MpaConfig(alpha=math.inf)

    @pytest.mark.parametrize("field", ["eta", "epochs", "alpha", "near_cluster_percentile",
                                       "init_spread", "seed"])
    @pytest.mark.parametrize("value", ["0.5", [1], None, True, False])
    def test_rejects_a_value_that_is_not_a_number(self, field, value):
        if field == "alpha" and value is None:
            return  # the documented default
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            MpaConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("epochs", math.inf), ("epochs", math.nan), ("epochs", 2.5),
        ("seed", math.inf), ("seed", -math.inf), ("seed", math.nan),
    ])
    def test_rejects_a_count_that_is_not_a_whole_number(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a"):
            MpaConfig(**{field: value})

    def test_alpha_none_is_allowed(self):
        assert MpaConfig(alpha=None).alpha is None
