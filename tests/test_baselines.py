"""Reference classifier checks."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from movingpoints.baselines import (
    knn_fit,
    knn_predict_many,
    linear_predict_many,
    linear_svm_fit,
    perceptron_fit,
)
from movingpoints.datasets import Dataset, make_blobs
from movingpoints.geometry import DimensionMismatchError
from movingpoints.rng import SplitMix64


def toy(features, labels):
    return Dataset(np.asarray(features, dtype=float), np.asarray(labels))


def scalar_linear_predict(model, x) -> int:
    """The linear rule for one point, written out: class 1 iff w . x + b > 0."""
    return int(float(np.dot(model.weights, x)) + model.bias > 0)


class TestPerceptron:
    def test_updates_from_zero_init(self):
        # both points sit on the zero-init boundary, so each updates once
        # in epoch 1; the summed update is the same for either visit order:
        # +1*(1,0) then -1*(-1,0) gives w=(2,0), b=1-1=0
        ds = toy([[1.0, 0.0], [-1.0, 0.0]], [1, 0])
        model = perceptron_fit(ds, eta=1.0, epochs=1, seed=0)
        np.testing.assert_array_equal(model.weights, [2.0, 0.0])
        assert model.bias == 0.0

    def test_correct_point_leaves_weights_alone(self):
        ds = toy([[1.0, 0.0], [-1.0, 0.0]], [1, 0])
        model = perceptron_fit(ds, eta=1.0, epochs=50, seed=0)
        frozen = model.weights.copy(), model.bias
        again = perceptron_fit(ds, eta=1.0, epochs=100, seed=0)
        # once separable data is fit, extra epochs change nothing
        np.testing.assert_array_equal(again.weights, frozen[0])
        assert again.bias == frozen[1]

    def test_separable_blobs_reach_perfect(self, two_blobs):
        model = perceptron_fit(two_blobs)
        preds = linear_predict_many(model, two_blobs.features)
        assert np.mean(preds == two_blobs.labels) == 1.0

    def test_deterministic(self):
        ds = make_blobs(seed=8, std=1.9)
        a = perceptron_fit(ds, seed=2)
        b = perceptron_fit(ds, seed=2)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_scalar_matches_vector(self, two_blobs):
        model = perceptron_fit(two_blobs)
        X = two_blobs.features[:10]
        want = linear_predict_many(model, X)
        got = [scalar_linear_predict(model, row) for row in X]
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("eta", [0.0, -1.0, float("nan"), float("inf")])
    def test_eta_must_be_finite_and_positive(self, two_blobs, eta):
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            perceptron_fit(two_blobs, eta=eta)

    @pytest.mark.parametrize("epochs", [0, -2, 2.5, float("inf"), None])
    def test_epochs_must_be_a_positive_integer(self, two_blobs, epochs):
        with pytest.raises(ValueError, match="epochs must be a positive integer"):
            perceptron_fit(two_blobs, epochs=epochs)


class TestKnn:
    def test_single_neighbor(self):
        model = knn_fit(toy([[0.0, 0.0], [10.0, 10.0]], [0, 1]), k=1)
        assert knn_predict_many(model, [(5.9, 5.9)])[0] == 1
        assert knn_predict_many(model, [(1.0, 1.0)])[0] == 0

    def test_majority_of_three(self):
        model = knn_fit(
            toy([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [9.0, 9.0]], [0, 0, 1, 1]),
            k=3,
        )
        assert knn_predict_many(model, [(0.05, 0.0)])[0] == 0

    def test_even_k_tie_goes_to_nearest(self):
        model = knn_fit(toy([[0.0, 0.0], [1.0, 0.0]], [1, 0]), k=2)
        assert knn_predict_many(model, [(0.2, 0.0)])[0] == 1
        assert knn_predict_many(model, [(0.8, 0.0)])[0] == 0

    def test_k_bounds(self):
        ds = toy([[0.0, 0.0], [1.0, 1.0]], [0, 1])
        with pytest.raises(ValueError):
            knn_fit(ds, k=0)
        with pytest.raises(ValueError):
            knn_fit(ds, k=3)

    def test_separable_blobs(self, two_blobs):
        model = knn_fit(two_blobs, k=3)
        preds = knn_predict_many(model, two_blobs.features)
        assert np.mean(preds == two_blobs.labels) == 1.0

    # A row of another width is refused, not scored on its first
    # coordinates ([5, 5, 99] as (5, 5)).
    @pytest.mark.parametrize("X", [[[5.0, 5.0, 99.0]], [[5.0]], [5.0, 5.0], [[[5.0, 5.0]]]],
                             ids=["too-wide", "too-narrow", "1-D", "3-D"])
    def test_wrong_shape_is_refused(self, X):
        model = knn_fit(toy([[0.0, 0.0], [10.0, 10.0]], [0, 1]), k=1)
        with pytest.raises(DimensionMismatchError):
            knn_predict_many(model, X)

    # A NaN row is refused: every comparison with NaN is false, so it
    # would take class 0.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_is_refused(self, bad):
        model = knn_fit(toy([[0.0, 0.0], [10.0, 10.0]], [0, 1]), k=1)
        with pytest.raises(ValueError, match="non-finite"):
            knn_predict_many(model, [[1.0, 1.0], [bad, 9.0]])

    def test_no_rows_give_no_predictions(self):
        model = knn_fit(toy([[0.0, 0.0], [10.0, 10.0]], [0, 1]), k=1)
        assert knn_predict_many(model, np.empty((0, 2))).shape == (0,)


class TestLinearSvm:
    def test_separable_blobs_high_accuracy(self, two_blobs):
        model = linear_svm_fit(two_blobs)
        preds = linear_predict_many(model, two_blobs.features)
        assert np.mean(preds == two_blobs.labels) == 1.0

    def test_deterministic(self):
        ds = make_blobs(seed=6, std=1.5)
        a = linear_svm_fit(ds, seed=4)
        b = linear_svm_fit(ds, seed=4)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_seed_changes_trajectory(self):
        ds = make_blobs(seed=6, std=1.5)
        a = linear_svm_fit(ds, seed=4)
        b = linear_svm_fit(ds, seed=5)
        assert not (np.array_equal(a.weights, b.weights) and a.bias == b.bias)

    def test_scalar_matches_vector(self, two_blobs):
        model = linear_svm_fit(two_blobs)
        X = two_blobs.features[:10]
        want = linear_predict_many(model, X)
        got = [scalar_linear_predict(model, row) for row in X]
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("reg", [0.0, -1.0, float("nan"), float("inf")])
    def test_reg_must_be_finite_and_positive(self, two_blobs, reg):
        with pytest.raises(ValueError, match="reg must be finite and positive"):
            linear_svm_fit(two_blobs, reg=reg)

    @pytest.mark.parametrize("epochs", [0, -2, 2.5, float("inf"), None])
    def test_epochs_must_be_a_positive_integer(self, two_blobs, epochs):
        with pytest.raises(ValueError, match="epochs must be a positive integer"):
            linear_svm_fit(two_blobs, epochs=epochs)

    def test_predict_refuses_wrong_width(self, two_blobs):
        model = linear_svm_fit(two_blobs)
        for X in (np.zeros((4, 3)), np.zeros((4, 1)), np.zeros(2)):
            with pytest.raises(DimensionMismatchError):
                linear_predict_many(model, X)

    def test_margin_beats_overlap_noise(self):
        # overlapping blobs: hinge loss still lands near the best separator
        ds = make_blobs(seed=20, std=1.9)
        model = linear_svm_fit(ds)
        preds = linear_predict_many(model, ds.features)
        assert np.mean(preds == ds.labels) > 0.8


# Frozen copies of the per-step baseline loops as they stood before the
# in-place rewrite: every weight, bias and prediction must keep its bits.
# They must not be rewritten to share code with the library. The margins
# are plain sums in a fixed order, as the library's loops write them:
# numpy's dot is a BLAS call, and a kernel that fuses the multiply and the
# add, or sums in another order, rounds tie-heavy inputs differently. The
# KNN distances sum their squares column by column for the same reason:
# numpy's reduction adds 8 or more terms pairwise.

def fixed_dot(w, x):
    """w . x summed in order, w[0]*x[0] + w[1]*x[1] + ...; no BLAS."""
    total = w[0] * x[0]
    for j in range(1, len(w)):
        total += w[j] * x[j]
    return float(total)


def frozen_perceptron_fit(data, eta, epochs, seed):
    X = data.features
    y = np.where(data.labels == 1, 1.0, -1.0)
    m, n = X.shape
    w = np.zeros(n)
    b = 0.0
    rng = SplitMix64(seed)
    for _ in range(epochs):
        updates = 0
        for i in rng.permutation(m):
            if y[i] * (fixed_dot(w, X[i]) + b) <= 0.0:
                w = w + eta * y[i] * X[i]
                b += eta * y[i]
                updates += 1
        if updates == 0:
            break
    return w, b


def frozen_linear_svm_fit(data, reg, epochs, seed):
    X = np.hstack([data.features, np.ones((data.m, 1))])
    y = np.where(data.labels == 1, 1.0, -1.0)
    m, n1 = X.shape
    w = np.zeros(n1)
    rng = SplitMix64(seed)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(m):
            t += 1
            step = 1.0 / (reg * t)
            margin = y[i] * fixed_dot(w, X[i])
            w = (1.0 - step * reg) * w
            if margin < 1.0:
                w = w + step * y[i] * X[i]
    return w[:-1].copy(), float(w[-1])


def frozen_knn_predict(points, labels, k, x):
    D = points - x
    squares = D[:, 0] * D[:, 0]
    for j in range(1, D.shape[1]):
        squares = squares + D[:, j] * D[:, j]
    dist = np.sqrt(squares)
    order = np.argsort(dist, kind="stable")[:k]
    votes = labels[order]
    ones = int(np.sum(votes == 1))
    zeros = votes.size - ones
    if ones == zeros:
        return int(labels[order[0]])
    return 1 if ones > zeros else 0


def draw_points(rng, kind, m, n, scale):
    """m rows: plain floats, small integers (exact ties), copies of 3 points,
    or permutations of one vector's coordinates.

    Permuted rows are equally far from the origin in exact arithmetic, so
    which one is nearest is decided by the rounding of the sum of squares.
    """
    if kind == "float":
        X = rng.normal(size=(m, n))
    elif kind == "int":
        X = rng.integers(-2, 3, size=(m, n)).astype(float)
    elif kind == "dup":
        X = rng.normal(size=(3, n))[rng.integers(0, 3, size=m)]
    else:
        base = rng.normal(size=n)
        X = np.array([rng.permutation(base) for _ in range(m)])
    return X * scale


@st.composite
def labeled_sets(draw, max_n, scales, min_n=1, kinds=("float", "int", "dup", "perm")):
    """A Dataset with both classes, possibly column-major (strided rows)."""
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = draw_points(rng, draw(st.sampled_from(kinds)), m, n,
                    draw(st.sampled_from(scales)))
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    y = rng.integers(0, 2, size=m)
    y[:2] = (0, 1)
    return Dataset(X, y)


def same_bits(w, b, want_w, want_b):
    return (w.tobytes() == want_w.tobytes()
            and np.float64(b).tobytes() == np.float64(want_b).tobytes())


# Row 1 is a permutation of row 0, so the origin is equally far from both
# in exact arithmetic. Stacked with the origin in Fortran order, the queries
# once summed their squares in another order than np.linalg.norm, which
# turned the 1-ulp gap that norm sees into a tie. With the squares summed
# column by column it checks that the memory layout of X cannot matter.
_ROW = np.array([0.28121066979764925, -2.4414673826398556, 1.1441658720372287,
                 0.18905338179353307, 1.799707382720902, 0.7738065867276614,
                 -0.32542283686782436, -0.5227484414807474, -0.41306354339189344,
                 -0.5538228364240524])
KNN_NEAR_TIE = np.asfortranarray([_ROW, _ROW[[7, 2, 5, 1, 4, 8, 9, 6, 3, 0]]])

# Small integers at scale 1e-6, in Fortran order, on which BLAS ddot over
# the strided rows and the fixed-order sum round a perceptron margin
# differently: the weights end 3e-7 apart (found by test_perceptron).
DDOT_DIFFERS = Dataset(
    np.asfortranarray(np.array([
        [2, 1, 0, -1], [-1, -2, -2, -2], [-2, 2, 1, 2], [0, 1, 2, 1], [1, 0, 0, 2],
        [-1, 2, 1, -2], [-1, 2, 0, -2], [1, 1, 2, -2], [-2, 2, -2, 0], [-2, -1, 0, 0],
        [0, -2, -2, -2], [-2, 1, 0, 1], [-1, 1, 1, -1], [0, 2, 2, 2], [-1, 1, 2, 1],
        [2, 1, 1, -1], [2, -2, 0, 1], [2, 0, -1, -1], [0, 0, 1, 2]], dtype=float) * 1e-6),
    np.array([0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1]))


class TestBaselinesMatchFrozenLoops:
    @settings(max_examples=80, deadline=None)
    @given(data=labeled_sets(6, [1e-6, 1.0, 1e6]),
           eta=st.sampled_from([0.1, 1.0, 3.0]),
           epochs=st.integers(1, 12), seed=st.integers(0, 2**64 - 1))
    @example(data=DDOT_DIFFERS, eta=0.1, epochs=1, seed=0)
    def test_perceptron(self, data, eta, epochs, seed):
        model = perceptron_fit(data, eta=eta, epochs=epochs, seed=seed)
        want = frozen_perceptron_fit(data, eta, epochs, seed)
        assert same_bits(model.weights, model.bias, *want)

    @settings(max_examples=80, deadline=None)
    @given(data=labeled_sets(6, [1e-6, 1.0, 1e6]),
           reg=st.sampled_from([1e-3, 0.01, 1.0, 10.0]),
           epochs=st.integers(1, 12), seed=st.integers(0, 2**64 - 1))
    def test_linear_svm(self, data, reg, epochs, seed):
        model = linear_svm_fit(data, reg=reg, epochs=epochs, seed=seed)
        want = frozen_linear_svm_fit(data, reg, epochs, seed)
        assert same_bits(model.weights, model.bias, *want)

    # n >= 3 with the tie-heavy draws: small integers, repeated points and
    # permuted coordinates make margins whose rounding depends on the order
    # of the sum.
    @settings(max_examples=80, deadline=None)
    @given(data=labeled_sets(8, [1e-6, 1.0, 1e6], min_n=3, kinds=("int", "dup", "perm")),
           eta=st.sampled_from([0.1, 1.0, 3.0]),
           epochs=st.integers(1, 12), seed=st.integers(0, 2**64 - 1))
    def test_perceptron_ties(self, data, eta, epochs, seed):
        model = perceptron_fit(data, eta=eta, epochs=epochs, seed=seed)
        want = frozen_perceptron_fit(data, eta, epochs, seed)
        assert same_bits(model.weights, model.bias, *want)

    @settings(max_examples=80, deadline=None)
    @given(data=labeled_sets(8, [1e-6, 1.0, 1e6], min_n=3, kinds=("int", "dup", "perm")),
           reg=st.sampled_from([1e-3, 0.01, 1.0, 10.0]),
           epochs=st.integers(1, 12), seed=st.integers(0, 2**64 - 1))
    def test_linear_svm_ties(self, data, reg, epochs, seed):
        model = linear_svm_fit(data, reg=reg, epochs=epochs, seed=seed)
        want = frozen_linear_svm_fit(data, reg, epochs, seed)
        assert same_bits(model.weights, model.bias, *want)

    # n = 2 alone, with the tie-heavy draws: small integers and permuted
    # coordinates make margins whose rounding a fused multiply-add changes.
    # labeled_sets above draws n from 1..6, so it rarely reaches n = 2.
    @settings(max_examples=80, deadline=None)
    @given(data=labeled_sets(2, [1e-6, 1.0, 1e6], min_n=2, kinds=("int", "perm")),
           eta=st.sampled_from([0.1, 1.0, 3.0]),
           epochs=st.integers(1, 12), seed=st.integers(0, 2**64 - 1))
    def test_perceptron_2d(self, data, eta, epochs, seed):
        model = perceptron_fit(data, eta=eta, epochs=epochs, seed=seed)
        want = frozen_perceptron_fit(data, eta, epochs, seed)
        assert same_bits(model.weights, model.bias, *want)

    @settings(max_examples=80, deadline=None)
    @given(data=labeled_sets(2, [1e-6, 1.0, 1e6], min_n=2, kinds=("int", "perm")),
           reg=st.sampled_from([1e-3, 0.01, 1.0, 10.0]),
           epochs=st.integers(1, 12), seed=st.integers(0, 2**64 - 1))
    def test_linear_svm_2d(self, data, reg, epochs, seed):
        model = linear_svm_fit(data, reg=reg, epochs=epochs, seed=seed)
        want = frozen_linear_svm_fit(data, reg, epochs, seed)
        assert same_bits(model.weights, model.bias, *want)

    # n up to 16: a row sum of 8 or more squares takes numpy's pairwise path.
    # Scales 1e-170 and 1e155 make squared distances underflow to 0 and
    # overflow to inf, so whole rows of distances tie.
    @settings(max_examples=150, deadline=None)
    @given(data=labeled_sets(16, [1e-170, 1e-6, 1.0, 1e6, 1e155]),
           k_pick=st.integers(0, 2**16), queries=st.integers(0, 12),
           seed=st.integers(0, 2**32 - 1))
    @example(data=Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                          np.array([0, 1, 1, 0])),
             k_pick=1, queries=3, seed=0)
    @example(data=Dataset(KNN_NEAR_TIE, np.array([0, 1])), k_pick=0, queries=1, seed=0)
    def test_knn(self, data, k_pick, queries, seed):
        k = 1 + k_pick % data.m
        model = knn_fit(data, k=k)
        rng = np.random.default_rng(seed)
        scale = float(np.abs(data.features).max()) or 1.0
        # the training rows themselves (zero distances), the origin, new points
        X = np.vstack([data.features, np.zeros((1, data.n)),
                       rng.normal(size=(queries, data.n)) * scale])
        with np.errstate(over="ignore"):
            want = [frozen_knn_predict(model.points, model.labels, k, x) for x in X]
            got = knn_predict_many(model, X)
            one_by_one = [int(knn_predict_many(model, x[None, :])[0]) for x in X]
        assert got.dtype == int
        assert got.tolist() == want
        assert one_by_one == want

    # Points and queries on a small integer grid: many points share a
    # distance, so the k-th distance is tied in most rows and the vote
    # depends on which of the tied points count (the first by index).
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(2, 40), k_pick=st.integers(0, 2**16),
           half=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_knn_integer_grid(self, n, m, k_pick, half, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=m)
        y[:2] = (0, 1)
        data = Dataset(rng.integers(-2, 3, size=(m, n)).astype(float), y)
        k = 1 + k_pick % m
        model = knn_fit(data, k=k)
        X = rng.integers(-3, 4, size=(12, n)) / (2.0 if half else 1.0)
        want = [frozen_knn_predict(model.points, model.labels, k, x) for x in X]
        assert knn_predict_many(model, X).tolist() == want
