"""Reference classifier checks."""

import numpy as np
import pytest

from movingpoints.baselines import (
    knn_fit,
    knn_predict,
    knn_predict_many,
    linear_predict_many,
    linear_svm_fit,
    perceptron_fit,
)
from movingpoints.datasets import Dataset, make_blobs


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


class TestKnn:
    def test_single_neighbor(self):
        model = knn_fit(toy([[0.0, 0.0], [10.0, 10.0]], [0, 1]), k=1)
        assert knn_predict(model, (5.9, 5.9)) == 1
        assert knn_predict(model, (1.0, 1.0)) == 0

    def test_majority_of_three(self):
        model = knn_fit(
            toy([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [9.0, 9.0]], [0, 0, 1, 1]),
            k=3,
        )
        assert knn_predict(model, (0.05, 0.0)) == 0

    def test_even_k_tie_goes_to_nearest(self):
        model = knn_fit(toy([[0.0, 0.0], [1.0, 0.0]], [1, 0]), k=2)
        assert knn_predict(model, (0.2, 0.0)) == 1
        assert knn_predict(model, (0.8, 0.0)) == 0

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

    def test_margin_beats_overlap_noise(self):
        # overlapping blobs: hinge loss still lands near the best separator
        ds = make_blobs(seed=20, std=1.9)
        model = linear_svm_fit(ds)
        preds = linear_predict_many(model, ds.features)
        assert np.mean(preds == ds.labels) > 0.8
