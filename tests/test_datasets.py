"""Loader, generator, and preprocessing checks against numpy oracles."""

import numpy as np
import pytest

from movingpoints import datasets
from movingpoints.datasets import (
    Dataset,
    DegenerateSplitError,
    EmptyDatasetError,
    InvalidKError,
    InvalidParamsError,
    MissingColumnError,
    NoRowsRemainingError,
    NonBinaryLabelsError,
    SingleClassError,
    load_csv,
    make_blobs,
    pca_apply,
    pca_fit,
    standardize_apply,
    standardize_fit,
    train_test_split,
)
from movingpoints.rng import SplitMix64


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestDatasetType:
    def test_basic_properties(self):
        ds = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1]))
        assert ds.m == 2 and ds.n == 2
        np.testing.assert_array_equal(ds.class_points(1), [[3.0, 4.0]])

    def test_rejects_empty(self):
        with pytest.raises(EmptyDatasetError):
            Dataset(np.empty((0, 2)), np.empty(0, dtype=int))

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(NonBinaryLabelsError):
            Dataset(np.ones((2, 2)), np.array([0, 2]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, np.nan]]), np.array([0]))

    def test_require_binary(self):
        ds = Dataset(np.ones((2, 2)), np.array([1, 1]))
        with pytest.raises(NonBinaryLabelsError):
            ds.require_binary()


class TestLoadCsv:
    def test_iris_fixture_pair(self, iris_path):
        ds = load_csv(iris_path, "Species", "Iris-setosa",
                      feature_columns=["SepalLengthCm", "SepalWidthCm"],
                      negative_label="Iris-versicolor")
        assert ds.m == 100
        assert int(np.sum(ds.labels == 1)) == 50
        assert int(np.sum(ds.labels == 0)) == 50
        assert ds.feature_names == ["SepalLengthCm", "SepalWidthCm"]
        assert ds.dropped_rows == 0

    def test_unparseable_row_dropped_and_counted(self, tmp_path):
        p = write_csv(tmp_path, "a,b,cls\n" + "\n".join(
            [f"{i},{i + 1},yes" for i in range(5)]
            + ["oops,3,no"]
            + [f"{i},{i},no" for i in range(4)]
        ))
        ds = load_csv(p, "cls", "yes")
        assert ds.m == 9
        assert ds.dropped_rows == 1

    def test_missing_and_na_cells_dropped(self, tmp_path):
        p = write_csv(tmp_path, "a,b,cls\n1,2,yes\n,2,yes\n3,NA,no\n4,5,no\n")
        ds = load_csv(p, "cls", "yes")
        assert ds.m == 2
        assert ds.dropped_rows == 2

    def test_short_row_dropped(self, tmp_path):
        p = write_csv(tmp_path, "a,b,cls\n1,2,yes\n3\n4,5,no\n")
        ds = load_csv(p, "cls", "yes")
        assert ds.m == 2 and ds.dropped_rows == 1

    def test_missing_label_column(self, tmp_path):
        p = write_csv(tmp_path, "a,b\n1,2\n")
        with pytest.raises(MissingColumnError):
            load_csv(p, "cls", "yes")

    def test_missing_feature_column(self, tmp_path):
        p = write_csv(tmp_path, "a,cls\n1,yes\n2,no\n")
        with pytest.raises(MissingColumnError):
            load_csv(p, "cls", "yes", feature_columns=["zzz"])

    def test_all_rows_unusable(self, tmp_path):
        p = write_csv(tmp_path, "a,cls\nNA,yes\nNA,no\n")
        with pytest.raises(NoRowsRemainingError):
            load_csv(p, "cls", "yes")

    def test_single_class(self, tmp_path):
        p = write_csv(tmp_path, "a,cls\n1,yes\n2,yes\n")
        with pytest.raises(SingleClassError):
            load_csv(p, "cls", "yes")

    def test_negative_label_filters_others(self, tmp_path):
        p = write_csv(tmp_path, "a,cls\n1,yes\n2,no\n3,maybe\n4,no\n")
        ds = load_csv(p, "cls", "yes", negative_label="no")
        assert ds.m == 3  # "maybe" filtered out, not counted as dropped
        assert ds.dropped_rows == 0

    def test_without_negative_label_everything_else_is_class0(self, tmp_path):
        p = write_csv(tmp_path, "a,cls\n1,yes\n2,no\n3,maybe\n")
        ds = load_csv(p, "cls", "yes")
        assert ds.m == 3
        assert int(np.sum(ds.labels == 0)) == 2


class TestMakeBlobs:
    def test_counts_and_labels(self):
        ds = make_blobs(seed=0, std=1.0)
        assert ds.m == 100 and ds.n == 2
        assert int(np.sum(ds.labels == 0)) == 50

    def test_deterministic(self):
        a = make_blobs(seed=3, std=1.2)
        b = make_blobs(seed=3, std=1.2)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_std_shares_centers_and_scales_scatter(self):
        a = make_blobs(seed=5, std=1.0)
        b = make_blobs(seed=5, std=2.0)
        # same seed: per-class means shift identically, scatter quadruples
        for label in (0, 1):
            va = a.class_points(label).var(axis=0).mean()
            vb = b.class_points(label).var(axis=0).mean()
            assert vb / va == pytest.approx(4.0, rel=0.30)
        # centers equal exactly: b = center + 2 z, a = center + z
        # so 2a - b reproduces the center for every sample pair
        np.testing.assert_allclose(
            (2.0 * a.features - b.features)[:50],
            np.broadcast_to((2.0 * a.features - b.features)[0], (50, 2)),
            atol=1e-9,
        )

    def test_centers_match_stream_discipline(self):
        # first 2*dim uniforms are the two centers, in row order
        hw = 20.0
        stream = SplitMix64(9)
        centers = -hw + 2 * hw * stream.uniforms(4).reshape(2, 2)
        big = make_blobs(seed=9, std=1.0, n_per_class=10000)
        for label in (0, 1):
            mu = big.class_points(label).mean(axis=0)
            assert np.linalg.norm(mu - centers[label], np.inf) < 0.05

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            make_blobs(seed=0, std=0.0)
        with pytest.raises(InvalidParamsError):
            make_blobs(seed=0, std=1.0, n_per_class=0)
        with pytest.raises(InvalidParamsError):
            make_blobs(seed=0, std=1.0, dim=1)


class TestStandardize:
    def test_hand_worked_column(self):
        ds = Dataset(np.array([[2.0], [4.0], [6.0]]), np.array([0, 1, 0]))
        params = standardize_fit(ds)
        assert params.mean[0] == pytest.approx(4.0)
        assert params.std[0] == pytest.approx(1.63299, abs=1e-5)
        out = standardize_apply(params, ds)
        np.testing.assert_allclose(out.features[:, 0], [-1.2247, 0.0, 1.2247],
                                   atol=1e-4)

    def test_constant_column_maps_to_zero(self):
        ds = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]),
                     np.array([0, 1, 0]))
        out = standardize_apply(standardize_fit(ds), ds)
        assert np.all(out.features[:, 0] == 0.0)

    def test_matches_numpy_population_moments(self):
        stream = SplitMix64(2)
        X = stream.normals(120).reshape(40, 3) * [1.0, 7.0, 0.2] + [3.0, -1.0, 9.0]
        ds = Dataset(X, np.tile([0, 1], 20))
        params = standardize_fit(ds)
        np.testing.assert_allclose(params.mean, X.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(params.std, X.std(axis=0), rtol=1e-12)
        out = standardize_apply(params, ds)
        assert np.abs(out.features.mean(axis=0)).max() <= 1e-10
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, rtol=1e-10)

    def test_apply_uses_train_statistics(self):
        train = Dataset(np.array([[0.0], [2.0]]), np.array([0, 1]))
        test = Dataset(np.array([[10.0]]), np.array([1]))
        out = standardize_apply(standardize_fit(train), test)
        # (10 - 1) / 1 with train mean 1, train std 1
        assert out.features[0, 0] == pytest.approx(9.0)

    def test_single_row_is_all_dead_columns(self):
        ds = Dataset(np.ones((1, 2)), np.array([0]))
        params = standardize_fit(ds)
        assert np.all(params.std == 0.0)
        out = standardize_apply(params, ds)
        assert np.all(out.features == 0.0)


class TestPca:
    def covariance_oracle(self, X):
        Xc = X - X.mean(axis=0)
        return (Xc.T @ Xc) / X.shape[0]

    def test_rank_one_data_reconstructs(self):
        t = np.linspace(-2, 2, 30)
        X = np.column_stack([t, 3.0 * t])
        ds = Dataset(X, np.tile([0, 1], 15))
        params = pca_fit(ds, 1)
        proj = pca_apply(params, ds)
        back = proj.features @ params.components.T + params.mean
        np.testing.assert_allclose(back, X, atol=1e-8)

    def test_full_k_preserves_total_variance(self):
        stream = SplitMix64(13)
        X = stream.normals(200).reshape(50, 4) * [1.0, 2.0, 0.5, 3.0]
        ds = Dataset(X, np.tile([0, 1], 25))
        proj = pca_apply(pca_fit(ds, 4), ds)
        got = proj.features.var(axis=0).sum()
        want = (X - X.mean(axis=0)).var(axis=0).sum()
        assert got == pytest.approx(want, abs=1e-8)

    def test_top3_projection_variance_equals_eigenvalues(self):
        stream = SplitMix64(14)
        X = stream.normals(300).reshape(60, 5) * [1.0, 4.0, 2.0, 0.3, 1.5]
        ds = Dataset(X, np.tile([0, 1], 30))
        params = pca_fit(ds, 3)
        proj = pca_apply(params, ds)
        got = proj.features.var(axis=0).sum()
        assert got == pytest.approx(np.sum(params.eigenvalues[:3]), abs=1e-8)

    def test_eigenvalues_match_numpy(self):
        stream = SplitMix64(15)
        X = stream.normals(250).reshape(50, 5) * [1.0, 4.0, 2.0, 0.3, 1.5]
        ds = Dataset(X, np.tile([0, 1], 25))
        params = pca_fit(ds, 5)
        want = np.linalg.eigvalsh(self.covariance_oracle(X))[::-1]
        np.testing.assert_allclose(np.sort(params.eigenvalues)[::-1], want,
                                   atol=1e-8)

    def test_components_orthonormal(self):
        stream = SplitMix64(16)
        X = stream.normals(240).reshape(40, 6)
        ds = Dataset(X, np.tile([0, 1], 20))
        params = pca_fit(ds, 4)
        gram = params.components.T @ params.components
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)

    def test_subspace_matches_numpy(self):
        stream = SplitMix64(17)
        X = stream.normals(200).reshape(40, 5) * [5.0, 3.0, 1.0, 0.5, 0.1]
        ds = Dataset(X, np.tile([0, 1], 20))
        params = pca_fit(ds, 2)
        vals, vecs = np.linalg.eigh(self.covariance_oracle(X))
        ref = vecs[:, np.argsort(vals)[::-1][:2]]
        # compare spans, not signs: projector matrices must agree
        p_got = params.components @ params.components.T
        p_ref = ref @ ref.T
        np.testing.assert_allclose(p_got, p_ref, atol=1e-8)

    def test_sign_convention(self):
        stream = SplitMix64(18)
        X = stream.normals(120).reshape(30, 4)
        ds = Dataset(X, np.tile([0, 1], 15))
        params = pca_fit(ds, 4)
        for col in params.components.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_feature_names_renamed(self):
        stream = SplitMix64(19)
        ds = Dataset(stream.normals(30).reshape(10, 3),
                     np.tile([0, 1], 5), feature_names=["a", "b", "c"])
        proj = pca_apply(pca_fit(ds, 2), ds)
        assert proj.feature_names == ["pc1", "pc2"]

    def test_invalid_k(self):
        ds = Dataset(np.ones((4, 2)) + np.arange(8).reshape(4, 2),
                     np.array([0, 1, 0, 1]))
        with pytest.raises(InvalidKError):
            pca_fit(ds, 3)
        with pytest.raises(InvalidKError):
            pca_fit(ds, 0)


class TestSplit:
    def make(self, m):
        X = np.arange(m * 2, dtype=float).reshape(m, 2)
        y = np.tile([0, 1], m // 2 + 1)[:m]
        return Dataset(X, y)

    def test_sizes_100(self):
        train, test = train_test_split(self.make(100), 0.2, seed=0)
        assert train.m == 80 and test.m == 20

    def test_sizes_5_uses_ceiling(self):
        train, test = train_test_split(self.make(5), 0.2, seed=1)
        assert train.m == 4 and test.m == 1

    def test_deterministic_partition(self):
        ds = self.make(30)
        a = train_test_split(ds, 0.3, seed=9)
        b = train_test_split(ds, 0.3, seed=9)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    def test_partition_covers_all_rows(self):
        ds = self.make(20)
        train, test = train_test_split(ds, 0.25, seed=4)
        merged = np.vstack([train.features, test.features])
        merged = merged[np.lexsort(merged.T)]
        original = ds.features[np.lexsort(ds.features.T)]
        assert np.array_equal(merged, original)

    def test_row_order_is_ascending_by_source(self):
        ds = self.make(12)
        train, test = train_test_split(ds, 0.25, seed=2)
        # first column is 2*row index, so ascending source order shows there
        assert np.all(np.diff(train.features[:, 0]) > 0)
        assert np.all(np.diff(test.features[:, 0]) > 0)

    def test_train_losing_a_class_raises(self):
        ds = Dataset(np.arange(4, dtype=float).reshape(2, 2), np.array([0, 1]))
        with pytest.raises(DegenerateSplitError):
            train_test_split(ds, 0.5, seed=0)  # 1/1 split strands a class

    def test_bad_fraction(self):
        with pytest.raises(InvalidParamsError):
            train_test_split(self.make(10), 0.0, seed=0)
        with pytest.raises(InvalidParamsError):
            train_test_split(self.make(10), 1.0, seed=0)
