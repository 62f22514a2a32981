import numpy as np
import pytest

from conftest import random_orthonormal_chain
import ttnpe
from ttnpe.classifier import evaluate, knn_classify
from ttnpe.errors import DataError
from ttnpe.nearest import knn_search
from ttnpe.tt_subspace import tt_svd


class TestKnnClassify:
    def test_single_neighbor(self):
        train = np.array([[0.0], [1.0], [2.0]])
        labels = np.array([0, 1, 1])
        preds = knn_classify(train, labels, np.array([[0.1], [1.9]]), 1)
        assert preds.tolist() == [0, 1]

    def test_majority_vote(self):
        train = np.array([[0.0], [0.1], [0.2], [5.0]])
        labels = np.array([0, 0, 1, 1])
        preds = knn_classify(train, labels, np.array([[0.0]]), 3)
        assert preds.tolist() == [0]

    def test_distance_tie_lower_index_wins(self):
        # test point equidistant from both training points
        train = np.array([[-1.0], [1.0]])
        labels = np.array([3, 7])
        preds = knn_classify(train, labels, np.array([[0.0]]), 1)
        assert preds.tolist() == [3]

    def test_vote_tie_nearest_tied_class_wins(self):
        # K=2 picks one of each class; class of the closer neighbor wins
        train = np.array([[0.0], [1.0]])
        labels = np.array([5, 9])
        preds = knn_classify(train, labels, np.array([[0.2]]), 2)
        assert preds.tolist() == [5]
        preds = knn_classify(train, labels, np.array([[0.8]]), 2)
        assert preds.tolist() == [9]

    def test_k_equals_n_train(self):
        train = np.array([[0.0], [1.0], [2.0]])
        labels = np.array([1, 1, 0])
        preds = knn_classify(train, labels, np.array([[10.0]]), 3)
        assert preds.tolist() == [1]

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="K must be"):
            knn_classify(np.zeros((2, 1)), np.array([0, 1]), np.zeros((1, 1)), 3)

    def test_deterministic(self, rng):
        train = rng.standard_normal((20, 3))
        labels = rng.integers(0, 3, 20)
        test = rng.standard_normal((10, 3))
        a = knn_classify(train, labels, test, 5)
        b = knn_classify(train, labels, test, 5)
        assert np.array_equal(a, b)

    def test_orthogonal_map_invariance(self, rng):
        # distances are preserved under orthogonal maps, so predictions are too
        train = rng.standard_normal((15, 4))
        labels = rng.integers(0, 2, 15)
        test = rng.standard_normal((6, 4))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = knn_classify(train, labels, test, 3)
        b = knn_classify(train @ q, labels, test @ q, 3)
        assert np.array_equal(a, b)

    def test_nan_query_rejected(self):
        # the per-query loop gave a NaN query the label of training index 0
        train = np.array([[0.0], [1.0]])
        with pytest.raises(DataError, match="test coordinates"):
            knn_classify(train, np.array([3, 7]), np.array([[np.nan]]), 1)

    def test_infinite_training_point_rejected(self):
        train = np.array([[0.0], [np.inf]])
        with pytest.raises(DataError, match="training coordinates"):
            knn_classify(train, np.array([3, 7]), np.array([[0.5]]), 1)


class TestEvaluate:
    def clustered(self, rng, per_class=5, dims=(2, 2, 2)):
        c0 = np.zeros(dims)
        c1 = np.full(dims, 8.0)
        samples = [c0 + 0.1 * rng.standard_normal(dims) for _ in range(per_class)]
        samples += [c1 + 0.1 * rng.standard_normal(dims) for _ in range(per_class)]
        labels = np.array([0] * per_class + [1] * per_class)
        return np.stack(samples, axis=-1), labels

    def test_baseline_perfect_on_clusters(self, rng):
        data, labels = self.clustered(rng)
        res = evaluate(None, data, labels, data, labels, 1)
        assert res.error_rate == 0.0
        assert res.compression_ratio == 1.0
        assert res.n_wrong == 0
        assert np.array_equal(res.predictions, labels)

    def test_full_rank_chain_matches_baseline(self, rng):
        # a full-rank chain is an isometry on the data, so errors agree exactly
        data, labels = self.clustered(rng)
        test, test_labels = self.clustered(rng)
        chain = tt_svd(data, 1e-14)
        base = evaluate(None, data, labels, test, test_labels, 3)
        emb = evaluate(chain, data, labels, test, test_labels, 3)
        assert base.error_rate == emb.error_rate
        assert np.array_equal(base.predictions, emb.predictions)

    def test_compression_below_one_for_low_rank(self, rng):
        data, labels = self.clustered(rng, per_class=10)
        chain = tt_svd(data, 0.3, rank_cap=2)
        res = evaluate(chain, data, labels, data, labels, 1)
        assert 0.0 < res.compression_ratio < 1.0

    def test_confusion_totals(self, rng):
        data, labels = self.clustered(rng)
        chain = tt_svd(data, 0.5)
        res = evaluate(chain, data, labels, data, labels, 3)
        assert len(res.predictions) == res.n_test
        assert np.count_nonzero(res.predictions != labels) == res.n_wrong

    def test_model_dims_mismatch_is_data_error(self, rng):
        data, labels = self.clustered(rng, dims=(2, 4))
        chain = random_orthonormal_chain(rng, (2, 2, 2), (2, 2, 1))
        with pytest.raises(DataError, match=r"sample dims \[2, 4\] do not match mode dims \[2, 2, 2\]"):
            evaluate(chain, data, labels, data, labels, 1)

    def test_error_rate_range(self, rng):
        data = rng.standard_normal((2, 2, 12))
        labels = rng.integers(0, 2, 12)
        res = evaluate(None, data, labels, data, labels, 3)
        assert 0.0 <= res.error_rate <= 1.0

    def test_projection_coords_used(self, rng):
        # rank-1 chain collapses everything to R_n=1 coordinates; an orthonormal
        # chain cannot make error worse than chance on its own training data
        data, labels = self.clustered(rng)
        chain = random_orthonormal_chain(rng, (2, 2, 2), (1, 1, 1))
        res = evaluate(chain, data, labels, data, labels, 1)
        assert res.compression_ratio < 1.0
        assert res.n_test == 10

    def test_nan_test_data_rejected(self, rng):
        data, labels = self.clustered(rng)
        test = data.copy()
        test[0, 1, 0, 2] = np.nan
        with pytest.raises(DataError, match="NaN or infinite"):
            evaluate(None, data, labels, test, labels, 1)


class TestInputRules:
    """Mismatched inputs through the public names: one typed error each."""

    @staticmethod
    def data(rng, dims, n):
        return rng.standard_normal(tuple(dims) + (n,))

    @pytest.mark.parametrize("n_train, n_labels", [(6, 8), (4, 3)])
    def test_one_label_per_training_sample(self, rng, n_train, n_labels):
        # 8 labels for 6 samples used the first 6; 3 for 4 raised IndexError
        test = self.data(rng, (2, 3), 2)
        with pytest.raises(DataError, match="one label per training point"):
            ttnpe.evaluate(None, self.data(rng, (2, 3), n_train), np.arange(n_labels) % 2,
                           test, np.array([0, 1]), 1)
        with pytest.raises(DataError, match="one label per training point"):
            ttnpe.knn_classify(np.zeros((n_train, 2)), np.arange(n_labels) % 2, np.zeros((1, 2)), 1)

    def test_one_label_per_test_sample(self, rng):
        with pytest.raises(DataError, match="one label per test sample"):
            ttnpe.evaluate(None, self.data(rng, (2, 3), 4), np.array([0, 1, 0, 1]),
                           self.data(rng, (2, 3), 3), np.zeros(5, dtype=int), 1)

    def test_at_least_one_test_sample(self, rng):
        with pytest.raises(DataError, match="at least one test sample"):
            ttnpe.evaluate(None, self.data(rng, (2, 3), 4), np.array([0, 1, 0, 1]),
                           self.data(rng, (2, 3), 0), np.zeros(0, dtype=int), 1)

    @pytest.mark.parametrize("test_dims", [(2, 4), (3, 2)])
    def test_equal_train_and_test_dims(self, rng, test_dims):
        # (2, 4) failed in a matmul; (3, 2) has as many entries and scored silently
        with pytest.raises(DataError, match=r"test sample dims \[\d, \d\] do not match training sample dims \[2, 3\]"):
            ttnpe.evaluate(None, self.data(rng, (2, 3), 4), np.array([0, 1, 0, 1]),
                           self.data(rng, test_dims, 3), np.array([0, 1, 0]), 1)

    @pytest.mark.parametrize("train_shape, test_shape", [((4,), (2,)), ((4, 2), (2,)), ((4,), (2, 1)),
                                                         ((4, 2), (2, 3)), ((4, 2, 1), (2, 2, 1))])
    def test_knn_search_needs_2d_sets_with_equal_columns(self, train_shape, test_shape):
        with pytest.raises(DataError, match="2-D with equal column counts"):
            knn_search(np.zeros(train_shape), np.zeros(test_shape), 1)
