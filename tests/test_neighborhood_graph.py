import tracemalloc

import numpy as np
import pytest

from conftest import random_orthonormal_chain
from ttnpe import neighborhood_graph
from ttnpe.errors import ConfigError, DataError
from ttnpe.neighborhood_graph import (
    AffinityConfig,
    build_gram,
    build_residual,
    build_weight_matrix,
    knn_graph,
    resolve_epsilon,
)
from ttnpe.nearest import knn_search
from ttnpe.tt_subspace import contract_chain


def columns(*vectors):
    return np.array(vectors, dtype=np.float64).T


class TestKNN:
    def test_collinear_points(self):
        nbrs, sq = knn_graph(columns([0.0], [1.0], [10.0]), 1)
        assert nbrs.tolist() == [[1], [0], [1]]
        assert sq.tolist() == [[1.0], [1.0], [81.0]]

    def test_duplicates_choose_each_other_first(self):
        nbrs, sq = knn_graph(columns([0.0], [0.0], [5.0]), 1)
        assert nbrs.tolist() == [[1], [0], [0]]
        assert sq.tolist() == [[0.0], [0.0], [25.0]]

    def test_k_equals_n_minus_one(self, rng):
        nbrs, _ = knn_graph(rng.standard_normal((3, 5)), 4)
        for i in range(5):
            assert sorted(nbrs[i].tolist()) == sorted(set(range(5)) - {i})
        # every sample's K + 1 nearest are all N samples, copies or not
        nbrs, sq = knn_graph(columns([2.0], [2.0], [2.0], [0.0]), 3)
        assert nbrs.tolist() == [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
        assert sq.tolist() == [[0.0, 0.0, 4.0], [0.0, 0.0, 4.0], [0.0, 0.0, 4.0], [4.0, 4.0, 4.0]]

    def test_self_beyond_k_plus_one_copies_drops_last(self):
        # sample 3 has K + 1 = 3 exact copies at smaller indices, so it is not
        # among its own K + 1 nearest and keeps the first K of them
        nbrs, sq = knn_graph(columns([1.0], [1.0], [1.0], [1.0], [1.0], [9.0]), 2)
        assert nbrs.tolist() == [[1, 2], [0, 2], [0, 1], [0, 1], [0, 1], [0, 1]]
        assert sq[:5].tolist() == [[0.0, 0.0]] * 5
        assert sq[5].tolist() == [64.0, 64.0]

    def test_k_too_large(self, rng):
        with pytest.raises(ValueError, match="K must be < number of samples"):
            knn_graph(rng.standard_normal((2, 4)), 4)

    def test_tie_broken_by_index(self):
        # points at -1 and +1 are equidistant from 0
        assert knn_graph(columns([0.0], [-1.0], [1.0]), 1)[0][0].tolist() == [1]

    def test_squared_norm_overflow_rejected(self):
        with pytest.raises(DataError, match="too large"):
            knn_graph(columns([0.0], [1e160]), 1)


    @pytest.mark.parametrize("order", ["C", "F"])
    def test_points_are_one_contiguous_array(self, rng, monkeypatch, order):
        d_mat = np.asarray(rng.standard_normal((6, 9)), order=order)
        want = knn_graph(d_mat, 3)
        calls = []

        def spy(train, test, k):
            calls.append((train, test))
            return knn_search(train, test, k)

        monkeypatch.setattr(neighborhood_graph, "knn_search", spy)
        got = knn_graph(d_mat, 3)
        [(train, test)] = calls
        assert train is test and train.flags.c_contiguous
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestAffinity:
    def test_identical_neighbors_weight_one(self):
        # K = 2 links all three pairs both ways: row 0 weighs 1 + 1 at distance 0, twice exp(-9/eps) at 3
        for epsilon in (1.0, 9.0, 100.0):
            s = build_weight_matrix(columns([0.0], [0.0], [3.0]), AffinityConfig(2, epsilon=epsilon))
            assert s[0, 1] == s[1, 0]
            assert abs(s[0, 1] - 1.0 / (1.0 + np.exp(-9.0 / epsilon))) < 1e-15

    def test_distance_equal_to_epsilon(self):
        s = build_weight_matrix(columns([0.0], [0.0], [2.0]), AffinityConfig(2, epsilon=4.0))
        assert abs(s[0, 2] / s[0, 1] - np.exp(-1.0)) < 1e-15

    def test_zero_diagonal(self, rng):
        s = build_weight_matrix(rng.standard_normal((4, 6)), AffinityConfig(3, epsilon=1.0))
        assert np.all(np.diag(s) == 0)

    @pytest.mark.parametrize("epsilon", [[1.0], "mean", None, 0.0, float("inf"), True])
    def test_config_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(ConfigError, match="epsilon"):
            AffinityConfig(3, epsilon=epsilon)

    def test_median_policy(self):
        _, sq = knn_graph(columns([0.0], [1.0], [3.0]), 1)
        # retained squared distances: 1 (0->1), 1 (1->0), 4 (2->1)
        assert resolve_epsilon(sq, AffinityConfig(1)) == 1.0

    def test_median_zero_rejected(self):
        _, sq = knn_graph(columns([1.0], [1.0], [1.0]), 1)
        with pytest.raises(DataError, match="median"):
            resolve_epsilon(sq, AffinityConfig(1))


class TestWeightMatrix:
    def test_two_points(self):
        s = build_weight_matrix(columns([0.0], [1.0]), AffinityConfig(1, epsilon=1.0))
        assert np.allclose(s, [[0, 1], [1, 0]])

    def test_rows_sum_to_one(self, rng):
        s = build_weight_matrix(rng.standard_normal((3, 7)), AffinityConfig(2))
        assert np.max(np.abs(s.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(np.diag(s) == 0)

    def test_normalization_can_break_symmetry(self):
        # asymmetric KNN structure: 2's nearest is 1, but 0 and 1 pick each other
        s = build_weight_matrix(columns([0.0], [1.0], [3.0]), AffinityConfig(1, epsilon=10.0))
        assert np.max(np.abs(s - s.T)) > 1e-6

    def test_at_most_2k_nonzeros_per_row(self, rng):
        k = 2
        s = build_weight_matrix(rng.standard_normal((3, 9)), AffinityConfig(k))
        assert np.max(np.count_nonzero(s, axis=1)) <= 2 * k

    def test_one_n_by_n_array(self):
        # S is the only N x N array: the traced peak stays well below two of them
        d_mat = np.asfortranarray(np.random.default_rng(7).uniform(size=(784, 1200)))
        tracemalloc.start()
        try:
            s = build_weight_matrix(d_mat, AffinityConfig(5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * s.nbytes


class TestResidualAndGram:
    def test_identical_samples_zero_residual(self):
        d_mat = np.ones((4, 3))
        s = build_weight_matrix(d_mat, AffinityConfig(1, epsilon=1.0))
        assert np.max(np.abs(build_residual(d_mat, s))) < 1e-14

    def test_two_sample_columns(self):
        d_mat = columns([1.0, 0.0], [0.0, 2.0])
        s = np.array([[0.0, 1.0], [1.0, 0.0]])
        y = build_residual(d_mat, s)
        assert np.allclose(y[:, 0], d_mat[:, 0] - d_mat[:, 1])
        assert np.allclose(y[:, 1], d_mat[:, 1] - d_mat[:, 0])

    def test_column_formula(self, rng):
        d_mat = rng.standard_normal((5, 4))
        s = build_weight_matrix(d_mat, AffinityConfig(2))
        y = build_residual(d_mat, s)
        for i in range(4):
            expected = d_mat[:, i] - d_mat @ s[i, :]
            assert np.max(np.abs(y[:, i] - expected)) < 1e-12

    def test_gram_zero_and_rank_one(self, rng):
        assert np.array_equal(build_gram(np.zeros((3, 2))), np.zeros((3, 3)))
        u = rng.standard_normal((4, 1))
        z = build_gram(u)
        assert np.allclose(z, u @ u.T)
        assert np.linalg.matrix_rank(z) == 1

    def test_gram_psd(self, rng):
        y = rng.standard_normal((6, 4))
        z = build_gram(y)
        assert np.max(np.abs(z - z.T)) < 1e-10
        for _ in range(100):
            v = rng.standard_normal(6)
            assert v @ z @ v >= -1e-10

    @staticmethod
    def layouts(a):
        """``a`` C-ordered, F-ordered and as a strided view of a wider array."""
        return [np.ascontiguousarray(a), np.asfortranarray(a), np.repeat(a, 2, axis=1)[:, ::2]]

    @pytest.mark.parametrize("d, n", [(12, 9), (784, 400), (784, 600)])
    def test_same_bits_as_the_copying_formulas(self, rng, d, n):
        # Y = D - D S^T and Z = (Y Y^T + (Y Y^T)^T) / 2, each in a new array
        base = rng.standard_normal((d, n))
        for d_mat in self.layouts(base):
            s = build_weight_matrix(d_mat, AffinityConfig(5))
            y = build_residual(d_mat, s)
            assert np.array_equal(y, d_mat - d_mat @ s.T)
            assert y.flags.c_contiguous
            for y_in in self.layouts(y):
                z = build_gram(y_in)
                zz = y_in @ y_in.T
                assert np.array_equal(z, z.T)
                assert np.array_equal(z, (zz + zz.T) / 2.0)


class TestObjectiveForms:
    def test_three_forms_agree(self, rng):
        # tr(E^T Z E) = ||E^T Y||_F^2 = sum_i ||E^T v_i - sum_j S_ij E^T v_j||^2
        dims = (2, 2, 2)
        d = 8
        d_mat = rng.standard_normal((d, 6))
        s = build_weight_matrix(d_mat, AffinityConfig(2))
        y = build_residual(d_mat, s)
        z = build_gram(y)
        chain = random_orthonormal_chain(rng, dims, (2, 2, 3))
        e = contract_chain(chain)
        form_trace = np.trace(e.T @ z @ e)
        form_frob = np.sum((e.T @ y) ** 2)
        coords = e.T @ d_mat
        form_sum = sum(
            np.sum((coords[:, i] - coords @ s[i, :]) ** 2) for i in range(6)
        )
        assert abs(form_trace - form_frob) < 1e-9
        assert abs(form_trace - form_sum) < 1e-9
        assert -1e-12 <= form_trace <= np.trace(z) + 1e-9

    def test_scaling_quadratic(self, rng):
        d_mat = rng.standard_normal((4, 6))
        cfg = AffinityConfig(2)
        z1 = build_gram(build_residual(d_mat, build_weight_matrix(d_mat, cfg)))
        d2 = 3.0 * d_mat
        z2 = build_gram(build_residual(d2, build_weight_matrix(d2, cfg)))
        # median epsilon is scale-adaptive, so the graph is identical and Z scales by c^2
        assert np.max(np.abs(z2 - 9.0 * z1)) < 1e-9
        for r in (1, 2):
            lo1 = np.sum(np.linalg.eigvalsh(z1)[:r])
            lo2 = np.sum(np.linalg.eigvalsh(z2)[:r])
            assert abs(lo2 - 9.0 * lo1) < 1e-8
