import numpy as np
import pytest

from conftest import brute_merge
from ttnpe.tensor_core import frobenius_norm, kronecker, left_unfold, merge_product, vectorize


class TestVectorize:
    def test_identity_matrix_mode1_fastest(self):
        assert np.array_equal(vectorize(np.eye(2)), [1, 0, 0, 1])

    def test_offset_formula(self):
        t = np.empty((2, 3))
        for i in range(2):
            for j in range(3):
                t[i, j] = 10 * i + j
        assert np.array_equal(vectorize(t), [0, 10, 1, 11, 2, 12])

    def test_fold_round_trip(self, rng):
        t = rng.standard_normal((3, 2, 4))
        assert np.array_equal(vectorize(t).reshape(t.shape, order="F"), t)


class TestUnfoldings:
    def test_left_unfold_singleton_leading_mode(self, rng):
        t = rng.standard_normal((1, 2, 3))
        assert np.array_equal(left_unfold(t), t[0])

    def test_left_unfold_index_formula(self, rng):
        t = rng.standard_normal((2, 3, 4))
        m = left_unfold(t)
        assert m.shape == (6, 4)
        for i1 in range(2):
            for i2 in range(3):
                for i3 in range(4):
                    assert m[i1 + 2 * i2, i3] == t[i1, i2, i3]

    def test_unfold_requires_two_modes(self):
        with pytest.raises(ValueError, match="requires >=2 modes"):
            left_unfold(np.ones(3))

    def test_unfold_vectorize_same_flat_order(self, rng):
        t = rng.standard_normal((2, 3, 2))
        assert np.array_equal(vectorize(left_unfold(t)), vectorize(t))


class TestMergeProduct:
    def test_identity_matrix_product(self):
        out = merge_product(np.eye(2), np.eye(2), [2], [1])
        assert np.allclose(out, np.eye(2))

    def test_lemma1_unfolded_matrix_product(self, rng):
        a = rng.standard_normal((2, 2, 3))
        b = rng.standard_normal((2, 3, 2))
        out = merge_product(a, b, [2, 3], [1, 2])
        expected = a.reshape(2, 6, order="F") @ b.reshape(6, 2, order="F")
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_brute_force_oracle(self, rng):
        a = rng.standard_normal((2, 3, 2))
        b = rng.standard_normal((3, 2))
        out = merge_product(a, b, [2], [1])
        assert np.max(np.abs(out - brute_merge(a, b, [2], [1]))) < 1e-12

    def test_dim_mismatch_names_pair(self, rng):
        with pytest.raises(ValueError, match="mode 1 of a, mode 2 of b"):
            merge_product(rng.standard_normal((2, 3)), rng.standard_normal((2, 3)), [1], [2])

    def test_repeated_index_rejected(self, rng):
        a = rng.standard_normal((2, 2))
        with pytest.raises(ValueError, match="repeated"):
            merge_product(a, a, [1, 1], [1, 2])


class TestKronecker:
    def test_identity_one(self, rng):
        b = rng.standard_normal((3, 2))
        assert np.array_equal(kronecker(np.eye(1), b), b)

    def test_preserves_orthonormal_columns(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        out = kronecker(np.eye(2), q)
        gram = out.T @ out
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_associativity_with_identity(self, rng):
        m = rng.standard_normal((3, 2))
        lhs = kronecker(np.eye(2), kronecker(np.eye(3), m))
        rhs = kronecker(np.eye(6), m)
        assert np.array_equal(lhs, rhs)


class TestFrobeniusNorm:
    def test_bits_of_numpy_norm_on_ordinary_arrays(self, rng):
        for shape in [(5,), (7, 3), (2, 3, 4)]:
            t = rng.standard_normal(shape)
            assert frobenius_norm(t) == float(np.linalg.norm(t))
            assert frobenius_norm(np.asfortranarray(t)) == float(np.linalg.norm(np.asfortranarray(t)))

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-310])
    def test_finite_when_sum_of_squares_leaves_the_normal_range(self, rng, scale):
        # 1e200 overflows the squares, 1e-200 and subnormal 1e-310 underflow them
        t = rng.standard_normal((6, 4))
        with np.errstate(over="raise", under="ignore"):
            got = frobenius_norm(scale * t)
        expected = scale * np.linalg.norm(t)
        assert got == pytest.approx(expected, rel=1e-6 if scale < 1e-300 else 1e-14)

    def test_overflow_is_not_warned(self):
        with np.errstate(over="raise"):
            assert frobenius_norm(np.full((3, 3), 1e300)) == pytest.approx(3e300, rel=1e-14)

    @pytest.mark.parametrize("t, expected", [
        (np.zeros((2, 2)), 0.0), (np.zeros(0), 0.0), (np.array([1.0, np.inf]), np.inf),
    ])
    def test_zero_empty_and_infinite(self, t, expected):
        assert frobenius_norm(t) == expected

    def test_nan_propagates(self):
        assert np.isnan(frobenius_norm(np.array([1.0, np.nan])))


class TestProperties:
    def test_lemma1_randomized(self, rng):
        # merging over all shared middle modes equals the unfolded matrix product
        for _ in range(30):
            k = int(rng.integers(1, 4))
            shared = [int(rng.integers(1, 5)) for _ in range(k)]
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            a = rng.standard_normal([m] + shared)
            b = rng.standard_normal(shared + [n])
            out = merge_product(a, b, list(range(2, k + 2)), list(range(1, k + 1)))
            expected = a.reshape(m, -1, order="F") @ b.reshape(-1, n, order="F")
            assert np.max(np.abs(out - expected)) < 1e-12

