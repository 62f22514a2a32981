"""Property tests: the screened KNN graph and classifier against the loop oracles.

Inputs are drawn to stress the screen's rounding bound and the tie rules:
duplicate samples, exact distance ties, values on the 1/255 pixel grid,
sample norms that differ by 1e6, sets of equal samples (at the origin, the
screen's slack is 0), samples so small that their squared norms underflow,
K = N - 1, and both memory layouts; C and F copies of the same values must
give bit-identical results. Block sizes down to one entry exercise the
blocked screens and chunked re-ranking. A search may raise DataError only on
samples too small for exact squared distances.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from conftest import brute_knn_classify, brute_knn_sets, brute_pairwise_sq_dists
from hypothesis import given, settings
from hypothesis import strategies as st

from ttnpe import nearest
from ttnpe.classifier import knn_classify
from ttnpe.errors import DataError
from ttnpe.nearest import knn_search
from ttnpe.neighborhood_graph import (
    AffinityConfig,
    build_weight_matrix,
    knn_graph,
    resolve_epsilon,
)

KINDS = ("gaussian", "grid255", "duplicates", "lattice_ties", "norms_1e6", "constant", "tiny")
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)
BLOCKS = st.sampled_from([1, 2, 5, 16, nearest.BLOCK_ELEMENTS])


def blocks_of(entries):
    return mock.patch.object(nearest, "BLOCK_ELEMENTS", entries)


@contextmanager
def unless_too_small(samples):
    """Lets the body's DataError pass only for samples whose squared norms
    underflow, or nearly so; the search rejects those."""
    try:
        yield
    except DataError:
        if not 0 < np.abs(samples).max() < 1e-140:
            raise


def samples(rng, kind, n, d):
    """An (n, d) array of samples, one per row, of the given kind."""
    if kind == "gaussian":
        return rng.standard_normal((n, d))
    if kind == "grid255":
        return rng.integers(0, 256, (n, d)) / 255.0
    if kind == "duplicates":
        base = rng.integers(0, 256, (max(1, n // 3), d)) / 255.0
        return base[rng.integers(0, len(base), n)]
    if kind == "lattice_ties":
        return rng.integers(-1, 2, (n, d)).astype(np.float64)
    if kind == "constant":  # at the origin half the time, where the screen's slack is 0
        return np.repeat(rng.integers(0, 2) * rng.standard_normal((1, d)), n, axis=0)
    if kind == "tiny":  # lattice or Gaussian values, at scales where squared norms underflow
        values = rng.integers(-2, 3, (n, d)) if rng.integers(0, 2) else rng.standard_normal((n, d))
        return values * 10.0 ** rng.integers(-170, -99)
    scale = np.ones((n, 1))
    scale[::2] = 1e6
    return scale * rng.standard_normal((n, d))


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def layout(a, order):
    return np.asfortranarray(a) if order == "F" else np.ascontiguousarray(a)


@st.composite
def graph_problems(draw):
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 16))
    k = draw(st.one_of(st.just(n - 1), st.integers(1, n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d_mat = samples(rng, kind, n, d).T
    return layout(d_mat, draw(st.sampled_from("CF"))), k


@st.composite
def classify_problems(draw):
    kind = draw(st.sampled_from(KINDS))
    n_train = draw(st.integers(1, 16))
    n_new = draw(st.integers(0, 24))
    d = draw(st.integers(1, 16))
    k = draw(st.one_of(st.just(n_train), st.integers(1, n_train)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    both = samples(rng, kind, n_train + n_new, d)
    train = both[:n_train]
    # copies of training points give zero distances and exact ties
    test = np.concatenate([both[n_train:], train[rng.integers(0, n_train, rng.integers(0, 4))]])
    labels = rng.integers(0, 3, n_train)
    return (layout(train, draw(st.sampled_from("CF"))), labels,
            layout(test, draw(st.sampled_from("CF"))), k)


@PROPERTY_SETTINGS
@given(graph_problems(), BLOCKS)
def test_graph_knn_sets_and_distances_match_loop(problem, block):
    d_mat, k = problem
    expected_sq = brute_pairwise_sq_dists(d_mat)
    expected = brute_knn_sets(expected_sq, k)
    rows = np.arange(d_mat.shape[1])[:, None]
    with blocks_of(block), unless_too_small(d_mat):
        neighbors, sq = knn_graph(d_mat, k)
        assert np.array_equal(neighbors, expected)
        assert np.array_equal(bits(sq), bits(expected_sq[rows, expected]))


def loop_weight_matrix(neighbors, sq, epsilon):
    """S by explicit loops: F_ij over the KNN pairs, S_ij = F_ij + F_ji, then each row over its sum."""
    n = len(neighbors)
    f = np.zeros((n, n))
    for i in range(n):
        for j, d2 in zip(neighbors[i], sq[i]):
            f[i, j] = np.exp(-d2 / epsilon)
    s = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            s[i, j] = f[i, j] + f[j, i]
    for i in range(n):
        row_sum = s[i].sum()
        if row_sum <= 0:
            raise DataError("zero row sum")
        s[i] = s[i] / row_sum
    return s


@PROPERTY_SETTINGS
@given(graph_problems(), BLOCKS)
def test_weight_matrix_matches_loop(problem, block):
    # the median-distance epsilon reads the retained distances; a zero median
    # or an underflowing heat kernel must fail on both sides alike
    d_mat, k = problem
    cfg = AffinityConfig(k)
    all_sq = brute_pairwise_sq_dists(d_mat)
    neighbors = brute_knn_sets(all_sq, k)
    sq = all_sq[np.arange(d_mat.shape[1])[:, None], neighbors]
    try:
        expected = loop_weight_matrix(neighbors, sq, resolve_epsilon(sq, cfg))
    except DataError:
        with pytest.raises(DataError), blocks_of(block):
            build_weight_matrix(d_mat, cfg)
        return
    with blocks_of(block), unless_too_small(d_mat):
        assert np.array_equal(bits(build_weight_matrix(d_mat, cfg)), bits(expected))


@PROPERTY_SETTINGS
@given(classify_problems(), BLOCKS)
def test_knn_search_matches_loop(problem, block):
    train, labels, test, k = problem
    _, expected, expected_dists = brute_knn_classify(train, labels, test, k)
    with blocks_of(block), unless_too_small(train):
        neighbors, dists = knn_search(train, test, k)
        assert np.array_equal(neighbors, expected)
        assert np.array_equal(bits(dists), bits(expected_dists))


@PROPERTY_SETTINGS
@given(classify_problems(), BLOCKS)
def test_search_and_classify_ignore_memory_layout(problem, block):
    train, labels, test, k = problem
    with blocks_of(block), unless_too_small(train):
        runs = [(*knn_search(layout(train, o), layout(test, o), k),
                 knn_classify(layout(train, o), labels, layout(test, o), k)) for o in "CF"]
        (nbr_c, dist_c, pred_c), (nbr_f, dist_f, pred_f) = runs
        assert np.array_equal(nbr_c, nbr_f) and np.array_equal(pred_c, pred_f)
        assert np.array_equal(bits(dist_c), bits(dist_f))


@PROPERTY_SETTINGS
@given(graph_problems(), BLOCKS)
def test_graph_and_weights_ignore_memory_layout(problem, block):
    d_mat, k = problem
    runs = []
    with unless_too_small(d_mat):
        for o in "CF":
            with blocks_of(block):
                neighbors, sq = knn_graph(layout(d_mat, o), k)
                try:
                    weights = bits(build_weight_matrix(layout(d_mat, o), AffinityConfig(k)))
                except DataError:
                    weights = None
            runs.append((neighbors, bits(sq), weights))
        (nbr_c, sq_c, w_c), (nbr_f, sq_f, w_f) = runs
        assert np.array_equal(nbr_c, nbr_f) and np.array_equal(sq_c, sq_f)
        assert (w_c is None) == (w_f is None)
        assert w_c is None or np.array_equal(w_c, w_f)


@PROPERTY_SETTINGS
@given(classify_problems(), BLOCKS)
def test_knn_classify_matches_loop(problem, block):
    train, labels, test, k = problem
    expected, _, _ = brute_knn_classify(train, labels, test, k)
    with blocks_of(block), unless_too_small(train):
        assert np.array_equal(knn_classify(train, labels, test, k), expected)


def test_lone_window_pair_summed_in_loop_order():
    # a query whose window holds one training point: that lone gathered pair
    # is reduced exactly as the loop reduces each row, here from F-ordered input
    rng = np.random.default_rng(3)
    for _ in range(20):
        train = np.asfortranarray(rng.standard_normal((4, 16)))
        test = train[:1] + 1e-3 * rng.standard_normal((1, 16))
        _, expected, expected_dists = brute_knn_classify(train, np.arange(4), test, 1)
        neighbors, dists = knn_search(train, test, 1)
        assert np.array_equal(neighbors, expected)
        assert np.array_equal(bits(dists), bits(expected_dists))


def reference_pairs(train, test, k):
    """knn_search's result and the number of reference distances it computed."""
    with mock.patch.object(nearest, "reference_sq_dists", wraps=nearest.reference_sq_dists) as ref:
        neighbors, dists = knn_search(train, test, k)
    return neighbors, dists, sum(len(call.args[2]) for call in ref.call_args_list)


def test_collapsed_training_set_reranks_k_pairs_per_query():
    # a collapsed embedding maps every sample to the origin: every screen
    # distance ties and the slack is 0, so each query re-ranks only the k
    # lowest indices instead of the whole training set
    k, n_test = 5, 7
    neighbors, dists, pairs = reference_pairs(np.zeros((300, 10)), np.zeros((n_test, 10)), k)
    assert pairs == k * n_test
    assert np.array_equal(neighbors, np.tile(np.arange(k), (n_test, 1)))
    assert not dists.any()


def test_identical_nonzero_training_set_reranks_its_window_once():
    # the slack is above 0, so the window is every training point, and each
    # of them is re-ranked once
    rng = np.random.default_rng(4)
    train = np.repeat(rng.standard_normal((1, 10)), 300, axis=0)
    test = np.concatenate([np.zeros((3, 10)), train[:4]])
    neighbors, dists, pairs = reference_pairs(train, test, 5)
    assert pairs == 300 * len(test)
    _, expected, expected_dists = brute_knn_classify(train, np.zeros(300), test, 5)
    assert np.array_equal(neighbors, expected)
    assert np.array_equal(bits(dists), bits(expected_dists))


@pytest.mark.parametrize("scale", [1e-160, 1e-158, 1e-157, 1e-148])
def test_samples_too_small_for_exact_distances_raise(scale):
    # subnormal squared distances round in absolute terms the slack does not
    # cover: at 1e-158 the search used to rank an index 19 before an index 3
    # at an equal distance; squared norms that underflow to 0 are caught too
    x = np.random.default_rng(1).integers(-2, 3, (20, 4)) * scale
    with pytest.raises(DataError, match="too small"):
        knn_search(x, x, 5)


@pytest.mark.parametrize("scale", [1e-147, 1e-120, 1e-100])
def test_small_samples_above_the_floor_match_loop(scale):
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.integers(-2, 3, (20, 4)) * scale
        _, expected, expected_dists = brute_knn_classify(x, np.zeros(20), x, 5)
        neighbors, dists = knn_search(x, x, 5)
        assert np.array_equal(neighbors, expected)
        assert np.array_equal(bits(dists), bits(expected_dists))


def test_underflowing_norms_with_a_nonzero_point_raise():
    # every squared norm rounds to 0, yet the distance from -1e-162 to 1e-162
    # does not: a zero slack would rank index 0 first, the loop ranks index 1
    with pytest.raises(DataError, match="too small"):
        knn_search(np.array([[1e-162], [0.0]]), np.array([[-1e-162]]), 1)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
@pytest.mark.parametrize("bad_set", ["training", "test"])
def test_bad_value_names_its_set_before_the_k_rule(bad_set, value):
    # K = 3 > N_train = 2: a bad value is reported before the K rule runs
    train = np.array([[0.0, 1.0], [2.0, 3.0]])
    test = np.array([[1.0, 1.0]])
    (train if bad_set == "training" else test)[-1, 1] = value
    with pytest.raises(DataError, match=f"^{bad_set} coordinates contain NaN or infinite values"
                                        ", or values too large for squared distances$"):
        knn_search(train, test, 3)
