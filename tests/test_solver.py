import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (brute_core_form, no_convergence, random_orthonormal_chain, random_psd,
                      same_bits, spy_calls, spy_qr, spy_square_eigh)
import ttnpe
from ttnpe import harness, neighborhood_graph, solver, stiefel
from ttnpe.classifier import evaluate
from ttnpe.errors import ConfigError, DataError
from ttnpe.neighborhood_graph import (AffinityConfig, build_gram, build_residual, build_weight_matrix,
                                     knn_graph)
from ttnpe.solver import (
    TTNPEProblem,
    build_A,
    build_B,
    build_PQC,
    fit,
    objective,
    smallest_eigvecs,
    sweep_atn,
    sweep_tn,
)
from ttnpe.stiefel import OptimizerConfig, check_gradient, minimize
from ttnpe.tensor_core import left_unfold, merge_product, vectorize
from ttnpe.tt_subspace import TTChain, contract_chain, project_many, right_environments


def make_problem(rng, dims=(2, 2, 2), ranks=(2, 2, 2), variant="tn", z=None):
    chain = random_orthonormal_chain(rng, dims, ranks)
    d = int(np.prod(dims))
    if z is None:
        z = random_psd(rng, d, rank=d - 2)
    return TTNPEProblem(z=z, mode_dims=dims, chain=chain, variant=variant)


def objective_with_core(problem, k, vec_u):
    """Independent objective path: substitute the core and recontract the chain."""
    core = problem.chain.cores[k - 1]
    trial = problem.chain.replace_core(k - 1, vec_u.reshape(core.shape, order="F"))
    e = contract_chain(trial)
    return float(np.trace(e.T @ problem.z @ e))


class TestObjective:
    def test_zero_gram(self, rng):
        problem = make_problem(rng, z=np.zeros((8, 8)))
        assert objective(problem) == 0.0

    def test_identity_gram(self, rng):
        problem = make_problem(rng, z=np.eye(8))
        assert abs(objective(problem) - problem.chain.embedding_dim) < 1e-10

    def test_definitional_form(self, rng):
        dims = (2, 2, 2)
        problem = make_problem(rng, dims=dims)
        e = contract_chain(problem.chain)
        assert abs(objective(problem) - np.trace(e.T @ problem.z @ e)) < 1e-9


class TestBuildA:
    def test_quadratic_form_identity(self, rng):
        problem = make_problem(rng, dims=(2, 3, 2), ranks=(2, 2, 3))
        obj = objective(problem)
        for k in range(1, 3):
            _, a_mat = build_A(problem, k)
            vec = vectorize(problem.chain.cores[k - 1])
            assert abs(vec @ a_mat @ vec - obj) < 1e-9

    def test_polarization_oracle(self, rng):
        problem = make_problem(rng, dims=(2, 2, 2), ranks=(2, 2, 2))
        for k in (1, 2):
            _, a_mat = build_A(problem, k)
            m = a_mat.shape[0]
            oracle = np.empty((m, m))
            basis = np.eye(m)
            diag = [objective_with_core(problem, k, basis[i]) for i in range(m)]
            for i in range(m):
                for j in range(m):
                    f_sum = objective_with_core(problem, k, basis[i] + basis[j])
                    oracle[i, j] = (f_sum - diag[i] - diag[j]) / 2.0
            oracle[np.diag_indices(m)] = diag
            assert np.max(np.abs(a_mat - oracle)) < 1e-8

    def test_zero_gram_gives_zero(self, rng):
        problem = make_problem(rng, z=np.zeros((8, 8)))
        _, a_mat = build_A(problem, 1)
        assert np.max(np.abs(a_mat)) == 0.0

    def test_symmetric_psd(self, rng):
        problem = make_problem(rng, dims=(2, 3, 2), ranks=(2, 3, 2))
        for k in (1, 2):
            _, a_mat = build_A(problem, k)
            assert np.max(np.abs(a_mat - a_mat.T)) < 1e-12
            vals = np.linalg.eigvalsh(a_mat)
            assert vals[0] > -1e-8 * max(1.0, np.abs(vals).max())

    def test_k_range(self, rng):
        problem = make_problem(rng)
        with pytest.raises(ValueError):
            build_A(problem, 3)

    def test_kronecker_oracle(self, rng):
        problem = make_problem(rng, dims=(3, 4, 3, 4), ranks=(2, 5, 7, 3))
        scale = np.abs(problem.z).max()
        for k in (1, 2, 3):
            _, a_mat = build_A(problem, k)
            oracle = brute_core_form(problem.chain, problem.z, k)
            assert np.max(np.abs(a_mat - oracle)) < 1e-12 * scale
        _, b_mat = build_B(problem)
        oracle = brute_core_form(problem.chain, problem.z, 4)
        assert np.max(np.abs(np.kron(np.eye(3), b_mat) - oracle)) < 1e-12 * scale

    def test_peak_memory_bounded_by_gram(self, rng):
        problem = make_problem(rng, dims=(4, 7, 4, 7), ranks=(3, 7, 12, 10))
        for k in (1, 2, 3):
            tracemalloc.start()
            try:
                build_A(problem, k)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 4 * problem.z.nbytes, k


def product_prefix_form(problem, k):
    """The prefix form by its general product formula, also at k = 1 (test oracle)."""
    prefix = contract_chain(problem.chain, upto=k - 1)
    d_pre, r_prev = prefix.shape
    i_k = problem.mode_dims[k - 1]
    d_rest = problem.z.shape[0] // d_pre
    w = problem.z.reshape(-1, d_pre) @ prefix
    w = prefix.T @ w.reshape(d_rest, d_pre, -1)
    d_post = d_rest // i_k
    return w.reshape(d_post, i_k, r_prev, d_post, i_k, r_prev)


def explicit_core_form(problem, k):
    """Core k's form: the product-formula prefix form contracted over its two
    d_post modes with an explicit Q_k Q_k^T (test oracle). At k = n, Q_n = I
    and the form is I_{R_n} (x) B, as in ``brute_core_form``."""
    w = product_prefix_form(problem, k)
    d_post, i_k, r_prev = w.shape[:3]
    env = right_environments(problem.chain)[k - 1]
    r_k = env.shape[0]
    q = env.reshape(r_k * d_post, -1, order="F")  # rows (R_k, d_post), R_k fastest
    qq = (q @ q.T).reshape(r_k, d_post, r_k, d_post, order="F")
    a = np.tensordot(w, qq, axes=([0, 3], [1, 3]))  # (I_k, R_{k-1}, I_k', R_{k-1}', R_k, R_k')
    m = r_prev * i_k * r_k
    return np.transpose(a, (4, 0, 1, 5, 2, 3)).reshape(m, m)


class TestBuildB:
    def test_trace_identity(self, rng):
        problem = make_problem(rng, dims=(2, 3, 2), ranks=(2, 2, 3))
        _, b_mat = build_B(problem)
        ln = left_unfold(problem.chain.cores[-1])
        assert abs(np.trace(ln.T @ b_mat @ ln) - objective(problem)) < 1e-9

    def test_eigenvalue_sum_bounded_by_trace(self, rng):
        problem = make_problem(rng)
        _, b_mat = build_B(problem)
        assert np.sum(np.linalg.eigvalsh(b_mat)) <= np.trace(problem.z) + 1e-9

    def test_identity_gram_gives_identity(self, rng):
        problem = make_problem(rng, dims=(2, 2, 2), ranks=(2, 4, 2), z=np.eye(8))
        _, b_mat = build_B(problem)
        assert np.max(np.abs(b_mat - np.eye(b_mat.shape[0]))) < 1e-9

    def test_symmetric_psd(self, rng):
        problem = make_problem(rng)
        _, b_mat = build_B(problem)
        assert np.max(np.abs(b_mat - b_mat.T)) < 1e-12
        vals = np.linalg.eigvalsh(b_mat)
        assert vals[0] > -1e-8 * max(1.0, np.abs(vals).max())


class TestSmallestEigvecs:
    def test_diagonal(self):
        _, v = smallest_eigvecs(np.diag([3.0, 1.0, 2.0]), 1)
        assert np.allclose(v[:, 0], [0.0, 1.0, 0.0])

    def test_degenerate_spectrum_subspace_only(self):
        vals, v = smallest_eigvecs(np.eye(4), 2)
        assert np.max(np.abs(np.eye(4) @ v - v)) < 1e-12
        assert np.max(np.abs(v.T @ v - np.eye(2))) < 1e-12

    def test_trace_matches_full_decomposition(self, rng):
        z = random_psd(rng, 6)
        full = np.sort(np.linalg.eigvalsh(z))
        _, v = smallest_eigvecs(z, 2)
        assert abs(np.trace(v.T @ z @ v) - full[:2].sum()) < 1e-10

    def test_r_out_of_range(self, rng):
        with pytest.raises(ValueError):
            smallest_eigvecs(np.eye(3), 4)

    def test_deterministic_sign(self, rng):
        z = random_psd(rng, 5)
        _, v1 = smallest_eigvecs(z, 3)
        _, v2 = smallest_eigvecs(z, 3)
        assert np.array_equal(v1, v2)


def split_data(rng):
    """A (2, 2, 2, 24) split of two clusters, one entry exactly 0.0."""
    data = np.concatenate([c + 0.05 * rng.standard_normal((2, 2, 2, 12)) for c in (0.0, 5.0)],
                          axis=-1)
    data[0, 0, 0, 0] = 0.0
    return data


def dummy_holder():
    """A holder whose split is never fitted, for its ``knn_graph`` and ``smallest_eigvecs``."""
    return solver.SplitCache(np.zeros((2, 3)), AffinityConfig(1))


def refused_input(data, change):
    """(data, graph config) that differ from (``data``, ``AffinityConfig(3)``)
    as ``change`` names, so a holder bound to those refuses them."""
    graph = AffinityConfig(3)
    if change == "k":
        return data, AffinityConfig(4)
    if change == "epsilon":
        return data, AffinityConfig(3, epsilon=1.0)
    if change == "same-buffer":  # the array the holder was built from, not its view
        return data, graph
    if change == "shape":  # the same buffer read as (2, 4, 24)
        return data.reshape(2, 4, 24), graph
    if change == "dtype":
        return data.astype(np.float32), graph
    other = data.copy()  # "copy": equal bits in another buffer
    if change == "one-bit":
        other.view(np.uint64)[1, 0, 1, 5] ^= 1
    elif change == "negative-zero":
        other[0, 0, 0, 0] = -0.0
        assert np.array_equal(other, data)  # equal as floats, not as bits
    return other, graph


def refused_then_refit(rng, monkeypatch, change):
    """Fit a split through its holder, then hand that holder the input
    ``change`` makes: it refuses before any work, and a holder of its own
    fits that input with all its work. Returns (the new holder, its fit,
    the same fit without a holder)."""
    data, graph = split_data(rng), AffinityConfig(3)
    cache = solver.SplitCache(data, graph)
    fit(cache.data, graph, 0.3, max_sweeps=1, split_cache=cache)
    other, other_graph = refused_input(data, change)
    want = fit(other, other_graph, 0.3, max_sweeps=1)
    with monkeypatch.context() as patch, pytest.raises(ValueError, match="bound to another"):
        patch.setattr(solver, "tt_svd", None)  # fit's first stage: a call would raise TypeError
        fit(other, other_graph, 0.3, max_sweeps=1, split_cache=cache)
    own = solver.SplitCache(other, other_graph)
    got = fit(own.data, other_graph, 0.3, max_sweeps=1, split_cache=own)
    assert got[1].work == want[1].work == {"tt_svd_splits": other.ndim - 1, "knn_searches": 1,
                                           "eigh": 1}
    return own, got, want


def same_fit(got, want):
    (chain, report), (chain_want, report_want) = got, want
    return (chain.tau == chain_want.tau
            and all(same_bits(a, b) for a, b in zip(chain.cores, chain_want.cores))
            and report.objective_trace == report_want.objective_trace
            and report.kyfan_bound == report_want.kyfan_bound)


class TestGramSpectrum:
    """``SplitCache.smallest_eigvecs`` decomposes Z once, on first use."""

    def gram_with_zero(self, rng):
        z = random_psd(rng, 6)
        z[0, 5] = z[5, 0] = 0.0
        return z

    def test_equal_bits_reuse_the_held_pair(self, rng):
        z = self.gram_with_zero(rng)
        want, pair = smallest_eigvecs(z, 3), np.linalg.eigh(z)
        cache = dummy_holder()
        first = cache.smallest_eigvecs(z, 2)
        held = cache.eigh
        again = cache.smallest_eigvecs(z.copy(), 3)
        assert cache.eigh is held
        assert same_bits(first[0], want[0][:2]) and same_bits(first[1], want[1][:, :2])
        assert same_bits(again[0], want[0]) and same_bits(again[1], want[1])
        # each caller sign-fixes its own copy; the held pair stays read-only and as eigh gave it
        assert all(same_bits(held, fresh) and not held.flags.writeable
                   for held, fresh in zip(cache.eigh, pair))
        assert not any(np.shares_memory(v, cache.eigh[1]) for v in (first[1], again[1]))

    def test_spy_keeps_no_input_alive(self, rng, monkeypatch):
        calls = spy_square_eigh(monkeypatch, 6)
        z = random_psd(rng, 6)
        ref = weakref.ref(z)
        np.linalg.eigh(z)
        np.linalg.eigvalsh(z)
        del z
        assert calls == ["eigh", "eigvalsh"] and ref() is None

    @pytest.mark.parametrize("change", ["one-bit", "negative-zero", "shape"])
    def test_other_bits_recompute(self, rng, monkeypatch, change):
        own, got, want = refused_then_refit(rng, monkeypatch, change)
        assert own.eigh is not None and same_fit(got, want)

    def test_failed_eigensolve_holds_nothing(self, rng, monkeypatch):
        z = self.gram_with_zero(rng)
        want = smallest_eigvecs(z, 2)
        cache = dummy_holder()
        spy_calls(monkeypatch, np.linalg, "eigh", first=no_convergence)
        with pytest.raises(np.linalg.LinAlgError):
            cache.smallest_eigvecs(z, 2)
        assert cache.eigh is None
        got = cache.smallest_eigvecs(z, 2)
        assert cache.eigh is not None
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


def same_graph(got, want):
    return np.array_equal(got[0], want[0]) and same_bits(got[1], want[1])


class TestSplitCacheGraph:
    """``SplitCache.knn_graph`` searches once, on first use, and the holder
    serves only the D and graph config it was built from."""

    def d_mat(self, rng):
        d_mat = rng.standard_normal((8, 12))
        d_mat[0, 3] = 0.0
        return d_mat

    def test_equal_bits_reuse_the_held_graph(self, rng):
        d_mat = self.d_mat(rng)
        want = knn_graph(d_mat, 3)
        cache = dummy_holder()
        first = cache.knn_graph(d_mat, 3)
        again = cache.knn_graph(d_mat, 3)
        assert again is first is cache.graph and same_graph(first, want)
        assert not any(held.flags.writeable for held in first)

    @pytest.mark.parametrize("change", ["one-bit", "negative-zero", "copy", "same-buffer", "shape",
                                        "dtype", "k", "epsilon"])
    def test_other_input_searches_again(self, rng, monkeypatch, change):
        own, got, want = refused_then_refit(rng, monkeypatch, change)
        assert same_fit(got, want)
        assert same_graph(own.graph, knn_graph(left_unfold(own.data), own.graph_cfg.k_neighbors))

    @pytest.mark.parametrize("failure", ["k", "tiny"])
    def test_failed_search_holds_nothing(self, rng, failure):
        d_mat = self.d_mat(rng)
        cache = dummy_holder()
        if failure == "k":  # check_graph_k: each sample needs K others
            with pytest.raises(ConfigError, match="K must be < number of samples"):
                cache.knn_graph(d_mat, 12)
        else:
            with pytest.raises(DataError, match="too small"):
                cache.knn_graph(d_mat * 1e-300, 3)
        assert cache.graph is None
        got = cache.knn_graph(d_mat, 3)
        assert got is cache.graph and same_graph(got, knn_graph(d_mat, 3))

    def test_data_is_a_read_only_view(self, rng):
        data = split_data(rng)
        cache = solver.SplitCache(data, AffinityConfig(3))
        assert cache.data is not data and np.shares_memory(cache.data, data)
        assert same_bits(cache.data, data) and data.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cache.data[0, 0, 0, 0] = 1.0
        narrow = solver.SplitCache(data.astype(np.float32), AffinityConfig(3)).data
        assert narrow.dtype == np.float64 and not narrow.flags.writeable

    def test_graph_config_is_held_as_a_copy(self, rng):
        graph = AffinityConfig(3)
        cache = solver.SplitCache(split_data(rng), graph)
        graph.k_neighbors = 4  # the held lists are K = 3's
        with pytest.raises(ValueError, match="bound to another"):
            fit(cache.data, graph, 0.3, max_sweeps=1, split_cache=cache)
        assert cache.graph_cfg == AffinityConfig(3)


class TestBuildPQC:
    def test_k1_prefix_is_identity(self, rng):
        problem = make_problem(rng, variant="atn")
        _, v = smallest_eigvecs(problem.z, problem.chain.embedding_dim)
        p, _, _ = build_PQC(problem, 1, v)
        assert np.array_equal(p, np.eye(problem.mode_dims[0]))

    def test_kn_suffix_is_identity(self, rng):
        problem = make_problem(rng, variant="atn")
        _, v = smallest_eigvecs(problem.z, problem.chain.embedding_dim)
        _, q, _ = build_PQC(problem, 3, v)
        assert np.array_equal(q, np.eye(problem.chain.embedding_dim))

    def test_surrogate_identity(self, rng):
        problem = make_problem(rng, dims=(2, 3, 2), ranks=(2, 2, 3), variant="atn")
        _, v = smallest_eigvecs(problem.z, problem.chain.embedding_dim)
        e = contract_chain(problem.chain)
        full = np.sum((e - v) ** 2)
        for k in (1, 2, 3):
            p, q, c = build_PQC(problem, k, v)
            x = left_unfold(problem.chain.cores[k - 1])
            assert abs(np.sum((p @ x @ q - c) ** 2) - full) < 1e-9


class TestGradients:
    def test_tn_core_gradient_fd(self, rng):
        problem = make_problem(rng, dims=(2, 2, 2), ranks=(2, 2, 2))
        _, a_mat = build_A(problem, 1)

        def f(x):
            vec = x.reshape(-1, order="F")
            return float(vec @ a_mat @ vec)

        def g(x):
            return (2.0 * a_mat @ x.reshape(-1, order="F")).reshape(x.shape, order="F")

        x = left_unfold(problem.chain.cores[0])
        assert check_gradient(f, g, x, n_dirs=20, rng=rng, tangent=True) < 1e-5

    def test_last_core_gradient_fd(self, rng):
        problem = make_problem(rng)
        _, b_mat = build_B(problem)

        def f(x):
            return float(np.trace(x.T @ b_mat @ x))

        def g(x):
            return 2.0 * b_mat @ x

        x = left_unfold(problem.chain.cores[-1])
        assert check_gradient(f, g, x, n_dirs=20, rng=rng, tangent=True) < 1e-5

    def test_atn_gradient_fd(self, rng):
        problem = make_problem(rng, variant="atn")
        _, v = smallest_eigvecs(problem.z, problem.chain.embedding_dim)
        p, q, c = build_PQC(problem, 2, v)

        def f(x):
            return float(np.sum((p @ x @ q - c) ** 2))

        def g(x):
            return 2.0 * p.T @ (p @ x @ q - c) @ q.T

        x = left_unfold(problem.chain.cores[1])
        assert check_gradient(f, g, x, n_dirs=20, rng=rng, tangent=True) < 1e-5


def sweep_chains(problem, opt_cfg=None):
    """Run ``sweep_tn`` and return its per-core results with the chains before
    and after each core's solve, rebuilt from the old and the new cores."""
    chain = problem.chain
    results = sweep_tn(problem, opt_cfg)
    steps = []
    for k, result in enumerate(results):
        after = chain.replace_core(k, problem.chain.cores[k])
        steps.append((chain, after, result))
        chain = after
    return steps


def objective_of(problem, chain):
    return objective(TTNPEProblem(z=problem.z, mode_dims=problem.mode_dims, chain=chain,
                                  variant=problem.variant))


class TestCoreUpdates:
    def test_tn_update_descends(self, rng):
        problem = make_problem(rng, dims=(2, 2, 2), ranks=(2, 2, 2))
        for before, after, result in sweep_chains(problem):
            f_before, f_after = objective_of(problem, before), objective_of(problem, after)
            assert f_after <= f_before + 1e-12
            assert abs(result.f_trace[0] - f_before) < 1e-9
            assert abs(result.f_trace[-1] - f_after) < 1e-9
            assert after.orthonormality_defect() < 1e-8

    def test_single_mode_update_solves_eigenproblem(self, rng):
        # one-core chain: the exact update recovers the smallest-eigenvalue subspace
        z = random_psd(rng, 6)
        chain = random_orthonormal_chain(rng, (6,), (2,))
        problem = TTNPEProblem(z=z, mode_dims=(6,), chain=chain, variant="tn")
        cfg = OptimizerConfig(max_inner_iters=5000, grad_tol=1e-10)
        [result] = sweep_tn(problem, cfg)
        assert result.termination == "exact"
        expected = np.sum(np.sort(np.linalg.eigvalsh(z))[:2])
        assert abs(objective(problem) - expected) < 1e-8

    def test_zero_gram_any_core_optimal(self, rng):
        problem = make_problem(rng, z=np.zeros((8, 8)))
        for _, after, _ in sweep_chains(problem):
            assert objective_of(problem, after) == 0.0

    def test_optimal_cores_are_kept(self, rng):
        problem = make_problem(rng, z=np.zeros((8, 8)))
        old_cores = problem.chain.cores
        results = sweep_tn(problem)
        for new, old, result in zip(problem.chain.cores, old_cores, results):
            assert result.n_accepted == 0
            assert np.array_equal(new, old)

    def test_last_core_attains_ky_fan_sum(self, rng):
        for dims, ranks in (((2, 3, 2), (2, 3, 2)), ((3, 4, 3), (3, 4, 2)), ((2, 2), (2, 3))):
            problem = make_problem(rng, dims=dims, ranks=ranks)
            result = sweep_tn(problem)[-1]
            assert result.termination == "exact"
            # B depends on cores 1..n-1 only, which the sweep solved before the last;
            # the oracle's I_{R_n} (x) B has B as its leading block
            m = result.x.shape[0]
            b_mat = brute_core_form(problem.chain, problem.z, len(dims))[:m, :m]
            x = left_unfold(problem.chain.cores[-1])
            expected = np.sum(np.linalg.eigvalsh(b_mat)[:ranks[-1]])
            tol = 1e-10 * max(1.0, float(np.linalg.norm(b_mat)))
            assert abs(np.trace(x.T @ b_mat @ x) - expected) < tol
            assert np.max(np.abs(x.T @ x - np.eye(ranks[-1]))) < 1e-12

    def test_atn_identity_wings_recover_target(self, rng):
        # one core: P = I, Q = I, orthonormal C, so the unique feasible minimizer is X = C
        dims = (6,)
        z = random_psd(rng, 6)
        chain = random_orthonormal_chain(rng, dims, (2,))
        problem = TTNPEProblem(z=z, mode_dims=dims, chain=chain, variant="atn")
        _, v = smallest_eigvecs(z, 2)
        [surrogate] = sweep_atn(problem, v)
        assert surrogate < 1e-8
        assert np.max(np.abs(left_unfold(problem.chain.cores[0]) - v)) < 1e-12

    def test_atn_stationary_start_no_move(self, rng):
        problem = make_problem(rng, variant="atn")
        # target already realized by the current chain: every old core is optimal
        v = contract_chain(problem.chain)
        old_cores = problem.chain.cores
        sweep_atn(problem, v)
        for new, old in zip(problem.chain.cores, old_cores):
            assert np.max(np.abs(new - old)) < 1e-12

    def test_atn_surrogate_descends(self, rng):
        problem = make_problem(rng, variant="atn")
        _, v = smallest_eigvecs(problem.z, problem.chain.embedding_dim)
        old_cores = problem.chain.cores
        oracle = TTNPEProblem(z=problem.z, mode_dims=problem.mode_dims,
                              chain=problem.chain, variant="atn")
        _, factors = explicit_atn_sweep(oracle, v)
        surrogates = sweep_atn(problem, v)
        for (p, q, c), core, surrogate in zip(factors, old_cores, surrogates):
            x = left_unfold(core)
            assert surrogate <= float(np.sum((p @ x @ q - c) ** 2)) + 1e-12

    def test_atn_update_no_worse_than_stiefel_descent(self, rng):
        # Procrustes oracle: no feasible descent on criterion 5's f/g does better
        cfg = OptimizerConfig(max_inner_iters=3000, grad_tol=1e-10)
        for _ in range(20):
            problem = make_problem(rng, dims=(3, 4, 3), ranks=(3, 4, 2), variant="atn")
            _, v = smallest_eigvecs(problem.z, problem.chain.embedding_dim)
            old_cores = problem.chain.cores
            oracle = TTNPEProblem(z=problem.z, mode_dims=problem.mode_dims,
                                  chain=problem.chain, variant="atn")
            _, factors = explicit_atn_sweep(oracle, v)
            surrogates = sweep_atn(problem, v)
            for k, (p, q, c) in enumerate(factors):

                def f(x):
                    return float(np.sum((p @ x @ q - c) ** 2))

                def g(x):
                    return 2.0 * p.T @ (p @ x @ q - c) @ q.T

                descent = minimize(f, g, left_unfold(old_cores[k]), cfg)
                assert surrogates[k] <= descent.f_trace[-1] + 1e-10
                assert abs(surrogates[k] - f(left_unfold(problem.chain.cores[k]))) < 1e-12


def explicit_atn_sweep(problem, v):
    """Per-core ATN path with explicit Kronecker P, Q and C (test oracle).

    Each core becomes the polar factor of P^T C Q^T, and its residual is
    ||P X Q - C||_F^2 computed from the full matrices. Returns the residuals
    and each core's (P, Q, C), built from the chain just before that core.
    """
    surrogates, factors = [], []
    for k in range(1, len(problem.mode_dims) + 1):
        p, q, c = build_PQC(problem, k, v)
        factors.append((p, q, c))
        u, _, vt = np.linalg.svd(p.T @ c @ q.T, full_matrices=False)
        x = u @ vt
        surrogates.append(float(np.sum((p @ x @ q - c) ** 2)))
        core = x.reshape(problem.chain.cores[k - 1].shape, order="F")
        problem.chain = problem.chain.replace_core(k - 1, core)
    return surrogates, factors


class TestSweepATN:
    SHAPES = [((3, 4, 3), (3, 4, 2)), ((2, 3, 2, 3), (2, 4, 4, 3))]

    def problems(self, rng, count=5):
        for dims, ranks in self.SHAPES:
            for _ in range(count):
                z = random_psd(rng, int(np.prod(dims)))  # full rank
                problem = make_problem(rng, dims=dims, ranks=ranks, variant="atn", z=z)
                _, v = smallest_eigvecs(z, ranks[-1])
                yield problem, v

    def test_matches_explicit_kronecker_path(self, rng):
        for problem, v in self.problems(rng):
            oracle = TTNPEProblem(z=problem.z, mode_dims=problem.mode_dims,
                                  chain=problem.chain, variant="atn")
            expected, _ = explicit_atn_sweep(oracle, v)
            surrogates = sweep_atn(problem, v)
            assert np.max(np.abs(np.subtract(surrogates, expected))) < 1e-12
            for core, want in zip(problem.chain.cores, oracle.chain.cores):
                assert np.max(np.abs(core - want)) < 1e-12

    def test_right_environments_are_suffix_unfoldings(self, rng):
        chain = random_orthonormal_chain(rng, (2, 3, 2), (2, 3, 2))
        q1, q2, q3 = right_environments(chain)
        suffix = merge_product(chain.cores[1], chain.cores[2], [3], [1])  # (R_1, I_2, I_3, R_3)
        assert np.max(np.abs(q1 - suffix.reshape(2, -1, order="F"))) < 1e-12
        assert np.array_equal(q2, chain.cores[2].reshape(3, -1, order="F"))
        assert np.array_equal(q3, np.eye(2))


@pytest.mark.parametrize("variant", ["tn", "atn"])
def test_sweep_leaves_its_starting_chain_alone(rng, variant):
    z = random_psd(rng, 36)
    problem = make_problem(rng, dims=(3, 4, 3), ranks=(3, 4, 2), variant=variant, z=z)
    start, cores = problem.chain, problem.chain.cores
    saved = [c.tobytes() for c in cores]
    if variant == "tn":
        sweep_tn(problem, OptimizerConfig(max_inner_iters=7))
    else:
        sweep_atn(problem, smallest_eigvecs(z, 2)[1])
    assert problem.chain is not start and problem.chain.cores is not cores
    assert start.cores is cores and [c.tobytes() for c in cores] == saved
    assert any(not np.array_equal(new, old) for new, old in zip(problem.chain.cores, cores))


class TestSweepTN:
    # (dims, ranks): n = 1; n = 2 with Q_1 entering W_1 first (R_1 R_n < d_post)
    # and with the suffix Gram C_1 (R_1 R_n >= d_post); n = 3 with both orders
    # in one sweep; a rank-1 bond; and the bench shape.
    SHAPES = [((6,), (2,)), ((8, 3), (1, 2)), ((3, 4), (2, 3)), ((5, 2, 3), (1, 2, 2)),
              ((2, 3, 2), (2, 1, 2)), ((4, 7, 4, 7), (3, 7, 12, 10))]
    CFG = OptimizerConfig(max_inner_iters=7)

    def problems(self, rng):
        for dims, ranks in self.SHAPES:
            problem = make_problem(rng, dims=dims, ranks=ranks)  # Z of rank d - 2
            oracle = TTNPEProblem(z=problem.z, mode_dims=dims, chain=problem.chain, variant="tn")
            yield problem, oracle

    def test_shapes_cover_both_contraction_orders(self, rng):
        orders = set()
        for problem, _ in self.problems(rng):
            envs = right_environments(problem.chain)
            d_post = problem.z.shape[0]
            for k, i_k in enumerate(problem.mode_dims[:-1]):
                d_post //= i_k
                orders.add(envs[k].shape[0] * problem.chain.embedding_dim < d_post)
        assert orders == {True, False}

    def test_carried_forms_match_build_A_and_B(self, rng, monkeypatch):
        forms = []

        def record(solve):
            def wrapped(form, x0, *args):
                forms.append(form.copy())
                return solve(form, x0, *args)
            return wrapped

        monkeypatch.setattr(solver, "minimize_quadratic", record(solver.minimize_quadratic))
        monkeypatch.setattr(solver, "_exact_last_core", record(solver._exact_last_core))
        for problem, oracle in self.problems(rng):
            forms.clear()
            sweep_tn(problem, self.CFG)
            n, r_n = len(problem.mode_dims), problem.chain.embedding_dim
            brute = (problem.z.shape[0] * r_n) ** 2 * 8 <= 4e6  # the Kronecker oracle's I (x) Z
            assert len(forms) == n
            for k in range(1, n + 1):
                got = forms[k - 1] if k < n else np.kron(np.eye(r_n), forms[k - 1])
                if brute:
                    want = brute_core_form(oracle.chain, oracle.z, k)
                else:
                    want = explicit_core_form(oracle, k)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), k
                assert np.array_equal(forms[k - 1], forms[k - 1].T)
                _, built = build_A(oracle, k) if k < n else build_B(oracle)
                assert np.max(np.abs(forms[k - 1] - built)) <= 1e-12 * np.max(np.abs(built)), k
                # advance the oracle with the carried sweep's own core
                oracle.chain = oracle.chain.replace_core(k - 1, problem.chain.cores[k - 1])
            assert problem.chain.orthonormality_defect() < 1e-10

    def test_objective_never_increases(self, rng):
        for problem, _ in self.problems(rng):
            trace = [objective(problem)]
            for _ in range(3):
                sweep_tn(problem, self.CFG)
                trace.append(objective(problem))
            assert all(b <= a + 1e-10 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:]))

    def test_gram_is_not_modified(self, rng):
        for problem, _ in self.problems(rng):
            problem.z[0, 1] += 1e-3  # asymmetric, so symmetrizing a view of Z would show
            before = problem.z.copy()
            sweep_tn(problem, self.CFG)
            assert np.array_equal(problem.z, before)

    def test_peak_memory_bounded_by_gram_and_forms(self, rng):
        # Z itself exists before the sweep; the carried W_k, its one
        # intermediate per step and the contraction temporaries must fit in
        # Z's bytes more, and each form takes at most two m x m arrays.
        dims = (4, 7, 4, 7)
        for ranks in ((3, 7, 12, 10), (4, 28, 16, 10)):
            problem = make_problem(rng, dims=dims, ranks=ranks)
            r = (1,) + problem.chain.ranks
            sizes = [r[k] * dims[k] * r[k + 1] for k in range(len(dims) - 1)] + [r[-2] * dims[-1]]
            tracemalloc.start()
            try:
                sweep_tn(problem, self.CFG)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= problem.z.nbytes + 3 * 8 * max(sizes) ** 2, ranks


def eigvalsh_shift(a):
    """The power iteration's former shift: lambda_max from a full eigvalsh of the form."""
    return float(np.linalg.eigvalsh(a)[-1])


def ci_noisy_csv_data(tmp_path, noise_snr_db=(0,)):
    """The TN config and first train split of the CI's tiny two-cluster CSV,
    at 0 dB noise unless ``noise_snr_db`` says otherwise."""
    rng = np.random.default_rng(0)
    rows = [[c] + list(6.0 * c + 0.3 * rng.standard_normal(8)) for c in (0, 1) for _ in range(8)]
    np.savetxt(tmp_path / "data.csv", rows, delimiter=",")
    config = harness.ExperimentConfig.from_dict({
        "dataset": {"format": "csv", "path": str(tmp_path / "data.csv"), "label_column": 0},
        "reshape": [2, 2, 2], "n_train_per_class": 5, "n_test_per_class": 3,
        "tau_list": [0.3], "k_graph": 3, "k_classify": 1, "max_sweeps": 5,
        "output_path": str(tmp_path / "report.json"), "variant": "tn",
        "noise_snr_db": None if noise_snr_db is None else list(noise_snr_db)})
    samples, labels = harness.load_dataset(config)
    return config, harness.trial_data(config, samples, labels)[0]


def bench_digits(per_class=200, seed=1):
    """``per_class`` synthetic digits of classes 1 and 2 at the fit-tn-4mode shape
    (4, 7, 4, 7), in shuffled order; returns (samples, labels)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import synthdigits
    finally:
        sys.path.pop(0)
    labels = synthdigits.make_labels([per_class if c in (1, 2) else 0
                                      for c in range(synthdigits.N_CLASSES)], seed)
    return synthdigits.as_samples(synthdigits.make_digits(labels, seed), (4, 7, 4, 7)), labels



class TestLanczosShift:
    """TN takes the same steps with the Lanczos shift as with eigvalsh's lambda_max."""

    @staticmethod
    def assert_same_cores(got, want):
        for core, ref in zip(got.cores, want.cores):
            assert np.max(np.abs(core - ref)) <= 1e-8

    def test_sweep_tn_shapes(self, rng, monkeypatch):
        steps = 0
        for problem, twin in TestSweepTN().problems(rng):
            got = sweep_tn(problem, TestSweepTN.CFG)
            with monkeypatch.context() as patch:
                patch.setattr(stiefel, "largest_eigenvalue", eigvalsh_shift)
                want = sweep_tn(twin, TestSweepTN.CFG)
            assert [(r.n_accepted, r.termination) for r in got] == \
                [(r.n_accepted, r.termination) for r in want]
            steps += sum(r.n_accepted for r in got[:-1])
            self.assert_same_cores(problem.chain, twin.chain)
        assert steps > 0

    @pytest.mark.parametrize("case", ["fit-tn-4mode", "ci-csv-0dB"])
    def test_fit(self, tmp_path, monkeypatch, case):
        if case == "fit-tn-4mode":
            cfg = OptimizerConfig(grad_tol=float(np.finfo(np.float64).tiny), max_inner_iters=40)
            data = bench_digits()[0]

            def run():
                return fit(data, AffinityConfig(5), 0.08, variant="tn", max_sweeps=3,
                           core_change_tol=0.0, rank_cap=(3, 7, 12, 10), opt_cfg=cfg)
        else:
            config, train = ci_noisy_csv_data(tmp_path)

            def run():
                cache = solver.SplitCache(train, AffinityConfig(config.k_graph))
                return harness.fit_config(config, cache, config.tau_list[0])

        chain, report = run()
        with monkeypatch.context() as patch:
            patch.setattr(stiefel, "largest_eigenvalue", eigvalsh_shift)
            want_chain, want = run()
        assert report.core_solves == want.core_solves
        assert any(s["steps"] > 0 for solves in report.core_solves for s in solves[:-1])
        self.assert_same_cores(chain, want_chain)
        np.testing.assert_allclose(report.objective_trace, want.objective_trace, rtol=1e-10, atol=0)


class TestScaleEquivariance:
    """ATN fits of the data times 2^k: multiplying by a power of two is exact,
    and every step of the ATN fit is equivariant under it."""

    @pytest.fixture(scope="class")
    def digits(self):
        data, labels = bench_digits(per_class=60, seed=7)
        train_idx, test_idx = harness.split_per_class(labels, 30, 30, np.random.default_rng(7))
        return data[..., train_idx], labels[train_idx], data[..., test_idx], labels[test_idx]

    def fit_and_score(self, digits, scale):
        train, train_labels, test, test_labels = digits
        chain, report = fit(train * scale, AffinityConfig(5), 0.2, variant="atn")
        result = evaluate(chain, train * scale, train_labels, test * scale, test_labels, 5)
        return chain, report, result.n_wrong

    @pytest.mark.parametrize("k", [-20, -8, 8])
    def test_atn_fit_of_scaled_data(self, digits, k):
        chain, report, n_wrong = self.fit_and_score(digits, 1.0)
        got_chain, got_report, got_wrong = self.fit_and_score(digits, 2.0 ** k)
        assert got_chain.ranks == chain.ranks
        assert got_wrong == n_wrong
        assert got_report.sweeps_run == report.sweeps_run > 1
        for got, want in zip(got_chain.cores, chain.cores):
            assert np.array_equal(got, want)
        assert got_report.objective_trace == [4.0 ** k * obj for obj in report.objective_trace]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
def test_tn_training_coordinates_do_not_collapse():
    # spread: sigma_max of the centered embedded training set over sigma_max of
    # the centered data. TN's minimizer lies in null(Z) and maps every sample to 0.
    data, _ = bench_digits(per_class=60, seed=7)
    chain, _ = fit(data, AffinityConfig(5), 0.5, variant="tn", max_sweeps=5)
    coords = project_many(chain, data)
    d_mat = left_unfold(data)
    spread = (np.linalg.norm(coords - coords.mean(axis=0), 2)
              / np.linalg.norm(d_mat - d_mat.mean(axis=1, keepdims=True), 2))
    assert spread > 1e-3


class TestSampleOrder:
    """Fits of the same training set in two column orders (ROADMAP item 2) give
    the same ranks and the same subspace, measured by the projector distance
    ||E E^T - E' E'^T||_F. ``n_wrong`` is left out: every TN coordinate is 0
    today (item 1), so KNN ties go to the lowest training indices, and those
    are other samples in another order."""

    TAUS = [0.5, 0.25, 0.12]

    @pytest.fixture(scope="class")
    def digits(self):
        data, _ = bench_digits(per_class=60, seed=7)
        return data, data[..., np.random.default_rng(1).permutation(data.shape[-1])]

    @staticmethod
    def assert_order_free(digits, variant, tau):
        chains = [fit(d, AffinityConfig(5), tau, variant=variant, max_sweeps=50)[0] for d in digits]
        assert chains[0].ranks == chains[1].ranks
        e, e_perm = (contract_chain(c) for c in chains)
        assert np.linalg.norm(e @ e.T - e_perm @ e_perm.T) <= 1e-8

    @pytest.mark.parametrize("tau", TAUS)
    def test_tn(self, digits, tau):
        self.assert_order_free(digits, "tn", tau)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP items 1 and 2")
    @pytest.mark.parametrize("tau", TAUS)
    def test_atn(self, digits, tau):
        self.assert_order_free(digits, "atn", tau)


class TestFit:
    def separable_data(self, rng, dims=(2, 2, 2), per_class=6, spread=0.05):
        c0 = rng.standard_normal(dims)
        c1 = rng.standard_normal(dims) + 5.0
        samples = [c0 + spread * rng.standard_normal(dims) for _ in range(per_class)]
        samples += [c1 + spread * rng.standard_normal(dims) for _ in range(per_class)]
        labels = np.array([0] * per_class + [1] * per_class)
        return np.stack(samples, axis=-1), labels

    def test_identical_samples_zero_objective(self, rng):
        sample = rng.standard_normal((2, 2))
        data = np.stack([sample, sample], axis=-1)
        chain, report = fit(data, AffinityConfig(1, epsilon=1.0), tau=0.5, variant="tn")
        assert report.objective_trace[0] < 1e-20
        assert report.sweeps_run == 1
        assert report.termination_reason == "core_change"

    def test_atn_separable_clusters(self, rng):
        data, labels = self.separable_data(rng)
        chain, report = fit(data, AffinityConfig(3), tau=0.3, variant="atn")
        assert report.objective_trace[-1] <= report.objective_trace[0] + 1e-10
        res = evaluate(chain, data, labels, data, labels, 1)
        assert res.error_rate == 0.0

    def test_tn_monotone_objective(self, rng):
        data, _ = self.separable_data(rng)
        _, report = fit(data, AffinityConfig(3), tau=0.3, variant="tn")
        trace = report.objective_trace
        assert all(b <= a + 1e-10 for a, b in zip(trace, trace[1:]))

    def test_tn_core_solves_recorded(self, rng):
        data, _ = self.separable_data(rng)
        _, report = fit(data, AffinityConfig(3), tau=0.3, variant="tn", max_sweeps=3)
        assert len(report.core_solves) == report.sweeps_run
        for solves in report.core_solves:
            assert [set(s) for s in solves] == [{"steps", "stop"}] * 3
            assert solves[-1]["stop"] == "exact" and solves[-1]["steps"] in (0, 1)
            assert all(s["stop"] in ("gradient", "max_iters", "no_decrease") for s in solves[:-1])
        _, report = fit(data, AffinityConfig(3), tau=0.3, variant="atn", max_sweeps=3)
        assert report.core_solves == []

    def test_tn_fit_never_rebuilds_forms(self, rng, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("fit rebuilt a core form from scratch")

        data, _ = self.separable_data(rng)
        _, want = fit(data, AffinityConfig(3), tau=0.3, variant="tn", max_sweeps=3)
        for name in ("build_A", "build_B"):
            monkeypatch.setattr(solver, name, fail)
        _, report = fit(data, AffinityConfig(3), tau=0.3, variant="tn", max_sweeps=3)
        assert report.sweeps_run == want.sweeps_run
        assert report.objective_trace == want.objective_trace

    @pytest.mark.parametrize("variant, per_class, tau, regime", [
        pytest.param("tn", 3, 0.3, "null", id="3"),
        pytest.param("tn", 6, 0.3, "tall", id="6"),
        pytest.param("tn", 3, 1e-3, "wide", id="tn-wide"),
        pytest.param("atn", 3, 0.3, "null", id="atn-null"),
        pytest.param("atn", 6, 0.3, "tall", id="atn-tall"),
        pytest.param("atn", 3, 1e-3, "wide", id="atn-wide"),
    ])
    def test_tn_kyfan_bound_is_the_gram_spectrum(self, rng, variant, per_class, tau, regime):
        # d = 8. "null": R_n <= d - N, so the bound is exactly 0 with no
        # eigensolve; "wide": N = 6 < d < N + R_n; "tall": N = 12 >= d. Both
        # variants sum the eigenvalues of one eigh of Z.
        data, _ = self.separable_data(rng, per_class=per_class)
        graph = AffinityConfig(2)
        chain, report = fit(data, graph, tau=tau, variant=variant, max_sweeps=1)
        d, n, r_n = 8, data.shape[-1], chain.embedding_dim
        assert regime == ("tall" if n >= d else "null" if r_n <= d - n else "wide")
        if regime == "null":
            assert report.kyfan_bound == 0.0
        d_mat = data.reshape(d, -1, order="F")
        z = build_gram(build_residual(d_mat, build_weight_matrix(d_mat, graph)))
        expected = np.sort(np.linalg.eigvalsh(z))[:r_n].sum()
        assert abs(report.kyfan_bound - expected) < 1e-10 * max(1.0, float(np.linalg.norm(z)))

    @pytest.mark.parametrize("variant, per_class, eigh", [
        ("atn", 12, 1), ("tn", 12, 1), ("atn", 2, 1), ("tn", 2, 0)])
    def test_each_fit_pays_its_own_work(self, rng, variant, per_class, eigh):
        # d = 8. N = 24 gives R_n > d - N; at N = 4, R_n <= d - N, so TN's
        # bound is exactly 0.0 with no eigensolve, while ATN still needs its target
        data, _ = self.separable_data(rng, per_class=per_class)
        for _ in range(2):  # nothing is held between fits without a holder
            chain, report = ttnpe.fit(data, AffinityConfig(3), 0.3, variant=variant, max_sweeps=3)
            assert report.work == {"tt_svd_splits": 3, "knn_searches": 1, "eigh": eigh}
        null = chain.embedding_dim <= 8 - data.shape[-1]
        assert null == (per_class == 2) and (report.kyfan_bound == 0.0) == null

    def shared_and_unshared(self, rng, variant, taus):
        """Fits of one split at each tau through one holder, that holder, and the
        same fits without one."""
        data, _ = self.separable_data(rng, per_class=12)  # N = 24 > d = 8, so R_n > d - N
        want = [fit(data, AffinityConfig(3), tau, variant=variant, max_sweeps=3) for tau in taus]
        cache = solver.SplitCache(data, AffinityConfig(3))
        got = [fit(cache.data, AffinityConfig(3), tau, variant=variant, max_sweeps=3,
                   split_cache=cache) for tau in taus]
        assert all(same_fit(*pair) for pair in zip(got, want))
        return got, cache, want

    @pytest.mark.parametrize("variant", ["atn", "tn"])
    def test_shared_cache_decomposes_the_gram_once(self, rng, variant):
        got, cache, _ = self.shared_and_unshared(rng, variant, (0.5, 0.3, 0.2))
        # the first tau pays the eigensolve; one per tau would make 3
        assert [report.work["eigh"] for _, report in got] == [1, 0, 0]
        assert cache.eigh is not None

    @pytest.mark.parametrize("variant", ["atn", "tn"])
    def test_shared_cache_reuses_the_held_graph(self, rng, variant):
        got, cache, _ = self.shared_and_unshared(rng, variant, (0.3, 0.1))
        assert [report.work["knn_searches"] for _, report in got] == [1, 0]
        assert cache.graph is not None

    @pytest.mark.parametrize("variant", ["atn", "tn"])
    def test_shared_cache_factors_each_rank_prefix_once(self, rng, variant):
        taus = (0.5, 0.3, 0.1)
        got, cache, want = self.shared_and_unshared(rng, variant, taus)
        # each tau pays only the rank prefixes that no earlier tau factored
        prefixes = {chain.ranks[:k] for chain, _ in want for k in range(3)}
        splits = sum(report.work["tt_svd_splits"] for _, report in got)
        assert splits == len(prefixes) == len(cache.steps) < 3 * len(taus)

    @pytest.mark.parametrize("variant", ["atn", "tn"])
    @pytest.mark.parametrize("counter", ["tt_svd_splits", "knn_searches", "eigh"])
    def test_work_matches_the_calls_it_counts(self, rng, monkeypatch, counter, variant):
        # ground truth for each counter: np.linalg.qr, the graph's KNN search,
        # and every 8 x 8 eigensolve, which at these ranks can only be Z's
        data, _ = self.separable_data(rng, per_class=12)  # N = 24 > d = 8, so R_n > d - N
        calls = {"tt_svd_splits": spy_qr,
                 "knn_searches": lambda mp: spy_calls(mp, neighborhood_graph, "knn_search"),
                 "eigh": lambda mp: spy_square_eigh(mp, 8)}[counter](monkeypatch)
        cache = solver.SplitCache(data, AffinityConfig(3))
        work = [fit(cache.data, AffinityConfig(3), tau, variant=variant, max_sweeps=3,
                    split_cache=cache)[1].work[counter] for tau in (0.5, 0.3, 0.2)]
        assert sum(work) == len(calls) > 0

    @pytest.mark.parametrize("noise_snr_db", [None, [0]], ids=["clean", "0dB"])
    def test_ci_csv_bounds_are_equal_bits(self, tmp_path, noise_snr_db):
        config, train = ci_noisy_csv_data(tmp_path, noise_snr_db)  # N = 10 > d = 8
        cache = solver.SplitCache(train, AffinityConfig(config.k_graph))
        tn, atn = (harness.fit_config(replace(config, variant=variant), cache, config.tau_list[0])
                   [1].kyfan_bound for variant in ("tn", "atn"))
        assert tn > 0.0 and tn.hex() == atn.hex()

    def test_failed_graph_search_is_not_held(self, rng, monkeypatch):
        data, _ = self.separable_data(rng, per_class=6)
        want = fit(data, AffinityConfig(3), 0.3, variant="atn", max_sweeps=3)
        cache = solver.SplitCache(data, AffinityConfig(3))
        spy_calls(monkeypatch, solver, "knn_graph",
                  first=lambda search, d_mat, k: search(d_mat, d_mat.shape[1]))
        with pytest.raises(ConfigError, match="K must be < number of samples"):
            fit(cache.data, AffinityConfig(3), 0.5, variant="atn", max_sweeps=3, split_cache=cache)
        assert cache.graph is None
        got = fit(cache.data, AffinityConfig(3), 0.3, variant="atn", max_sweeps=3, split_cache=cache)
        assert got[1].work["knn_searches"] == 1 and same_fit(got, want)

    @pytest.mark.parametrize("change", ["one-bit", "negative-zero"])
    def test_other_bits_factor_again(self, rng, monkeypatch, change):
        own, got, want = refused_then_refit(rng, monkeypatch, change)
        assert set(own.steps) == {got[0].ranks[:k] for k in range(3)}
        assert same_fit(got, want)

    def test_failed_tt_svd_holds_nothing(self, rng, monkeypatch):
        data, _ = self.separable_data(rng, per_class=12)
        want = fit(data, AffinityConfig(3), 0.3, max_sweeps=3)
        bad = data.copy()
        bad[0, 0, 0, 0] = np.nan
        cache = solver.SplitCache(bad, AffinityConfig(3))
        with pytest.raises(DataError, match="NaN or infinite"):
            fit(cache.data, AffinityConfig(3), 0.3, max_sweeps=3, split_cache=cache)
        assert cache.steps == {} and cache.graph is None and cache.eigh is None
        cache = solver.SplitCache(data, AffinityConfig(3))
        svd, seen = np.linalg.svd, []

        def second_fails(a, *args, **kwargs):  # split 2's SVD, as fit's TT-SVD runs first
            seen.append(a)
            if len(seen) == 2:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", second_fails)
        with pytest.raises(np.linalg.LinAlgError):
            fit(cache.data, AffinityConfig(3), 0.3, max_sweeps=3, split_cache=cache)
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert list(cache.steps) == [()]  # only the split that was factored
        got = fit(cache.data, AffinityConfig(3), 0.3, max_sweeps=3, split_cache=cache)
        assert same_fit(got, want)

    def test_shared_spectrum_reuses_the_held_gram(self, rng, monkeypatch):
        data, _ = self.separable_data(rng, per_class=12)
        want = [fit(data, AffinityConfig(3), tau, variant="atn", max_sweeps=3) for tau in (0.3, 0.1)]
        built, seen = [], []
        gram, split, value = solver.build_gram, solver.tt_svd, solver.objective

        def keep(y):
            z = gram(y)
            built.append(weakref.ref(z))
            return z

        def live():
            return [ref() for ref in built if ref() is not None]

        def record_split(*args, **kwargs):
            seen.append(("tt_svd", len(live())))
            return split(*args, **kwargs)

        def record_objective(problem):  # the Zs alive besides the fit's own
            seen.append(("objective", len([z for z in live() if z is not problem.z])))
            return value(problem)

        monkeypatch.setattr(solver, "build_gram", keep)
        monkeypatch.setattr(solver, "tt_svd", record_split)
        monkeypatch.setattr(solver, "objective", record_objective)
        cache = solver.SplitCache(data, AffinityConfig(3))
        got = [fit(cache.data, AffinityConfig(3), tau, variant="atn", max_sweeps=3,
                   split_cache=cache) for tau in (0.3, 0.1)]
        assert [r.work["eigh"] for _, r in got] == [1, 0] and len(built) == 2
        # the holder keeps Z's eigenpairs, not Z: no Z lives through a TT-SVD,
        # and a fit's sweeps see only its own
        assert [stage for stage, _ in seen].count("tt_svd") == 2 and live() == []
        assert all(others == 0 for _, others in seen)
        assert all(same_fit(*pair) for pair in zip(got, want))

    def test_kyfan_bound_holds(self, rng):
        data, _ = self.separable_data(rng)
        for variant in ("tn", "atn"):
            _, report = fit(data, AffinityConfig(3), tau=0.3, variant=variant)
            for obj in report.objective_trace[1:]:
                assert obj >= report.kyfan_bound - 1e-8

    def test_orthonormal_after_fit(self, rng):
        data, _ = self.separable_data(rng)
        chain, _ = fit(data, AffinityConfig(3), tau=0.3, variant="atn", max_sweeps=5)
        assert chain.orthonormality_defect() < 1e-8

    def test_surrogate_trace_recorded_for_atn(self, rng):
        data, _ = self.separable_data(rng)
        _, report = fit(data, AffinityConfig(3), tau=0.3, variant="atn", max_sweeps=5)
        assert len(report.surrogate_trace) == report.sweeps_run
        assert all(len(entry) == 3 for entry in report.surrogate_trace)

    def test_atn_surrogate_trace_never_increases(self, rng):
        data, _ = self.separable_data(rng)
        _, report = fit(data, AffinityConfig(3), tau=0.3, variant="atn", max_sweeps=5)
        flat = [s for entry in report.surrogate_trace for s in entry]
        assert all(b <= a + 1e-12 for a, b in zip(flat, flat[1:]))

    def test_unknown_variant_rejected_before_any_work(self, rng, monkeypatch):
        from ttnpe.errors import ConfigError, DataError

        def no_graph(*args):
            raise AssertionError("graph built for an unknown variant")

        monkeypatch.setattr(solver, "build_weight_matrix", no_graph)
        data, _ = self.separable_data(rng)
        with pytest.raises(ConfigError, match="variant"):
            fit(data, AffinityConfig(3), tau=0.3, variant="xxx")

    @pytest.mark.parametrize("kwargs", [
        {"max_sweeps": 2.5}, {"max_sweeps": -1}, {"max_sweeps": True}, {"max_sweeps": "3"},
        {"core_change_tol": float("nan")}, {"core_change_tol": -1e-6},
        {"core_change_tol": "0"}, {"core_change_tol": False},
        {"tau": True}, {"tau": "0.3"}, {"tau": 1.5},
        {"rank_cap": 2.5}, {"rank_cap": 0}, {"rank_cap": -3}, {"rank_cap": True},
        {"rank_cap": "3"}, {"rank_cap": [2, 2]},
    ], ids=lambda kwargs: "{}={!r}".format(*next(iter(kwargs.items()))))
    def test_bad_sweep_argument_rejected_before_any_work(self, rng, monkeypatch, kwargs):
        def no_graph(*args):
            raise AssertionError("graph built for a bad sweep argument")

        monkeypatch.setattr(solver, "build_weight_matrix", no_graph)
        data, _ = self.separable_data(rng)
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            fit(data, AffinityConfig(3), **{"tau": 0.3, "variant": "tn", **kwargs})

    def test_edge_sweep_arguments_accepted(self, rng):
        data, _ = self.separable_data(rng)
        _, report = fit(data, AffinityConfig(3), tau=0.3, max_sweeps=0)
        assert (report.sweeps_run, report.termination_reason) == (0, "max_sweeps")
        _, report = fit(data, AffinityConfig(3), tau=0.3, variant="tn", max_sweeps=np.int64(2),
                        core_change_tol=0.0)
        assert (report.sweeps_run, report.termination_reason) == (2, "max_sweeps")

    def test_too_few_samples(self, rng):
        from ttnpe.errors import DataError
        for tau in (0.5, 1.5):  # fit checks N >= 2 before tt_svd checks tau
            with pytest.raises(DataError, match="at least 2 samples"):
                fit(rng.standard_normal((2, 2, 1)), AffinityConfig(1), tau=tau)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, rng, bad):
        from ttnpe.errors import DataError
        data, _ = self.separable_data(rng)
        data[1, 0, 1, 3] = bad
        with pytest.raises(DataError, match="NaN or infinite"):
            fit(data, AffinityConfig(3), tau=0.3)
