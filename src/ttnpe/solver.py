"""TTNPE fitting: exact tensor-network core updates (TN) and the relaxed
approximate updates (ATN), orchestrated by an alternating sweep loop.

Both variants minimize tr(E^T Z E) over chains with left-orthonormal cores,
where E is the contracted chain matrix and Z the neighborhood Gram target.
TN builds the exact quadratic form for each core by contracting the
2n-mode reshape of Z with the fixed prefix/suffix chains; ATN instead fits
the chain to the smallest-eigenvector matrix of Z through Procrustes-like
subproblems ||P X Q - C||_F^2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ttnpe.errors import DataError, NumericError, TNMemoryError, require_finite
from ttnpe.neighborhood_graph import (
    AffinityConfig,
    build_gram,
    build_residual,
    build_weight_matrix,
)
from ttnpe.stiefel import OptimizerConfig, minimize
from ttnpe.tensor_core import kronecker, left_unfold, merge_product, partial_trace, reshape, right_unfold
from ttnpe.tt_subspace import TTChain, contract_chain, suffix_tensor, tt_svd

DEFAULT_TN_MEMORY_BUDGET = 2 * 1024 ** 3  # bytes of intermediates per build_A


@dataclass
class TTNPEProblem:
    """One fitting instance: Gram target, its 2n-mode reshape, and the iterate."""

    z: np.ndarray
    mode_dims: tuple[int, ...]
    chain: TTChain
    variant: str = "atn"
    tn_memory_budget: int = DEFAULT_TN_MEMORY_BUDGET
    zt: np.ndarray = field(init=False)

    def __post_init__(self):
        self.mode_dims = tuple(int(i) for i in self.mode_dims)
        d = int(np.prod(self.mode_dims))
        if self.z.shape != (d, d):
            raise DataError(f"Gram target shape {self.z.shape} does not match dims {self.mode_dims}")
        if self.chain.mode_dims != self.mode_dims:
            raise DataError("chain mode dims do not match the Gram target")
        if self.variant not in ("tn", "atn"):
            raise ValueError(f"unknown variant {self.variant!r}")
        self.zt = reshape(self.z, self.mode_dims + self.mode_dims)


@dataclass
class SolverReport:
    objective_trace: list[float] = field(default_factory=list)
    surrogate_trace: list[list[float]] = field(default_factory=list)
    core_change_trace: list[float] = field(default_factory=list)
    kyfan_bound: float = 0.0
    sweeps_run: int = 0
    termination_reason: str = ""
    wall_time: dict = field(default_factory=dict)
    ranks: tuple[int, ...] = ()


def objective(problem: TTNPEProblem) -> float:
    """tr(E^T Z E) for the current chain."""
    e = contract_chain(problem.chain)
    return float(np.trace(e.T @ problem.z @ e))


def _prefix_tensor(problem: TTNPEProblem, k: int) -> np.ndarray:
    """Cores 1..k-1 contracted as an (I_1, ..., I_{k-1}, R_{k-1}) tensor.

    For k = 1 the prefix is empty and a shape-(1,) tensor is returned, whose
    outer-product merges reproduce the singleton R_0 mode.
    """
    mat = contract_chain(problem.chain, upto=k - 1)
    dims = problem.mode_dims[:k - 1]
    return reshape(mat, dims + (mat.shape[1],))


def _estimate_build_a_memory(problem: TTNPEProblem, k: int) -> int:
    dims = problem.mode_dims
    n = len(dims)
    ranks = (1,) + problem.chain.ranks
    r_prev, r_k, r_n = ranks[k - 1], ranks[k], ranks[n]
    d = int(np.prod(dims))
    d_pre = int(np.prod(dims[:k]))
    sizes = [
        d * d_pre * r_k * r_n,                        # A_b
        d * r_k * r_n * r_prev,                       # A_c (I_k already in d)
        d_pre * dims[k - 1] * (r_k * r_n) ** 2 * r_prev,  # A_d
        (r_prev * dims[k - 1] * r_k * r_n) ** 2,      # A_e and the spec's estimate
    ]
    return 8 * max(sizes)


def build_A(problem: TTNPEProblem, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact quadratic form for core k < n: the 6-mode tensor and its matricization.

    Follows the fixed contraction path: Z merged with the suffix twice and
    the prefix twice, then the two dangling R_n modes traced against each
    other. The matrix A satisfies vec(U_k)^T A vec(U_k) = tr(E^T Z E).
    """
    n = len(problem.mode_dims)
    if not 1 <= k <= n - 1:
        raise ValueError(f"build_A requires 1 <= k <= n-1, got k={k}, n={n}")
    need = _estimate_build_a_memory(problem, k)
    if need > problem.tn_memory_budget:
        raise TNMemoryError(
            f"TN memory budget exceeded for core {k}: needs ~{need} bytes "
            f"of intermediates (budget {problem.tn_memory_budget}); consider the ATN variant"
        )
    t1 = _prefix_tensor(problem, k)
    tn = suffix_tensor(problem.chain, k)
    # Mode bookkeeping below uses the merge convention "a's surviving modes
    # in order, then b's surviving modes in order".
    a_b = merge_product(problem.zt, tn,
                        list(range(n + k + 1, 2 * n + 1)), list(range(2, n - k + 2)))
    # a_b: (I_1..I_n, I_1..I_k, R_k', R_n')
    a_c = merge_product(a_b, t1,
                        list(range(n + 1, n + k)), list(range(1, k)))
    # a_c: (I_1..I_n, I_k', R_k', R_n', R_{k-1}')
    a_d = merge_product(a_c, tn,
                        list(range(k + 1, n + 1)), list(range(2, n - k + 2)))
    # a_d: (I_1..I_k, I_k', R_k', R_n', R_{k-1}', R_k, R_n)
    a_e = merge_product(a_d, t1,
                        list(range(1, k)), list(range(1, k)))
    # a_e: (I_k, I_k', R_k', R_n', R_{k-1}', R_k, R_n, R_{k-1})
    traced = partial_trace(a_e, 4, 7)
    # traced: (I_k, I_k', R_k', R_{k-1}', R_k, R_{k-1})
    a_tensor = np.transpose(traced, (5, 0, 4, 3, 1, 2))
    # a_tensor: (R_{k-1}, I_k, R_k, R_{k-1}', I_k', R_k')
    m = a_tensor.shape[0] * a_tensor.shape[1] * a_tensor.shape[2]
    a_mat = reshape(a_tensor, (m, m))
    a_mat = (a_mat + a_mat.T) / 2.0
    return a_tensor, a_mat


def build_B(problem: TTNPEProblem) -> tuple[np.ndarray, np.ndarray]:
    """Exact quadratic form for the last core: 4-mode tensor and matricization.

    B satisfies tr(L(U_n)^T B L(U_n)) = tr(E^T Z E).
    """
    n = len(problem.mode_dims)
    t1 = _prefix_tensor(problem, n)
    b_b = merge_product(problem.zt, t1,
                        list(range(n + 1, 2 * n)), list(range(1, n)))
    # b_b: (I_1..I_n, I_n', R_{n-1}')
    b_t = merge_product(b_b, t1,
                        list(range(1, n)), list(range(1, n)))
    # b_t: (I_n, I_n', R_{n-1}', R_{n-1})
    b_tensor = np.transpose(b_t, (3, 0, 2, 1))
    # b_tensor: (R_{n-1}, I_n, R_{n-1}', I_n')
    m = b_tensor.shape[0] * b_tensor.shape[1]
    b_mat = reshape(b_tensor, (m, m))
    b_mat = (b_mat + b_mat.T) / 2.0
    return b_tensor, b_mat


def smallest_eigvecs(z: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenvectors of the r smallest eigenvalues, ascending.

    Sign-fixed (largest-magnitude entry positive) for determinism. Returns
    (eigenvalues, eigenvectors).
    """
    d = z.shape[0]
    if not 1 <= r <= d:
        raise ValueError(f"r must lie in [1, {d}], got {r}")
    vals, vecs = np.linalg.eigh(z)
    vecs = vecs[:, :r].copy()
    for c in range(r):
        j = int(np.argmax(np.abs(vecs[:, c])))
        if vecs[j, c] < 0:
            vecs[:, c] = -vecs[:, c]
    return vals[:r], vecs


def build_PQC(problem: TTNPEProblem, k: int, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factors of the relaxed subproblem ||P L(U_k) Q - C||_F^2 for core k.

    P = I_{I_k} (x) L(prefix), Q = R(suffix), and C is the pure reshape of
    the eigenvector target to (I_1...I_k) x (I_{k+1}...I_n R_n).
    """
    n = len(problem.mode_dims)
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    prefix = contract_chain(problem.chain, upto=k - 1)
    p = kronecker(np.eye(problem.mode_dims[k - 1]), prefix)
    suf = suffix_tensor(problem.chain, k)
    q = right_unfold(suf)
    rows = int(np.prod(problem.mode_dims[:k]))
    c = reshape(v, (rows, v.size // rows))
    return p, q, c


def _core_from_left_unfold(x: np.ndarray, r_prev: int, i_k: int) -> np.ndarray:
    return x.reshape(r_prev, i_k, x.shape[1], order="F")


def update_core_tn(problem: TTNPEProblem, k: int, opt_cfg: OptimizerConfig | None = None):
    """One exact alternating-minimization step on core k (1-based).

    Optimizes the quadratic form over the left unfolding of the core with
    orthonormal columns; the shared objective cannot increase.
    """
    n = len(problem.mode_dims)
    core = problem.chain.cores[k - 1]
    r_prev, i_k, r_k = core.shape
    x0 = left_unfold(core)
    if k < n:
        _, a_mat = build_A(problem, k)

        def f(x):
            vec = x.reshape(-1, order="F")
            return float(vec @ a_mat @ vec)

        def g(x):
            vec = x.reshape(-1, order="F")
            return (2.0 * (a_mat @ vec)).reshape(x.shape, order="F")
    else:
        _, b_mat = build_B(problem)

        def f(x):
            return float(np.trace(x.T @ b_mat @ x))

        def g(x):
            return 2.0 * (b_mat @ x)

    result = minimize(f, g, x0, opt_cfg)
    new_core = _core_from_left_unfold(result.x, r_prev, i_k)
    return new_core, result


def update_core_atn(problem: TTNPEProblem, k: int, v: np.ndarray,
                    opt_cfg: OptimizerConfig | None = None):
    """One relaxed step on core k: minimize ||P X Q - C||_F^2 over orthonormal X."""
    core = problem.chain.cores[k - 1]
    r_prev, i_k, r_k = core.shape
    p, q, c = build_PQC(problem, k, v)

    def f(x):
        res = p @ x @ q - c
        return float(np.sum(res * res))

    def g(x):
        return 2.0 * p.T @ (p @ x @ q - c) @ q.T

    result = minimize(f, g, left_unfold(core), opt_cfg)
    new_core = _core_from_left_unfold(result.x, r_prev, i_k)
    return new_core, result


def fit(data: np.ndarray, graph_cfg: AffinityConfig, tau: float, variant: str = "atn",
        max_sweeps: int = 50, core_change_tol: float = 1e-6, rank_cap=None,
        opt_cfg: OptimizerConfig | None = None,
        tn_memory_budget: int = DEFAULT_TN_MEMORY_BUDGET) -> tuple[TTChain, SolverReport]:
    """End-to-end alternating fit.

    ``data`` stacks samples along the last mode, shape (I_1, ..., I_n, N).
    Builds the affinity graph and Gram target, initializes the chain by
    TT-SVD with threshold ``tau``, then sweeps cores 1..n with the chosen
    variant's update until the largest per-core change drops below
    ``core_change_tol`` or ``max_sweeps`` is reached.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim < 2:
        raise DataError("data must stack samples along a trailing mode")
    require_finite(data, "data")
    n_samples = data.shape[-1]
    if n_samples < 2:
        raise DataError("need at least 2 samples")
    mode_dims = data.shape[:-1]
    d = int(np.prod(mode_dims))

    report = SolverReport()
    t0 = time.perf_counter()
    d_mat = data.reshape(d, n_samples, order="F")
    s = build_weight_matrix(d_mat, graph_cfg)
    y = build_residual(d_mat, s)
    z = build_gram(y)
    report.wall_time["graph"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    chain = tt_svd(data, tau, rank_cap=rank_cap)
    problem = TTNPEProblem(z=z, mode_dims=mode_dims, chain=chain, variant=variant,
                           tn_memory_budget=tn_memory_budget)
    r_n = chain.embedding_dim
    v = None
    if variant == "atn":
        eigvals, v = smallest_eigvecs(z, r_n)
    else:
        eigvals = np.linalg.eigvalsh(z)[:r_n]
    report.kyfan_bound = float(np.sum(eigvals))
    report.wall_time["init"] = time.perf_counter() - t0

    n = len(mode_dims)
    scale = max(1.0, float(np.linalg.norm(z)))
    report.objective_trace.append(objective(problem))
    t0 = time.perf_counter()
    termination = "max_sweeps"
    for sweep in range(max_sweeps):
        old_cores = [c.copy() for c in problem.chain.cores]
        surrogates = []
        for k in range(1, n + 1):
            if variant == "tn":
                new_core, result = update_core_tn(problem, k, opt_cfg)
            else:
                new_core, result = update_core_atn(problem, k, v, opt_cfg)
                surrogates.append(result.f_trace[-1])
            problem.chain = problem.chain.replace_core(k - 1, new_core)
        obj = objective(problem)
        report.objective_trace.append(obj)
        if variant == "atn":
            report.surrogate_trace.append(surrogates)
        if obj < report.kyfan_bound - 1e-8 * scale:
            raise NumericError(
                f"objective {obj} violates the spectral lower bound {report.kyfan_bound}"
            )
        change = max(
            float(np.linalg.norm(new - old))
            for new, old in zip(problem.chain.cores, old_cores)
        )
        report.core_change_trace.append(change)
        report.sweeps_run = sweep + 1
        if change < core_change_tol:
            termination = "core_change"
            break
    report.termination_reason = termination
    report.wall_time["sweeps"] = time.perf_counter() - t0
    report.ranks = problem.chain.ranks
    return problem.chain, report
