"""TTNPE fitting: exact tensor-network core updates (TN) and the relaxed
approximate updates (ATN), orchestrated by an alternating sweep loop.

Both variants minimize tr(E^T Z E) over chains with left-orthonormal cores,
where E is the contracted chain matrix and Z the neighborhood Gram target.
TN solves each core on its exact quadratic form. The last core's form is
tr(X^T B X), minimized exactly by B's smallest eigenvectors; every other
core is solved by the generalized power iteration on its form
vec(X)^T A vec(X), whose polar-factor steps never raise the objective and,
unlike a descent curve on the manifold, can change det(X). ATN instead fits
the chain to the smallest-eigenvector matrix V of Z, solving each core's
subproblem min ||P X Q - C||_F^2 in closed form as the polar factor of
P^T C Q^T (orthogonal Procrustes).

Neither sweep forms P or the prefix. Both run through one loop,
:func:`_sweep`, which carries environments as in ALS/MALS (Holtz,
Rohwedder & Schneider, SIAM J. Sci. Comput. 2012): the suffix right
unfoldings Q_k, built once per sweep from right to left (Q_n = I), and a
left-projected quantity carried from left to right through X_k, the
just-solved core's left unfolding; each variant supplies only its core
solve and its carry step. A TN sweep carries the prefix Gram
W_k = P^T Z P: W_1 is a view of Z and W_{k+1} = X_k^T W_k X_k over both of
W_k's (I_k, R_{k-1}) axes. Core k < n's form is W_k
contracted with Q_k Q_k^T over the modes after k, and the last core's B is
W_n. :func:`build_A` and :func:`build_B` return the forms a sweep solves,
carrying W through the chain's current cores with the same step. An ATN
sweep carries the left-projected target L_k = P^T C (L_1 = V reshaped,
L_{k+1} = X_k^T L_k reshaped). As P^T P = I, the residual of core k is
||X Q_k - L_k||^2 + ||V||^2 - ||L_k||^2.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from ttnpe.errors import ConfigError, DataError, NumericError, is_number, require_finite, require_int
from ttnpe.neighborhood_graph import (
    AffinityConfig,
    build_gram,
    build_residual,
    build_weight_matrix,
    knn_graph,
)
from ttnpe.stiefel import OptimizeResult, OptimizerConfig, minimize_quadratic, polar
from ttnpe.tensor_core import frobenius_norm, kronecker, left_unfold
from ttnpe.tt_subspace import (TTChain, check_tt_args, contract_chain, fix_signs, project_left,
                               right_environments, tt_svd)


def check_sweep_args(variant, max_sweeps=0, core_change_tol=0.0) -> None:
    """Raise ConfigError for a bad ``variant``, ``max_sweeps`` or ``core_change_tol``."""
    if not isinstance(variant, str) or variant not in ("tn", "atn"):
        raise ConfigError(f"variant must be 'tn' or 'atn', got {variant!r}")
    require_int(max_sweeps, "max_sweeps", 0)
    if not (is_number(core_change_tol) and core_change_tol >= 0.0):
        raise ConfigError(f"core_change_tol must be a number >= 0, got {core_change_tol!r}")


@dataclass
class TTNPEProblem:
    """One fitting instance: Gram target, mode dims, variant and the iterate."""

    z: np.ndarray
    mode_dims: tuple[int, ...]
    chain: TTChain
    variant: str = "atn"

    def __post_init__(self):
        self.mode_dims = tuple(int(i) for i in self.mode_dims)
        d = int(np.prod(self.mode_dims))
        if self.z.shape != (d, d):
            raise DataError(f"Gram target shape {self.z.shape} does not match dims {self.mode_dims}")
        if self.chain.mode_dims != self.mode_dims:
            raise DataError("chain mode dims do not match the Gram target")
        check_sweep_args(self.variant)


@dataclass
class SolverReport:
    """Traces of one fit. ``kyfan_bound`` is the Ky Fan lower bound on the
    objective: the sum of Z's R_n smallest eigenvalues, exactly 0.0 when
    R_n <= d - N (Z = Y Y^T has rank at most N). ``wall_time`` holds
    seconds per stage ("tt_svd", "graph", "eigensolve", "sweeps") and is
    the only non-deterministic field; "graph" drops by the KNN search for a
    fit whose ``SplitCache`` already held the split's graph, and
    "eigensolve" reads near 0 for an ATN fit whose ``SplitCache`` already
    held Z's decomposition.
    ``core_solves`` holds, per TN sweep, each core solve's step count and stop
    reason (``{"steps": int, "stop": str}``); it stays empty for ATN."""

    objective_trace: list[float] = field(default_factory=list)
    surrogate_trace: list[list[float]] = field(default_factory=list)
    core_change_trace: list[float] = field(default_factory=list)
    kyfan_bound: float = 0.0
    sweeps_run: int = 0
    termination_reason: str = ""
    wall_time: dict = field(default_factory=dict)
    core_solves: list[list[dict]] = field(default_factory=list)


def objective(problem: TTNPEProblem) -> float:
    """tr(E^T Z E) for the current chain."""
    e = contract_chain(problem.chain)
    return float(np.trace(e.T @ problem.z @ e))


def _first_prefix_gram(z: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """W_1: Z viewed with axes (d_post, I_1, d_post', I_1'), d_post = d / I_1."""
    d_post = z.shape[0] // dims[0]
    return z.reshape(d_post, dims[0], d_post, dims[0])


def _next_prefix_gram(w: np.ndarray, x: np.ndarray, i_next: int) -> np.ndarray:
    """W_{k+1} = X^T W_k X over both of W_k's p axes, X = L(U_k).

    Splitting d_post into (d_post / I_{k+1}, I_{k+1}) regroups the result
    as (d_post', p', d_post', p') with p' = (I_{k+1}, R_k), with no copy.
    """
    d_post = w.shape[0]
    w = x.T @ (w.reshape(-1, x.shape[0]) @ x).reshape(d_post, x.shape[0], -1)
    d_post //= i_next
    return w.reshape(d_post, i_next * x.shape[1], d_post, i_next * x.shape[1])


def _last_form(w: np.ndarray) -> np.ndarray:
    """The last core's B from W_n, symmetrized into a new array (at n = 1, W_1 is Z)."""
    b = w.reshape(w.shape[1], -1)
    b = b + b.T
    b *= 0.5
    return b


def _prefix_gram(problem: TTNPEProblem, k: int) -> np.ndarray:
    """W_k carried from W_1 through the chain's current cores 1..k-1."""
    dims = problem.mode_dims
    w = _first_prefix_gram(problem.z, dims)
    for j in range(1, k):
        w = _next_prefix_gram(w, left_unfold(problem.chain.cores[j - 1]), dims[j])
    return w


def build_A(problem: TTNPEProblem, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact quadratic form for core k < n: the 6-mode tensor and its matricization.

    The form :func:`sweep_tn` solves: W_k, carried through the chain's
    cores 1..k-1, contracted with Q_k Q_k^T by :func:`_carried_form`. The
    tensor has modes (R_{k-1}, I_k, R_k, R_{k-1}', I_k', R_k') and the
    matrix A satisfies vec(U_k)^T A vec(U_k) = tr(E^T Z E).
    """
    n = len(problem.mode_dims)
    if not 1 <= k <= n - 1:
        raise ValueError(f"build_A requires 1 <= k <= n-1, got k={k}, n={n}")
    a_mat = _carried_form(_prefix_gram(problem, k), right_environments(problem.chain)[k - 1])
    return a_mat.reshape(problem.chain.cores[k - 1].shape * 2, order="F"), a_mat


def build_B(problem: TTNPEProblem) -> tuple[np.ndarray, np.ndarray]:
    """Exact quadratic form for the last core: 4-mode tensor and matricization.

    W_n, carried through cores 1..n-1 as in :func:`sweep_tn`. The tensor
    has modes (R_{n-1}, I_n, R_{n-1}', I_n') and B satisfies
    tr(L(U_n)^T B L(U_n)) = tr(E^T Z E).
    """
    b_mat = _last_form(_prefix_gram(problem, len(problem.mode_dims)))
    return b_mat.reshape(problem.chain.cores[-1].shape[:2] * 2, order="F"), b_mat


def smallest_eigvecs(z: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenvectors of the r smallest eigenvalues, ascending.

    Sign-fixed (largest-magnitude entry positive) for determinism. Returns
    (eigenvalues, eigenvectors).
    """
    return SplitCache().smallest_eigvecs(z, r)[1:]


class SplitCache:
    """One split's KNN graph and Gram target Z with its ``np.linalg.eigh``,
    shared by the fits of every tau, which search the same D and build the
    same Z.

    :meth:`knn_graph` keeps the held lists for a D of the same shape and
    dtype, the same K and the same SHA-256 of D's bytes in F order, which
    hashes a view when D is F-contiguous, as ``fit``'s is; other bits, even
    -0.0 for 0.0 or another matrix with the same buffer, search anew.
    :meth:`smallest_eigvecs` keeps the held pair for a Z equal to the held
    one bit for bit (compared as ``uint64``, so 0.0 and -0.0 differ). Either
    replacement releases the old entry before the new search or ``eigh``
    runs, and nothing is held after it raises. It holds the (N, K) lists
    (read-only), Z and Z's eigenvectors, 2 d^2 float64.
    """

    def __init__(self):
        self.graph_key = self.graph = None
        self.z = None
        self._eigh = None

    def knn_graph(self, d_mat: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``neighborhood_graph.knn_graph(d_mat, k)``, searched once per key."""
        digest = hashlib.sha256(np.ascontiguousarray(d_mat.T)).digest()  # F order of D
        key = (d_mat.shape, d_mat.dtype.str, k, digest)
        if self.graph_key != key:
            self.graph_key = self.graph = None
            self.graph = knn_graph(d_mat, k)
            for held in self.graph:
                held.flags.writeable = False
            self.graph_key = key
        return self.graph

    def smallest_eigvecs(self, z: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(held Z, eigenvalues, eigenvectors): as :func:`smallest_eigvecs`
        of ``z``, with the held Z, equal to ``z``, in its place."""
        d = z.shape[0]
        if not 1 <= r <= d:
            raise ValueError(f"r must lie in [1, {d}], got {r}")
        if self.z is None or not np.array_equal(self.z.view(np.uint64), z.view(np.uint64)):
            self.z = self._eigh = None
            self._eigh = np.linalg.eigh(z)
            self.z = z
        vals, vecs = self._eigh
        return self.z, vals[:r], fix_signs(vecs[:, :r].copy())


def build_PQC(problem: TTNPEProblem, k: int, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factors of the relaxed subproblem ||P L(U_k) Q - C||_F^2 for core k.

    P = I_{I_k} (x) L(prefix), Q = Q_k the right environment of
    :func:`right_environments`, and C is the pure reshape of the
    eigenvector target to (I_1...I_k) x (I_{k+1}...I_n R_n).
    """
    n = len(problem.mode_dims)
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    prefix = contract_chain(problem.chain, upto=k - 1)
    p = kronecker(np.eye(problem.mode_dims[k - 1]), prefix)
    q = right_environments(problem.chain)[k - 1]
    rows = int(np.prod(problem.mode_dims[:k]))
    c = v.reshape(rows, v.size // rows, order="F")
    return p, q, c


def _exact_last_core(b_mat: np.ndarray, x0: np.ndarray) -> OptimizeResult:
    """B's smallest eigenvectors if they lower tr(X^T B X) below x0's, else x0."""
    f0 = float(np.sum(x0 * (b_mat @ x0)))
    _, x = smallest_eigvecs(b_mat, x0.shape[1])
    f = float(np.sum(x * (b_mat @ x)))
    if f < f0:
        return OptimizeResult(x=x, f_trace=[f0, f], termination="exact", n_accepted=1)
    return OptimizeResult(x=x0, f_trace=[f0], termination="exact", n_accepted=0)


def _carried_form(w: np.ndarray, env: np.ndarray) -> np.ndarray:
    """Core k's form A from the carried W_k and the right environment Q_k.

    ``w`` has axes (d_post, p, d_post', p') with p = (I_k, R_{k-1}), R_{k-1}
    fastest. A[(r, p), (r', p')] = sum over the modes after k of
    C_k[r, j, r', j'] W_k[j, p, j', p'], with C_k = Q_k Q_k^T. When
    R_k R_n < d_post, Q_k enters W_k's leading axis first, one product that
    reads W_k in place; otherwise W_k meets C_k in one tensordot. The
    result is symmetrized in place, so at most two m x m arrays are live.
    """
    d_post, p = w.shape[:2]
    r_k = env.shape[0]
    r_n = env.shape[1] // d_post
    q = env.reshape(r_k, d_post, r_n, order="F")
    if r_k * r_n < d_post:
        t = q.transpose(0, 2, 1).reshape(r_k * r_n, d_post) @ w.reshape(d_post, -1)
        a = np.tensordot(t.reshape(r_k, r_n, p, d_post, p), q, axes=([1, 3], [2, 1]))
        a = a.transpose(0, 1, 3, 2)                      # (R_k, p, R_k', p')
    else:
        qm = q.reshape(r_k * d_post, r_n)
        qq = (qm @ qm.T).reshape(r_k, d_post, r_k, d_post)
        a = np.tensordot(w, qq, axes=([0, 2], [1, 3]))   # (p, p', R_k, R_k')
        a = a.transpose(2, 0, 3, 1)
    m = r_k * p
    a = a.reshape(m, m)  # rows in vec(X) order: C-order (R_k, I_k, R_{k-1})
    a += a.T
    a *= 0.5
    return a


def _sweep(problem: TTNPEProblem, carry, solve, step) -> list:
    """The sweep both variants share; returns each core's record in order.

    At core k, ``solve(k, carry, Q_k, X_k)``, X_k the current core's left
    unfolding, returns the new left unfolding X and the record; X becomes
    core k and ``step(carry, X, I_{k+1})`` the next carry. ``problem.chain``
    is replaced once, after the last core, and no array of the old chain is
    written.
    """
    dims = problem.mode_dims
    envs = right_environments(problem.chain)
    cores = list(problem.chain.cores)
    records = []
    for k in range(1, len(dims) + 1):
        x, record = solve(k, carry, envs[k - 1], left_unfold(cores[k - 1]))
        records.append(record)
        cores[k - 1] = x.reshape(cores[k - 1].shape[:2] + (-1,), order="F")
        if k < len(dims):
            carry = step(carry, x, dims[k])
    problem.chain = TTChain(cores, tau=problem.chain.tau)
    return records


def sweep_tn(problem: TTNPEProblem, opt_cfg: OptimizerConfig | None = None) -> list[OptimizeResult]:
    """One left-to-right TN sweep over cores 1..n on the carried prefix Gram.

    Replaces ``problem.chain`` with cores each solved on its exact form
    taken from W_k (W_1 a view of Z), and returns each core's
    ``OptimizeResult``. The last core's form is tr(X^T B X), so B's
    smallest eigenvectors are optimal (Ky Fan; termination "exact"). A core
    k < n takes generalized power-iteration steps on vec(X)^T A vec(X),
    bounded by ``opt_cfg``'s ``max_inner_iters`` and ``grad_tol``. The
    objective cannot increase, and a core that already attains its optimum
    is kept.
    """
    n = len(problem.mode_dims)

    def solve(k, w, env, x0):
        result = (minimize_quadratic(_carried_form(w, env), x0, opt_cfg) if k < n
                  else _exact_last_core(_last_form(w), x0))
        return result.x, result

    return _sweep(problem, _first_prefix_gram(problem.z, problem.mode_dims), solve, _next_prefix_gram)


def sweep_atn(problem: TTNPEProblem, v: np.ndarray) -> list[float]:
    """One left-to-right ATN sweep over cores 1..n on carried environments.

    Replaces ``problem.chain`` with cores each the polar factor X of
    L_k Q_k^T, and returns the residual ||X Q_k - L_k||^2 + ||V||^2 - ||L_k||^2
    after each core.
    """
    target_sq = float(np.sum(v * v))

    def solve(k, left, env, x0):
        x = polar(left @ env.T)
        return x, float(np.sum((x @ env - left) ** 2)) + target_sq - float(np.sum(left * left))

    return _sweep(problem, v.reshape(problem.mode_dims[0], -1, order="F"), solve,
                  lambda left, x, i_next: project_left(x, left, i_next))


def fit(data: np.ndarray, graph_cfg: AffinityConfig, tau: float, variant: str = "atn",
        max_sweeps: int = 50, core_change_tol: float = 1e-6, rank_cap=None,
        opt_cfg: OptimizerConfig | None = None,
        split_cache: SplitCache | None = None) -> tuple[TTChain, SolverReport]:
    """End-to-end alternating fit.

    ``data`` stacks samples along the last mode, shape (I_1, ..., I_n, N).
    Initializes the chain by TT-SVD with threshold ``tau``, builds the
    affinity graph and Gram target, then sweeps cores 1..n with the chosen
    variant's sweep (:func:`sweep_tn`, the one TN core solver, or
    :func:`sweep_atn`, both through :func:`_sweep`) until the largest
    per-core change drops below ``core_change_tol`` or ``max_sweeps`` is
    reached. A bad ``variant``, ``max_sweeps``, ``core_change_tol``, ``tau``
    or ``rank_cap`` raises ConfigError once ``data``'s shape is checked,
    before the graph is built. After each sweep the objective, recomputed
    from the chain by :func:`objective` and so independent of the carried
    forms, must stay above the Ky Fan bound, less 1e-8 * max(1, ||Z||_F),
    or NumericError is raised. The bound takes no eigensolve when
    R_n <= d - N, where it is exactly 0.0; otherwise TN takes it from
    ``eigvalsh`` of Z, and ATN from the eigenvalues of the one ``eigh`` of Z
    that also gives its target. Given ``split_cache``, the
    :class:`SplitCache` of earlier fits on the same training data (as every
    tau of one split is), both variants take the KNN graph from it
    (``build_weight_matrix``'s ``search``) and ATN its ``eigh``, neither
    recomputed, and ATN continues with the held Z. With None, ``knn_graph``
    searches the graph and nothing is hashed, and ATN decomposes Z in a
    fresh holder. S, Y and Z are built on every call.
    Z is built after TT-SVD, so a new Z equal to the held one lives only
    until it is compared, and one d x d Z stays alive. Y is released once
    Z is built.
    ``opt_cfg`` bounds the power iteration on TN cores 1..n-1 through its
    ``max_inner_iters`` and ``grad_tol``; the last TN core and every ATN
    core update are solved in closed form.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim < 2:
        raise DataError("data must stack samples along a trailing mode")
    check_sweep_args(variant, max_sweeps, core_change_tol)
    check_tt_args(tau, rank_cap, data.ndim - 1)
    require_finite(data, "data")
    n_samples = data.shape[-1]
    if n_samples < 2:
        raise DataError("need at least 2 samples")
    mode_dims = data.shape[:-1]
    d = int(np.prod(mode_dims))

    report = SolverReport()
    t0 = time.perf_counter()
    chain = tt_svd(data, tau, rank_cap=rank_cap)
    report.wall_time["tt_svd"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    d_mat = left_unfold(data)
    search = knn_graph if split_cache is None else split_cache.knn_graph
    z = build_gram(build_residual(d_mat, build_weight_matrix(d_mat, graph_cfg, search)))
    report.wall_time["graph"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    r_n = chain.embedding_dim
    v, eigvals = None, ()
    if variant == "atn":
        z, eigvals, v = (SplitCache() if split_cache is None else split_cache).smallest_eigvecs(z, r_n)
    elif r_n > d - n_samples:
        eigvals = np.linalg.eigvalsh(z)[:r_n]
    # rank(Z) <= N leaves at least d - N zero eigenvalues, the R_n smallest.
    report.kyfan_bound = float(np.sum(eigvals)) if r_n > d - n_samples else 0.0
    problem = TTNPEProblem(z=z, mode_dims=mode_dims, chain=chain, variant=variant)
    report.wall_time["eigensolve"] = time.perf_counter() - t0

    scale = max(1.0, frobenius_norm(z))
    report.objective_trace.append(objective(problem))
    t0 = time.perf_counter()
    termination = "max_sweeps"
    for sweep in range(max_sweeps):
        old_cores = problem.chain.cores  # a sweep replaces the chain and writes no core
        if variant == "tn":
            report.core_solves.append([{"steps": r.n_accepted, "stop": r.termination}
                                       for r in sweep_tn(problem, opt_cfg)])
        else:
            report.surrogate_trace.append(sweep_atn(problem, v))
        obj = objective(problem)
        report.objective_trace.append(obj)
        if obj < report.kyfan_bound - 1e-8 * scale:
            raise NumericError(
                f"objective {obj} violates the spectral lower bound {report.kyfan_bound}"
            )
        # The norm sums in memory order; C order fixes it whatever the cores' layouts.
        change = max(float(np.linalg.norm(np.subtract(new, old, order="C")))
                     for new, old in zip(problem.chain.cores, old_cores))
        report.core_change_trace.append(change)
        report.sweeps_run = sweep + 1
        if change < core_change_tol:
            termination = "core_change"
            break
    report.termination_reason = termination
    report.wall_time["sweeps"] = time.perf_counter() - t0
    return problem.chain, report
