"""Feasible minimization over matrices with orthonormal columns.

``minimize`` takes a general objective and follows the Cayley-type
curvilinear update X(t) = (I + (t/2) W)^{-1} (I - (t/2) W) X with
W = G X^T - X G^T, which stays on the manifold for any step t. Steps are
chosen by Armijo backtracking on the projected-gradient norm, so the
recorded objective trace is non-increasing by construction. The curve keeps
det(X) fixed, so on square X it cannot leave its component of O(p).

``minimize_quadratic`` takes a quadratic vec(X)^T A vec(X) and steps by the
generalized power iteration instead, whose polar-factor steps are monotone
and can change det(X).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ttnpe.errors import NumericError

FEASIBILITY_TOL = 1e-8
POLISH_TRIGGER = 1e-10

# Armijo backtracking of ``minimize``'s Cayley steps.
INITIAL_STEP = 1e-2
BACKTRACK_FACTOR = 0.5
SUFFICIENT_DECREASE = 1e-4
MIN_STEP = 1e-12
MAX_STEP = 1e2


@dataclass
class OptimizerConfig:
    """Stopping rule of both solvers: an iteration cap and a relative gradient tolerance."""

    max_inner_iters: int = 200
    grad_tol: float = 1e-6

    def __post_init__(self):
        if min(self.max_inner_iters, self.grad_tol) <= 0:
            raise ValueError("optimizer parameters must be positive")


@dataclass
class OptimizeResult:
    x: np.ndarray
    f_trace: list[float]
    termination: str
    n_accepted: int


def feasibility_defect(x: np.ndarray) -> float:
    return float(np.max(np.abs(x.T @ x - np.eye(x.shape[1]))))


def project_tangent(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    xg = x.T @ g
    return g - x @ ((xg + xg.T) / 2.0)


def projected_grad_norm(x: np.ndarray, g: np.ndarray) -> float:
    """Frobenius norm of the tangent-space projection of the Euclidean gradient."""
    return float(np.linalg.norm(project_tangent(x, g)))


def _polish(x: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(x)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _cayley_point(x: np.ndarray, g: np.ndarray, t: float) -> np.ndarray:
    p, q = x.shape
    if 2 * q < p:
        # Low-rank form: W = U V^T with U = [G, X], V = [X, -G], solved in 2q dims.
        u = np.hstack([g, x])
        v = np.hstack([x, -g])
        small = np.eye(2 * q) + (t / 2.0) * (v.T @ u)
        y = x - t * u @ np.linalg.solve(small, v.T @ x)
    else:
        w = g @ x.T - x @ g.T
        half = (t / 2.0) * w
        y = np.linalg.solve(np.eye(p) + half, x - half @ x)
    if feasibility_defect(y) > POLISH_TRIGGER:
        y = _polish(y)
    return y


def minimize(f, grad, x0: np.ndarray, cfg: OptimizerConfig | None = None) -> OptimizeResult:
    """Minimize f over orthonormal-column matrices starting from feasible x0.

    ``f`` maps a matrix to a scalar; ``grad`` returns the Euclidean gradient
    of f at that matrix. Terminates on a small projected gradient (relative
    to 1 + |f|), the iteration cap, or step underflow.
    """
    cfg = cfg or OptimizerConfig()
    x = np.array(x0, dtype=np.float64)
    if feasibility_defect(x) > FEASIBILITY_TOL:
        raise NumericError("initial point is not feasible (columns not orthonormal)")
    fx = float(f(x))
    if not np.isfinite(fx):
        raise NumericError("objective is not finite at the initial point")
    trace = [fx]
    step = INITIAL_STEP
    termination = "max_iters"
    accepted = 0
    for _ in range(cfg.max_inner_iters):
        g = np.asarray(grad(x), dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"gradient is not finite after {accepted} accepted steps")
        pg_norm = projected_grad_norm(x, g)
        if pg_norm <= cfg.grad_tol * (1.0 + abs(fx)):
            termination = "gradient"
            break
        t = min(max(step, MIN_STEP), MAX_STEP)
        moved = False
        while t >= MIN_STEP:
            cand = _cayley_point(x, g, t)
            fc = float(f(cand))
            if not np.isfinite(fc):
                raise NumericError(f"objective is not finite after {accepted} accepted steps")
            if fc <= fx - SUFFICIENT_DECREASE * t * pg_norm * pg_norm:
                moved = True
                break
            t *= BACKTRACK_FACTOR
        if not moved:
            termination = "step_underflow"
            break
        x, fx = cand, fc
        trace.append(fx)
        accepted += 1
        step = min(t / BACKTRACK_FACTOR, MAX_STEP)
    return OptimizeResult(x=x, f_trace=trace, termination=termination, n_accepted=accepted)


def minimize_quadratic(a: np.ndarray, x0: np.ndarray, cfg: OptimizerConfig | None = None) -> OptimizeResult:
    """Minimize f(X) = vec(X)^T A vec(X) over orthonormal-column X, from feasible x0.

    ``vec`` stacks columns and ``a`` is symmetric. Generalized power iteration
    (Nie, Zhang & Li, Sci. China Inf. Sci. 2017): each step is
    X <- polar(mat((sigma I - A) vec X)) with sigma = lambda_max(A). With that
    shift, vec(X)^T (sigma I - A) vec(X), which is sigma * r - f(X) for r
    orthonormal columns, is convex, and the polar factor maximizes its
    linearization at X, so f cannot increase. sigma is computed only once
    the first gradient test has failed. Stops on the projected-gradient rule
    of :func:`minimize` ("gradient"), after ``cfg.max_inner_iters`` steps
    ("max_iters"), or when a step would not lower f ("no_decrease"); a step
    that does not lower f is never taken, so an optimal x0 is returned as
    is.
    """
    cfg = cfg or OptimizerConfig()
    x = np.array(x0, dtype=np.float64)
    if feasibility_defect(x) > FEASIBILITY_TOL:
        raise NumericError("initial point is not feasible (columns not orthonormal)")
    vec = x.reshape(-1, order="F")
    a_vec = a @ vec
    fx = float(vec @ a_vec)
    if not np.isfinite(fx):
        raise NumericError("objective is not finite at the initial point")
    trace = [fx]
    sigma = None
    termination = "max_iters"
    accepted = 0
    for _ in range(cfg.max_inner_iters):
        g = 2.0 * a_vec.reshape(x.shape, order="F")
        if projected_grad_norm(x, g) <= cfg.grad_tol * (1.0 + abs(fx)):
            termination = "gradient"
            break
        if sigma is None:
            sigma = float(np.linalg.eigvalsh(a)[-1])
        u, _, vt = np.linalg.svd((sigma * vec - a_vec).reshape(x.shape, order="F"),
                                 full_matrices=False)
        cand = u @ vt
        c_vec = cand.reshape(-1, order="F")
        c_a_vec = a @ c_vec
        fc = float(c_vec @ c_a_vec)
        if not fc < fx:
            termination = "no_decrease"
            break
        x, vec, a_vec, fx = cand, c_vec, c_a_vec, fc
        trace.append(fx)
        accepted += 1
    return OptimizeResult(x=x, f_trace=trace, termination=termination, n_accepted=accepted)


def check_gradient(f, grad, x: np.ndarray, n_dirs: int = 20, h: float = 1e-5,
                   rng: np.random.Generator | None = None, tangent: bool = False) -> float:
    """Max relative error of ``grad`` against central finite differences.

    Probes ``n_dirs`` random unit directions (tangent-projected when
    ``tangent`` is set); ``f`` must be defined in the ambient space near x.
    """
    rng = rng or np.random.default_rng(0)
    g = np.asarray(grad(x), dtype=np.float64)
    worst = 0.0
    scale = max(1.0, float(np.linalg.norm(g)))
    for _ in range(n_dirs):
        d = rng.standard_normal(x.shape)
        if tangent:
            d = project_tangent(x, d)
        d /= np.linalg.norm(d)
        fd = (float(f(x + h * d)) - float(f(x - h * d))) / (2.0 * h)
        worst = max(worst, abs(fd - float(np.sum(g * d))) / scale)
    return worst
