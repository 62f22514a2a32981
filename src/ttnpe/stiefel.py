"""Feasible minimization over matrices with orthonormal columns.

Both solvers return to the manifold through ``polar``, the nearest
orthonormal-column matrix. ``minimize`` takes a general objective and steps
to polar(X - t P(G)), with P(G) the tangent projection of the Euclidean
gradient G (a retraction; Absil & Malick, SIAM J. Optim. 2012) and t chosen
by Armijo backtracking on ||P(G)||, so its objective trace is non-increasing.
On square X, X - t P(G) = X (I - t W) with W skew, so det(X) never changes.

``minimize_quadratic`` takes a quadratic vec(X)^T A vec(X) and steps by the
generalized power iteration instead, whose polar-factor steps are monotone
and can change det(X). Its shift sigma >= lambda_max(A) is the Lanczos
upper estimate of ``largest_eigenvalue``, computed from products A v alone,
so A is never copied or factored; a step that would not lower f is refused,
so the trace stays monotone even if sigma falls short of lambda_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ttnpe.errors import ConfigError, NumericError, is_number, require_int
from ttnpe.tensor_core import frobenius_norm

FEASIBILITY_TOL = 1e-8

# Armijo backtracking of ``minimize``'s polar steps.
INITIAL_STEP = 1e-2
BACKTRACK_FACTOR = 0.5
SUFFICIENT_DECREASE = 1e-4
MIN_STEP = 1e-12
MAX_STEP = 1e2

# Lanczos estimate of lambda_max in ``largest_eigenvalue``.
LANCZOS_RTOL = 1e-10
LANCZOS_SEED = 0
LANCZOS_CHECK_EVERY = 4
LANCZOS_BLOCK = 64


@dataclass
class OptimizerConfig:
    """Stopping rule of both solvers: an iteration cap and a relative gradient tolerance.

    A cap that is not an int >= 1, or a tolerance that is not a positive
    finite number, raises ConfigError.
    """

    max_inner_iters: int = 200
    grad_tol: float = 1e-6

    def __post_init__(self):
        require_int(self.max_inner_iters, "max_inner_iters", 1)
        if not (is_number(self.grad_tol) and 0.0 < self.grad_tol < np.inf):
            raise ConfigError(f"grad_tol must be positive and finite, got {self.grad_tol!r}")


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
    """Frobenius norm of the tangent-space projection of the Euclidean gradient.

    Finite whenever the projection's entries are, so the gradient stop
    still fires on gradients whose squared norm overflows.
    """
    return frobenius_norm(project_tangent(x, g))


def polar(m: np.ndarray) -> np.ndarray:
    """Polar factor U V^T of m's thin SVD: the orthonormal-column matrix nearest to m."""
    u, _, vt = np.linalg.svd(m, full_matrices=False)
    return u @ vt


def largest_eigenvalue(a: np.ndarray) -> float:
    """Upper estimate of the largest eigenvalue of symmetric ``a``, by Lanczos.

    Reads ``a`` only through products a @ v and never copies it. The Krylov
    basis starts from a fixed-seed Gaussian vector, which no structured
    form (a Kronecker form, say) can be orthogonal to by construction, and
    is fully reorthogonalized, twice per step. Every few steps the
    tridiagonal T's top Ritz pair (theta, s) is found, and the run stops
    once its residual bound |beta_j s_j| falls to LANCZOS_RTOL times T's
    largest |Ritz value|, when the Krylov space is invariant (beta_j = 0),
    or after m steps, where the basis spans R^m. Returns
    theta + |beta_j s_j|: an eigenvalue of ``a`` lies within |beta_j s_j|
    of theta (Kuczynski & Wozniakowski, SIAM J. Matrix Anal. Appl. 1992).
    A top cluster narrower than the tolerance can leave the estimate below
    lambda_max by up to the cluster's width.
    """
    m = a.shape[0]
    v = np.random.default_rng(LANCZOS_SEED).standard_normal(m)
    basis = np.empty((min(m, LANCZOS_BLOCK), m))
    basis[0] = v / frobenius_norm(v)
    alpha, beta = [], []
    for j in range(m):
        w = a @ basis[j]
        done = basis[:j + 1]
        h = done @ w
        w -= h @ done
        h2 = done @ w
        w -= h2 @ done
        alpha.append(h[j] + h2[j])
        b = frobenius_norm(w)
        steps = j + 1
        last = b == 0.0 or steps == m
        if last or steps % LANCZOS_CHECK_EVERY == 0:
            theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            bound = abs(b * s[-1, -1])
            if last or bound <= LANCZOS_RTOL * max(abs(theta[0]), abs(theta[-1])):
                return float(theta[-1] + bound)
        beta.append(b)
        if steps == len(basis):
            basis = np.concatenate([basis, np.empty((min(m - steps, LANCZOS_BLOCK), m))])
        basis[steps] = w / b
    raise AssertionError("unreachable: the loop returns by step m")


def _start(x0: np.ndarray, cfg: OptimizerConfig | None) -> tuple[np.ndarray, OptimizerConfig]:
    """A float64 copy of x0 and ``cfg`` or the default; NumericError unless x0 is feasible."""
    x = np.array(x0, dtype=np.float64)
    if feasibility_defect(x) > FEASIBILITY_TOL:
        raise NumericError("initial point is not feasible (columns not orthonormal)")
    return x, cfg or OptimizerConfig()


def minimize(f, grad, x0: np.ndarray, cfg: OptimizerConfig | None = None) -> OptimizeResult:
    """Minimize f over orthonormal-column matrices starting from feasible x0.

    ``f`` maps a matrix to a scalar and ``grad`` to its Euclidean gradient G.
    Each step is polar(X - t P(G)). Terminates on a small projected gradient
    (relative to 1 + |f|), the iteration cap, or step underflow.
    """
    x, cfg = _start(x0, cfg)
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
        pg = project_tangent(x, g)
        pg_norm = frobenius_norm(pg)
        if pg_norm <= cfg.grad_tol * (1.0 + abs(fx)):
            termination = "gradient"
            break
        t = min(max(step, MIN_STEP), MAX_STEP)
        while t >= MIN_STEP:
            cand = polar(x - t * pg)
            fc = float(f(cand))
            if not np.isfinite(fc):
                raise NumericError(f"objective is not finite after {accepted} accepted steps")
            if fc <= fx - SUFFICIENT_DECREASE * t * pg_norm * pg_norm:
                break
            t *= BACKTRACK_FACTOR
        else:
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
    X <- polar(mat((sigma I - A) vec X)) with sigma >= lambda_max(A). With
    that shift, vec(X)^T (sigma I - A) vec(X), which is sigma * r - f(X) for
    r orthonormal columns, is convex, and the polar factor maximizes its
    linearization at X, so f cannot increase. sigma is the Lanczos upper
    estimate of :func:`largest_eigenvalue`, from a few dozen products A v,
    computed only once the first gradient test has failed; should it fall
    below lambda_max, the no-decrease guard still refuses every step that
    would raise f. Stops on the projected-gradient rule
    of :func:`minimize` ("gradient"), after ``cfg.max_inner_iters`` steps
    ("max_iters"), or when a step would not lower f ("no_decrease"); a step
    that does not lower f is never taken, so an optimal x0 is returned as
    is.
    """
    x, cfg = _start(x0, cfg)
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
            sigma = largest_eigenvalue(a)
        cand = polar((sigma * vec - a_vec).reshape(x.shape, order="F"))
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
