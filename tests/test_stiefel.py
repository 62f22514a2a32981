import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_psd
from ttnpe.errors import ConfigError, NumericError
from ttnpe.stiefel import (
    OptimizerConfig,
    check_gradient,
    feasibility_defect,
    largest_eigenvalue,
    minimize,
    minimize_quadratic,
    project_tangent,
    projected_grad_norm,
)


def random_stiefel(rng, p, q):
    q_mat, _ = np.linalg.qr(rng.standard_normal((p, q)))
    return q_mat


class TestProjectedGradNorm:
    def test_normal_space_gradient_is_zero(self, rng):
        x = random_stiefel(rng, 6, 3)
        s = rng.standard_normal((3, 3))
        s = (s + s.T) / 2
        assert projected_grad_norm(x, x @ s) < 1e-12

    def test_orthogonal_gradient_full_norm(self, rng):
        x = random_stiefel(rng, 6, 1)
        g = rng.standard_normal((6, 1))
        g -= x @ (x.T @ g)
        assert abs(projected_grad_norm(x, g) - np.linalg.norm(g)) < 1e-12

    def test_matches_directional_derivative_sup(self, rng):
        # sup over unit tangent directions of the finite-difference directional
        # derivative equals the projected norm; the sup is attained at the
        # projected gradient itself, so include it among the probes
        x = random_stiefel(rng, 5, 2)
        g0 = rng.standard_normal((5, 2))

        def f(y):
            return float(np.sum(g0 * y))

        pg = projected_grad_norm(x, g0)
        h = 1e-6
        dirs = [project_tangent(x, rng.standard_normal((5, 2))) for _ in range(50)]
        dirs.append(project_tangent(x, g0))
        best = 0.0
        for d in dirs:
            d = d / np.linalg.norm(d)
            best = max(best, abs(f(x + h * d) - f(x - h * d)) / (2 * h))
        assert abs(best - pg) < 0.05 * pg


class TestMinimize:
    def test_procrustes_to_orthonormal_target(self, rng):
        target = random_stiefel(rng, 8, 3)

        def f(x):
            return float(np.sum((x - target) ** 2))

        def g(x):
            return 2.0 * (x - target)

        result = minimize(f, g, random_stiefel(rng, 8, 3))
        assert result.f_trace[-1] < 1e-8

    def test_rayleigh_quotient(self, rng):
        m = np.diag(np.arange(1.0, 7.0))

        def f(x):
            return float(np.trace(x.T @ m @ x))

        def g(x):
            return 2.0 * m @ x

        result = minimize(f, g, random_stiefel(rng, 6, 1))
        assert abs(result.f_trace[-1] - 1.0) < 1e-6
        assert abs(abs(result.x[0, 0]) - 1.0) < 1e-3

    def test_optimal_start_takes_no_step(self):
        x0 = np.eye(4)[:, :2]
        m = np.diag([1.0, 2.0, 5.0, 9.0])

        def f(x):
            return float(np.trace(x.T @ m @ x))

        def g(x):
            return 2.0 * m @ x

        result = minimize(f, g, x0)
        assert result.n_accepted == 0
        assert result.termination == "gradient"
        assert np.array_equal(result.x, x0)

    def test_feasibility_preserved(self, rng):
        m = rng.standard_normal((7, 7))
        m = (m + m.T) / 2

        def f(x):
            return float(np.trace(x.T @ m @ x))

        def g(x):
            return 2.0 * m @ x

        result = minimize(f, g, random_stiefel(rng, 7, 3))
        assert feasibility_defect(result.x) < 1e-8

    def test_trace_non_increasing(self, rng):
        m = rng.standard_normal((6, 6))
        m = (m + m.T) / 2

        def f(x):
            return float(np.trace(x.T @ m @ x))

        def g(x):
            return 2.0 * m @ x

        trace = minimize(f, g, random_stiefel(rng, 6, 2)).f_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_infeasible_start_rejected(self, rng):
        with pytest.raises(NumericError, match="feasible"):
            minimize(lambda x: 0.0, lambda x: np.zeros_like(x),
                     2.0 * random_stiefel(rng, 4, 2))

    def test_nonfinite_objective_rejected(self, rng):
        with pytest.raises(NumericError, match="not finite"):
            minimize(lambda x: np.nan, lambda x: np.zeros_like(x),
                     random_stiefel(rng, 4, 2))

    def test_rayleigh_on_tall_and_square_ish_x(self, rng):
        # a tall X (p >> q) and a square-ish one both reach the Ky Fan optimum
        for p, q in ((12, 2), (4, 3)):
            m = np.diag(np.arange(1.0, p + 1.0))

            def f(x):
                return float(np.trace(x.T @ m @ x))

            def g(x):
                return 2.0 * m @ x

            result = minimize(f, g, random_stiefel(rng, p, q))
            expected = np.sum(np.arange(1.0, q + 1.0))
            assert abs(result.f_trace[-1] - expected) < 1e-5

    def test_config_validation(self):
        assert [f.name for f in fields(OptimizerConfig)] == ["max_inner_iters", "grad_tol"]
        with pytest.raises(ValueError):
            OptimizerConfig(max_inner_iters=0)
        with pytest.raises(ValueError):
            OptimizerConfig(grad_tol=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("max_inner_iters", 2.5), ("max_inner_iters", True), ("max_inner_iters", "3"),
        ("max_inner_iters", -1), ("grad_tol", float("nan")), ("grad_tol", float("inf")),
        ("grad_tol", 0.0), ("grad_tol", True), ("grad_tol", "1e-6"),
    ])
    def test_bad_config_value_is_a_config_error(self, field, value):
        with pytest.raises(ConfigError, match=field):
            OptimizerConfig(**{field: value})

    def test_edge_config_values_accepted(self):
        cfg = OptimizerConfig(max_inner_iters=np.int64(1), grad_tol=float(np.finfo(np.float64).tiny))
        assert (cfg.max_inner_iters, cfg.grad_tol) == (1, np.finfo(np.float64).tiny)
        assert OptimizerConfig(grad_tol=np.float32(1e-3)).grad_tol > 0


def polar(c):
    u, _, vt = np.linalg.svd(c)
    return u @ vt


KINDS = ("psd", "low_rank", "clustered_top", "nsd", "indefinite", "zero")


@st.composite
def symmetric_forms(draw):
    """A symmetric m x m matrix, 1 <= m <= 80, with a spectrum of one of KINDS.

    A clustered top holds 2-6 eigenvalues spaced by 0, 1e-6 or 1e-3 of the
    largest: equal ones are one eigenvalue to Lanczos, and wider spacings
    are resolved before the residual bound can meet its tolerance.
    """
    m = draw(st.integers(1, 80))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    vals = rng.uniform(0.0, 1.0, m)
    if kind == "low_rank":
        vals[draw(st.integers(1, m)):] = 0.0
    elif kind == "clustered_top":
        top = min(m, draw(st.integers(2, 6)))
        spacing = draw(st.sampled_from([0.0, 1e-6, 1e-3]))
        vals = 0.5 * vals
        vals[:top] = 1.0 - spacing * np.arange(top)
    elif kind == "nsd":
        vals[draw(st.integers(0, m - 1)):] = 0.0
        vals = -vals
    elif kind == "indefinite":
        vals = 2.0 * vals - 1.0
    elif kind == "zero":
        vals[:] = 0.0
    a = (q * (scale * vals)) @ q.T
    return (a + a.T) / 2.0


class Operator:
    """A symmetric matrix seen only through shape and a @ v."""

    def __init__(self, a):
        self.a = a
        self.shape = a.shape
        self.products = 0

    def __matmul__(self, v):
        self.products += 1
        return self.a @ v


class TestLargestEigenvalue:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(symmetric_forms())
    def test_brackets_eigvalsh(self, a):
        vals = np.linalg.eigvalsh(a)
        s = max(1.0, float(np.max(np.abs(vals))))
        sigma = largest_eigenvalue(a)
        assert vals[-1] - 1e-12 * s <= sigma <= vals[-1] + 1e-9 * s

    def test_kronecker_form_with_structured_eigenvectors(self):
        # M's top eigenvector u = (0, 0, 1, -1) / sqrt(2) is orthogonal to the
        # ones vector and to X = [e_1, e_2], so kron(I_2, M)'s top eigenspace
        # is orthogonal to both vec(X) and the ones vector; a random start is not
        p = np.eye(4)
        p[2:, 2:] = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        m = (p * [1.0, 2.0, 5.0, 9.0]) @ p.T
        a = np.kron(np.eye(2), m)
        vec_x = np.eye(4)[:, :2].reshape(-1, order="F")
        top = np.linalg.eigh(a)[1][:, -2:]
        assert np.max(np.abs(top.T @ np.column_stack([vec_x, np.ones(8)]))) < 1e-14
        assert abs(largest_eigenvalue(a) - 9.0) <= 1e-9 * 9.0

    def test_same_bits_on_every_call(self, rng):
        a = random_psd(rng, 60)
        assert largest_eigenvalue(a) == largest_eigenvalue(a)

    def test_reads_the_matrix_only_through_products(self, rng):
        a = random_psd(rng, 50, rank=7)
        op = Operator(a)
        assert largest_eigenvalue(op) == largest_eigenvalue(a)
        assert 1 <= op.products <= 50

    @pytest.mark.parametrize("entry", [1e250, 1e-310])
    def test_extreme_scales_raise_no_warning(self, rng, entry):
        base = rng.standard_normal((40, 40))
        a = entry * ((base + base.T) / 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sigma = largest_eigenvalue(a)
        assert np.isfinite(sigma)
        if entry > 1.0:
            top = entry * float(np.linalg.eigvalsh((base + base.T) / 2.0)[-1])
            assert abs(sigma - top) <= 1e-9 * entry * float(np.linalg.norm(base, 2))

    def test_allocates_far_less_than_the_matrix(self, rng):
        # eigvalsh copies all of A; Lanczos keeps a few dozen basis vectors
        m = 1500
        g = rng.standard_normal((m, m))
        a = g @ g.T / m
        tracemalloc.start()
        try:
            largest_eigenvalue(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes / 4


class TestMinimizeQuadratic:
    @pytest.mark.parametrize("p, q", [(6, 1), (5, 2), (4, 3), (3, 3)])
    def test_trace_decreases_and_stays_feasible(self, rng, p, q):
        for _ in range(5):
            result = minimize_quadratic(random_psd(rng, p * q), random_stiefel(rng, p, q),
                                        OptimizerConfig(max_inner_iters=200, grad_tol=1e-12))
            trace = result.f_trace
            assert all(b < a for a, b in zip(trace, trace[1:]))
            assert len(trace) == result.n_accepted + 1
            assert feasibility_defect(result.x) < 1e-8

    def test_block_diagonal_form_reaches_ky_fan_optimum(self, rng):
        # vec(X)^T (I_q (x) M) vec(X) = tr(X^T M X), minimized by M's q smallest eigenvectors
        m = np.diag(np.arange(1.0, 7.0))
        result = minimize_quadratic(np.kron(np.eye(2), m), random_stiefel(rng, 6, 2),
                                    OptimizerConfig(max_inner_iters=2000, grad_tol=1e-10))
        assert result.termination in ("gradient", "no_decrease")
        assert abs(result.f_trace[-1] - 3.0) < 1e-8

    def test_optimal_start_takes_no_step(self):
        x0 = np.eye(4)[:, :2]
        a = np.kron(np.eye(2), np.diag([1.0, 2.0, 5.0, 9.0]))
        tiny = float(np.finfo(np.float64).tiny)
        for form in (a, np.zeros_like(a)):
            result = minimize_quadratic(form, x0, OptimizerConfig(grad_tol=tiny))
            assert result.termination == "gradient" and result.n_accepted == 0
            assert np.array_equal(result.x, x0)

    def test_crosses_determinant_sign_on_square_x(self, rng):
        # f(X) = -<C, X>^2 on 2 x 2 orthogonal X is minimized at +-polar(C), which share
        # one determinant sign; from the other component minimize's polar steps cannot get there
        for _ in range(10):
            c = rng.standard_normal((2, 2))
            a = -np.outer(c.reshape(-1, order="F"), c.reshape(-1, order="F"))
            s = np.linalg.svd(c, compute_uv=False)
            x0 = random_stiefel(rng, 2, 2)
            if np.linalg.det(x0) * np.linalg.det(polar(c)) > 0:
                x0[:, 0] = -x0[:, 0]
            optimum = -float(np.sum(s)) ** 2
            cfg = OptimizerConfig(max_inner_iters=3000, grad_tol=1e-12)
            result = minimize_quadratic(a, x0, cfg)
            assert abs(result.f_trace[-1] - optimum) < 1e-10 * max(1.0, float(np.linalg.norm(a)))
            assert np.linalg.det(result.x) * np.linalg.det(x0) < 0

            def f(x):
                vec = x.reshape(-1, order="F")
                return float(vec @ a @ vec)

            def g(x):
                return (2.0 * a @ x.reshape(-1, order="F")).reshape(x.shape, order="F")

            descent = minimize(f, g, x0, cfg)
            assert descent.f_trace[-1] >= -float(s[0] - s[1]) ** 2 - 1e-9
            assert descent.f_trace[-1] > optimum + float(s[0] * s[1])

    def test_infeasible_start_rejected(self, rng):
        with pytest.raises(NumericError, match="feasible"):
            minimize_quadratic(np.eye(8), 2.0 * random_stiefel(rng, 4, 2))


class TestGradientAudit:
    def test_quadratic_gradient_passes(self, rng):
        m = rng.standard_normal((5, 5))
        m = (m + m.T) / 2

        def f(x):
            return float(np.trace(x.T @ m @ x))

        def g(x):
            return 2.0 * m @ x

        x = random_stiefel(rng, 5, 2)
        assert check_gradient(f, g, x, rng=rng) < 1e-5

    def test_wrong_gradient_fails(self, rng):
        def f(x):
            return float(np.sum(x ** 2))

        def g(x):
            return 3.0 * x  # wrong scale

        x = random_stiefel(rng, 5, 2)
        assert check_gradient(f, g, x, rng=rng) > 1e-2
