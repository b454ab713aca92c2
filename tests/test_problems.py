"""Checks for the objective-function factories."""

import dataclasses
import math

import numpy as np
import pytest

from gradflows.problems import (
    Problem,
    custom_problem,
    finite_difference_gradient,
    quadratic_problem,
    zakharov_problem,
)

EX_MATRIX = [[1.0, 1.0], [1.0, 4.0]]


def fd_check(problem, rng, count=100, box=10.0):
    fd = finite_difference_gradient(problem.value)
    for _ in range(count):
        x = rng.uniform(-box, box, size=problem.dimension)
        g = problem.gradient(x)
        d = np.linalg.norm(fd(x) - g)
        assert d <= 1e-5 * (1.0 + np.linalg.norm(g))


class TestQuadratic:
    def test_reference_gradient_point(self):
        p = quadratic_problem(EX_MATRIX)
        assert np.allclose(p.gradient([10.0, -10.0]), [0.0, -60.0])

    def test_identity_matrix(self):
        p = quadratic_problem(np.eye(2))
        assert np.allclose(p.gradient([1.0, 2.0]), [2.0, 4.0])
        assert p.value([1.0, 2.0]) == 5.0

    def test_curvature_constants_are_spectrum_edges(self):
        p = quadratic_problem(EX_MATRIX)
        lo = (5.0 - math.sqrt(13.0)) / 2.0
        hi = (5.0 + math.sqrt(13.0)) / 2.0
        assert abs(p.strong_convexity - lo) < 1e-12
        assert abs(p.lipschitz - hi) < 1e-12

    def test_minimizer_at_origin(self):
        p = quadratic_problem(EX_MATRIX)
        assert np.allclose(p.minimizer, 0.0)
        assert p.value(p.minimizer) == 0.0
        assert np.linalg.norm(p.gradient(p.minimizer)) == 0.0

    def test_asymmetric_matrix_uses_symmetric_part(self):
        p = quadratic_problem([[2.0, 1.0], [0.0, 2.0]])
        # f = 2 x1^2 + x1 x2 + 2 x2^2; grad from A + A'
        assert np.allclose(p.gradient([1.0, 1.0]), [5.0, 5.0])
        assert abs(p.strong_convexity - 1.5) < 1e-12
        assert abs(p.lipschitz - 2.5) < 1e-12

    @pytest.mark.parametrize(
        "bad",
        [
            [[0.0, 0.0], [0.0, 1.0]],
            [[1.0, 1.0], [1.0, 1.0]],
            [[-1.0, 0.0], [0.0, -1.0]],
        ],
    )
    def test_rejects_non_positive_definite(self, bad):
        with pytest.raises(ValueError):
            quadratic_problem(bad)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            quadratic_problem([[1.0, 0.0]])
        with pytest.raises(ValueError):
            quadratic_problem([[math.nan, 0.0], [0.0, 1.0]])

    def test_gradient_variation_brackets(self):
        # the gradient map is x -> (A+A')x, so inner products against
        # displacements run between twice the stored curvature constants,
        # with equality exactly along the eigenvectors
        p = quadratic_problem(EX_MATRIX)
        sym = 0.5 * (np.asarray(EX_MATRIX) + np.asarray(EX_MATRIX).T)
        vals, vecs = np.linalg.eigh(sym)
        for lam, v in zip(vals, vecs.T):
            a = 3.0 * v
            b = -2.0 * v
            d = a - b
            ip = float((p.gradient(a) - p.gradient(b)) @ d)
            assert abs(ip - 2.0 * lam * float(d @ d)) < 1e-10
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.uniform(-10, 10, size=2)
            b = rng.uniform(-10, 10, size=2)
            d = a - b
            ip = float((p.gradient(a) - p.gradient(b)) @ d)
            nd = float(d @ d)
            assert 2.0 * p.strong_convexity * nd - 1e-9 <= ip <= 2.0 * p.lipschitz * nd + 1e-9

    def test_gradient_consistency(self):
        fd_check(quadratic_problem(EX_MATRIX), np.random.default_rng(11))


class TestZakharov:
    def test_minimum(self):
        p = zakharov_problem(2)
        assert p.value([0.0, 0.0]) == 0.0
        assert np.allclose(p.gradient([0.0, 0.0]), 0.0)
        assert np.allclose(p.minimizer, 0.0)

    def test_reference_value(self):
        p = zakharov_problem(2)
        # S = 1.5: 2 + 2.25 + 5.0625
        assert abs(p.value([1.0, 1.0]) - 9.3125) < 1e-12

    def test_no_global_constants(self):
        p = zakharov_problem(4)
        assert p.lipschitz is None
        assert p.strong_convexity is None

    def test_gradient_formula(self):
        p = zakharov_problem(3)
        x = np.array([1.0, -2.0, 0.5])
        s = 0.5 * 1 * 1.0 + 0.5 * 2 * (-2.0) + 0.5 * 3 * 0.5
        want = 2.0 * x + (2.0 * s + 4.0 * s ** 3) * np.array([0.5, 1.0, 1.5])
        assert np.allclose(p.gradient(x), want, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_gradient_consistency(self, n):
        fd_check(zakharov_problem(n), np.random.default_rng(n), count=100 if n <= 2 else 40)

    @pytest.mark.parametrize("bad", [0, -3, 1.5, True])
    def test_rejects_bad_dimension(self, bad):
        with pytest.raises(ValueError):
            zakharov_problem(bad)


class TestCustom:
    def test_explicit_gradient(self):
        p = custom_problem(
            1,
            value=lambda x: float(x[0] ** 4),
            gradient=lambda x: np.array([4.0 * x[0] ** 3]),
            minimizer=[0.0],
        )
        assert p.gradient([2.0])[0] == 32.0

    def test_finite_difference_fallback(self):
        p = custom_problem(2, value=lambda x: float(x[0] ** 2 + 3.0 * x[1] ** 4))
        g = p.gradient([1.0, 2.0])
        assert abs(g[0] - 2.0) < 1e-7
        assert abs(g[1] - 96.0) < 1e-4

    def test_fallback_consistency_invariant(self):
        p = custom_problem(
            2,
            value=lambda x: float(np.cos(x[0]) + 0.1 * x[1] ** 2 + x[0] * x[1]),
            gradient=lambda x: np.array([-np.sin(x[0]) + x[1], 0.2 * x[1] + x[0]]),
        )
        fd_check(p, np.random.default_rng(5))

    def test_rejects_false_minimizer(self):
        with pytest.raises(ValueError):
            custom_problem(
                1,
                value=lambda x: float(x[0] ** 2),
                gradient=lambda x: 2.0 * np.asarray(x),
                minimizer=[1.0],
            )

    def test_fd_step_validation(self):
        for bad in (0.0, math.inf, True, "a"):
            with pytest.raises(ValueError):
                finite_difference_gradient(lambda x: 0.0, step=bad)

    def test_rejects_bad_constants(self):
        for bad in (True, "a", -1.0):
            with pytest.raises(ValueError):
                custom_problem(1, value=lambda x: float(x[0] ** 2), lipschitz=bad)


class TestProblemRecord:
    def test_immutable(self):
        p = zakharov_problem(2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.dimension = 3

    def test_field_validation(self):
        ident = lambda x: 0.0
        grad0 = lambda x: np.zeros(2)
        for bad in (0, True):
            with pytest.raises(ValueError):
                Problem(dimension=bad, value=ident, gradient=grad0)
        for bad in (True, "a", math.nan):
            with pytest.raises(ValueError):
                Problem(dimension=2, value=ident, gradient=grad0, lipschitz=bad)
            with pytest.raises(ValueError):
                Problem(dimension=2, value=ident, gradient=grad0, strong_convexity=bad)
        with pytest.raises(TypeError):
            Problem(dimension=2, value=None, gradient=grad0)
        with pytest.raises(ValueError):
            Problem(dimension=2, value=ident, gradient=grad0, lipschitz=-1.0)
        with pytest.raises(ValueError):
            Problem(dimension=2, value=ident, gradient=grad0, strong_convexity=0.0)
        with pytest.raises(ValueError):
            Problem(
                dimension=2, value=ident, gradient=grad0, lipschitz=1.0, strong_convexity=2.0
            )
        with pytest.raises(ValueError):
            Problem(dimension=2, value=ident, gradient=grad0, minimizer=[0.0, 0.0, 0.0])
