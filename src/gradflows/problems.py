"""Objective functions with gradient oracles and convexity constants.

Factories here return immutable Problem records: the quadratic family (with
its curvature constants read off the symmetric part's spectrum), the Zakharov
test function (convex but neither strongly convex nor gradient-Lipschitz
globally), and user-supplied objectives with an optional finite-difference
gradient fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._checks import positive_int, real_in

__all__ = [
    "Problem",
    "quadratic_problem",
    "zakharov_problem",
    "custom_problem",
]

_FD_STEP = 1e-6
_GRAD_AT_MIN = 1e-12


@dataclass(frozen=True)
class Problem:
    """Smooth objective with oracles and optional structure constants.

    `lipschitz` bounds the gradient's variation and `strong_convexity` its
    coercivity, both in the inner-product sense on sampled pairs; either may
    be absent when the objective has no global constant.  Instances are
    immutable and the oracles are pure, so sharing across threads is safe.
    """

    dimension: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    minimizer: Optional[np.ndarray] = None
    lipschitz: Optional[float] = None
    strong_convexity: Optional[float] = None

    def __post_init__(self):
        positive_int("dimension", self.dimension)
        if not callable(self.value) or not callable(self.gradient):
            raise TypeError("value and gradient oracles must be callable")
        if self.lipschitz is not None:
            object.__setattr__(self, "lipschitz", real_in("lipschitz constant", self.lipschitz))
        if self.strong_convexity is not None:
            object.__setattr__(
                self, "strong_convexity", real_in("strong convexity constant", self.strong_convexity)
            )
            if self.lipschitz is not None and self.strong_convexity > self.lipschitz:
                raise ValueError(
                    "strong convexity %g exceeds gradient continuity %g"
                    % (self.strong_convexity, self.lipschitz)
                )
        if self.minimizer is not None:
            xs = np.asarray(self.minimizer, dtype=float)
            if xs.shape != (self.dimension,):
                raise ValueError(
                    "minimizer shape %s does not match dimension %d" % (xs.shape, self.dimension)
                )
            object.__setattr__(self, "minimizer", xs)
            g = float(np.linalg.norm(self.gradient(xs)))
            if not g <= _GRAD_AT_MIN:
                raise ValueError(
                    "gradient norm %g at the declared minimizer exceeds %g" % (g, _GRAD_AT_MIN)
                )


def quadratic_problem(matrix) -> "Problem":
    """Quadratic objective f(x) = x'Ax with gradient (A + A')x.

    The stored curvature constants are the extreme eigenvalues of the
    symmetric part (A + A')/2; note the gradient map itself varies twice
    that fast, a deliberate convention so the published convergence-time
    numbers come out of the bound formulas unchanged.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix, got shape %s" % (a.shape,))
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    sym = 0.5 * (a + a.T)
    eigs = np.linalg.eigvalsh(sym)
    if eigs[0] <= 0.0:
        raise ValueError(
            "symmetric part must be positive definite; smallest eigenvalue %g" % eigs[0]
        )
    n = a.shape[0]
    grad_matrix = a + a.T

    def value(x):
        x = np.asarray(x, dtype=float)
        return float(x @ a @ x)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return grad_matrix @ x

    return Problem(
        dimension=n,
        value=value,
        gradient=gradient,
        minimizer=np.zeros(n),
        lipschitz=float(eigs[-1]),
        strong_convexity=float(eigs[0]),
    )


def zakharov_problem(dimension: int) -> "Problem":
    """Zakharov objective: sum of squares plus even powers of a weighted sum.

    f(x) = sum x_i^2 + S^2 + S^4 with S = sum 0.5*i*x_i (1-based i).  Convex
    with a unique minimum at the origin, but no global curvature constants,
    so both are left absent.
    """
    n = positive_int("dimension", dimension)
    w = 0.5 * np.arange(1, n + 1, dtype=float)

    def value(x):
        x = np.asarray(x, dtype=float)
        s = float(w @ x)
        return float(x @ x) + s * s + s ** 4

    def gradient(x):
        x = np.asarray(x, dtype=float)
        s = float(w @ x)
        return 2.0 * x + (2.0 * s + 4.0 * s ** 3) * w

    return Problem(
        dimension=n,
        value=value,
        gradient=gradient,
        minimizer=np.zeros(n),
    )


def finite_difference_gradient(value: Callable[[np.ndarray], float], step: float = _FD_STEP):
    """Central-difference gradient oracle built from a value oracle."""
    step = real_in("finite-difference step", step)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        g = np.empty_like(x)
        for i in range(len(x)):
            e = np.zeros_like(x)
            e[i] = step
            g[i] = (value(x + e) - value(x - e)) / (2.0 * step)
        return g

    return gradient


def custom_problem(
    dimension: int,
    value: Callable[[np.ndarray], float],
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    minimizer=None,
    lipschitz: Optional[float] = None,
    strong_convexity: Optional[float] = None,
) -> "Problem":
    """Wrap a user objective; without a gradient callback, fall back to
    central finite differences with step 1e-6."""
    if gradient is None:
        gradient = finite_difference_gradient(value)
    return Problem(
        dimension=dimension,
        value=value,
        gradient=gradient,
        minimizer=minimizer,
        lipschitz=lipschitz,
        strong_convexity=strong_convexity,
    )
