"""Flow laws and convergence-time bound calculators.

Three continuous-time descent designs over a Problem:

* finite-time law: gradient direction rescaled by an inverse power of the
  gradient norm, optionally regularized near the minimum;
* fixed-time second-order law: the same normalized direction multiplied by an
  auxiliary gain that is itself driven by the gradient norm, with linear decay;
* fixed-time fractional law: the auxiliary gain driven through a fractional
  derivative of order beta in (0,1) instead.

The bound calculators are pure arithmetic over supplied curvature constants
and never inspect a Problem; each returns a BoundReport naming the rule that
produced it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from ._checks import real_in
from .problems import Problem
from .special import ZeroQuery, ml_first_positive_zero

__all__ = [
    "FlowVariant",
    "FlowLaw",
    "BoundReport",
    "SingularityError",
    "ConditionNotMetError",
    "InsufficientConstantsError",
    "vector_field",
    "bound_finite_time",
    "bound_fixed_time_second_order",
    "bound_fixed_time_fractional",
]


class SingularityError(ArithmeticError):
    """The unregularized field was evaluated where the gradient vanishes."""


class ConditionNotMetError(ValueError):
    """A bound's validity condition fails for the supplied constants."""


class InsufficientConstantsError(ValueError):
    """A bound needs a curvature constant that was not supplied."""


class FlowVariant(Enum):
    """Which of the three descent designs a FlowLaw encodes."""

    FINITE_TIME = "finite_time"
    FIXED_TIME_SECOND_ORDER = "fixed_time_second_order"
    FIXED_TIME_FRACTIONAL = "fixed_time_fractional"


# each constant's interval as real_in's (low, high, low_closed, high_closed),
# under the name that messages and BoundReport.inputs use
_INTERVALS = {
    "lipschitz": (0.0, math.inf, False, False),
    "strong_convexity": (0.0, math.inf, False, False),
    "rho": (0.0, math.inf, False, False),
    "alpha": (0.0, 2.0, False, True),
    "lambda": (0.0, math.inf, True, False),
    "delta": (0.0, math.inf, True, False),
    "beta": (0.0, 1.0, False, False),
    "initial_distance": (0.0, math.inf, True, False),
}


def _constant(name: str, value) -> float:
    """`value` as a float when it lies in the interval of the constant `name`."""
    return real_in(name, value, *_INTERVALS[name])


def _constants(names, *values) -> dict:
    """{name: value as a float} in `names` order, each checked against its interval."""
    return {name: real_in(name, value, *_INTERVALS[name]) for name, value in zip(names, values)}


@dataclass(frozen=True)
class FlowLaw:
    """Parameters of one descent design.

    `lam` is the auxiliary gain's linear decay rate; it only enters the
    second-order law (the fractional design has no decay term, and the
    finite-time design has no gain), but is accepted everywhere so configs
    can carry it harmlessly.  `beta` is the fractional order and is required
    exactly for the fractional variant.  `delta` regularizes the x-equation
    denominator only.
    """

    variant: FlowVariant
    rho: float
    alpha: float
    lam: float = 0.0
    beta: Optional[float] = None
    delta: float = 0.01

    def __post_init__(self):
        if isinstance(self.variant, str):
            object.__setattr__(self, "variant", FlowVariant(self.variant))
        elif not isinstance(self.variant, FlowVariant):
            raise ValueError("unknown flow variant %r" % (self.variant,))
        checked = (("rho", "rho"), ("alpha", "alpha"), ("lambda", "lam"), ("delta", "delta"))
        for name, attr in checked:
            object.__setattr__(self, attr, _constant(name, getattr(self, attr)))
        if self.variant is FlowVariant.FIXED_TIME_FRACTIONAL:
            if self.beta is None:
                raise ValueError("the fractional variant needs a fractional order beta")
            object.__setattr__(self, "beta", _constant("beta", self.beta))
        elif self.beta is not None:
            raise ValueError(
                "beta only applies to the fractional variant, got beta=%r for %s"
                % (self.beta, self.variant.value)
            )

    @property
    def uses_gain(self) -> bool:
        """True when the law carries the auxiliary gain state."""
        return self.variant is not FlowVariant.FINITE_TIME


# the keys a law mapping may carry: FlowLaw's fields, and `lambda` for `lam`
_LAW_KEYS = frozenset(f.name for f in dataclasses.fields(FlowLaw)) | {"lambda"}


def _law_from(spec, base: Optional[FlowLaw] = None) -> FlowLaw:
    """The FlowLaw that a mapping of law fields describes, over `base` if given.

    Configs and sweep variations spell `lam` as `lambda`; either is read.
    Any other key raises ValueError.
    """
    fields = dict(spec)
    unknown = fields.keys() - _LAW_KEYS
    if unknown:
        raise ValueError("unknown flow law keys: %s" % ", ".join(sorted(unknown)))
    if "lambda" in fields:
        fields["lam"] = fields.pop("lambda")
    if base is None:
        return FlowLaw(**fields)
    return dataclasses.replace(base, **fields) if fields else base


def _state(problem: Problem, x) -> np.ndarray:
    """x as a float vector of the problem's dimension, else ValueError."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dimension,):
        raise ValueError(
            "state shape %s does not match problem dimension %d" % (x.shape, problem.dimension)
        )
    return x


def _gradient(problem: Problem, x: np.ndarray):
    """The gradient at x and its norm, rejecting an oracle output not shaped like x."""
    g = np.asarray(problem.gradient(x), dtype=float)
    if g.shape != x.shape:
        raise ValueError(
            "gradient returned shape %s for a state of shape %s" % (g.shape, x.shape)
        )
    return g, math.sqrt(g.dot(g))


def _drive(law: FlowLaw, norm_g: float) -> float:
    """The gain laws' drive rho * ||g||^alpha."""
    return law.rho * norm_g ** law.alpha


def _rhs(law: FlowLaw, g: np.ndarray, norm_g: float, theta: Optional[float]):
    """The law's right-hand side (dx, dtheta) from the gradient at a state.

    The one implementation of the field arithmetic: `vector_field` wraps it,
    and the integrator calls it directly where it already holds the gradient
    at the point.  `dtheta` is as in `vector_field`.
    """
    delta = law.delta
    if norm_g == 0.0 and delta == 0.0:
        raise SingularityError(
            "gradient vanished with delta=0; detect convergence before stepping"
        )
    scale = (norm_g + delta) ** law.alpha
    variant = law.variant
    if variant is FlowVariant.FINITE_TIME:
        return (-law.rho / scale) * g, None
    dx = (-theta / scale) * g
    drive = _drive(law, norm_g)
    if variant is FlowVariant.FIXED_TIME_SECOND_ORDER:
        return dx, -law.lam * theta + drive
    return dx, drive


def vector_field(law: FlowLaw, problem: Problem, x, theta: Optional[float] = None):
    """The chosen law's right-hand side (dx, dtheta) at the state (x, theta).

    `theta` is the auxiliary gain, which the two fixed-time laws need.
    `dtheta` is None for the finite-time law; for the fractional law it is
    the Caputo right-hand side, to be fed to the memory channel rather than
    integrated directly.  Raises SingularityError when the gradient vanishes
    while delta = 0; the caller is expected to have detected convergence
    before that point.
    """
    x = _state(problem, x)
    if theta is None and law.uses_gain:
        raise ValueError("%s needs the auxiliary gain theta" % law.variant.value)
    return _rhs(law, *_gradient(problem, x), theta)


# ---------------------------------------------------------------------------
# convergence-time bounds

@dataclass(frozen=True)
class BoundReport:
    """A convergence-time guarantee with its provenance and inputs.

    `rule` names the formula that produced the bound; `inputs` echoes the
    constants used; `observed` may be filled in after a simulation; `extras`
    carries secondary numbers such as alternate formula variants.
    """

    rule: str
    bound: float
    inputs: dict
    observed: Optional[float] = None
    notes: tuple = ()
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if math.isnan(self.bound) or self.bound < 0.0:
            raise ValueError("bound must be nonnegative, got %r" % (self.bound,))

    def with_observed(self, t: float) -> "BoundReport":
        """Copy of this report carrying a measured convergence time."""
        return dataclasses.replace(self, observed=float(t))


def _in_range(quantity: str, compute, zero_ok: bool = False) -> float:
    """`compute()` when it is a finite positive float, or zero if `zero_ok`.

    Otherwise the constants are valid but the bound's arithmetic leaves
    double range, and ConditionNotMetError names `quantity`.
    """
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if 0.0 < value < math.inf or zero_ok and value == 0.0:
        return value
    raise ConditionNotMetError("%s = %g leaves the double range" % (quantity, value))


def _drive_coefficient(lipschitz: float, mu: float, rho: float, alpha: float) -> float:
    """The fixed-time bounds' coefficient c = 4 rho mu^2 / (alpha L)."""
    return _in_range(
        "the drive coefficient 4*rho*mu^2/(alpha*L)",
        lambda: 4.0 * rho * mu * mu / (alpha * lipschitz),
    )


def bound_finite_time(
    lipschitz: float,
    rho: float,
    alpha: float,
    initial_distance: float,
    strong_convexity: Optional[float] = None,
) -> BoundReport:
    """Convergence-time bound for the finite-time law.

    At alpha = 2 only the gradient-continuity constant enters:
    bound = lipschitz * d^2 / (2 rho).  For alpha in (0, 2) strong convexity
    is required and bound = lipschitz * d^alpha / (rho * mu^(2-alpha) * alpha)
    with mu the strong-convexity constant.  Both grow with the initial
    distance d — the guarantee is finite-time, not fixed-time.
    """
    inputs = _constants(
        ("lipschitz", "rho", "alpha", "initial_distance"), lipschitz, rho, alpha, initial_distance
    )
    L, rho, alpha, d = inputs.values()
    if alpha == 2.0:
        bound = _in_range("the bound L*d^2/(2*rho)", lambda: L * d * d / (2.0 * rho), d == 0.0)
        return BoundReport(rule="finite_time_alpha2", bound=bound, inputs=inputs)
    if strong_convexity is None:
        raise InsufficientConstantsError(
            "alpha=%g < 2 needs the strong-convexity constant" % alpha
        )
    mu = _constant("strong_convexity", strong_convexity)
    # the same order as the other rules' inputs: strong convexity second
    inputs = {"lipschitz": L, "strong_convexity": mu, **inputs}
    scale = _in_range("rho*mu^(2-alpha)*alpha", lambda: rho * mu ** (2.0 - alpha) * alpha)
    bound = _in_range(
        "the bound L*d^alpha/(rho*mu^(2-alpha)*alpha)", lambda: L * d ** alpha / scale, d == 0.0
    )
    return BoundReport(rule="finite_time_general", bound=bound, inputs=inputs)


def bound_fixed_time_second_order(
    lipschitz: float,
    strong_convexity: float,
    rho: float,
    alpha: float,
    lam: float = 0.0,
) -> BoundReport:
    """Initial-condition-free bound for the second-order fixed-time law.

    Valid when lam^2 < 8 rho mu^2 / (alpha L); then
    bound = pi / sqrt(4 rho mu^2 / (alpha L) - lam^2 / 4).  At alpha = 2 an
    alternate stated form with coefficient 4 rho mu^2 / L (instead of the
    general formula's 2 rho mu^2 / L) circulates; it is reported under
    extras['alpha2_variant_bound'] with the general formula kept
    authoritative.
    """
    inputs = _constants(
        ("lipschitz", "strong_convexity", "rho", "alpha", "lambda"),
        lipschitz, strong_convexity, rho, alpha, lam,
    )
    L, mu, rho, alpha, lam = inputs.values()
    c = _drive_coefficient(L, mu, rho, alpha)
    gate = 2.0 * c
    if not lam * lam < gate:
        raise ConditionNotMetError(
            "decay rate fails the validity condition: lambda^2 = %g must stay below "
            "8*rho*mu^2/(alpha*L) = %g" % (lam * lam, gate)
        )
    notes = ()
    extras = {}
    if alpha == 2.0:
        # pi / sqrt(2c - lam^2/4) without forming 2c, which can overflow
        extras["alpha2_variant_bound"] = (
            math.pi / math.sqrt(2.0) / math.sqrt(c - 0.125 * lam * lam)
        )
        notes = (
            "alpha=2 has an alternate stated form with coefficient 4*rho*mu^2/L; "
            "the general-formula value is authoritative",
        )
    return BoundReport(
        rule="fixed_time_second_order",
        bound=math.pi / math.sqrt(c - 0.25 * lam * lam),
        inputs=inputs,
        notes=notes,
        extras=extras,
    )


def bound_fixed_time_fractional(
    lipschitz: float,
    strong_convexity: float,
    rho: float,
    alpha: float,
    beta: float,
    zero_tol: float = 1e-6,
    horizon: float = 100.0,
) -> BoundReport:
    """Initial-condition-free bound for the fractional fixed-time law.

    The bound is the first positive zero of E_{beta+1,1}(-c t^(beta+1)) with
    drive coefficient c = 4 rho mu^2 / (alpha L).  Search failures from the
    zero finder propagate (raise the horizon for very small c).
    """
    inputs = _constants(
        ("lipschitz", "strong_convexity", "rho", "alpha", "beta"),
        lipschitz, strong_convexity, rho, alpha, beta,
    )
    L, mu, rho, alpha, beta = inputs.values()
    c = _drive_coefficient(L, mu, rho, alpha)
    zero = ml_first_positive_zero(
        ZeroQuery(alpha=beta + 1.0, rho=c), tol=zero_tol, horizon=horizon
    )
    return BoundReport(
        rule="fixed_time_fractional",
        bound=zero,
        inputs=inputs,
        extras={"drive_coefficient": c},
    )
