"""Continuous-time gradient flows with finite-time and fixed-time convergence.

Simulation of three normalized-gradient dynamics families, a Caputo-derivative
channel integrator, Mittag-Leffler special functions, and the matching
convergence-time bound calculators.
"""

__version__ = "0.1.0"

from .caputo import CaputoChannel, InconsistentStateError, solve_caputo
from .flows import (
    BoundReport,
    ConditionNotMetError,
    FlowLaw,
    FlowVariant,
    InsufficientConstantsError,
    SingularityError,
    bound_finite_time,
    bound_fixed_time_fractional,
    bound_fixed_time_second_order,
    vector_field,
)
from .problems import Problem, custom_problem, quadratic_problem, zakharov_problem
from .sim import (
    DivergenceError,
    SimOptions,
    SweepEntry,
    Trajectory,
    applicable_bound,
    integrate,
    sweep,
)
from .special import (
    MLSpec,
    ZeroKind,
    ZeroQuery,
    ZeroSearchError,
    gamma,
    ml_eval,
    ml_first_positive_zero,
    ml_kernel_eval,
)

__all__ = [
    "BoundReport",
    "CaputoChannel",
    "ConditionNotMetError",
    "DivergenceError",
    "FlowLaw",
    "FlowVariant",
    "InconsistentStateError",
    "InsufficientConstantsError",
    "MLSpec",
    "Problem",
    "SimOptions",
    "SingularityError",
    "SweepEntry",
    "Trajectory",
    "ZeroKind",
    "ZeroQuery",
    "ZeroSearchError",
    "applicable_bound",
    "bound_finite_time",
    "bound_fixed_time_fractional",
    "bound_fixed_time_second_order",
    "custom_problem",
    "gamma",
    "integrate",
    "ml_eval",
    "ml_first_positive_zero",
    "ml_kernel_eval",
    "quadratic_problem",
    "solve_caputo",
    "sweep",
    "vector_field",
    "zakharov_problem",
    "__version__",
]
