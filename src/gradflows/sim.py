"""Fixed-step integration of flow laws with convergence detection.

One Heun routine advances (x, theta) for every law.  The law only picks,
once per run, the rule that moves the gain: held fixed, a trapezoid step of
its linear ODE, or the Caputo corrector of the memory channel, which
advances on the same uniform grid.  Near the minimizer the regularized field
becomes stiff for an explicit scheme (its local rate scales like
rho/delta^alpha), so each step carries a guard: when the step looks
oscillatory or the Lyapunov value would tick up past a small fraction of its
allowance, the step is redone with power-of-two substeps.  One rule picks
their count: enough for the trial's rate, then four times more until every
substep's rate-times-step is inside the scheme's monotone-stable range or the
count reaches its cap.  Ascent left after that is accepted and counted as
`residual_ascent_steps`.  Substeps refine only the decision vector's clock;
the fractional memory stays on the coarse grid (its own right-hand side is
smooth through the terminal zone).

Fields are plain (dx, dtheta) tuples.  The field at a state the step
starts from (an accepted state or a substep's start) is a direct call of
the public `vector_field`, which returns that tuple.  The field at the
predicted point, a stage inside the gain rule, is finished on arrays with
`flows._rhs`, the arithmetic `vector_field` wraps, and so is the field at
an accepted state whose gradient the `eps_g` test already fetched.  Every
law makes 2 gradient calls per unguarded step, one at the predicted point
and one at the accepted state.  `integrate`, `applicable_bound` and
`vector_field` check a state's shape with one helper, `flows._state`.

The start is an accepted state like any other.  At each one `integrate`
runs, in order, detection, the record (every `record_stride`-th state, the
last and a detected one), the return at detection or the horizon, and only
then the field there, so no field is evaluated at the last state.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._checks import positive_int, real_in
from .caputo import CaputoChannel
from .flows import (
    BoundReport,
    FlowLaw,
    FlowVariant,
    InsufficientConstantsError,
    _drive,
    _gradient,
    _law_from,
    _rhs,
    _state,
    bound_finite_time,
    bound_fixed_time_fractional,
    bound_fixed_time_second_order,
    vector_field,
)
from .problems import Problem

__all__ = [
    "DivergenceError",
    "SimOptions",
    "Trajectory",
    "SweepEntry",
    "integrate",
    "applicable_bound",
    "sweep",
]

# state-norm ceiling beyond which the run is declared divergent
_NORM_CEILING = 1e8
# per-step Lyapunov uptick allowance, as a fraction of the initial value
_UPTICK_FRACTION = 1e-6
# the guard targets a quarter of the allowance so accepted steps keep margin
_UPTICK_TARGET = 0.25
# local rate-times-step estimate beyond which a step counts as oscillatory
_STIFFNESS_TRIGGER = 1.5
# substepped runs refine until their own rate-times-substep falls below this,
# keeping the inner map monotone-stable (no spurious period-two parking)
_SUBSTEP_RATE_CAP = 0.5
_MAX_SUBSTEPS = 1 << 16


class DivergenceError(RuntimeError):
    """The state left the finite range; carries the last valid time."""

    def __init__(self, message: str, last_valid_time: float):
        super().__init__(message)
        self.last_valid_time = last_valid_time


@dataclass(frozen=True)
class SimOptions:
    """Grid, horizon, detection tolerances, and recording stride."""

    step: float = 1e-4
    horizon: float = 5.0
    eps_x: float = 1e-3
    eps_g: float = 1e-3
    record_stride: int = 1

    def __post_init__(self):
        real_in("step", self.step)
        real_in("horizon", self.horizon, -math.inf)
        if not self.step < self.horizon:
            raise ValueError(
                "step %g must be smaller than the horizon %g" % (self.step, self.horizon)
            )
        real_in("eps_x", self.eps_x)
        real_in("eps_g", self.eps_g)
        positive_int("record stride", self.record_stride)


@dataclass(frozen=True)
class Trajectory:
    """Recorded history of one integration.

    `lyapunov` is the squared distance to the minimizer when it is known,
    None otherwise.  `convergence_time` is the first grid time meeting the
    detection tolerance, after which the state is frozen and recording stops.
    `diagnostics` reports the stiffness guard's activity.
    """

    times: np.ndarray
    states: np.ndarray
    gains: Optional[np.ndarray]
    lyapunov: Optional[np.ndarray]
    convergence_time: Optional[float]
    diagnostics: dict = field(default_factory=dict)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _norm(v):
    # what np.linalg.norm computes for a real vector, without its dispatch
    return math.sqrt(v.dot(v))


def _heun(field_at, gain, x, theta, d1, h, m):
    """m Heun substeps of (x, theta) across one grid step h.

    `d1` is the field (dx, dtheta) at (x, theta) and `field_at(x, theta)`
    evaluates it at the start of each later substep.  `gain(theta, d1, xp,
    hs)` returns the field's dx at the predicted point xp together with the
    gain at the end of the substep, so the rule alone decides how theta
    moves.  Also reports the worst rate-times-substep seen, so the caller
    can tell whether this resolution is inside the scheme's monotone-stable
    range.
    """
    hs = h / m
    worst = 0.0
    for i in range(m):
        if i:
            d1 = field_at(x, theta)
        dx1 = d1[0]
        xp = x + hs * dx1
        dx2, theta = gain(theta, d1, xp, hs)
        # no first-order motion (e.g. starting from rest) means the Heun
        # correction itself is the motion, not an oscillation
        move = _norm(xp - x)
        if move > 0.0:
            worst = max(worst, hs * _norm(dx2 - dx1) / move)
        x = x + 0.5 * hs * (dx1 + dx2)
    return x, theta, worst


def integrate(law: FlowLaw, problem: Problem, x0, opts: Optional[SimOptions] = None) -> Trajectory:
    """Advance a flow law from x0, stopping at detection or the horizon.

    The gain state (when the law has one) always starts at zero; the
    fractional memory channel is created here and advances on the same grid.
    Raises DivergenceError when the state leaves the finite range and
    propagates SingularityError from unregularized fields.
    """
    if opts is None:
        opts = SimOptions()
    x = _state(problem, x0)
    if not np.all(np.isfinite(x)):
        raise ValueError("initial state must be finite")

    def field_at(x, theta):
        return vector_field(law, problem, x, theta)

    # gain rules: each evaluates the gradient at the predicted point, a stage
    # of the scheme rather than a state, and returns the field's dx there and
    # the gain at the end of the step
    def frozen(theta, d1, xp, hs):
        g, norm_g = _gradient(problem, xp)
        return _rhs(law, g, norm_g, theta)[0], theta

    def coupled(theta, d1, xp, hs):
        g, norm_g = _gradient(problem, xp)
        dx2, dtheta2 = _rhs(law, g, norm_g, theta + hs * d1[1])
        return dx2, theta + 0.5 * hs * (d1[1] + dtheta2)

    def caputo(theta, d1, xp, hs):
        # d1 is the field at the accepted state, so its drive is the sample
        # the memory takes for that grid point; one gradient at xp serves
        # both the drive the corrector needs and the corrected field
        channel.push(d1[1])
        g, norm_g = _gradient(problem, xp)
        tp = channel.correct(hs, _drive(law, norm_g))
        return _rhs(law, g, norm_g, tp)[0], tp

    # the fractional guard substeps only the vector clock: the gain keeps its
    # coarse-grid corrected value and the memory stays on the coarse grid
    channel = None
    if law.variant is FlowVariant.FIXED_TIME_FRACTIONAL:
        channel = CaputoChannel(law.beta, 0.0)
        trial, guard = caputo, frozen
    elif law.uses_gain:
        trial = guard = coupled
    else:
        trial = guard = frozen

    xstar = problem.minimizer
    h = opts.step
    n_steps = int(math.ceil(opts.horizon / h - 1e-9))
    times, states = [], []
    gains = [] if law.uses_gain else None
    lyap = [] if xstar is not None else None
    diagnostics = {"substepped_steps": 0, "max_substeps": 1, "residual_ascent_steps": 0}
    # without a minimizer there is no Lyapunov value, hence no ascent guard
    ascent, v_quarter = -math.inf, math.inf
    if xstar is not None:
        dist = _norm(x - xstar)
        v = dist ** 2
        v_quarter = _UPTICK_TARGET * _UPTICK_FRACTION * v

    def measured(x_new):
        # distance to the minimizer, Lyapunov value, and its rise over the
        # accepted state's value
        dist_new = _norm(x_new - xstar)
        v_new = dist_new ** 2
        return dist_new, v_new, v_new - v

    def accepted_field(theta):
        # the field at the accepted state x, reusing a gradient detection fetched
        return field_at(x, theta) if xstar is not None else _rhs(law, g, norm_g, theta)

    # accepted states k = 0..n_steps, the start included; at each one:
    # detection, the record, the return, then the field there
    theta = 0.0 if law.uses_gain else None
    for k in range(n_steps + 1):
        t = k * h
        # without a minimizer detection reads the gradient norm, and the field
        # at this state reuses it
        if xstar is not None:
            done = dist <= opts.eps_x
        else:
            g, norm_g = _gradient(problem, x)
            done = norm_g <= opts.eps_g
        if k % opts.record_stride == 0 or k == n_steps or done:
            times.append(t)
            states.append(x)
            if gains is not None:
                gains.append(theta)
            if lyap is not None:
                lyap.append(v)
        if done or k == n_steps:
            return Trajectory(
                times=np.array(times),
                states=np.array(states),
                gains=np.array(gains) if gains is not None else None,
                lyapunov=np.array(lyap) if lyap is not None else None,
                convergence_time=t if done else None,
                diagnostics=diagnostics,
            )
        d1 = accepted_field(theta)

        x_new, theta_new, rate_times_step = _heun(field_at, trial, x, theta, d1, h, 1)
        if xstar is not None:
            dist_new, v_new, ascent = measured(x_new)

        if rate_times_step > _STIFFNESS_TRIGGER or ascent > v_quarter:
            theta_g, d1_g = theta, d1
            if guard is not trial:
                # the guard holds the gain at the trial's corrected value
                theta_g = theta_new
                d1_g = accepted_field(theta_g)
            m = 2
            while m * _UPTICK_TARGET < rate_times_step and m < _MAX_SUBSTEPS:
                m *= 2
            # a substepped map still outside the monotone range can park on a
            # spurious cycle that never enters the detection ball, so refine
            # until the local rate is resolved; a NaN rate ends the loop
            while True:
                x_new, theta_new, sub_rate = _heun(field_at, guard, x, theta_g, d1_g, h, m)
                if not sub_rate > _SUBSTEP_RATE_CAP or m >= _MAX_SUBSTEPS:
                    break
                m = min(m * 4, _MAX_SUBSTEPS)
            if xstar is not None:
                dist_new, v_new, ascent = measured(x_new)
                if ascent > v_quarter:
                    diagnostics["residual_ascent_steps"] += 1
            diagnostics["substepped_steps"] += 1
            diagnostics["max_substeps"] = max(diagnostics["max_substeps"], m)

        # a NaN norm fails the comparison too
        if not _norm(x_new) <= _NORM_CEILING:
            raise DivergenceError(
                "state norm left the finite range at t=%g (last valid t=%g)" % ((k + 1) * h, t),
                last_valid_time=t,
            )
        x, theta = x_new, theta_new
        if xstar is not None:
            dist, v = dist_new, v_new


def applicable_bound(law: FlowLaw, problem: Problem, x0) -> BoundReport:
    """The convergence-time guarantee matching a law, from problem constants.

    Raises InsufficientConstantsError (missing curvature constants or
    minimizer), ConditionNotMetError, or ZeroSearchError as appropriate.
    """
    x0 = _state(problem, x0)
    L = problem.lipschitz
    mu = problem.strong_convexity
    if L is None:
        raise InsufficientConstantsError("problem carries no gradient-continuity constant")
    if law.variant is FlowVariant.FINITE_TIME:
        if problem.minimizer is None:
            raise InsufficientConstantsError(
                "finite-time bound needs the minimizer to measure the initial distance"
            )
        d = _norm(x0 - problem.minimizer)
        return bound_finite_time(L, law.rho, law.alpha, d, strong_convexity=mu)
    if mu is None:
        raise InsufficientConstantsError("problem carries no strong-convexity constant")
    if law.variant is FlowVariant.FIXED_TIME_SECOND_ORDER:
        return bound_fixed_time_second_order(L, mu, law.rho, law.alpha, lam=law.lam)
    return bound_fixed_time_fractional(L, mu, law.rho, law.alpha, law.beta)


@dataclass(frozen=True)
class SweepEntry:
    """One sweep run: its label, outcome, and matching bound when available."""

    label: str
    trajectory: Optional[Trajectory]
    bound: Optional[BoundReport]
    error: Optional[str] = None


def _format_override(value) -> str:
    # label text for any value, so that a malformed one fails in its own run
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return ",".join(
            "%g" % v if isinstance(v, numbers.Real) else _format_override(v) for v in value
        )
    if isinstance(value, float):
        return "%g" % value
    return str(value)


def sweep(law: FlowLaw, problem: Problem, variations, opts: Optional[SimOptions] = None, x0=None):
    """Run one trajectory per variation, collecting results in input order.

    Each variation is a mapping that may override law parameters
    (variant/rho/alpha/lambda/beta/delta), supply an initial state under
    'x0', and name itself under 'label'.  A label that is not a string
    raises ValueError before any run.  Failures are captured in the entry's
    error slot without aborting the remaining runs; bounds are attached when
    the problem's constants allow one.
    """
    specs = [dict(spec) for spec in variations]
    for spec in specs:
        label = spec.get("label")
        if label is not None and not isinstance(label, str):
            raise ValueError("a sweep label must be a string, got %r" % (label,))
    entries = []
    for i, spec in enumerate(specs):
        label = spec.pop("label", None)
        has_own_x0 = "x0" in spec
        run_x0 = spec.pop("x0", x0)
        if label is None:
            parts = ["%s=%s" % (k, _format_override(spec[k])) for k in sorted(spec)]
            if has_own_x0:
                parts.append("x0=%s" % _format_override(run_x0))
            label = "_".join(parts) if parts else "run_%d" % i
        try:
            run_law = _law_from(spec, law)
            if run_x0 is None:
                raise ValueError("variation provides no initial state and no default given")
            traj = integrate(run_law, problem, run_x0, opts)
        except Exception as exc:  # per-run capture is the contract
            entries.append(SweepEntry(label=label, trajectory=None, bound=None, error=str(exc)))
            continue
        try:
            report = applicable_bound(run_law, problem, run_x0)
            if traj.convergence_time is not None:
                report = report.with_observed(traj.convergence_time)
        except Exception:
            report = None
        entries.append(SweepEntry(label=label, trajectory=traj, bound=report, error=None))
    return entries
