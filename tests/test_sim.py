"""Integrator behavior: detection, guards, divergence, sweeps.

Quantitative anchors: the identity quadratic gives the finite-time law an
almost-exactly-computable detection time (speed ~ rho along the ray once
the gradient norm clears delta), and all other frozen windows come from
step-halving-stable measured runs on the two-variable benchmark quadratic.
"""

import math

import numpy as np
import pytest

from gradflows.flows import (
    FlowLaw,
    InsufficientConstantsError,
    SingularityError,
    bound_fixed_time_second_order,
    vector_field,
)
from gradflows.problems import custom_problem, quadratic_problem, zakharov_problem
from gradflows.sim import (
    DivergenceError,
    SimOptions,
    SweepEntry,
    Trajectory,
    applicable_bound,
    integrate,
    sweep,
)

EX = quadratic_problem([[1.0, 1.0], [1.0, 4.0]])
EYE = quadratic_problem([[1.0, 0.0], [0.0, 1.0]])

FT1 = FlowLaw(variant="finite_time", rho=10.0, alpha=1.0, delta=0.01)
SO = FlowLaw(variant="fixed_time_second_order", rho=10.0, alpha=1.0, lam=1.0, delta=0.01)
FR = FlowLaw(variant="fixed_time_fractional", rho=10.0, alpha=1.0, beta=0.5, delta=0.01)


def uptick_ok(traj):
    dv = np.diff(traj.lyapunov)
    return dv.max(initial=-np.inf) <= 1e-6 * traj.lyapunov[0]


class TestSimOptions:
    def test_defaults(self):
        o = SimOptions()
        assert o.step == 1e-4
        assert o.horizon == 5.0
        assert o.eps_x == 1e-3
        assert o.eps_g == 1e-3
        assert o.record_stride == 1

    @pytest.mark.parametrize(
        "kw",
        [
            {"step": 0.0},
            {"step": -1e-3},
            {"step": math.nan},
            {"step": 2.0, "horizon": 1.0},
            {"step": 1.0, "horizon": 1.0},
            {"horizon": math.inf},
            {"eps_x": 0.0},
            {"eps_g": -1.0},
            {"record_stride": 0},
            {"record_stride": 1.5},
            {"record_stride": True},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            SimOptions(**kw)


class TestStartAtMinimum:
    def test_finite_time(self):
        tr = integrate(FT1, EYE, [0.0, 0.0])
        assert tr.convergence_time == 0.0
        assert len(tr.times) == 1
        assert tr.times[0] == 0.0
        np.testing.assert_array_equal(tr.states[0], [0.0, 0.0])
        assert tr.gains is None
        assert tr.lyapunov[0] == 0.0

    def test_gain_law_starts_at_rest(self):
        tr = integrate(SO, EYE, [0.0, 0.0])
        assert tr.convergence_time == 0.0
        assert tr.gains[0] == 0.0

    def test_within_tolerance_counts(self):
        tr = integrate(FT1, EYE, [5e-4, 5e-4])
        assert tr.convergence_time == 0.0


class TestFiniteTimeRuns:
    def test_identity_detection_time_matches_speed(self):
        # |x0| = 5, speed ~ rho = 10 once |g| >> delta, so detection ~ 0.5 s
        tr = integrate(FT1, EYE, [3.0, 4.0], SimOptions(step=1e-3, horizon=2.0))
        assert tr.convergence_time is not None
        assert abs(tr.convergence_time - 0.5) < 0.03
        assert tr.lyapunov[-1] <= (1e-3) ** 2 * (1.0 + 1e-9)
        assert tr.gains is None

    def test_trajectory_invariants(self):
        tr = integrate(FT1, EYE, [3.0, 4.0], SimOptions(step=1e-3, horizon=2.0))
        assert np.all(np.diff(tr.times) > 0)
        assert len(tr.times) == len(tr.states) == len(tr.lyapunov)
        assert np.all(tr.lyapunov >= 0)
        assert np.all(np.isfinite(tr.states))
        np.testing.assert_array_equal(tr.final_state, tr.states[-1])

    def test_norm_exponent_sweep_times_increase(self):
        # measured on this grid: 0.644, 1.611, 6.196; the largest exponent
        # needs the guard's stability escalation to land in the ball
        cts = {}
        diags = {}
        for a, window in ((0.5, (0.55, 0.75)), (1.0, (1.5, 1.7)), (1.5, (5.0, 7.5))):
            law = FlowLaw(variant="finite_time", rho=10.0, alpha=a, delta=0.01)
            tr = integrate(law, EX, [10.0, -10.0], SimOptions(step=1e-3, horizon=40.0))
            assert tr.convergence_time is not None, "alpha=%g did not converge" % a
            assert window[0] < tr.convergence_time < window[1]
            cts[a] = tr.convergence_time
            diags[a] = tr.diagnostics
        assert cts[0.5] < cts[1.0] < cts[1.5]
        assert diags[1.5]["max_substeps"] >= 16

    def test_lyapunov_descent(self):
        tr = integrate(FT1, EX, [10.0, -10.0], SimOptions(step=1e-3, horizon=5.0))
        assert uptick_ok(tr)


class TestSecondOrderRuns:
    def test_benchmark_window(self):
        tr = integrate(SO, EX, [10.0, -10.0])
        assert tr.convergence_time is not None
        assert 0.30 <= tr.convergence_time <= 0.60
        assert tr.gains is not None
        assert tr.gains[0] == 0.0
        assert tr.gains.min() >= -1e-9
        assert tr.gains[-1] > 0.0
        assert uptick_ok(tr)

    def test_step_halving_agreement(self):
        cts = []
        for h in (1e-3, 5e-4):
            tr = integrate(SO, EYE, [3.0, 4.0], SimOptions(step=h, horizon=3.0))
            cts.append(tr.convergence_time)
        assert abs(cts[0] - cts[1]) <= 2e-3

    def test_x0_scaling_stays_under_uniform_bound(self):
        report = bound_fixed_time_second_order(
            EX.lipschitz, EX.strong_convexity, SO.rho, SO.alpha, lam=SO.lam
        )
        small = integrate(SO, EX, [0.5, -0.5])
        big = integrate(SO, EX, [50.0, -50.0])
        assert small.convergence_time < report.bound
        assert big.convergence_time < report.bound
        assert abs(big.convergence_time - small.convergence_time) < report.bound


class TestFractionalRuns:
    def test_memory_starts_empty_and_gain_at_zero(self):
        tr = integrate(FR, EYE, [3.0, 4.0], SimOptions(step=1e-3, horizon=3.0))
        assert tr.gains[0] == 0.0
        assert tr.gains.min() >= -1e-9
        assert tr.convergence_time is not None
        assert abs(tr.convergence_time - 0.226) < 0.03
        assert uptick_ok(tr)

    def test_step_halving_agreement(self):
        cts = []
        for h in (1e-3, 5e-4):
            tr = integrate(FR, EYE, [3.0, 4.0], SimOptions(step=h, horizon=3.0))
            cts.append(tr.convergence_time)
        assert abs(cts[0] - cts[1]) <= 2e-3

    def test_decay_parameter_has_no_effect(self):
        # the memory-driven gain has no leak term; lam is carried but inert
        with_lam = FlowLaw(
            variant="fixed_time_fractional", rho=10.0, alpha=1.0, lam=7.0, beta=0.5, delta=0.01
        )
        a = integrate(FR, EYE, [3.0, 4.0], SimOptions(step=1e-3, horizon=3.0))
        b = integrate(with_lam, EYE, [3.0, 4.0], SimOptions(step=1e-3, horizon=3.0))
        assert a.convergence_time == b.convergence_time
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.gains, b.gains)


class TestScalingContrast:
    def test_finite_time_scales_with_distance(self):
        base = integrate(FT1, EYE, [0.3, 0.4], SimOptions(step=1e-3, horizon=8.0))
        big = integrate(FT1, EYE, [30.0, 40.0], SimOptions(step=1e-3, horizon=8.0))
        ratio = big.convergence_time / base.convergence_time
        # distance grew 100x and the law's exponent is 1: expect ~100x time
        assert 100.0 / 3.0 <= ratio <= 300.0


class TestDeepTolerance:
    @pytest.mark.parametrize("law", [FT1, SO], ids=["finite", "second_order"])
    def test_guard_resolves_terminal_zone(self, law):
        tr = integrate(law, EYE, [3.0, 4.0], SimOptions(step=1e-3, horizon=3.0, eps_x=1e-6))
        assert tr.convergence_time is not None
        assert tr.lyapunov[-1] <= 1e-12 * (1.0 + 1e-9)
        assert tr.diagnostics["substepped_steps"] > 0
        assert uptick_ok(tr)


class TestFailureModes:
    def test_divergence_carries_last_valid_time(self):
        concave = custom_problem(
            2, value=lambda x: -float(x @ x), gradient=lambda x: -2.0 * np.asarray(x)
        )
        # a vanishing norm exponent makes the field plain -rho*grad = +2*rho*x,
        # an exponential blow-up crossing 1e8 near t = ln(1e8)/20
        law = FlowLaw(variant="finite_time", rho=10.0, alpha=1e-300, delta=0.01)
        with pytest.raises(DivergenceError) as exc:
            integrate(law, concave, [1.0, 0.0], SimOptions(step=1e-3, horizon=2.0))
        assert 0.8 < exc.value.last_valid_time < 1.0

    @pytest.mark.parametrize("stride", [1, 7])
    def test_last_valid_time_is_the_last_accepted_state(self, stride):
        # the step from t = 0.930 fails; with stride 7 the last recorded time
        # is 0.924, but the last accepted state is still at 0.930
        concave = custom_problem(
            1, value=lambda x: -float(x @ x), gradient=lambda x: -2.0 * np.asarray(x, dtype=float)
        )
        law = FlowLaw("finite_time", 10.0, 1e-3)
        opts = SimOptions(step=1e-3, horizon=2.0, record_stride=stride)
        with pytest.raises(DivergenceError) as exc:
            integrate(law, concave, [1.0], opts)
        assert exc.value.last_valid_time == pytest.approx(0.930, abs=1e-9)
        assert "last valid t=0.93)" in str(exc.value)

    def test_nonfinite_gradient_is_divergence(self):
        def grad(x):
            x = np.asarray(x, dtype=float)
            if np.linalg.norm(x) > 2.0:
                return np.full(2, np.nan)
            return -2.0 * x

        prob = custom_problem(2, value=lambda x: -float(x @ x), gradient=grad)
        law = FlowLaw(variant="finite_time", rho=10.0, alpha=1e-300, delta=0.01)
        with pytest.raises(DivergenceError):
            integrate(law, prob, [1.0, 0.0], SimOptions(step=1e-3, horizon=2.0))

    def test_singularity_propagates(self):
        # gradient drops to exactly zero past 0.5 and the law is unregularized
        def grad(x):
            return np.array([0.0]) if x[0] > 0.5 else np.array([-1.0])

        prob = custom_problem(1, value=lambda x: float(-x[0]), gradient=grad)
        law = FlowLaw(variant="finite_time", rho=10.0, alpha=1.0, delta=0.0)
        with pytest.raises(SingularityError):
            integrate(law, prob, [0.45], SimOptions(step=1e-2, horizon=1.0, eps_g=1e-12))

    def test_exact_zero_gradient_at_accepted_state_converges(self):
        # the first step lands where the gradient is exactly zero; detection
        # runs before the unregularized field is evaluated there
        def grad(x):
            return np.array([0.0]) if x[0] >= 0.5 else np.array([-1.0])

        prob = custom_problem(1, value=lambda x: float(-x[0]), gradient=grad)
        law = FlowLaw(variant="fixed_time_fractional", rho=10.0, alpha=1.0, beta=0.5, delta=0.0)
        tr = integrate(law, prob, [0.499], SimOptions(step=1e-2, horizon=1.0))
        assert tr.convergence_time == 0.01

    def test_bad_initial_state(self):
        with pytest.raises(ValueError):
            integrate(FT1, EYE, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            integrate(FT1, EYE, [np.nan, 0.0])

    @pytest.mark.parametrize("shape", [(3,), (2, 1)])
    def test_gradient_of_wrong_shape(self, shape):
        prob = custom_problem(2, value=lambda x: float(x @ x), gradient=lambda x: np.ones(shape))
        with pytest.raises(ValueError, match="gradient"):
            integrate(FT1, prob, [1.0, 2.0])
        with pytest.raises(ValueError, match="gradient"):
            vector_field(FT1, prob, [1.0, 2.0])

    def test_gradient_as_list(self):
        # the identity quadratic's gradient 2x, built as a plain list
        prob = custom_problem(
            2,
            value=lambda x: float(x @ x),
            gradient=lambda x: [2.0 * x[0], 2.0 * x[1]],
            minimizer=[0.0, 0.0],
        )
        opts = SimOptions(step=1e-3, horizon=2.0)
        got = integrate(FT1, prob, [3.0, 4.0], opts)
        want = integrate(FT1, EYE, [3.0, 4.0], opts)
        assert got.convergence_time == want.convergence_time
        assert np.array_equal(got.states, want.states)


class TestRecording:
    def test_stride_thins_but_keeps_detection(self):
        dense = integrate(FT1, EYE, [3.0, 4.0], SimOptions(step=1e-3, horizon=2.0))
        thin = integrate(
            FT1, EYE, [3.0, 4.0], SimOptions(step=1e-3, horizon=2.0, record_stride=7)
        )
        assert thin.convergence_time == dense.convergence_time
        assert len(thin.times) < len(dense.times)
        assert thin.times[0] == 0.0
        assert thin.times[-1] == pytest.approx(thin.convergence_time)
        steps = np.diff(thin.times[:-1])
        assert np.allclose(steps, 7e-3)

    def test_horizon_exit_records_end(self):
        tr = integrate(FT1, EYE, [3.0, 4.0], SimOptions(step=1e-3, horizon=0.2))
        assert tr.convergence_time is None
        assert tr.times[-1] == pytest.approx(0.2)


class TestSweep:
    def test_initial_condition_sweep(self):
        entries = sweep(
            SO,
            EX,
            [{"x0": [-5.0, 5.0]}, {"x0": [10.0, -10.0]}, {"x0": [50.0, -50.0]}],
            SimOptions(step=1e-3, horizon=3.0),
        )
        assert [e.label for e in entries] == ["x0=-5,5", "x0=10,-10", "x0=50,-50"]
        times = [e.trajectory.convergence_time for e in entries]
        assert all(t is not None for t in times)
        assert max(times) - min(times) <= 0.1
        expected = bound_fixed_time_second_order(
            EX.lipschitz, EX.strong_convexity, SO.rho, SO.alpha, lam=SO.lam
        ).bound
        for e in entries:
            assert e.error is None
            assert e.bound is not None
            assert e.bound.bound == pytest.approx(expected)
            assert e.bound.observed == e.trajectory.convergence_time
            assert e.trajectory.convergence_time < e.bound.bound

    def test_parameter_overrides_and_labels(self):
        entries = sweep(
            SO,
            EX,
            [
                {"alpha": 0.5, "x0": [1.0, 1.0], "label": "half"},
                {"lambda": 2.0, "x0": [1.0, 1.0]},
            ],
            SimOptions(step=1e-3, horizon=3.0),
        )
        assert entries[0].label == "half"
        assert entries[1].label == "lambda=2_x0=1,1"
        assert all(e.error is None for e in entries)

    def test_default_initial_state(self):
        entries = sweep(
            FT1,
            EYE,
            [{"alpha": 0.5}, {"alpha": 1.0}],
            SimOptions(step=1e-3, horizon=3.0),
            x0=[3.0, 4.0],
        )
        assert [e.label for e in entries] == ["alpha=0.5", "alpha=1"]
        assert entries[0].trajectory.convergence_time < entries[1].trajectory.convergence_time

    def test_per_run_error_capture(self):
        entries = sweep(
            SO,
            EX,
            [
                {"x0": [1.0, 1.0]},
                {"rho": -1.0, "x0": [1.0, 1.0]},
                {"bogus": 1.0, "x0": [1.0, 1.0]},
                {"alpha": 0.5},  # no initial state anywhere
            ],
            SimOptions(step=1e-3, horizon=3.0),
        )
        assert entries[0].error is None
        assert "rho" in entries[1].error
        assert "bogus" in entries[2].error
        assert "initial state" in entries[3].error
        assert entries[1].trajectory is None and entries[1].bound is None

    def test_zakharov_runs_have_no_bound(self):
        entries = sweep(
            SO,
            zakharov_problem(2),
            [{"x0": [1.0, 1.0]}],
            SimOptions(step=1e-3, horizon=3.0),
        )
        assert entries[0].error is None
        assert entries[0].trajectory.convergence_time is not None
        assert entries[0].bound is None

    def test_empty_variations(self):
        assert sweep(SO, EX, []) == []

    @pytest.mark.parametrize("x0", [[[1.0, 1.0]], ["a", "b"], {"a": 1.0}, np.array(3.0)])
    def test_malformed_start_fails_its_own_run(self, x0):
        # the default label is built from the value before the run checks it
        entries = sweep(
            SO, EX, [{"x0": x0}, {"x0": [1.0, 1.0]}], SimOptions(step=1e-3, horizon=3.0)
        )
        assert entries[0].trajectory is None and entries[0].error
        assert entries[0].label.startswith("x0=")
        assert entries[1].error is None

    @pytest.mark.parametrize("label", [5, ["a"]])
    def test_non_string_label_rejected_before_any_run(self, label):
        prob, calls = counting_problem([0.0, 0.0])
        variations = [{"x0": [1.0, 1.0]}, {"label": label, "x0": [1.0, 1.0]}]
        with pytest.raises(ValueError, match="label"):
            sweep(SO, prob, variations, SimOptions(step=1e-3, horizon=3.0))
        assert calls[0] == 0

    def test_entry_type(self):
        entries = sweep(SO, EX, [{"x0": [1.0, 1.0]}], SimOptions(step=1e-3, horizon=3.0))
        assert isinstance(entries[0], SweepEntry)
        assert isinstance(entries[0].trajectory, Trajectory)


class TestApplicableBound:
    def test_finite_time_uses_distance(self):
        report = applicable_bound(FT1, EX, [10.0, -10.0])
        assert report.rule == "finite_time_general"
        assert report.inputs["initial_distance"] == pytest.approx(math.sqrt(200.0))

    def test_second_order_rule(self):
        report = applicable_bound(SO, EX, [10.0, -10.0])
        assert report.rule == "fixed_time_second_order"
        direct = bound_fixed_time_second_order(
            EX.lipschitz, EX.strong_convexity, SO.rho, SO.alpha, lam=SO.lam
        )
        assert report.bound == direct.bound

    def test_fractional_rule(self):
        report = applicable_bound(FR, EX, [10.0, -10.0])
        assert report.rule == "fixed_time_fractional"
        assert report.bound > 0

    def test_missing_constants(self):
        with pytest.raises(InsufficientConstantsError):
            applicable_bound(SO, zakharov_problem(2), [1.0, 1.0])

    def test_finite_time_needs_the_minimizer(self):
        prob = custom_problem(2, value=lambda x: float(x @ x), gradient=lambda x: 2.0 * x,
                              lipschitz=2.0)
        with pytest.raises(InsufficientConstantsError, match="minimizer"):
            applicable_bound(FT1, prob, [1.0, 1.0])

    @pytest.mark.parametrize("law", [SO, FR], ids=["second_order", "fractional"])
    def test_fixed_time_needs_strong_convexity(self, law):
        prob = custom_problem(2, value=lambda x: float(x @ x), gradient=lambda x: 2.0 * x,
                              minimizer=[0.0, 0.0], lipschitz=2.0)
        with pytest.raises(InsufficientConstantsError, match="strong-convexity"):
            applicable_bound(law, prob, [1.0, 1.0])

    @pytest.mark.parametrize("law", [FT1, SO], ids=["finite_time", "second_order"])
    @pytest.mark.parametrize("x0", [[3.0], 3.0, [3.0, 3.0, 3.0], [[3.0, 3.0]]])
    def test_wrong_shaped_start(self, law, x0):
        # a start is one state of the problem's dimension, never broadcast
        with pytest.raises(ValueError, match="dimension"):
            applicable_bound(law, EX, x0)


# ---------------------------------------------------------------------------
# pins of the single Heun stepper: gradient calls per step, and outputs of
# runs with and without the guard captured before the stepper was unified

LAWS = {"finite_time": FT1, "second_order": SO, "fractional": FR}
EX_MATRIX = np.array([[1.0, 1.0], [1.0, 4.0]])


def counting_problem(minimizer):
    """The benchmark quadratic with a gradient that counts its calls."""
    calls = [0]

    def gradient(x):
        calls[0] += 1
        return EX_MATRIX @ np.asarray(x, dtype=float)

    prob = custom_problem(
        2, value=lambda x: 0.5 * float(x @ EX_MATRIX @ x), gradient=gradient, minimizer=minimizer
    )
    calls[0] = 0  # construction checks the gradient at the minimizer
    return prob, calls


# one gradient per predicted point and one per accepted state; without a
# minimizer, detection reads the norm of the latter, so the final state needs
# one too, but no step needs a further call.  The field at each accepted
# state comes from the public vector_field, unless the eps_g test already
# fetched the gradient there; the predicted point is a stage, not a state.
@pytest.mark.parametrize(
    "name,per_step,minimizer",
    [
        pytest.param(name, 2, minimizer, id=("%s-2" if minimizer else "no_minimizer-%s-2") % name)
        for minimizer in ([0.0, 0.0], None)
        for name in ("finite_time", "second_order", "fractional")
    ],
)
def test_gradient_calls_per_unguarded_step(monkeypatch, name, per_step, minimizer):
    import gradflows.sim as sim_module

    fields = [0]
    inner = sim_module.vector_field

    def counted(*args):
        fields[0] += 1
        return inner(*args)

    monkeypatch.setattr(sim_module, "vector_field", counted)
    prob, calls = counting_problem(minimizer)
    opts = SimOptions(step=1e-3, horizon=3.0, eps_x=3e-2, eps_g=1e-2)
    tr = integrate(LAWS[name], prob, [10.0, -10.0], opts)
    assert tr.diagnostics["substepped_steps"] == 0
    steps = len(tr.times) - 1
    assert steps > 300
    assert calls[0] == per_step * steps + (minimizer is None)
    assert fields[0] == (steps if minimizer else 0)


@pytest.mark.parametrize("name", sorted(LAWS))
def test_gradient_calls_at_the_horizon(name):
    # a run the horizon ends evaluates no field at its last state: one
    # gradient at each predicted point and one at each earlier state
    prob, calls = counting_problem([0.0, 0.0])
    opts = SimOptions(step=1e-3, horizon=0.2, eps_x=1e-9)
    tr = integrate(LAWS[name], prob, [10.0, -10.0], opts)
    assert tr.convergence_time is None
    assert tr.diagnostics["substepped_steps"] == 0
    steps = len(tr.times) - 1
    assert steps == 200
    assert calls[0] == 2 * steps


UNGUARDED = SimOptions(step=1e-3, horizon=3.0, eps_x=3e-2)
GUARDED = SimOptions(step=1e-3, horizon=3.0, eps_x=1e-6)
NO_MINIMIZER = SimOptions(step=1e-3, horizon=3.0, eps_g=1e-2)
# (case, law): (convergence time, (substepped, max substeps, residual ascent),
#               final state, final gain)
PINNED = {
    ("unguarded", "finite_time"): (1.609, (0, 1, 0), [0.02506346685243726, -0.007588607160024626], None),
    ("unguarded", "second_order"): (0.456, (0, 1, 0), [0.013293749672811266, -0.004025052834557988], 41.47636377435042),
    ("unguarded", "fractional"): (0.325, (0, 1, 0), [0.025458958788135876, -0.007708352799461184], 34.60033305118224),
    ("guarded", "finite_time"): (0.509, (4, 8, 0), [4.751300662562893e-07, 6.335067550083853e-07], None),
    ("guarded", "second_order"): (0.383, (3, 16, 0), [3.9103591074841076e-07, 5.213812143312136e-07], 18.44705426323032),
    ("guarded", "fractional"): (0.228, (3, 16, 0), [3.4951389108941104e-07, 4.660185214525485e-07], 17.921424657427966),
    ("no_minimizer", "finite_time"): (1.612, (0, 1, 0), [0.009689319790567284, -0.002933689978781312], None),
    ("no_minimizer", "second_order"): (0.456, (0, 1, 0), [0.013293749672811266, -0.004025052834557988], 41.47636377435042),
    ("no_minimizer", "fractional"): (0.326, (0, 1, 0), [0.011017489497223447, -0.0033358345880615823], 34.49254373384893),
}


@pytest.mark.parametrize("case,name", sorted(PINNED))
def test_pinned_outputs(case, name):
    if case == "guarded":
        prob, x0, opts = EYE, [3.0, 4.0], GUARDED
    else:
        prob, _ = counting_problem([0.0, 0.0] if case == "unguarded" else None)
        x0, opts = [10.0, -10.0], UNGUARDED if case == "unguarded" else NO_MINIMIZER
    ct, (substepped, max_sub, residual), final_state, final_gain = PINNED[case, name]
    tr = integrate(LAWS[name], prob, x0, opts)
    assert tr.convergence_time == ct
    assert tr.diagnostics == {
        "substepped_steps": substepped,
        "max_substeps": max_sub,
        "residual_ascent_steps": residual,
    }
    np.testing.assert_allclose(tr.final_state, final_state, rtol=1e-12, atol=0.0)
    if final_gain is None:
        assert tr.gains is None
    else:
        assert tr.gains[-1] == pytest.approx(final_gain, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", ["second_order", "fractional"])
def test_guard_without_minimizer(name):
    # no Lyapunov value exists, so only the stiffness trigger can fire
    prob, _ = counting_problem(None)
    tr = integrate(LAWS[name], prob, [10.0, -10.0], SimOptions(step=1e-3, horizon=3.0))
    assert tr.convergence_time is not None
    assert tr.lyapunov is None
    assert tr.diagnostics["substepped_steps"] > 0
    assert tr.diagnostics["residual_ascent_steps"] == 0


def test_residual_ascent_counted():
    # at delta = 0 the field's rate grows without bound near the minimizer:
    # the one guarded step reaches the substep cap with the ascent still past
    # the guard's target, and is accepted and counted
    law = FlowLaw("finite_time", 10.0, 2.0, delta=0.0)
    tr = integrate(law, EYE, [1.0, 1.0], SimOptions(step=1e-4, horizon=1.0))
    assert tr.convergence_time == 0.20020000000000002
    assert tr.diagnostics == {
        "substepped_steps": 1,
        "max_substeps": 65536,
        "residual_ascent_steps": 1,
    }
