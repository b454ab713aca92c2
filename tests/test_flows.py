"""Checks for the flow laws and the bound calculators."""

import dataclasses
import math

import numpy as np
import pytest

from gradflows.flows import (
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
from gradflows.problems import quadratic_problem
from gradflows.special import ZeroSearchError

EX_MATRIX = [[1.0, 1.0], [1.0, 4.0]]


def law_finite(**kw):
    base = dict(variant=FlowVariant.FINITE_TIME, rho=10.0, alpha=2.0, delta=0.0)
    base.update(kw)
    return FlowLaw(**base)


def law_second(**kw):
    base = dict(
        variant=FlowVariant.FIXED_TIME_SECOND_ORDER, rho=10.0, alpha=1.0, lam=1.0, delta=0.01
    )
    base.update(kw)
    return FlowLaw(**base)


def law_fractional(**kw):
    base = dict(
        variant=FlowVariant.FIXED_TIME_FRACTIONAL, rho=10.0, alpha=1.0, beta=0.2, delta=0.01
    )
    base.update(kw)
    return FlowLaw(**base)


class TestFlowLaw:
    def test_variant_from_string(self):
        law = FlowLaw(variant="finite_time", rho=1.0, alpha=1.0)
        assert law.variant is FlowVariant.FINITE_TIME
        law = FlowLaw(variant="fixed_time_fractional", rho=1.0, alpha=1.0, beta=0.5)
        assert law.variant is FlowVariant.FIXED_TIME_FRACTIONAL

    def test_default_regularizer(self):
        assert FlowLaw(variant="finite_time", rho=1.0, alpha=1.0).delta == 0.01

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf])
    def test_bad_gain(self, rho):
        with pytest.raises(ValueError):
            FlowLaw(variant="finite_time", rho=rho, alpha=1.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 2.0001, math.nan])
    def test_bad_exponent(self, alpha):
        with pytest.raises(ValueError):
            FlowLaw(variant="finite_time", rho=1.0, alpha=alpha)

    def test_numpy_scalars_accepted_bool_rejected(self):
        law = FlowLaw(variant="finite_time", rho=np.float32(2.0), alpha=np.int64(1))
        assert (law.rho, law.alpha) == (2.0, 1.0)
        assert type(law.rho) is float and type(law.alpha) is float
        with pytest.raises(ValueError, match="rho"):
            FlowLaw(variant="finite_time", rho=True, alpha=1.0)

    def test_exponent_boundary_allowed(self):
        assert FlowLaw(variant="finite_time", rho=1.0, alpha=2.0).alpha == 2.0
        assert FlowLaw(variant="finite_time", rho=1.0, alpha=1e-300).alpha == 1e-300

    def test_bad_decay_and_regularizer(self):
        with pytest.raises(ValueError):
            FlowLaw(variant="finite_time", rho=1.0, alpha=1.0, lam=-0.1)
        with pytest.raises(ValueError):
            FlowLaw(variant="finite_time", rho=1.0, alpha=1.0, delta=-1e-9)

    def test_fractional_order_rules(self):
        with pytest.raises(ValueError):
            FlowLaw(variant="fixed_time_fractional", rho=1.0, alpha=1.0)  # missing beta
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                FlowLaw(variant="fixed_time_fractional", rho=1.0, alpha=1.0, beta=bad)
        # beta is meaningless elsewhere and must be rejected, not ignored
        with pytest.raises(ValueError):
            FlowLaw(variant="finite_time", rho=1.0, alpha=1.0, beta=0.5)

    def test_decay_accepted_for_fractional(self):
        # configs may carry a decay rate even though the fractional law has
        # no decay term; it must not change the dynamics (checked below)
        law = law_fractional(lam=1.0)
        assert law.lam == 1.0

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            FlowLaw(variant="warp_speed", rho=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            FlowLaw(variant=42, rho=1.0, alpha=1.0)

    def test_gain_flag(self):
        assert not law_finite().uses_gain
        assert law_second().uses_gain
        assert law_fractional().uses_gain


class TestVectorField:
    def test_hand_checked_finite_time(self):
        # rho=10, alpha=2, delta=0: gradient [0,-60], norm 60
        p = quadratic_problem(EX_MATRIX)
        dx, dtheta = vector_field(law_finite(), p, [10.0, -10.0])
        assert dtheta is None
        assert np.allclose(dx, [0.0, 1.0 / 6.0], rtol=0.0, atol=1e-15)
        assert abs(dx[1] - 1.0 / 6.0) < 1e-15

    def test_gain_of_zero_means_rest(self):
        p = quadratic_problem(EX_MATRIX)
        for law in (law_second(), law_fractional()):
            dx, dtheta = vector_field(law, p, [10.0, -10.0], 0.0)
            assert np.array_equal(dx, np.zeros(2))
            assert dtheta > 0.0  # the gain immediately starts growing

    def test_hand_checked_gain_derivative(self):
        # lam=1, rho=10, alpha=1, |g|=2, theta=3 -> -3 + 20 = 17
        p = quadratic_problem(np.eye(2) * 0.5)  # gradient = x
        _, dtheta = vector_field(law_second(), p, [2.0, 0.0], 3.0)
        assert abs(dtheta - 17.0) < 1e-12

    def test_fractional_drive_ignores_decay(self):
        p = quadratic_problem(np.eye(2) * 0.5)
        _, with_decay = vector_field(law_fractional(lam=5.0), p, [2.0, 0.0], 3.0)
        _, without = vector_field(law_fractional(lam=0.0), p, [2.0, 0.0], 3.0)
        assert with_decay == without == 20.0

    def test_fractional_and_second_order_share_x_equation(self):
        p = quadratic_problem(EX_MATRIX)
        a, _ = vector_field(law_second(), p, [3.0, -1.0], 0.7)
        b, _ = vector_field(law_fractional(), p, [3.0, -1.0], 0.7)
        assert np.array_equal(a, b)

    def test_singularity_at_minimum(self):
        p = quadratic_problem(EX_MATRIX)
        with pytest.raises(SingularityError):
            vector_field(law_finite(delta=0.0), p, [0.0, 0.0])
        # regularized: no error, zero motion
        dx, _ = vector_field(law_finite(delta=0.01), p, [0.0, 0.0])
        assert np.array_equal(dx, np.zeros(2))

    def test_classical_reduction_at_vanishing_exponent(self):
        # alpha so small that the denominator is exactly 1.0 in floating
        # point: the field equals plain steepest descent, bit for bit
        p = quadratic_problem(EX_MATRIX)
        law = law_finite(alpha=1e-300, delta=0.0)
        x = np.array([3.0, -2.0])
        dx, _ = vector_field(law, p, x)
        assert np.array_equal(dx, -10.0 * p.gradient(x))

    def test_dimension_mismatch(self):
        p = quadratic_problem(EX_MATRIX)
        with pytest.raises(ValueError):
            vector_field(law_finite(), p, [1.0, 2.0, 3.0])

    def test_missing_gain_state(self):
        p = quadratic_problem(EX_MATRIX)
        with pytest.raises(ValueError):
            vector_field(law_second(), p, [1.0, 2.0])


class TestFiniteTimeBound:
    def test_reference_value_alpha2(self):
        r = bound_finite_time(4.30, 10.0, 2.0, math.sqrt(200.0))
        assert r.rule == "finite_time_alpha2"
        assert abs(r.bound - 43.0) < 1e-9

    def test_reference_value_alpha1(self):
        r = bound_finite_time(4.30, 10.0, 1.0, math.sqrt(200.0), strong_convexity=0.70)
        assert r.rule == "finite_time_general"
        assert abs(r.bound - 8.687311883149013) < 1e-12

    def test_exact_spectrum_values(self):
        L = (5.0 + math.sqrt(13.0)) / 2.0
        mu = (5.0 - math.sqrt(13.0)) / 2.0
        r2 = bound_finite_time(L, 10.0, 2.0, math.sqrt(200.0))
        assert abs(r2.bound - 43.027756377319953) < 1e-10
        r1 = bound_finite_time(L, 10.0, 1.0, math.sqrt(200.0), strong_convexity=mu)
        assert abs(r1.bound - 8.7275258755087872) < 1e-12

    def test_zero_distance(self):
        assert bound_finite_time(4.30, 10.0, 2.0, 0.0).bound == 0.0
        assert bound_finite_time(4.30, 10.0, 1.0, 0.0, strong_convexity=0.7).bound == 0.0

    def test_alpha2_reduction(self):
        # the general formula evaluated at alpha=2 carries mu with exponent
        # zero, so it collapses to the alpha=2 rule's value
        L, mu, rho, d = 3.7, 0.9, 2.0, 5.0
        direct = bound_finite_time(L, rho, 2.0, d).bound
        general = L * d ** 2.0 / (rho * mu ** 0.0 * 2.0)
        assert abs(direct - general) < 1e-12

    def test_missing_strong_convexity(self):
        with pytest.raises(InsufficientConstantsError):
            bound_finite_time(4.30, 10.0, 1.0, 1.0)

    def test_input_echo(self):
        r = bound_finite_time(4.30, 10.0, 1.0, 2.0, strong_convexity=0.70)
        assert r.inputs == {
            "lipschitz": 4.30,
            "strong_convexity": 0.70,
            "rho": 10.0,
            "alpha": 1.0,
            "initial_distance": 2.0,
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            bound_finite_time(0.0, 10.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            bound_finite_time(4.3, -1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            bound_finite_time(4.3, 10.0, 2.5, 1.0)
        with pytest.raises(ValueError):
            bound_finite_time(4.3, 10.0, 2.0, -1.0)


class TestSecondOrderBound:
    def test_reference_value(self):
        r = bound_fixed_time_second_order(4.30, 0.70, 10.0, 1.0, lam=1.0)
        assert abs(r.bound - 1.5135786467247123) < 1e-12
        assert abs(r.bound - 1.51) < 0.01

    def test_no_decay_specialization(self):
        r = bound_fixed_time_second_order(4.30, 0.70, 10.0, 2.0, lam=0.0)
        want = math.pi / math.sqrt(4.0 * 10.0 * 0.49 / (2.0 * 4.30))
        assert abs(r.bound - want) < 1e-12
        assert abs(r.bound - 2.0809951241174094) < 1e-12

    def test_alpha2_variant_reported(self):
        r = bound_fixed_time_second_order(4.30, 0.70, 10.0, 2.0, lam=0.0)
        assert abs(r.extras["alpha2_variant_bound"] - 1.4714857638795615) < 1e-12
        assert r.notes  # the discrepancy is called out
        r1 = bound_fixed_time_second_order(4.30, 0.70, 10.0, 1.0, lam=1.0)
        assert "alpha2_variant_bound" not in r1.extras
        # 2c overflows here although c and the bound are in range; the
        # variant is the bound over sqrt(2) at lambda = 0, not 0.0
        big = bound_fixed_time_second_order(0.5, 1.0, 4e307, 2.0)
        variant = big.extras["alpha2_variant_bound"]
        assert math.isfinite(variant) and variant > 0.0
        assert abs(variant / (big.bound / math.sqrt(2.0)) - 1.0) <= 1e-15

    def test_near_threshold_still_finite(self):
        L, mu, rho, alpha = 4.30, 0.70, 10.0, 1.0
        gate = 8.0 * rho * mu * mu / (alpha * L)
        lam = math.sqrt(gate) - 1e-6
        r = bound_fixed_time_second_order(L, mu, rho, alpha, lam=lam)
        assert math.isfinite(r.bound) and r.bound > 0.0

    def test_condition_gate(self):
        L, mu, rho, alpha = 4.30, 0.70, 10.0, 1.0
        gate = 8.0 * rho * mu * mu / (alpha * L)
        # sqrt(gate)**2 can round to one ulp below the gate, which the
        # strict inequality rightly accepts; push just past it instead
        lam_at_gate = math.sqrt(gate) * (1.0 + 1e-12)
        with pytest.raises(ConditionNotMetError) as e:
            bound_fixed_time_second_order(L, mu, rho, alpha, lam=lam_at_gate)
        # the message carries both sides of the violated inequality
        assert "lambda^2" in str(e.value) and "%g" % gate in str(e.value)
        with pytest.raises(ConditionNotMetError):
            bound_fixed_time_second_order(L, mu, rho, alpha, lam=10.0)

    def test_independent_of_initial_condition_by_signature(self):
        import inspect

        sig = inspect.signature(bound_fixed_time_second_order)
        assert "initial_distance" not in sig.parameters
        assert "x0" not in sig.parameters

    def test_validation(self):
        with pytest.raises(ValueError):
            bound_fixed_time_second_order(4.3, 0.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            bound_fixed_time_second_order(4.3, 0.7, 10.0, 1.0, lam=-1.0)


class TestFractionalBound:
    def test_unit_coefficient_matches_zero_table(self):
        # mu=0.5, L=1, rho=1, alpha=1 gives drive coefficient exactly 1
        r = bound_fixed_time_fractional(1.0, 0.5, 1.0, 1.0, 0.5)
        assert abs(r.extras["drive_coefficient"] - 1.0) < 1e-15
        assert abs(r.bound - 1.6452288707) < 5e-5
        r = bound_fixed_time_fractional(1.0, 0.5, 1.0, 1.0, 0.1)
        assert abs(r.bound - 2.88) < 0.02

    def test_scaling_in_coefficient(self):
        beta = 0.5
        base = bound_fixed_time_fractional(1.0, 0.5, 1.0, 1.0, beta, zero_tol=1e-9).bound
        for rho in (0.5, 2.0, 5.0):
            r = bound_fixed_time_fractional(1.0, 0.5, rho, 1.0, beta, zero_tol=1e-9)
            c = r.extras["drive_coefficient"]
            assert abs(c - rho) < 1e-15
            assert abs(r.bound - base / c ** (1.0 / (beta + 1.0))) < 1e-5

    def test_monotone_in_gain(self):
        bounds = [
            bound_fixed_time_fractional(4.3, 0.7, rho, 1.0, 0.7).bound for rho in (0.5, 1.0, 2.0)
        ]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_monotone_in_exponent(self):
        bounds = [
            bound_fixed_time_fractional(4.3, 0.7, 1.0, a, 0.7).bound for a in (0.5, 1.0, 2.0)
        ]
        assert bounds[0] < bounds[1] < bounds[2]

    def test_monotone_in_order(self):
        # drive coefficient 0.456 < 1 here; the ordering claim is tested on
        # this grid (it does not persist for large coefficients)
        bounds = [
            bound_fixed_time_fractional(4.3, 0.7, 1.0, 1.0, b).bound for b in (0.2, 0.5, 0.8)
        ]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_search_horizon_propagates(self):
        with pytest.raises(ZeroSearchError):
            bound_fixed_time_fractional(4.3, 0.7, 1e-6, 1.0, 0.2, horizon=10.0)

    def test_validation(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                bound_fixed_time_fractional(4.3, 0.7, 1.0, 1.0, bad)
        with pytest.raises(ValueError):
            bound_fixed_time_fractional(4.3, 0.7, 0.0, 1.0, 0.5)


class TestBoundReport:
    def test_immutable_and_replaceable(self):
        r = bound_finite_time(4.30, 10.0, 2.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.bound = 0.0
        r2 = r.with_observed(0.123)
        assert r2.observed == 0.123 and r.observed is None
        assert r2.bound == r.bound

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            BoundReport(rule="x", bound=-1.0, inputs={})
        with pytest.raises(ValueError):
            BoundReport(rule="x", bound=math.nan, inputs={})


class TestBoundsInDoubleRange:
    """Arithmetic that leaves double range raises ConditionNotMetError naming
    the quantity, so every returned bound is finite, and positive unless the
    initial distance is zero."""

    @pytest.mark.parametrize(
        "call,quantity",
        [
            # the second-order radicand overflows and the bound would read 0
            (lambda: bound_fixed_time_second_order(1.0, 1.0, 1e308, 0.1), r"4\*rho\*mu\^2/\(alpha\*L\)"),
            # the drive coefficient underflows: the message blames it, not rho
            (lambda: bound_fixed_time_fractional(1e300, 1.0, 1e-300, 1.0, 0.5), r"4\*rho\*mu\^2/\(alpha\*L\)"),
            (lambda: bound_fixed_time_second_order(1e-300, 1.0, 1.0, 1e-300), r"4\*rho\*mu\^2/\(alpha\*L\)"),
            # the finite-time bounds overflow
            (lambda: bound_finite_time(1e300, 1e-300, 2.0, 1e10), r"L\*d\^2/\(2\*rho\)"),
            (lambda: bound_finite_time(1e300, 1e-300, 1.0, 1e10, strong_convexity=1.0), r"L\*d\^alpha/"),
            (lambda: bound_finite_time(1.0, 1.0, 1.9, 1e300, strong_convexity=1.0), r"L\*d\^alpha/"),
            # the finite-time denominator underflows (a division by zero) or overflows
            (lambda: bound_finite_time(1.0, 1e-300, 0.5, 1.0, strong_convexity=1e-100), r"rho\*mu\^\(2-alpha\)\*alpha"),
            (lambda: bound_finite_time(1.0, 1.0, 0.1, 1.0, strong_convexity=1e300), r"rho\*mu\^\(2-alpha\)\*alpha"),
            # the bound underflows for a positive distance
            (lambda: bound_finite_time(1e-300, 1e300, 2.0, 1e-10), r"L\*d\^2/\(2\*rho\)"),
        ],
        ids=[
            "second_order_coefficient_overflow",
            "fractional_coefficient_underflow",
            "second_order_coefficient_division_by_zero",
            "alpha2_bound_overflow",
            "general_bound_overflow",
            "general_power_overflow",
            "general_denominator_underflow",
            "general_denominator_overflow",
            "alpha2_bound_underflow",
        ],
    )
    def test_out_of_range_names_the_quantity(self, call, quantity):
        with pytest.raises(ConditionNotMetError, match=quantity + ".*double range"):
            call()

    def test_zero_distance_with_extreme_constants(self):
        assert bound_finite_time(1e-300, 1e300, 2.0, 0.0).bound == 0.0
        assert bound_finite_time(1e300, 1e-300, 1.0, 0.0, strong_convexity=1.0).bound == 0.0

    def test_every_returned_bound_is_finite(self):
        scales = (1e-300, 1e-150, 1.0, 1e150, 1e300)
        for L in scales:
            for mu in scales:
                for rho in scales:
                    for alpha in (0.1, 1.0, 2.0):
                        calls = [
                            lambda: bound_fixed_time_second_order(L, mu, rho, alpha),
                            lambda: bound_fixed_time_fractional(L, mu, rho, alpha, 0.5),
                        ]
                        calls += [
                            lambda d=d: bound_finite_time(L, rho, alpha, d, strong_convexity=mu)
                            for d in scales
                        ]
                        for call in calls:
                            try:
                                bound = call().bound
                            except (ConditionNotMetError, ZeroSearchError):
                                continue
                            assert 0.0 < bound < math.inf
