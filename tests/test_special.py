"""Checks for the Mittag-Leffler evaluator and the first-zero search."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from gradflows import special
from gradflows.special import (
    MLSpec,
    ZeroKind,
    ZeroQuery,
    ZeroSearchError,
    gamma,
    ml_eval,
    ml_first_positive_zero,
    ml_kernel_eval,
)
from gradflows.special import _integral_route, _rgamma, _series_route


def brute_series(a, b, z, extra=40):
    """High-precision defining series, independent of the package evaluator.

    The gamma arguments a*k + b are formed inside the working precision; a
    double rounding there would poison the alternating-sum cancellation.
    """
    x = abs(float(z))
    peak = 0.0
    if x > 1.0:
        lx = math.log(x)
        kstar = max(1.0, x ** (1.0 / a) / a)
        peak = max(0.0, lx - math.lgamma(a + b), kstar * lx - math.lgamma(a * kstar + b))
    dps = int(peak / math.log(10)) + extra
    with mpmath.workdps(dps):
        aa = mpmath.mpf(a)
        bb = mpmath.mpf(b)
        zz = mpmath.mpf(z)
        tot = mpmath.mpf(0)
        p = mpmath.mpf(1)
        cut = mpmath.mpf(10) ** (-(dps - 3))
        k = 0
        while True:
            t = p * mpmath.rgamma(aa * k + bb)
            tot += t
            if k > 4 and abs(t) <= cut * (1 + abs(tot)):
                break
            p *= zz
            k += 1
        return float(tot)


# Frozen outputs of brute_series (chosen to cover both routes of the
# evaluator: the double series, the contour integral with and without the
# residues of the oscillatory pair, and the near-alpha-one window).
BRUTE_TABLE = [
    (0.5, 1.0, -3.0, 0.17900115118138995),
    (0.7, 1.3, -7.0, 0.097138262110773758),
    (1.0, 1.0, -10.0, 4.5399929762484852e-5),
    (1.5, 0.5, -8.0, -0.061713553237055291),
    (2.0, 2.0, -100.0, -0.054402111088936981),
    (1.2, 1.0, 4.0, 19.964187994808644),
    (0.9, 1.7, -6.0, 0.14529990701925912),
    (1.0, 1.0, -50.0, 1.9287498479639178e-22),
    (0.97, 1.5, -30.0, 0.020227676174934548),
    (1.05, 1.0, -40.0, -0.0012820861742121218),
    (0.55, 2.0, -15.0, 0.071233763711391901),
    (0.55, 1.0, -50.0, 0.010197254378268012),
    (0.7, 0.5, -100.0, -0.0017079741079361272),
    (1.3, 1.0, -30.0, -0.0082439618635268979),
    (1.5, 1.5, -88.0, -6.8457456120305301e-5),
    (1.8, 0.5, -100.0, 0.22278724756717866),
    (1.95, 1.0, -60.0, -0.22088274671478011),
    (1.2, 2.0, -25.0, 0.034816944361100996),
    (1.8, 1.8, -2.0, 0.61806116076589233),
]

# E_{1/2,1}(-x) = exp(x^2) erfc(x): an identity the series oracle cannot reach
# at these depths, frozen from mpmath.erfc.
ERFC_TABLE = [
    (15.0, 0.037529606388505766),
    (50.0, 0.011281536265323773),
    (100.0, 0.0056416137829894329),
]

# First zeros located by bisecting the brute series directly (never through
# the package evaluator), frozen to ten digits.
ZERO_TABLE = [
    ("standard", 1.5, 1.0, 1.6452288707),
    ("standard", 1.2, 1.0, 2.1942157239),
    ("standard", 1.8, 1.0, 1.5595920196),
    ("standard", 1.5, 4.0, 0.6529095100),
    ("kernel", 1.5, 1.0, 2.9533521211),
    ("kernel", 1.3, 2.0, 1.8718418477),
]

# Reference first zeros of E_{a,1}(-t^a), good to about two decimals.
COARSE_ZERO_REFS = {1.7: 1.57, 1.5: 1.65, 1.3: 1.89, 1.1: 2.88, 1.05: 3.72}

# Zero-search grid: orders across the guaranteed regime, gains on both sides
# of one, both kernel shapes.
ZERO_GRID = [
    ZeroQuery(alpha=round(1.05 + 0.05 * i, 2), rho=r, kind=kind)
    for i in range(18)
    for r in (0.45, 1.0, 10.0, 45.0)
    for kind in ZeroKind
]


def forward_scan_zero(query, tol=1e-6):
    """First zero by a fine forward scan and bisection.

    The scan steps 1e-3 in scaled time rho^{1/alpha} t, at most 0.01 in t.

    This was the zero finder's algorithm before the coarse bracket; it stays
    as that bracket's reference: thousands of evaluations per zero, but no
    step size to justify.
    """
    a, r = query.alpha, query.rho
    spec = MLSpec(a, 1.0 if query.kind is ZeroKind.STANDARD_FORM else a)
    power = 0.0 if query.kind is ZeroKind.STANDARD_FORM else a - 1.0

    def f(t):
        return t ** power * ml_eval(spec, -r * t ** a)

    step = min(0.01, 0.001 * r ** (-1.0 / a))
    t_lo = step
    f_lo = f(t_lo)
    while True:
        t_hi = t_lo + step
        f_hi = f(t_hi)
        if (f_lo > 0) != (f_hi > 0):
            break
        t_lo, f_lo = t_hi, f_hi
    while t_hi - t_lo > tol:
        mid = 0.5 * (t_lo + t_hi)
        fm = f(mid)
        if (fm > 0) == (f_lo > 0):
            t_lo, f_lo = mid, fm
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)


class TestGamma:
    def test_values(self):
        assert gamma(5.0) == 24.0
        assert gamma(1.0) == 1.0
        assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-15

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            gamma(bad)

    def test_reciprocal_poles_and_range(self):
        assert _rgamma(172.0) == 0.0
        assert abs(_rgamma(3.5) - 1.0 / math.gamma(3.5)) < 1e-16


class TestSpecValidation:
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.inf)])
    def test_rejects(self, a, b):
        with pytest.raises(ValueError):
            MLSpec(a, b)

    def test_tuple_coercion(self):
        assert ml_eval((1.0, 1.0), 1.0) == ml_eval(MLSpec(1.0, 1.0), 1.0)


class TestClosedForms:
    def test_exponential(self):
        s = MLSpec(1.0, 1.0)
        for z in (-10.0, -4.5, -1.0, 0.0, 0.5, 3.0, 10.0):
            assert abs(ml_eval(s, z) - math.exp(z)) <= 1e-9 * max(1.0, math.exp(z))

    def test_cosine(self):
        s = MLSpec(2.0, 1.0)
        for t in (0.3, 1.0, 2.5, 7.0, 9.9):
            assert abs(ml_eval(s, -t * t) - math.cos(t)) <= 1e-9

    def test_hyperbolic(self):
        for t in (0.5, 2.0, 6.0):
            got = ml_eval(MLSpec(2.0, 1.0), t * t)
            assert abs(got - math.cosh(t)) <= 1e-9 * math.cosh(t)
            got = ml_eval(MLSpec(2.0, 2.0), t * t)
            assert abs(got - math.sinh(t) / t) <= 1e-9 * math.cosh(t)

    def test_expm1_form(self):
        # E_{1,2}(z) = (e^z - 1)/z
        for z in (-8.0, -0.7, 1.3, 5.0):
            got = ml_eval(MLSpec(1.0, 2.0), z)
            assert abs(got - math.expm1(z) / z) <= 1e-9 * max(1.0, abs(math.expm1(z) / z))

    def test_value_at_origin(self):
        for b in (0.5, 1.0, 1.3, 2.0, 3.7):
            for a in (0.5, 1.0, 1.8):
                assert abs(ml_eval(MLSpec(a, b), 0.0) - 1.0 / math.gamma(b)) < 1e-15


class TestAgainstBrute:
    @pytest.mark.parametrize("a,b,z,want", BRUTE_TABLE)
    def test_frozen_points(self, a, b, z, want):
        got = ml_eval(MLSpec(a, b), z)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_fresh_points(self):
        # not in the frozen table; keeps the oracle itself exercised
        for a, b, z in [(1.35, 0.8, -22.5), (0.85, 1.15, -12.3), (1.65, 1.0, -45.0)]:
            want = brute_series(a, b, z)
            got = ml_eval(MLSpec(a, b), z)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    @pytest.mark.parametrize("x,want", ERFC_TABLE)
    def test_erfc_identity_deep(self, x, want):
        got = ml_eval(MLSpec(0.5, 1.0), -x)
        assert abs(got - want) <= 1e-9

    @pytest.mark.parametrize("z", [-80.25, 80.25])
    def test_tail_term_near_gamma_pole(self, z):
        # beta - 2*alpha is -3 up to one rounding: the k = 2 tail term is tiny
        # only through sin(pi*(beta - 2*alpha)) and must not end the sum
        a = 0.5 + 0.05 * 23
        want = brute_series(a, 0.3, z)
        got = ml_eval(MLSpec(a, 0.3), z)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


# Orders for the integral route's oracle: below the spec box, around alpha = 1
# on both sides and exactly, and up to alpha = 2 exactly.
INTEGRAL_ALPHAS = (0.2, 0.3, 0.45, 0.5, 0.75, 0.9999, 1.0, 1.0001, 1.05, 1.5, 1.95, 2.0)


class TestIntegralRoute:
    def test_integral_route_against_brute(self, monkeypatch):
        """Every value the contour integral serves on the grid agrees with the
        brute series to 1e-12 relative (absolute below one)."""
        served = {}
        route = special._integral_route

        def recording(a, b, z):
            out = route(a, b, z)
            served[(a, b, z)] = out
            return out

        monkeypatch.setattr(special, "_integral_route", recording)
        for a in INTEGRAL_ALPHAS:
            for b in sorted({0.3, 1.0, a, 1.5, 2.0, 3.7}):
                # scaled arguments r = |z|^(1/alpha) up to 120, both signs,
                # and up to 40 below the spec box (alpha < 0.5): the brute
                # series sums about r/alpha terms at 40 + r/2.3 digits
                for r in (0.5, 1.5, 4.0, 12.0, 40.0, 120.0):
                    if a < 0.5 and r > 40.0:
                        continue
                    for z in (-r ** a, r ** a):
                        for tol in (1e-9, 1e-14):
                            ml_eval(MLSpec(a, b), z, tol=tol)
        assert len(served) >= 500
        for (a, b, z), got in served.items():
            want = brute_series(a, b, z)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (a, b, z, got, want)

    def test_deep_argument_matches_inverse_powers(self):
        # alpha < 1 has no residues on the negative axis, and at z = -1e4 the
        # inverse-power expansion -sum_k z^-k / Gamma(beta - alpha k) is exact
        # to far below 1e-9 after five terms
        a, b, z = 0.99, 1.0, -1.0e4
        want = -sum(z ** -k * _rgamma(b - a * k) for k in range(1, 6))
        assert abs(ml_eval(MLSpec(a, b), z) - want) <= 1e-9 * abs(want)

    @pytest.mark.parametrize("x", [1e8, 1e200])
    def test_far_negative_axis(self, x):
        # |z|^(1/alpha) = x^2 puts nodes within one rounding of -r0 (1e16)
        # and past double range (1e400): E_{1/2,1}(-x) = exp(x^2) erfc(x),
        # which is 1/(sqrt(pi) x) to far below 1e-13 here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ml_eval(MLSpec(0.5, 1.0), -x)
        assert abs(got * math.sqrt(math.pi) * x - 1.0) <= 1e-13

    def test_origin_when_the_series_gate_refuses(self):
        # at tol = 1e-14 the hump gate refuses even z = 0 for these orders,
        # so the value comes from the integral route's own z = 0 exit
        assert _series_route(1.5, 3.7, 0.0, 1e-14) is None
        assert ml_eval(MLSpec(1.5, 3.7), 0.0, tol=1e-14) == 0.23977067658467663

    @pytest.mark.parametrize("a,r0", [
        (1.0, 41.0), (2.0, 41.0), (1.0, 40.0 + special._ES_D[73]), (2.0, 40.0 + special._ES_D[61]),
    ])
    @pytest.mark.parametrize("b", [0.5, 1.0, 1.7])
    def test_pole_on_a_node(self, a, r0, b):
        # at alpha = 1 (z < 0) and 2 (z > 0) the pole is on the cut, and at
        # r0 = 40 + d_k it falls exactly on an exp-sinh node past the split
        z = -r0 if a == 1.0 else r0 * r0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ml_eval(MLSpec(a, b), z)
        want = brute_series(a, b, z)
        # the documented accuracy, plus eps * r0 relative at positive z
        growth = special._EPS * r0 * abs(want) if z > 0.0 else 0.0
        assert abs(got - want) <= 1.4e-13 * max(1.0, abs(want)) + growth

    def test_order_above_two_is_refused(self):
        # the series gate fails here and the contour integral needs alpha <= 2
        with pytest.raises(ValueError, match="alpha <= 2"):
            ml_eval(MLSpec(2.5, 1.0), -1.0e4)


class TestPositiveAxis:
    @pytest.mark.parametrize("t", [10.0, 12.0, 20.0])
    def test_subdominant_exponential_at_tight_tolerance(self, t):
        # E_{2,1}(t^2) = cosh t and E_{2,2}(t^2) = sinh(t)/t carry exp(-t)
        # beside the leading exp(t); at tol = 1e-14 it must not be dropped
        for b, want in ((1.0, math.cosh(t)), (2.0, math.sinh(t) / t)):
            got = ml_eval(MLSpec(2.0, b), t * t, tol=1e-14)
            assert abs(got - want) <= 4.0 * special._EPS * want


def test_series_and_continuation_agree_across_handoff():
    # Around |z| = 10 both routes serve these orders: wherever the series gate
    # certifies 1e-12, the contour integral must agree with the series to 1e-12.
    for a in (1.6, 1.8, 2.0):
        for b in (0.5, 1.25, 2.0):
            for x in (8.5, 9.5, 10.5, 11.5):
                for z in (-x, x):
                    s = _series_route(a, b, z, 1e-12)
                    assert s is not None, (a, b, z)
                    v = _integral_route(a, b, z)
                    assert abs(s - v) <= 1e-12 * max(1.0, abs(s)), (a, b, z, s, v)


class TestKernel:
    def test_at_time_zero(self):
        assert ml_kernel_eval(MLSpec(1.5, 1.5), 1.0, 0.0) == 0.0
        assert ml_kernel_eval(MLSpec(1.5, 1.0), 1.0, 0.0) == 1.0
        assert ml_kernel_eval(MLSpec(0.8, 0.8), 1.0, 0.0) == math.inf

    def test_tuple_coercion(self):
        assert ml_kernel_eval((1.5, 1.5), 1.0, 2.0) == ml_kernel_eval(MLSpec(1.5, 1.5), 1.0, 2.0)

    def test_matches_direct_formula(self):
        for a, b, r, t in [(1.5, 1.5, 1.0, 0.5), (1.8, 1.0, 3.0, 2.0), (0.7, 0.7, 0.5, 4.0)]:
            want = t ** (b - 1.0) * ml_eval(MLSpec(a, b), -r * t ** a)
            assert ml_kernel_eval(MLSpec(a, b), r, t) == want

    def test_frozen_value(self):
        # t = 1 makes the prefactor drop out; reference from brute_series
        got = ml_kernel_eval(MLSpec(1.8, 1.8), 2.0, 1.0)
        assert abs(got - 0.61806116076589233) <= 1e-9

    def test_rejects(self):
        with pytest.raises(ValueError):
            ml_kernel_eval(MLSpec(1.5, 1.5), 0.0, 1.0)
        with pytest.raises(ValueError):
            ml_kernel_eval(MLSpec(1.5, 1.5), -2.0, 1.0)
        with pytest.raises(ValueError):
            ml_kernel_eval(MLSpec(1.5, 1.5), 1.0, -0.1)
        with pytest.raises(ValueError):
            ml_kernel_eval(MLSpec(1.5, 1.5), 1.0, math.nan)


class TestEvalErrors:
    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_nonfinite_argument(self, z):
        with pytest.raises(ValueError):
            ml_eval(MLSpec(1.0, 1.0), z)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    def test_rejects_nonpositive_tolerance(self, tol):
        with pytest.raises(ValueError, match="tol"):
            ml_eval(MLSpec(1.5, 1.0), -2.0, tol=tol)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            ml_eval(MLSpec(1.0, 1.0), 710.0)
        with pytest.raises(OverflowError):
            ml_eval(MLSpec(0.5, 1.0), 800.0)

    def test_overflow_after_evaluation(self):
        # log 705 is not above the pre-check's limit, but z^(1 - beta) e^z,
        # about 660 e^705, is: the check on the computed value raises
        assert not math.log(705.0) > special._LN_OVERFLOW
        with pytest.raises(OverflowError, match="double-precision range"):
            ml_eval(MLSpec(1.0, 0.01), 705.0)

    def test_large_but_representable(self):
        got = ml_eval(MLSpec(1.0, 1.0), 700.0)
        assert got == math.exp(700.0)
        got = ml_eval(MLSpec(2.0, 1.0), 1.0e5)  # cosh(316.22...)
        assert math.isfinite(got) and got > 1e130

    @pytest.mark.parametrize("z,tol", [(700.0, 1e300), (99.2, 1e30)])
    def test_loose_tolerance_keeps_every_series_term(self, z, tol):
        # a loose tol admits the double series where z**k leaves double range
        got = ml_eval(MLSpec(1.0, 1.0), z, tol=tol)
        assert abs(got - math.exp(z)) <= min(tol, 1e-12 * math.exp(z))

    def test_coefficient_cache_is_bounded(self):
        for i in range(10_000):
            ml_eval(MLSpec(1.5, 1.0 + 1e-5 * i), -0.5)
        assert 0 < len(special._coef_cache) <= special._COEF_CACHE_SIZE

    @pytest.mark.parametrize("bad", [True, "1.0", None])
    def test_rejects_non_real_argument(self, bad):
        with pytest.raises(ValueError, match="z"):
            ml_eval(MLSpec(1.5, 1.0), bad)

    def test_numpy_real_scalars(self):
        # any real number type passes validation, numpy scalars included
        spec = MLSpec(1.5, 1.0)
        assert ml_eval(spec, np.float32(-2.0)) == ml_eval(spec, -2.0)
        assert ml_eval(spec, np.int64(-3)) == ml_eval(spec, -3.0)
        # orders are stored as Python floats, so no float32 arithmetic follows
        assert MLSpec(np.float32(1.25), np.int64(1)) == MLSpec(1.25, 1.0)
        assert type(MLSpec(np.float32(1.25), np.int64(1)).alpha) is float
        got = ml_kernel_eval(spec, np.float32(2.0), np.int64(1))
        assert got == ml_kernel_eval(spec, 2.0, 1.0)
        with pytest.raises(ValueError, match="rho"):
            ml_kernel_eval(spec, True, 1.0)


class TestFirstZero:
    @pytest.mark.parametrize("kind,a,r,want", ZERO_TABLE)
    def test_frozen_references(self, kind, a, r, want):
        got = ml_first_positive_zero(ZeroQuery(alpha=a, rho=r, kind=kind), tol=1e-9)
        assert abs(got - want) <= 5e-6

    def test_coarse_grid(self):
        for a, want in COARSE_ZERO_REFS.items():
            got = ml_first_positive_zero(ZeroQuery(alpha=a, rho=1.0))
            assert abs(got - want) <= 0.02

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            ml_first_positive_zero(ZeroQuery(alpha=1.5, rho=1.0), horizon=horizon)

    def test_limit_toward_two(self):
        # E_{2,1}(-t^2) = cos(t): first zero pi/2
        got = ml_first_positive_zero(ZeroQuery(alpha=1.999, rho=1.0))
        assert abs(got - math.pi / 2.0) <= 0.01

    def test_existence_and_ordering(self):
        for a in (1.1, 1.3, 1.5, 1.7, 1.9):
            for r in (0.5, 1.0, 2.0, 10.0):
                zs = ml_first_positive_zero(ZeroQuery(alpha=a, rho=r))
                zk = ml_first_positive_zero(ZeroQuery(alpha=a, rho=r, kind=ZeroKind.KERNEL_FORM))
                assert 0.0 < zs < 100.0
                assert 0.0 < zk < 100.0
                # the kernel form keeps its sign strictly longer
                assert zs < zk

    def test_monotone_in_alpha(self):
        # decreasing through alpha = 1.8; past that the zero turns back up
        # toward pi/2, so the sweep stops before the non-monotone stretch
        alphas = sorted(COARSE_ZERO_REFS) + [1.8]
        zs = [ml_first_positive_zero(ZeroQuery(alpha=a, rho=1.0)) for a in alphas]
        for earlier, later in zip(zs, zs[1:]):
            assert later < earlier

    def test_gain_scaling(self):
        for a in (1.2, 1.6):
            base = ml_first_positive_zero(ZeroQuery(alpha=a, rho=1.0), tol=1e-9)
            for r in (0.5, 2.0, 10.0):
                got = ml_first_positive_zero(ZeroQuery(alpha=a, rho=r), tol=1e-9)
                assert abs(got - base * r ** (-1.0 / a)) <= 1e-6

    def test_dense_scan_bracket(self):
        # march the sign of the standard form on a fine grid and require the
        # located zero to sit inside the first sign-change cell
        a, r = 1.4, 1.0
        spec = MLSpec(a, 1.0)
        got = ml_first_positive_zero(ZeroQuery(alpha=a, rho=r), tol=1e-9)
        h = 1e-4
        t = h
        prev = ml_eval(spec, -r * t ** a)
        while t < 10.0:
            t += h
            cur = ml_eval(spec, -r * t ** a)
            if (cur > 0) != (prev > 0):
                assert t - h <= got <= t
                return
            prev = cur
        pytest.fail("scan found no sign change")

    def test_evaluations_per_zero(self, monkeypatch):
        calls = [0]
        evaluate = special.ml_eval

        def counting(*args, **kwargs):
            calls[0] += 1
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(special, "ml_eval", counting)
        for query in ZERO_GRID:
            calls[0] = 0
            ml_first_positive_zero(query)
            assert 0 < calls[0] <= 100, (query, calls[0])

    @pytest.mark.parametrize("kind,want,evals", [
        (ZeroKind.STANDARD_FORM, 1.64522887065178, 65),
        (ZeroKind.KERNEL_FORM, 2.953352121121812, 77),
    ])
    def test_tolerance_below_resolution(self, monkeypatch, kind, want, evals):
        # tol = 1e-300 ends the bisection once the midpoint stops moving; the
        # evaluation count bounds the work per zero
        calls = [0]
        evaluate = special.ml_eval

        def counting(*args, **kwargs):
            calls[0] += 1
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(special, "ml_eval", counting)
        assert ml_first_positive_zero(ZeroQuery(1.5, 1.0, kind), tol=1e-300) == want
        assert calls[0] == evals

    def test_agrees_with_fine_forward_scan(self):
        for query in ZERO_GRID:
            got = ml_first_positive_zero(query)
            assert abs(got - forward_scan_zero(query)) <= 1e-6, query

    def test_horizon_exhaustion(self):
        with pytest.raises(ZeroSearchError):
            ml_first_positive_zero(ZeroQuery(alpha=1.05, rho=1.0), horizon=1.0)

    def test_query_validation(self):
        for bad_alpha in (1.0, 2.0, 0.5, 2.5):
            with pytest.raises(ValueError):
                ZeroQuery(alpha=bad_alpha, rho=1.0)
        for bad_rho in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                ZeroQuery(alpha=1.5, rho=bad_rho)
        with pytest.raises(ValueError):
            ZeroQuery(alpha=1.5, rho=1.0, kind="bogus")

    @pytest.mark.parametrize("kind", ["bogus", "Standard", 5, None])
    def test_kind_rejects_anything_else(self, kind):
        # only a ZeroKind or its exact value; the CLI folds case before this
        with pytest.raises(ValueError, match="zero kind"):
            ZeroQuery(alpha=1.5, rho=1.0, kind=kind)

    def test_kind_accepts_plain_strings(self):
        q = ZeroQuery(alpha=1.5, rho=1.0, kind="kernel")
        assert q.kind is ZeroKind.KERNEL_FORM
        q = ZeroQuery(alpha=1.5, rho=1.0, kind="standard")
        assert q.kind is ZeroKind.STANDARD_FORM
