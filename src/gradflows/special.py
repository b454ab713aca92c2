"""Two-parameter Mittag-Leffler machinery.

Real-line evaluation of E_{a,b}(z) = sum_k z^k / Gamma(a*k + b) plus location of
first positive zeros for the two kernel shapes that drive the fixed-time
convergence bounds.  The evaluator routes between the defining power series
(small or moderate arguments), an inverse-power continuation with a conjugate
exponential pair (deep negative arguments), the leading exponential plus the
same inverse-power tail (large positive arguments), and an arbitrary-precision
series fallback when double precision cannot absorb the alternating-sum
cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import mpmath

from ._checks import real_in

__all__ = [
    "MLSpec",
    "ZeroKind",
    "ZeroQuery",
    "PrecisionLossError",
    "ZeroSearchError",
    "gamma",
    "ml_eval",
    "ml_kernel_eval",
    "ml_first_positive_zero",
]

_EPS = 2.220446049250313e-16
_LN10 = math.log(10.0)
# exp(x) overflows double just past x = 709.78; refuse once the exponential
# scale z**(1/alpha) of a growing argument crosses this, prefactor aside.
_LN_OVERFLOW = math.log(705.0)

# Beyond this the double series for z < 0 hands off to the continuation schemes.
SERIES_RADIUS = 10.0


class PrecisionLossError(ArithmeticError):
    """The evaluator could not certify the requested accuracy."""


class ZeroSearchError(RuntimeError):
    """No sign change was found before the search horizon."""


def gamma(x: float) -> float:
    """Euler gamma function on the positive half line.

    Raises ValueError for non-positive or non-finite arguments.  Relative
    accuracy is at machine level throughout [0.1, 50].
    """
    return math.gamma(real_in("gamma argument", x))


def _rgamma(x: float) -> float:
    """Reciprocal gamma, entire in x; exactly 0.0 at the poles of gamma."""
    if x > 171.6:
        return 0.0  # gamma overflows double range; reciprocal underflows
    if x > 0.0:
        return 1.0 / math.gamma(x)
    if x == math.floor(x):
        return 0.0
    s = math.sin(math.pi * x)
    mag = math.lgamma(1.0 - x) + math.log(abs(s) / math.pi)
    if mag > 709.0:
        raise OverflowError("reciprocal gamma overflows at x=%g" % x)
    return math.copysign(math.exp(mag), s)


def _rgamma_signed_log(x: float) -> tuple[float, float]:
    """(log magnitude, sign) of 1/Gamma(x); sign 0.0 marks a pole of gamma."""
    if x > 0.0:
        return -math.lgamma(x), 1.0
    if x == math.floor(x):
        return -math.inf, 0.0
    s = math.sin(math.pi * x)
    return math.lgamma(1.0 - x) + math.log(abs(s) / math.pi), math.copysign(1.0, s)


@dataclass(frozen=True)
class MLSpec:
    """Order pair (alpha, beta) of the two-parameter Mittag-Leffler function."""

    alpha: float
    beta: float

    def __post_init__(self):
        real_in("alpha", self.alpha)
        real_in("beta", self.beta)


# ---------------------------------------------------------------------------
# power series

# Reciprocal-gamma coefficients per order pair, dropped oldest first beyond
# _COEF_CACHE_SIZE pairs so that a sweep over orders cannot grow it for ever.
_COEF_CACHE_SIZE = 256
_coef_cache: dict[tuple[float, float], list[float]] = {}


def _series_peak_nats(alpha: float, beta: float, x: float) -> float:
    """Crude log-magnitude bound on the largest series term at |z| = x."""
    if x <= 1.0:
        return 0.0
    lx = math.log(x)

    def p(k):
        return k * lx - math.lgamma(alpha * k + beta)

    kstar = max(1.0, x ** (1.0 / alpha) / alpha)
    return max(0.0, p(1.0), p(2.0), p(kstar))


def _series_double(alpha: float, beta: float, z: float, kmax: int) -> float | None:
    """Double-precision partial sum, or None once a term leaves double range.

    A power z**k past 1e300, or a reciprocal gamma that underflows to zero,
    comes before the sum has converged; the caller must then use more range.
    """
    key = (alpha, beta)
    cs = _coef_cache.get(key)
    if cs is None:
        if len(_coef_cache) >= _COEF_CACHE_SIZE:
            del _coef_cache[next(iter(_coef_cache))]
        cs = _coef_cache[key] = []
    terms = []
    p = 1.0
    running = 0.0
    for k in range(kmax + 1):
        if k >= len(cs):
            cs.append(_rgamma(alpha * k + beta))
        if cs[k] == 0.0 or abs(p) > 1e300:
            return None
        t = p * cs[k]
        terms.append(t)
        running += t
        if k >= 4 and abs(t) <= 1e-17 * (1.0 + abs(running)):
            break
        p *= z
    return math.fsum(terms)


def _series_mp(alpha: float, beta: float, z: float, dps: int, kmax: int) -> float:
    with mpmath.workdps(dps):
        zz = mpmath.mpf(z)
        # The gamma arguments must be formed in working precision: a double
        # rounding of alpha*k would leave a huge residue after the alternating
        # sum cancels its hump.
        aa = mpmath.mpf(alpha)
        bb = mpmath.mpf(beta)
        total = mpmath.mpf(0)
        p = mpmath.mpf(1)
        cutoff = mpmath.mpf(10) ** (-(dps - 3))
        for k in range(kmax + 1):
            t = p * mpmath.rgamma(aa * k + bb)
            total += t
            if k >= 4 and abs(t) <= cutoff * (1 + abs(total)):
                break
            p *= zz
        return float(total)


def _series_route(alpha: float, beta: float, z: float, tol: float) -> float:
    """Power series with automatic precision escalation."""
    x = abs(z)
    peak = _series_peak_nats(alpha, beta, x)
    hump = math.exp(min(peak, 700.0))
    # Double precision must absorb both plain roundoff on the largest term and
    # the noise injected by rounding the gamma arguments alpha*k + beta.
    argmax = x ** (1.0 / alpha) + beta + 2.0
    transfer = 0.5 * _EPS * argmax * max(1.0, math.log(argmax)) * 3.0
    if hump * (2.0 * _EPS + transfer) <= 0.25 * tol:
        kstar = max(1.0, x ** (1.0 / alpha) / alpha)
        out = _series_double(alpha, beta, z, int(max(250, 8.0 * kstar + 50.0)))
        if out is not None:
            return out
    dps = int(peak / _LN10) + 26 + max(0, int(round(-math.log10(tol))))
    if dps > 3000:
        raise PrecisionLossError(
            "series evaluation at alpha=%g, z=%g would need ~%d digits" % (alpha, z, dps)
        )
    kmax = int(8.0 * max(1.0, x ** (1.0 / alpha) / alpha) + 100.0)
    return _series_mp(alpha, beta, z, dps, kmax)


# ---------------------------------------------------------------------------
# large arguments

def _asym_tail(alpha: float, beta: float, z: float) -> tuple[float, float]:
    """Inverse-power tail -sum_{k>=1} z^{-k}/Gamma(beta - alpha*k) for |z| >> 1.

    Truncated at the smallest term.  Returns (sum, floor) where floor is the
    magnitude of the first omitted term, i.e. the best accuracy this divergent
    expansion can deliver at the given argument.  The floor is 0.0 when every
    term vanishes (beta - alpha*k a pole of gamma for all k), as for the
    exponential and the trigonometric closed forms.
    """
    if alpha == math.floor(alpha) and beta == math.floor(beta) and beta <= alpha:
        return 0.0, 0.0  # every beta - alpha*k is a pole of gamma
    x = abs(z)
    lx = math.log(x)
    total = 0.0
    last = math.inf
    k = 1
    while k <= 300:
        g = beta - alpha * k
        lm, sg = _rgamma_signed_log(g)
        if sg == 0.0:
            k += 1
            continue
        mlog = lm - k * lx
        if mlog >= 690.0:
            return total, math.inf
        mag = math.exp(mlog)
        if mag >= last:
            return total, mag
        term = math.copysign(mag, sg)  # magnitude of z^{-k}/Gamma with gamma's sign
        total += term if z < 0.0 and k % 2 == 1 else -term
        last = mag
        # Near a pole of gamma a term is small through sin(pi*g), not through
        # convergence: judge convergence on the term without that factor.
        shape = abs(math.sin(math.pi * g)) if g < 0.0 else 1.0
        if mag <= 1e-18 * (1.0 + abs(total)) * shape:
            return total, mag
        k += 1
    return total, last if last < math.inf else 0.0


def _saddle_pair(alpha: float, beta: float, x: float) -> float:
    """Conjugate exponential pair of the large-argument expansion, z = -x < 0.

    Present only for alpha > 1; decays like exp(x^{1/alpha} cos(pi/alpha)).
    At alpha = 2 it reduces exactly to the classical trigonometric closed forms.
    """
    r = x ** (1.0 / alpha)
    ang = math.pi / alpha
    damp = r * math.cos(ang)
    if damp < -700.0:
        return 0.0
    amp = (2.0 / alpha) * x ** ((1.0 - beta) / alpha) * math.exp(damp)
    return amp * math.cos(r * math.sin(ang) + (1.0 - beta) * ang)


def _eval_asymptotic(alpha: float, beta: float, z: float) -> tuple[float, float]:
    """Continuation value and its error floor for z below -SERIES_RADIUS."""
    tail, floor = _asym_tail(alpha, beta, z)
    if alpha > 1.0:
        return tail + _saddle_pair(alpha, beta, -z), floor
    return tail, floor


def _exponential_route(alpha: float, beta: float, z: float, tol: float) -> float | None:
    """Leading exponential plus inverse-power tail for z above SERIES_RADIUS.

    E(z) = z^{(1-beta)/alpha} exp(z^{1/alpha}) / alpha + tail (Podlubny 1999,
    Thm 1.3; Gorenflo et al. 2014, sec. 4.7).  Serves only where the leading
    term times machine epsilon reaches `tol`, so that double precision cannot
    hold absolute `tol` on any route, and accepts the value when the tail's
    floor is within a quarter of max(tol, |E| eps).  For alpha > 4/3 the
    subdominant exponentials exp(z^{1/alpha} e^{+-2 pi i/alpha}) must also lie
    below tol/4 relative to the leading one.  Returns None where it does not
    apply.  At alpha = beta = 1 the value is math.exp(z) exactly.
    """
    r = z ** (1.0 / alpha)
    lead = z ** ((1.0 - beta) / alpha) * math.exp(r) / alpha
    if lead * _EPS < tol:
        return None
    if alpha > 4.0 / 3.0 and r * (1.0 - math.cos(2.0 * math.pi / alpha)) < math.log(4.0 / tol):
        return None
    tail, floor = _asym_tail(alpha, beta, z)
    out = lead + tail
    if floor > 0.25 * max(tol, abs(out) * _EPS):
        return None
    return out


# ---------------------------------------------------------------------------
# public evaluation

def ml_eval(spec: MLSpec, z: float, *, tol: float = 1e-9) -> float:
    """Evaluate E_{alpha,beta}(z) on the real line.

    The error is absolute, within `tol` (default 1e-9), for z in [-100, 100]
    and orders in [0.5, 2] wherever |E| * eps stays below `tol`; outside the
    box the same routing applies on a best-effort basis.  For large positive
    arguments, where |E| * eps exceeds `tol`, no double-precision value can
    hold absolute `tol` and the error is relative instead: a few eps times
    |E|.  There the exponential route (leading term
    z^{(1-beta)/alpha} exp(z^{1/alpha}) / alpha plus the inverse-power tail)
    serves when its own error floor allows, and the series otherwise.  A
    non-finite `z`, or a `tol` that is not a positive finite real, raises
    ValueError.  Values that grow past double range raise OverflowError.
    """
    if not isinstance(spec, MLSpec):
        spec = MLSpec(*spec)
    if not (isinstance(z, (int, float)) and math.isfinite(z)):
        raise ValueError("ml_eval needs a finite real argument, got %r" % (z,))
    z = float(z)
    real_in("tol", tol)
    a, b = spec.alpha, spec.beta
    if z > 1.0 and math.log(z) / a > _LN_OVERFLOW:
        raise OverflowError(
            "E_{%g,%g}(%g) exceeds double-precision range" % (a, b, z)
        )
    if z > SERIES_RADIUS:
        out = _exponential_route(a, b, z, tol)
        if out is None:
            out = _series_route(a, b, z, tol)
    elif z >= -SERIES_RADIUS:
        out = _series_route(a, b, z, tol)
    elif 0.95 < a < 1.05:
        # Around alpha = 1 the two exponential branches coalesce on the
        # negative axis and the pair formula loses meaning; stay on the series.
        out = _series_route(a, b, z, tol)
    else:
        val, floor = _eval_asymptotic(a, b, z)
        usable = floor <= 0.25 * tol
        if usable and a >= 1.05:
            x = -z
            usable = x ** (1.0 / a) * math.sin(math.pi / a) >= 10.0
        out = val if usable else _series_route(a, b, z, tol)
    if not math.isfinite(out):
        raise OverflowError(
            "E_{%g,%g}(%g) exceeds double-precision range" % (a, b, z)
        )
    return out


def ml_kernel_eval(spec: MLSpec, rho: float, t: float, *, tol: float = 1e-9) -> float:
    """Evaluate the convolution kernel t^{beta-1} E_{alpha,beta}(-rho t^alpha)."""
    if not isinstance(spec, MLSpec):
        spec = MLSpec(*spec)
    real_in("rho", rho)
    real_in("t", t, low_closed=True)
    if t == 0.0:
        if spec.beta > 1.0:
            return 0.0
        if spec.beta == 1.0:
            return 1.0
        return math.inf  # t^{beta-1} blows up for beta < 1
    z = -rho * t ** spec.alpha
    return t ** (spec.beta - 1.0) * ml_eval(spec, z, tol=tol)


# ---------------------------------------------------------------------------
# first positive zeros

class ZeroKind(Enum):
    """Which kernel shape the zero search targets."""

    STANDARD_FORM = "standard"  # E_{a,1}(-rho t^a)
    KERNEL_FORM = "kernel"      # t^{a-1} E_{a,a}(-rho t^a)


@dataclass(frozen=True)
class ZeroQuery:
    """First-positive-zero request; zeros are guaranteed for 1 < alpha < 2."""

    alpha: float
    rho: float
    kind: ZeroKind = ZeroKind.STANDARD_FORM

    def __post_init__(self):
        if isinstance(self.kind, str):
            object.__setattr__(self, "kind", ZeroKind(self.kind))
        # zeros are guaranteed to exist only on this range
        real_in("alpha", self.alpha, 1.0, 2.0)
        real_in("rho", self.rho)


def ml_first_positive_zero(query: ZeroQuery, *, tol: float = 1e-6, horizon: float = 100.0) -> float:
    """Locate the smallest t > 0 where the queried form crosses zero.

    Forward sampling at a step of 0.1 in scaled time s = rho^{1/alpha} t
    brackets the first sign change, bisection refines it to absolute
    tolerance `tol`, or until the midpoint no longer moves in double
    precision.  The step cannot skip a zero: both forms are functions of
    z = -s^alpha alone (up to the positive factor t^{alpha-1}), so their sign
    pattern in s does not depend on rho; for 1 < alpha < 2 the first zeros lie
    past s = 1.5 and neighbouring zeros are about pi or more apart in s
    (E_{2,1}(-s^2) = cos s), far wider than the step.  Raises ZeroSearchError
    when no sign change shows up before `horizon` (parameters outside the
    guaranteed regime), and ValueError when `tol` or `horizon` is not a
    positive finite real.
    """
    real_in("tol", tol)
    real_in("horizon", horizon)
    a, r = query.alpha, query.rho
    if query.kind is ZeroKind.STANDARD_FORM:
        spec = MLSpec(a, 1.0)

        def f(t):
            return ml_eval(spec, -r * t ** a)

    else:
        spec = MLSpec(a, a)

        def f(t):
            return t ** (a - 1.0) * ml_eval(spec, -r * t ** a)

    step = 0.1 * r ** (-1.0 / a)
    t_lo = step
    f_lo = f(t_lo)
    if f_lo == 0.0:
        return t_lo
    t_hi = t_lo
    while True:
        t_hi = t_lo + step
        if t_hi > horizon:
            raise ZeroSearchError(
                "no sign change of the %s form before t=%g (alpha=%g, rho=%g)"
                % (query.kind.value, horizon, a, r)
            )
        f_hi = f(t_hi)
        if f_hi == 0.0:
            return t_hi
        if (f_lo > 0) != (f_hi > 0):
            break
        t_lo, f_lo = t_hi, f_hi
    while t_hi - t_lo > tol:
        mid = 0.5 * (t_lo + t_hi)
        if not t_lo < mid < t_hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (f_lo > 0):
            t_lo, f_lo = mid, fm
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)
