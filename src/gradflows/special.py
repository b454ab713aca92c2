"""Two-parameter Mittag-Leffler machinery.

Real-line evaluation of E_{a,b}(z) = sum_k z^k / Gamma(a*k + b) plus location of
first positive zeros for the two kernel shapes that drive the fixed-time
convergence bounds.  The evaluator has two routes, both in double precision
with a fixed amount of work: the defining power series wherever its hump gate
certifies the requested tolerance, and otherwise the inverse Laplace transform
of s^{a-b} / (s^a - z) at t = 1 on a Hankel contour (Gorenflo, Loutchko &
Luchko, Fract. Calc. Appl. Anal. 5, 2002; Garrappa, SIAM J. Numer. Anal. 53,
2015): a circle about the origin, the two banks of the negative axis folded
into one real integral, and the residues of the poles outside the circle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._checks import real_in

__all__ = [
    "MLSpec",
    "ZeroKind",
    "ZeroQuery",
    "ZeroSearchError",
    "gamma",
    "ml_eval",
    "ml_kernel_eval",
    "ml_first_positive_zero",
]

_EPS = 2.220446049250313e-16
# exp(x) overflows double just past x = 709.78; refuse once the exponential
# scale z**(1/alpha) of a growing argument crosses this, prefactor aside.
_LN_OVERFLOW = math.log(705.0)


class ZeroSearchError(RuntimeError):
    """No sign change was found before the search horizon."""


def gamma(x: float) -> float:
    """Euler gamma function on the positive half line.

    Raises ValueError for non-positive or non-finite arguments.  Relative
    accuracy is at machine level throughout [0.1, 50].
    """
    return math.gamma(real_in("gamma argument", x))


def _rgamma(x: float) -> float:
    """Reciprocal gamma for x > 0, the domain of alpha * k + beta and beta."""
    if x > 171.6:
        return 0.0  # gamma overflows double range; reciprocal underflows
    return 1.0 / math.gamma(x)


@dataclass(frozen=True)
class MLSpec:
    """Order pair (alpha, beta) of the two-parameter Mittag-Leffler function."""

    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", real_in("alpha", self.alpha))
        object.__setattr__(self, "beta", real_in("beta", self.beta))


# ---------------------------------------------------------------------------
# power series

# Reciprocal-gamma coefficients per order pair, dropped oldest first beyond
# _COEF_CACHE_SIZE pairs so that a sweep over orders cannot grow it for ever.
_COEF_CACHE_SIZE = 256
_coef_cache: dict[tuple[float, float], list[float]] = {}


def _series_double(alpha: float, beta: float, z: float, kmax: int) -> float | None:
    """Double-precision partial sum, or None once a term leaves double range.

    A power z**k past 1e300, or a reciprocal gamma that underflows to zero,
    comes before the sum has converged; the caller must then use the integral.
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


def _series_route(alpha: float, beta: float, z: float, tol: float) -> float | None:
    """Power series where its hump gate certifies `tol`, else None."""
    x = abs(z)
    if math.log(x + 1.0) > 700.0 * alpha:
        return None  # x**(1/alpha) would overflow: no tol admits such a hump
    root = x ** (1.0 / alpha)
    kstar = max(1.0, root / alpha)
    peak = 0.0  # crude log-magnitude bound on the largest term, from k = 1, 2, k*
    if x > 1.0:
        lx = math.log(x)
        peak = max(0.0, *(k * lx - math.lgamma(alpha * k + beta) for k in (1.0, 2.0, kstar)))
    hump = math.exp(min(peak, 700.0))
    # Double precision must absorb both plain roundoff on the largest term and
    # the noise injected by rounding the gamma arguments alpha*k + beta.
    argmax = root + beta + 2.0
    transfer = 0.5 * _EPS * argmax * max(1.0, math.log(argmax)) * 3.0
    if hump * (2.0 * _EPS + transfer) > 0.25 * tol:
        return None
    return _series_double(alpha, beta, z, int(max(250, 8.0 * kstar + 50.0)))


# ---------------------------------------------------------------------------
# Hankel contour integral

# One node set serves every call.  On the grid t = k/16, |k| <= 64, tanh-sinh
# maps to [0, 1] (node u, its distance v = 1 - u from the right end, weight)
# and exp-sinh to [0, inf) (node d, weight); 48 Gauss-Legendre nodes cover the
# half circle e^{i phi}, phi in [0, pi], weights scaled by 1/pi.
_T = np.arange(-64, 65) / 16.0
_Y = 0.5 * np.pi * np.sinh(_T)
_DY = 0.5 * np.pi * np.cosh(_T) / 16.0
_TS_U = 1.0 / (1.0 + np.exp(-2.0 * _Y))
_TS_V = 1.0 / (1.0 + np.exp(2.0 * _Y))
_TS_W = 2.0 * _DY * _TS_U * _TS_V
_ES_D = np.exp(_Y)
_ES_W = _DY * _ES_D


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] by Newton's method.

    numpy's leggauss would do, but its eigenvalue solve starts LAPACK, which
    costs the process about 2 MB of resident memory for 48 numbers.
    """
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(6):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)  # P_n'(x)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


_GL_X, _GL_W = _gauss_legendre(48)
_CIRCLE = np.exp(0.5j * np.pi * (_GL_X + 1.0))
_PHI_W = 0.5 * _GL_W


def _saddle_pair(alpha: float, beta: float, x: float) -> float:
    """Residues of the conjugate pole pair for z = -x < 0 and alpha > 1.

    Decays like exp(x^{1/alpha} cos(pi/alpha)); at alpha = 2 it reduces exactly
    to the classical trigonometric closed forms.
    """
    r = x ** (1.0 / alpha)
    ang = math.pi / alpha
    damp = r * math.cos(ang)
    if damp < -700.0:
        return 0.0
    amp = (2.0 / alpha) * x ** ((1.0 - beta) / alpha) * math.exp(damp)
    return amp * math.cos(r * math.sin(ang) + (1.0 - beta) * ang)


def _integral_route(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) from the Hankel contour, for alpha <= 2.

    The contour is the circle |s| = c, 2 when r0 = |z|^{1/alpha} <= 1 (every
    pole inside) and 1/2 otherwise, plus both banks of the cut s = -r, r > c,
    where the integrand folds to (1/pi) e^{-r} r^{a-b} Im[e^{i pi b} / w(r)]
    with w = r^a - z e^{i pi a}.  Past the circle the cut is split at r0 or
    at 40, whichever comes first (tanh-sinh before, exp-sinh after), and
    r^a - |z| comes from the offset r - r0 so that w keeps its digits next to
    its zero.  For alpha near 1 (z < 0) or 2 (z > 0) that zero nears the
    axis: its pole term, paired with one at -r0 so that it integrates to the
    end, is subtracted from the integrand and added back in closed form.  At
    alpha = 1 or 2 exactly the pole lies on the cut and the closed form is
    its principal value taken from the side without residues.
    """
    if z == 0.0:
        return _rgamma(beta)
    if alpha > 2.0:
        raise ValueError(
            "E_{%g,%g}(%g): the series cannot certify tol here and the contour "
            "integral needs alpha <= 2" % (alpha, beta, z)
        )
    x = abs(z)
    # past e^700, r0 only places the split and the pole term, which e^-r0 zeroes
    r0 = x ** (1.0 / alpha) if math.log(x) < 700.0 * alpha else math.exp(700.0)
    # z e^{i pi alpha} = x e^{i theta} with theta in (-pi, pi]; gap = x (1 - e^{i theta})
    theta = math.pi * (alpha - 1.0 if z < 0.0 else alpha - 2.0 if alpha > 1.0 else alpha)
    gap = x * complex(2.0 * math.sin(0.5 * theta) ** 2, -math.sin(theta))
    far = r0 > 1.0
    c = 0.5 if far else 2.0
    s = c * _CIRCLE
    total = float(np.dot(_PHI_W, (np.exp(s) * s ** (1.0 + alpha - beta) / (s ** alpha - z)).real))
    if far:
        # split at r0, or at 40 (e^-r < 5e-18 beyond) where r0 is further out
        split = min(r0, 40.0)
        span = split - c
        off = (split - r0) + np.concatenate((-span * _TS_V, _ES_D))  # r - r0
        r = np.concatenate((c + span * _TS_U, split + _ES_D))
        weights = np.concatenate((span * _TS_W, _ES_W))
        if theta == 0.0:
            # pole on the cut: drop an exp-sinh node that lands on it (off == 0,
            # as at r0 = 41); weight times value there is below 1e-16
            keep = off != 0.0
            off, r, weights = off[keep], r[keep], weights[keep]
        # log(r / r0) from the offset, as log1p of a positive ratio on either side
        lg = np.copysign(np.log1p(np.abs(off) / np.where(off < 0.0, r, r0)), off)
        rise = x * np.expm1(alpha * lg)
    else:
        r = c + _ES_D
        weights = _ES_W
        rise = r ** alpha - x
    turn = complex(math.cos(math.pi * beta), math.sin(math.pi * beta))
    cut = np.exp(-r) * r ** (alpha - beta) * (turn / (rise + gap)).imag / math.pi
    psi = theta / alpha  # the zero of w sits at r0 e^{i psi}
    if far and abs(psi) < 0.25 * math.pi:  # nearer the axis than its real part
        rp = r0 * complex(math.cos(psi), math.sin(psi))
        amp = cmath.exp(-rp) * rp ** (1.0 - beta) * turn / (math.pi * alpha)
        near = r0 * complex(2.0 * math.sin(0.5 * psi) ** 2, -math.sin(psi))  # r0 - rp
        cut -= (amp * (1.0 / (off + near) - 1.0 / (r + r0))).imag
        # log(r - rp) continued from r = +inf down to c; on the axis (psi = 0)
        # 0.0 - imag is +0.0, the limit from the residue-free side psi < 0
        lead_in = cmath.log(complex(c - rp.real, 0.0 - rp.imag))
        total += (amp * (math.log(c + r0) - lead_in)).imag
    total += float(np.dot(weights, cut))
    if not far:
        return total
    if z > 0.0:
        return total + x ** ((1.0 - beta) / alpha) * math.exp(r0) / alpha
    if alpha > 1.0:
        return total + _saddle_pair(alpha, beta, x)
    return total


# ---------------------------------------------------------------------------
# public evaluation

def ml_eval(spec: MLSpec, z: float, *, tol: float = 1e-9) -> float:
    """Evaluate E_{alpha,beta}(z) on the real line.

    Two routes.  The defining series in double precision serves wherever its
    hump gate (largest term times the roundoff it carries) stays below `tol`/4;
    every other point takes the Hankel contour integral, residues included.
    Each call does a fixed amount of work: at most max(250, 8 k* + 50) series
    terms, k* = |z|^{1/alpha}/alpha, where the gate passes, else 48 circle
    nodes and 129 or 258 cut nodes.  `tol` only moves that boundary.

    The error is absolute, within `tol` (default 1e-9), wherever |E| * eps
    stays below `tol`, and relative, a few eps times |E|, where it does not
    (large positive arguments).  Against a high-precision series, the integral
    was within 1.4e-13 of max(1, |E|) for 0.2 <= alpha <= 2, 0.05 <= beta <= 5
    and 1e-6 <= |z|^{1/alpha} <= 250, orders within 1e-12 of 1, 1/2 and 2
    included; at large positive z the error grows like eps * |z|^{1/alpha},
    the conditioning of exp(z^{1/alpha}).  At alpha = 1 (z < 0) and alpha = 2
    (z > 0) a pole sits on the cut; its principal value is taken in closed
    form, so those orders need no separate formula.

    Orders alpha > 2 raise ValueError at points the series gate refuses.  A
    non-finite `z`, or a `tol` that is not a positive finite real, raises
    ValueError.  Values that grow past double range raise OverflowError.
    """
    if not isinstance(spec, MLSpec):
        spec = MLSpec(*spec)
    z = real_in("z", z, -math.inf)
    real_in("tol", tol)
    a, b = spec.alpha, spec.beta
    if z > 1.0 and math.log(z) / a > _LN_OVERFLOW:
        raise OverflowError(
            "E_{%g,%g}(%g) exceeds double-precision range" % (a, b, z)
        )
    out = _series_route(a, b, z, tol)
    if out is None:
        out = _integral_route(a, b, z)
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
        try:
            object.__setattr__(self, "kind", ZeroKind(self.kind))
        except ValueError:
            raise ValueError(
                "unknown zero kind %r (choose standard or kernel)" % (self.kind,)
            ) from None
        # zeros are guaranteed to exist only on this range
        object.__setattr__(self, "alpha", real_in("alpha", self.alpha, 1.0, 2.0))
        object.__setattr__(self, "rho", real_in("rho", self.rho))


def ml_first_positive_zero(query: ZeroQuery, *, tol: float = 1e-6, horizon: float = 100.0) -> float:
    """Locate the smallest t > 0 where the queried form crosses zero.

    The search brackets `ml_kernel_eval` at beta = 1 (standard form) or
    beta = alpha (kernel form).  Forward sampling at a step of 0.1 in scaled
    time s = rho^{1/alpha} t brackets the first sign change, and an exact 0.0
    counts as one; bisection refines it to absolute tolerance `tol`, or until
    the midpoint no longer moves in double precision.  The step cannot skip a
    zero: both forms are functions of z = -s^alpha alone (up to the positive
    factor t^{alpha-1}), so their sign pattern in s does not depend on rho;
    for 1 < alpha < 2 the first zeros lie past s = 1.5 and neighbouring zeros
    are about pi or more apart in s (E_{2,1}(-s^2) = cos s), far wider than
    the step.  Raises ZeroSearchError when no sign change shows up before
    `horizon` (parameters outside the guaranteed regime), and ValueError when
    `tol` or `horizon` is not a positive finite real.
    """
    real_in("tol", tol)
    real_in("horizon", horizon)
    a, r = query.alpha, query.rho
    spec = MLSpec(a, 1.0 if query.kind is ZeroKind.STANDARD_FORM else a)
    step = 0.1 * r ** (-1.0 / a)
    t_lo = step
    pos = ml_kernel_eval(spec, r, t_lo) > 0.0  # the sign at the first sample
    while True:
        t_hi = t_lo + step
        if t_hi > horizon:
            raise ZeroSearchError(
                "no sign change of the %s form before t=%g (alpha=%g, rho=%g)"
                % (query.kind.value, horizon, a, r)
            )
        v = ml_kernel_eval(spec, r, t_hi)
        if not (v > 0.0 if pos else v < 0.0):  # a sign change or an exact zero
            break
        t_lo = t_hi
    while t_hi - t_lo > tol:
        mid = 0.5 * (t_lo + t_hi)
        if not t_lo < mid < t_hi:
            break
        v = ml_kernel_eval(spec, r, mid)
        if (v > 0.0 if pos else v < 0.0):
            t_lo = mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)
