"""Caputo-derivative channel for mixed-order systems.

One state in the flow models carries a fractional derivative of order
beta in (0, 1]; the rest are ordinary first-order states.  This module
advances that single channel with the fractional Adams predictor-corrector
(product-trapezoidal corrector, product-rectangle predictor) on a uniform
grid with full memory.  At beta = 1 every formula collapses to the classical
Euler predictor / trapezoidal corrector pair.

History sums use the dyadic blocked convolution of Hairer, Lubich &
Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985), so a step costs
O(log(n)**2) amortized rather than O(n).  Samples are stored newest-first;
the newest n mod 256 of them, and all of them while n < 256, are summed by
unit-stride dot products, which give the same bits as unblocked sums.  Older
samples enter through far sums that FFT convolutions of dyadic blocks add
up ahead of time; these agree with the direct sums to roundoff (below
4e-16 of the sum of |weight * sample| through 2**16 samples) but not bit
for bit.  The corrector's end weight, which multiplies the first sample,
stays outside the blocks and keeps its direct arithmetic.

`_lag_weights` builds the weights by lag for both the direct-sum tables and
the FFT kernels, `_end_weights` the end weights.  The unblocked reference
sums live in tests/test_caputo.py.

Accuracy (Diethelm, Ford & Freed, Numer. Algorithms 36, 2004): the error is
O(h**(1+beta)) when D^beta theta is C^2 on [0, T], e.g. theta = t**(1+beta).
It is lower when the solution is not smooth at 0, as for the relaxation
D^beta theta = -theta, whose solution E_beta(-t**beta) halves its error by
only about 1.8 per halved step at beta = 0.2.  Rates that are constant or
linear in t alone are integrated exactly, so they show no order at all.
"""

from __future__ import annotations

import math

import numpy as np

from ._checks import real_in

__all__ = [
    "CaputoChannel",
    "InconsistentStateError",
    "solve_caputo",
]


class InconsistentStateError(RuntimeError):
    """The stored sample history does not match the requested step count."""


# Samples older than the last multiple of _BLOCK enter the history sums
# through FFT blocks; the newer ones, and every sum while n < _BLOCK, are
# direct dot products.  Measured at 2**15 samples: the folds' share of a
# push is 1.5 us at 64, 1.1 at 256 and 0.9 at 1024, while a dot product
# costs its 1.7 us call overhead up to 256 samples and 0.35 us more at 1024.
_BLOCK = 256
# Kernel transforms of blocks up to this length recur every 2L pushes and
# are kept, saving about 0.2 us per push; longer ones would hold O(n)
# memory per channel.
_CACHED_LEVEL = 1024


def _lag_weights(beta: float, row: int, count: int) -> np.ndarray:
    """Unscaled weights at lags i = 1, ..., count: the predictor's (row 0)
    i**beta - (i-1)**beta, or the corrector's interior (row 1) second
    differences (i+1)**(beta+1) - 2 * i**(beta+1) + (i-1)**(beta+1)."""
    pw = np.arange(count + 1 + row, dtype=float) ** (beta + row)
    if row == 0:
        return pw[1:] - pw[:-1]
    return pw[2:] - 2.0 * pw[1:-1] + pw[:-2]


def _end_weights(beta: float, first: int, count: int) -> np.ndarray:
    """End weights (n-1)**(beta+1) - (n-1-beta) * n**beta for n = first, ..., first + count - 1.

    `first` >= 1.  The corrector fetches them in blocks of `_BLOCK` outputs
    (`CaputoChannel._a0`).  Both powers come from numpy arrays, whose
    elements do not depend on their position, so an output gets the same
    bits whichever block serves it.
    """
    idx = np.arange(first - 1, first + count, dtype=float)
    return idx[:-1] ** (beta + 1.0) - (idx[1:] - 1.0 - beta) * idx[1:] ** beta


class CaputoChannel:
    """Single fractional-order state with full-memory sample history.

    Mutable per-simulation object; push one right-hand-side sample per
    accepted step, then predict/correct the value at the next grid point.
    Not safe for concurrent mutation.  The n samples sit newest-first at the
    end of one buffer, `_g[-n:]`.

    Once n >= `_BLOCK`, each history sum is split at the last multiple of
    `_BLOCK` not above n: the n mod `_BLOCK` newest samples are summed
    directly, the older ones are read from `_far[:, n]`.  When `push` brings
    the count m to a multiple of `_BLOCK`, the L = m & -m newest samples
    (L = `_BLOCK` * 2**k, k the number of trailing zeros of m / `_BLOCK`)
    are convolved by FFT with the kernel lags 1..2L-1 and added to the far
    sums of outputs m..m+L-1.  These blocks partition every output's older
    history exactly.  Below `_BLOCK` samples both sums are plain dot
    products, bit-identical to unblocked ones; from there on they agree with
    them to roundoff.
    """

    def __init__(self, beta: float, initial_value: float = 0.0):
        self.beta = real_in("fractional order", beta, 0.0, 1.0, high_closed=True)
        self.initial_value = real_in("initial value", initial_value, -math.inf)
        self._n = 0
        self._rg1 = 1.0 / math.gamma(self.beta + 1.0)
        self._rg2 = 1.0 / math.gamma(self.beta + 2.0)
        self._g = np.empty(_BLOCK)
        self._far = np.zeros((2, 2 * _BLOCK))  # a fold at count m reaches output 2m - 1
        # near tables indexed by lag; lag 0 is never an interior one
        self._pd = _lag_weights(self.beta, 0, _BLOCK)
        self._cw = np.concatenate(([np.nan], _lag_weights(self.beta, 1, _BLOCK - 1)))
        self._a0_from = 0  # first output that the end-weight block `_a0` serves
        self._a0 = np.empty(0)
        self._kernels = {}

    # -- state ------------------------------------------------------------

    @property
    def history(self) -> np.ndarray:
        """Copy of the accepted right-hand-side samples, oldest first."""
        return self._g[len(self._g) - self._n :][::-1].copy()

    def __len__(self) -> int:
        return self._n

    def reset(self) -> None:
        self._n = 0
        self._far.fill(0.0)

    def push(self, sample: float) -> None:
        """Record the right-hand-side sample of the step just accepted."""
        if not math.isfinite(sample):
            raise ValueError("right-hand-side sample must be finite, got %r" % (sample,))
        if self._n == len(self._g):
            self._grow()
        self._n += 1
        self._g[-self._n] = sample
        if self._n % _BLOCK == 0:
            self._fold(self._n)

    def _grow(self) -> None:
        n, m = self._n, 2 * len(self._g)
        g = np.empty(m)
        g[m - n :] = self._g[len(self._g) - n :]
        self._g = g
        far = np.zeros((2, 2 * m))
        far[:, : self._far.shape[1]] = self._far
        self._far = far

    def _fold(self, m: int) -> None:
        # add the block of the L newest samples to the far sums of outputs
        # m..m+L-1: a linear convolution, read where a size-2L circular one
        # does not wrap; a row at a time keeps the largest folds' memory low
        L = m & -m
        lo = len(self._g) - m
        X = np.fft.rfft(self._g[lo : lo + L][::-1], 2 * L)
        # the corrector weighs g_0 by its end weight instead: when the block
        # holds g_0, take out its transform, the constant g_0
        Xc = X - self._g[-1] if L == m else X
        for row, Xr in enumerate((X, Xc)):
            self._far[row, m : m + L] += np.fft.irfft(self._kernel(L, row) * Xr, 2 * L)[L:]

    def _kernel(self, L: int, row: int) -> np.ndarray:
        # transform of the predictor (row 0) or corrector (row 1) weights at
        # lags 0..2L-1, lag 0 zeroed
        K = self._kernels.get((L, row))
        if K is None:
            k = np.zeros(2 * L)
            k[1:] = _lag_weights(self.beta, row, 2 * L - 1)
            K = np.fft.rfft(k)
            if L <= _CACHED_LEVEL:
                self._kernels[L, row] = K
        return K

    # -- stepping ---------------------------------------------------------

    def predict(self, step: float) -> float:
        """Predictor value of the channel at the next grid point."""
        n = self._n
        if n < 1:
            raise InconsistentStateError("predict needs at least one stored sample")
        real_in("step", step)
        lo = len(self._g) - n
        r = n % _BLOCK
        acc = float(self._far[0, n]) + float(np.dot(self._pd[:r], self._g[lo : lo + r]))
        return self.initial_value + step ** self.beta * self._rg1 * acc

    def correct(self, step: float, new_sample: float) -> float:
        """Corrector value at the next grid point, given the rhs there.

        `new_sample` is the right-hand side evaluated at the predicted state;
        the channel history itself is not modified (push the accepted sample
        afterwards).
        """
        n = self._n
        if n < 1:
            raise InconsistentStateError("correct needs at least one stored sample")
        real_in("step", step)
        j = n - self._a0_from
        if not 0 <= j < len(self._a0):
            self._a0_from, j = n, 0
            self._a0 = _end_weights(self.beta, n, _BLOCK)
        acc = self._a0[j] * self._g[-1] + float(new_sample)
        lo = len(self._g) - n
        if n >= _BLOCK:
            r = n % _BLOCK
            near = float(np.dot(self._cw[1 : r + 1], self._g[lo : lo + r]))
            acc += float(self._far[1, n]) + near
        elif n >= 2:
            acc += float(np.dot(self._cw[1:n], self._g[lo:-1]))
        return self.initial_value + step ** self.beta * self._rg2 * acc


def solve_caputo(beta, rhs, t_final, step, initial_value=0.0):
    """Drive a single channel D^beta theta = rhs(t, theta) on a uniform grid.

    Returns (times, values) as arrays including the initial point.  The rhs
    at each accepted state is what enters the memory, per the
    predict-evaluate-correct-evaluate pattern, so `rhs` is called exactly
    twice per step.  `t_final` must be a whole number of steps; an off-grid
    horizon raises ValueError.
    """
    real_in("final time", t_final)
    real_in("step", step, 0.0, t_final, high_closed=True)
    n_steps = int(round(t_final / step))
    if abs(n_steps * step - t_final) > 1e-9 * t_final:
        raise ValueError("final time %r is not a whole number of steps %r" % (t_final, step))
    ch = CaputoChannel(beta, initial_value)
    times = np.arange(n_steps + 1) * step
    vals = np.empty(n_steps + 1)
    vals[0] = initial_value
    ch.push(rhs(0.0, initial_value))
    for k in range(1, n_steps + 1):
        tk = times[k]
        th_pred = ch.predict(step)
        theta = ch.correct(step, rhs(tk, th_pred))
        vals[k] = theta
        if k < n_steps:  # the final state's sample would feed no later point
            ch.push(rhs(tk, theta))
    return times, vals
