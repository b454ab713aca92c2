"""Caputo-derivative channel for mixed-order systems.

One state in the flow models carries a fractional derivative of order
beta in (0, 1]; the rest are ordinary first-order states.  This module
advances that single channel with the fractional Adams predictor-corrector
(product-trapezoidal corrector, product-rectangle predictor) on a uniform
grid with full memory.  At beta = 1 every formula collapses to the classical
Euler predictor / trapezoidal corrector pair.

Samples are stored newest-first, so both history sums are unit-stride dot
products; they take the weight-sample pairs in the same order as a reversed
oldest-first view would, and give the same bits without numpy's copy of it.

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
    "caputo_advance",
    "memory_weights",
    "predictor_weights",
    "solve_caputo",
]


class InconsistentStateError(RuntimeError):
    """The stored sample history does not match the requested step count."""


def memory_weights(beta: float, n: int) -> np.ndarray:
    """Convolution weights of the product-trapezoidal corrector at grid point n.

    Returns n+1 positive weights w_0..w_n such that, with uniform step h and
    right-hand-side samples g_0..g_n (the last one normally a predicted
    value), the channel update reads

        theta_n = theta(0) + h**beta * dot(w, g).

    For n = 0 the single weight is the one-step product-rectangle weight.
    Constant samples reproduce t**beta / Gamma(beta+1) exactly at every grid
    point; with beta = 1 the weights are the trapezoidal rule's.
    """
    beta = real_in("fractional order", beta, 0.0, 1.0, high_closed=True)
    if not (isinstance(n, (int, np.integer)) and n >= 0):
        raise ValueError("step index must be a nonnegative integer, got %r" % (n,))
    if n == 0:
        return np.array([1.0 / math.gamma(beta + 1.0)])
    idx = np.arange(n + 2, dtype=float)
    pw1 = idx ** (beta + 1.0)
    w = np.empty(n + 1)
    w[0] = pw1[n - 1] - (n - 1.0 - beta) * n ** beta
    # interior second differences of i**(beta+1), reversed so the oldest
    # sample meets the widest lag
    if n >= 2:
        w[1:n] = (pw1[2 : n + 1] - 2.0 * pw1[1:n] + pw1[0 : n - 1])[::-1]
    w[n] = 1.0
    w /= math.gamma(beta + 2.0)
    return w


def predictor_weights(beta: float, n: int) -> np.ndarray:
    """Product-rectangle predictor weights for grid point n from samples 0..n-1.

    Length-n positive vector b with  theta_pred = theta(0) + h**beta * dot(b, g).
    With beta = 1 all weights are 1 (the explicit Euler sum).
    """
    beta = real_in("fractional order", beta, 0.0, 1.0, high_closed=True)
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError("predictor needs at least one stored sample, got n=%r" % (n,))
    idx = np.arange(n + 1, dtype=float)
    pw = idx ** beta
    return (pw[1:] - pw[:-1])[::-1] / math.gamma(beta + 1.0)


class CaputoChannel:
    """Single fractional-order state with full-memory sample history.

    Mutable per-simulation object; push one right-hand-side sample per
    accepted step, then predict/correct the value at the next grid point.
    Not safe for concurrent mutation.  The n samples sit newest-first at the
    end of one buffer, `_g[-n:]`; `push` grows it and the weight tables.
    """

    def __init__(self, beta: float, initial_value: float = 0.0):
        self.beta = real_in("fractional order", beta, 0.0, 1.0, high_closed=True)
        self.initial_value = real_in("initial value", initial_value, -math.inf)
        self._g = np.empty(0)
        self._n = 0
        self._rg1 = 1.0 / math.gamma(self.beta + 1.0)
        self._rg2 = 1.0 / math.gamma(self.beta + 2.0)
        self._resize(64)

    # -- state ------------------------------------------------------------

    @property
    def history(self) -> np.ndarray:
        """Copy of the accepted right-hand-side samples, oldest first."""
        return self._g[len(self._g) - self._n :][::-1].copy()

    def __len__(self) -> int:
        return self._n

    def reset(self) -> None:
        self._n = 0

    def push(self, sample: float) -> None:
        """Record the right-hand-side sample of the step just accepted."""
        if not math.isfinite(sample):
            raise ValueError("right-hand-side sample must be finite, got %r" % (sample,))
        if self._n + 2 > len(self._g):
            self._resize(2 * len(self._g))
        self._n += 1
        self._g[-self._n] = sample

    def _resize(self, m: int) -> None:
        # one spare slot lets the tables reach index n; rebuilding them on
        # each doubling keeps total cost linear in the final length
        n = self._n
        g = np.empty(m)
        g[m - n :] = self._g[len(self._g) - n :]
        self._g = g
        idx = np.arange(m, dtype=float)
        self._pw = pw = idx ** self.beta
        self._pw1 = pw1 = idx ** (self.beta + 1.0)
        self._cw = np.empty(m - 1)
        self._cw[0] = np.nan  # i = 0 never a valid interior index
        self._cw[1:] = pw1[2:] - 2.0 * pw1[1:-1] + pw1[:-2]
        self._pd = pw[1:] - pw[:-1]

    # -- stepping ---------------------------------------------------------

    def predict(self, step: float) -> float:
        """Predictor value of the channel at the next grid point."""
        n = self._n
        if n < 1:
            raise InconsistentStateError("predict needs at least one stored sample")
        real_in("step", step)
        acc = float(np.dot(self._pd[:n], self._g[-n:]))
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
        a0 = self._pw1[n - 1] - (n - 1.0 - self.beta) * self._pw[n]
        acc = a0 * self._g[-1] + float(new_sample)
        if n >= 2:
            acc += float(np.dot(self._cw[1:n], self._g[-n:-1]))
        return self.initial_value + step ** self.beta * self._rg2 * acc


def caputo_advance(channel: CaputoChannel, rhs_history, step: float) -> float:
    """Reference advance: channel value at the next grid point.

    `rhs_history` must hold every accepted sample plus the new point's
    (predicted) right-hand side, i.e. one entry more than the channel has
    stored.  Weights are rebuilt from scratch; the incremental path on the
    channel must agree with this to roundoff.
    """
    if not isinstance(channel, CaputoChannel):
        raise TypeError("caputo_advance needs a CaputoChannel, got %r" % (channel,))
    real_in("step", step)
    rhs = np.asarray(rhs_history, dtype=float)
    if rhs.ndim != 1 or len(rhs) != len(channel) + 1 or len(rhs) < 2:
        raise InconsistentStateError(
            "need the %d stored samples plus the new point, got %d values"
            % (len(channel), len(rhs))
        )
    n = len(rhs) - 1
    w = memory_weights(channel.beta, n)
    return channel.initial_value + step ** channel.beta * float(np.dot(w, rhs))


def solve_caputo(beta, rhs, t_final, step, initial_value=0.0):
    """Drive a single channel D^beta theta = rhs(t, theta) on a uniform grid.

    Returns (times, values) as arrays including the initial point.  The rhs
    at each accepted state is what enters the memory, per the
    predict-evaluate-correct-evaluate pattern.  `t_final` must be a whole
    number of steps; an off-grid horizon raises ValueError.
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
        ch.push(rhs(tk, theta))
    return times, vals
