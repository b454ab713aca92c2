"""Checks for the fractional-order memory channel."""

import math

import numpy as np
import pytest

from gradflows.caputo import CaputoChannel, InconsistentStateError, solve_caputo
from gradflows.special import MLSpec, ml_eval


class TestWeights:
    # the weights seen through the channel's outputs; 256 samples and more
    # take the blocked path
    @pytest.mark.parametrize("b", [0.2, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 7, 100, 255, 256, 257, 1000, 4096])
    def test_constant_input_normalization(self, b, n):
        # constant samples must reproduce t^b / Gamma(b+1) exactly, from the
        # predictor and from the corrector (measured worst 2.8e-12 relative
        # up to n = 5000)
        ch = CaputoChannel(b)
        for _ in range(n):
            ch.push(1.0)
        want = n ** b / math.gamma(b + 1.0)
        assert abs(ch.predict(1.0) - want) <= 1e-11 * want
        assert abs(ch.correct(1.0, 1.0) - want) <= 1e-11 * want

    def test_all_weights_positive(self):
        # a unit impulse at the first sample meets the corrector's end
        # weight, the others an interior lag, near or in a far block
        n = 600
        for b in (0.05, 0.3, 0.7, 1.0):
            for pos in (0, 1, 255, 256, n - 1):
                ch = CaputoChannel(b)
                for k in range(n):
                    ch.push(1.0 if k == pos else 0.0)
                assert ch.predict(1.0) > 0.0, (b, pos)
                assert ch.correct(1.0, 0.0) > 0.0, (b, pos)


class TestAnalyticOracles:
    def test_constant_rhs(self):
        # D^0.5 th = 1  ->  th(t) = t^0.5 / Gamma(1.5); the quadrature is
        # exact on constants, so the error is pure roundoff
        ts, th = solve_caputo(0.5, lambda t, y: 1.0, 1.0, 1e-3)
        ref = ts ** 0.5 / math.gamma(1.5)
        assert np.max(np.abs(th - ref)) < 2e-3  # stated scheme tolerance
        assert np.max(np.abs(th - ref)) < 1e-10  # actually exact

    def test_linear_rhs(self):
        # D^0.5 th = t  ->  th(t) = Gamma(2)/Gamma(2.5) t^1.5
        ts, th = solve_caputo(0.5, lambda t, y: t, 1.0, 1e-3)
        ref = math.gamma(2.0) / math.gamma(2.5) * ts ** 1.5
        assert np.max(np.abs(th - ref)) < 2e-3
        assert np.max(np.abs(th - ref)) < 1e-10

    @pytest.mark.parametrize(
        "b, err_fine, min_ratio",
        [(0.2, 3.0e-3, 1.6), (0.5, 6.7e-5, 1.6), (0.8, 3.1e-7, 2.7)],
    )
    def test_relaxation_matches_mittag_leffler(self, b, err_fine, min_ratio):
        # D^b th = -th, th(0) = 1  ->  th(t) = E_b(-t^b).  The solution is not
        # smooth at 0, so the order is below 1+b and "ratio >= 2" fails at b <= 0.5:
        # measured errors 9.5e-3, 5.5e-3, 3.0e-3 (b = 0.2), 2.4e-4, 1.3e-4,
        # 6.7e-5 (0.5) and 2.7e-6, 9.2e-7, 3.1e-7 (0.8) at h = 2e-3, 1e-3, 5e-4
        spec = MLSpec(b, 1.0)

        def run(h):
            ts, th = solve_caputo(b, lambda t, y: -y, 1.0, h, initial_value=1.0)
            exact = np.array([ml_eval(spec, -t ** b, tol=1e-13) for t in ts])
            return np.max(np.abs(th - exact))

        coarse, mid, fine = run(2e-3), run(1e-3), run(5e-4)
        assert fine <= 2.0 * err_fine
        assert coarse / mid >= min_ratio and mid / fine >= min_ratio

    def test_power_rhs(self):
        # first genuinely inexact case: D^b th = t^2.2
        for b in (0.2, 0.8):
            ts, th = solve_caputo(b, lambda t, y: t ** 2.2, 1.0, 1e-3)
            ref = math.gamma(3.2) / math.gamma(3.2 + b) * ts ** (2.2 + b)
            assert np.max(np.abs(th - ref)) < 1e-5

    def test_initial_value_offsets_solution(self):
        ts, th = solve_caputo(0.4, lambda t, y: 1.0, 1.0, 1e-2, initial_value=2.5)
        ref = 2.5 + ts ** 0.4 / math.gamma(1.4)
        assert np.max(np.abs(th - ref)) < 1e-10

    @pytest.mark.parametrize("b", [0.2, 0.5, 0.8])
    def test_halving_gains_at_least_one_order(self, b):
        def run(h):
            ts, th = solve_caputo(b, lambda t, y: t ** 2.2, 1.0, h)
            ref = math.gamma(3.2) / math.gamma(3.2 + b) * ts ** (2.2 + b)
            return np.max(np.abs(th - ref))

        coarse, fine = run(2e-3), run(1e-3)
        assert coarse / fine >= 2.0  # measured ~4: second order on rhs(t)

    @pytest.mark.parametrize("b", [0.2, 0.5, 0.8])
    def test_order_one_plus_beta_with_state_dependent_rhs(self, b):
        # y = t^(1+b) has D^b y = Gamma(2+b) t, which is C^2, so Diethelm,
        # Ford & Freed (2004) give order 1+b.  The corrector is exact on that
        # linear rate: the error is the predictor's, passed on through -y.
        # The predictor alone is first order and halves its error by only 2.0.
        g2 = math.gamma(2.0 + b)

        def run(h):
            ts, th = solve_caputo(b, lambda t, y: g2 * t + t ** (1.0 + b) - y, 1.0, h)
            return np.max(np.abs(th - ts ** (1.0 + b)))

        coarse, fine = run(1e-3), run(5e-4)
        assert coarse / fine >= 0.95 * 2.0 ** (1.0 + b)  # measured 2.43, 2.86, 3.49


def test_integer_order_matches_heun():
    # beta = 1 must reproduce classical predictor-corrector (Heun) stepping
    h, n = 1e-3, 2000
    ts, th = solve_caputo(1.0, lambda t, y: math.cos(t), n * h, h)
    y = np.empty(n + 1)
    y[0] = 0.0
    for k in range(n):
        t = k * h
        y[k + 1] = y[k] + 0.5 * h * (math.cos(t) + math.cos(t + h))
    assert np.max(np.abs(th - y)) < 1e-10


def test_nonnegative_rhs_keeps_channel_nonnegative():
    rng = np.random.default_rng(42)
    samples = rng.uniform(0.0, 3.0, size=400)
    ch = CaputoChannel(0.65, 0.0)
    ch.push(samples[0])
    h = 0.01
    for k in range(1, 400):
        val = ch.correct(h, samples[k])
        assert val >= 0.0
        ch.push(samples[k])


def _step_against_references(ch, g, h):
    """Push g[0], then predict/correct/push g[1:]; worst gaps to the references."""
    ch.push(g[0])
    worst_p = worst_c = 0.0
    for k in range(1, len(g)):
        ref_p, ref_c, _, _ = _direct_sums(ch.beta, g[: k + 1], h, ch.initial_value)
        worst_p = max(worst_p, abs(ch.predict(h) - ref_p))
        worst_c = max(worst_c, abs(ch.correct(h, g[k]) - ref_c))
        ch.push(g[k])
    return worst_p, worst_c


def test_channel_agrees_with_reference_advance():
    # 1100 samples cross every buffer doubling from 64 to 1024; predictor
    # and corrector must agree with the direct sums to roundoff
    rng = np.random.default_rng(7)
    g = rng.standard_normal(1100)
    ch = CaputoChannel(0.6, 0.3)
    worst_p, worst_c = _step_against_references(ch, g, 0.05)
    assert worst_p < 1e-13 and worst_c < 1e-13
    assert np.array_equal(ch.history, g)  # oldest first after growth
    # after reset the grown buffer is refilled from its newest end
    ch.reset()
    g2 = rng.standard_normal(150)
    worst_p, worst_c = _step_against_references(ch, g2, 0.05)
    assert worst_p < 1e-13 and worst_c < 1e-13
    assert np.array_equal(ch.history, g2)


def _direct_sums(b, g, h, init):
    """Predictor and corrector at grid point n = len(g) - 1 by the unblocked
    arithmetic: numpy power tables, one dot product per sum.  Also returns
    each sum's sum of |weight * sample|, the scale of its roundoff.  This is
    the reference that the channel's sums are checked against."""
    n = len(g) - 1
    idx = np.arange(n + 2, dtype=float)
    pw, pw1 = idx ** b, idx ** (b + 1.0)
    s_p, s_c = h ** b * (1.0 / math.gamma(b + 1.0)), h ** b * (1.0 / math.gamma(b + 2.0))
    pd, older = (pw[1:] - pw[:-1])[:n], g[n - 1 :: -1]
    pred = float(np.dot(pd, older))
    a0 = pw1[n - 1] - (n - 1.0 - b) * pw[n]
    acc = a0 * g[0] + float(g[n])
    abs_c = abs(a0 * g[0]) + abs(g[n])
    if n >= 2:
        cw = pw1[2 : n + 1] - 2.0 * pw1[1:n] + pw1[: n - 1]
        acc += float(np.dot(cw, older[:-1]))
        abs_c += float(np.dot(np.abs(cw), np.abs(older[:-1])))
    abs_p = float(np.dot(np.abs(pd), np.abs(older)))
    return init + s_p * pred, init + s_c * acc, s_p * abs_p, s_c * abs_c


@pytest.mark.parametrize("b", [0.2, 0.5, 0.8, 1.0])
def test_long_memory_matches_direct_sums(b):
    # from 256 samples on, the older history enters through FFT blocks and
    # must agree with the direct sums to roundoff, through 2**16 samples and
    # after a reset; below 256 the channel is the direct sum, bit for bit
    rng = np.random.default_rng(11)
    h, init = 0.5, 0.3
    ch = CaputoChannel(b, init)
    for size in (1 << 16, 3000):
        g = rng.standard_normal(size + 1)
        checks = set(np.geomspace(256, size, 60).astype(int).tolist())
        checks |= {(1 << k) + d for k in range(8, 17) for d in (-1, 0, 1)}
        ch.reset()
        for n in range(1, size + 1):
            ch.push(g[n - 1])
            if n < 256:
                ref_p, ref_c, _, _ = _direct_sums(b, g[: n + 1], h, init)
                assert (ch.predict(h), ch.correct(h, g[n])) == (ref_p, ref_c)
            elif n in checks:
                ref_p, ref_c, scale_p, scale_c = _direct_sums(b, g[: n + 1], h, init)
                assert abs(ch.predict(h) - ref_p) <= 1e-13 * scale_p, n
                assert abs(ch.correct(h, g[n]) - ref_c) <= 1e-13 * scale_c, n


class TestChannelState:
    def test_validation(self):
        for b in (0.0, 1.5, -1.0, math.nan):
            with pytest.raises(ValueError):
                CaputoChannel(b)
        with pytest.raises(ValueError):
            CaputoChannel(0.5, math.inf)
        ch = CaputoChannel(1.0)  # boundary order is allowed
        assert ch.beta == 1.0

    def test_needs_samples_before_stepping(self):
        ch = CaputoChannel(0.5)
        with pytest.raises(InconsistentStateError):
            ch.predict(0.1)
        with pytest.raises(InconsistentStateError):
            ch.correct(0.1, 1.0)

    def test_step_validation(self):
        ch = CaputoChannel(0.5)
        ch.push(1.0)
        for bad in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                ch.predict(bad)
            with pytest.raises(ValueError):
                ch.correct(bad, 1.0)

    def test_push_rejects_nonfinite(self):
        ch = CaputoChannel(0.5)
        with pytest.raises(ValueError):
            ch.push(math.nan)

    def test_history_is_isolated_copy(self):
        ch = CaputoChannel(0.5)
        ch.push(1.0)
        ch.push(2.0)
        hist = ch.history
        hist[0] = 99.0
        assert ch.history[0] == 1.0
        assert len(ch) == 2

    def test_reset(self):
        ch = CaputoChannel(0.5)
        ch.push(1.0)
        ch.reset()
        assert len(ch) == 0

    def test_growth_beyond_initial_buffer(self):
        ch = CaputoChannel(0.9)
        for k in range(200):
            ch.push(float(k))
        assert len(ch) == 200
        assert ch.history[150] == 150.0


def test_solver_validation():
    with pytest.raises(ValueError):
        solve_caputo(0.5, lambda t, y: 1.0, -1.0, 1e-2)
    with pytest.raises(ValueError):
        solve_caputo(0.5, lambda t, y: 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        solve_caputo(0.5, lambda t, y: 1.0, 1.0, 0.0)
    for step in (0.3, 0.4):  # would otherwise stop early, at 0.9 and 0.8
        with pytest.raises(ValueError, match="whole number of steps"):
            solve_caputo(0.5, lambda t, y: 1.0, 1.0, step)


def test_solver_calls_rhs_twice_per_step():
    # one call at each predicted and each corrected point, plus t = 0; the
    # final corrected state feeds no later point and is not evaluated
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -y

    solve_caputo(0.5, rhs, 1.0, 1e-3, initial_value=1.0)
    assert len(calls) == 2 * 1000


def test_solver_grid_shape():
    ts, th = solve_caputo(0.3, lambda t, y: 1.0, 0.5, 0.1, initial_value=1.0)
    assert len(ts) == 6 and ts[0] == 0.0 and abs(ts[-1] - 0.5) < 1e-12
    assert th[0] == 1.0
