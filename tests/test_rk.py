import cmath
import math
import sys
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from halphen import bianchi, dh, rk
from halphen.rk import (
    A, B, BETA, C, E3, E5, EXPONENT, MAX_FACTOR, MIN_FACTOR, SAFETY, IntegrationBlowUp,
    integrate,
)


def dense(rows, width):
    """The sparse tableau rows {stage: coefficient} as a float array."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        for j, a in row.items():
            out[i, j] = a
    return out


NP_C = np.array(C)
NP_A = dense(A, 13)
NP_B = NP_A[12, :12]
NP_E5, NP_E3 = dense([E5, E3], 12)


def test_tableau_consistency():
    # stage abscissae are row sums of A (row 12, the weights, sums to 1);
    # the weights integrate t**k exactly for k <= 7; the embedded
    # differences E3 and E5 sum to 0.
    assert np.allclose(NP_A.sum(axis=1), NP_C, rtol=0, atol=1e-14)
    for k in range(8):
        assert abs(NP_B @ NP_C[:12] ** k - 1 / (k + 1)) < 1e-14
    assert abs(sum(E3.values())) < 1e-14
    assert abs(sum(E5.values())) < 1e-14


def test_tableau_matches_scipy_dop853():
    # rows 0-12 make a step; scipy's rows 13-15 make its continuous
    # extension, which rk does without
    coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    assert np.array_equal(NP_A, coeffs.A[:13, :13])
    assert np.array_equal(NP_C, coeffs.C[:13])
    assert np.array_equal(NP_E5, coeffs.E5[:12]) and coeffs.E5[12] == 0
    assert np.array_equal(NP_E3, coeffs.E3[:12]) and coeffs.E3[12] == 0


def squares(row, weights=None):
    """Sum over components 0-12 of the sparse row's |a w|**2, left to right,
    as an |a * w| * |a * w| product or, without weights, as abs(a) ** 2."""
    total = 0.0
    for i in range(13):
        a = row.get(i, 0.0)
        if weights is None:
            total += abs(a) ** 2
        else:
            r = abs(a * weights[i])
            total += r * r
    return total


def test_compiled_rows_return_their_coefficients():
    # in dimension 13, from y = 0 with h = 1 and stage j's derivative the unit
    # vector e_j, stage i is f at t = C[i] of row i of A and y_new is B, bit
    # for bit; with y = 0 the weights are 1/(tol + tol*|B_j|), and the error
    # sums are those of E5 and E3 over them
    unit = [[float(i == j) for i in range(13)] for j in range(13)]
    calls = []

    def f(t, y):
        calls.append((t, y))
        return unit[len(calls)]

    tol = 0.5
    y_new, k12, n5, n3, sq = rk._attempt(13)(f, 0.0, (0.0,) * 13, unit[0], 1.0, tol)
    assert [t for t, _ in calls] == list(C[1:])
    for i, (_, y) in enumerate(calls, start=1):
        assert y == tuple(NP_A[i].tolist())
    assert calls[-1][1] is y_new and k12 is unit[12]
    weights = [1.0 / (tol + tol * abs(B.get(j, 0.0))) for j in range(13)]
    assert (n5, n3, sq) == (squares(E5, weights), squares(E3, weights), squares(E5))


@pytest.mark.parametrize("size", [2, 4])
def test_rhs_of_the_wrong_length_is_refused(size):
    # zip would drop the components past the shorter of state and derivative
    with pytest.raises(ValueError, match="f returned %d components for a state of 3" % size):
        integrate(lambda t, y: [-v for v in y + y][:size], 0.0, 1.0, [1, 2, 3], 1e-8)


def test_rhs_that_changes_length_is_refused():
    calls = []

    def f(t, y):
        calls.append(t)
        return [-v for v in y][:2 if len(calls) > 5 else 3]

    with pytest.raises(ValueError, match="expected 3"):
        integrate(f, 0.0, 1.0, [1, 2, 3], 1e-8)


def test_at_meets_both_ends_of_each_step():
    # at a mesh point at() is the step's y_old, and just before the next
    # one its partial step reaches the step's y_new to rounding
    sol = integrate(lambda t, y: [1j * v - 0.3 * t for v in y], 0.0, 4.0, [1.0 + 0.5j, 2j], 1e-9)
    assert len(sol.steps) > 5
    for i, (t_old, y_old) in enumerate(zip(sol.ts[:-1], sol.states)):
        assert sol.at(t_old) is y_old
        end = sol.at(sol.ts[-1]) if i == len(sol.steps) - 1 else sol.at(
            math.nextafter(sol.ts[i + 1], -math.inf))
        assert max(abs(a - b) for a, b in zip(end, sol.states[i + 1])) < 1e-14


def test_exponential_decay_accuracy():
    sol = integrate(lambda t, y: [-v for v in y], 0.0, 3.0, [1.0 + 0j], tol=1e-12)
    assert abs(sol.states[-1][0] - math.exp(-3)) < 1e-9


def test_complex_rotation():
    sol = integrate(lambda t, y: [1j * v for v in y], 0.0, 2 * math.pi, [1.0 + 0j], tol=1e-13)
    assert abs(sol.states[-1][0] - 1.0) < 1e-8


def test_at_against_closed_form():
    sol = integrate(lambda t, y: [-v for v in y], 0.0, 2.0, [1.0 + 0j], tol=1e-12)
    for t in np.linspace(0.05, 1.95, 37):
        assert abs(sol.at(t)[0] - math.exp(-t)) < 1e-8


def test_at_rejects_outside_interval():
    sol = integrate(lambda t, y: [-v for v in y], 0.0, 1.0, [1.0 + 0j], tol=1e-10)
    with pytest.raises(ValueError):
        sol.at(1.5)


def test_integration_keeps_no_per_step_stages():
    # a solution holds its mesh, error estimates and step sizes, each mesh
    # state once, and not the stage derivatives of each step (13 complex
    # vectors, ~2.8 kB a step here)
    dh.dh_integrate(dh.dh_theta_solution(1j), 1j, 1.1j, 1e-12)  # imports and caches
    initial = dh.dh_theta_solution(1j)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = dh.dh_integrate(initial, 1j, 200j, 1e-12)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    steps = len(traj) - 1
    assert steps > 100
    assert held < 350 * steps, held / steps


def test_nonautonomous_rhs():
    sol = integrate(lambda t, y: [2 * t + 0j], 0.0, 1.5, [0j], tol=1e-12)
    assert abs(sol.states[-1][0] - 2.25) < 1e-9


LAMBDA = 0.3 - 1.1j


def linear(t, y):
    return [LAMBDA * v for v in y]


@pytest.mark.parametrize("t0, t1", [
    (-0.2 + 0.9j, 0.3 + 1.4j),  # a diagonal segment
    (1.5 + 0.2j, -0.5 - 1.3j),
    (1.0, 0.0),  # a real segment run backward
], ids=["diagonal", "down-left", "backward"])
def test_linear_flow_along_a_segment(t0, t1):
    # y' = lambda y, complex lambda: y(t1) = exp(lambda (t1 - t0)) y(t0) along
    # any segment; the mesh runs from t0 to t1 itself, monotone along it
    tol = 1e-10
    y0 = (1 + 0.5j, -0.3j)
    sol = integrate(linear, t0, t1, y0, tol=tol)
    assert len(sol.steps) > 3 and sol.ts[0] == t0 and sol.ts[-1] == t1
    growth = cmath.exp(LAMBDA * (t1 - t0))
    for got, v in zip(sol.states[-1], y0):
        assert abs(got - growth * v) <= 10 * tol * abs(growth * v)
    u = (t1 - t0) / abs(t1 - t0)
    along = [((t - t0) / u).real for t in sol.ts]
    assert along == sorted(along)
    assert all(abs(((t - t0) / u).imag) <= 1e-15 * abs(t1 - t0) for t in sol.ts)
    mid = t0 + 0.37 * (t1 - t0)
    for got, v in zip(sol.at(mid), y0):
        assert abs(got - cmath.exp(LAMBDA * (mid - t0)) * v) <= 10 * tol * abs(v)


def test_many_steps_along_a_diagonal_end_at_t1():
    # each t + h*u rounds off the segment by the same amount when h is fixed
    # by max_step, so the sideways drift grows with the step count; the
    # distance left is measured along u, and the mesh still stops at t1
    t0, t1 = -0.2 + 0.9j, 0.3 + 1.4j
    tol = 1e-10
    sol = integrate(linear, t0, t1, (1.0,), tol=tol, max_step=abs(t1 - t0) / 1000)
    assert 1000 <= len(sol.steps) <= 1001 and sol.ts[-1] == t1
    growth = cmath.exp(LAMBDA * (t1 - t0))
    assert abs(sol.states[-1][0] - growth) <= 10 * tol * abs(growth)
    u = (t1 - t0) / abs(t1 - t0)
    assert all(abs(((t - t0) / u).imag) <= 1e-12 * abs(t1 - t0) for t in sol.ts)


def test_at_stays_on_the_segment():
    t0, t1 = -0.2 + 0.9j, 0.3 + 1.4j
    sol = integrate(linear, t0, t1, (1.0,), tol=1e-10)
    for t, y in zip(sol.ts, sol.states):
        assert sol.at(t) is y  # a mesh point gives its mesh state
    for t in (0.5 * (t0 + t1) + 1e-3j, t1 + 1e-3 * (t1 - t0), t0 - 1e-3 * (t1 - t0)):
        with pytest.raises(ValueError, match="not on the integrated segment"):
            sol.at(t)


def test_blowup_is_reported():
    # dy/dt = y^2 from y(0)=1 blows up at t=1.
    with pytest.raises(IntegrationBlowUp) as exc:
        integrate(lambda t, y: [v * v for v in y], 0.0, 2.0, [1.0 + 0j], tol=1e-10)
    assert exc.value.t_reached < 2.0
    assert exc.value.t_reached == pytest.approx(1.0, abs=1e-2)
    assert exc.value.rhs_evals > 2 and (exc.value.rhs_evals - 2) % 12 == 0


def test_overflow_is_reported_as_a_blowup():
    # dy/dt = y^2 from y(0)=1e150 blows up at t=1e-150: the first-step guess
    # divides by a step that underflows to 0
    with pytest.raises(IntegrationBlowUp, match="^arithmetic overflow at t=0.0 ") as exc:
        integrate(lambda t, y: [v * v for v in y], 0.0, 1.0, [1e150], tol=1e-8)
    assert exc.value.t_reached == 0.0 and exc.value.rhs_evals == 2


def test_arrival_on_the_last_allowed_attempt_succeeds(monkeypatch):
    # with f = 0 the steps grow 1e-6, 1e-5, ... up to max_step: 15 attempts,
    # all accepted, reach t1
    def zero(t, y):
        return [0j]

    monkeypatch.setattr(rk, "MAX_STEPS", 15)
    sol = integrate(zero, 0.0, 1.0, [1.0], 1e-8, max_step=0.1)
    assert len(sol.steps) == 15 and sol.steps_rejected == 0
    assert sol.rhs_evals == 2 + 12 * 15 == 182
    assert sol.ts[-1] == 1.0
    monkeypatch.setattr(rk, "MAX_STEPS", 14)
    with pytest.raises(IntegrationBlowUp, match="step budget exhausted") as exc:
        integrate(zero, 0.0, 1.0, [1.0], 1e-8, max_step=0.1)
    assert exc.value.rhs_evals == 2 + 12 * 14 == 170
    assert exc.value.steps_rejected == 0 and exc.value.t_reached < 1.0


def test_error_estimates_recorded():
    sol = integrate(lambda t, y: [-v for v in y], 0.0, 1.0, [1.0 + 0j], tol=1e-11)
    assert len(sol.err_ests) == len(sol.ts)
    assert all(e >= 0 for e in sol.err_ests)
    assert np.max(sol.err_ests[1:]) < 1e-8


TOL_REFUSED = "must be finite and exceed 10\\*eps=2.2e-15, the least DOP853 can meet"


# tol is both the relative and the absolute tolerance; the ids of its cases
# name the role each value is refused in
@pytest.mark.parametrize("t1, y0, tol, max_step, message", [
    (0.0, [1.0], 1e-8, math.inf, "t0 and t1 must be finite and distinct"),
    (math.inf, [1.0], 1e-8, math.inf, "t0 and t1 must be finite and distinct"),
    (math.nan, [1.0], 1e-8, math.inf, "t0 and t1 must be finite and distinct"),
    # below h_min = 16*eps*max(|t0|, |t1|, 1) = 3.55e-15, a span takes no step
    (1e-15, [1.0], 1e-8, math.inf,
     "t0 and t1 must be finite and distinct, at least 3.55e-15 apart"),
    (1.0, [1.0], 0.0, math.inf, "tol=0 " + TOL_REFUSED),
    (1.0, [1.0], -1e-8, math.inf, "tol=-1e-08 " + TOL_REFUSED),
    (1.0, [1.0], math.nan, math.inf, "tol=nan " + TOL_REFUSED),
    (1.0, [1.0], math.inf, math.inf, "tol=inf " + TOL_REFUSED),
    (1.0, [1.0], 1e-20, math.inf, "tol=1e-20 " + TOL_REFUSED),
    (1.0, [1.0], 10 * sys.float_info.epsilon, math.inf, "tol=2.22045e-15 " + TOL_REFUSED),
    (1.0, [], 1e-8, math.inf, "the state has no components"),
    (1.0, [math.inf], 1e-8, math.inf, "the initial state \\(inf,\\) is not finite"),
    (1.0, [1.0, math.nan], 1e-8, math.inf, "the initial state \\(1.0, nan\\) is not finite"),
    (1.0, [complex(0.0, math.nan)], 1e-8, math.inf, "the initial state \\(nanj,\\) is not"),
    (1.0, [1.0], 1e-8, 0.0, "takes inf steps, more than MAX_STEPS=200000"),
    (1.0, [1.0], 1e-8, -0.1, "takes inf steps"),
    (1.0, [1.0], 1e-8, math.nan, "takes inf steps"),
    (1.0, [1.0], 1e-8, 1e-6, "takes 1e\\+06 steps, more than MAX_STEPS=200000"),
    (1.0, [1.0], 1e-8, 1e-300, "takes 1e\\+300 steps"),
    # few enough steps for MAX_STEPS, but each shorter than h_min
    (1e-14, [1.0], 1e-8, 1e-15, "max_step=1e-15 is below the step resolution 3.55e-15"),
], ids=["empty-span", "infinite-span", "nan-t1", "tiny-span", "zero-rtol", "negative-atol",
        "nan-rtol", "infinite-atol", "rtol-below-floor", "tol-at-floor", "empty-state",
        "infinite-state", "nan-state", "complex-nan-state",
        "zero-max-step", "negative-max-step", "nan-max-step", "max-step-1e-6",
        "max-step-1e-300", "max-step-below-resolution"])
def test_invalid_arguments(t1, y0, tol, max_step, message):
    # refused before the first call of f, which would raise otherwise
    def f(t, y):
        raise AssertionError("f called")

    with pytest.raises(ValueError, match=message):
        integrate(f, 0.0, t1, y0, tol=tol, max_step=max_step)


def test_a_tiny_span_starts_at_h_min():
    # with y0 = 0 the initial guess is 100 * 1e-6 * span = 1e-16 here, below
    # h_min = 16*eps; the first step starts at h_min and the mesh reaches t1
    sol = integrate(lambda t, y: [1.0], 0.0, 1e-12, [0.0], tol=1e-10)
    assert sol.steps[0] == 16 * sys.float_info.epsilon
    assert sol.ts[-1] == 1e-12
    assert abs(sol.states[-1][0] - 1e-12) <= 1e-10 * 1e-12


@pytest.mark.parametrize("atol", [1e-114, 1e-300, sys.float_info.min])
def test_a_tiny_atol_is_no_blow_up(atol):
    # y' = 1, y0 = 0 on [0, T] with T = tol/atol is z' = 1 on [0, 1] for
    # z = y/T, tau = t/T, with the weights atol + tol*|z| on z: a tiny
    # absolute weight.  The guess lies below h_min = 16*eps*T, so the first
    # step starts at h_min, and the mesh reaches T
    tol = 1e-10
    T = tol / atol
    sol = integrate(lambda t, y: [1.0], 0.0, T, [0.0], tol=tol)
    assert sol.steps[0] == 16 * sys.float_info.epsilon * T
    assert sol.ts[-1] == T
    assert abs(sol.states[-1][0] / T - 1.0) <= 1e-9


# -- the number type of the state ----------------------------------------------------


def types_of(sol):
    """The set of types of every component of every mesh state."""
    return {type(v) for y in sol.states for v in y}


def test_a_real_flow_stays_real():
    # real segment, real y0 and real f: the state is float, ints and
    # Fractions coerced, and so is a state that at() takes between mesh points
    sol = integrate(lambda t, y: [-v + 0.1 * t for v in y], 0.0, 2.0,
                    [1, 0.5, Fraction(1, 4)], 1e-10)
    assert len(sol.steps) > 3 and types_of(sol) == {float}
    assert sol.states[0] == (1.0, 0.5, 0.25)
    assert all(isinstance(v, float) for v in sol.at(0.77))
    assert abs(sol.states[-1][0] - (1.1 * math.exp(-2) + 0.1)) < 1e-9  # 0.1 (t - 1) + 1.1 e**-t


def test_a_complex_start_on_a_real_segment_is_complex():
    sol = integrate(lambda t, y: [-v for v in y], 0.0, 1.0, [1.0, 0.5 + 0j], 1e-10)
    assert types_of(sol) == {complex}


def test_a_real_start_that_f_takes_off_the_real_line_is_complex():
    # y' = i y from y0 = 1.0: complex from the first mesh point on, the same
    # mesh as from 1 + 0j
    def f(t, y):
        return [1j * v for v in y]

    sol = integrate(f, 0.0, 1.0, [1.0], 1e-12)
    assert type(sol.states[0][0]) is complex and types_of(sol) == {complex}
    twin = integrate(f, 0.0, 1.0, [1 + 0j], 1e-12)
    assert (sol.ts, sol.states, sol.err_ests) == (twin.ts, twin.states, twin.err_ests)
    assert abs(sol.states[-1][0] - cmath.exp(1j)) < 1e-10


def test_a_complex_segment_is_complex():
    # dh_integrate from a real-valued state along tau: the segment is complex
    sol = dh.dh_integrate((0.1, 0.2, 0.3), 1j, 1.2j, 1e-10)
    assert types_of(sol) == {complex}
    assert {type(t) for t in sol.ts} == {complex}


# -- numpy reference integrator ------------------------------------------------------
#
# A numpy DOP853 kept as an oracle: the same tableau and step control on
# complex128 arrays, with each stage sum taken over the full rows.


def stage_sum(row, K):
    """row @ K with the stages added in stage order, as rk adds them.  A
    BLAS matrix-vector product may sum in another order (OpenBLAS does for
    four or more components), and the error rows cancel, so the order moves
    the step sequence."""
    total = row[0] * K[0]
    for a, k in zip(row[1:], K[1:]):
        total = total + a * k
    return total


def times(h, v):
    """h * v for a complex h, rounded as Python's complex product, which rk
    takes: numpy's vectorised one may fuse its multiply-adds."""
    out = np.empty(v.shape, dtype=complex)
    out.real = h.real * v.real - h.imag * v.imag
    out.imag = h.real * v.imag + h.imag * v.real
    return out


def numpy_stages(f, t, y, f_cur, h):
    """The derivatives of stages 0-11 of a step h (complex off the real line)
    from (t, y), whose eighth-order state is y + times(h, stage_sum(NP_B, stages))."""
    K = np.empty((12, y.size), dtype=complex)
    K[0] = f_cur
    for s in range(1, 12):
        K[s] = f(t + NP_C[s] * h, y + times(h, stage_sum(NP_A[s, :s], K[:s])))
    return K


@dataclass
class NumpySolution:
    ts: np.ndarray
    ys: np.ndarray
    err_ests: np.ndarray
    f: object

    def at(self, t):
        """The mesh state at a mesh point or the end of the mesh, else one
        step from the last mesh point before t, along the segment, to t."""
        t0, t1 = self.ts[0], self.ts[-1]
        u = (t1 - t0) / abs(t1 - t0)
        idx = max(np.searchsorted(((self.ts - t0) / u).real, ((t - t0) / u).real,
                                  side="right") - 1, 0)
        t_old, y_old = self.ts[idx], self.ys[idx]
        if idx == self.ts.size - 1 or t == t_old:
            return y_old
        h = complex(t - t_old)
        K = numpy_stages(self.f, t_old, y_old, self.f(t_old, y_old), h)
        return y_old + times(h, stage_sum(NP_B, K))


def numpy_rms_scaled(e, scale):
    return float(np.sqrt(np.mean(np.abs(e / scale) ** 2)))


def numpy_error_norm(e5, e3, h, scale):
    """Hairer's combined 5th/3rd-order norm and the RMS of h*e5 shrunk by
    the same factor, for a step of length h."""
    n5 = np.sum(np.abs(e5 / scale) ** 2)
    n3 = np.sum(np.abs(e3 / scale) ** 2)
    if n5 == 0:
        return 0.0, 0.0
    denom = n5 + 0.01 * n3
    err = h * n5 / np.sqrt(scale.size * denom)
    return float(err), float(h * np.sqrt(n5 / denom) * np.sqrt(np.mean(np.abs(e5) ** 2)))


def numpy_integrate(f, t0, t1, y0, rtol, atol, max_step=np.inf):
    """DOP853 along the segment t0 -> t1 as rk steps it: real step lengths h
    along u = (t1 - t0)/|t1 - t0|, the last mesh point t1 itself.  Every
    abs is numpy's, as rk's is under test_numeric_properties.numpy_abs."""
    y = np.asarray(y0, dtype=complex)
    t = t0
    span = float(np.abs(t1 - t0))
    u = (t1 - t0) / span
    f_cur = np.asarray(f(t, y), dtype=complex)
    scale = atol + rtol * np.abs(y)
    d0, d1 = numpy_rms_scaled(y, scale), numpy_rms_scaled(f_cur, scale)
    h0 = 1e-6 * span if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    f1 = np.asarray(f(t + h0 * u, y + times(h0 * u, f_cur)), dtype=complex)
    d2 = numpy_rms_scaled(f1 - f_cur, scale) / h0
    h1 = max(1e-6 * span, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    h = min(100 * h0, h1, span, max_step)
    h_min = 16 * np.finfo(float).eps * max(np.abs(t0), np.abs(t1), 1.0)
    ts, ys, err_ests = [t], [y.copy()], [0.0]
    err_prev, rejected = 1e-4, False
    remaining = span
    while remaining:
        h = min(h, remaining, max_step)
        assert h >= h_min, "step size underflow"
        K = numpy_stages(f, t, y, f_cur, complex(h * u))
        y_new = y + times(complex(h * u), stage_sum(NP_B, K))
        err, err_est = numpy_error_norm(stage_sum(NP_E5, K), stage_sum(NP_E3, K), h,
                                        atol + rtol * np.maximum(np.abs(y), np.abs(y_new)))
        if err <= 1.0:
            t, y, f_cur = t + h * u, y_new, np.asarray(f(t + h * u, y_new), dtype=complex)
            remaining = ((t1 - t) / u).real
            if remaining < h_min:
                t, remaining = t1, 0.0
            ts.append(t)
            ys.append(y.copy())
            err_ests.append(err_est)
            factor = MAX_FACTOR if err == 0 else SAFETY * err**-EXPONENT * err_prev**BETA
            factor = min(MAX_FACTOR, max(MIN_FACTOR, factor))
            h *= min(1.0, factor) if rejected else factor
            err_prev, rejected = max(err, 1e-4), False
        else:
            rejected = True
            h *= min(1.0, max(MIN_FACTOR, SAFETY * err**-EXPONENT))
    return NumpySolution(np.array(ts), np.array(ys), np.array(err_ests), f)


def dh_rhs(tau, y):
    """The right-hand side dh_integrate steps with."""
    return dh.dh_vector_field(y)


def assert_same_mesh(ts, states, ref_ts, ref_ys, rel=1e-13):
    """Mesh points and states agree with the reference ones to rel."""
    assert len(ts) == len(ref_ts)
    for t, t_ref in zip(ts, ref_ts):
        assert abs(t - t_ref) <= rel * abs(t_ref)
    for y, y_ref in zip(states, ref_ys):
        scale = max(abs(v) for v in y_ref)
        assert max(abs(a - b) for a, b in zip(y, y_ref)) <= rel * scale


def test_numpy_oracle_matches_dh_readme_integration():
    # halphen dh integrate --t0 0,1.2 --t1 0,2 --tol 1e-10
    tau0, tau1 = 1.2j, 2j
    initial = tuple(dh.dh_theta_solution(tau0))
    traj = dh.dh_integrate(initial, tau0, tau1, tol=1e-10)
    ref = numpy_integrate(dh_rhs, tau0, tau1, initial, 1e-10, 1e-10)
    assert_same_mesh(traj.ts, traj.states, ref.ts, ref.ys)
    for a, b in zip(traj.err_ests, ref.err_ests):
        assert abs(a - b) <= 1e-13 * b
    for s in (0.1, 0.45, 0.77):
        tau = tau0 + s * (tau1 - tau0)
        want = ref.at(tau)
        got = traj.at(tau)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13 * max(abs(want))


@pytest.mark.parametrize("t0, t1, initial, tol, max_step", [
    (0.7, 2.0, (1, 0.5, 0.25), 1e-9, np.inf),  # README: bianchi flow
    (0.5, 3.0, (1, 0.5, 0.25), 1e-12, 0.1),
])
def test_numpy_oracle_matches_omega_flow(t0, t1, initial, tol, max_step):
    # the flow integrates the coupled Omega/A system, whose states it returns
    def coupled(t, y):
        domega, da = bianchi.coupled_field(y[:3], y[3:])
        return np.array(domega + da)

    traj = bianchi.omega_theta_flow(initial, t0, t1, tol=tol, max_step=max_step)
    ref = numpy_integrate(coupled, t0, t1, (*initial, *bianchi.theta_A_solution(t0)), tol, tol,
                          max_step)
    mid = 0.5 * (t0 + t1)
    for k in (3, 6):  # Omega on its own scale, then the whole Omega/A state
        assert_same_mesh(traj.ts, [y[:k] for y in traj.states], ref.ts, ref.ys[:, :k])
        want = ref.at(mid)[:k]
        assert max(abs(a - b) for a, b in zip(traj.at(mid)[:k], want)) <= 1e-13 * max(abs(want))
