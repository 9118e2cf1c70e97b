"""Adaptive embedded Runge-Kutta integration for complex-valued systems.

Dormand-Prince 5(4) pair with FSAL, PI step-size control and a fourth-order
continuous extension for dense output (Dormand & Prince, J. Comput. Appl.
Math. 6 (1980) 19-26; Hairer, Norsett & Wanner, Solving ODEs I, II.6).  The
state vector may be complex; the independent variable is real (callers
integrating along a complex segment parameterise it by arc fraction).
Blow-up - a non-finite state or a step size driven below machine resolution
- raises IntegrationBlowUp instead of silently clipping, and so does a spent
step budget (MAX_STEPS), which is stiffness or a long span, not a blow-up.

Pure Python: states are lists of complex, and f(t, y) receives such a list
and may return any sequence of numbers.  The stages are unrolled, each
component summed left to right in tableau order.  f is called twice at the
start and six times per attempted step.
"""

from __future__ import annotations

import bisect
import cmath
import math
import sys
from collections import namedtuple
from itertools import chain

__all__ = ["IntegrationBlowUp", "RkSolution", "Trajectory", "integrate"]

# Dormand-Prince 5(4) tableau.
C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
A = (
    (0, 0, 0, 0, 0, 0),
    (1 / 5, 0, 0, 0, 0, 0),
    (3 / 40, 9 / 40, 0, 0, 0, 0),
    (44 / 45, -56 / 15, 32 / 9, 0, 0, 0),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0),
)
B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
# Difference between the 5th- and embedded 4th-order weights.
E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# Continuous-extension coefficients; row sums reproduce B (checked in tests).
P = (
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0, 0, 0, 0),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

# Unrolled coefficients; the zero entries of B and E (stage 2) are skipped.
_C2, _C3, _C4, _C5 = C[1:5]
_A21 = A[1][0]
_A31, _A32 = A[2][:2]
_A41, _A42, _A43 = A[3][:3]
_A51, _A52, _A53, _A54 = A[4][:4]
_A61, _A62, _A63, _A64, _A65 = A[5][:5]
_B1, _, _B3, _B4, _B5, _B6, _ = B
_E1, _, _E3, _E4, _E5, _E6, _E7 = E

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
BETA = 0.04  # PI stabilisation
EXPONENT = 0.2 - 0.75 * BETA
MAX_STEPS = 200_000


class IntegrationBlowUp(RuntimeError):
    """Raised when the solution leaves the resolvable regime.

    Attributes carry the last trusted point so callers can report how far
    the integration got.
    """

    def __init__(self, message: str, t_reached: float, y_reached):
        super().__init__(message)
        self.t_reached = t_reached
        self.y_reached = y_reached


# One accepted step; k holds the seven stage derivatives.
_Step = namedtuple("_Step", "t_old h y_old k")


class RkSolution:
    """Accepted mesh (ts, ys), per-step max-abs local error estimates and the
    continuous extension for evaluation between mesh points."""

    __slots__ = ("ts", "ys", "err_ests", "steps")

    def __init__(self, ts, ys, err_ests, steps):
        self.ts = ts
        self.ys = ys
        self.err_ests = err_ests
        self.steps = steps

    def at(self, t: float) -> list:
        """Dense-output state at t inside the integrated interval."""
        t0, t1 = self.ts[0], self.ts[-1]
        if not (t0 - 1e-12 <= t <= t1 + 1e-12):
            raise ValueError("t=%g outside integrated interval [%g, %g]" % (t, t0, t1))
        if not self.steps:
            return list(self.ys[0])
        idx = bisect.bisect_right(self.ts, t) - 1
        idx = min(max(idx, 0), len(self.steps) - 1)
        step = self.steps[idx]
        theta = (t - step.t_old) / step.h
        th2, th3, th4 = theta**2, theta**3, theta**4
        # stage weights of the continuous extension; row 2 of P is zero
        w1, _, w3, w4, w5, w6, w7 = (
            p1 * theta + p2 * th2 + p3 * th3 + p4 * th4 for p1, p2, p3, p4 in P
        )
        k1, _, k3, k4, k5, k6, k7 = step.k
        h = step.h
        return [v + h * (w1 * p1 + w3 * p3 + w4 * p4 + w5 * p5 + w6 * p6 + w7 * p7)
                for v, p1, p3, p4, p5, p6, p7 in zip(step.y_old, k1, k3, k4, k5, k6, k7)]


class Trajectory:
    """The accepted mesh of an RkSolution in the caller's variable
    x = x0 + s*dx, s the integrator's real variable: a complex tau-segment
    takes (tau0, tau1 - tau0), real time (0, 1).  ts holds x at the mesh
    points, states the mesh states as tuples."""

    __slots__ = ("ts", "states", "err_ests", "_x0", "_dx", "_solution")

    def __init__(self, solution: RkSolution, x0, dx):
        self.ts = [x0 + s * dx for s in solution.ts]
        self.states = [tuple(y) for y in solution.ys]
        self.err_ests = solution.err_ests
        self._x0 = x0
        self._dx = dx
        self._solution = solution

    @property
    def omegas(self):
        """Read-only alias of states, the name the benchmark's workloads
        read the Omega flow's states under."""
        return self.states

    def __len__(self):
        return len(self.ts)

    def at(self, x) -> tuple:
        """Dense-output state at a point x of the integrated segment."""
        s = (x - self._x0) / self._dx
        if abs(s.imag) > 1e-9:
            raise ValueError("%r is not on the integrated segment" % (x,))
        return tuple(self._solution.at(s.real))


def _weights(y, y_new, rtol, atol) -> list:
    """Error weights atol + rtol*max(|y|, |y_new|), componentwise."""
    return [atol + rtol * max(abs(a), abs(b)) for a, b in zip(y, y_new)]


def _rms_scaled(e, scale) -> float:
    """Root mean square of e/scale, summed in component order.  Each e is
    multiplied by 1/scale rather than divided, as numpy's complex division
    rounds: real and imaginary-axis flows then step exactly as the earlier
    numpy implementation did."""
    total = 0.0
    for a, s in zip(e, scale):
        r = abs(a * (1.0 / s))
        total += r * r
    return math.sqrt(total / len(scale))


def _finite(values) -> bool:
    return all(map(cmath.isfinite, values))


def _initial_step(f, t0, y0, f0, t_span, rtol, atol):
    scale = _weights(y0, y0, rtol, atol)
    d0 = _rms_scaled(y0, scale)
    d1 = _rms_scaled(f0, scale)
    h0 = 1e-6 * t_span if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = [v + h0 * d for v, d in zip(y0, f0)]
    f1 = f(t0 + h0, y1)
    d2 = _rms_scaled([a - b for a, b in zip(f1, f0)], scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6 * t_span, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_span)


def integrate(f, t0: float, t1: float, y0, rtol: float, atol: float,
              max_step: float = math.inf) -> RkSolution:
    """Integrate dy/dt = f(t, y) from t0 to t1 (t1 > t0), complex y allowed.

    f receives the state as a list of complex and may return any sequence
    of numbers of the same length.  A step is accepted when the weighted RMS
    of the embedded error estimate is at most 1 with weights atol +
    rtol*|y|.  err_ests records the max-abs component of the raw estimate
    for each accepted step.  ts and err_ests hold floats and ys lists of
    complex, so callers need not convert them.
    """
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")
    y = [complex(v) for v in y0]
    t = float(t0)
    span = t1 - t0
    f_cur = f(t, y)
    if not _finite(f_cur):
        raise IntegrationBlowUp("non-finite derivative at the initial point", t, y)
    h = min(_initial_step(f, t, y, f_cur, span, rtol, atol), max_step)
    h_min = 16 * sys.float_info.epsilon * max(abs(t0), abs(t1), 1.0)

    ts = [t]
    ys = [y]
    err_ests = [0.0]
    steps: list[_Step] = []
    err_prev = 1e-4
    rejected = False

    for _ in range(MAX_STEPS):
        # a final sliver below machine resolution counts as arrival, not underflow
        if t >= t1 or t1 - t < h_min:
            break
        h = min(h, t1 - t, max_step)
        if h < h_min:
            raise IntegrationBlowUp(
                "step size underflow at t=%g (|y|=%g): solution blow-up" % (t, max(map(abs, y))),
                t, y,
            )
        k1 = f_cur
        k2 = f(t + _C2 * h, [v + h * (_A21 * p1) for v, p1 in zip(y, k1)])
        k3 = f(t + _C3 * h, [v + h * (_A31 * p1 + _A32 * p2)
                             for v, p1, p2 in zip(y, k1, k2)])
        k4 = f(t + _C4 * h, [v + h * (_A41 * p1 + _A42 * p2 + _A43 * p3)
                             for v, p1, p2, p3 in zip(y, k1, k2, k3)])
        k5 = f(t + _C5 * h, [v + h * (_A51 * p1 + _A52 * p2 + _A53 * p3 + _A54 * p4)
                             for v, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)])
        k6 = f(t + h, [v + h * (_A61 * p1 + _A62 * p2 + _A63 * p3 + _A64 * p4 + _A65 * p5)
                       for v, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)])
        y_new = [v + h * (_B1 * p1 + _B3 * p3 + _B4 * p4 + _B5 * p5 + _B6 * p6)
                 for v, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)]
        k7 = f(t + h, y_new)
        if not _finite(chain(k2, k3, k4, k5, k6, k7, y_new)):
            raise IntegrationBlowUp(
                "non-finite state at t=%g: solution blow-up" % (t + h), t, y
            )
        err_vec = [h * (_E1 * p1 + _E3 * p3 + _E4 * p4 + _E5 * p5 + _E6 * p6 + _E7 * p7)
                   for p1, p3, p4, p5, p6, p7 in zip(k1, k3, k4, k5, k6, k7)]
        err = _rms_scaled(err_vec, _weights(y, y_new, rtol, atol))
        if err <= 1.0:
            steps.append(_Step(t_old=t, h=h, y_old=y, k=(k1, k2, k3, k4, k5, k6, k7)))
            t = t + h
            y = y_new
            f_cur = k7  # FSAL
            ts.append(t)
            ys.append(y)
            err_ests.append(max(map(abs, err_vec)))
            factor = MAX_FACTOR if err == 0 else SAFETY * err**-EXPONENT * err_prev**BETA
            factor = min(MAX_FACTOR, max(MIN_FACTOR, factor))
            if rejected:
                factor = min(1.0, factor)
            h *= factor
            err_prev = max(err, 1e-4)
            rejected = False
        else:
            rejected = True
            h *= min(1.0, max(MIN_FACTOR, SAFETY * err**-EXPONENT))
    else:
        raise IntegrationBlowUp("step budget exhausted at t=%g after MAX_STEPS=%d steps: the flow "
                                "may be stiff or the span too long" % (t, MAX_STEPS), t, y)

    return RkSolution(ts=ts, ys=ys, err_ests=err_ests, steps=steps)
