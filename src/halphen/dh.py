"""The Darboux-Halphen flow.

The vector field

    t1' = t1(t2 + t3) - t2 t3,   t2' = t2(t1 + t3) - t1 t3,
    t3' = t3(t1 + t2) - t1 t2,        ' = d/dtau

together with numeric integration along upper-half-plane segments, the
closed-form solution t_i = 2 (log theta_{i+1}(tau))' and its exact series
counterpart.

Normalisation of the series form: with w = q**(1/8) one has
d/dtau = 2*pi*i q d/dq = (pi*i/4) w d/dw, so T_i = t_i/(pi*i) satisfies

    (1/4) w dT_i/dw = T_i (T_j + T_k) - T_j T_k

with purely rational coefficients.  T_i = (1/2) w d/dw log theta_{i+1}.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .qseries import (
    log_derivative,
    tau_complex,
    theta_log_jets,
    theta_numeric,  # unused here; bench/tracer.py patches dh.theta_numeric
    theta_series,
)

__all__ = [
    "DHState",
    "dh_vector_field",
    "darboux_condition_residual",
    "dh_integrate",
    "dh_theta_solution",
    "dh_theta_jet",
    "dh_theta_solution_series",
    "dh_series_ode_residuals",
]


class DHState(namedtuple("DHState", "t1 t2 t3")):
    """A phase point (t1, t2, t3).  Components are complex in numeric work
    and exact rationals in the identity checks (all operations are plain
    field arithmetic, so both work)."""

    __slots__ = ()


def dh_vector_field(state):
    """(t1', t2', t3') of the quadratic flow."""
    t1, t2, t3 = state
    return (
        t1 * (t2 + t3) - t2 * t3,
        t2 * (t1 + t3) - t1 * t3,
        t3 * (t1 + t2) - t1 * t2,
    )


DarbouxResidual = namedtuple("DarbouxResidual", "first second common")
DarbouxResidual.__doc__ = """(first, second) residuals of the equal-products
condition t3(t1'+t2') = t2(t1'+t3') = t1(t2'+t3'), plus the common value."""


def darboux_condition_residual(state):
    """Residuals of the pairwise equalities among t3(t1'+t2'), t2(t1'+t3'),
    t1(t2'+t3') along the flow.  Both vanish identically and the common
    product equals 2 t1 t2 t3 (each pair sum t_i' + t_j' is 2 t_i t_j)."""
    t1, t2, t3 = state
    d1, d2, d3 = dh_vector_field(state)
    p12 = t3 * (d1 + d2)
    p13 = t2 * (d1 + d3)
    p23 = t1 * (d2 + d3)
    return DarbouxResidual(p12 - p13, p13 - p23, p12)


# -- numeric integration -------------------------------------------------------


def dh_integrate(initial, tau0, tau1, tol: float, max_step: float = math.inf):
    """Integrate the flow along the straight segment tau0 -> tau1 into an
    rk.RkSolution, with tol as both absolute and relative tolerance and
    max_step a bound on |dtau|.
    rk.IntegrationBlowUp (the flow has movable poles, or the step budget is
    spent) is re-raised with the last trusted tau prefixed to its message."""
    from . import rk  # here, so the commands that never integrate skip it

    t0 = tau_complex(tau0)
    t1 = tau_complex(tau1)
    try:
        return rk.integrate(lambda tau, y: dh_vector_field(y), t0, t1, initial, tol,
                            max_step=max_step)
    except rk.IntegrationBlowUp as exc:
        exc.args = ("Darboux-Halphen integration stopped near tau=%r: %s"
                    % (exc.t_reached, exc),)
        raise


# -- closed form ---------------------------------------------------------------


def dh_theta_jet(tau):
    """(t, dt/dtau) of the closed form from theta_log_jets, both analytic:
    t_i = 2 theta'/theta = 2 pi i r and t_i' = 2 (log theta)'' = -2 pi**2 v."""
    _, (r2, r3, r4), (v2, v3, v4) = theta_log_jets(tau)
    c, k = 2j * math.pi, -2 * math.pi**2
    return DHState(c * r2, c * r3, c * r4), DHState(k * v2, k * v3, k * v4)


def dh_theta_solution(tau) -> DHState:
    """t_i = 2 theta_{i+1}'(tau)/theta_{i+1}(tau), the state of dh_theta_jet."""
    return dh_theta_jet(tau)[0]


def dh_theta_solution_series(order: int):
    """Exact expansions of the closed form, normalised by pi*i.

    Returns (s1, s2, s3) with pi_power = 1: the rational coefficient part
    of s_i is T_i = t_i/(pi*i) = (1/2) w d/dw log theta_{i+1}, so
    eval_series reproduces t_i directly.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    half = Fraction(1, 2)
    return tuple(
        (log_derivative(theta_series(which, order + 1)) * half).truncate(order).with_pi_power(1)
        for which in (2, 3, 4)
    )


def dh_series_ode_residuals(order: int):
    """Residuals (1/4) w dT_i/dw - dh_vector_field(T)_i as grading-zero
    exact series; all three vanish identically."""
    series = [s.with_pi_power(0) for s in dh_theta_solution_series(order)]
    quarter = Fraction(1, 4)
    return tuple(t.x_ddx() * quarter - v for t, v in zip(series, dh_vector_field(series)))
