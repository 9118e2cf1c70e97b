"""Eisenstein-series flow and the cubic-matching change of variables.

The weight-2/4/6 Eisenstein series satisfy

    q dE2/dq = (E2^2 - E4)/12,
    q dE4/dq = (E2 E4 - E6)/3,
    q dE6/dq = (E2 E6 - E4^2)/2,

and matching coefficients in

    4(x - t1)(x - t2)(x - t3) = 4(x - a1 E2)^3 - a2 E4 (x - a1 E2) - a3 E6,

    (a1, a2, a3) = (S/12, 12 a1^2, 8 a1^3),     S = 2*pi*i,

defines a polynomial map conjugating the Darboux-Halphen field to this
flow (with q d/dq = d/dtau / S).

The matching is triangular: E2 comes from the x^2 coefficient, then E4
from x^1, then E6 from x^0:

    E2 = e1/(3 a1)
    E4 = E2^2 - e2/(3 a1^2)
    E6 = (3 E2 E4 - E2^3)/2 + e3/(2 a1^3)

with e1, e2, e3 the elementary symmetric functions of (t1, t2, t3).

The map, its Jacobian and the conjugacy residual take the scale S as a
parameter, defaulting to 2*pi*i.  Every component of the conjugacy
residual is homogeneous in S (grade -1, -2, -3 respectively), so the
conjugacy is an identity in S: any nonzero rational S turns it into a
pure rational identity, which is how the exact checks run.  The series
residual of the flow applies ramanujan_vector_field itself to the
Eisenstein series.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .dh import dh_vector_field
from .qseries import eisenstein_series

__all__ = [
    "EisensteinState",
    "ramanujan_vector_field",
    "ramanujan_series_residual",
    "dh_to_eisenstein",
    "dh_to_eisenstein_jacobian",
    "conjugacy_residual",
]

EisensteinState = namedtuple("EisensteinState", "e2 e4 e6")


def ramanujan_vector_field(state):
    """(q dE2/dq, q dE4/dq, q dE6/dq).  Fraction coefficients keep rational
    states and exact series exact and fall back to complex arithmetic
    otherwise."""
    e2, e4, e6 = state
    return (
        (e2 * e2 - e4) * Fraction(1, 12),
        (e2 * e4 - e6) * Fraction(1, 3),
        (e2 * e6 - e4 * e4) * Fraction(1, 2),
    )


def ramanujan_series_residual(order: int):
    """Exact q-series residuals q dE/dq - ramanujan_vector_field(E) of the
    three flow equations; every coefficient up to the order is zero."""
    es = [eisenstein_series(k, order) for k in (2, 4, 6)]
    return tuple(e.x_ddx() - r for e, r in zip(es, ramanujan_vector_field(es)))


def _symmetric_functions(state):
    t1, t2, t3 = state
    return t1 + t2 + t3, t1 * t2 + t1 * t3 + t2 * t3, t1 * t2 * t3


def dh_to_eisenstein(state, scale=2j * math.pi) -> EisensteinState:
    """Triangular solve of the cubic matching with a1 = scale/12 (see module
    docstring)."""
    a1 = scale / 12
    e1, e2s, e3s = _symmetric_functions(state)
    ee2 = e1 / (3 * a1)
    ee4 = ee2 * ee2 - e2s / (3 * a1 * a1)
    ee6 = (3 * ee2 * ee4 - ee2 * ee2 * ee2) * Fraction(1, 2) + e3s / (2 * a1 * a1 * a1)
    return EisensteinState(ee2, ee4, ee6)


def dh_to_eisenstein_jacobian(state, scale=2j * math.pi):
    """Analytic Jacobian rows (dE2/dt_i, dE4/dt_i, dE6/dt_i) of the
    triangular solve; differentiated from the closed formulas, not by
    finite differences."""
    a1 = scale / 12
    t1, t2, t3 = state
    e1 = t1 + t2 + t3
    es = dh_to_eisenstein(state, scale)
    d_e2 = 1 / (3 * a1)
    row2 = (d_e2, d_e2, d_e2)
    row4 = tuple(2 * es.e2 * d_e2 - (e1 - t) / (3 * a1 * a1) for t in (t1, t2, t3))
    opposite = (t2 * t3, t1 * t3, t1 * t2)
    row6 = tuple(
        ((es.e4 - es.e2 * es.e2) / a1 + 3 * es.e2 * d4) * Fraction(1, 2)
        + opp / (2 * a1 * a1 * a1)
        for d4, opp in zip(row4, opposite)
    )
    return (row2, row4, row6)


def conjugacy_residual(state, scale=2j * math.pi):
    """J(t) . F_dh(t) - scale . F_ram(map(t)); identically zero.

    The factor scale = 2*pi*i converts d/dtau to q d/dq.  With a rational
    state and a rational scale the result is exactly zero.
    """
    v = dh_vector_field(state)
    jac = dh_to_eisenstein_jacobian(state, scale)
    pushed = tuple(sum(j * vi for j, vi in zip(row, v)) for row in jac)
    ram = ramanujan_vector_field(dh_to_eisenstein(state, scale))
    return tuple(p - scale * r for p, r in zip(pushed, ram))
