"""Connection matrix of the family y^2 = 4(x-t1)(x-t2)(x-t3) and the
defining contraction property of the Darboux-Halphen field.

In the basis (dx/y, x dx/y) the connection is A = A1 dt1 + A2 dt2 + A3 dt3
with

    A_i = 1/(2(t_i-t_j)(t_i-t_k)) * [[-t_i,                    1  ],
                                     [t_j t_k - t_i(t_j+t_k),  t_i]]

for {j, k} the complementary pair.  Contracting A with the Darboux-Halphen
field gives exactly [[0, -1], [0, 0]]: the field sends dx/y to -x dx/y and
annihilates x dx/y.  The basis order fixes the sign convention; an
implementation that transposes the basis must flip the target matrix.
"""

from __future__ import annotations

from collections import namedtuple

from .dh import dh_vector_field

__all__ = [
    "SingularLocusError",
    "ConnectionMatrix",
    "R_CONTRACTION_TARGET",
    "gm_matrix",
    "gm_contract",
    "verify_R_property",
]

R_CONTRACTION_TARGET = ((0, -1), (0, 0))


class SingularLocusError(ValueError):
    """Two of the parameters collide; the connection matrix has a pole."""


ConnectionMatrix = namedtuple("ConnectionMatrix", "a1 a2 a3")
ConnectionMatrix.__doc__ = """The three 2x2 coefficient matrices of dt1, dt2,
dt3.  Entries are exact rationals by default; complex input is accepted but
the identity checks run exact."""


def _component(ti, tj, tk):
    den = 2 * (ti - tj) * (ti - tk)
    return (
        (-ti / den, 1 / den),
        ((tj * tk - ti * (tj + tk)) / den, ti / den),
    )


def gm_matrix(state) -> ConnectionMatrix:
    t1, t2, t3 = state
    if t1 == t2 or t1 == t3 or t2 == t3:
        raise SingularLocusError(
            "connection matrix is singular at collisions t_i = t_j: %r" % (tuple(state),)
        )
    return ConnectionMatrix(
        _component(t1, t2, t3), _component(t2, t1, t3), _component(t3, t1, t2)
    )


def gm_contract(state, v):
    """sum_i v_i A_i(t) as a 2x2 matrix."""
    mats = gm_matrix(state)
    return tuple(
        tuple(sum(vi * m[r][c] for vi, m in zip(v, mats)) for c in range(2))
        for r in range(2)
    )


def verify_R_property(state):
    """Contraction with the Darboux-Halphen field minus [[0, -1], [0, 0]];
    exactly the zero matrix for every state off the singular locus."""
    got = gm_contract(state, dh_vector_field(state))
    return tuple(
        tuple(g - w for g, w in zip(grow, wrow))
        for grow, wrow in zip(got, R_CONTRACTION_TARGET)
    )
