"""Bianchi IX self-duality machinery.

Covers the spin-connection coefficients of the diagonal metric

    ds^2 = c0^2 dr^2 + c1^2 (s^1)^2 + c2^2 (s^2)^2 + c3^2 (s^3)^2,
    c0 = c1 c2 c3,

the reduced first-order equations that curvature (anti-)self-duality
imposes on the c_i, the change of variables Omega_i = 2 c_j c_k, the
coupled Omega/A system, theta-function solution families and the
constraint/conformal factors selecting Einstein representatives.

Double signs are resolved everywhere by an explicit SelfDualitySign value;
sign +1 (self-dual) resolves the upper sign of the reduced equations, which
is the branch on which the Omega flow is the Darboux-Halphen field itself.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .dh import dh_vector_field
from .qseries import (
    ThetaCharacteristics,
    theta_char_dz,
    theta_char_eval,
    theta_log_jets,
    theta_numeric,  # unused here; bench/tracer.py patches bianchi.theta_numeric
)

__all__ = [
    "SelfDualitySign",
    "SELF_DUAL",
    "ANTI_SELF_DUAL",
    "MetricCoeffs",
    "OmegaAState",
    "TodHitchinParams",
    "ConnectionOneForm",
    "connection_coefficient",
    "connection_one_form",
    "sd_reduced_residual",
    "omega_from_c",
    "c_from_omega",
    "classical_dh_omega_field",
    "coupled_field",
    "theta_A_solution",
    "theta_A_jet",
    "omega_field",
    "omega_theta_flow",
    "flat_family",
    "flat_family_jet",
    "flat_conformal_factor",
    "tod_hitchin_omega1",
    "constraint_lhs_rhs",
    "lambda_conformal_factor",
]

class SelfDualitySign(namedtuple("SelfDualitySign", "sign")):
    """Resolves the +-/-+ double signs.  sign = +1 is the self-dual branch
    (upper signs, lambdas (2,2,2)); sign = -1 anti-self-dual (lower signs,
    lambdas (-2,-2,-2), product -8)."""

    __slots__ = ()

    def __new__(cls, sign):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return super().__new__(cls, sign)

    @property
    def upper_lower(self) -> int:
        """Resolved value of the upper/lower double sign: -1 on the
        self-dual branch, +1 on the anti-self-dual branch."""
        return -self.sign

    @property
    def lambdas(self):
        return (2 * self.sign,) * 3


SELF_DUAL = SelfDualitySign(1)
ANTI_SELF_DUAL = SelfDualitySign(-1)


class MetricCoeffs(namedtuple("MetricCoeffs", "c1 c2 c3")):
    __slots__ = ()

    def __new__(cls, c1, c2, c3):
        if not (c1 > 0 and c2 > 0 and c3 > 0):
            raise ValueError("metric coefficients must be positive")
        return super().__new__(cls, c1, c2, c3)

    @property
    def c0(self) -> float:
        return self.c1 * self.c2 * self.c3


# a is the A-component of the coupled system
OmegaAState = namedtuple("OmegaAState", "omega a")


class TodHitchinParams(namedtuple("TodHitchinParams", "p q lam", defaults=(1.0,))):
    """Characteristics (p, q) of the two-parameter solution family and the
    cosmological constant."""

    __slots__ = ()

    def reality_class(self) -> str:
        """Reported, not enforced: real p with Re q = 1/2 pairs with
        negative cosmological constant, real q with Re p = 1/2 with
        positive."""
        p, q = complex(self.p), complex(self.q)
        if abs(p.imag) < 1e-12 and abs(q.real - 0.5) < 1e-12:
            return "negative-lambda"
        if abs(q.imag) < 1e-12 and abs(p.real - 0.5) < 1e-12:
            return "positive-lambda"
        return "unclassified"


# -- connection coefficients ------------------------------------------------------


_EPS = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1, (2, 1, 3): -1, (3, 2, 1): -1, (1, 3, 2): -1}


def connection_coefficient(c, i: int, j: int) -> float:
    """Coefficient of s^k in the spin-connection component w^i_j (k the
    remaining index): -eps_{ijk} (c_i^2 + c_j^2 - c_k^2)/(c_i c_j)."""
    if i == j or not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError("indices must be distinct values in {1,2,3}")
    k = 6 - i - j
    ci, cj, ck = (tuple(c)[m - 1] for m in (i, j, k))
    return -_EPS[(i, j, k)] * (ci * ci + cj * cj - ck * ck) / (ci * cj)


ConnectionOneForm = namedtuple("ConnectionOneForm", "omega_i0 omega_ij")
ConnectionOneForm.__doc__ = """omega_i0[i-1]: coefficient of s^i in w^i_0;
omega_ij[k-1]: coefficient of s^k in w^i_j for the cyclic pair (i, j) of k."""


def connection_one_form(c, dc_dr) -> ConnectionOneForm:
    coeffs = MetricCoeffs(*c)
    c0 = coeffs.c0
    w_i0 = tuple(d / c0 for d in dc_dr)
    cyc = ((2, 3), (3, 1), (1, 2))  # (i, j) whose missing index is k = 1, 2, 3
    w_ij = tuple(connection_coefficient(coeffs, i, j) for i, j in cyc)
    return ConnectionOneForm(omega_i0=w_i0, omega_ij=w_ij)


def sd_reduced_residual(c, dc_dr, sign: SelfDualitySign) -> tuple:
    """Residuals of d/dr log(c_i^2) = (upper/lower) 2 (c_j^2 + c_k^2 - c_i^2
    - 2 c_j c_k), left minus right, sign-resolved."""
    s = sign.upper_lower
    c1, c2, c3 = MetricCoeffs(*c)
    d1, d2, d3 = dc_dr
    out = []
    for (ci, di), (cj, _), (ck, _) in (
        ((c1, d1), (c2, d2), (c3, d3)),
        ((c2, d2), (c3, d3), (c1, d1)),
        ((c3, d3), (c1, d1), (c2, d2)),
    ):
        lhs = 2 * di / ci
        rhs = s * 2 * (cj * cj + ck * ck - ci * ci - 2 * cj * ck)
        out.append(lhs - rhs)
    return tuple(out)


# -- Omega parametrisation --------------------------------------------------------


def omega_from_c(c) -> tuple:
    c1, c2, c3 = c
    return (2 * c2 * c3, 2 * c1 * c3, 2 * c1 * c2)


def c_from_omega(omega) -> MetricCoeffs:
    """Inverse of omega_from_c on the positive cone: c_i^2 = O_j O_k / (2 O_i)."""
    o1, o2, o3 = omega
    squares = (o2 * o3 / (2 * o1), o1 * o3 / (2 * o2), o1 * o2 / (2 * o3))
    if any(s <= 0 for s in squares):
        raise ValueError("Omega ratios must be positive to recover metric coefficients")
    return MetricCoeffs(*(math.sqrt(s) for s in squares))


def classical_dh_omega_field(omega, sign: SelfDualitySign) -> tuple:
    """dOmega_k/dr = (upper/lower)(O_i O_j - O_k O_i - O_k O_j): sign times
    the Darboux-Halphen field, which it is itself on the self-dual branch."""
    return tuple(sign.sign * d for d in dh_vector_field(omega))


def _omega_rate(omega, a):
    """dOmega_i/dt = -O_j O_k + O_i(A_j + A_k)."""
    o1, o2, o3 = omega
    a1, a2, a3 = a
    return (
        -o2 * o3 + o1 * (a2 + a3),
        -o3 * o1 + o2 * (a3 + a1),
        -o1 * o2 + o3 * (a1 + a2),
    )


def coupled_field(omega, a):
    """dOmega_i/dt = -O_j O_k + O_i(A_j + A_k) coupled to the
    Darboux-Halphen flow of the A_i; returns (dOmega, dA)."""
    return _omega_rate(omega, a), dh_vector_field(a)


# -- theta solution families ------------------------------------------------------


def _axis_jets(t: float):
    """theta_log_jets at tau = i t, all floats, for real t > 0."""
    if not t > 0:
        raise ValueError("t must be positive")
    return theta_log_jets(complex(0.0, t))


def theta_A_solution(t: float) -> tuple:
    """A_i = 2 d/dt log theta_{i+1}(i t) = -2 pi r, real for t > 0: the A
    of theta_A_jet."""
    return theta_A_jet(t)[0]


def theta_A_jet(t: float):
    """(A, dA/dt) from one theta_log_jets, both analytic: A_i = -2 pi r
    (chain rule: d/dt f(i t) = i f'(i t); r of theta_log_jets) and
    dA_i/dt = 2 pi**2 v (a second chain-rule factor i)."""
    _, (r2, r3, r4), (v2, v3, v4) = _axis_jets(t)
    c, k = -2 * math.pi, 2 * math.pi**2
    return (c * r2, c * r3, c * r4), (k * v2, k * v3, k * v4)


def omega_field(omega, t: float) -> tuple:
    """The Omega flow with A_i pinned to the theta solution at time t."""
    return _omega_rate(omega, theta_A_solution(t))


def omega_theta_flow(initial_omega, t0: float, t1: float, tol: float,
                     max_step: float = math.inf):
    """Integrate the coupled Omega/A system along real time from
    (initial_omega, theta_A_solution(t0)), 0 < t0 < t1, into an rk.RkSolution
    whose states are (*Omega, *A), floats for a real initial_omega.  The
    Darboux-Halphen flow through the theta A at t0 is the theta solution, so
    A stays on it to the tolerance and theta is evaluated once per flow."""
    from . import rk  # here, so the commands that never integrate skip it

    if not t0 < t1:
        raise ValueError("t1 must be after t0")

    def f(t, y):
        domega, da = coupled_field(y[:3], y[3:])
        return domega + da

    return rk.integrate(f, t0, t1, (*initial_omega, *theta_A_solution(t0)), tol, max_step)


def flat_family_jet(t: float, q0: float):
    """(state, dOmega/dt) of the flat family at t from one theta_A_jet:
    Omega_i = 1/(t + q0) + A_i, so dOmega_i/dt = -1/(t + q0)**2 + dA_i/dt."""
    if t + q0 == 0:
        raise ValueError("flat family has a pole at t = -q0")
    u = 1.0 / (t + q0)
    a, da = theta_A_jet(t)
    return OmegaAState(omega=tuple(u + ai for ai in a), a=a), tuple(-u * u + d for d in da)


def flat_family(t: float, q0: float) -> OmegaAState:
    """Omega_i = 1/(t + q0) + 2 d/dt log theta_{i+1}(i t): the solution
    family whose metrics have vanishing cosmological constant."""
    return flat_family_jet(t, q0)[0]


def flat_conformal_factor(omega, t: float, q0: float, C: float) -> float:
    """F = C (t + q0)**2 O1 O2 O3 at a point omega of the flat family."""
    o1, o2, o3 = omega
    return C * (t + q0) ** 2 * o1 * o2 * o3


# -- the two-parameter family and its constraint ----------------------------------


def tod_hitchin_omega1(params: TodHitchinParams, t: float) -> complex:
    """First member of the two-parameter family:

        Omega1 = -(i/2) th3 th4 * D[p, q+1/2] / (e^{pi i p} th[p, q])

    where th[r, s] is the characteristic theta at (z=0, sigma=it) and D its
    derivative in the second characteristic (equal to the z-derivative)."""
    _, th3, th4 = _axis_jets(t)[0]
    num = theta_char_dz(ThetaCharacteristics(params.p, params.q + 0.5, 1j * t))
    den = cmath.exp(1j * math.pi * params.p) * theta_char_eval(
        ThetaCharacteristics(params.p, params.q, 1j * t)
    )
    if den == 0:
        raise ZeroDivisionError("characteristic theta vanishes in the denominator")
    return -0.5j * th3 * th4 * num / den


def constraint_lhs_rhs(omega, t: float):
    """Both sides of the Einstein-class constraint

        th2^4 O1^2 - th3^4 O2^2 + th4^4 O3^2 = (pi^2/4) th2^4 th3^4 th4^4.

    The left side is quadratic in Omega, the right side Omega-free."""
    o1, o2, o3 = omega
    # complex, so th**4 is complex powering, not the float pow of libm
    th2, th3, th4 = map(complex, _axis_jets(t)[0])
    lhs = th2**4 * o1 * o1 - th3**4 * o2 * o2 + th4**4 * o3 * o3
    rhs = (math.pi**2 / 4) * th2**4 * th3**4 * th4**4
    return lhs, rhs


def lambda_conformal_factor(omega, params: TodHitchinParams, t: float):
    """Conformal factor F = (2/(pi L)) O1 O2 O3 / (d/dq log th[p,q])^2 of
    the Einstein representative for cosmological constant L."""
    if params.lam == 0:
        raise ValueError("cosmological constant must be nonzero")
    o1, o2, o3 = omega
    ch = ThetaCharacteristics(params.p, params.q, 1j * t)
    val = theta_char_eval(ch)
    if val == 0:
        raise ZeroDivisionError("characteristic theta vanishes")
    dlog = theta_char_dz(ch) / val
    return (2 / (math.pi * params.lam)) * o1 * o2 * o3 / (dlog * dlog)
