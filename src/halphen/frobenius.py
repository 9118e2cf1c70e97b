"""Three-dimensional Frobenius-algebra computations and the Chazy link.

For the potential F = (1/2) u^2 y + (1/2) u x^2 + f(x, y) the tangent-space
multiplication in the flat basis (e1, e2, e3) = (d/du, d/dx, d/dy) is

    e2^2   = f_xxy e1 + f_xxx e2 + e3
    e2 e3  = f_xyy e1 + f_xxy e2
    e3^2   = f_yyy e1 + f_xyy e2

with e1 the unity, and associativity collapses to the single PDE

    f_xxy^2 = f_yyy + f_xxx f_xyy.

Specialising f = -x^4 gamma(y)/16 turns that PDE into the Chazy equation
gamma''' = 6 gamma gamma'' - 9 (gamma')^2, solved by gamma = (pi*i/3) E2,
and the flow components t_i are the roots of

    y^3 - (3/2) gamma y^2 + (3/2) gamma' y - (1/4) gamma'' = 0.

Everything operates on jets (point values of derivatives): exact series
supply exact jets where needed and residual checking needs nothing more.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .dh import dh_theta_solution
from .qseries import _tau_complex, eisenstein_series, eval_series, theta_q

__all__ = [
    "PotentialJet",
    "GammaJet",
    "structure_constants",
    "associativity_residual",
    "potential_third_partials",
    "wdvv_residual_3d",
    "chazy_residual",
    "chazy_e2_exact",
    "chazy_gamma_jet",
    "modular_example_jet",
    "dh_cubic",
    "dh_cubic_roots_check",
    "root_set_distance",
]

# Largest E2 series order chazy_gamma_jet derives from tau, reached at
# Im tau of about 0.006; nearer the real axis the order grows without bound
# and the jet is refused instead.
MAX_JET_ORDER = 4000


@dataclass(frozen=True)
class PotentialJet:
    """The four third partials of f(x, y) at a point."""

    f_xxx: complex
    f_xxy: complex
    f_xyy: complex
    f_yyy: complex


@dataclass(frozen=True)
class GammaJet:
    """gamma and its first three derivatives at a point."""

    value: complex
    d1: complex
    d2: complex
    d3: complex


def structure_constants(jet: PotentialJet):
    """Multiplication table c[a][b] = coefficients of e_a . e_b on the basis
    (e1, e2, e3); e1 acts as the unity."""
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    table = [
        [e1, e2, e3],
        [e2, (jet.f_xxy, jet.f_xxx, 1), (jet.f_xyy, jet.f_xxy, 0)],
        [e3, (jet.f_xyy, jet.f_xxy, 0), (jet.f_yyy, jet.f_xyy, 0)],
    ]
    return tuple(tuple(tuple(row) for row in line) for line in table)


def associativity_residual(jet: PotentialJet):
    """f_xxy^2 - f_yyy - f_xxx f_xyy; zero iff the table is associative."""
    return jet.f_xxy * jet.f_xxy - jet.f_yyy - jet.f_xxx * jet.f_xyy


def potential_third_partials(jet: PotentialJet):
    """Full symmetric third-derivative tensor c and metric eta of the
    potential F = (1/2) u^2 y + (1/2) u x^2 + f(x, y)."""
    c = np.zeros((3, 3, 3), dtype=complex)

    def set_sym(idx, value):
        for p in set(permutations(idx)):
            c[p] = value

    set_sym((0, 0, 2), 1.0)  # F_uuy
    set_sym((0, 1, 1), 1.0)  # F_uxx
    set_sym((1, 1, 1), jet.f_xxx)
    set_sym((1, 1, 2), jet.f_xxy)
    set_sym((1, 2, 2), jet.f_xyy)
    set_sym((2, 2, 2), jet.f_yyy)
    eta = c[0]  # eta_bg = F_{u b g}: the antidiagonal pattern
    return c, np.array(eta)


def wdvv_residual_3d(third_partials, eta) -> float:
    """Max-abs associativity defect c_abl eta^lm c_mgd - c_dbl eta^lm c_mga
    over all index tuples (a, b, g, d)."""
    c = np.asarray(third_partials, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    if eta.shape != (3, 3) or not np.allclose(eta, eta.T):
        raise ValueError("eta must be a symmetric 3x3 matrix")
    try:
        eta_inv = np.linalg.inv(eta)
    except np.linalg.LinAlgError as exc:
        raise ValueError("eta is singular") from exc
    left = np.einsum("abl,lm,mgd->abgd", c, eta_inv, c)
    return float(np.max(np.abs(left - left.transpose(3, 1, 2, 0))))


# -- Chazy ------------------------------------------------------------------------


def chazy_residual(g: GammaJet):
    """gamma''' - 6 gamma gamma'' + 9 (gamma')^2."""
    return g.d3 - 6 * g.value * g.d2 + 9 * g.d1 * g.d1


def chazy_e2_exact(order: int):
    """Exact q-series residual of the Chazy equation on gamma = (pi*i/3) E2.

    Substituting gamma = (pi*i/3) g with d/dtau = 2*pi*i q d/dq and clearing
    the common (pi*i)^4 (3/8) factor leaves the rational identity

        2 Tq^3 g = 2 g Tq^2 g - 3 (Tq g)^2,      Tq = q d/dq,

    whose residual series (grading zero) is returned; identically zero.
    """
    g = eisenstein_series(2, order)
    g1 = theta_q(g)
    g2 = theta_q(g1)
    g3 = theta_q(g2)
    return 2 * g3 - (2 * g * g2 - 3 * g1 * g1)


def chazy_gamma_jet(tau, order: int | None = None) -> GammaJet:
    """Jet of gamma = (pi*i/3) E2 at tau, from term-wise differentiated
    series: the k-th derivative scales the q^n coefficient by (2 pi i n)^k."""
    t = _tau_complex(tau)
    if order is None:
        if 24.0 / t.imag + 8 > MAX_JET_ORDER:
            raise ValueError(
                "tau=%r is too close to the real axis: the E2 jet would need "
                "series order above %d" % (t, MAX_JET_ORDER)
            )
        order = max(12, int(24.0 / t.imag) + 8)
    scale = 1j * math.pi / 3
    cur = eisenstein_series(2, order)
    jets = []
    for k in range(4):
        jets.append(scale * (2j * math.pi) ** k * eval_series(cur, t, var="q"))
        cur = theta_q(cur)
    return GammaJet(*jets)


def modular_example_jet(x, g: GammaJet) -> PotentialJet:
    """Third partials of f = -x^4 gamma(y)/16 at the point (x, jet of gamma)."""
    return PotentialJet(
        f_xxx=-Fraction(3, 2) * x * g.value,
        f_xxy=-Fraction(3, 4) * x * x * g.d1,
        f_xyy=-Fraction(1, 4) * x * x * x * g.d2,
        f_yyy=-Fraction(1, 16) * x**4 * g.d3,
    )


# -- the cubic whose roots are the flow ---------------------------------------------


def dh_cubic(g: GammaJet):
    """Coefficients (1, -(3/2) gamma, (3/2) gamma', -(1/4) gamma'')."""
    return (
        1,
        -Fraction(3, 2) * g.value,
        Fraction(3, 2) * g.d1,
        -Fraction(1, 4) * g.d2,
    )


def root_set_distance(a, b) -> float:
    """Smallest over pairings of the maximum pairwise distance between two
    triples (multiplicity-agnostic matching)."""
    a = list(a)
    b = list(b)
    return min(
        max(abs(x - y) for x, y in zip(a, perm)) for perm in permutations(b)
    )


def dh_cubic_roots_check(tau) -> float:
    """Distance between the root set of the gamma-cubic and the theta
    closed form of the flow at tau."""
    jet = chazy_gamma_jet(tau)
    roots = np.roots([complex(c) for c in dh_cubic(jet)])
    return root_set_distance(roots, tuple(dh_theta_solution(tau)))
