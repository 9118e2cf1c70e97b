"""Three-dimensional Frobenius-algebra computations and the Chazy link.

For the potential F = (1/2) u^2 y + (1/2) u x^2 + f(x, y) the tangent-space
multiplication in the flat basis (e1, e2, e3) = (d/du, d/dx, d/dy) is

    e2^2   = f_xxy e1 + f_xxx e2 + e3
    e2 e3  = f_xyy e1 + f_xxy e2
    e3^2   = f_yyy e1 + f_xyy e2

with e1 the unity.  The metric eta_bg = F_ubg is the constant
antidiagonal matrix (eta_bg = 1 where b + g = 2), its own inverse, so the
WDVV contraction needs no metric argument.  Associativity collapses to the
single PDE

    f_xxy^2 = f_yyy + f_xxx f_xyy.

Specialising f = -x^4 gamma(y)/16 turns that PDE into the Chazy equation
gamma''' = 6 gamma gamma'' - 9 (gamma')^2, solved by gamma = (pi*i/3) E2,
and the flow components t_i are the roots of

    y^3 - (3/2) gamma y^2 + (3/2) gamma' y - (1/4) gamma'' = 0.

Its coefficients are checked by Vieta's formulas rather than its roots
found: that residual is the backward error of the t_i, which unlike a
distance between root sets does not grow as two roots approach each other.

Everything operates on jets (point values of derivatives): exact series
supply exact jets where needed and residual checking needs nothing more.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction
from itertools import permutations, product

from .dh import dh_theta_solution
from .qseries import eisenstein_series, eval_series, tau_complex

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
    "root_residual",
    "dh_cubic_roots_check",
]

# Largest E2 series order chazy_gamma_jet derives from tau, reached at
# Im tau of about 0.006; nearer the real axis the order grows without bound
# and the jet is refused instead.
MAX_JET_ORDER = 4000


PotentialJet = namedtuple("PotentialJet", "f_xxx f_xxy f_xyy f_yyy")
PotentialJet.__doc__ = "The four third partials of f(x, y) at a point."

GammaJet = namedtuple("GammaJet", "value d1 d2 d3")
GammaJet.__doc__ = "gamma and its first three derivatives at a point."


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
    """Full symmetric third-derivative tensor c[a][b][g] of the potential
    F = (1/2) u^2 y + (1/2) u x^2 + f(x, y), as nested lists.  Its metric
    eta[b][g] = c[0][b][g] is the constant antidiagonal matrix."""
    c = [[[0j] * 3 for _ in range(3)] for _ in range(3)]
    for idx, value in (
        ((0, 0, 2), 1.0),  # F_uuy
        ((0, 1, 1), 1.0),  # F_uxx
        ((1, 1, 1), jet.f_xxx),
        ((1, 1, 2), jet.f_xxy),
        ((1, 2, 2), jet.f_xyy),
        ((2, 2, 2), jet.f_yyy),
    ):
        for a, b, g in set(permutations(idx)):
            c[a][b][g] = complex(value)
    return c


def wdvv_residual_3d(third_partials) -> float:
    """Max-abs associativity defect c_abl eta^lm c_mgd - c_dbl eta^lm c_mga
    over all index tuples (a, b, g, d); eta^lm is 1 where l + m = 2 (see the
    module docstring).  Third partials that are not finite raise
    OverflowError, since max() would skip a NaN defect."""
    c = [[[complex(v) for v in row] for row in plane] for plane in third_partials]
    if not all(cmath.isfinite(v) for plane in c for row in plane for v in row):
        raise OverflowError("the third partials are not finite")
    left = {}
    for a, b, g, d in product(range(3), repeat=4):
        ab = c[a][b]
        left[a, b, g, d] = ab[0] * c[2][g][d] + ab[1] * c[1][g][d] + ab[2] * c[0][g][d]
    return max(abs(v - left[d, b, g, a]) for (a, b, g, d), v in left.items())


# -- Chazy ------------------------------------------------------------------------


def chazy_residual(g: GammaJet):
    """gamma''' - 6 gamma gamma'' + 9 (gamma')^2."""
    return g.d3 - 6 * g.value * g.d2 + 9 * g.d1 * g.d1


def chazy_e2_exact(order: int):
    """Exact q-series residual of the Chazy equation on gamma = (pi*i/3) E2.

    With d/dtau = S q d/dq, S = 2*pi*i, the jet of gamma is
    (S/6) (E2, S D E2, S^2 D^2 E2, S^3 D^3 E2), D = q d/dq, and
    chazy_residual of it is homogeneous of degree 4 in S.  So the rational
    6 stands in for S: chazy_residual of the integral jet
    (E2, 6 D E2, 36 D^2 E2, 216 D^3 E2) is returned, a grading-zero series
    that is identically zero.
    """
    g = eisenstein_series(2, order)
    g1 = g.x_ddx()
    g2 = g1.x_ddx()
    return chazy_residual(GammaJet(g, 6 * g1, 36 * g2, 216 * g2.x_ddx()))


def chazy_gamma_jet(tau) -> GammaJet:
    """Jet of gamma = (pi*i/3) E2 at tau, from term-wise differentiated
    series: the k-th derivative scales the q^n coefficient by (2 pi i n)^k."""
    t = tau_complex(tau)
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
        cur = cur.x_ddx()
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


def root_residual(coeffs, roots) -> float:
    """Backward error of roots for the monic cubic coeffs: the largest
    |a_k - b_k| / m**k, m = max(1, |r_i|), where b = (1, -e1, e2, -e3) is
    (y - r1)(y - r2)(y - r3) expanded; b_k has degree k in the roots.
    Sorting the roots makes the value independent of their order."""
    r1, r2, r3 = sorted(map(complex, roots), key=lambda z: (z.real, z.imag))
    expanded = (1, -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -(r1 * r2 * r3))
    m = max(1.0, abs(r1), abs(r2), abs(r3))
    return max(abs(complex(a) - b) / m**k for k, (a, b) in enumerate(zip(coeffs, expanded)))


def dh_cubic_roots_check(tau) -> float:
    """Backward error (root_residual) of the flow's theta closed form at tau
    as the roots of the gamma-cubic.  Near a double root a coefficient error
    eps moves the roots by about sqrt(eps): matching roots fails on right values."""
    return root_residual(dh_cubic(chazy_gamma_jet(tau)), dh_theta_solution(tau))
