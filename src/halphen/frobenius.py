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

Everything operates on jets (point values of derivatives): exact series
supply exact jets where needed and residual checking needs nothing more.
"""

from __future__ import annotations

import cmath
import math
import sys
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
    "cubic_roots",
    "dh_cubic_roots_check",
    "root_set_distance",
]

# Largest E2 series order chazy_gamma_jet derives from tau, reached at
# Im tau of about 0.006; nearer the real axis the order grows without bound
# and the jet is refused instead.
MAX_JET_ORDER = 4000

# Cap on the Durand-Kerner sweeps of cubic_roots.  The theta cubics take
# about seven; a multiple root converges linearly, in up to a few hundred.
MAX_ROOT_ITERATIONS = 500


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


def cubic_roots(coeffs) -> list:
    """The three complex roots of a0 z^3 + a1 z^2 + a2 z + a3 (a0 != 0), by
    Durand-Kerner iteration on the monic normalisation.

    The start points are r (0.4 + 0.9i)^k, k = 0, 1, 2, with r the Cauchy
    bound 1 + max |a_k/a0|.  They are deliberately asymmetric: the theta
    cubics of the flow at tau on the imaginary axis have their roots on
    that axis, and start points placed symmetrically about it keep that
    symmetry and stall.  A root whose residual is within the rounding error
    of evaluating it stays put, since a multiple root would otherwise
    wander in the noise; iteration stops once no root moves by more than
    1e-15 r.  Simple roots come out to rounding level, an m-fold root to
    about eps^(1/m)."""
    if len(coeffs) != 4:
        raise ValueError("a cubic has four coefficients")
    lead = complex(coeffs[0])
    if lead == 0:
        raise ValueError("leading coefficient must be nonzero")
    a1, a2, a3 = (complex(a) / lead for a in coeffs[1:])
    m1, m2, m3 = abs(a1), abs(a2), abs(a3)
    radius = 1 + max(m1, m2, m3)
    roots = [radius * (0.4 + 0.9j) ** k for k in range(3)]
    for _ in range(MAX_ROOT_ITERATIONS):
        moved = 0.0
        for i, (j, k) in enumerate(((1, 2), (0, 2), (0, 1))):
            z = roots[i]
            value = ((z + a1) * z + a2) * z + a3
            r = abs(z)
            if abs(value) <= sys.float_info.epsilon * (((r + m1) * r + m2) * r + m3):
                continue
            step = value / ((z - roots[j]) * (z - roots[k]))
            roots[i] = z - step
            moved = max(moved, abs(step))
        if moved < 1e-15 * radius:
            break
    return roots


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
    roots = cubic_roots(dh_cubic(jet))
    return root_set_distance(roots, dh_theta_solution(tau))
