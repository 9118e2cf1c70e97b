import math
import random
from fractions import Fraction

import numpy as np
import pytest

from halphen import frobenius
from halphen.dh import dh_theta_solution
from halphen.frobenius import (
    GammaJet,
    PotentialJet,
    associativity_residual,
    chazy_e2_exact,
    chazy_gamma_jet,
    chazy_residual,
    dh_cubic,
    dh_cubic_roots_check,
    modular_example_jet,
    potential_third_partials,
    root_residual,
    structure_constants,
    wdvv_residual_3d,
)

ZERO_JET = PotentialJet(0, 0, 0, 0)


def mul(table, u, v):
    out = [0, 0, 0]
    for a in range(3):
        for b in range(3):
            for g in range(3):
                out[g] += u[a] * v[b] * table[a][b][g]
    return tuple(out)


def test_structure_constants_zero_jet():
    table = structure_constants(ZERO_JET)
    assert table[1][1] == (0, 0, 1)  # e2^2 = e3
    assert table[1][2] == (0, 0, 0)
    assert table[2][2] == (0, 0, 0)


def test_structure_constants_quartic_potential():
    # f = x^4 at a point x: third partials (24x, 0, 0, 0)
    x = 0.7
    table = structure_constants(PotentialJet(24 * x, 0, 0, 0))
    assert table[1][1] == (0, 24 * x, 1)  # e2^2 = 24x e2 + e3


def test_structure_constants_unity_and_commutativity():
    rng = random.Random(83)
    jet = PotentialJet(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)))
    table = structure_constants(jet)
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for v in basis:
        assert mul(table, basis[0], v) == v
    for a in range(3):
        for b in range(3):
            assert table[a][b] == table[b][a]


def test_associativity_residual_examples():
    assert associativity_residual(ZERO_JET) == 0
    # f = x^2 y^2: partials (0, 4y, 4x, 0) -> residual 16 y^2
    for x, y in ((0.5, 1.5), (2.0, -1.0)):
        jet = PotentialJet(0, 4 * y, 4 * x, 0)
        assert associativity_residual(jet) == pytest.approx(16 * y**2)


def test_associativity_residual_is_table_associativity_defect():
    rng = random.Random(89)
    jet = PotentialJet(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)))
    table = structure_constants(jet)
    e2, e3 = (0, 1, 0), (0, 0, 1)
    lhs = mul(table, mul(table, e2, e2), e3)
    rhs = mul(table, e2, mul(table, e2, e3))
    defect = tuple(a - b for a, b in zip(lhs, rhs))
    # (e2 e2) e3 - e2 (e2 e3) = -(residual) e1
    assert abs(defect[0] + associativity_residual(jet)) < 1e-12
    assert abs(defect[1]) < 1e-12 and abs(defect[2]) < 1e-12


def test_potential_third_partials_symmetry_and_eta():
    jet = PotentialJet(1.5, -2.0, 0.25, 3.0)
    c = potential_third_partials(jet)
    for a, b, g in np.ndindex(3, 3, 3):
        s = sorted((a, b, g))
        assert c[a][b][g] == c[s[0]][s[1]][s[2]]
    # the metric eta_bg = F_ubg is the fixed antidiagonal one
    assert np.array_equal(c[0], np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]]))


def test_wdvv_cubic_potential_is_flat():
    assert wdvv_residual_3d(potential_third_partials(ZERO_JET)) == 0


def test_wdvv_matches_associativity_residual():
    for x, y in ((0.5, 1.5), (1.0, -0.7)):
        jet = PotentialJet(0, 4 * y, 4 * x, 0)  # f = x^2 y^2
        c = potential_third_partials(jet)
        assert wdvv_residual_3d(c) == pytest.approx(abs(associativity_residual(jet)))


# -- Chazy ------------------------------------------------------------------------


def test_chazy_residual_simple_jets():
    assert chazy_residual(GammaJet(5.0, 0, 0, 0)) == 0
    assert chazy_residual(GammaJet(0, 1.0, 0, 0)) == 9  # gamma(tau) = tau


def test_chazy_e2_exact_low_orders():
    assert chazy_e2_exact(0).is_zero()
    assert chazy_e2_exact(1).is_zero()
    r = chazy_e2_exact(30)
    assert r.is_zero()
    assert r.pi_power == 0
    assert r.trunc_order == 30


@pytest.mark.parametrize("tau", [1j, 1.3j])
def test_chazy_numeric_on_e2(tau):
    assert abs(chazy_residual(chazy_gamma_jet(tau))) < 1e-8


def test_chazy_gamma_jet_against_finite_differences():
    tau = 1.2j
    h = 1e-4
    jet = chazy_gamma_jet(tau)
    vals = {s: chazy_gamma_jet(tau + s * h).value for s in (-2, -1, 0, 1, 2)}
    d1 = (vals[1] - vals[-1]) / (2 * h)
    d2 = (vals[1] - 2 * vals[0] + vals[-1]) / h**2
    d3 = (vals[2] - 2 * vals[1] + 2 * vals[-1] - vals[-2]) / (2 * h**3)
    assert abs(jet.d1 - d1) < 1e-6
    assert abs(jet.d2 - d2) < 1e-5
    assert abs(jet.d3 - d3) < 1e-3


def test_chazy_gamma_jet_rejects_real_tau():
    with pytest.raises(ValueError):
        chazy_gamma_jet(1 + 0j)


def test_chazy_gamma_jet_refuses_orders_past_the_cap():
    with pytest.raises(ValueError, match="too close to the real axis"):
        chazy_gamma_jet(1e-9j)
    chazy_gamma_jet(0.0061j)  # order 3942, just below the cap


def test_modular_example_reduces_to_chazy():
    # associativity residual of f = -x^4 gamma(y)/16 equals
    # (x^4/16) * chazy_residual(gamma jet).
    rng = random.Random(97)
    for _ in range(10):
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        g = GammaJet(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)))
        got = associativity_residual(modular_example_jet(x, g))
        want = x**4 / 16 * chazy_residual(g)
        assert abs(got - want) < 1e-12


@pytest.mark.parametrize("tau", [1j, 1.3j])
def test_wdvv_vanishes_on_chazy_solution(tau):
    jet = modular_example_jet(0.8 + 0.3j, chazy_gamma_jet(tau))
    assert wdvv_residual_3d(potential_third_partials(jet)) < 1e-8


# -- the cubic ---------------------------------------------------------------------


def test_dh_cubic_zero_jet():
    assert dh_cubic(GammaJet(0, 0, 0, 0)) == (1, 0, 0, 0)


def test_dh_cubic_sum_of_roots_is_e2_sum():
    tau = 1.2j
    jet = chazy_gamma_jet(tau)
    coeffs = dh_cubic(jet)
    # sum of roots = (3/2) gamma = (pi i/2) E2 = t1 + t2 + t3
    assert abs(-coeffs[1] - sum(dh_theta_solution(tau))) < 1e-10


def test_root_residual_of_exact_roots_in_any_order():
    coeffs = (1, -6, 11, -6)  # (y - 1)(y - 2)(y - 3)
    assert root_residual(coeffs, [1, 2, 3]) == 0
    assert root_residual(coeffs, [3, 1, 2]) == 0
    assert root_residual((1, -1, 0, 0), [0, 0, 1]) == 0  # a double root
    # e1, e2, e3 = 6, 11, 6 against 7, 14, 8, relative to m**k = 4, 16, 64
    assert root_residual(coeffs, [1, 2, 4]) == 1 / 4


# two roots lie 7.5e-9 apart at 0.12i, where matching the roots failed at
# 2.3e-7 on values right to 1.7e-14
@pytest.mark.parametrize("tau", [0.12j, 0.8j, 1j, 1.2j, 1.5j, 2j])
def test_cubic_roots_match_theta_solution(tau):
    assert dh_cubic_roots_check(tau) < 1e-8


def test_cubic_check_fails_where_the_theta_sums_lose_their_digits():
    assert dh_cubic_roots_check(0.02j) >= 1e-8


def test_cubic_check_catches_a_wrong_coefficient(monkeypatch):
    def wrong(g):
        return (1, -Fraction(3, 2) * g.value, Fraction(3, 2) * g.d1, -Fraction(1, 5) * g.d2)

    monkeypatch.setattr(frobenius, "dh_cubic", wrong)
    assert dh_cubic_roots_check(1.2j) > 1e-8
