import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from halphen.dh import dh_theta_solution, dh_vector_field
from halphen.qseries import eisenstein_series, eval_series
from halphen.ramanujan import (
    EisensteinState,
    conjugacy_residual,
    dh_to_eisenstein,
    dh_to_eisenstein_jacobian,
    ramanujan_series_residual,
    ramanujan_vector_field,
)
from halphen.sampling import random_state

SURROGATE = Fraction(7, 3)  # a rational scale standing in for 2*pi*i


def test_map_constants_relations():
    # the map solves the matching whose (a1, a2, a3) = (S/12, 12 a1^2, 8 a1^3)
    # the oracle forms from the scale S: exactly for a rational S
    rng = random.Random(3)
    for _ in range(20):
        state = random_state(rng)
        assert matching_defect(state, dh_to_eisenstein(state, SURROGATE), SURROGATE) == 0
    # the residual's factor is the scale itself: 12 a1 is 2*pi*i bit for bit
    assert 12 * (2j * math.pi / 12) == 2j * math.pi


def test_vector_field_fixed_points_and_substitution():
    assert ramanujan_vector_field((1, 1, 1)) == (0, 0, 0)
    assert ramanujan_vector_field((0, 0, 0)) == (0, 0, 0)
    got = ramanujan_vector_field((2, 1, 0))
    assert got == (Fraction(1, 4), Fraction(2, 3), Fraction(-1, 2))


def test_series_residual_low_orders():
    r1, r2, r3 = ramanujan_series_residual(0)
    assert r1.is_zero() and r2.is_zero() and r3.is_zero()
    r1, _, _ = ramanujan_series_residual(1)
    # coefficient of q in the first relation: -24 - (-48 - 240)/12 = 0
    assert r1.coeff(1) == 0 and r1.is_zero()


def test_series_residual_order_30_exactly_zero():
    for r in ramanujan_series_residual(30):
        assert r.is_zero()
        assert r.trunc_order == 30


# -- the cubic-matching map ------------------------------------------------------


def test_map_at_origin_and_equal_triple():
    assert tuple(dh_to_eisenstein((0, 0, 0))) == (0, 0, 0)
    es = dh_to_eisenstein((1, 1, 1))
    assert abs(es.e2 - 6 / (1j * math.pi)) < 1e-14
    assert abs(es.e4) < 1e-14 and abs(es.e6) < 1e-14


def test_map_fixture_1_2_3():
    es = dh_to_eisenstein((1, 2, 3))
    assert abs(es.e2 - (-12j / math.pi)) < 1e-14
    assert abs(es.e4 - (-12 / math.pi**2)) < 1e-14
    assert abs(es.e6) < 1e-14


def matching_defect(state, es, scale):
    """Oracle: expand both sides of the cubic matching with the constants
    (a1, a2, a3) = (S/12, 12 a1^2, 8 a1^3) of the scale S and compare;
    exact for rational states and scales."""
    a1 = scale / 12
    a2, a3 = 12 * a1**2, 8 * a1**3
    lhs = 4 * np.poly(np.array(state, dtype=object))
    shift = np.array([1, -a1 * es.e2], dtype=object)
    rhs = 4 * np.polymul(np.polymul(shift, shift), shift)
    rhs = np.polysub(rhs, np.polymul([a2 * es.e4], shift))
    rhs = np.polysub(rhs, [0, 0, 0, a3 * es.e6])
    return max(abs(d) for d in np.polysub(lhs, rhs))


def test_map_satisfies_cubic_matching():
    rng = random.Random(5)
    for _ in range(20):
        state = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
        assert matching_defect(state, dh_to_eisenstein(state), 2j * math.pi) < 1e-12


def test_map_permutation_invariance():
    rng = random.Random(17)
    for _ in range(20):
        s = random_state(rng)
        base = dh_to_eisenstein(s, SURROGATE)
        for perm in itertools.permutations(s):
            assert tuple(dh_to_eisenstein(perm, SURROGATE)) == tuple(base)


def test_jacobian_matches_finite_differences():
    state = (0.7 + 0.2j, -0.4 + 1.1j, 1.3 - 0.5j)
    jac = dh_to_eisenstein_jacobian(state)
    h = 1e-6
    for i in range(3):
        bumped_up = list(state)
        bumped_dn = list(state)
        bumped_up[i] += h
        bumped_dn[i] -= h
        up = dh_to_eisenstein(tuple(bumped_up))
        dn = dh_to_eisenstein(tuple(bumped_dn))
        for row, u, d in zip(jac, up, dn):
            assert abs(row[i] - (u - d) / (2 * h)) < 1e-6


# -- conjugacy --------------------------------------------------------------------


def test_conjugacy_residual_zero_at_origin():
    assert conjugacy_residual((0, 0, 0), SURROGATE) == (0, 0, 0)


def test_conjugacy_residual_exact_at_random_rational_states():
    rng = random.Random(23)
    for _ in range(50):
        state = random_state(rng)
        assert conjugacy_residual(state, SURROGATE) == (0, 0, 0)


def test_conjugacy_residual_scale_independent():
    # the identity holds for every nonzero scale, not just the surrogate
    rng = random.Random(29)
    for scale in (Fraction(1), Fraction(-5, 2), Fraction(355, 113)):
        for _ in range(10):
            assert conjugacy_residual(random_state(rng), scale) == (0, 0, 0)


def test_conjugacy_residual_numeric_along_theta_solution():
    state = dh_theta_solution(1.3j)
    res = conjugacy_residual(state)
    assert max(abs(r) for r in res) < 1e-9


def test_theta_solution_maps_to_eisenstein_values():
    for tau in (1j, 1.5j):
        es = dh_to_eisenstein(dh_theta_solution(tau))
        for k, got in zip((2, 4, 6), es):
            want = eval_series(eisenstein_series(k, 40), tau, var="q")
            assert abs(got - want) < 1e-9


def test_eisenstein_state_iterates():
    assert tuple(EisensteinState(1, 2, 3)) == (1, 2, 3)
