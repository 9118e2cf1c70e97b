import math
import random
from fractions import Fraction
from unittest import mock

import pytest

from halphen import bianchi
from halphen.bianchi import (
    ANTI_SELF_DUAL,
    SELF_DUAL,
    ConnectionOneForm,
    MetricCoeffs,
    SelfDualitySign,
    TodHitchinParams,
    c_from_omega,
    classical_dh_omega_field,
    connection_coefficient,
    connection_one_form,
    constraint_lhs_rhs,
    coupled_field,
    flat_conformal_factor,
    flat_family,
    lambda_conformal_factor,
    omega_field,
    omega_from_c,
    omega_theta_flow,
    sd_reduced_residual,
    theta_A_jet,
    theta_A_solution,
    tod_hitchin_omega1,
)
from halphen.dh import dh_theta_solution, dh_vector_field
from halphen.qseries import ThetaCharacteristics, eval_series, theta_char_eval, theta_series
from halphen.rk import IntegrationBlowUp, integrate
from halphen.sampling import random_state


def test_sign_type():
    assert SELF_DUAL.upper_lower == -1
    assert ANTI_SELF_DUAL.upper_lower == 1
    assert SELF_DUAL.lambdas == (2, 2, 2)
    assert ANTI_SELF_DUAL.lambdas == (-2, -2, -2)
    with pytest.raises(ValueError):
        SelfDualitySign(0)


# -- connection coefficients -----------------------------------------------------


def test_connection_one_form_round_sphere():
    form = connection_one_form((1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    assert form.omega_i0 == (0, 0, 0)
    assert form.omega_ij == (-1, -1, -1)


def test_connection_one_form_radial_part():
    form = connection_one_form((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))
    assert form.omega_i0 == (1, 2, 3)  # c0 = 1


def test_connection_coefficient_substitution():
    # sigma^3 coefficient of w^1_2 at c=(1,2,3): -(1+4-9)/(1*2) = 2
    assert connection_coefficient((1.0, 2.0, 3.0), 1, 2) == pytest.approx(2.0)


def test_connection_coefficient_antisymmetry():
    rng = random.Random(61)
    for _ in range(20):
        c = tuple(rng.uniform(0.2, 3.0) for _ in range(3))
        for i, j in ((1, 2), (2, 3), (3, 1)):
            assert connection_coefficient(c, i, j) == pytest.approx(
                -connection_coefficient(c, j, i)
            )
    with pytest.raises(ValueError):
        connection_coefficient((1, 1, 1), 2, 2)


def test_metric_coeffs_positivity_and_c0():
    m = MetricCoeffs(1.0, 2.0, 3.0)
    assert m.c0 == 6.0
    with pytest.raises(ValueError):
        MetricCoeffs(1.0, -2.0, 3.0)


# -- reduced self-duality equations ------------------------------------------------


def test_sd_residual_constructed_exact_input():
    c = (1.1, 0.8, 1.4)
    rhs = []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        rhs.append(-(c[j] ** 2 + c[k] ** 2 - c[i] ** 2 - 2 * c[j] * c[k]) * c[i])
    assert max(abs(r) for r in sd_reduced_residual(c, tuple(rhs), SELF_DUAL)) < 1e-14


def test_sd_residual_round_sphere_fixture():
    # direct substitution: lhs 0, rhs = (upper/lower)*2*(1+1-1-2)
    assert sd_reduced_residual((1, 1, 1), (0, 0, 0), SELF_DUAL) == (-2, -2, -2)
    assert sd_reduced_residual((1, 1, 1), (0, 0, 0), ANTI_SELF_DUAL) == (2, 2, 2)


def c_flow_rhs(sign):
    s = sign.upper_lower

    def f(r, c):
        c1, c2, c3 = c
        return (
            s * c1 * (c2 * c2 + c3 * c3 - c1 * c1 - 2 * c2 * c3),
            s * c2 * (c3 * c3 + c1 * c1 - c2 * c2 - 2 * c3 * c1),
            s * c3 * (c1 * c1 + c2 * c2 - c3 * c3 - 2 * c1 * c2),
        )

    return f


def test_sd_residual_along_integrated_profile():
    # integrate the reduced flow itself (the anti branch decays, the
    # self-dual one hits a movable pole near r = 0.35), then substitute
    # central differences of at() between mesh points into the residual.
    sol = integrate(c_flow_rhs(ANTI_SELF_DUAL), 0.0, 0.5, [1.0, 1.2, 0.8], 1e-12, max_step=0.01)
    h = 1e-4
    for r in (0.1, 0.25, 0.4):
        c = tuple(x.real for x in sol.at(r))
        dc = tuple(
            ((u - d) / (2 * h)).real for u, d in zip(sol.at(r + h), sol.at(r - h))
        )
        assert max(abs(x) for x in sd_reduced_residual(c, dc, ANTI_SELF_DUAL)) < 1e-7


def test_c_profile_maps_to_classical_omega_flow():
    # on the positive cone the reduced c-flow is the Omega flow of the same
    # branch: Omega = 2 c_j c_k must obey it.
    sol = integrate(c_flow_rhs(ANTI_SELF_DUAL), 0.0, 0.5, [1.0, 1.2, 0.8], 1e-12, max_step=0.01)
    h = 1e-4
    for r in (0.15, 0.3):
        omega = omega_from_c([x.real for x in sol.at(r)])
        om_up = omega_from_c([x.real for x in sol.at(r + h)])
        om_dn = omega_from_c([x.real for x in sol.at(r - h)])
        fd = [(u - d) / (2 * h) for u, d in zip(om_up, om_dn)]
        field = classical_dh_omega_field(omega, ANTI_SELF_DUAL)
        assert max(abs(a - b) for a, b in zip(fd, field)) < 1e-7


# -- Omega parametrisation ---------------------------------------------------------


def test_omega_c_round_trip_examples():
    assert omega_from_c((1.0, 1.0, 1.0)) == (2, 2, 2)
    assert tuple(c_from_omega((2.0, 2.0, 2.0))) == (1, 1, 1)
    assert omega_from_c((1.0, 2.0, 3.0)) == (12, 6, 4)
    back = c_from_omega((12.0, 6.0, 4.0))
    assert tuple(back) == pytest.approx((1.0, 2.0, 3.0), rel=1e-14)


def test_omega_c_round_trip_random():
    rng = random.Random(67)
    for _ in range(25):
        c = tuple(rng.uniform(0.1, 4.0) for _ in range(3))
        back = tuple(c_from_omega(omega_from_c(c)))
        assert max(abs(a - b) / a for a, b in zip(c, back)) < 1e-14


def test_c_from_omega_rejects_bad_ratios():
    with pytest.raises(ValueError):
        c_from_omega((1.0, 1.0, -1.0))


def test_classical_field_examples():
    assert classical_dh_omega_field((1, 1, 1), SELF_DUAL) == (1, 1, 1)
    assert classical_dh_omega_field((0, 0, 0), SELF_DUAL) == (0, 0, 0)
    d = classical_dh_omega_field((1, 2, 3), SELF_DUAL)
    assert d[0] + d[1] == 2 * 1 * 2  # pairwise-sum law


def test_classical_field_minus_branch_is_dh():
    rng = random.Random(71)
    for _ in range(30):
        omega = random_state(rng)
        assert classical_dh_omega_field(omega, SELF_DUAL) == dh_vector_field(omega)
        d = classical_dh_omega_field(omega, SELF_DUAL)
        for i, j in ((0, 1), (1, 2), (0, 2)):
            assert d[i] + d[j] == 2 * omega[i] * omega[j]


# -- coupled system ----------------------------------------------------------------


def test_coupled_field_reduction_to_classical():
    rng = random.Random(73)
    for _ in range(30):
        omega = random_state(rng)
        domega, da = coupled_field(omega, omega)
        assert domega == classical_dh_omega_field(omega, SELF_DUAL)
        assert da == dh_vector_field(omega)


def test_coupled_field_degenerate_cases():
    domega, _ = coupled_field((0, 0, 0), (5, -2, 7))
    assert domega == (0, 0, 0)
    domega, da = coupled_field((1, 2, 3), (0, 0, 0))
    assert domega == (-6, -3, -2)
    assert da == (0, 0, 0)


# -- theta solutions ---------------------------------------------------------------


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_theta_A_satisfies_dh_flow(t):
    h = 1e-5
    a = theta_A_solution(t)
    up = theta_A_solution(t + h)
    dn = theta_A_solution(t - h)
    fd = [(u - d) / (2 * h) for u, d in zip(up, dn)]
    field = dh_vector_field(a)
    assert max(abs(x - y) for x, y in zip(fd, field)) < 1e-6
    a_jet, da = theta_A_jet(t)
    assert a_jet == a
    assert max(abs(x - y) for x, y in zip(da, dh_vector_field(a_jet))) < 1e-13
    assert max(abs(x - y) for x, y in zip(da, fd)) < 1e-6


def test_omega_field_is_the_coupled_omega_rate():
    omega, t = (1.0, -0.5, 0.25), 0.9
    domega, _ = coupled_field(omega, theta_A_solution(t))
    assert omega_field(list(omega), t) == domega


def test_theta_A_chain_rule_against_dh_solution():
    t = 1.0
    a = theta_A_solution(t)
    ts = dh_theta_solution(1j * t)
    for ai, ti in zip(a, ts):
        assert abs(ai - 1j * ti) < 1e-10


def test_theta_A_large_time_pattern():
    t = 6.0
    a = theta_A_solution(t)
    decay = 4 * math.pi * math.exp(-math.pi * t)
    leading = (-math.pi / 2, -decay, decay)
    for got, want in zip(a, leading):
        assert abs(got - want) < 1e-6


def test_omega_flow_zero_stays_zero():
    traj = omega_theta_flow((0, 0, 0), 0.5, 2.0, tol=1e-10)
    assert max(max(abs(c) for c in om) for om in traj.states) == 0


def test_omega_flow_reproduces_flat_family():
    q0 = 0.3
    traj = omega_theta_flow(flat_family(0.7, q0).omega, 0.7, 2.0, tol=1e-10)
    for t in (1.0, 1.5, 2.0):
        got = traj.at(t)
        want = flat_family(t, q0).omega
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-7


def test_omega_flow_residual_along_dense_output():
    # max_step keeps the interpolant well inside its accuracy so the
    # finite-difference residual reflects the flow, not the interpolation.
    tol = 1e-8
    traj = omega_theta_flow(flat_family(0.8, 0.5).omega, 0.8, 1.6, tol=tol, max_step=0.01)
    h = 2e-5
    for k in range(len(traj) - 1):
        tm = 0.5 * (traj.ts[k] + traj.ts[k + 1])
        if tm - h <= traj.ts[0] or tm + h >= traj.ts[-1]:
            continue
        fd = [(u - d) / (2 * h) for u, d in zip(traj.at(tm + h), traj.at(tm - h))]
        field = omega_field(traj.at(tm), tm)
        assert max(abs(a - b) for a, b in zip(fd, field)) < 10 * tol


def test_omega_flow_endpoint_matches_the_theta_pinned_flow():
    # the coupled flow carries A to the tolerance; against a flow 1e-14
    # tight whose A is pinned through theta at each stage, the endpoint
    # stays within 10 tol of the largest component (worst seen: 6.4 tol).
    # Draws whose reference blows up before t1 are redrawn.
    rng = random.Random(11)
    draws = []
    while len(draws) < 34:
        omega = tuple(rng.uniform(-2, 2) for _ in range(3))
        t0 = rng.uniform(0.4, 1)
        t1 = t0 + rng.uniform(0.5, 2)
        try:
            ref = integrate(lambda t, y: omega_field(y, t), t0, t1, omega, tol=1e-14)
        except IntegrationBlowUp:
            continue
        draws.append((omega, t0, t1, ref.ys[-1]))
    for tol in (1e-8, 1e-10, 1e-12):
        for omega, t0, t1, want in draws:
            got = omega_theta_flow(omega, t0, t1, tol=tol).states[-1]
            assert max(abs(a - b) for a, b in zip(got, want)) <= 10 * tol * max(map(abs, want))


@pytest.mark.parametrize(
    "initial, t0, t1, tol, max_step",
    [
        ((1, 0.5, 0.25), 0.7, 2.0, 1e-9, math.inf),  # the README's bianchi flow
        (flat_family(0.8, 0.5).omega, 0.8, 1.6, 1e-10, 0.01),
    ],
)
def test_omega_flow_computes_A_once(initial, t0, t1, tol, max_step):
    # A is integrated with Omega from the theta A at t0, so theta is
    # evaluated for the initial state only: not per stage, nor by at()
    with mock.patch.object(bianchi, "theta_A_solution", wraps=theta_A_solution) as spy:
        traj = omega_theta_flow(initial, t0, t1, tol=tol, max_step=max_step)
        spy.assert_called_once_with(t0)
        assert len(traj) > 5
        ts = traj.ts
        traj.at(0.5 * (ts[3] + ts[4]))
        traj.at(0.25 * ts[3] + 0.75 * ts[4])
        assert spy.call_count == 1
    # each at() stepped, 12 calls of f and none of theta
    assert traj.rhs_evals == 2 + 12 * (len(traj.steps) + traj.steps_rejected) + 24


def test_omega_flow_validates_arguments():
    with pytest.raises(ValueError):
        omega_theta_flow((1, 1, 1), -0.5, 1.0, tol=1e-8)
    with pytest.raises(ValueError):
        omega_theta_flow((1, 1, 1), 1.0, 0.5, tol=1e-8)


# -- flat family -------------------------------------------------------------------


@pytest.mark.parametrize("t", [0.7, 1.0, 2.0])
def test_flat_family_satisfies_omega_flow(t):
    q0 = 0.3
    h = 1e-5
    up = flat_family(t + h, q0).omega
    dn = flat_family(t - h, q0).omega
    fd = [(u - d) / (2 * h) for u, d in zip(up, dn)]
    field = omega_field(flat_family(t, q0).omega, t)
    assert max(abs(a - b) for a, b in zip(fd, field)) < 1e-8


def test_flat_family_large_shift_approaches_theta_A():
    a = theta_A_solution(1.0)
    omega = flat_family(1.0, 1e8).omega
    assert max(abs(o - x) for o, x in zip(omega, a)) < 1e-7


def test_flat_family_pole():
    with pytest.raises(ValueError):
        flat_family(1.0, -1.0)


def test_flat_conformal_factor_linear_in_C():
    state = flat_family(1.0, 0.3)
    f1 = flat_conformal_factor(state.omega, 1.0, 0.3, 1.0)
    f3 = flat_conformal_factor(state.omega, 1.0, 0.3, 3.0)
    assert f3 == pytest.approx(3 * f1)
    o1, o2, o3 = state.omega
    assert f1 == pytest.approx((1.3) ** 2 * o1 * o2 * o3)


# -- constraint and two-parameter family ---------------------------------------


def test_constraint_lhs_quadratic_scaling():
    omega = (0.9, -1.4, 2.2)
    t = 1.1
    lhs, rhs = constraint_lhs_rhs(omega, t)
    for s in (2.0, -3.0, 0.5):
        lhs_s, rhs_s = constraint_lhs_rhs(tuple(s * o for o in omega), t)
        assert lhs_s == pytest.approx(s * s * lhs, rel=1e-12)
        assert rhs_s == rhs  # Omega-free


def test_flat_family_lies_on_constraint_variety():
    # recorded observation: the vanishing-Lambda family satisfies the
    # Einstein-class constraint identically (it is the limiting member of
    # the constrained class), so the residual is zero at machine precision.
    for t, q0 in ((1.0, 0.3), (0.7, 0.3), (2.0, -0.1), (0.5, 1.7)):
        omega = flat_family(t, q0).omega
        lhs, rhs = constraint_lhs_rhs(omega, t)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_theta_prefactors_match_series_evals():
    # the numeric thetas entering the family formulas agree with the exact
    # series evaluations at sigma = i.
    for which in (2, 3, 4):
        ch = {2: (0.5, 0.0), 3: (0.0, 0.0), 4: (0.0, 0.5)}[which]
        got = theta_char_eval(ThetaCharacteristics(ch[0], ch[1], 1j))
        want = eval_series(theta_series(which, 200), 1j)
        assert abs(got - want) < 1e-12


def test_tod_hitchin_omega1_fixture():
    params = TodHitchinParams(p=0.25, q=0.5 + 0.3j, lam=-1.0)
    assert params.reality_class() == "negative-lambda"
    value = tod_hitchin_omega1(params, 1.0)
    assert value.imag == pytest.approx(0.0, abs=1e-12)
    assert value.real == pytest.approx(6.63832534222472, rel=1e-10)


def test_tod_hitchin_omega1_validates():
    with pytest.raises(ValueError):
        tod_hitchin_omega1(TodHitchinParams(p=0.1, q=0.2), -1.0)


def test_lambda_conformal_factor_scales_inversely():
    params1 = TodHitchinParams(p=0.25, q=0.5 + 0.3j, lam=-1.0)
    params2 = TodHitchinParams(p=0.25, q=0.5 + 0.3j, lam=-2.0)
    omega = (1.0, 2.0, 3.0)
    f1 = lambda_conformal_factor(omega, params1, 1.0)
    f2 = lambda_conformal_factor(omega, params2, 1.0)
    assert abs(f1 - 2 * f2) < 1e-12 * abs(f1)
    with pytest.raises(ValueError):
        lambda_conformal_factor(omega, TodHitchinParams(p=0.1, q=0.2, lam=0.0), 1.0)


def test_reality_classes():
    assert TodHitchinParams(p=0.5 + 0j, q=0.7).reality_class() == "positive-lambda"
    assert TodHitchinParams(p=0.3 + 0.2j, q=0.7j).reality_class() == "unclassified"
