import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest

from halphen.dh import (
    DHState,
    darboux_condition_residual,
    dh_integrate,
    dh_series_ode_residuals,
    dh_theta_jet,
    dh_theta_solution,
    dh_theta_solution_series,
    dh_vector_field,
)
from halphen.qseries import PiGradedQSeries, eisenstein_series, eval_series, log_unit, theta_series
from halphen import dh, rk
from halphen.rk import IntegrationBlowUp
from halphen.sampling import random_state


def test_vector_field_fixed_points_and_substitution():
    assert dh_vector_field((0, 0, 0)) == (0, 0, 0)
    assert dh_vector_field((1, 1, 1)) == (1, 1, 1)
    # direct substitution: t1(t2+t3)-t2t3 = 1*5-6 = -1, etc.
    assert dh_vector_field((1, 2, 3)) == (-1, 5, 7)


def test_vector_field_permutation_equivariance():
    rng = random.Random(11)
    for _ in range(20):
        s = random_state(rng)
        f = dh_vector_field(s)
        for perm in itertools.permutations(range(3)):
            fp = dh_vector_field(tuple(s[i] for i in perm))
            assert fp == tuple(f[i] for i in perm)


def test_darboux_condition_residual_examples():
    r = darboux_condition_residual((1, 2, 3))
    assert tuple(r) == (0, 0, 12)  # (first, second, common); 12 = 2 * 1 * 2 * 3
    assert r.common == 12
    r0 = darboux_condition_residual((0, 0, 0))
    assert tuple(r0) == (0, 0, 0) and r0.common == 0
    r110 = darboux_condition_residual((1, 1, 0))
    assert tuple(r110) == (0, 0, 0) and r110.common == 0


def test_darboux_condition_residual_exact_random():
    rng = random.Random(3)
    for _ in range(100):
        t1, t2, t3 = random_state(rng)
        r = darboux_condition_residual((t1, t2, t3))
        assert r.first == 0 and r.second == 0
        assert r.common == 2 * t1 * t2 * t3


# -- closed form ----------------------------------------------------------------


@pytest.mark.parametrize("tau", [0.8j, 1j, 1.5j, 0.2 + 1.1j])
def test_theta_solution_satisfies_ode(tau):
    h = 1e-5
    s = dh_theta_solution(tau)
    up = dh_theta_solution(tau + h)
    dn = dh_theta_solution(tau - h)
    fd = [(u - d) / (2 * h) for u, d in zip(up, dn)]
    field = dh_vector_field(s)
    assert max(abs(a - b) for a, b in zip(fd, field)) < 1e-6
    _, rate = dh_theta_jet(tau)
    assert max(abs(a - b) for a, b in zip(fd, rate)) < 1e-6


@pytest.mark.parametrize("tau", [0.8j, 1j, 1.5j, 0.2 + 1.1j, 0.3 + 0.05j, 0.1 + 0.1j])
def test_theta_jet_satisfies_ode(tau):
    state, rate = dh_theta_jet(tau)
    assert state == dh_theta_solution(tau)
    scale = max(abs(r) for r in rate)
    assert max(abs(a - b) for a, b in zip(rate, dh_vector_field(state))) < 1e-13 * scale


def test_theta_solution_at_the_cusp():
    # theta2 underflows at Im tau = 1000, its log-derivative does not; the
    # cusp itself is no point of the upper half-plane and is refused
    assert dh_theta_solution(1000j) == (0.5j * math.pi, 0, 0)
    with pytest.raises(ValueError, match="upper half-plane"):
        dh_theta_solution(complex(0, math.inf))


def test_theta_solution_sum_is_e2():
    s = dh_theta_solution(1j)
    e2 = eval_series(eisenstein_series(2, 40), 1j, var="q")
    assert abs(sum(s) - (1j * math.pi / 2) * e2) < 1e-10


def test_theta_solution_limit_pattern():
    # towards i*infinity the normalised components approach (1/2, 0, 0)
    # at rates set by the leading series terms.
    tau = 6j
    s = dh_theta_solution(tau)
    w = cmath.exp(2j * math.pi * tau / 8)
    pi_i = 1j * math.pi
    leading = (pi_i / 2, pi_i * 4 * w**4, -pi_i * 4 * w**4)
    for got, want in zip(s, leading):
        assert abs(got - want) < 1e-6


def test_theta_solution_series_leading_terms():
    s1, s2, s3 = dh_theta_solution_series(24)
    assert s1.pi_power == 1
    assert [s1.coeff(n) for n in (0, 8, 16)] == [Fraction(1, 2), 4, -4]
    assert s2.coeff(4) == 4 and s3.coeff(4) == -4


def test_theta_solution_series_ode_identity_order_60():
    for r in dh_series_ode_residuals(60):
        assert r.is_zero()


def test_theta_solution_series_sum_is_half_e2():
    s1, s2, s3 = dh_theta_solution_series(80)
    total = (s1 + s2 + s3).with_pi_power(0)
    half_e2 = eisenstein_series(2, 10).dilate(8) * Fraction(1, 2)
    assert total == half_e2


def test_theta_solution_series_matches_the_log_unit_route():
    # T_i = (1/2) w d/dw log theta_{i+1} rebuilt through the formal log:
    # w d/dw of log u, plus the valuation m of theta = c w^m u
    def log_route(order):
        for which in (2, 3, 4):
            m, _, log_u = log_unit(theta_series(which, order + 1))
            euler = log_u.x_ddx() + PiGradedQSeries({0: m}, log_u.trunc_order)
            yield (euler * Fraction(1, 2)).truncate(order).with_pi_power(1)

    for order in itertools.chain(range(201), [3200]):
        for got, want in zip(dh_theta_solution_series(order), log_route(order), strict=True):
            assert (got.num, got.den, got.pi_power) == (want.num, want.den, want.pi_power)


def test_theta_solution_series_evaluates_to_closed_form():
    s1, s2, s3 = dh_theta_solution_series(200)
    closed = dh_theta_solution(1.1j)
    for s, want in zip((s1, s2, s3), closed):
        assert abs(eval_series(s, 1.1j) - want) < 1e-10


# -- integration -----------------------------------------------------------------


def test_integrate_fixed_point():
    traj = dh_integrate((0, 0, 0), 1j, 2j, tol=1e-10)
    for state in traj.states:
        assert max(abs(c) for c in state) == 0


def test_integrate_matches_closed_form():
    start = dh_theta_solution(1.2j)
    traj = dh_integrate(start, 1.2j, 2j, tol=1e-10)
    end = traj.states[-1]
    want = dh_theta_solution(2j)
    assert max(abs(a - b) for a, b in zip(end, want)) < 1e-8


def test_integrate_one_step_taylor():
    t0 = (1 + 0j, 2 + 0j, 3 + 0j)
    traj = dh_integrate(t0, 1j, 1j + 0.01, tol=1e-12)
    field = dh_vector_field(t0)
    taylor = [t + 0.01 * f for t, f in zip(t0, field)]
    end = traj.states[-1]
    # second-order remainder (0.01^2/2)|t''| with t'' = (-22, 28, 30)
    assert max(abs(a - b) for a, b in zip(end, taylor)) < 5e-3


def test_integrate_difference_law_between_mesh_points():
    # d/dtau (t1 - t2) = 2 t3 (t1 - t2), checked by central differences of
    # at(), one partial step of the method, inside every accepted step.
    tol = 1e-8
    traj = dh_integrate(dh_theta_solution(1.2j), 1.2j, 1.8j, tol=tol)
    h = 1e-4
    assert min(traj.steps) > 4 * h  # tau_m +- step stays inside each step
    step = h * 1j  # along the segment 1.2i -> 1.8i
    for k in range(len(traj) - 1):
        tau_a, tau_b = traj.ts[k], traj.ts[k + 1]
        tau_m = tau_a + 0.5 * (tau_b - tau_a)
        up = DHState(*traj.at(tau_m + step))
        dn = DHState(*traj.at(tau_m - step))
        mid = DHState(*traj.at(tau_m))
        fd = ((up.t1 - up.t2) - (dn.t1 - dn.t2)) / (2 * step)
        law = 2 * mid.t3 * (mid.t1 - mid.t2)
        assert abs(fd - law) < 10 * tol


def test_integrate_reports_blowup():
    # equal components obey a' = a^2: from a=1 at tau0=i the pole sits at
    # tau0 + 1, inside the segment below.
    with pytest.raises(IntegrationBlowUp) as exc:
        dh_integrate((1, 1, 1), 1j, 2 + 1j, tol=1e-8)
    msg = str(exc.value)
    assert msg.startswith("Darboux-Halphen integration stopped near tau=")
    assert "solution blow-up" in msg
    # the last trusted tau lies on the segment, at the pole 1 + i to the
    # tolerance: the numeric solution's own pole sits ~1e-9 past it here
    reached = exc.value.t_reached
    assert reached.imag == 1 and abs(reached.real - 1) < 1e-6


def test_integrate_spent_step_budget_is_not_a_blowup(monkeypatch):
    # Toward the cusp the flow damps t2 - t3 at rate pi per unit of Im tau:
    # stiff, not singular, so DOP853's steps stay near 2 in Im tau and any
    # budget runs out long before 1e6 i.  A small budget keeps this fast.
    monkeypatch.setattr(rk, "MAX_STEPS", 50)
    with pytest.raises(IntegrationBlowUp) as exc:
        dh_integrate(dh_theta_solution(1j), 1j, 1e6j, tol=1e-12)
    msg = str(exc.value)
    assert msg.startswith("Darboux-Halphen integration stopped near tau=")
    assert "MAX_STEPS=50" in msg and "stiff" in msg
    assert "blow-up" not in msg
    assert exc.value.rhs_evals == 2 + 12 * 50  # every attempt of the budget


def test_integrate_validates_arguments(monkeypatch):
    with pytest.raises(ValueError):
        dh_integrate((0, 0, 0), 1j, 2j, tol=-1.0)
    with pytest.raises(ValueError):
        dh_integrate((0, 0, 0), -1j, 2j, tol=1e-8)
    with pytest.raises(ValueError):
        dh_integrate((0, 0, 0), 1j, 1j, tol=1e-8)
    # a NaN max_step is refused before the field is called, not read as no cap
    def field(state):
        raise AssertionError("field called")

    monkeypatch.setattr(dh, "dh_vector_field", field)
    with pytest.raises(ValueError, match="max_step too small"):
        dh_integrate((0, 0, 0), 1j, 2j, tol=1e-8, max_step=math.nan)


def test_state_iteration():
    s = DHState(1j, 2j, 3j)
    assert tuple(s) == (1j, 2j, 3j)
