"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced (pytest captures stdout otherwise)."""

import math
import random
import time
from fractions import Fraction

from halphen import bianchi, cli, dh, frobenius, gauss_manin, qseries, ramanujan
from halphen.sampling import random_distinct_state, random_state


def check(name, ok, detail=""):
    line = "[%s] %s" % ("PASS" if ok else "FAIL", name)
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


def test_criterion_01_exact_ramanujan_order_30(capsys):
    start = time.monotonic()
    code = cli.main(["verify", "ramanujan", "--order", "30"])
    elapsed = time.monotonic() - start
    capsys.readouterr()  # swallow the CLI report
    residuals = ramanujan.ramanujan_series_residual(30)
    with capsys.disabled():
        check(
            "criterion 1: Ramanujan relations exact to order 30",
            code == 0 and all(r.is_zero() for r in residuals) and elapsed < 5.0,
            "cli exit %d, %.2fs" % (code, elapsed),
        )


def test_criterion_02_exact_chazy(capsys):
    exact = frobenius.chazy_e2_exact(30).is_zero()
    worst = max(
        abs(frobenius.chazy_residual(frobenius.chazy_gamma_jet(tau)))
        for tau in (1j, 1.3j)
    )
    with capsys.disabled():
        check(
            "criterion 2: Chazy equation on the weight-2 series",
            exact and worst < 1e-8,
            "numeric residual %.2e" % worst,
        )


def test_criterion_03_dh_closed_form(capsys):
    series_ok = all(r.is_zero() for r in dh.dh_series_ode_residuals(200))
    worst = 0.0
    for tau in (0.8j, 1j, 1.5j, 0.2 + 1.1j):
        state, rate = dh.dh_theta_jet(tau)
        worst = max(
            worst,
            max(abs(a - b) for a, b in zip(rate, dh.dh_vector_field(state))),
        )
    with capsys.disabled():
        check(
            "criterion 3: theta closed form (series order 200, numeric ODE)",
            series_ok and worst < 1e-12,
            "numeric residual %.2e" % worst,
        )


def test_criterion_04_integrator_vs_closed_form(capsys):
    start = time.monotonic()
    traj = dh.dh_integrate(dh.dh_theta_solution(1.2j), 1.2j, 2j, tol=1e-10)
    elapsed = time.monotonic() - start
    want = dh.dh_theta_solution(2j)
    worst = max(abs(a - b) for a, b in zip(traj.states[-1], want))
    with capsys.disabled():
        check(
            "criterion 4: integrator reproduces closed form at tau=2i",
            worst < 1e-8 and elapsed < 1.0,
            "deviation %.2e, %.2fs" % (worst, elapsed),
        )


def test_criterion_05_gauss_manin_r_property(capsys):
    rng = random.Random(7)
    ok = True
    for _ in range(100):
        residual = gauss_manin.verify_R_property(random_distinct_state(rng))
        ok &= all(x == 0 for row in residual for x in row)
    with capsys.disabled():
        check("criterion 5: connection contraction is [[0,-1],[0,0]] exactly (100 samples)", ok)


def test_criterion_06_conjugacy(capsys):
    rng = random.Random(11)
    surrogate = Fraction(7, 3)  # a rational scale standing in for 2*pi*i
    exact_ok = all(
        ramanujan.conjugacy_residual(random_state(rng), surrogate) == (0, 0, 0)
        for _ in range(50)
    )
    numeric = ramanujan.conjugacy_residual(dh.dh_theta_solution(1.3j))
    worst = max(abs(r) for r in numeric)
    with capsys.disabled():
        check(
            "criterion 6: flow conjugacy (exact at 50 states, numeric on theta solution)",
            exact_ok and worst < 1e-9,
            "numeric residual %.2e" % worst,
        )


def test_criterion_07_bianchi_reduction(capsys):
    rng = random.Random(13)
    reduction_ok = True
    for _ in range(50):
        omega = random_state(rng)
        domega, da = bianchi.coupled_field(omega, omega)
        reduction_ok &= domega == bianchi.classical_dh_omega_field(omega, bianchi.SELF_DUAL)
        reduction_ok &= da == dh.dh_vector_field(omega)

    worst_a = 0.0
    for t in (0.5, 1.0, 2.0):
        a, da = bianchi.theta_A_jet(t)
        worst_a = max(
            worst_a, max(abs(x - y) for x, y in zip(da, dh.dh_vector_field(a)))
        )

    worst_flat = 0.0
    q0 = 0.3
    for t in (0.7, 1.0, 2.0):
        omega = bianchi.flat_family(t, q0).omega
        # Omega_i = 1/(t + q0) + A_i
        rate = [-1 / (t + q0) ** 2 + da for da in bianchi.theta_A_jet(t)[1]]
        worst_flat = max(
            worst_flat,
            max(abs(a - b) for a, b in zip(rate, bianchi.omega_field(omega, t))),
        )
    with capsys.disabled():
        check(
            "criterion 7: Bianchi IX reduction, theta A-solution and flat family",
            reduction_ok and worst_a < 1e-12 and worst_flat < 1e-12,
            "A residual %.2e, flat residual %.2e" % (worst_a, worst_flat),
        )


def test_criterion_08_frobenius_chazy_link(capsys):
    worst_wdvv = 0.0
    for tau in (1j, 1.3j):
        jet = frobenius.modular_example_jet(0.8 + 0.3j, frobenius.chazy_gamma_jet(tau))
        c = frobenius.potential_third_partials(jet)
        worst_wdvv = max(worst_wdvv, frobenius.wdvv_residual_3d(c))
    worst_roots = max(
        frobenius.dh_cubic_roots_check(tau) for tau in (0.8j, 1j, 1.2j, 1.5j, 2j)
    )
    with capsys.disabled():
        check(
            "criterion 8: WDVV residual and cubic-root match",
            worst_wdvv < 1e-8 and worst_roots < 1e-8,
            "wdvv %.2e, roots %.2e" % (worst_wdvv, worst_roots),
        )


def test_criterion_09_sum_identity(capsys):
    s1, s2, s3 = dh.dh_theta_solution_series(200)
    total = (s1 + s2 + s3).with_pi_power(0)
    half_e2 = qseries.eisenstein_series(2, 25).dilate(8) * Fraction(1, 2)
    series_ok = total == half_e2 and total.trunc_order >= 200

    state = dh.dh_theta_solution(1j)
    e2 = qseries.eval_series(qseries.eisenstein_series(2, 40), 1j, var="q")
    numeric = abs(sum(state) - (1j * math.pi / 2) * e2)
    with capsys.disabled():
        check(
            "criterion 9: component sum equals (pi i/2) E2 (order 200 + numeric)",
            series_ok and numeric < 1e-10,
            "numeric deviation %.2e" % numeric,
        )


def test_criterion_10_cross_checks(capsys):
    n = 200
    t2, t3, t4 = (qseries.theta_series(k, n) for k in (2, 3, 4))
    jacobi_ok = t3**4 == t2**4 + t4**4

    worst = 0.0
    pairs = {2: (0.5, 0.0), 3: (0.0, 0.0), 4: (0.0, 0.5)}
    for tau in (1j, 2j, 0.3 + 1.1j):
        for which, (r, s) in pairs.items():
            ch = qseries.ThetaCharacteristics(r, s, tau)
            want = qseries.eval_series(qseries.theta_series(which, 200), tau)
            worst = max(worst, abs(qseries.theta_char_eval(ch) - want))
    with capsys.disabled():
        check(
            "criterion 10: Jacobi quartic identity and characteristic specializations",
            jacobi_ok and worst < 1e-12,
            "specialization deviation %.2e" % worst,
        )


def _jacobi_quartic_residual(n):
    p2, p3, p4 = (qseries.theta_series(k, n) ** 4 for k in (2, 3, 4))
    return [p3 - p2 - p4]


def _log_theta2_residual(n):
    """theta2 = 2w u (to order n + 1, so that u has order n): the Euler
    derivative of log_unit's log u, which comes through reciprocal, times u
    must rebuild w u' exactly."""
    theta2 = qseries.theta_series(2, n + 1)
    m, c, log_u = qseries.log_unit(theta2)
    u = qseries.PiGradedQSeries([(k - m, v / c) for k, v in theta2.terms()], n)
    return [log_u.x_ddx() * u - u.x_ddx()]


def test_criterion_11_exact_identities_at_order_3200(capsys):
    n = 3200
    checks = {
        "ramanujan": lambda: ramanujan.ramanujan_series_residual(n),
        "chazy": lambda: [frobenius.chazy_e2_exact(n)],
        "theta ODE": lambda: dh.dh_series_ode_residuals(n),
        "jacobi quartic": lambda: _jacobi_quartic_residual(n),
        "log theta2": lambda: _log_theta2_residual(n),
    }
    ok = True
    details = []
    for name, residuals in checks.items():
        start = time.monotonic()
        got = residuals()
        elapsed = time.monotonic() - start
        ok &= elapsed < 1.0 and all(r.is_zero() and r.trunc_order == n for r in got)
        details.append("%s %.2fs" % (name, elapsed))
    with capsys.disabled():
        check(
            "criterion 11: exact identities at order 3200, each under 1 s",
            ok,
            ", ".join(details),
        )
