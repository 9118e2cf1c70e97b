"""Seeded task streams and output oracles for the benchmark workloads.

A workload is an endless stream of tasks drawn from a seed.  A task is one
identity, integration or CLI invocation together with the checks on its
output; calling it returns one of

    OK     every check passed;
    FAIL   the program reported the failure itself: its own residual is
           nonzero or too large, the CLI exited non-zero or said ok: false;
    WRONG  the program reported success but an oracle that does not share
           the code under test disagrees (a silent wrong answer).

An exception escaping a task counts as FAIL.  Both FAIL and WRONG count as
failed tasks; only WRONG makes a run incorrect.

Sampling ranges are fixed here and nowhere else.  Parameters that set a
task's cost (series order, tau, integration span) come from a
low-discrepancy sequence with a seeded start: every seed gets different
inputs, yet any stretch of consecutive tasks covers the ranges evenly, so
the cost mix of a timed run barely depends on the seed.
"""

from __future__ import annotations

import cmath
import json
import math
import random

from halphen import bianchi, dh, frobenius, qseries, ramanujan

OK, FAIL, WRONG = "ok", "fail", "wrong"

WORKLOADS = ("exact-series", "numeric-flow", "cli-session")

# Relative tolerances of the numeric oracles, fixed before measuring.  The
# seed's integration endpoints agree with the closed forms to 7e-11 and its
# exact series evaluate to the numeric closed form at 1e-14.
FLOW_RTOL = 1e-8
SERIES_EVAL_RTOL = 1e-9
CUBIC_TOL = 1e-8

# Every tau a timed task draws has Im tau >= IM_TAU_MIN.  Nearer the real
# axis the program misses its own tolerances (ROADMAP item 3): the theta
# cubic's roots drift past CUBIC_TOL below Im tau of about 0.15 and the
# finite-difference residual of `dh theta` exceeds its 1e-6 below about 0.25.
# Those inputs are kept out of the timed runs, so that no timed task fails,
# and each run probes them afterwards (defect_probe) and reports what it finds.
IM_TAU_MIN = 0.3
NEAR_AXIS_TAUS = (0.05j, 0.02 + 0.08j, -0.02 + 0.1j, 0.12j)


def _plastic(dim: int) -> float:
    """The root g > 1 of g**(dim + 1) = g + 1 (the golden ratio for dim 1)."""
    g = 2.0
    for _ in range(100):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    return g


class _Even:
    """Low-discrepancy points in [0, 1)**dim from a seeded start: the additive
    recurrence with steps g**-1, ..., g**-dim, g = _plastic(dim).  Unlike
    independent golden-ratio sequences per coordinate, the coordinates of
    one point are not correlated."""

    def __init__(self, rng: random.Random, dim: int = 1):
        g = _plastic(dim)
        self.steps = [g ** -(k + 1) for k in range(dim)]
        self.u = [rng.random() for _ in range(dim)]

    def __call__(self) -> list:
        u = self.u
        self.u = [(x + a) % 1.0 for x, a in zip(u, self.steps)]
        return u


def log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _rel_err(got, want) -> float:
    scale = max(abs(w) for w in want)
    return max(abs(g - w) for g, w in zip(got, want)) / scale


def _status(checks_passed: bool) -> str:
    return OK if checks_passed else WRONG


# -- exact-series, dense half -----------------------------------------------------


def sigma_table(n: int, k: int) -> list:
    """sigma_k(m) for m = 0..n by a divisor sieve over plain ints."""
    table = [0] * (n + 1)
    for d in range(1, n + 1):
        dk = d**k
        for m in range(d, n + 1, d):
            table[m] += dk
    return table


def _exact_zero(residuals, order: int) -> bool:
    """The program's own verdict on an identity: every residual series has
    no nonzero term and the claimed truncation order."""
    return all(
        not r.terms() and r.trunc_order == order and r.pi_power == 0 for r in residuals
    )


def eisenstein_product_matches(product, order: int, b: int, k: int) -> bool:
    """product == 1 + b * sum sigma_k(m) q^m through q^order, the weight
    k + 1 Eisenstein series (E8: b = 480, k = 7; E10: b = -264, k = 9)."""
    if product.trunc_order != order or product.pi_power != 0:
        return False
    sig = sigma_table(order, k)
    want = [1] + [b * sig[m] for m in range(1, order + 1)]
    return all(product.coeff(m) == want[m] for m in range(order + 1))


def ramanujan_task(n: int):
    return lambda: OK if _exact_zero(ramanujan.ramanujan_series_residual(n), n) else FAIL


def chazy_task(n: int):
    return lambda: OK if _exact_zero([frobenius.chazy_e2_exact(n)], n) else FAIL


def product_task(n: int, k: int):
    """E4 * E_k compared with E8 (k = 4) or E10 (k = 6)."""
    b, sigma_k = {4: (480, 7), 6: (-264, 9)}[k]

    def run():
        e4 = qseries.eisenstein_series(4, n)
        other = e4 if k == 4 else qseries.eisenstein_series(k, n)
        return _status(eisenstein_product_matches(e4 * other, n, b, sigma_k))
    return run


def exact_dense(seed: int):
    """Dense x dense products of Eisenstein series with coefficients of up
    to 86 bits (264 * sigma_9(400)), orders log-uniform over 50..400."""
    rng = random.Random(seed)
    draws = [_Even(rng) for _ in range(4)]

    def order(i):
        return round(log_uniform(draws[i]()[0], 50, 400))

    while True:
        n = order(0)
        yield "ramanujan_series_residual(%d)" % n, ramanujan_task(n)
        n = order(1)
        yield "chazy_e2_exact(%d)" % n, chazy_task(n)
        n = order(2)
        yield "E4*E4 = E8 to order %d" % n, product_task(n, 4)
        n = order(3)
        yield "E4*E6 = E10 to order %d" % n, product_task(n, 6)


# -- exact-series, theta half -----------------------------------------------------


def r4_table(n: int) -> list:
    """Sums of four squares: r4(m) = 8 * sum of the divisors of m not
    divisible by 4 (Jacobi), r4(0) = 1."""
    table = [0] * (n + 1)
    for d in range(1, n + 1):
        if d % 4:
            for m in range(d, n + 1, d):
                table[m] += 8 * d
    table[0] = 1
    return table


def theta_fourth_powers_match(p2, p3, p4, order: int) -> bool:
    """theta3^4 = sum r4(m) w^(4m), theta4^4 = sum (-1)^m r4(m) w^(4m) and
    theta2^4 = 16 sum sigma_1(2m+1) w^(4(2m+1)), through w^order."""
    if any(p.trunc_order != order or p.pi_power for p in (p2, p3, p4)):
        return False
    r4 = r4_table(order // 4)
    sig = sigma_table(order // 4, 1)
    for e in range(order + 1):
        m, rem = divmod(e, 4)
        w3 = r4[m] if rem == 0 else 0
        w4 = (-1) ** m * w3
        w2 = 16 * sig[m] if rem == 0 and m % 2 else 0
        if p3.coeff(e) != w3 or p4.coeff(e) != w4 or p2.coeff(e) != w2:
            return False
    return True


def dh_series_task(n: int, tau: complex):
    """The series ODE identity, then the series themselves evaluated at tau
    against the numeric closed form."""
    def run():
        if not _exact_zero(dh.dh_series_ode_residuals(n), n):
            return FAIL
        got = [qseries.eval_series(s, tau) for s in dh.dh_theta_solution_series(n)]
        return _status(_rel_err(got, tuple(dh.dh_theta_solution(tau))) < SERIES_EVAL_RTOL)
    return run


def jacobi_task(n: int):
    """theta3^4 - theta2^4 - theta4^4 = 0, each fourth power checked
    against its divisor-sum closed form."""
    def run():
        p2, p3, p4 = (qseries.theta_series(k, n) ** 4 for k in (2, 3, 4))
        if not _exact_zero([p3 - p2 - p4], n):
            return FAIL
        return _status(theta_fourth_powers_match(p2, p3, p4, n))
    return run


def log_unit_task(k: int, n: int, tau: complex):
    """log_unit(theta_k), checked by c * w^m * exp(log u) = theta_k(tau)."""
    def run():
        m, c, log_part = qseries.log_unit(qseries.theta_series(k, n))
        w = cmath.exp(2j * math.pi * tau / 8)
        got = complex(c) * w**m * cmath.exp(qseries.eval_series(log_part, tau))
        want = qseries.theta_numeric(k, tau)[0]
        return _status(
            log_part.trunc_order == n - m and abs(got - want) < SERIES_EVAL_RTOL * abs(want)
        )
    return run


def exact_theta(seed: int):
    """Sparse theta products, reciprocals of sparse units and logarithms:
    the same series layer used with small coefficients and few terms."""
    rng = random.Random(seed)
    dh_draw, jacobi_draw, log_draw = _Even(rng, 3), _Even(rng), _Even(rng, 3)

    def tau(re, im):
        # Im tau >= 1: the series converge fast enough there to be compared
        # with the numeric closed form in double precision
        return complex(re - 0.5, 1.0 + 1.5 * im)

    j = 0
    while True:
        u, re, im = dh_draw()
        n = round(log_uniform(u, 100, 800))
        yield "dh_series_ode_residuals(%d)" % n, dh_series_task(n, tau(re, im))
        n = round(log_uniform(jacobi_draw()[0], 400, 3200))
        yield "jacobi quartic to order %d" % n, jacobi_task(n)
        u, re, im = log_draw()
        n = round(log_uniform(u, 400, 3200))
        k = 2 + j % 3
        yield "log_unit(theta%d, %d)" % (k, n), log_unit_task(k, n, tau(re, im))
        j += 1


def exact_series(seed: int):
    """One round of the dense stream (four tasks) then one round of the
    theta stream (three tasks), each stream with its own seeded start."""
    rng = random.Random(seed)
    dense, theta = exact_dense(rng.randrange(2**32)), exact_theta(rng.randrange(2**32))
    while True:
        for _ in range(4):
            yield next(dense)
        for _ in range(3):
            yield next(theta)


# -- numeric-flow -----------------------------------------------------------------


def dh_flow_task(t0: complex, t1: complex):
    """Integrate from the closed form at t0; endpoint and dense-output
    midpoint against the closed form."""
    def run():
        traj = dh.dh_integrate(tuple(dh.dh_theta_solution(t0)), t0, t1, tol=1e-12)
        mid = (t0 + t1) / 2
        end_err = _rel_err(tuple(traj.states[-1]), tuple(dh.dh_theta_solution(t1)))
        mid_err = _rel_err(tuple(traj.at(mid)), tuple(dh.dh_theta_solution(mid)))
        return _status(max(end_err, mid_err) < FLOW_RTOL)
    return run


def omega_flow_task(q0: float, t0: float, t1: float):
    """Integrate from the flat family at t0; endpoint and dense-output
    midpoint against the family."""
    def run():
        traj = bianchi.omega_theta_flow(bianchi.flat_family(t0, q0).omega, t0, t1, tol=1e-12)
        mid = (t0 + t1) / 2
        end_err = _rel_err(traj.omegas[-1], bianchi.flat_family(t1, q0).omega)
        mid_err = _rel_err(traj.at(mid), bianchi.flat_family(mid, q0).omega)
        return _status(max(end_err, mid_err) < FLOW_RTOL)
    return run


def cubic_task(tau: complex):
    # the root distance is the library's own residual, so a miss is reported
    return lambda: OK if frobenius.dh_cubic_roots_check(tau) < CUBIC_TOL else FAIL


def numeric_flow(seed: int):
    """Integrations and theta sums with no exact series work; Im tau sets
    the theta term count, so the slow tail lies near the real axis."""
    rng = random.Random(seed)
    segments, spans, points = _Even(rng, 4), _Even(rng, 3), _Even(rng, 2)
    while True:
        re0, im0, re1, im1 = segments()
        t0 = complex(re0 - 0.5, log_uniform(im0, IM_TAU_MIN, 2.5))
        t1 = complex(re1 - 0.5, log_uniform(im1, IM_TAU_MIN, 2.5))
        yield "dh_integrate(%r -> %r)" % (t0, t1), dh_flow_task(t0, t1)
        q, s, w = spans()
        q0, s0 = 0.1 + 0.9 * q, 0.4 + 0.6 * s
        s1 = s0 + 0.5 + 1.5 * w
        yield "omega_theta_flow(q0=%r, %r -> %r)" % (q0, s0, s1), omega_flow_task(q0, s0, s1)
        re, im = points()
        t = complex(re - 0.5, log_uniform(im, IM_TAU_MIN, 2.5))
        yield "dh_cubic_roots_check(%r)" % t, cubic_task(t)


# -- cli-session ------------------------------------------------------------------


def cli_argvs(seed: int):
    """Endless seeded argv lists covering all 14 commands, in rounds of one
    call per command in a shuffled order.

    Complex and negative values are passed as --flag=VALUE: argparse reads
    "--tau -0.3,0.5" as an option with a missing value and exits 2.
    """
    rng = random.Random(seed)

    def tau(re_u, im_u):
        return "%.6g,%.6g" % (re_u - 0.5, log_uniform(im_u, IM_TAU_MIN, 2.5))

    def flow(u):
        q0, t0 = 0.1 + 0.9 * u[0], 0.4 + 0.6 * u[1]
        t1 = t0 + 0.5 + 1.5 * u[2]
        omega = ",".join(repr(o) for o in bianchi.flat_family(t0, q0).omega)
        return ["bianchi", "flow", "--t0", repr(t0), "--t1", repr(t1),
                "--initial=" + omega, "--tol", "1e-9"]

    def seed_arg():
        return str(rng.randrange(10**6))

    # (dimension of the command's own low-discrepancy draw, argv for a draw)
    commands = [
        (2, lambda u: ["series", "eisenstein", "--k", str((2, 4, 6)[int(3 * u[0])]),
                       "--order", str(3 + int(58 * u[1]))]),
        (2, lambda u: ["series", "theta", "--which", str(2 + int(3 * u[0])),
                       "--order", str(3 + int(58 * u[1]))]),
        (2, lambda u: ["dh", "theta", "--tau=" + tau(*u)]),
        (4, lambda u: ["dh", "integrate", "--t0=" + tau(*u[:2]), "--t1=" + tau(*u[2:]),
                       "--tol", "1e-10"]),
        (0, lambda u: ["verify", "ramanujan", "--order", "30", "--samples", "50",
                       "--seed", seed_arg()]),
        (0, lambda u: ["verify", "chazy", "--order", "30"]),
        (0, lambda u: ["verify", "gauss-manin", "--samples", "100", "--seed", seed_arg()]),
        (0, lambda u: ["verify", "darboux", "--samples", "100", "--seed", seed_arg()]),
        (3, flow),
        (1, lambda u: ["bianchi", "flat-family", "--q0", "%.6g" % (0.1 + 0.9 * u[0])]),
        (2, lambda u: ["bianchi", "verify-constraint", "--t", "%.6g" % (0.4 + 1.6 * u[0]),
                       "--q0", "%.6g" % (0.1 + 0.9 * u[1])]),
        (2, lambda u: ["frobenius", "wdvv", "--tau=" + tau(*u)]),
        (0, lambda u: ["frobenius", "chazy", "--order", "30"]),
        (2, lambda u: ["frobenius", "cubic", "--tau=" + tau(*u)]),
    ]
    draws = [_Even(rng, dim) if dim else list for dim, _ in commands]
    while True:
        order = list(range(len(commands)))
        rng.shuffle(order)
        for i in order:
            yield commands[i][1](draws[i]())


REISSUES_PER_ROUND = 2


def cli_session(seed: int, run_cli):
    """Sequential CLI invocations.  run_cli(argv) -> (exit code, stdout
    bytes).  After each round of 14 fresh calls, two argv lists chosen by
    the seed from all earlier calls are issued again and must reproduce
    their first output byte for byte."""
    rng = random.Random(seed + 1)
    argvs = cli_argvs(seed)
    seen = {}

    def first_run(argv):
        def run():
            code, out = run_cli(argv)
            seen[tuple(argv)] = out
            return cli_status(code, out)
        return run

    def reissue(argv):
        def run():
            code, out = run_cli(argv)
            if out != seen[tuple(argv)]:
                return WRONG
            return cli_status(code, out)
        return run

    while True:
        for _ in range(14):
            argv = next(argvs)
            yield " ".join(argv), first_run(argv)
        for argv in rng.sample(sorted(seen), REISSUES_PER_ROUND):
            yield "again: " + " ".join(argv), reissue(list(argv))


def cli_status(code: int, out: bytes) -> str:
    """Exit 0, and for JSON reports ok: true.  CSV reports carry their
    verdict in the exit code alone."""
    if code != 0:
        return FAIL
    text = out.decode()
    if text.startswith("{"):
        return OK if json.loads(text).get("ok") is True else FAIL
    return OK if text.count("\n") >= 2 else WRONG


# -- warm-up ----------------------------------------------------------------------


def warmup(workload: str, run_cli=None):
    """One fixed, cheap task of the workload's own kind, run untimed before
    the timed phase so that lazy imports and caches are in place."""
    if workload == "exact-series":
        return lambda: OK if product_task(50, 4)() == jacobi_task(400)() == OK else FAIL
    if workload == "numeric-flow":
        return cubic_task(1j)
    if workload == "cli-session":
        return lambda: cli_status(*run_cli(["verify", "darboux", "--samples", "10"]))
    raise ValueError("unknown workload %r" % workload)


def defect_probe(workload: str, run_cli=None):
    """Untimed check of the inputs the timed tasks leave out (see
    IM_TAU_MIN): a line saying how many of NEAR_AXIS_TAUS still miss, or
    None for a workload that takes no tau."""
    if workload == "numeric-flow":
        misses = sum(frobenius.dh_cubic_roots_check(t) >= CUBIC_TOL for t in NEAR_AXIS_TAUS)
        what = "dh_cubic_roots_check >= %g" % CUBIC_TOL
    elif workload == "cli-session":
        misses = sum(
            cli_status(*run_cli(["dh", "theta", "--tau=%r,%r" % (t.real, t.imag)])) != OK
            for t in NEAR_AXIS_TAUS)
        what = "`dh theta` not ok"
    else:
        return None
    return "known defect, untimed: %s at %d of %d tau with Im tau < %g" % (
        what, misses, len(NEAR_AXIS_TAUS), IM_TAU_MIN)


def stream(workload: str, seed: int, run_cli=None):
    """The endless (label, task) stream of a workload."""
    if workload == "cli-session":
        return cli_session(seed, run_cli)
    streams = {"exact-series": exact_series, "numeric-flow": numeric_flow}
    if workload not in streams:
        raise ValueError("unknown workload %r" % workload)
    return streams[workload](seed)
