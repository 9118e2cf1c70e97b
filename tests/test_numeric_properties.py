"""Property tests of the pure-Python numerics: the DOP853 integrator against
the numpy implementation kept in test_rk.py and against the closed forms it
integrates, and the backward error of the cubic's roots."""

import contextlib
import math
import sys
from itertools import permutations
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_rk import (  # noqa: E402
    assert_same_mesh,
    dh_rhs,
    numpy_integrate,
    numpy_rms_scaled,
)

from halphen import bianchi, dh, rk  # noqa: E402
from halphen.frobenius import root_residual  # noqa: E402

EPS = sys.float_info.epsilon

# -- DOP853 on Darboux-Halphen segments and the Omega flow -----------------------------

upper_tau = st.builds(complex, st.floats(-1.0, 1.0), st.floats(0.3, 2.5))
axis_t = st.floats(0.3, 2.5)
tolerances = st.sampled_from([1e-8, 1e-10, 1e-12])


def numpy_weights(y, y_new, tol):
    y, y_new = np.asarray(y, dtype=complex), np.asarray(y_new, dtype=complex)
    return list(tol + tol * np.maximum(np.abs(y), np.abs(y_new)))


@contextlib.contextmanager
def numpy_abs():
    """rk's abs, in its error weights and sums, rounded as numpy's; yields a
    one-item list counting its calls."""
    calls = [0]

    def np_abs(x):
        calls[0] += 1
        return float(np.abs(x))

    with mock.patch.object(rk, "abs", np_abs, create=True):
        yield calls


@settings(max_examples=40, deadline=None)
@given(upper_tau, upper_tau, tolerances)
def test_dh_mesh_matches_numpy_with_its_error_norm(tau0, tau1, tol):
    # numpy's complex abs is sqrt(fma(r, r, 1)) * max(|re|, |im|), which plain
    # Python cannot round alike; the error estimate's cancellation blows a
    # last-bit difference up to ~1e-8 in the step sizes.  With numpy's
    # rounding of abs in the weights and error sums the stepping is otherwise
    # the same arithmetic, so the meshes agree.
    assume(abs(tau1 - tau0) > 1e-3)
    initial = tuple(dh.dh_theta_solution(tau0))
    with numpy_abs() as calls:
        traj = dh.dh_integrate(initial, tau0, tau1, tol=tol)
    # five per component per attempt: |y|, |y_new|, |e5 w|, |e3 w| and |e5|
    attempts = (traj.rhs_evals - 2) // 12
    assert attempts > 0 and calls[0] >= 5 * 3 * attempts
    ref = numpy_integrate(dh_rhs, tau0, tau1, initial, tol, tol)
    assert_same_mesh(traj.ts, traj.states, ref.ts, ref.ys)


def assert_within_tolerance(got, want, tol):
    """got is within 10 tol |want| of want, |want| the largest component."""
    assert max(abs(a - b) for a, b in zip(got, want)) <= 10 * tol * max(map(abs, want))


def assert_err_ests_within_weights(err_ests, states, tol):
    """Each accepted step's estimate is at most tol + tol max|y| over the
    step's two ends, the weight the controller accepted it on."""
    for e, y_old, y_new in zip(err_ests[1:], states, states[1:]):
        assert e <= tol + tol * max(map(abs, y_old + y_new))


@settings(max_examples=40, deadline=None)
@given(upper_tau, upper_tau, tolerances)
@example(1 + 0.3j, 0.3j, 1e-12)  # global endpoints 1.2 tol |y| apart
@example(0.5 + 2.5j, 0.5 + 0.5j, 1e-8)  # step 8: 1.14 tol max|y| off, RMS 0.61
def test_dh_endpoint_matches_numpy_to_the_tolerance(tau0, tau1, tol):
    # DOP853 bounds each step's error, not the endpoint's, and the two
    # implementations' error norms round differently, so their step sequences
    # part.  So a numpy reference 1e4 times tighter is restarted from each of
    # rk's mesh points, and each step's error against it must meet the
    # criterion integrate accepts a step by: an RMS of at most 1 over the
    # weights tol + tol max(|y_old|, |y_new|).  That bounds no single
    # component by tol max|y|.
    assume(abs(tau1 - tau0) > 1e-3)
    traj = dh.dh_integrate(tuple(dh.dh_theta_solution(tau0)), tau0, tau1, tol=tol)
    for a, b, y_a, y_b in zip(traj.ts, traj.ts[1:], traj.states, traj.states[1:]):
        want = numpy_integrate(dh_rhs, a, b, y_a, tol * 1e-4, tol * 1e-4).ys[-1]
        weights = np.asarray(numpy_weights(y_a, y_b, tol))
        assert numpy_rms_scaled(np.subtract(y_b, want), weights) <= 1.0


@settings(max_examples=40, deadline=None)
@given(upper_tau, upper_tau, tolerances)
def test_dh_flow_matches_closed_form_to_the_tolerance(tau0, tau1, tol):
    # The tolerance bounds each step's error, not the endpoint's: towards the
    # real axis the flow amplifies early errors about tenfold (2.5i -> 0.375i
    # ends 12 tol |y| off the closed form, as scipy's DOP853 ends 54 tol |y|
    # off).  So the flow is restarted from the closed form at each mesh point,
    # and must reach the next one, and the middle of the interval, within
    # tol |y| of it.
    assume(abs(tau1 - tau0) > 1e-3)
    traj = dh.dh_integrate(tuple(dh.dh_theta_solution(tau0)), tau0, tau1, tol=tol)
    for a, b in zip(traj.ts, traj.ts[1:]):
        step = dh.dh_integrate(tuple(dh.dh_theta_solution(a)), a, b, tol=tol)
        for got, want in ((step.states[-1], dh.dh_theta_solution(b)),
                          (step.at(0.5 * (a + b)), dh.dh_theta_solution(0.5 * (a + b)))):
            assert max(abs(u - v) for u, v in zip(got, want)) <= tol * max(map(abs, want))
    assert_err_ests_within_weights(traj.err_ests, traj.states, tol)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 1.0), axis_t, axis_t, tolerances)
def test_omega_flow_matches_flat_family_to_the_tolerance(q0, t0, t1, tol):
    t0, t1 = min(t0, t1), max(t0, t1)
    assume(t1 - t0 > 1e-3)
    traj = bianchi.omega_theta_flow(bianchi.flat_family(t0, q0).omega, t0, t1, tol=tol)
    assert_within_tolerance(traj.states[-1][:3], bianchi.flat_family(t1, q0).omega, tol)
    mid = 0.5 * (t0 + t1)
    assert_within_tolerance(traj.at(mid)[:3], bianchi.flat_family(mid, q0).omega, tol)
    # the estimates cover all six components, yet stay within the Omega's weights
    assert_err_ests_within_weights(traj.err_ests, [y[:3] for y in traj.states], tol)


# -- a real flow steps as its complex twin -----------------------------------------------


def assert_twins(real, twin, mid):
    """real, from a real start, steps as twin, from the same start as
    complex: the same ts, err_ests and counts, and real's float states are
    twin's complex ones, whose imaginary parts are zero, at mid between mesh
    points too.  == tells apart all but the sign of a zero."""
    assert (real.ts, real.err_ests) == (twin.ts, twin.err_ests)
    assert (real.rhs_evals, real.steps_rejected) == (twin.rhs_evals, twin.steps_rejected)
    for y, z in zip(real.states + [real.at(mid)], twin.states + [twin.at(mid)]):
        assert {type(v) for v in y} == {float} and {type(v) for v in z} == {complex}
        assert all(v.imag == 0 for v in z) and tuple(map(complex, y)) == z


@st.composite
def real_polynomial_systems(draw):
    """(f, y0): f_i = a_i t + sum_j L_ij y_j + q_i y_i y_(i-1) in 1-3
    components, with |a_i|, |y0_i| <= 1, |L_ij| <= 1/2 and |q_i| <= 1/4:
    max|y| stays below the solution of m' = 2 + 3m/2 + m**2/4, m(0) = 1,
    which is finite for 1.02 past the start."""
    n = draw(st.integers(1, 3))

    def reals(bound):
        return st.lists(st.floats(-bound, bound), min_size=n, max_size=n)

    a, q = draw(reals(1.0)), draw(reals(0.25))
    lin = draw(st.lists(reals(0.5), min_size=n, max_size=n))

    def f(t, y):  # summed by an explicit loop: Python 3.12+'s sum() compensates float sums
        out = []
        for i in range(n):
            v = a[i] * t + q[i] * y[i] * y[i - 1]
            for c, u in zip(lin[i], y):
                v = v + c * u
            out.append(v)
        return out

    return f, tuple(draw(reals(1.0)))


@settings(max_examples=60, deadline=None)
@given(real_polynomial_systems(), st.floats(-1.0, 1.0), st.floats(0.1, 1.0), tolerances)
def test_a_real_polynomial_flow_steps_as_its_complex_twin(system, t0, span, tol):
    f, y0 = system
    t1 = t0 + span
    real = rk.integrate(f, t0, t1, y0, tol)
    twin = rk.integrate(f, t0, t1, tuple(map(complex, y0)), tol)
    assert_twins(real, twin, t0 + 0.37 * span)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), tolerances)
def test_the_omega_flow_steps_as_its_complex_twin(rng, tol):
    # the benchmark's starts: flat_family(t0, q0), q0 in [0.1, 1], t0 in
    # [0.4, 1], t1 - t0 in [0.5, 2]
    q0, t0 = 0.1 + 0.9 * rng.random(), 0.4 + 0.6 * rng.random()
    t1 = t0 + 0.5 + 1.5 * rng.random()
    omega = bianchi.flat_family(t0, q0).omega
    real = bianchi.omega_theta_flow(omega, t0, t1, tol)
    twin = bianchi.omega_theta_flow(tuple(map(complex, omega)), t0, t1, tol)
    assert_twins(real, twin, 0.5 * (t0 + t1))


def left_to_right(row, k, i):
    """Component i of sum_j a_j k_j over the sparse row, in stage order, by
    an explicit loop: Python 3.12+'s sum() compensates float sums."""
    (j0, a0), *rest = row.items()
    total = a0 * k[j0][i]
    for j, a in rest:
        total = total + a * k[j][i]
    return total


def reference_attempt(f, t, y, f0, h, tol):
    """rk._attempt(len(y)) with every row summed by left_to_right and the
    error sums by an explicit loop over the components."""
    k = [f0]
    for s in range(1, 12):
        k.append(f(t + rk.C[s] * h, tuple(v + h * left_to_right(rk.A[s], k, i)
                                          for i, v in enumerate(y))))
    y_new = tuple(v + h * left_to_right(rk.B, k, i) for i, v in enumerate(y))
    k.append(f(t + h, y_new))
    n5 = n3 = sq = 0.0
    for i, (v, u) in enumerate(zip(y, y_new)):
        w = 1.0 / (tol + tol * max(abs(v), abs(u)))
        e5, e3 = left_to_right(rk.E5, k, i), left_to_right(rk.E3, k, i)
        r5, r3 = abs(e5 * w), abs(e3 * w)
        n5 += r5 * r5
        n3 += r3 * r3
        sq += abs(e5) ** 2
    return y_new, k[12], n5, n3, sq


def recorded(attempt, f, *args):
    """attempt(f', *args) and the (t, y) of each call of f' = f."""
    calls = []

    def g(t, y):
        calls.append((t, y))
        return f(t, y)

    return attempt(g, *args), calls


def float_rhs(t, y):
    return [math.cos((i + 1) * t) * abs(v) - 0.5 * v.real for i, v in enumerate(y)]


def complex_rhs(t, y):
    return [1j * v + 0.5 * y[i - 1] - 0.3 * t for i, v in enumerate(y)]


states = st.lists(st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                     allow_infinity=False), min_size=1, max_size=5).map(tuple)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([float_rhs, complex_rhs]), st.floats(-10.0, 10.0), states,
       st.floats(1e-6, 1.0), tolerances)
def test_step_sums_each_row_left_to_right(f, t, y, h, tol):
    # the stage inputs, y_new, f there and the error sums n5, n3 and sum
    # |e5|**2; repr tells the sign of a zero, and a float from a complex
    attempt = rk._attempt(len(y))
    args = (t, y, f(t, y), h, tol)
    got, want = recorded(attempt, f, *args), recorded(reference_attempt, f, *args)
    assert repr(got) == repr(want)
    assert repr(recorded(attempt, f, *args[:4])) == repr((want[0][0], want[1][:-1]))


# -- the cubic's root residual -------------------------------------------------------------

coords = st.floats(-10.0, 10.0)
points = st.builds(complex, coords, coords)
# exact in binary: at scale 1 the expanded coefficients stay exact
quarters = st.builds(complex, st.integers(-12, 12).map(lambda k: k / 4),
                     st.integers(-12, 12).map(lambda k: k / 4))
scales = st.sampled_from([10.0**k for k in range(-6, 7)])


def expand(roots):
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


@settings(max_examples=300, deadline=None)
@given(st.lists(points | quarters, min_size=3, max_size=3), st.integers(1, 3), scales, points)
@example([-9.337 + 9.075j, -9.412 + 9.199j, -9.427 + 9.268j], 1, 1.0, 1j)  # 5.9 eps
def test_root_residual_is_a_relative_backward_error(roots, multiplicity, scale, delta):
    roots = [scale * r for r in roots]
    roots[1:multiplicity] = [roots[0]] * (multiplicity - 1)
    coeffs = expand(roots)
    # rounding only, double and triple roots included, in any order.  expand
    # and root_residual each round e2 = r1 r2 + r1 r3 + r2 r3 to within
    # (3 sqrt(5) + 5) u m**2 = 5.85 eps m**2 to first order, by different
    # sums, so they may differ by twice that
    residual = root_residual(coeffs, roots)
    assert residual <= 12 * EPS
    assert all(root_residual(coeffs, perm) == residual for perm in permutations(roots))
    # a root moved by delta moves e1 by delta
    delta *= scale
    assume(abs(delta) >= 1e-9 * scale)
    moved = [roots[0] + delta] + roots[1:]
    m = max(1.0, *map(abs, moved))
    assert root_residual(coeffs, moved) >= abs(delta) / (2 * m)
