"""The numeric theta kernel against an independent high-precision oracle.

mpmath.jtheta at 40 digits gives theta_k(0, q) and its z-derivatives at the
nome q = exp(pi*i*tau).  The tau-derivatives follow from the heat equation
(each term of theta carries q**e = exp(pi*i*tau*e) and exp(2*i*m*z) with
e = m**2/4 in mpmath's normalisation), so no numerical differentiation
enters the oracle:

    d theta/d tau = -(pi*i/4) d^2 theta/dz^2,
    d^2 theta/d tau^2 = -(pi**2/16) d^4 theta/dz^4.

Re tau stays in [-1/2, 1/2], where the principal q**(1/4) that mpmath takes
for theta2 is exp(pi*i*tau/4), and Im tau in [0.3, 3], where 40 digits
leave no cancellation in the oracle's own sums.
"""

import cmath
import math
import sys

import pytest

pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from halphen import bianchi, dh, qseries  # noqa: E402

EPS = sys.float_info.epsilon
taus = st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.3, 3.0))
times = st.floats(0.3, 3.0)


def oracle(k, tau):
    """(theta, theta', theta'') of theta_k at tau to 40 digits."""
    with mpmath.workdps(40):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        return (
            mpmath.jtheta(k, 0, q),
            -(1j * mpmath.pi / 4) * mpmath.jtheta(k, 0, q, 2),
            -(mpmath.pi**2 / 16) * mpmath.jtheta(k, 0, q, 4),
        )


def oracle_log_jet(k, tau):
    """(2 theta'/theta, 2 (theta''/theta - (theta'/theta)**2)) to 40 digits:
    the closed form t and its tau-derivative.  The second is a difference
    of nearly equal terms for theta2, so it is formed at full precision."""
    th, d1, d2 = oracle(k, tau)
    with mpmath.workdps(40):
        r = d1 / th
        return 2 * r, 2 * (d2 / th - r * r)


def oracle_addends(k, tau):
    """(|D/S| + a, |F/S| + |D/S|**2): the sizes of the terms the kernel adds
    into t/(2 pi i) = D/S + a and -t'/(2 pi**2) = F/S - (D/S)**2 (a = 1/4
    for theta2, 0 otherwise), from theta'/theta = pi*i*(D/S + a) and
    theta''/theta = (pi*i)**2 * (F/S + 2a D/S + a**2)."""
    a = 0.25 if k == 2 else 0
    th, d1, d2 = oracle(k, tau)
    with mpmath.workdps(40):
        c = 1j * mpmath.pi
        ds = d1 / (c * th) - a
        fs = d2 / (c * c * th) - 2 * a * ds - a * a
        return float(abs(ds) + a), float(abs(fs) + abs(ds) ** 2)


def term_scales(k, tau):
    """sum |c| (pi e)**j |x|**e over the terms of theta_k, j = 0, 1, 2: the
    magnitude of the largest terms of theta, theta' and theta''."""
    out = [0.0, 0.0, 0.0]
    for n in range(-30, 31):
        e = (n + 0.5) ** 2 if k == 2 else n * n
        size = math.exp(-math.pi * tau.imag * e)
        for j in range(3):
            out[j] += size * (math.pi * e) ** j
    return out


def kernel_second_derivatives(tau):
    """theta'' for k = 2, 3, 4 from _theta_jets, rebuilt as its docstring
    states: theta = P S with P = 1 for theta3 and theta4, and for theta2
    P = 2 x**(1/4) and exponents e + 1/4, so that theta2'' =
    (pi*i)**2 * P*(F + D/2 + S/16)."""
    x = cmath.exp(1j * math.pi * tau)
    (s2, d2, f2), (_, _, f3), (_, _, f4) = qseries._theta_jets(
        x, qseries._theta_term_count(tau.imag)
    )
    p = 2 * cmath.exp(0.25j * math.pi * tau)
    c = (1j * math.pi) ** 2
    return {2: c * p * (f2 + d2 / 2 + s2 / 16), 3: c * f3, 4: c * f4}


def err(got, want):
    return float(abs(mpmath.mpc(got) - want))


@settings(max_examples=150, deadline=None)
@given(taus)
def test_theta_and_its_derivatives_match_oracle(tau):
    second = kernel_second_derivatives(tau)
    for k in (2, 3, 4):
        want = oracle(k, tau)
        scales = term_scales(k, tau)
        got = qseries.theta_numeric(k, tau) + (second[k],)
        for j in range(3):
            assert err(got[j], want[j]) <= 16 * EPS * scales[j], (k, j)


@settings(max_examples=150, deadline=None)
@given(taus)
@example(complex(0.5, 0.359375))  # t1 = 0.054i from addends of 1.52 and pi/2
@example(complex(0.3125, 0.3203125))  # t2' = 0.27 from addends summing to 5.9
def test_closed_form_and_its_jet_match_oracle(tau):
    # the nome carries ~pi*Im(tau) ulp from rounding its exponent; t and t'
    # err relative to the terms the kernel adds, not to their sums, which
    # cancel in places
    bound = 8 * EPS * (1 + math.pi * tau.imag)
    t, rate = dh.dh_theta_jet(tau)
    assert t == dh.dh_theta_solution(tau)
    for k, got_t, got_rate in zip((2, 3, 4), t, rate):
        want_t, want_rate = oracle_log_jet(k, tau)
        size_t, size_rate = oracle_addends(k, tau)
        assert err(got_t, want_t) <= bound * 2 * math.pi * size_t, k
        assert err(got_rate, want_rate) <= 2 * bound * 2 * math.pi**2 * size_rate, k


@settings(max_examples=100, deadline=None)
@given(times)
def test_float_and_complex_paths_agree_on_the_imaginary_axis(t):
    # A_i(t) = 2 d/dt log theta(i t) = -2 pi Re(D/S + a) at tau = i t;
    # theta_log_jets sums at the real nome exp(-pi t), here _theta_jets
    # sums at the same nome as a complex number
    a = bianchi.theta_A_solution(t)
    a_jet, da = bianchi.theta_A_jet(t)
    assert a == a_jet
    x = math.exp(-math.pi * t)
    jets = qseries._theta_jets(complex(x), qseries._theta_term_count(t))
    for k, ai, dai, (s, d, _), offset in zip((2, 3, 4), a, da, jets, (0.25, 0, 0)):
        assert type(ai) is float and type(dai) is float
        assert abs(ai - (-2 * math.pi * (d / s + offset)).real) <= 8 * EPS * abs(ai), k
