"""Property tests of the dense series engine against the naive dict-of-Fraction
engine kept in test_qseries.py: exact equality on random signed, rational
and wide (above 64-bit) coefficients, zero series, mixed truncation orders
and nonzero pi gradings, and on series supported on an exponent lattice
lo + g*Z, as theta-derived series are."""

import cmath
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_qseries import (  # noqa: E402
    naive_add,
    naive_log_derivative,
    naive_log_unit,
    naive_mul,
    naive_reciprocal,
    ref,
)

from halphen.qseries import (  # noqa: E402
    PiGradedQSeries,
    eval_series,
    log_derivative,
    log_unit,
    theta_series,
)

# Coefficients from small to wider than 64 bits, over denominators from 1 to
# 2**70: the widest operands set the Kronecker slot width.
wide = st.integers(-(2**90), 2**90)
small = st.integers(-3, 3)
rationals = st.one_of(
    small,
    wide,
    st.builds(Fraction, st.one_of(small, wide), st.integers(1, 2**70)),
)


@st.composite
def series_data(draw, order=st.integers(0, 40), pi_power=st.integers(-3, 3), const=False):
    """(coefficient dict, trunc_order, pi_power); dense, sparse or empty."""
    n = draw(order)
    coeffs = draw(st.dictionaries(st.integers(0, n), rationals, max_size=n + 1))
    if const:
        coeffs[0] = draw(rationals.filter(bool))
    return coeffs, n, draw(pi_power)


@st.composite
def lattice_data(draw, stride=st.integers(1, 8), pi_power=st.integers(-3, 3), const=False):
    """(coefficient dict, trunc_order, pi_power) with every exponent on lo + g*Z;
    n - lo need not be a multiple of g, and one entry (a monomial) or none
    (the zero series) are drawn too.  const puts lo at 0 with a nonzero
    constant term."""
    n = draw(st.integers(0, 90))
    g = draw(stride)
    lo = 0 if const else draw(st.integers(0, n))
    slots = (n - lo) // g
    exps = st.integers(0, slots).map(lambda i: lo + g * i)
    coeffs = draw(st.dictionaries(exps, rationals, max_size=slots + 1))
    if const:
        coeffs[0] = draw(rationals.filter(bool))
    return coeffs, n, draw(pi_power)


# dense, sparse or lattice operands
operands = st.one_of(series_data(), lattice_data())


def build(data):
    coeffs, n, p = data
    return PiGradedQSeries(coeffs, n, p)


def canonical(data):
    """The reference value in the form ref() gives: nonzero Fractions only."""
    coeffs, n, p = data
    return {k: Fraction(c) for k, c in coeffs.items() if c}, n, p


def assert_reduced(s):
    assert len(s.num) == s.trunc_order + 1
    assert s.den > 0 and math.gcd(s.den, *s.num) == 1


slow = settings(deadline=None, max_examples=60)


@slow
@given(operands, operands)
def test_mul_matches_naive(a, b):
    got = build(a) * build(b)
    assert ref(got) == naive_mul(a, b)
    assert_reduced(got)


@slow
@given(operands)
def test_square_matches_naive(a):
    s = build(a)
    square = naive_mul(a, a)
    assert ref(s * s) == square
    assert ref(s**2) == square
    assert ref(s**3) == naive_mul(square, a)


@slow
@given(series_data(pi_power=st.just(2)), series_data(pi_power=st.just(2)))
def test_add_sub_match_naive(a, b):
    x, y = build(a), build(b)
    for got, sign in ((x + y, 1), (x - y, -1)):
        assert ref(got) == naive_add(a, b, sign)
        assert_reduced(got)
    assert ref(-x) == naive_add(({}, a[1], a[2]), a, -1)


@slow
@given(series_data(), rationals)
def test_scalar_mul_matches_naive(a, c):
    got = build(a) * c
    assert ref(got) == naive_mul(a, ({0: c}, a[1], 0))
    assert ref(c * build(a)) == ref(got)
    assert_reduced(got)


@slow
@given(st.one_of(series_data(order=st.integers(0, 25), const=True), lattice_data(const=True)))
def test_reciprocal_matches_naive(a):
    got = build(a).reciprocal()
    assert ref(got) == naive_reciprocal(a)
    assert_reduced(got)


@slow
@given(
    st.one_of(
        series_data(order=st.integers(1, 25), pi_power=st.just(0)),
        lattice_data(pi_power=st.just(0)),
    )
)
def test_log_unit_matches_naive(a):
    assume(any(a[0].values()))
    m, c, log_part = log_unit(build(a))
    want_m, want_c, want_log = naive_log_unit(a)
    assert (m, c, ref(log_part)) == (want_m, want_c, want_log)
    assert_reduced(log_part)


@slow
@given(st.one_of(series_data(order=st.integers(1, 25)), lattice_data()))
def test_log_derivative_matches_naive(a):
    assume(any(a[0].values()))
    got = log_derivative(build(a))
    assert ref(got) == naive_log_derivative(a)
    assert_reduced(got)


@slow
@given(series_data())
def test_form_is_canonical(a):
    s = build(a)
    assert ref(s) == canonical(a)
    assert_reduced(s)
    d, n, p = canonical(a)
    for got, want in (
        (s.dilate(3), ({3 * k: c for k, c in d.items()}, 3 * n + 2, p)),
        (s.truncate(n // 2), ({k: c for k, c in d.items() if k <= n // 2}, n // 2, p)),
        (s.x_ddx(), ({k: k * c for k, c in d.items() if k}, n, p)),
        (s.with_pi_power(p + 1), (d, n, p + 1)),
    ):
        assert ref(got) == want
        assert_reduced(got)


@slow
@given(series_data(), series_data(), rationals)
def test_equality_is_coefficientwise_on_the_common_window(a, b, beyond):
    n = min(a[1], b[1])
    da, db = canonical(a)[0], canonical(b)[0]
    want = a[2] == b[2] and all(
        da.get(k, 0) == db.get(k, 0) for k in set(da) | set(db) if k <= n
    )
    assert (build(a) == build(b)) is want
    longer = ({**a[0], a[1] + 1: beyond}, a[1] + 1, a[2])
    assert build(a) == build(longer)


@slow
@given(series_data(order=st.integers(0, 60)), st.floats(0.3, 2.0))
def test_eval_series_bit_identical_to_fraction_sum(a, im):
    tau = complex(0.1, im)
    s = build(a)
    x = cmath.exp(2j * math.pi * tau / 8)
    acc = 0j
    for n, c in s.terms():
        acc += complex(c) * x**n
    assert eval_series(s, tau) == (1j * math.pi) ** s.pi_power * acc


# -- operands on an exponent lattice ------------------------------------------


@st.composite
def lattice_pair(draw):
    """Two lattice operands whose strides are equal, multiples of one
    another, or drawn independently so that the product runs on their gcd."""
    g = draw(st.integers(1, 8))
    g_b = draw(st.one_of(st.sampled_from([g, 2 * g, 3 * g]), st.integers(1, 8)))
    return draw(lattice_data(stride=st.just(g))), draw(lattice_data(stride=st.just(g_b)))


@slow
@given(lattice_pair())
def test_lattice_mul_matches_naive(pair):
    a, b = pair
    got = build(a) * build(b)
    assert ref(got) == naive_mul(a, b)
    assert_reduced(got)


def test_theta_fourth_powers_match_divisor_sums_at_order_3200():
    """theta3**4 = sum_m r4(m) w**(4m) with r4(m) = 8 * (sum of the divisors
    of m not divisible by 4), and theta2**4 = 16 sum_m sigma1(2m+1) w**(4(2m+1)),
    both tabulated here by a divisor sieve in plain ints."""
    n = 3200
    top = n // 4
    r4 = [1] + [0] * top
    sigma1 = [0] * (top + 1)
    for d in range(1, top + 1):
        for k in range(d, top + 1, d):
            sigma1[k] += d
            if d % 4:
                r4[k] += 8 * d
    want3 = [0] * (n + 1)
    want2 = [0] * (n + 1)
    for k in range(top + 1):
        want3[4 * k] = r4[k]
        if k % 2:
            want2[4 * k] = 16 * sigma1[k]
    for which, want in ((3, want3), (2, want2)):
        got = theta_series(which, n) ** 4
        assert (got.num, got.den, got.trunc_order) == (want, 1, n)
