import cmath
import json
import math
import random
import re
from fractions import Fraction

import pytest

from halphen import qseries
from halphen.dh import dh_integrate, dh_theta_solution
from halphen.qseries import (
    PiGradedQSeries,
    ThetaCharacteristics,
    eisenstein_series,
    eval_series,
    log_derivative,
    log_unit,
    tau_complex,
    theta_char_dz,
    theta_char_eval,
    theta_log_jets,
    theta_numeric,
    theta_series,
)


def series(d, order, pi_power=0):
    return PiGradedQSeries(d, order, pi_power)


# -- oracles ------------------------------------------------------------------


def theta_exponent_oracle(which, order):
    """Enumerate theta exponents directly from the defining sums over n."""
    coeffs = {}
    for n in range(-40, 41):
        if which == 2:
            e = (2 * n + 1) ** 2  # 8 * (1/2)(n + 1/2)^2
            c = 1
        else:
            e = 4 * n * n  # 8 * (1/2) n^2
            c = (-1) ** n if which == 4 else 1
        if 0 <= e <= order:
            coeffs[e] = coeffs.get(e, 0) + c
    return coeffs


def sigma_naive(n, k):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def formal_log_oracle(unit_coeffs, order):
    """log(1 + u) via the alternating power sum, u the tail of a unit series."""
    u = dict(unit_coeffs)
    u.pop(0, None)
    out = {}
    power = {0: Fraction(1)}
    for k in range(1, order + 1):
        nxt = {}
        for i, ci in power.items():
            for j, cj in u.items():
                if i + j <= order:
                    nxt[i + j] = nxt.get(i + j, Fraction(0)) + ci * Fraction(cj)
        power = nxt
        if not power:
            break
        s = Fraction((-1) ** (k + 1), k)
        for n, c in power.items():
            out[n] = out.get(n, Fraction(0)) + s * c
    return {n: c for n, c in out.items() if c}


# Reference engine: a dict of Fractions per series, products by the naive
# double loop, inverses by the term recurrence.  A reference series is
# (coefficient dict, trunc_order, pi_power), built without the engine.


def ref(s):
    return dict(s.terms()), s.trunc_order, s.pi_power


def naive_mul(a, b):
    (da, na, pa), (db, nb, pb) = a, b
    n = min(na, nb)
    out = {}
    for i, ci in da.items():
        for j, cj in db.items():
            if i + j <= n:
                out[i + j] = out.get(i + j, Fraction(0)) + Fraction(ci) * Fraction(cj)
    return {k: c for k, c in out.items() if c}, n, pa + pb


def naive_add(a, b, sign=1):
    (da, na, pa), (db, nb, _) = a, b
    n = min(na, nb)
    out = {k: Fraction(c) for k, c in da.items() if k <= n}
    for k, c in db.items():
        if k <= n:
            out[k] = out.get(k, Fraction(0)) + sign * Fraction(c)
    return {k: c for k, c in out.items() if c}, n, pa


def naive_reciprocal(a):
    d, n, p = a
    a0 = Fraction(d[0])
    nz = sorted(k for k in d if 0 < k <= n)
    b = [Fraction(0)] * (n + 1)
    b[0] = 1 / a0
    for m in range(1, n + 1):
        acc = sum((Fraction(d[k]) * b[m - k] for k in nz if k <= m), Fraction(0))
        b[m] = -acc / a0
    return {m: c for m, c in enumerate(b) if c}, n, -p


def naive_log_derivative(a):
    """x a'/a = m + x u'/u for a = c x^m u, of grading zero whatever a's."""
    d, n, _ = a
    m = min(k for k, c in d.items() if c)
    c = Fraction(d[m])
    unit = ({k - m: Fraction(v) / c for k, v in d.items() if v}, n - m, 0)
    euler = naive_mul(({k: k * v for k, v in unit[0].items()}, n - m, 0), naive_reciprocal(unit))
    out = dict(euler[0])
    if m:
        out[0] = Fraction(m)
    return out, n - m, 0


def naive_log_unit(a):
    """(m, c, log u) for a = c x^m u, log u by dividing x u'/u termwise."""
    d = a[0]
    m = min(k for k, c in d.items() if c)
    euler, order, _ = naive_log_derivative(a)
    return m, Fraction(d[m]), ({k: v / k for k, v in euler.items() if k}, order, 0)


# -- generators ---------------------------------------------------------------


def test_theta2_series_spec_example():
    assert theta_series(2, 30) == series({1: 2, 9: 2, 25: 2}, 30)


def test_theta3_theta4_series_spec_examples():
    assert theta_series(3, 20) == series({0: 1, 4: 2, 16: 2}, 20)
    assert theta_series(4, 20) == series({0: 1, 4: -2, 16: 2}, 20)


@pytest.mark.parametrize("which", [2, 3, 4])
@pytest.mark.parametrize("order", [0, 7, 64, 111])
def test_theta_series_against_enumeration(which, order):
    got = theta_series(which, order)
    want = theta_exponent_oracle(which, order)
    assert dict(got.terms()) == {n: Fraction(c) for n, c in want.items()}
    assert got.pi_power == 0
    assert got.trunc_order == order


def test_theta_series_bad_index():
    with pytest.raises(ValueError):
        theta_series(5, 10)


def test_eisenstein_first_coefficients():
    assert eisenstein_series(2, 1) == series({0: 1, 1: -24}, 1)
    assert eisenstein_series(2, 3) == series({0: 1, 1: -24, 2: -72, 3: -96}, 3)
    assert eisenstein_series(4, 2) == series({0: 1, 1: 240, 2: 2160}, 2)


def test_eisenstein_divisor_sum_oracle():
    for k, b in ((2, -24), (4, 240), (6, -504)):
        s = eisenstein_series(k, 25)
        for n in range(1, 26):
            assert s.coeff(n) == b * sigma_naive(n, k - 1)


def test_eisenstein_bad_weight():
    with pytest.raises(ValueError):
        eisenstein_series(3, 5)


# -- arithmetic ----------------------------------------------------------------


def test_mul_difference_of_squares():
    one_plus = series({0: 1, 1: 1}, 10)
    one_minus = series({0: 1, 1: -1}, 10)
    assert one_plus * one_minus == series({0: 1, 2: -1}, 10)


def test_add_requires_matching_grade():
    a = series({0: 1}, 5, pi_power=0)
    b = series({0: 1}, 5, pi_power=1)
    with pytest.raises(ValueError):
        a + b


def test_mul_adds_grades_and_truncations_take_min():
    a = series({1: 2}, 9, pi_power=1)
    b = series({2: 3}, 5, pi_power=2)
    prod = a * b
    assert prod.pi_power == 3
    assert prod.trunc_order == 5
    assert prod.coeff(3) == 6


@pytest.mark.parametrize("coeffs, den", [({0: 1, 2: -7, 5: 3**40}, 1),
                                         ({0: Fraction(1, 3), 2: 4, 4: -5}, 3)])
def test_coeff_is_the_reduced_fraction(coeffs, den):
    a = series(coeffs, 6) * series({0: 1, 1: 2}, 6)
    assert a.den == den
    for n in range(7):
        c = a.coeff(n)
        assert type(c) is Fraction and c == Fraction(a.num[n], a.den)


def test_scalar_multiplication_is_exact_and_rejects_floats():
    a = series({0: 1, 3: 4}, 5)
    assert Fraction(1, 2) * a == series({0: Fraction(1, 2), 3: 2}, 5)
    with pytest.raises(TypeError):
        a * 0.5


def test_pow_matches_repeated_mul():
    a = series({0: 1, 1: -3, 4: 2}, 12)
    assert a**3 == a * a * a
    assert a**0 == PiGradedQSeries.one(12)


def test_reciprocal_roundtrip():
    a = series({0: 2, 1: -1, 3: 5}, 15)
    assert a * a.reciprocal() == PiGradedQSeries.one(15)
    with pytest.raises(ValueError):
        series({1: 1}, 4).reciprocal()


def test_reciprocal_negates_grade():
    a = series({0: 1, 2: -1}, 8, pi_power=2)
    assert a.reciprocal().pi_power == -2


def test_dilate_exponents_and_order():
    e2 = eisenstein_series(2, 2).dilate(8)
    assert e2.coeff(8) == -24
    assert e2.coeff(16) == -72
    assert e2.coeff(11) == 0
    assert e2.trunc_order == 2 * 8 + 7


def test_theta_q_on_q_units():
    got = eisenstein_series(2, 2).x_ddx()
    assert got == series({1: -24, 2: -144}, 2)


def test_truncate_cannot_extend():
    a = series({0: 1}, 5)
    assert a.truncate(3).trunc_order == 3
    with pytest.raises(ValueError):
        a.truncate(9)


def test_equality_common_window_semantics():
    a = series({0: 1, 4: 2}, 10)
    b = series({0: 1, 4: 2, 15: 7}, 20)
    assert a == b  # x^15 lies beyond the common window [0, 10]
    assert a != series({0: 1, 4: 2, 8: 7}, 20)  # x^8 is inside it
    assert series({0: 1}, 10) != series({0: 1}, 10, pi_power=1)


def test_mul_commutative_associative_distributive_random():
    rng = random.Random(7)

    def rand_series():
        d = {rng.randrange(0, 12): Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)}
        return series(d, 12)

    for _ in range(25):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_products_match_the_naive_convolution():
    e2, e4, e6 = (eisenstein_series(k, 60) for k in (2, 4, 6))
    t2 = theta_series(2, 300)
    for a, b in ((e2, e4), (e4, e6), (e6, e6), (t2, e2.dilate(8)), (t2, t2 * Fraction(-3, 7))):
        assert ref(a * b) == naive_mul(ref(a), ref(b))
    unit = e2 * Fraction(1, 5) + e4 * Fraction(2, 3)
    assert ref(unit.reciprocal()) == naive_reciprocal(ref(unit))


def test_jacobi_identity_low_order():
    n = 64
    t2, t3, t4 = (theta_series(k, n) for k in (2, 3, 4))
    assert t3**4 == t2**4 + t4**4


def test_log_unit_theta2_leading():
    m, c, lg = log_unit(theta_series(2, 40))
    assert (m, c) == (1, 2)
    assert lg.coeff(8) == 1
    assert lg.coeff(16) == Fraction(-1, 2)


def test_log_unit_against_formal_log_oracle():
    s = series({2: 3, 5: 3, 8: -6}, 30)  # 3 x^2 (1 + x^3 - 2 x^6)
    m, c, lg = log_unit(s)
    assert (m, c) == (2, 3)
    want = formal_log_oracle({0: 1, 3: 1, 6: -2}, 28)
    assert dict(lg.terms()) == want


def test_log_unit_errors():
    with pytest.raises(ValueError):
        log_derivative(PiGradedQSeries.zero(5))
    with pytest.raises(ValueError):
        log_unit(PiGradedQSeries.zero(5))
    with pytest.raises(ValueError):
        log_unit(series({0: 1}, 5, pi_power=1))


# -- serialization ----------------------------------------------------------


def test_json_round_trip():
    s = series({0: 1, 9: Fraction(-3, 7)}, 12, pi_power=2)
    d = s.to_json_dict()
    assert d == {"pi_power": 2, "trunc_order": 12, "terms": [[0, "1/1"], [9, "-3/7"]]}
    assert json.loads(json.dumps(d)) == d  # plain JSON values only


# -- numeric evaluation -------------------------------------------------------


def direct_theta3(tau):
    return sum(cmath.exp(1j * math.pi * tau * n * n) for n in range(-30, 31))


def direct_theta2(tau):
    return sum(cmath.exp(1j * math.pi * tau * (n + 0.5) ** 2) for n in range(-31, 31))


def direct_theta4(tau):
    return sum((-1) ** n * cmath.exp(1j * math.pi * tau * n * n) for n in range(-30, 31))


def test_eval_constant():
    assert eval_series(PiGradedQSeries.one(4), 0.3 + 1.7j) == 1


def test_eval_theta3_matches_direct_sum_at_i():
    got = eval_series(theta_series(3, 200), 1j)
    want = direct_theta3(1j)
    assert abs(got - want) < 1e-13
    assert abs(got - 1.08643481) < 1e-7


def test_theta2_equals_theta4_at_i():
    v2 = eval_series(theta_series(2, 200), 1j)
    v4 = eval_series(theta_series(4, 200), 1j)
    assert abs(v2 / v4 - 1) < 1e-12
    assert abs(v2 - direct_theta2(1j)) < 1e-13


def test_eval_pi_grading():
    s = series({0: 1}, 4, pi_power=2)
    assert abs(eval_series(s, 1j) + math.pi**2) < 1e-14


def test_eval_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        eval_series(PiGradedQSeries.one(2), 1 - 0.5j)


def test_eval_convergence_within_tail_bound():
    # the exact series to w**((2N + 1)**2) hold every term theta_log_jets
    # sums, n <= N = theta_term_count, and both drop terms below 4.5e-23
    for tau in (1j, 0.3 + 0.5j):
        order = (2 * qseries.theta_term_count(tau.imag) + 1) ** 2
        values = theta_log_jets(tau)[0]
        for which, value in zip((2, 3, 4), values):
            got = eval_series(theta_series(which, order), tau)
            assert abs(got - value) <= 4 * math.ulp(abs(value)), (tau, which)


def test_theta_numeric_value_and_derivative():
    for which, direct in ((2, direct_theta2), (3, direct_theta3), (4, direct_theta4)):
        val, dval = theta_numeric(which, 1.1j)
        assert abs(val - direct(1.1j)) < 1e-13
        h = 1e-5
        fd = (direct(1.1j + h) - direct(1.1j - h)) / (2 * h)
        assert abs(dval - fd) < 1e-8


@pytest.mark.parametrize("n_max", range(1, 7))
def test_theta_kernel_sums_are_exact_at_a_dyadic_nome(n_max):
    # at x = 1/2 every term and partial sum up to n_max = 6 is a double, so
    # the kernel returns the exact sums: a dropped, doubled or misfiled
    # trailing term shows, though it lies below the oracle tests' tolerance
    x = Fraction(1, 2)
    theta2 = [(1, n * n + n) for n in range(n_max + 1)]  # (c, e) of the terms c x**e
    theta3 = [(1, 0)] + [(2, n * n) for n in range(1, n_max + 1)]
    theta4 = [(1, 0)] + [(2 * (-1) ** n, n * n) for n in range(1, n_max + 1)]
    want = [[sum(c * e**j * x**e for c, e in terms) for j in range(3)]
            for terms in (theta2, theta3, theta4)]
    got = qseries._theta_jets(0.5, n_max)
    assert [[Fraction(v) for v in jet] for jet in got] == want


# -- theta with characteristics ---------------------------------------------


@pytest.mark.parametrize("tau", [1j, 2j, 0.3 + 1.1j])
def test_characteristics_reproduce_classical_thetas(tau):
    pairs = {2: (0.5, 0.0), 3: (0.0, 0.0), 4: (0.0, 0.5)}
    for which, (r, s) in pairs.items():
        ch = ThetaCharacteristics(r=r, s=s, sigma=tau)
        want = eval_series(theta_series(which, 200), tau)
        assert abs(theta_char_eval(ch) - want) < 1e-12


def test_characteristics_dz_odd_symmetry():
    ch = ThetaCharacteristics(r=0.0, s=0.0, sigma=1j)
    assert abs(theta_char_dz(ch)) < 1e-15


def test_characteristics_dz_matches_finite_difference():
    # z enters the sum only through z + s: the point s = 0.3, z = 0.2 is s = 0.5
    s, z, h = 0.3, 0.2, 1e-6
    ch = ThetaCharacteristics(r=0.25 + 0.1j, s=s + z, sigma=1.3j)
    up = theta_char_eval(ThetaCharacteristics(ch.r, s + (z + h), ch.sigma))
    dn = theta_char_eval(ThetaCharacteristics(ch.r, s + (z - h), ch.sigma))
    assert abs(theta_char_dz(ch) - (up - dn) / (2 * h)) < 1e-7


def test_characteristics_dz_equals_ds():
    # z enters the sum only through z + s, so d/ds is also d/dz at z = 0
    ch = ThetaCharacteristics(r=0.2, s=0.5, sigma=1.2j)
    h = 1e-6
    up = theta_char_eval(ThetaCharacteristics(ch.r, ch.s + h, ch.sigma))
    dn = theta_char_eval(ThetaCharacteristics(ch.r, ch.s - h, ch.sigma))
    assert abs(theta_char_dz(ch) - (up - dn) / (2 * h)) < 1e-7


def test_characteristics_require_upper_half_plane():
    with pytest.raises(ValueError):
        ThetaCharacteristics(r=0.0, s=0.0, sigma=1.0)
    with pytest.raises(ValueError):  # a sum past MAX_THETA_TERMS
        theta_char_eval(ThetaCharacteristics(r=0.0, s=0.0, sigma=1e-300j))


@pytest.mark.parametrize(
    "tau",
    [complex(math.nan, 1), complex(0, math.nan), complex(math.inf, 1), complex(-math.inf, 1),
     complex(math.nan, math.inf), complex(math.inf, math.inf),
     complex(0, math.inf), complex(1, math.inf)],  # the cusp
)
def test_non_finite_tau_is_refused(tau):
    calls = [tau_complex, theta_log_jets, dh_theta_solution,
             lambda t: theta_numeric(3, t), lambda t: eval_series(theta_series(3, 10), t),
             lambda t: ThetaCharacteristics(0, 0, t),
             lambda t: dh_integrate((1, 1, 1), t, 1j, 1e-8),
             lambda t: dh_integrate((1, 1, 1), 1j, t, 1e-8)]
    for call in calls:
        with pytest.raises(ValueError, match="half-plane, got " + re.escape(repr(tau))):
            call(tau)
