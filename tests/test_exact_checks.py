"""Each exact series check applies the pointwise equation the numeric code
uses, so an error planted in that equation shows in the exact check."""

from fractions import Fraction

import pytest

from halphen import dh, frobenius, ramanujan


def wrong_dh_field(state):
    t1, t2, t3 = state
    return (t1 * (t2 + t3) + t2 * t3, t2 * (t1 + t3) - t1 * t3, t3 * (t1 + t2) - t1 * t2)


def wrong_ramanujan_field(state):
    e2, e4, e6 = state
    return (
        (e2 * e2 - e4) * Fraction(1, 12),
        (e2 * e4 - e6) * Fraction(1, 3),
        (e2 * e6 - e4 * e4) * Fraction(1, 3),
    )


def wrong_chazy_residual(g):
    return g.d3 - 6 * g.value * g.d2 + 8 * g.d1 * g.d1


CASES = [
    (dh, "dh_vector_field", wrong_dh_field, dh.dh_series_ode_residuals),
    (ramanujan, "ramanujan_vector_field", wrong_ramanujan_field,
     ramanujan.ramanujan_series_residual),
    (frobenius, "chazy_residual", wrong_chazy_residual, lambda n: (frobenius.chazy_e2_exact(n),)),
]


@pytest.mark.parametrize("module, name, wrong, check", CASES, ids=[c[1] for c in CASES])
def test_planted_error_in_the_pointwise_equation_shows_in_the_exact_check(
    monkeypatch, module, name, wrong, check
):
    assert all(r.is_zero() and r.trunc_order == 30 and r.pi_power == 0 for r in check(30))
    monkeypatch.setattr(module, name, wrong)
    assert any(not r.is_zero() for r in check(30))
