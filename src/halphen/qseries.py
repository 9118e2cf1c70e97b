"""Exact truncated power-series arithmetic and numeric theta/Eisenstein evaluation.

Two expansion variables are in play.  Theta functions are expanded in
w = q**(1/8), q = exp(2*pi*i*tau), the smallest root of q that makes every
theta exponent an integer:

    theta2 = sum_n q**((n + 1/2)**2 / 2)  = 2w   + 2w**9  + 2w**25 + ...
    theta3 = sum_n q**(n**2 / 2)          = 1    + 2w**4  + 2w**16 + ...
    theta4 = sum_n (-1)**n q**(n**2 / 2)  = 1    - 2w**4  + 2w**16 - ...

Eisenstein series are expanded in q itself; ``dilate(8)`` (substituting
q = w**8) converts them to w-units when they meet theta expansions.

Series carry an integer (pi*i)-power grading: a series with ``pi_power`` k
represents (pi*i)**k times its rational coefficient part.  Identities whose
natural statement involves powers of pi*i are first normalised to grading
zero so they become pure rational coefficient identities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "PiGradedQSeries",
    "TauPoint",
    "ThetaCharacteristics",
    "theta_series",
    "eisenstein_series",
    "theta_q",
    "log_unit",
    "eval_series",
    "theta_eval_tail_bound",
    "theta_numeric",
    "theta_char_eval",
    "theta_char_dz",
    "sigma",
]

EISENSTEIN_WEIGHT_COEFF = {2: -24, 4: 240, 6: -504}


def _as_fraction(x) -> Fraction:
    """Coerce to Fraction; floats are rejected to protect exactness."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(
        "exact coefficient expected (int or Fraction), got %s" % type(x).__name__
    )


class PiGradedQSeries:
    """Truncated formal power series with exact rational coefficients.

    Represents (pi*i)**pi_power * sum_n coeffs[n] * x**n where x is the
    producing function's expansion variable (w for theta series, q for
    Eisenstein series).  Coefficients for exponents above ``trunc_order``
    are unknown, not zero; arithmetic only ever claims coefficients up to
    the smaller truncation order of its operands.
    """

    __slots__ = ("coeffs", "pi_power", "trunc_order")

    def __init__(self, coeffs, trunc_order: int, pi_power: int = 0):
        if not isinstance(trunc_order, int) or trunc_order < 0:
            raise ValueError("trunc_order must be a non-negative integer")
        if not isinstance(pi_power, int):
            raise TypeError("pi_power must be an integer")
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        clean: dict[int, Fraction] = {}
        for n, c in items:
            if not isinstance(n, int) or n < 0:
                raise ValueError("exponents must be non-negative integers, got %r" % (n,))
            if n > trunc_order:
                continue
            c = _as_fraction(c)
            if c:
                clean[n] = clean.get(n, Fraction(0)) + c
                if not clean[n]:
                    del clean[n]
        self.coeffs = clean
        self.pi_power = pi_power
        self.trunc_order = trunc_order

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, trunc_order: int, pi_power: int = 0) -> "PiGradedQSeries":
        return cls({}, trunc_order, pi_power)

    @classmethod
    def one(cls, trunc_order: int) -> "PiGradedQSeries":
        return cls({0: 1}, trunc_order, 0)

    # -- inspection --------------------------------------------------------

    def coeff(self, n: int) -> Fraction:
        """Coefficient of x**n; raises beyond the truncation order."""
        if n > self.trunc_order:
            raise ValueError(
                "coefficient of x^%d is beyond truncation order %d" % (n, self.trunc_order)
            )
        return self.coeffs.get(n, Fraction(0))

    def terms(self) -> list[tuple[int, Fraction]]:
        """Nonzero (exponent, coefficient) pairs in ascending exponent order."""
        return sorted(self.coeffs.items())

    def valuation(self):
        """Smallest exponent with a nonzero coefficient, or None if zero."""
        return min(self.coeffs) if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        """Equal iff gradings match and coefficients agree up to the common order."""
        if not isinstance(other, PiGradedQSeries):
            return NotImplemented
        if self.pi_power != other.pi_power:
            return False
        n = min(self.trunc_order, other.trunc_order)
        for k in set(self.coeffs) | set(other.coeffs):
            if k <= n and self.coeffs.get(k, 0) != other.coeffs.get(k, 0):
                return False
        return True

    __hash__ = None

    def __repr__(self) -> str:
        parts = []
        for n, c in self.terms()[:8]:
            if n == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append("x^%d" % n)
            else:
                parts.append("%s*x^%d" % (c, n))
        if len(self.coeffs) > 8:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        head = "" if self.pi_power == 0 else "(pi*i)^%d * " % self.pi_power
        return "<%s%s + O(x^%d)>" % (head, body, self.trunc_order + 1)

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> "PiGradedQSeries":
        return PiGradedQSeries(
            {n: -c for n, c in self.coeffs.items()}, self.trunc_order, self.pi_power
        )

    def __add__(self, other):
        if not isinstance(other, PiGradedQSeries):
            return NotImplemented
        if self.pi_power != other.pi_power:
            raise ValueError(
                "cannot add series with pi_power %d and %d" % (self.pi_power, other.pi_power)
            )
        n = min(self.trunc_order, other.trunc_order)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        return PiGradedQSeries(out, n, self.pi_power)

    def __sub__(self, other):
        if not isinstance(other, PiGradedQSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PiGradedQSeries):
            n = min(self.trunc_order, other.trunc_order)
            out: dict[int, Fraction] = {}
            for i, ci in self.coeffs.items():
                for j, cj in other.coeffs.items():
                    k = i + j
                    if k > n:
                        continue
                    out[k] = out.get(k, Fraction(0)) + ci * cj
            return PiGradedQSeries(out, n, self.pi_power + other.pi_power)
        c = _as_fraction(other)
        return PiGradedQSeries(
            {n: cc * c for n, cc in self.coeffs.items()}, self.trunc_order, self.pi_power
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int) -> "PiGradedQSeries":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = PiGradedQSeries({0: 1}, self.trunc_order, 0)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def truncate(self, order: int) -> "PiGradedQSeries":
        if order > self.trunc_order:
            raise ValueError("cannot extend truncation order (coefficients unknown)")
        return PiGradedQSeries(self.coeffs, order, self.pi_power)

    def dilate(self, m: int) -> "PiGradedQSeries":
        """Substitute x -> y**m.  All skipped exponents are exactly zero,
        so the result is valid up to m*trunc_order + m - 1."""
        if not isinstance(m, int) or m < 1:
            raise ValueError("dilation factor must be a positive integer")
        return PiGradedQSeries(
            {n * m: c for n, c in self.coeffs.items()},
            m * self.trunc_order + m - 1,
            self.pi_power,
        )

    def x_ddx(self) -> "PiGradedQSeries":
        """The Euler operator x*d/dx in the series' own variable."""
        return PiGradedQSeries(
            {n: n * c for n, c in self.coeffs.items()}, self.trunc_order, self.pi_power
        )

    def reciprocal(self) -> "PiGradedQSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        a0 = self.coeffs.get(0, Fraction(0))
        if not a0:
            raise ValueError("series with zero constant term has no reciprocal")
        n = self.trunc_order
        nz = sorted(k for k in self.coeffs if 0 < k <= n)
        b = [Fraction(0)] * (n + 1)
        b[0] = 1 / a0
        for m in range(1, n + 1):
            acc = Fraction(0)
            for k in nz:
                if k > m:
                    break
                acc += self.coeffs[k] * b[m - k]
            if acc:
                b[m] = -acc / a0
        return PiGradedQSeries(
            {m: c for m, c in enumerate(b) if c}, n, -self.pi_power
        )

    def with_pi_power(self, k: int) -> "PiGradedQSeries":
        """Same rational coefficients under grading k.  Relabelling the grade
        multiplies the represented value by (pi*i)**(k - pi_power)."""
        return PiGradedQSeries(self.coeffs, self.trunc_order, k)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "pi_power": self.pi_power,
            "trunc_order": self.trunc_order,
            "terms": [
                [n, "%d/%d" % (c.numerator, c.denominator)] for n, c in self.terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PiGradedQSeries":
        return cls(
            [(int(n), Fraction(c)) for n, c in d["terms"]],
            int(d["trunc_order"]),
            int(d["pi_power"]),
        )


# -- points and characteristics -----------------------------------------------


@dataclass(frozen=True)
class TauPoint:
    """A modular parameter in the upper half-plane."""

    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))
        if self.value.imag <= 0:
            raise ValueError("tau must have positive imaginary part, got %r" % (self.value,))


@dataclass(frozen=True)
class ThetaCharacteristics:
    """Arguments of the two-characteristic theta sum
    sum_m exp(pi*i*(m+r)**2*sigma + 2*pi*i*(m+r)*(z+s))."""

    r: complex
    s: complex
    z: complex
    sigma: complex

    def __post_init__(self):
        for name in ("r", "s", "z", "sigma"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if self.sigma.imag <= 0:
            raise ValueError("sigma must have positive imaginary part")


def _tau_complex(tau) -> complex:
    t = tau.value if isinstance(tau, TauPoint) else complex(tau)
    if t.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane, got %r" % (t,))
    return t


# -- generators -----------------------------------------------------------------


def theta_series(which: int, order: int) -> PiGradedQSeries:
    """Exact expansion of theta2/theta3/theta4 in w = q**(1/8).

    theta2 places coefficient 2 at the odd squares (2n+1)**2; theta3 and
    theta4 place 1 at 0 and (-1)**n * 2 at 4n**2.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs: dict[int, int] = {}
    if which == 2:
        n = 0
        while (2 * n + 1) ** 2 <= order:
            coeffs[(2 * n + 1) ** 2] = 2
            n += 1
    elif which in (3, 4):
        coeffs[0] = 1
        sign = 1 if which == 3 else -1
        n = 1
        while 4 * n * n <= order:
            coeffs[4 * n * n] = 2 * sign**n
            n += 1
    else:
        raise ValueError("theta index must be 2, 3 or 4")
    return PiGradedQSeries(coeffs, order)


def sigma(n: int, k: int) -> int:
    """Divisor power sum: sum of d**k over the positive divisors of n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**k
            e = n // d
            if e != d:
                total += e**k
        d += 1
    return total


def eisenstein_series(k: int, order: int) -> PiGradedQSeries:
    """Weight-k Eisenstein expansion in q-units: constant term 1 and
    coefficient b_k * sigma_{k-1}(n) at q**n, b in {-24, 240, -504}."""
    if k not in EISENSTEIN_WEIGHT_COEFF:
        raise ValueError("Eisenstein weight must be 2, 4 or 6")
    if order < 0:
        raise ValueError("order must be >= 0")
    b = EISENSTEIN_WEIGHT_COEFF[k]
    coeffs = {0: 1}
    for n in range(1, order + 1):
        coeffs[n] = b * sigma(n, k - 1)
    return PiGradedQSeries(coeffs, order)


# -- operators --------------------------------------------------------------


def theta_q(s: PiGradedQSeries, var: str = "q") -> PiGradedQSeries:
    """The operator q*d/dq.  On q-unit series this is the Euler operator;
    on w-unit series q*d/dq = (1/8) w*d/dw."""
    if var == "q":
        return s.x_ddx()
    if var == "w":
        return s.x_ddx() * Fraction(1, 8)
    raise ValueError("var must be 'q' or 'w'")


def log_unit(s: PiGradedQSeries):
    """Factor s = c*x**m * u with u(0) = 1 and return (m, c, log u).

    log u is recovered from its Euler derivative: x d/dx log u = (x u')/u,
    whose x**n coefficient is n times that of log u.  Requires grading zero
    (powers of pi*i cannot enter a formal logarithm) and a nonzero series.
    """
    if s.pi_power != 0:
        raise ValueError("log_unit requires a grading-zero series")
    m = s.valuation()
    if m is None:
        raise ValueError("cannot take the log of a (truncation-)zero series")
    c = s.coeff(m)
    unit = PiGradedQSeries(
        {n - m: cc / c for n, cc in s.terms()}, s.trunc_order - m, 0
    )
    euler = unit.x_ddx() * unit.reciprocal()
    log_part = PiGradedQSeries(
        {n: cc / n for n, cc in euler.terms() if n}, unit.trunc_order, 0
    )
    return m, c, log_part


# -- numeric evaluation ------------------------------------------------------


def eval_series(s: PiGradedQSeries, tau, var: str = "w") -> complex:
    """Evaluate (pi*i)**pi_power * sum c_n x**n at x = w(tau) or x = q(tau).

    The truncation tail is not estimated here; see theta_eval_tail_bound
    for the documented geometric bound covering theta expansions.
    """
    t = _tau_complex(tau)
    if var == "w":
        x = cmath.exp(2j * math.pi * t / 8)
    elif var == "q":
        x = cmath.exp(2j * math.pi * t)
    else:
        raise ValueError("var must be 'q' or 'w'")
    acc = 0j
    for n, c in s.terms():
        acc += complex(c) * x**n
    return (1j * math.pi) ** s.pi_power * acc


def theta_eval_tail_bound(which: int, order: int, tau) -> float:
    """Bound on the truncation error of eval_series(theta_series(which, order), tau).

    Theta exponents grow quadratically with strictly increasing gaps, so the
    dropped tail is dominated by the geometric series starting at the first
    omitted exponent with ratio |w|**(last observed gap); all coefficients
    have magnitude at most 2.
    """
    t = _tau_complex(tau)
    w_abs = math.exp(-2 * math.pi * t.imag / 8)
    if which == 2:
        exps = [(2 * n + 1) ** 2 for n in range(order + 2)]
    elif which in (3, 4):
        exps = [4 * n * n for n in range(order + 2)]
    else:
        raise ValueError("theta index must be 2, 3 or 4")
    included = [e for e in exps if e <= order]
    e_next = next(e for e in exps if e > order)
    if len(included) >= 2:
        gap = included[-1] - included[-2]
    else:
        gap = e_next - (included[-1] if included else 0)
    return 2.0 * w_abs**e_next / (1.0 - w_abs**gap)


def theta_numeric(which: int, tau):
    """Numeric (theta(tau), d theta/d tau) by term-wise differentiated sums.

    Terms decay like exp(-pi*Im(tau)*n**2); the cutoff keeps the dropped
    tail below 1e-18 relative to the leading term.
    """
    t = _tau_complex(tau)
    rate = math.pi * t.imag
    n_max = int(math.ceil(math.sqrt((math.log(1e18) + 10.0) / rate))) + 3
    if which == 2:
        val = 0j
        dval = 0j
        for n in range(n_max + 1):
            e = (n + 0.5) ** 2
            term = cmath.exp(1j * math.pi * t * e)
            val += 2 * term
            dval += 2j * math.pi * e * term
    elif which in (3, 4):
        sign = 1 if which == 3 else -1
        val = 1 + 0j
        dval = 0j
        for n in range(1, n_max + 1):
            e = n * n
            term = sign**n * cmath.exp(1j * math.pi * t * e)
            val += 2 * term
            dval += 2j * math.pi * e * term
    else:
        raise ValueError("theta index must be 2, 3 or 4")
    return val, dval


def _theta_char_sum(ch: ThetaCharacteristics, weighted: bool, tol: float) -> complex:
    """Symmetric sum of the characteristic theta terms.

    log|term(m)| is an inverted parabola in u = m + Re(r) with curvature
    pi*Im(sigma); summing to sqrt(log(1/tol)/curvature) past the peak keeps
    the dropped tail below tol relative to the largest term.  Complex
    characteristics only shift the peak and are covered by the same bound.
    """
    curvature = math.pi * ch.sigma.imag
    b = ch.r.imag
    zs = ch.z + ch.s
    slope = -2 * math.pi * (b * ch.sigma.real + zs.imag)
    u_peak = slope / (2 * curvature)
    spread = math.sqrt((math.log(1 / tol) + 12.0) / curvature)
    m_max = int(math.ceil(abs(u_peak) + abs(ch.r.real) + spread)) + 3
    total = 0j
    for m in range(-m_max, m_max + 1):
        mr = m + ch.r
        term = cmath.exp(1j * math.pi * mr * mr * ch.sigma + 2j * math.pi * mr * zs)
        if weighted:
            term *= 2j * math.pi * mr
        total += term
    return total


def theta_char_eval(ch: ThetaCharacteristics, tol: float = 1e-15) -> complex:
    """Numeric value of the two-characteristic theta sum."""
    return _theta_char_sum(ch, weighted=False, tol=tol)


def theta_char_dz(ch: ThetaCharacteristics, tol: float = 1e-15) -> complex:
    """d/dz of the theta sum: each term picks up 2*pi*i*(m+r).

    z and the second characteristic s enter only through z + s, so this is
    also the derivative with respect to s.
    """
    return _theta_char_sum(ch, weighted=True, tol=tol)
