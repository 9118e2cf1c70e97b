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

A series is stored as one positive common denominator and a dense list of
integer numerators, one per exponent up to the truncation order, kept
reduced (no prime divides the denominator and every numerator), so equal
series have equal representations.  Products of two series use Kronecker
substitution (Schoenhage 1982; Harvey, J. Symb. Comput. 2009): each
numerator list is packed into a single big integer, one coefficient per
fixed-width slot, and CPython's Karatsuba multiplication computes the whole
convolution as one integer product.  A product coefficient is a sum of at
most min(len a, len b) terms a_i * b_j, so bits(max|a|) + bits(max|b|) +
bits(min length) bits hold its magnitude; one more bit for its sign and one
of margin, rounded up to whole bytes for int.to_bytes/int.from_bytes, make
a slot that holds every product coefficient exactly.  Only the low n + 1 slots of the
product are unpacked, n the truncation order of the result: the higher
coefficients are unknown, not zero, and being multiples of 2**(s*(n + 1))
for a slot of s bits they vanish exactly under the mask that keeps the low
slots.

Theta-derived series lie on an exponent lattice lo + g*Z: in w, theta3
and theta4 on 4Z (exponents 4n**2) and theta2 on 1 + 8Z ((2n + 1)**2),
and so do their powers, units, logarithms and the T_i of the theta ODE
identity, with g = 4 or 8.  A series' stride is the gcd of its nonzero
exponents' offsets from its first, and a product's exponents lie on
lo_a + lo_b + gcd(g_a, g_b)*Z.  Entries off the lattice are zero, so
packing only a[lo_a::g] and b[lo_b::g] is exact and makes the big-integer
product g times shorter; reciprocal runs its recurrence on num[::g] alike.
The stride scan stops at gcd 1, so a dense series (g = 1) reads two terms.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction
from itertools import compress

__all__ = [
    "PiGradedQSeries",
    "ThetaCharacteristics",
    "theta_series",
    "eisenstein_series",
    "log_derivative",
    "log_unit",
    "eval_series",
    "tau_complex",
    "theta_term_count",
    "theta_log_jets",
    "theta_numeric",
    "theta_char_eval",
    "theta_char_dz",
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


def _support(num: list, n: int):
    """(first, last, stride) of the nonzero entries of num[:n + 1], or None;
    the stride is 0 for a single term (module docstring)."""
    nonzero = compress(range(n + 1), num)
    lo = next(nonzero, None)
    if lo is None:
        return None
    g = 0
    for k in nonzero:
        g = math.gcd(g, k - lo)
        if g == 1:
            break
    hi = n
    while not num[hi]:
        hi -= 1
    return lo, hi, g


def _pack(num: list, slot: int, bias_bytes: bytes) -> int:
    """sum num[i] * 2**(8*slot*i) for signed num[i] with |num[i]| < 2**(8*slot - 1).

    Each entry is stored with a bias of half a slot, so every slot holds a
    non-negative value; the bias is then subtracted once from the whole.
    """
    half = 1 << (8 * slot - 1)
    packed = b"".join([(x + half).to_bytes(slot, "little") for x in num])
    return int.from_bytes(packed, "little") - int.from_bytes(bias_bytes[: len(packed)], "little")


def _convolve_low(a: list, b: list, n: int) -> list:
    """Coefficients 0..n of the product of the integer polynomials a and b,
    by Kronecker substitution on their common exponent lattice lo + g*Z;
    the module docstring gives the slot width."""
    out = [0] * (n + 1)
    square = a is b
    sa, sb = _support(a, n), _support(b, n)
    if sa is None or sb is None or sa[0] + sb[0] > n:
        return out
    (lo_a, hi_a, g_a), (lo_b, hi_b, g_b) = sa, sb
    lo = lo_a + lo_b
    g = math.gcd(g_a, g_b) or 1
    # entries whose every product lands above n are not packed, nor the
    # zeros off the lattice
    a = a[lo_a : min(hi_a, n - lo_b) + 1 : g]
    b = b[lo_b : min(hi_b, n - lo_a) + 1 : g]
    bits = (
        max(map(abs, a)).bit_length()
        + max(map(abs, b)).bit_length()
        + min(len(a), len(b)).bit_length()
        + 2
    )
    slot = (bits + 7) // 8
    keep = min((n - lo) // g, len(a) + len(b) - 2) + 1
    bias_bytes = (b"\0" * (slot - 1) + b"\x80") * max(keep, len(a), len(b))
    packed_a = _pack(a, slot, bias_bytes)
    # CPython squares faster than it multiplies two different integers
    packed_b = packed_a if square else _pack(b, slot, bias_bytes)
    width = slot * keep
    # Adding the bias makes each kept slot c_k + 2**(8*slot - 1), in range
    # [0, 2**(8*slot)); the mask drops the slots above the kept ones.
    biased = (packed_a * packed_b + int.from_bytes(bias_bytes[:width], "little")) & (
        (1 << (8 * width)) - 1
    )
    raw = biased.to_bytes(width, "little")
    half = 1 << (8 * slot - 1)
    from_bytes = int.from_bytes
    out[lo : lo + g * keep : g] = [
        from_bytes(raw[i : i + slot], "little") - half for i in range(0, width, slot)
    ]
    return out


class PiGradedQSeries:
    """Truncated formal power series with exact rational coefficients.

    Represents (pi*i)**pi_power * sum_n (num[n] / den) * x**n for
    n = 0..trunc_order, where x is the producing function's expansion
    variable (w for theta series, q for Eisenstein series).  ``den`` is a
    positive integer and ``num`` a list of trunc_order + 1 integers with
    gcd(den, *num) == 1, so every series has exactly one representation.
    Coefficients for exponents above ``trunc_order`` are unknown, not zero;
    arithmetic only ever claims coefficients up to the smaller truncation
    order of its operands.

    The product of two series is one big-integer product of their packed
    numerators (Kronecker substitution, see the module docstring).  Series
    are immutable: no method changes ``num`` in place, so results may share
    their numerator list with an operand.
    """

    __slots__ = ("num", "den", "pi_power", "trunc_order")

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
            clean[n] = clean.get(n, 0) + _as_fraction(c)
        # the lcm of reduced denominators leaves the numerators coprime to it
        den = math.lcm(*(c.denominator for c in clean.values()))
        num = [0] * (trunc_order + 1)
        for n, c in clean.items():
            num[n] = c.numerator * (den // c.denominator)
        self.num = num
        self.den = den
        self.pi_power = pi_power
        self.trunc_order = trunc_order

    @classmethod
    def _from_ints(cls, num: list, den: int, pi_power: int) -> "PiGradedQSeries":
        """The series num/den (den > 0) in reduced form, without validation."""
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num = [x // g for x in num]
                den //= g
        s = object.__new__(cls)
        s.num = num
        s.den = den
        s.pi_power = pi_power
        s.trunc_order = len(num) - 1
        return s

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
        if n < 0:
            return Fraction(0)
        if self.den == 1:  # skips Fraction's gcd
            return Fraction(self.num[n])
        return Fraction(self.num[n], self.den)

    def terms(self) -> list[tuple[int, Fraction]]:
        """Nonzero (exponent, coefficient) pairs in ascending exponent order."""
        den = self.den
        return [(n, Fraction(c, den)) for n, c in enumerate(self.num) if c]

    def valuation(self):
        """Smallest exponent with a nonzero coefficient, or None if zero."""
        for n, c in enumerate(self.num):
            if c:
                return n
        return None

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other) -> bool:
        """Equal iff gradings match and coefficients agree up to the common order."""
        if not isinstance(other, PiGradedQSeries):
            return NotImplemented
        if self.pi_power != other.pi_power:
            return False
        n = min(self.trunc_order, other.trunc_order) + 1
        a, b = self.num[:n], other.num[:n]
        da, db = self.den, other.den
        if da == db:
            return a == b
        return all(x * db == y * da for x, y in zip(a, b))

    __hash__ = None

    def __repr__(self) -> str:
        terms = self.terms()
        parts = []
        for n, c in terms[:8]:
            if n == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append("x^%d" % n)
            else:
                parts.append("%s*x^%d" % (c, n))
        if len(terms) > 8:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        head = "" if self.pi_power == 0 else "(pi*i)^%d * " % self.pi_power
        return "<%s%s + O(x^%d)>" % (head, body, self.trunc_order + 1)

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> "PiGradedQSeries":
        return PiGradedQSeries._from_ints([-c for c in self.num], self.den, self.pi_power)

    def _combine(self, other, sign: int) -> "PiGradedQSeries":
        """self + sign * other over the lcm of the denominators."""
        if self.pi_power != other.pi_power:
            raise ValueError(
                "cannot add series with pi_power %d and %d" % (self.pi_power, other.pi_power)
            )
        n = min(self.trunc_order, other.trunc_order) + 1
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        a, b = self.num[:n], other.num[:n]
        if fa == 1 and fb == 1:
            num = [x + y for x, y in zip(a, b)]
        elif fa == 1 and fb == -1:
            num = [x - y for x, y in zip(a, b)]
        else:
            num = [x * fa + y * fb for x, y in zip(a, b)]
        return PiGradedQSeries._from_ints(num, den, self.pi_power)

    def __add__(self, other):
        if not isinstance(other, PiGradedQSeries):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, PiGradedQSeries):
            return NotImplemented
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, PiGradedQSeries):
            n = min(self.trunc_order, other.trunc_order)
            a = self.num
            b = a if other is self else other.num
            return PiGradedQSeries._from_ints(
                _convolve_low(a, b, n), self.den * other.den, self.pi_power + other.pi_power
            )
        c = _as_fraction(other)
        p, q = c.numerator, c.denominator
        return PiGradedQSeries._from_ints(
            [x * p for x in self.num], self.den * q, self.pi_power
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int) -> "PiGradedQSeries":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return PiGradedQSeries.one(self.trunc_order) if result is None else result

    def truncate(self, order: int) -> "PiGradedQSeries":
        if order > self.trunc_order:
            raise ValueError("cannot extend truncation order (coefficients unknown)")
        return PiGradedQSeries._from_ints(self.num[: order + 1], self.den, self.pi_power)

    def dilate(self, m: int) -> "PiGradedQSeries":
        """Substitute x -> y**m.  All skipped exponents are exactly zero,
        so the result is valid up to m*trunc_order + m - 1."""
        if not isinstance(m, int) or m < 1:
            raise ValueError("dilation factor must be a positive integer")
        num = [0] * (m * (self.trunc_order + 1))
        num[::m] = self.num
        return PiGradedQSeries._from_ints(num, self.den, self.pi_power)

    def x_ddx(self) -> "PiGradedQSeries":
        """The Euler operator x*d/dx in the series' own variable."""
        return PiGradedQSeries._from_ints(
            [n * c for n, c in enumerate(self.num)], self.den, self.pi_power
        )

    def reciprocal(self) -> "PiGradedQSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        A unit on g*Z is A(x**g) with inverse (1/A)(x**g), so num below is
        A's, to order n = trunc_order // g.  With A = num/den and
        a0 = num[0], 1/A is den * b where b_m = c_m / a0**(m + 1) and the
        integers c_m follow from
        c_0 = 1, c_m = -sum_{k=1..m} num[k] * a0**(k - 1) * c_{m-k};
        over the common denominator a0**(n + 1) the numerator of b_m is
        c_m * a0**(n - m).
        """
        a0 = self.num[0]
        if not a0:
            raise ValueError("series with zero constant term has no reciprocal")
        g = _support(self.num, self.trunc_order)[2] or 1
        num = self.num[::g]
        n = len(num) - 1
        weights = []
        power = 1
        for k in range(1, n + 1):
            if num[k]:
                weights.append((k, num[k] * power))
            power *= a0
        c = [1] + [0] * n
        for m in range(1, n + 1):
            acc = 0
            for k, w in weights:
                if k > m:
                    break
                acc += w * c[m - k]
            c[m] = -acc
        if a0 != 1:
            power = 1
            for m in range(n, -1, -1):
                c[m] *= power
                power *= a0
        den = self.den
        if den != 1:
            c = [x * den for x in c]
        out_den = a0 ** (n + 1)
        if out_den < 0:
            out_den = -out_den
            c = [-x for x in c]
        out = [0] * (self.trunc_order + 1)
        out[::g] = c
        return PiGradedQSeries._from_ints(out, out_den, -self.pi_power)

    def with_pi_power(self, k: int) -> "PiGradedQSeries":
        """Same rational coefficients under grading k.  Relabelling the grade
        multiplies the represented value by (pi*i)**(k - pi_power)."""
        return PiGradedQSeries._from_ints(self.num, self.den, k)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "pi_power": self.pi_power,
            "trunc_order": self.trunc_order,
            "terms": [
                [n, "%d/%d" % (c.numerator, c.denominator)] for n, c in self.terms()
            ],
        }


# -- points and characteristics -----------------------------------------------


class ThetaCharacteristics(namedtuple("ThetaCharacteristics", "r s sigma")):
    """Arguments of the two-characteristic theta sum at z = 0,
    sum_m exp(pi*i*(m+r)**2*sigma + 2*pi*i*(m+r)*s).  z enters the sum only
    through z + s, so a shift of s stands for one of z."""

    __slots__ = ()

    def __new__(cls, r, s, sigma):
        return super().__new__(cls, complex(r), complex(s), tau_complex(sigma))


def tau_complex(tau) -> complex:
    """tau as a complex in the upper half-plane, both parts finite: the cusp
    Im tau = +inf is refused, as a nan part or an infinite Re tau is."""
    t = complex(tau)
    if not (0 < t.imag < math.inf and math.isfinite(t.real)):
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
    num = [0] * (order + 1)
    if which == 2:
        n = 0
        while (2 * n + 1) ** 2 <= order:
            num[(2 * n + 1) ** 2] = 2
            n += 1
    elif which in (3, 4):
        num[0] = 1
        sign = 1 if which == 3 else -1
        n = 1
        while 4 * n * n <= order:
            num[4 * n * n] = 2 * sign**n
            n += 1
    else:
        raise ValueError("theta index must be 2, 3 or 4")
    return PiGradedQSeries._from_ints(num, 1, 0)


def eisenstein_series(k: int, order: int) -> PiGradedQSeries:
    """Weight-k Eisenstein expansion in q-units: constant term 1 and
    coefficient b_k * sigma_{k-1}(n) at q**n, b in {-24, 240, -504}."""
    if k not in EISENSTEIN_WEIGHT_COEFF:
        raise ValueError("Eisenstein weight must be 2, 4 or 6")
    if order < 0:
        raise ValueError("order must be >= 0")
    b = EISENSTEIN_WEIGHT_COEFF[k]
    # divisor sieve: every d adds d**(k-1) to sigma at each of its multiples
    sig = [0] * (order + 1)
    for d in range(1, order + 1):
        dk = d ** (k - 1)
        for n in range(d, order + 1, d):
            sig[n] += dk
    return PiGradedQSeries._from_ints([1] + [b * c for c in sig[1:]], 1, 0)


# -- operators --------------------------------------------------------------


def log_derivative(s: PiGradedQSeries) -> PiGradedQSeries:
    """x s'/s = m + x u'/u for nonzero s = c*x**m * u, u(0) = 1, to order
    trunc_order - m; the grading of s cancels, so the result's is zero."""
    m = s.valuation()
    if m is None:
        raise ValueError("cannot take the log of a (truncation-)zero series")
    # u = s / (c x**m) has numerators num[m:] over the denominator num[m]
    lead = s.num[m]
    tail = s.num[m:]
    unit = PiGradedQSeries._from_ints(tail if lead > 0 else [-x for x in tail], abs(lead), 0)
    euler = unit.x_ddx() * unit.reciprocal()
    # x u'/u has no constant term; m * den there leaves the form reduced
    return PiGradedQSeries._from_ints([m * euler.den] + euler.num[1:], euler.den, 0)


def log_unit(s: PiGradedQSeries):
    """Factor s = c*x**m * u with u(0) = 1 and return (m, c, log u): the
    x**k coefficient of log u is e_k / k, e = log_derivative(s), k >= 1.
    Requires grading zero (powers of pi*i cannot enter a formal logarithm).
    """
    if s.pi_power != 0:
        raise ValueError("log_unit requires a grading-zero series")
    euler = log_derivative(s)
    e, m = euler.num, s.valuation()
    # over the lcm L of the k with e_k != 0, e_k / k has numerator e_k * (L / k)
    lcm = math.lcm(*(k for k in range(1, len(e)) if e[k]))
    log_num = [0] + [x * (lcm // k) if x else 0 for k, x in enumerate(e[1:], 1)]
    return m, s.coeff(m), PiGradedQSeries._from_ints(log_num, euler.den * lcm, 0)


# -- numeric evaluation ------------------------------------------------------


def eval_series(s: PiGradedQSeries, tau, var: str = "w") -> complex:
    """Evaluate (pi*i)**pi_power * sum c_n x**n at x = w(tau) or x = q(tau);
    the truncation tail is not estimated."""
    # w and q have periods 8 and 1 in Re tau; fmod reduces exactly, so
    # exp's phase is as accurate at Re tau = 1e15 as at 0.3
    t = tau_complex(tau)
    t = complex(math.fmod(t.real, 8.0), t.imag)
    if var == "w":
        x = cmath.exp(2j * math.pi * t / 8)
    elif var == "q":
        x = cmath.exp(2j * math.pi * t)
    else:
        raise ValueError("var must be 'q' or 'w'")
    # int true division is correctly rounded, so num[n] / den is the float
    # nearest the coefficient whatever its representation
    acc = 0j
    den = s.den
    for n, c in enumerate(s.num):
        if c:
            acc += complex(c / den) * x**n
    return (1j * math.pi) ** s.pi_power * acc


# Most terms a theta sum may take.  The cost grows linearly with the count
# (_theta_jets: about 50 ms for 10**5 terms on the imaginary axis, Python 3.11 on
# a 2-core x86-64 VM); 10**5 terms are reached near Im tau = 1.6e-9.
MAX_THETA_TERMS = 10**5
_TAIL_LOG = math.log(1e18) + 10.0  # hoisted: every theta evaluation counts terms


def theta_term_count(im_tau: float, shift: float = 0.0) -> int:
    """Last n a theta sum takes, ceil(shift + sqrt(_TAIL_LOG/(pi*Im(tau)))) + 1,
    for terms whose magnitude peaks within shift of n = 0 and falls as
    exp(-pi*Im(tau)*d**2) at a distance d from the peak: each dropped term
    lies below exp(-_TAIL_LOG) = 4.5e-23 of the leading one.

    In _theta_jets (shift 0) the terms decay like exp(-pi*Im(tau)*e),
    e ~ n**2.  D and F weight them by e and e**2, which also moves their
    largest term out to e = 1/(pi*Im(tau)) and 2/(pi*Im(tau)); relative to
    it the first dropped term is below 6.3e-21 for D and 2.2e-19 for F, and
    the whole tail, shrinking geometrically, below 1e-18 for Im tau >= 1e-4.
    Raises ValueError past MAX_THETA_TERMS."""
    n = shift + math.sqrt(_TAIL_LOG / (math.pi * im_tau))
    if not n <= MAX_THETA_TERMS:
        raise ValueError("Im tau=%g needs over %d theta terms" % (im_tau, MAX_THETA_TERMS))
    return math.ceil(n) + 1


def _theta_jets(x, n_max: int):
    """((S, D, F) for theta2, theta3, theta4) at the nome x = exp(pi*i*tau).

    Each theta is a prefactor P times S = sum c x**e, and D = sum e c x**e,
    F = sum e**2 c x**e run over the same terms.  theta3 and theta4 have
    P = 1 and share the powers x**(n*n), with c = 2 and c = 2 (-1)**n for
    n >= 1 (and the constant 1), so one sum split by the parity of n gives
    both.  theta2 = 2 x**(1/4) sum_{n>=0} x**(n*n + n): P = 2 x**(1/4) and
    e = n*n + n.  As d/dtau x**e = pi*i*e*x**e,

        theta'/theta = pi*i*(D/S + a),
        theta''/theta - (theta'/theta)**2 = (pi*i)**2 * (F/S - (D/S)**2),

    with a = 1/4 for theta2 and 0 otherwise.  Leaving theta2's 1/4 out of
    e keeps F/S - (D/S)**2 free of the cancellation 1/16 - (1/4)**2 that
    its full exponents (n + 1/2)**2 would bring.

    The powers come from x**((n+1)**2) = x**(n*n) * x**(2n+1) and
    x**((n+1)**2 + n+1) = x**(n*n + n) * x**(2n+2), whose step factors
    grow by x**2 each term, so exp is never called here.  x is a float on
    the imaginary axis and complex elsewhere; the same arithmetic serves
    both.  Sums run to n = n_max (theta_term_count).
    """
    x2 = x * x
    s2, d2, f2 = 1.0, 0.0, 0.0  # theta2 from n = 0
    s, d, f = [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]  # theta3/theta4 by n & 1, n >= 1
    p, dp = x, x * x2  # x**(n*n), x**(2n+1) at n = 1
    r, dr = x2, x2 * x2  # x**(n*n + n), x**(2n+2) at n = 1
    for n in range(1, n_max + 1):
        i, e = n & 1, n * n
        t = e * p
        s[i] += p
        d[i] += t
        f[i] += e * t
        p, dp = p * dp, dp * x2
        e += n
        t = e * r
        s2, d2, f2 = s2 + r, d2 + t, f2 + e * t
        r, dr = r * dr, dr * x2
    (se, so), (de, do), (fe, fo) = s, d, f
    return (
        (s2, d2, f2),
        (1.0 + 2 * (se + so), 2 * (de + do), 2 * (fe + fo)),
        (1.0 + 2 * (se - so), 2 * (de - do), 2 * (fe - fo)),
    )


def theta_log_jets(tau):
    """(values, r, v) of theta2, theta3, theta4 at tau, three triples: the
    thetas, theta'/theta = pi*i*r and (log theta)'' = (pi*i)**2 * v.

    With _theta_jets' sums, theta = P*S, r = D/S + a, v = F/S - (D/S)**2.
    On the imaginary axis the nome x = exp(pi*i*tau) is the float
    exp(-pi*Im(tau)) and all nine results are floats.  A vanishing S raises
    ZeroDivisionError.  x**(n*n) carries ~n**2/2 roundings and n**2 times
    the ~pi*Im(tau) ulp of x; as n**2 |x|**(n*n) is bounded, S, D and F
    err by a few ulp of their largest term.
    """
    t = tau_complex(tau)
    n = theta_term_count(t.imag)
    if t.real == 0:
        z, exp = -math.pi * t.imag, math.exp  # pi*i*tau, real on the axis
    else:  # Re tau reduced exactly: every theta jet has a period dividing 8
        z, exp = 1j * math.pi * complex(math.fmod(t.real, 8.0), t.imag), cmath.exp
    (s2, d2, f2), (s3, d3, f3), (s4, d4, f4) = _theta_jets(exp(z), n)
    try:
        r2, r3, r4 = d2 / s2, d3 / s3, d4 / s4
    except ZeroDivisionError:
        which = 2 if not s2 else 3 if not s3 else 4
        raise ZeroDivisionError("theta_%d vanishes at tau=%r" % (which, t)) from None
    values = (2 * exp(0.25 * z) * s2, s3, s4)
    return values, (r2 + 0.25, r3, r4), (f2 / s2 - r2 * r2, f3 / s3 - r3 * r3, f4 / s4 - r4 * r4)


def theta_numeric(which: int, tau):
    """Numeric (theta(tau), d theta/d tau) for theta2, theta3 or theta4,
    from theta_log_jets: theta' = pi*i*r*theta."""
    if which not in (2, 3, 4):
        raise ValueError("theta index must be 2, 3 or 4")
    values, r, _ = theta_log_jets(tau)
    value = values[which - 2]
    return value, 1j * math.pi * r[which - 2] * value


def _theta_char_sum(ch: ThetaCharacteristics):
    """(theta, d theta/ds) of the characteristic sum, from one pass over its
    terms; d/ds gives each term a factor 2*pi*i*(m+r).

    log|term(m)| is an inverted parabola in u = m + Re(r) with curvature
    pi*Im(sigma), peaking at u_peak; complex characteristics only move the
    peak.  So theta_term_count, shifted by |u_peak| + |Re(r)|, bounds m.
    """
    curvature = math.pi * ch.sigma.imag
    slope = -2 * math.pi * (ch.r.imag * ch.sigma.real + ch.s.imag)
    u_peak = slope / (2 * curvature)
    m_max = theta_term_count(ch.sigma.imag, abs(u_peak) + abs(ch.r.real))
    total = d_total = 0j
    for m in range(-m_max, m_max + 1):
        mr = m + ch.r
        term = cmath.exp(1j * math.pi * mr * mr * ch.sigma + 2j * math.pi * mr * ch.s)
        total += term
        d_total += mr * term
    return total, 2j * math.pi * d_total


def theta_char_eval(ch: ThetaCharacteristics) -> complex:
    """Numeric value of the two-characteristic theta sum."""
    return _theta_char_sum(ch)[0]


def theta_char_dz(ch: ThetaCharacteristics) -> complex:
    """d/ds of the theta sum, which is also its z-derivative at z = 0."""
    return _theta_char_sum(ch)[1]
