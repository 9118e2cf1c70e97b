"""Adaptive embedded Runge-Kutta integration for real or complex systems.

Dormand-Prince 8(5,3), the eighth-order pair of Prince & Dormand as DOP853:
FSAL, Hairer's combined fifth/third-order error estimate and PI step-size
control (Prince & Dormand, J. Comput. Appl. Math. 7 (1981) 67-75; Hairer,
Norsett & Wanner, Solving ODEs I, II.10).  A state between mesh points is
one more step of the same method, from the mesh point before it (II.6).  The
state vector may be complex, and the integration runs along the straight
segment t0 -> t1, real or complex, in real steps of arc length, to one
tolerance, absolute and relative; arguments out of range are refused before f
is called.  Blow-up - a non-finite state or overflow, or a step size below
machine resolution - raises IntegrationBlowUp instead of silently clipping, and
so does a spent budget of MAX_STEPS attempted steps (stiffness or a long span,
not a blow-up).

Pure Python: states are tuples of float for a real flow, else of complex, and
f(t, y) receives such a tuple and may return any sequence of numbers of the
state's length; a real flow steps bit for bit as its complex twin.  The mesh
keeps whole states, so a flow continues from its last one.  For each length,
one attempted step is generated as straight-line code on scalars, as DOP853
writes it: per component, each stage sum term by term, added left to right in
stage order (explicit +, not sum(), which compensates float sums on Python
3.12+), and the error sums in one pass.  f is called twice at the start and
twelve times per attempted step, and RkSolution.at calls it twelve times for
each state it takes between mesh points.
"""

from __future__ import annotations

import bisect
import cmath
import math
import numbers
import sys

__all__ = ["IntegrationBlowUp", "RkSolution", "integrate"]

# Dormand-Prince 8(5,3) tableau in DOP853's stage numbering.  Stages 0-11
# make a step; stage 12 is f at the new point, where row 12 of A (the
# weights B) puts it, and FSAL makes it the next step's stage 0.  Rows are
# sparse, {stage: coefficient}.
C = (
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
)
A = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
)
B = A[12]
# Eighth-order weights minus the embedded fifth-order ones (E5) and minus
# the third-order ones (E3, the BHH weights of DOP853).
E5 = {
    0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
    6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
    8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1,
}
_BHH = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
        11: 0.220588235294117647058823529412e-1}
E3 = {j: b - _BHH.get(j, 0.0) for j, b in B.items()}

_ATTEMPTS: dict = {}


def _attempt(n: int):
    """The DOP853 attempt for states of n components, generated once per n.
    attempt(f, t, y, f0, h), f0 = f(t, y), is the eighth-order state y_new at
    t + h, h complex on a complex segment, after 11 calls of f; given tol it
    then calls f there and returns (y_new, f(t + h, y_new), n5, n3, sq), or
    None if y_new or a stage derivative is not finite.  nX sums |eX * w|**2
    and sq |e5|**2 over the components, eX the rows EX of the derivatives and
    w = 1/(tol + tol*max(|y|, |y_new|)); abs is this module's, looked up per call."""
    attempt = _ATTEMPTS.get(n)
    if attempt is None:
        comps = range(n)

        def row(coeffs, j):  # coefficients by repr, which round-trips a double
            return " + ".join("%r * k%d_%d" % (a, s, j) for s, a in coeffs.items())

        def names(stem):
            return "".join("%s%d, " % (stem, j) for j in comps)

        body = ["%s= y" % names("y"), "%s= f0" % names("k0_")]
        body += ["%s= f(t + %r * h, (%s))" % (names("k%d_" % i), C[i], "".join(
            "y%d + h * (%s), " % (j, row(A[i], j)) for j in comps)) for i in range(1, 12)]
        body += ["z%d = y%d + h * (%s)" % (j, j, row(B, j)) for j in comps]
        body += ["y_new = (%s)" % names("z"), "if tol is None:", "    return y_new",
                 "%s= k12 = f(t + h, y_new)" % names("k12_"),
                 "if not all(map(cmath.isfinite, (%s%s))):" % (
                     names("z"), "".join(names("k%d_" % i) for i in range(1, 13))),
                 "    return None", "n5 = n3 = sq = 0.0"]
        for j in comps:
            body += ["w = 1.0 / (tol + tol * max(abs(y%d), abs(z%d)))" % (j, j),
                     "e = %s" % row(E5, j), "r5 = abs(e * w)",
                     "r3 = abs((%s) * w)" % row(E3, j),
                     "n5 += r5 * r5", "n3 += r3 * r3", "sq += abs(e) ** 2"]
        body.append("return y_new, k12, n5, n3, sq")
        namespace: dict = {}
        exec("def attempt(f, t, y, f0, h, tol=None):\n    "
             + "\n    ".join(body), globals(), namespace)
        _ATTEMPTS[n] = attempt = namespace["attempt"]
    return attempt


SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
BETA = 0.04  # PI stabilisation
EXPONENT = 1 / 8 - 0.2 * BETA
MAX_STEPS = 200_000


class IntegrationBlowUp(ArithmeticError):
    """Raised when the solution leaves the resolvable regime, or when the
    step budget is spent.  Attributes carry the last trusted t, in the
    caller's variable, so callers can report how far the integration got,
    and what it cost: calls of f and rejected steps."""

    def __init__(self, message: str, t_reached, rhs_evals: int, steps_rejected: int):
        super().__init__(message)
        self.t_reached = t_reached
        self.rhs_evals = rhs_evals
        self.steps_rejected = steps_rejected


class RkSolution:
    """Accepted mesh ts on the segment, in the caller's variable and ending
    at t1 itself; the whole states there; per-step local error estimates;
    the length h of each accepted step; and the right-hand side f, with
    which at() steps between mesh points and integrate(f, ts[-1], t2,
    states[-1], tol) continues the flow.

    rhs_evals counts the calls of f, at()'s included, and steps_rejected the
    attempted steps the controller refused; the accepted ones are the steps."""

    __slots__ = ("ts", "states", "err_ests", "steps", "f", "rhs_evals", "steps_rejected")

    def __init__(self, ts, states, err_ests, steps, f, rhs_evals, steps_rejected):
        self.ts = ts
        self.states = states
        self.err_ests = err_ests
        self.steps = steps
        self.f = f
        self.rhs_evals = rhs_evals
        self.steps_rejected = steps_rejected

    @property
    def omegas(self):
        """Read-only alias of states, the name the benchmark reads the Omega
        flow's under; it compares their first three components, the Omega."""
        return self.states

    def __len__(self):
        return len(self.ts)

    def at(self, t) -> tuple:
        """State at a point t of the integrated segment.  At a mesh point or
        the end of the mesh it is that mesh state; elsewhere it is one step
        of the method from the last mesh point before t to t, 12 calls of f
        and nothing kept: an eighth-order interpolant which meets both ends
        of the accepted step to rounding."""
        t0, t1 = self.ts[0], self.ts[-1]
        span = abs(t1 - t0)
        u = (t1 - t0) / span
        s = (t - t0) / u  # the distance from t0, real on the segment
        if not (abs(s.imag) <= 1e-9 * span and -1e-12 * span <= s.real <= span * (1 + 1e-12)):
            raise ValueError("t=%s is not on the integrated segment %s -> %s" % (t, t0, t1))
        idx = max(bisect.bisect_right(self.ts, s.real, key=lambda x: ((x - t0) / u).real) - 1, 0)
        t_old, y_old = self.ts[idx], self.states[idx]
        if idx == len(self.steps) or t == t_old:
            return y_old
        self.rhs_evals += 12
        return _attempt(len(y_old))(self.f, t_old, y_old, self.f(t_old, y_old), t - t_old)


def _rms_scaled(e, scale) -> float:
    """Root mean square of e/scale.  Each e is multiplied by 1/scale rather
    than divided, as numpy's complex division rounds, and so are the error
    sums of _attempt: real and imaginary-axis flows then step exactly as the
    numpy reference implementation in the tests does."""
    total = 0.0
    for a, s in zip(e, scale):
        r = abs(a * (1.0 / s))
        total += r * r
    return math.sqrt(total / len(scale))


def _initial_step(f, t0, y0, f0, u, span, tol):
    """Hairer's first step on the scale tol + tol*|y0|: at most 1e-4*span for small y0 or f0."""
    scale = [tol + tol * abs(v) for v in y0]
    d0 = _rms_scaled(y0, scale)
    d1 = _rms_scaled(f0, scale)
    h0 = 1e-6 * span if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = tuple(v + h0 * u * d for v, d in zip(y0, f0))
    f1 = f(t0 + h0 * u, y1)
    d2 = _rms_scaled([a - b for a, b in zip(f1, f0)], scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6 * span, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, span)


def integrate(f, t0, t1, y0, tol: float, max_step: float = math.inf) -> RkSolution:
    """Integrate dy/dt = f(t, y) along the straight segment t0 -> t1, real or
    complex, either way: each step is a real length h in (0, |t1 - t0|],
    at most max_step, along u = (t1 - t0)/|t1 - t0| (1.0 for real t0 < t1),
    with stage i at t + C[i]*h*u.  The last mesh point is t1 exactly.

    f receives the state as a tuple, of float if the segment, y0 and f(t0, y0)
    are all real (numbers.Real), else of complex, and may return any sequence of
    numbers of the same length; ValueError if f(t0, y0) has another, and before
    f is called on a span below h_min = 16*eps*max(|t0|, |t1|, 1), a tol not
    finite or at most 10*eps, an empty or non-finite y0, or a max_step below
    h_min or too small for MAX_STEPS steps to cover the span.  tol is the
    absolute and the relative tolerance: a step is accepted when Hairer's
    combined error norm (below) is at most 1 with weights tol + tol*max(|y|,
    |y_new|).  err_ests records, for each accepted step, the root mean square
    of the error vector that norm accepted, so each is at most tol +
    tol*max|y| over the step's two ends.  err_ests hold floats and states
    tuples of one type, so callers need not convert them.  The budget of
    MAX_STEPS attempted steps is checked before each attempt, so arriving on
    the last one succeeds.
    """
    kind = complex if isinstance(t1 - t0, complex) else float
    t0, t1 = kind(t0), kind(t1)
    span = abs(t1 - t0)
    h_min = 16 * sys.float_info.epsilon * max(abs(t0), abs(t1), 1.0)
    if not h_min <= span < math.inf:  # a shorter span takes no step
        raise ValueError("t0 and t1 must be finite and distinct, at least %.3g apart" % h_min)
    if not 10 * sys.float_info.epsilon < tol < math.inf:  # DOP853's own input check
        raise ValueError("tol=%g must be finite and exceed 10*eps=%.2g, the least DOP853 can "
                         "meet" % (tol, 10 * sys.float_info.epsilon))
    real = kind is float and all(isinstance(v, numbers.Real) for v in y0)
    y = tuple(map(float if real else complex, y0))
    n = len(y)
    if not n:
        raise ValueError("the state has no components")
    if not all(map(cmath.isfinite, y)):
        raise ValueError("the initial state %s is not finite" % (y,))
    if not span <= MAX_STEPS * max_step:  # also a max_step of 0, below 0 or NaN
        raise ValueError("max_step too small: the span takes %.3g steps, more than MAX_STEPS=%d"
                         % (span / max_step if max_step > 0 else math.inf, MAX_STEPS))
    if max_step < h_min:  # no step would be long enough to take
        raise ValueError("max_step=%g is below the step resolution %.3g" % (max_step, h_min))
    u = (t1 - t0) / span
    t = t0
    f_cur = f(t, y)
    if len(f_cur) != n:
        raise ValueError("f returned %d components for a state of %d" % (len(f_cur), n))
    if not all(map(cmath.isfinite, f_cur)):
        raise IntegrationBlowUp("non-finite derivative at the initial point", t, 1, 0)
    if real and not all(isinstance(v, numbers.Real) for v in f_cur):
        y = tuple(map(complex, y))  # f leaves the real line, so the flow is complex
    attempt = _attempt(n)
    ts = [t]
    states = [y]
    err_ests = [0.0]
    steps: list[float] = []
    err_prev = 1e-4
    rejected = False
    attempts = 0
    remaining = span

    def blow_up(message):
        """IntegrationBlowUp at the last accepted point, with the counts so far."""
        return IntegrationBlowUp(message, t, 2 + 12 * attempts, attempts - len(steps))

    def overflow(exc):  # a float operation out of range
        return blow_up("arithmetic overflow at t=%s (%s): solution blow-up"
                       % (t, exc.args[-1] if exc.args else exc))

    try:  # on a tiny span the guess, at most 100 * 1e-6 * span, may lie below h_min
        h = min(max(_initial_step(f, t, y, f_cur, u, span, tol), h_min), max_step)
    except ArithmeticError as exc:  # d2 / h0 once h0 underflows to 0
        raise overflow(exc) from None

    while remaining:
        if attempts == MAX_STEPS:
            raise blow_up("step budget exhausted at t=%s after MAX_STEPS=%d steps: the flow "
                          "may be stiff or the span too long" % (t, MAX_STEPS))
        h = min(h, remaining, max_step)
        if h < h_min:
            raise blow_up("step size underflow at t=%s (|y|=%g): solution blow-up"
                          % (t, max(map(abs, y))))
        attempts += 1
        try:
            result = attempt(f, t, y, f_cur, h * u, tol)
        except ArithmeticError as exc:  # abs(e) ** 2 past the largest double
            raise overflow(exc) from None
        if result is None:
            raise blow_up("non-finite state at t=%s: solution blow-up" % (t + h * u))
        y_new, f_new, n5, n3, sq = result
        # h n5 / sqrt(n (n5 + 0.01 n3)) is the RMS over the weights of
        # rho h e5, rho = sqrt(n5 / (n5 + 0.01 n3)); err_est is the plain RMS
        # of that vector, at most err * max(weight)
        if n5 == 0.0:
            err = err_est = 0.0
        else:
            denom = n5 + 0.01 * n3
            err = h * n5 / math.sqrt(n * denom)
            err_est = h * math.sqrt(n5 / denom) * math.sqrt(sq / n)
        if err <= 1.0:
            steps.append(h)
            t = t + h * u
            # measured along u, as t + h*u may round off the segment; a
            # sliver below machine resolution, or a step past t1, is arrival
            remaining = ((t1 - t) / u).real
            if remaining < h_min:
                t, remaining = t1, 0.0
            y = y_new
            f_cur = f_new  # FSAL
            ts.append(t)
            states.append(y)
            err_ests.append(err_est)
            factor = MAX_FACTOR if err == 0 else SAFETY * err**-EXPONENT * err_prev**BETA
            factor = min(MAX_FACTOR, max(MIN_FACTOR, factor))
            if rejected:
                factor = min(1.0, factor)
            h *= factor
            err_prev, rejected = max(err, 1e-4), False
        else:
            rejected = True
            h *= min(1.0, max(MIN_FACTOR, SAFETY * err**-EXPONENT))

    return RkSolution(ts, states, err_ests, steps, f, 2 + 12 * attempts, attempts - len(steps))
