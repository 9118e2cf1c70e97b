"""Command-line interface: evaluation, integration and verification commands
with machine-readable JSON/CSV reports.

Exit codes: 0 all residuals within tolerance, 1 residual failure,
2 usage error or invalid value, 3 numeric failure (blow-up, vanishing
denominator, overflow, a result that is not finite)."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import re
import sys
from fractions import Fraction

from . import __version__

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

DEFAULT_SEED = 1729

# Tokens argparse should read as negative-number values.  Its own pattern
# misses "-0.3,0.5" and reads it as an option; no option of this CLI starts
# with "-<digit>", so the wider pattern is safe.
_NEGATIVE_VALUE = re.compile(r"^-\.?\d")


# Argument types: argparse turns their ValueError into a usage error (exit 2)
# naming the type, e.g. "invalid positive_float value: '-1'".  Every float
# a flag takes is finite: nan and inf are no valid input to any command.


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def positive_float(text: str) -> float:
    value = finite_float(text)
    if not value > 0:
        raise ValueError(text)
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


# Largest --order a command accepts.  Series memory and time grow with the
# order: eisenstein at 100000 takes about 2 s and 100 MiB.
MAX_ORDER = 100_000


def series_order(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    if value > MAX_ORDER:
        raise argparse.ArgumentTypeError("order %d exceeds the maximum %d" % (value, MAX_ORDER))
    return value


def _finite_floats(text: str, counts, expected: str) -> list:
    """The floats of a comma-separated list whose length is in counts."""
    parts = text.split(",")
    try:
        if len(parts) in counts:
            return [finite_float(p) for p in parts]
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("expected %s (got %r)" % (expected, text))


def parse_complex(text: str) -> complex:
    """'RE,IM' or a bare real part."""
    return complex(*_finite_floats(text, (1, 2), "finite RE,IM"))


def parse_triple(text: str):
    return tuple(_finite_floats(text, (3,), "three finite numbers"))


def parse_state(text: str):
    """Three complex components as six comma-separated floats."""
    v = _finite_floats(text, (6,), "six finite numbers")
    return tuple(complex(v[i], v[i + 1]) for i in range(0, 6, 2))


def _json_default(x):
    """The JSON form of the report values json has none for: a complex number
    is [re, im] and a Fraction 'p/q'."""
    if isinstance(x, complex):
        return [x.real, x.imag]
    return "%d/%d" % (x.numerator, x.denominator)


_INTERNAL_ARGS = ("handler", "out", "format", "group", "command")


def make_report(args, results: dict, ok: bool) -> dict:
    """The JSON report of one command: its name, the library version, every
    user-facing argument, the results, the verdict and, for commands taking
    --tol, the tolerance."""
    config = {k: v for k, v in vars(args).items() if k not in _INTERNAL_ARGS and v is not None}
    report = {
        "command": "%s %s" % (args.group, args.command),
        "version": __version__,
        "config": config,
        "results": results,
        "ok": bool(ok),
    }
    tolerance = getattr(args, "tol", None)
    if tolerance is not None:
        report["tolerance"] = tolerance
    return report


# Every handler returns (results, ok, columns): the results object of the JSON
# report, the verdict, and the named columns of the CSV form (None for the
# commands whose --format offers only json; see render_csv).
#
# Each handler imports the library modules it runs, so a command loads
# (and, without a bytecode cache, compiles) only those.

# -- dh ---------------------------------------------------------------------------


def cmd_dh_integrate(args):
    from . import dh
    initial = args.initial or tuple(dh.dh_theta_solution(args.t0))
    traj = dh.dh_integrate(initial, args.t0, args.t1, tol=args.tol,
                           max_step=args.max_step or math.inf)
    columns = [("tau", traj.ts), ("t", traj.states), ("err_est", traj.err_ests)]
    results = {
        "initial": initial,
        "steps": len(traj) - 1,
        "endpoint": {"tau": traj.ts[-1], "state": traj.states[-1]},
        "max_err_est": max(traj.err_ests),
    }
    return results, True, columns


def cmd_dh_theta(args):
    from . import dh
    state, rate = dh.dh_theta_jet(args.tau)
    residual = max(abs(a - b) for a, b in zip(rate, dh.dh_vector_field(state)))
    results = {"state": state, "ode_residual": residual}
    return results, residual < args.tol, None


# -- series -----------------------------------------------------------------------


def cmd_series_eisenstein(args):
    from . import qseries
    s = qseries.eisenstein_series(args.k, args.order)
    return {"variable": "q", "series": s.to_json_dict()}, True, None


def cmd_series_theta(args):
    from . import qseries
    s = qseries.theta_series(args.which, args.order)
    return {"variable": "w", "series": s.to_json_dict()}, True, None


# -- verify -----------------------------------------------------------------------

# The randomized checks test every sample; their reports list the first three.


def cmd_verify_ramanujan(args):
    from . import dh, qseries, ramanujan
    from .sampling import random_state
    residuals = ramanujan.ramanujan_series_residual(args.order)
    series_ok = all(r.is_zero() for r in residuals)

    rng = random.Random(args.seed)
    surrogate = Fraction(7, 3)  # a rational scale standing in for 2*pi*i
    samples = []
    exact_ok = True
    for i in range(args.samples):
        t = random_state(rng)
        res = ramanujan.conjugacy_residual(t, surrogate)
        exact_ok &= res == (0, 0, 0)
        if i < 3:
            E = ramanujan.dh_to_eisenstein(t, surrogate)
            samples.append({"t": t, "E": E, "residual": res})

    # the theta closed form mapped to (E2, E4, E6) against the q-series,
    # relative to the largest E_k since E6(i) = 0; q(1.3i)**31 < 1e-100
    state = dh.dh_theta_solution(1.3j)
    got = ramanujan.dh_to_eisenstein(state)
    want = [qseries.eval_series(qseries.eisenstein_series(k, 30), 1.3j, "q") for k in (2, 4, 6)]
    numeric = max(abs(a - b) for a, b in zip(got, want)) / max(map(abs, want))
    numeric_ok = numeric < args.tol

    ok = series_ok and exact_ok and numeric_ok
    results = {
        "series_residuals_zero": series_ok,
        "series_order": args.order,
        "conjugacy_exact_zero": exact_ok,
        "conjugacy_samples": samples,
        "theta_solution_check": {
            "tau": 1.3j,
            "t": state,
            "E": got,
            "E_series": want,
            "residual": numeric,
        },
    }
    return results, ok, None


def cmd_verify_chazy(args):
    from . import frobenius
    exact_ok = frobenius.chazy_e2_exact(args.order).is_zero()
    numeric = {}
    numeric_ok = True
    for tau in (1j, 1.3j):
        r = abs(frobenius.chazy_residual(frobenius.chazy_gamma_jet(tau)))
        numeric["tau=%s" % tau] = r
        numeric_ok &= r < args.tol
    ok = exact_ok and numeric_ok
    results = {
        "series_residual_zero": exact_ok,
        "series_order": args.order,
        "numeric_residuals": numeric,
    }
    return results, ok, None


def cmd_verify_gauss_manin(args):
    from . import dh, gauss_manin
    from .sampling import random_distinct_state
    rng = random.Random(args.seed)
    samples = []
    ok = True
    for i in range(args.samples):
        t = random_distinct_state(rng)
        residual = gauss_manin.verify_R_property(t)
        res_max = max(abs(x) for row in residual for x in row)
        ok &= res_max == 0
        if i < 3:
            contraction = gauss_manin.gm_contract(t, dh.dh_vector_field(t))
            samples.append({"t": t, "contraction": contraction, "residual_max_abs": res_max})
    results = {"samples_checked": args.samples, "all_exact": ok, "samples": samples}
    return results, ok, None


def cmd_verify_darboux(args):
    from . import dh
    from .sampling import random_state
    rng = random.Random(args.seed)
    ok = True
    samples = []
    for i in range(args.samples):
        t = random_state(rng)
        r = dh.darboux_condition_residual(t)
        ok &= r.first == 0 and r.second == 0 and r.common == 2 * t[0] * t[1] * t[2]
        if i < 3:
            samples.append({"t": t, "residual": [r.first, r.second], "common": r.common})
    results = {"samples_checked": args.samples, "all_exact": ok, "samples": samples}
    return results, ok, None


# -- bianchi ----------------------------------------------------------------------


def cmd_bianchi_flow(args):
    from . import bianchi
    traj = bianchi.omega_theta_flow(
        args.initial, args.t0, args.t1, tol=args.tol, max_step=args.max_step or math.inf
    )
    omegas = [y[:3] for y in traj.states]  # each state is (*Omega, *A)
    columns = [("t", traj.ts), ("omega", omegas), ("err_est", traj.err_ests)]
    results = {
        "steps": len(traj) - 1,
        # complex, so the JSON keeps its [re, im] pairs for a real flow
        "endpoint": {"t": traj.ts[-1], "omega": [complex(v) for v in omegas[-1]]},
        "max_err_est": max(traj.err_ests),
    }
    return results, True, columns


def cmd_bianchi_flat_family(args):
    from . import bianchi
    # numpy.linspace's arithmetic: t0 + i*step, the last point exactly t1
    n = args.steps
    step = (args.t1 - args.t0) / max(n - 1, 1)
    ts = [args.t0 + i * step for i in range(n)]
    if n > 1:
        ts[-1] = args.t1
    omegas = []
    residuals = []
    factors = []
    for t in ts:
        # the family's analytic rate against the Omega flow's right-hand side
        state, rate = bianchi.flat_family_jet(t, args.q0)
        omegas.append(state.omega)
        field = bianchi.coupled_field(state.omega, state.a)[0]
        residuals.append(float(max(abs(a - b) for a, b in zip(rate, field))))
        factors.append(float(bianchi.flat_conformal_factor(state.omega, t, args.q0, args.C)))
    columns = [("t", ts), ("omega", omegas), ("residual", residuals), ("F", factors)]
    worst = max(residuals)
    results = {"t_grid": ts, "max_residual": worst, "q0": args.q0, "C": args.C}
    return results, worst < args.tol, columns


def cmd_bianchi_verify_constraint(args):
    from . import bianchi, qseries
    omega = args.omega if args.omega else bianchi.flat_family(args.t, args.q0).omega
    lhs, rhs = bianchi.constraint_lhs_rhs(omega, args.t)
    residual = lhs - rhs
    scale = max(1.0, abs(rhs))
    satisfied = abs(residual) < args.tol * scale

    # the kernel's theta prefactors, which the constraint takes, agree with
    # exact series holding every term the kernel sums, n <= N: w**(4 N**2)
    # for theta3/theta4 and w**((2N + 1)**2) for theta2, capped at MAX_ORDER
    # (exactly, where both underflow to 0.0 at large t)
    tau = 1j * args.t
    order = min((2 * qseries.theta_term_count(args.t) + 1) ** 2, MAX_ORDER)
    theta_ok = True
    for which, got in zip((2, 3, 4), qseries.theta_log_jets(tau)[0]):
        want = qseries.eval_series(qseries.theta_series(which, order), tau)
        theta_ok &= abs(got - want) <= 1e-12 * abs(want)

    ok = satisfied and theta_ok
    results = {
        "omega": omega,
        "lhs": lhs,
        "rhs": rhs,
        "residual": residual,
        "constraint_satisfied": satisfied,
        "theta_prefactors_ok": theta_ok,
    }
    return results, ok, None


# -- frobenius ----------------------------------------------------------------------


def cmd_frobenius_wdvv(args):
    from . import frobenius
    jet = frobenius.modular_example_jet(args.x, frobenius.chazy_gamma_jet(args.tau))
    residual = frobenius.wdvv_residual_3d(frobenius.potential_third_partials(jet))
    results = {"wdvv_residual": residual, "x": args.x}
    return results, residual < args.tol, None


def cmd_frobenius_cubic(args):
    from . import dh, frobenius
    coeffs = frobenius.dh_cubic(frobenius.chazy_gamma_jet(args.tau))
    theta = dh.dh_theta_solution(args.tau)
    residual = frobenius.root_residual(coeffs, theta)
    results = {
        "cubic_coefficients": [complex(c) for c in coeffs],
        "root_residual": residual,
        "theta_solution": theta,
    }
    return results, residual < args.tol, None


# -- wiring ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halphen",
        description="Darboux-Halphen flows: evaluation, integration and verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="group", required=True)
    groups = {name: top.add_parser(name).add_subparsers(dest="command", required=True)
              for name in ("dh", "series", "verify", "bianchi", "frobenius")}

    def add(group, name, handler, formats=("json",)):
        """The subparser of GROUP NAME; --format takes formats, the first the default."""
        p = groups[group].add_parser(name)
        p._negative_number_matcher = _NEGATIVE_VALUE  # no public hook for this
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=formats, default=formats[0],
                       help="report format (default %(default)s)")
        p.add_argument("--out", default=None, help="write the report to a file")
        return p

    p = add("dh", "integrate", cmd_dh_integrate, formats=("csv", "json"))
    p.add_argument("--t0", type=parse_complex, required=True, help="segment start RE,IM")
    p.add_argument("--t1", type=parse_complex, required=True, help="segment end RE,IM")
    p.add_argument("--initial", type=parse_state, default=None,
                   help="initial state as 6 floats (default: theta solution at t0)")
    p.add_argument("--tol", type=positive_float, default=1e-10)
    p.add_argument("--max-step", type=positive_float)

    p = add("dh", "theta", cmd_dh_theta)
    p.add_argument("--tau", type=parse_complex, required=True)
    p.add_argument("--tol", type=positive_float, default=1e-6)

    p = add("series", "eisenstein", cmd_series_eisenstein)
    p.add_argument("--k", type=int, choices=(2, 4, 6), required=True)
    p.add_argument("--order", type=series_order, required=True)

    p = add("series", "theta", cmd_series_theta)
    p.add_argument("--which", type=int, choices=(2, 3, 4), required=True)
    p.add_argument("--order", type=series_order, required=True)

    p = add("verify", "ramanujan", cmd_verify_ramanujan)
    p.add_argument("--order", type=series_order, default=30)
    p.add_argument("--samples", type=positive_int, default=50)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=positive_float, default=1e-9)

    # --help lists a group's commands in the order they are added here, and
    # chazy comes second in both verify and frobenius
    p = add("frobenius", "wdvv", cmd_frobenius_wdvv)
    p.add_argument("--tau", type=parse_complex, required=True)
    p.add_argument("--x", type=parse_complex, default=1 + 0j)
    p.add_argument("--tol", type=positive_float, default=1e-8)

    for group in ("verify", "frobenius"):
        p = add(group, "chazy", cmd_verify_chazy)
        p.add_argument("--order", type=series_order, default=30)
        p.add_argument("--tol", type=positive_float, default=1e-8)

    p = add("verify", "gauss-manin", cmd_verify_gauss_manin)
    p.add_argument("--samples", type=positive_int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("verify", "darboux", cmd_verify_darboux)
    p.add_argument("--samples", type=positive_int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("bianchi", "flow", cmd_bianchi_flow, formats=("csv", "json"))
    p.add_argument("--t0", type=finite_float, required=True)
    p.add_argument("--t1", type=finite_float, required=True)
    p.add_argument("--initial", type=parse_triple, required=True, help="Omega1,Omega2,Omega3")
    p.add_argument("--tol", type=positive_float, default=1e-10)
    p.add_argument("--max-step", type=positive_float)

    p = add("bianchi", "flat-family", cmd_bianchi_flat_family, formats=("csv", "json"))
    p.add_argument("--t0", type=finite_float, default=0.7)
    p.add_argument("--t1", type=finite_float, default=2.0)
    p.add_argument("--steps", type=positive_int, default=14)
    p.add_argument("--q0", type=finite_float, required=True)
    p.add_argument("--C", type=finite_float, default=1.0)
    p.add_argument("--tol", type=positive_float, default=1e-8)

    p = add("bianchi", "verify-constraint", cmd_bianchi_verify_constraint)
    p.add_argument("--t", type=finite_float, required=True)
    p.add_argument("--omega", type=parse_triple, default=None,
                   help="candidate Omega triple (default: flat family at --q0)")
    p.add_argument("--q0", type=finite_float, default=0.3)
    p.add_argument("--tol", type=positive_float, default=1e-10)

    p = add("frobenius", "cubic", cmd_frobenius_cubic)
    p.add_argument("--tau", type=parse_complex, required=True)
    p.add_argument("--tol", type=positive_float, default=1e-8)

    return parser


def _cell(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite CSV cell")
    return repr(x)


def _csv_fields(name: str, value):
    """Header names and cells of one value: a real is NAME, a complex number
    NAME_re,NAME_im and a triple of complex numbers NAME1_re,...,NAME3_im.
    A cell that is not finite raises ValueError."""
    if isinstance(value, complex):
        return [name + "_re", name + "_im"], [_cell(value.real), _cell(value.imag)]
    if isinstance(value, (int, float)):
        return [name], [_cell(float(value))]
    fields = [_csv_fields("%s%d" % (name, i), complex(v)) for i, v in enumerate(value, 1)]
    return [h for header, _ in fields for h in header], [c for _, cells in fields for c in cells]


def render_csv(columns) -> str:
    """The CSV form of a tabular report: columns is a list of (name, values)
    with one value per row, and every cell is a float repr."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for i, row in enumerate(zip(*(values for _, values in columns))):
        fields = [_csv_fields(name, v) for (name, _), v in zip(columns, row)]
        if i == 0:
            writer.writerow([h for header, _ in fields for h in header])
        writer.writerow([c for _, cells in fields for c in cells])
    return buf.getvalue()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        results, ok, columns = args.handler(args)
    except ValueError as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC

    # reports are strict JSON (RFC 8259 has no NaN or Infinity) and CSV
    # cells finite floats; a value outside both is a numeric failure
    try:
        if args.format == "csv":
            payload = render_csv(columns)
        else:
            report = make_report(args, results, ok)
            payload = json.dumps(report, indent=2, sort_keys=True, allow_nan=False,
                                 default=_json_default) + "\n"
    except ValueError:
        print("numeric failure: the report holds a value that is not finite", file=sys.stderr)
        return EXIT_NUMERIC

    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(payload)
        except OSError as exc:
            print("invalid input: cannot write %s: %s" % (args.out, exc.strerror or exc),
                  file=sys.stderr)
            return EXIT_USAGE
        print("wrote %s (%s)" % (args.out, "ok" if ok else "RESIDUAL FAILURE"))
    else:
        sys.stdout.write(payload)
    return EXIT_OK if ok else EXIT_RESIDUAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
