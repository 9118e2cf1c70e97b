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

from . import __version__, bianchi, dh, frobenius, gauss_manin, qseries, ramanujan
from .rk import IntegrationBlowUp
from .sampling import random_distinct_state, random_state

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


def nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


# Largest --order a command accepts.  Series memory and time grow with the
# order: eisenstein at 100000 takes about 2 s and 100 MiB.
MAX_ORDER = 100_000


def series_order(text: str) -> int:
    value = nonneg_int(text)
    if value > MAX_ORDER:
        raise argparse.ArgumentTypeError("order %d exceeds the maximum %d" % (value, MAX_ORDER))
    return value


def parse_complex(text: str) -> complex:
    """'RE,IM' or a bare real part."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(finite_float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(finite_float(parts[0]), finite_float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("expected finite RE,IM (got %r)" % text)


def parse_triple(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated values")
    try:
        return tuple(finite_float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("expected three finite numbers (got %r)" % text)


def parse_state(text: str):
    """Three complex components as six comma-separated floats."""
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError("expected six comma-separated floats")
    try:
        vals = [finite_float(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError("expected finite numbers (got %r)" % text)
    return tuple(complex(vals[2 * i], vals[2 * i + 1]) for i in range(3))


def jsonable(x):
    """Deterministic JSON encoding: complex -> [re, im], Fraction -> 'p/q'."""
    if isinstance(x, Fraction):
        return "%d/%d" % (x.numerator, x.denominator)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


_INTERNAL_ARGS = ("handler", "out", "format", "fmt_default", "command_name", "group", "command")


def make_report(args, results: dict, ok: bool) -> dict:
    """The JSON report of one command: its name, the library version, every
    user-facing argument, the results, the verdict and, for commands taking
    --tol, the tolerance."""
    config = {
        k: jsonable(v)
        for k, v in sorted(vars(args).items())
        if k not in _INTERNAL_ARGS and v is not None
    }
    report = {
        "command": args.command_name,
        "version": __version__,
        "config": config,
        "results": jsonable(results),
        "ok": bool(ok),
    }
    tolerance = getattr(args, "tol", None)
    if tolerance is not None:
        report["tolerance"] = tolerance
    return report


# Every handler returns (results, ok, columns): the results object of the JSON
# report, the verdict, and the named columns of the CSV form (None for
# commands without one; see render_csv).

# -- dh ---------------------------------------------------------------------------


def cmd_dh_integrate(args):
    initial = args.initial or tuple(dh.dh_theta_solution(args.t0))
    traj = dh.dh_integrate(initial, args.t0, args.t1, tol=args.tol,
                           max_step=args.max_step or math.inf)
    columns = [("tau", traj.ts), ("t", traj.states), ("err_est", traj.err_ests)]
    results = {
        "initial": list(initial),
        "steps": len(traj) - 1,
        "endpoint": {"tau": traj.ts[-1], "state": list(traj.states[-1])},
        "max_err_est": max(traj.err_ests),
    }
    return results, True, columns


def cmd_dh_theta(args):
    state, rate = dh.dh_theta_jet(args.tau)
    residual = max(abs(a - b) for a, b in zip(rate, dh.dh_vector_field(state)))
    results = {"state": list(state), "ode_residual": residual}
    return results, residual < args.tol, None


# -- series -----------------------------------------------------------------------


def cmd_series_eisenstein(args):
    s = qseries.eisenstein_series(args.k, args.order)
    return {"variable": "q", "series": s.to_json_dict()}, True, None


def cmd_series_theta(args):
    s = qseries.theta_series(args.which, args.order)
    return {"variable": "w", "series": s.to_json_dict()}, True, None


# -- verify -----------------------------------------------------------------------


def cmd_verify_ramanujan(args):
    residuals = ramanujan.ramanujan_series_residual(args.order)
    series_ok = all(r.is_zero() for r in residuals)

    rng = random.Random(args.seed)
    surrogate = ramanujan.MapConstants.with_scale(Fraction(7, 3))
    samples = []
    exact_ok = True
    for _ in range(args.samples):
        t = random_state(rng)
        res = ramanujan.conjugacy_residual(t, surrogate)
        exact_ok &= res == (0, 0, 0)
        samples.append(
            {
                "t": list(t),
                "E": list(ramanujan.dh_to_eisenstein(t, surrogate)),
                "residual": list(res),
            }
        )

    state = dh.dh_theta_solution(1.3j)
    numeric = ramanujan.conjugacy_residual(state)
    numeric_norm = max(abs(r) for r in numeric)
    numeric_ok = numeric_norm < args.tol

    ok = series_ok and exact_ok and numeric_ok
    results = {
        "series_residuals_zero": series_ok,
        "series_order": args.order,
        "conjugacy_exact_zero": exact_ok,
        "conjugacy_samples": samples[:3],
        "theta_solution_check": {
            "tau": 1.3j,
            "t": list(state),
            "E": list(ramanujan.dh_to_eisenstein(state)),
            "residual": list(numeric),
            "residual_norm": numeric_norm,
        },
    }
    return results, ok, None


def cmd_verify_chazy(args):
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
    rng = random.Random(args.seed)
    samples = []
    ok = True
    for _ in range(args.samples):
        t = random_distinct_state(rng)
        contraction = gauss_manin.gm_contract(t, dh.dh_vector_field(t))
        residual = gauss_manin.verify_R_property(t)
        res_max = max(abs(x) for row in residual for x in row)
        ok &= res_max == 0
        samples.append(
            {"t": list(t), "contraction": [list(r) for r in contraction],
             "residual_max_abs": res_max}
        )
    results = {"samples_checked": args.samples, "all_exact": ok, "samples": samples[:3]}
    return results, ok, None


def cmd_verify_darboux(args):
    rng = random.Random(args.seed)
    ok = True
    samples = []
    for _ in range(args.samples):
        t = random_state(rng)
        r = dh.darboux_condition_residual(t)
        good = r.first == 0 and r.second == 0 and r.common == 2 * t[0] * t[1] * t[2]
        ok &= good
        samples.append({"t": list(t), "residual": [r.first, r.second], "common": r.common})
    results = {"samples_checked": args.samples, "all_exact": ok, "samples": samples[:3]}
    return results, ok, None


# -- bianchi ----------------------------------------------------------------------


def cmd_bianchi_flow(args):
    traj = bianchi.omega_theta_flow(
        args.initial, args.t0, args.t1, tol=args.tol, max_step=args.max_step or math.inf
    )
    columns = [("t", traj.ts), ("omega", traj.states), ("err_est", traj.err_ests)]
    results = {
        "steps": len(traj) - 1,
        "endpoint": {"t": traj.ts[-1], "omega": list(traj.states[-1])},
        "max_err_est": max(traj.err_ests),
    }
    return results, True, columns


def cmd_bianchi_flat_family(args):
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
        field = bianchi.omega_field(state.omega, t)
        residuals.append(float(max(abs(a - b) for a, b in zip(rate, field))))
        factors.append(float(bianchi.flat_conformal_factor(state, t, args.q0, args.C)))
    columns = [("t", ts), ("omega", omegas), ("residual", residuals), ("F", factors)]
    worst = max(residuals)
    results = {"t_grid": ts, "max_residual": worst, "q0": args.q0, "C": args.C}
    return results, worst < args.tol, columns


def cmd_bianchi_verify_constraint(args):
    omega = args.omega if args.omega else bianchi.flat_family(args.t, args.q0).omega
    lhs, rhs = bianchi.constraint_lhs_rhs(omega, args.t)
    residual = lhs - rhs
    scale = max(1.0, abs(rhs))
    satisfied = abs(residual) < args.tol * scale

    # structural checks: the left side is quadratic in Omega, and the theta
    # prefactors agree with the exact series evaluations (exactly, where
    # both underflow to 0.0 at large t).
    lhs2, rhs2 = bianchi.constraint_lhs_rhs(tuple(2 * o for o in omega), args.t)
    quad_ok = abs(lhs2 - 4 * lhs) < 1e-9 * max(1.0, abs(lhs)) and rhs2 == rhs
    theta_ok = True
    for which, (r, s) in {2: (0.5, 0.0), 3: (0.0, 0.0), 4: (0.0, 0.5)}.items():
        ch = qseries.ThetaCharacteristics(r, s, 0.0, 1j * args.t)
        want = qseries.eval_series(qseries.theta_series(which, 400), 1j * args.t)
        theta_ok &= abs(qseries.theta_char_eval(ch) - want) <= 1e-12 * abs(want)

    ok = satisfied and quad_ok and theta_ok
    results = {
        "omega": list(omega),
        "lhs": lhs,
        "rhs": rhs,
        "residual": residual,
        "constraint_satisfied": satisfied,
        "quadratic_scaling_ok": quad_ok,
        "theta_prefactors_ok": theta_ok,
    }
    return results, ok, None


# -- frobenius ----------------------------------------------------------------------


def cmd_frobenius_wdvv(args):
    jet = frobenius.modular_example_jet(args.x, frobenius.chazy_gamma_jet(args.tau))
    c, eta = frobenius.potential_third_partials(jet)
    residual = frobenius.wdvv_residual_3d(c, eta)
    results = {"wdvv_residual": residual, "x": args.x}
    return results, residual < args.tol, None


def cmd_frobenius_cubic(args):
    coeffs = frobenius.dh_cubic(frobenius.chazy_gamma_jet(args.tau))
    theta = dh.dh_theta_solution(args.tau)
    distance = frobenius.root_set_distance(frobenius.cubic_roots(coeffs), theta)
    results = {
        "cubic_coefficients": [complex(c) for c in coeffs],
        "root_set_distance": distance,
        "theta_solution": list(theta),
    }
    return results, distance < args.tol, None


# -- wiring ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halphen",
        description="Darboux-Halphen flows: evaluation, integration and verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="group", required=True)

    def add(sub, name, handler, command_name=None, fmt_default="json"):
        p = sub.add_parser(name)
        p._negative_number_matcher = _NEGATIVE_VALUE  # no public hook for this
        p.set_defaults(handler=handler, command_name=command_name or name, fmt_default=fmt_default)
        p.add_argument("--format", choices=("json", "csv"), default=None,
                       help="report format (default %s)" % fmt_default)
        p.add_argument("--out", default=None, help="write the report to a file")
        return p

    dh_p = top.add_parser("dh").add_subparsers(dest="command", required=True)
    p = add(dh_p, "integrate", cmd_dh_integrate, "dh integrate", fmt_default="csv")
    p.add_argument("--t0", type=parse_complex, required=True, help="segment start RE,IM")
    p.add_argument("--t1", type=parse_complex, required=True, help="segment end RE,IM")
    p.add_argument("--initial", type=parse_state, default=None,
                   help="initial state as 6 floats (default: theta solution at t0)")
    p.add_argument("--tol", type=positive_float, default=1e-10)
    p.add_argument("--max-step", type=positive_float)

    p = add(dh_p, "theta", cmd_dh_theta, "dh theta")
    p.add_argument("--tau", type=parse_complex, required=True)
    p.add_argument("--tol", type=positive_float, default=1e-6)

    series_p = top.add_parser("series").add_subparsers(dest="command", required=True)
    p = add(series_p, "eisenstein", cmd_series_eisenstein, "series eisenstein")
    p.add_argument("--k", type=int, choices=(2, 4, 6), required=True)
    p.add_argument("--order", type=series_order, required=True)

    p = add(series_p, "theta", cmd_series_theta, "series theta")
    p.add_argument("--which", type=int, choices=(2, 3, 4), required=True)
    p.add_argument("--order", type=series_order, required=True)

    verify_p = top.add_parser("verify").add_subparsers(dest="command", required=True)
    p = add(verify_p, "ramanujan", cmd_verify_ramanujan, "verify ramanujan")
    p.add_argument("--order", type=series_order, default=30)
    p.add_argument("--samples", type=positive_int, default=50)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=positive_float, default=1e-9)

    p = add(verify_p, "chazy", cmd_verify_chazy, "verify chazy")
    p.add_argument("--order", type=series_order, default=30)
    p.add_argument("--tol", type=positive_float, default=1e-8)

    p = add(verify_p, "gauss-manin", cmd_verify_gauss_manin, "verify gauss-manin")
    p.add_argument("--samples", type=positive_int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add(verify_p, "darboux", cmd_verify_darboux, "verify darboux")
    p.add_argument("--samples", type=positive_int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    bianchi_p = top.add_parser("bianchi").add_subparsers(dest="command", required=True)
    p = add(bianchi_p, "flow", cmd_bianchi_flow, "bianchi flow", fmt_default="csv")
    p.add_argument("--t0", type=finite_float, required=True)
    p.add_argument("--t1", type=finite_float, required=True)
    p.add_argument("--initial", type=parse_triple, required=True, help="Omega1,Omega2,Omega3")
    p.add_argument("--tol", type=positive_float, default=1e-10)
    p.add_argument("--max-step", type=positive_float)

    p = add(bianchi_p, "flat-family", cmd_bianchi_flat_family, "bianchi flat-family",
            fmt_default="csv")
    p.add_argument("--t0", type=finite_float, default=0.7)
    p.add_argument("--t1", type=finite_float, default=2.0)
    p.add_argument("--steps", type=positive_int, default=14)
    p.add_argument("--q0", type=finite_float, required=True)
    p.add_argument("--C", type=finite_float, default=1.0)
    p.add_argument("--tol", type=positive_float, default=1e-8)

    p = add(bianchi_p, "verify-constraint", cmd_bianchi_verify_constraint,
            "bianchi verify-constraint")
    p.add_argument("--t", type=finite_float, required=True)
    p.add_argument("--omega", type=parse_triple, default=None,
                   help="candidate Omega triple (default: flat family at --q0)")
    p.add_argument("--q0", type=finite_float, default=0.3)
    p.add_argument("--tol", type=positive_float, default=1e-10)

    frob_p = top.add_parser("frobenius").add_subparsers(dest="command", required=True)
    p = add(frob_p, "wdvv", cmd_frobenius_wdvv, "frobenius wdvv")
    p.add_argument("--tau", type=parse_complex, required=True)
    p.add_argument("--x", type=parse_complex, default=1 + 0j)
    p.add_argument("--tol", type=positive_float, default=1e-8)

    p = add(frob_p, "chazy", cmd_verify_chazy, "frobenius chazy")
    p.add_argument("--order", type=series_order, default=30)
    p.add_argument("--tol", type=positive_float, default=1e-8)

    p = add(frob_p, "cubic", cmd_frobenius_cubic, "frobenius cubic")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = args.format or args.fmt_default
    try:
        results, ok, columns = args.handler(args)
    except ValueError as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (ZeroDivisionError, OverflowError, IntegrationBlowUp) as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC

    if fmt == "csv" and columns is None:
        parser.error("command %r has no CSV form" % args.command_name)
    # reports are strict JSON (RFC 8259 has no NaN or Infinity) and CSV
    # cells finite floats; a value outside both is a numeric failure
    try:
        if fmt == "csv":
            payload = render_csv(columns)
        else:
            report = make_report(args, results, ok)
            payload = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        print("numeric failure: the report holds a value that is not finite", file=sys.stderr)
        return EXIT_NUMERIC

    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(payload)
        print("wrote %s (%s)" % (args.out, "ok" if ok else "RESIDUAL FAILURE"))
    else:
        sys.stdout.write(payload)
    return EXIT_OK if ok else EXIT_RESIDUAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
