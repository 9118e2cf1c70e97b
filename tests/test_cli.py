import json
import os
import pathlib
import subprocess
import sys

import pytest

from halphen import qseries, rk
from halphen.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_RESIDUAL,
    EXIT_USAGE,
    MAX_ORDER,
    main,
    parse_complex,
    parse_state,
    parse_triple,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _reject_constant(name):
    raise ValueError("%s is not JSON (RFC 8259)" % name)


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out, parse_constant=_reject_constant)


def test_parse_helpers():
    assert parse_complex("1.5,-2") == 1.5 - 2j
    assert parse_complex("3") == 3 + 0j
    assert parse_triple("1,2,3") == (1.0, 2.0, 3.0)
    assert parse_state("1,0,2,0,3,0") == (1 + 0j, 2 + 0j, 3 + 0j)
    for fn, bad in ((parse_complex, "a,b"), (parse_triple, "1,2"), (parse_state, "1,2,3")):
        with pytest.raises(Exception):
            fn(bad)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "ramanujan", "--order", "not-a-number"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["no-such-group"])
    assert exc.value.code == EXIT_USAGE


def test_invalid_config_values_are_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "chazy", "--tol", "-1"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["verify", "chazy", "--order", "-5"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["verify", "gauss-manin", "--samples", "0"])
    assert exc.value.code == EXIT_USAGE


def test_negative_value_after_flag(capsys):
    spaced = run(capsys, "dh", "theta", "--tau", "-0.3,0.5")
    joined = run(capsys, "dh", "theta", "--tau=-0.3,0.5")
    assert spaced == joined
    assert spaced[0] == EXIT_OK
    code, out = run(
        capsys, "bianchi", "flow", "--t0", "0.7", "--t1", "1.2", "--initial", "-1,0.5,0.25"
    )
    assert code == EXIT_OK
    assert out.splitlines()[1].split(",")[1] == "-1.0"


@pytest.mark.parametrize(
    "argv, want",
    [
        ("dh theta --tau=0,-1", EXIT_USAGE),
        ("dh integrate --t0=0,1 --t1=0,1", EXIT_USAGE),
        ("dh integrate --t0 0,1.2 --t1 0,2 --max-step 0", EXIT_USAGE),
        ("bianchi flat-family --q0 0.3 --steps 0", EXIT_USAGE),
        ("bianchi flat-family --q0=-1 --t0 0.5 --t1 1.5 --steps 3", EXIT_USAGE),  # pole
        ("bianchi flow --t0 0.7 --t1 0.5 --initial 1,0.5,0.25", EXIT_USAGE),
        ("bianchi verify-constraint --t=-1", EXIT_USAGE),
        ("frobenius cubic --tau=1,0", EXIT_USAGE),
        ("frobenius wdvv --tau=1,0", EXIT_USAGE),
        ("frobenius wdvv --tau 0,1e-9", EXIT_USAGE),  # jet order past its cap
        ("dh theta --tau nan,1", EXIT_USAGE),
        ("dh theta --tau 0,inf", EXIT_USAGE),
        ("dh integrate --t0 0,1 --t1 0,2 --tol inf", EXIT_USAGE),
        ("dh integrate --t0 0,1 --t1 0,2 --initial 1,0,1,0,nan,0", EXIT_USAGE),
        ("bianchi flow --t0 0.7 --t1 2 --initial 1,inf,0.25", EXIT_USAGE),
        ("bianchi flat-family --q0 nan", EXIT_USAGE),
        ("dh integrate --t0 0,1 --t1 2,1 --initial 1,0,1,0,1,0", EXIT_NUMERIC),  # blow-up
        ("series eisenstein --k 4 --order %d" % (MAX_ORDER + 1), EXIT_USAGE),
        ("verify ramanujan --order %d" % (MAX_ORDER + 1), EXIT_USAGE),
        # theta sums past MAX_THETA_TERMS
        ("dh theta --tau 0,1e-300", EXIT_USAGE),
        ("bianchi verify-constraint --t 1e-300", EXIT_USAGE),
        ("bianchi flow --t0 1e-300 --t1 1 --initial 1,0.5,0.25", EXIT_USAGE),
        ("dh integrate --t0 0,1e-300 --t1 0,1", EXIT_USAGE),
        ("frobenius wdvv --tau 0,1 --x 1e100,0", EXIT_NUMERIC),  # overflow
        # results that are not finite: JSON (nan) and CSV (inf)
        ("bianchi verify-constraint --t 1 --omega 1e300,1e300,1e300", EXIT_NUMERIC),
        ("bianchi flat-family --q0 0.3 --C 1.7e308", EXIT_NUMERIC),
    ],
)
def test_domain_errors_exit_codes(capsys, argv, want):
    try:
        code = main(argv.split())
        usage_printed = False
    except SystemExit as exc:  # argparse rejects the value itself and prints usage
        code, usage_printed = exc.code, True
    out, err = capsys.readouterr()
    assert code == want
    assert out == ""
    assert err.strip()
    if not usage_printed:
        assert err.count("\n") == 1  # a one-line diagnostic, no traceback


def test_verify_ramanujan(capsys):
    code, report = run_json(capsys, "verify", "ramanujan", "--order", "30")
    assert code == EXIT_OK
    assert report["ok"] is True
    assert report["results"]["series_residuals_zero"] is True
    assert report["results"]["conjugacy_exact_zero"] is True
    assert report["version"]
    assert report["config"]["order"] == 30


def test_verify_gauss_manin_seeded(capsys):
    code, report = run_json(capsys, "verify", "gauss-manin", "--samples", "100", "--seed", "7")
    assert code == EXIT_OK
    assert report["results"]["all_exact"] is True
    assert report["results"]["samples_checked"] == 100


def test_verify_darboux(capsys):
    code, report = run_json(capsys, "verify", "darboux", "--samples", "25")
    assert code == EXIT_OK
    assert report["results"]["all_exact"] is True


def test_verify_chazy(capsys):
    code, report = run_json(capsys, "verify", "chazy", "--order", "30")
    assert code == EXIT_OK
    assert report["results"]["series_residual_zero"] is True


def test_series_eisenstein_listing(capsys):
    code, report = run_json(capsys, "series", "eisenstein", "--k", "2", "--order", "3")
    assert code == EXIT_OK
    assert report["results"]["variable"] == "q"
    assert report["results"]["series"]["terms"] == [
        [0, "1/1"], [1, "-24/1"], [2, "-72/1"], [3, "-96/1"]
    ]


def test_series_theta_listing(capsys):
    code, report = run_json(capsys, "series", "theta", "--which", "2", "--order", "30")
    assert code == EXIT_OK
    assert report["results"]["series"]["terms"] == [[1, "2/1"], [9, "2/1"], [25, "2/1"]]


def test_dh_theta(capsys):
    code, report = run_json(capsys, "dh", "theta", "--tau", "0,1.5")
    assert code == EXIT_OK
    assert report["results"]["ode_residual"] < 1e-6


@pytest.mark.parametrize("tau", ["0.3,0.05", "0.1,0.1"])
def test_dh_theta_analytic_residual_near_axis(capsys, tau):
    # a central difference left residuals of 8e-5 and 1e-5 here
    code, report = run_json(capsys, "dh", "theta", "--tau", tau)
    assert code == EXIT_OK and report["ok"] is True
    assert report["results"]["ode_residual"] < 1e-11


def test_dh_integrate_csv_default(capsys):
    code, out = run(capsys, "dh", "integrate", "--t0", "0,1.2", "--t1", "0,2", "--tol", "1e-10")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "tau_re,tau_im,t1_re,t1_im,t2_re,t2_im,t3_re,t3_im,err_est"
    code, report = run_json(
        capsys, "dh", "integrate", "--t0", "0,1.2", "--t1", "0,2", "--tol", "1e-10",
        "--format", "json",
    )
    assert len(lines) == report["results"]["steps"] + 2  # header + one row per mesh point
    first = [float(x) for x in lines[1].split(",")]
    assert first[:2] == [0.0, 1.2]


def test_dh_integrate_json_endpoint_matches_theta(capsys):
    code, report = run_json(
        capsys, "dh", "integrate", "--t0", "0,1.2", "--t1", "0,2",
        "--tol", "1e-10", "--format", "json",
    )
    assert code == EXIT_OK
    from halphen.dh import dh_theta_solution

    want = dh_theta_solution(2j)
    got = report["results"]["endpoint"]["state"]
    for pair, ref in zip(got, want):
        assert abs(complex(pair[0], pair[1]) - ref) < 1e-8


def test_dh_integrate_blowup_exit_code(capsys):
    code, _ = run(
        capsys, "dh", "integrate", "--t0", "0,1", "--t1", "2,1",
        "--initial", "1,0,1,0,1,0",
    )
    assert code == EXIT_NUMERIC


def test_dh_integrate_spent_step_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(rk, "MAX_STEPS", 50)
    code = main(["dh", "integrate", "--t0", "0,1", "--t1", "0,1e6"])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert "integration stopped" in err and "MAX_STEPS=50" in err
    assert "blow-up" not in err


def test_bianchi_flow_csv(capsys):
    code, out = run(
        capsys, "bianchi", "flow", "--t0", "0.7", "--t1", "1.2",
        "--initial", "1.0,0.5,0.25", "--tol", "1e-9",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "t,omega1_re,omega1_im,omega2_re,omega2_im,omega3_re,omega3_im,err_est"


def test_bianchi_flat_family_csv_and_gate(capsys):
    code, out = run(capsys, "bianchi", "flat-family", "--q0", "0.3", "--steps", "5")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == (
        "t,omega1_re,omega1_im,omega2_re,omega2_im,omega3_re,omega3_im,residual,F"
    )
    assert len(lines) == 6
    assert "np." not in out  # cells must be plain float reprs
    assert max(float(line.split(",")[7]) for line in lines[1:]) < 1e-12


def test_bianchi_flat_family_runs_the_theta_kernel_twice_per_point(capsys, monkeypatch):
    # once for the family and its rate, once in the Omega flow's field
    kernel = qseries._theta_jets
    calls = []
    monkeypatch.setattr(qseries, "_theta_jets", lambda *a: calls.append(a) or kernel(*a))
    code, _ = run(capsys, "bianchi", "flat-family", "--q0", "0.3", "--steps", "5")
    assert code == EXIT_OK
    assert len(calls) == 2 * 5


def test_bianchi_verify_constraint_flat_family(capsys):
    code, report = run_json(capsys, "bianchi", "verify-constraint", "--t", "1.0", "--q0", "0.3")
    assert code == EXIT_OK
    assert report["results"]["constraint_satisfied"] is True
    assert report["results"]["quadratic_scaling_ok"] is True
    assert report["results"]["theta_prefactors_ok"] is True


def test_bianchi_verify_constraint_generic_violation(capsys):
    code, report = run_json(
        capsys, "bianchi", "verify-constraint", "--t", "1.0", "--omega", "1,2,3"
    )
    assert code == EXIT_RESIDUAL
    assert report["results"]["constraint_satisfied"] is False


@pytest.mark.parametrize("t", ["1000", "2000"])
def test_bianchi_verify_constraint_where_theta2_underflows(capsys, t):
    # theta2(it) and its series both underflow to 0.0: exact agreement passes
    code, report = run_json(capsys, "bianchi", "verify-constraint", "--t", t)
    assert code == EXIT_OK
    assert report["results"]["constraint_satisfied"] is True
    assert report["results"]["theta_prefactors_ok"] is True


@pytest.mark.parametrize("t", ["1.0", "1000"])
def test_bianchi_verify_constraint_catches_a_wrong_theta(capsys, monkeypatch, t):
    right = qseries.theta_char_eval
    monkeypatch.setattr(
        qseries, "theta_char_eval", lambda ch: right(ch) * (1 + 1e-9) + 1e-300
    )
    code, report = run_json(capsys, "bianchi", "verify-constraint", "--t", t)
    assert code == EXIT_RESIDUAL
    assert report["results"]["theta_prefactors_ok"] is False


def test_frobenius_wdvv(capsys):
    code, report = run_json(capsys, "frobenius", "wdvv", "--tau", "0,1")
    assert code == EXIT_OK
    assert report["results"]["wdvv_residual"] < 1e-8


def test_frobenius_chazy(capsys):
    code, report = run_json(capsys, "frobenius", "chazy", "--order", "20")
    assert code == EXIT_OK
    assert report["command"] == "frobenius chazy"


def test_frobenius_cubic(capsys):
    code, report = run_json(capsys, "frobenius", "cubic", "--tau", "0,1.2")
    assert code == EXIT_OK
    assert report["results"]["root_set_distance"] < 1e-8


def test_reports_are_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = main(
            ["verify", "gauss-manin", "--samples", "20", "--seed", "7", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_rejected_for_non_tabular(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "darboux", "--format", "csv"])
    assert exc.value.code == EXIT_USAGE


def test_out_file_and_summary_line(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout = run(
        capsys, "verify", "chazy", "--order", "10", "--out", str(out)
    )
    assert code == EXIT_OK
    assert "wrote" in stdout
    assert json.loads(out.read_text())["ok"] is True


def test_cli_import_loads_no_numpy():
    # the library and CLI run on the standard library alone, and the
    # package root imports none of its submodules
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-c",
         "import halphen, sys; "
         "assert not [m for m in sys.modules if m.startswith('halphen.')], sys.modules; "
         "import halphen.cli; assert 'numpy' not in sys.modules; "
         "assert 'dataclasses' not in sys.modules"],
        env=env, check=True,
    )
