"""The layout of the theta code, checked on the source: qseries.theta_log_jets
is the one numeric front door to theta2-theta4, and no halphen module reaches
into another's private names."""

import ast
import pathlib

import halphen

SRC = pathlib.Path(halphen.__file__).parent
MODULES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def private_imports(tree):
    """Private names a module takes from other halphen modules: imported by
    name, or read as attributes of a halphen module it imports."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("halphen")
        ):
            for alias in node.names:
                if node.module in (None, "halphen"):
                    modules.add(alias.asname or alias.name)
                if is_private(alias.name):
                    found.append(alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and is_private(node.attr)
        ):
            found.append("%s.%s" % (node.value.id, node.attr))
    return found


def functions_where(predicate):
    """(module, function) for every function whose body has a node that
    satisfies predicate (nested functions count for their parents too)."""
    out = set()
    for module, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(map(predicate, ast.walk(fn))):
                out.add((module, fn.name))
    return out


def reads(name):
    def predicate(node):
        return (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name
        )

    return predicate


def calls_exp(node):
    """A call of math.exp, cmath.exp, or a local alias named exp."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "exp") or (
        isinstance(f, ast.Attribute) and f.attr == "exp"
    )


def test_no_module_imports_a_private_name_of_another():
    found = {module: private_imports(tree) for module, tree in MODULES.items()}
    assert {module: names for module, names in found.items() if names} == {}


def test_only_theta_log_jets_runs_the_theta_kernel():
    front_door = {("qseries", "theta_log_jets")}
    assert functions_where(reads("_theta_jets")) == front_door
    assert functions_where(reads("_theta_term_count")) == front_door


def test_nome_prefactor_offset_and_refusal_appear_once():
    # exponentials: the nome exp(pi*i*tau) and theta2's exp(pi*i*tau/4)
    # (theta_log_jets), w and q of a series (eval_series), |w| (the tail
    # bound), the characteristic sum's terms, and the phase exp(pi*i*p) of
    # the two-parameter family
    assert functions_where(calls_exp) == {
        ("qseries", "theta_log_jets"),
        ("qseries", "eval_series"),
        ("qseries", "theta_eval_tail_bound"),
        ("qseries", "_theta_char_sum"),
        ("bianchi", "tod_hitchin_omega1"),
    }

    # theta2's exponent offset 1/4, in its prefactor and in theta'/theta
    def quarter(node):
        return isinstance(node, ast.Constant) and type(node.value) is float and node.value == 0.25

    assert functions_where(quarter) == {("qseries", "theta_log_jets")}

    def refusal(node):
        return isinstance(node, ast.Constant) and "vanishes at tau" in str(node.value)

    assert functions_where(refusal) == {("qseries", "theta_log_jets")}


def test_theta_solution_series_takes_no_log():
    assert ("dh", "dh_theta_solution_series") in functions_where(reads("log_derivative"))
    assert functions_where(reads("log_unit")) == set()
