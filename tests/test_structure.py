"""The layout of the library, checked on the source: qseries.theta_log_jets
is the one numeric front door to theta2-theta4, qseries.theta_term_count
the one rule for how many terms a theta sum takes, no halphen module reaches
into another's private names, a parameter takes one type rather than a
record or its tuple, integration takes one tolerance, every exported name
has a consumer, every module-level import is read, and every annotation
resolves."""

import ast
import importlib
import inspect
import pathlib
import typing

import halphen
from halphen import rk

SRC = pathlib.Path(halphen.__file__).parent
MODULES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

# Exported names with no consumer in the library or the benchmark, each
# with the ROADMAP open item that keeps it
UNCONSUMED_EXPORTS = {
    ("bianchi", name): "item 2: Bianchi IX content awaiting a CLI consumer (items 7 and 8)"
    for name in (
        "SELF_DUAL",
        "ANTI_SELF_DUAL",
        "connection_one_form",
        "sd_reduced_residual",
        "omega_from_c",
        "c_from_omega",
        "classical_dh_omega_field",
        "tod_hitchin_omega1",
        "lambda_conformal_factor",
    )
}
UNCONSUMED_EXPORTS[("frobenius", "structure_constants")] = "item 2: the WDVV algebra's table"
UNCONSUMED_EXPORTS[("frobenius", "associativity_residual")] = "item 2: the WDVV algebra's table"

# Imported and never read, so that bench/tracer.py can patch the name where
# the module looks it up
PATCHED_IMPORTS = {("dh", "theta_numeric"), ("bianchi", "theta_numeric")}


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


def test_only_the_two_parameter_family_reads_characteristic_thetas():
    # theta2-theta4 come from theta_log_jets everywhere; outside qseries the
    # characteristic sums serve the (p, q) family alone (ROADMAP item 7)
    names = ("theta_char_eval", "theta_char_dz", "ThetaCharacteristics")
    readers = set().union(*(functions_where(reads(name)) for name in names))
    assert {(module, fn) for module, fn in readers if module != "qseries"} == {
        ("bianchi", "tod_hitchin_omega1"),
        ("bianchi", "lambda_conformal_factor"),
    }
    assert not set(names) & loaded_names(MODULES["cli"])


def test_one_rule_counts_theta_terms():
    # the tail constant and the cap are theta_term_count's alone, and every
    # theta sum, numeric or exact, takes its term count from it
    rule = {("qseries", "theta_term_count")}
    assert functions_where(reads("_TAIL_LOG")) == rule
    assert functions_where(reads("MAX_THETA_TERMS")) == rule
    assert functions_where(reads("theta_term_count")) == {
        ("qseries", "theta_log_jets"),
        ("qseries", "_theta_char_sum"),
        ("cli", "cmd_bianchi_verify_constraint"),
    }


def test_nome_prefactor_offset_and_refusal_appear_once():
    # exponentials: the nome exp(pi*i*tau) and theta2's exp(pi*i*tau/4)
    # (theta_log_jets), w and q of a series (eval_series), the
    # characteristic sum's terms, and the phase exp(pi*i*p) of the
    # two-parameter family
    assert functions_where(calls_exp) == {
        ("qseries", "theta_log_jets"),
        ("qseries", "eval_series"),
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


def loaded_names(tree, skip=None):
    """Names a tree reads (Name or Attribute loads), leaving out the body
    of the top-level def or class named skip."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                out.add(sub.attr)
    return out


def exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
            return [elt.value for elt in node.value.elts]
    return []


def record_types():
    """Names of the halphen records: tuple classes with _fields."""
    names = set()
    for module in MODULES:
        for value in vars(importlib.import_module("halphen." + module)).values():
            if (
                isinstance(value, type)
                and issubclass(value, tuple)
                and hasattr(value, "_fields")
                and value.__module__.startswith("halphen.")
            ):
                names.add(value.__name__)
    return names


def test_no_function_tests_for_a_record_type():
    # a parameter takes the record or its plain tuple, never either
    records = record_types()
    assert {"OmegaAState", "MetricCoeffs", "SelfDualitySign", "ThetaCharacteristics"} <= records

    def isinstance_of_record(node):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
            return False
        return any(
            (isinstance(sub, ast.Name) and sub.id in records)
            or (isinstance(sub, ast.Attribute) and sub.attr in records)
            for sub in ast.walk(node.args[1])
        )

    assert functions_where(isinstance_of_record) == set()


def test_integration_takes_one_tolerance():
    # tol is both the absolute and the relative tolerance: no function, the
    # generated DOP853 attempt included, takes rtol or atol, and no call
    # passes either
    split = {"rtol", "atol"}
    found = set()
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                found.update((module, p.arg) for p in params if p and p.arg in split)
            elif isinstance(node, ast.Call):
                found.update((module, k.arg) for k in node.keywords if k.arg in split)
    code = rk._attempt(1).__code__
    found.update(("rk", name) for name in code.co_varnames[:code.co_argcount] if name in split)
    assert found == set()


def test_every_export_has_a_consumer():
    # a consumer is another halphen module, another function of the same
    # module, or the benchmark, which may name it as a string to patch it
    bench = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                bench.add(node.id)
            elif isinstance(node, ast.Attribute):
                bench.add(node.attr)
            elif isinstance(node, ast.alias):
                bench.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                bench.add(node.value)
    reads_of = {module: loaded_names(tree) for module, tree in MODULES.items()}
    unconsumed = set()
    for module, tree in MODULES.items():
        for name in exports(tree):
            used = name in bench or name in loaded_names(tree, skip=name) or any(
                name in names for m, names in reads_of.items() if m != module
            )
            if not used:
                unconsumed.add((module, name))
    assert unconsumed == set(UNCONSUMED_EXPORTS)


def imported_names(node):
    """Names a module-level import statement binds; none for __future__."""
    if isinstance(node, ast.Import) or (
        isinstance(node, ast.ImportFrom) and node.module != "__future__"
    ):
        return [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
    return []


def test_every_module_level_import_is_read():
    unread = set()
    for module, tree in MODULES.items():
        read = {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in tree.body:
            unread.update((module, name) for name in imported_names(node) if name not in read)
    assert unread == PATCHED_IMPORTS


def test_every_annotation_resolves():
    # typing.get_type_hints evaluates each annotation in its module's
    # namespace, where a module bound only inside a function is missing
    unresolved = []
    for module in MODULES:
        namespace = importlib.import_module("halphen." + module)
        for value in list(vars(namespace).values()):
            members = vars(value).values() if inspect.isclass(value) else [value]
            for fn in members:
                fn = getattr(fn, "fget", None) or getattr(fn, "__func__", fn)
                if inspect.isfunction(fn) and fn.__module__ == namespace.__name__:
                    try:
                        typing.get_type_hints(fn)
                    except NameError as exc:
                        unresolved.append((module, fn.__qualname__, str(exc)))
    assert unresolved == []
