"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each halphen module from outside:
it replaces the binding in every module that calls the function, because
the modules import names directly (``from .qseries import theta_numeric``)
and a patch of the defining module alone would miss those callers.

Every call of a wrapped function is a span with a name, start, end, parent
span and task id.  Spans are kept in memory in flat arrays and written out
when the run ends.  Self time (a span's duration minus the time covered by
its child spans) is accumulated per name as the spans close, so the
per-layer figures need no second pass.
"""

from __future__ import annotations

import array
import json
import time
from collections import defaultdict

# Stop storing spans (aggregates continue) past this many, about 48 MB.
MAX_STORED_SPANS = 1_000_000

TASK = "bench.task"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array.array("q")
        self.parent = array.array("q")
        self.name_id = array.array("i")
        self.task_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.next_id = 0
        self.current_task = -1
        self.stack: list[list] = []  # [span id, time covered by children]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans_seen = 0

    def _record(self, name: str, sid: int, t0: float, t1: float, child_s: float):
        dur = t1 - t0
        self.calls[name] += 1
        self.self_s[name] += dur - child_s
        stack = self.stack
        if stack:
            stack[-1][1] += dur
        self.spans_seen += 1
        if len(self.start) < MAX_STORED_SPANS:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.span_id.append(sid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.name_id.append(nid)
            self.task_id.append(self.current_task)
            self.start.append(t0)
            self.end.append(t1)

    def wrap(self, name: str, fn, after=None, root=False):
        """fn wrapped in a span.  Unless root is set, calls made outside any
        span (input generation between tasks) run untraced.  after(args,
        result), if given, runs once the span has closed; its time is
        charged to no span, so it shows in neither the callee's nor the
        caller's self time."""
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            sid = self.next_id
            self.next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._record(name, sid, t0, t1, frame[1])
            if after is not None:
                after(args, return_value)
                if stack:
                    stack[-1][1] += clock() - t1
            return return_value

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def run_task(self, task_number: int, task):
        """Run one benchmark task as the root span of its own task id."""
        self.current_task = task_number
        return self.wrap(TASK, task, root=True)()

    def charge_external(self, seconds: float):
        """Count time spent in traced child processes as covered by the
        enclosing span, so that its self time excludes it."""
        if self.stack:
            self.stack[-1][1] += seconds

    def merge(self, aggregates: dict):
        """Add a child process's per-name aggregates (see aggregates())."""
        for name, (calls, self_s) in aggregates["spans"].items():
            self.calls[name] += calls
            self.self_s[name] += self_s
        for name, value in aggregates["counters"].items():
            if name.endswith(".max"):
                self.counters[name] = max(self.counters[name], value)
            else:
                self.counters[name] += value
        self.spans_seen += aggregates["spans_seen"]

    def aggregates(self) -> dict:
        return {
            "spans": {n: [self.calls[n], self.self_s[n]] for n in self.calls},
            "counters": dict(self.counters),
            "spans_seen": self.spans_seen,
        }

    def write_spans(self, path: str):
        """Binary span dump: a JSON header line, then the six columns as
        native arrays in the order the header lists them."""
        columns = ("span_id", "parent", "name_id", "task_id", "start", "end")
        header = {
            "names": self.names,
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "stored": len(self.start),
            "seen": self.spans_seen,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for c in columns:
                getattr(self, c).tofile(fh)


def _mul_work(tracer: Tracer):
    def after(args, product):
        a, b = args
        nnz_b = len(b.terms()) if hasattr(b, "terms") else 1
        tracer.counters["qseries.mul.term_pairs"] += len(a.terms()) * nnz_b
        bits = max(
            (max(c.numerator.bit_length(), c.denominator.bit_length()) for _, c in product.terms()),
            default=0,
        )
        key = "qseries.mul.max_coeff_bits.max"
        tracer.counters[key] = max(tracer.counters[key], bits)
    return after


def _integrate_wrapper(tracer: Tracer, integrate):
    """rk.integrate with its right-hand side counted; accepted and rejected
    steps follow from outside: every attempt costs six evaluations and the
    start costs two."""
    counters = tracer.counters

    def counted(f, *args, **kwargs):
        calls = [0]

        def rhs(t, y):
            calls[0] += 1
            return f(t, y)

        try:
            solution = integrate(rhs, *args, **kwargs)
        finally:
            counters["rk.rhs_evals"] += calls[0]
        accepted = len(solution.steps)
        counters["rk.steps_accepted"] += accepted
        counters["rk.steps_rejected"] += (calls[0] - 2) // 6 - accepted
        return solution

    return counted


def library_patches():
    """(span name, [(owner, attribute), ...]) for every wrapped function."""
    from halphen import bianchi, dh, frobenius, gauss_manin, qseries, ramanujan, rk

    series = qseries.PiGradedQSeries
    return [
        ("qseries.mul", [(series, "__mul__")]),
        ("qseries.reciprocal", [(series, "reciprocal")]),
        ("qseries.log_unit", [(qseries, "log_unit")]),
        ("qseries.eisenstein_series",
         [(qseries, "eisenstein_series"), (frobenius, "eisenstein_series"),
          (ramanujan, "eisenstein_series")]),
        ("qseries.theta_numeric",
         [(qseries, "theta_numeric"), (dh, "theta_numeric"), (bianchi, "theta_numeric")]),
        ("qseries.eval_series", [(qseries, "eval_series"), (frobenius, "eval_series")]),
        ("qseries.theta_char",
         [(qseries, "theta_char_eval"), (qseries, "theta_char_dz"),
          (bianchi, "theta_char_eval"), (bianchi, "theta_char_dz")]),
        ("rk.integrate", [(rk, "integrate")]),
        ("rk.dense_at", [(rk.RkSolution, "at")]),
        ("dh.vector_field",
         [(dh, "dh_vector_field"), (bianchi, "dh_vector_field"),
          (ramanujan, "dh_vector_field"), (gauss_manin, "dh_vector_field")]),
        ("dh.theta_solution", [(dh, "dh_theta_solution"), (frobenius, "dh_theta_solution")]),
        ("dh.theta_solution_series", [(dh, "dh_theta_solution_series")]),
        ("dh.series_ode_residuals", [(dh, "dh_series_ode_residuals")]),
        ("dh.integrate", [(dh, "dh_integrate")]),
        ("bianchi.omega_field", [(bianchi, "omega_field")]),
        ("bianchi.theta_A_solution", [(bianchi, "theta_A_solution")]),
        ("bianchi.flat_family", [(bianchi, "flat_family")]),
        ("bianchi.omega_theta_flow", [(bianchi, "omega_theta_flow")]),
        ("frobenius.chazy_gamma_jet", [(frobenius, "chazy_gamma_jet")]),
        ("frobenius.dh_cubic_roots_check", [(frobenius, "dh_cubic_roots_check")]),
        ("frobenius.chazy_e2_exact", [(frobenius, "chazy_e2_exact")]),
        ("ramanujan.series_residual", [(ramanujan, "ramanujan_series_residual")]),
        ("ramanujan.conjugacy_residual", [(ramanujan, "conjugacy_residual")]),
        ("gauss_manin.verify_R_property", [(gauss_manin, "verify_R_property")]),
    ]


def install(tracer: Tracer, setattr=setattr):
    """Wrap every function of library_patches() in place.  Wrappers are made
    once per function, so a function bound under several names is one
    span name; __rmul__ and __pow__ reach __mul__ through the class and
    are counted there once.  Tests pass monkeypatch.setattr to undo it."""
    for name, bindings in library_patches():
        wrapped = {}
        for owner, attr in bindings:
            fn = getattr(owner, attr)
            if id(fn) not in wrapped:
                if name == "qseries.mul":
                    wrapped[id(fn)] = tracer.wrap(name, fn, after=_mul_work(tracer))
                elif name == "rk.integrate":
                    wrapped[id(fn)] = tracer.wrap(name, _integrate_wrapper(tracer, fn))
                else:
                    wrapped[id(fn)] = tracer.wrap(name, fn)
            setattr(owner, attr, wrapped[id(fn)])
