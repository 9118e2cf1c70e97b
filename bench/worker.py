"""One workload process: set up, signal readiness, run the timed closed loop
and print a JSON summary as its last stdout line.

    PYTHONPATH=src python bench/worker.py --workload W --seed N --seconds S
        [--trace] [--setup-only]

Set-up is ``import halphen``, building the seeded task stream and one
untimed warm-up task; the line READY marks its end.  The timed phase is a
closed loop with one client: the next task starts when the previous one has
finished, until --seconds have passed (at least one task always runs), and
every task has fresh inputs.  Inputs are drawn lazily from the seeded stream
between tasks, outside each task's timer.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import workloads
from workloads import FAIL, OK, WRONG

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "_out"
CLI_TIMEOUT_S = 60
SHOWN_FAILURES = 10


def plain_cli(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "halphen.cli", *argv], capture_output=True, timeout=CLI_TIMEOUT_S
    )
    return proc.returncode, proc.stdout


def traced_cli(tracer):
    """Run each invocation through the shim and fold its spans into tracer;
    the child's traced time counts as covered in the enclosing task span."""
    shim = str(BENCH_DIR / "cli_shim.py")
    aggregates_path = OUT_DIR / "shim-aggregates.json"

    def run(argv):
        aggregates_path.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, shim, str(aggregates_path), *argv],
            capture_output=True, timeout=CLI_TIMEOUT_S,
        )
        aggregates = json.loads(aggregates_path.read_text())
        tracer.merge(aggregates)
        tracer.charge_external(aggregates["covered_s"])
        tracer.counters["cli.report_bytes"] += len(proc.stdout)
        return proc.returncode, proc.stdout

    return run


def timed_loop(stream, seconds: float, tracer=None) -> dict:
    """Closed loop over fresh tasks drawn from the stream until seconds have
    passed; every task runs once.  Between tasks, once per speed.EVERY_S of
    task time, the reference snippet is timed (speed.py)."""
    latencies, failures = [], []
    failed = wrong = 0
    snippets = speed.sample(3)
    since_snippet = 0.0
    start = time.perf_counter()
    while True:
        label, task = next(stream)
        t0 = time.perf_counter()
        try:
            result = tracer.run_task(len(latencies), task) if tracer else task()
        except Exception:
            result = FAIL
            if len(failures) < SHOWN_FAILURES:
                traceback.print_exc(file=sys.stderr)
        end = time.perf_counter()
        latencies.append(end - t0)
        since_snippet += end - t0
        if since_snippet >= speed.EVERY_S:
            snippets.append(speed.snippet_s())
            since_snippet = 0.0
        if result != OK:
            failed += 1
            wrong += result == WRONG
            if len(failures) < SHOWN_FAILURES:
                failures.append("%s: %s" % (result, label))
        if end - start >= seconds:
            break
    return {
        "attempted": len(latencies),
        "failed": failed,
        "wrong": wrong,
        "elapsed_s": end - start,
        "latencies_s": latencies,
        "snippets_s": snippets,
        "failures": failures,
    }


def layer_metrics(tracer, summary: dict) -> dict:
    """Per-layer figures of a traced run, as means per task unless named
    otherwise: <span>.calls and <span>.s (self seconds) for every span name,
    plus the counters.  Times are at reference speed (speed.py)."""
    from tracer import library_patches

    tasks = summary["attempted"]
    factor = speed.scale(summary["snippets_s"])
    names = set(tracer.calls) | {name for name, _ in library_patches()}
    names |= {"cli.parse", "cli.handler", "cli.render"}
    out = {}
    for name in names:
        out[name + ".calls"] = tracer.calls.get(name, 0) / tasks
        out[name + ".s"] = tracer.self_s.get(name, 0.0) / tasks * factor
    c = tracer.counters
    for name in ("qseries.mul.term_pairs", "rk.rhs_evals", "rk.steps_accepted",
                 "rk.steps_rejected", "cli.import_s", "cli.report_bytes"):
        out[name] = c.get(name, 0) / tasks
    out["cli.import_s"] *= factor
    out["qseries.mul.max_coeff_bits"] = c.get("qseries.mul.max_coeff_bits.max", 0)
    attempts = c.get("rk.steps_accepted", 0) + c.get("rk.steps_rejected", 0)
    out["rk.accept_ratio"] = c.get("rk.steps_accepted", 0) / attempts if attempts else 0.0
    out["trace.tasks"] = summary["attempted"]
    out["trace.tasks_per_s"] = summary["attempted"] / sum(summary["latencies_s"]) / factor
    out["trace.spans"] = tracer.spans_seen / tasks
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    run_cli = plain_cli
    if args.trace:
        from tracer import Tracer, install

        OUT_DIR.mkdir(exist_ok=True)
        tracer = Tracer()
        if args.workload == "cli-session":
            run_cli = traced_cli(tracer)
    stream = workloads.stream(args.workload, args.seed, run_cli)
    if workloads.warmup(args.workload, plain_cli)() != OK:
        sys.exit("warm-up task of %s failed" % args.workload)
    print("READY", flush=True)
    if args.setup_only:
        return
    if tracer is not None:
        install(tracer)

    summary = timed_loop(stream, args.seconds, tracer)
    rss_kib = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    summary["peak_rss_mb"] = rss_kib / 1024.0
    if tracer is not None:
        summary["layers"] = layer_metrics(tracer, summary)
        tracer.write_spans(str(OUT_DIR / ("spans-%s.bin" % args.workload)))
    summary["defect_probe"] = workloads.defect_probe(args.workload, plain_cli)
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main()
