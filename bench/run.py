"""Benchmark entry point: one workload, one seed, one measured run.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/halphen``; halphen is
used from source (PYTHONPATH=src), not installed.  Every workload runs in
fresh Python processes started by this script, one at a time.

Untraced (--trace 0): the workload process is launched SETUP_LAUNCHES_AROUND
times for set-up only, once for the timed run and SETUP_LAUNCHES_AROUND
times more for set-up only, so that set-up is sampled before and after the
timed run; setup_s is the median, over all launches, of the time from
launch to the end of set-up.
The timed run gives throughput, task latency and peak memory.  Every time
is reported at reference machine speed (bench/speed.py): scaled by the
median time of a fixed snippet timed alongside it.

Traced (--trace 1): one launch with the span tracer installed; prints the
per-layer metrics.  Their throughput against an untraced run of the same
seed is the tracing overhead (bench/sweep.py reports it).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics, holding exactly the metrics BENCHMARK.json lists for
the mode.  correct is false when any task gave a silent wrong answer (see
bench/workloads.py); failed counts every failed task, silent or reported.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# set-up-only launches before and again after the timed run
SETUP_LAUNCHES_AROUND = 2
SETUP_TIMEOUT_S = 60
# a timed run may overrun --seconds by its last task plus the result output
RUN_GRACE_S = 100
# reference snippets timed before each launch, to scale its set-up time
SETUP_SNIPPETS = 15


class BenchError(Exception):
    pass


def launch(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool):
    """Start one workload process; return (set-up seconds at reference
    speed, timed against snippets run just before the launch, and the
    summary or None)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    factor = speed.scale(speed.sample(SETUP_SNIPPETS))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
        line = proc.stdout.readline() if readable else ""
        setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError("%s: workload process did not finish set-up" % workload)
        out, _ = proc.communicate(timeout=seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s: timed run did not end" % workload) from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError("%s: workload process exited with %d" % (workload, proc.returncode))
    return setup_s * factor, (None if setup_only else json.loads(out.splitlines()[-1]))


def latency_metrics(latencies):
    ms = sorted(x * 1e3 for x in latencies)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return statistics.median(ms), p90, sum(1 for x in ms if x > p90)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "halphen" / "__init__.py").is_file() or not spec_path.is_file():
        print("bench: no src/halphen or BENCHMARK.json under %s" % ROOT, file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("bench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    trace = bool(args.trace)

    def setup_only(launches):
        return [launch(args.workload, args.seed, args.seconds, False, True)[0]
                for _ in range(0 if trace else launches)]

    try:
        setups = setup_only(SETUP_LAUNCHES_AROUND)
        setup_s, summary = launch(args.workload, args.seed, args.seconds, trace, False)
        setups += [setup_s] + setup_only(SETUP_LAUNCHES_AROUND)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1

    attempted, failed = summary["attempted"], summary["failed"]
    factor = speed.scale(summary["snippets_s"])
    p50, p90, beyond = latency_metrics(summary["latencies_s"])
    values = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": attempted / sum(summary["latencies_s"]) / factor,
        "task_p50_ms": p50 * factor,
        "task_p90_ms": p90 * factor,
        "peak_rss_mb": summary["peak_rss_mb"],
    }
    print("workload %s  seed %d  %s run of %.1f s" % (
        args.workload, args.seed, "traced" if trace else "untraced", summary["elapsed_s"]))
    print("machine speed: %d reference snippets, median %.4g ms; times below are at "
          "reference speed, measured times x %.4f (as measured: p50 %.6g ms, p90 %.6g ms)" % (
              len(summary["snippets_s"]), 1e3 * statistics.median(summary["snippets_s"]),
              factor, p50, p90))
    print("fail_frac %.6g ratio  (%d failed of %d attempted, %d silently wrong)" % (
        failed / attempted, failed, attempted, summary["wrong"]))
    for line in summary["failures"]:
        print("  " + line)
    if summary["defect_probe"]:
        print(summary["defect_probe"])
    if trace:
        values = summary["layers"]
        listed = spec["per_layer"]
    else:
        print("latency samples %d, %d beyond p90; setup_s over %d launches" % (
            attempted, beyond, len(setups)))
        listed = spec["end_to_end"]
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("  %-36s %14.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    print(json.dumps({
        "correct": summary["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
