"""Run the benchmark over seeds and workloads, and summarise result sets.

    python3 bench/sweep.py run --seeds 1-10 [--workloads a,b] [--trace 0|1]
                               --out RESULTS.jsonl
    python3 bench/sweep.py spread RESULTS.jsonl [TRACED.jsonl]
    python3 bench/sweep.py compare BASE.jsonl NEW.jsonl
    python3 bench/sweep.py baseline RESULTS.jsonl TRACED.jsonl > bench/baseline.json

run    calls bench/run.py once per workload and seed, one at a time, for
       BENCHMARK.json's run_seconds, and appends one JSON line per run:
       workload, seed, trace and the result.
spread prints the summary that baseline writes, per workload and
       end-to-end metric: median, quartiles and the spread (Q3 - Q1) / median
       against the metric's bound, the largest spread / bound over every
       metric, setup_s included, and with a traced result set the tracing
       overhead, 1 - traced/untraced tasks_per_s, on medians.
compare prints, per workload and end-to-end metric, both medians and
       quartile ranges and the ratio NEW / BASE.
baseline writes the machine facts, the quartiles of every end-to-end metric,
       the per-layer medians and the tracing overhead as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_run(args):
    s = spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in s["workloads"]]
    seconds = s["run_seconds"]
    with open(args.out, "a") as out:
        for workload in names:
            for seed in parse_seeds(args.seeds):
                proc = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                    cwd=ROOT, capture_output=True, text=True,
                )
                if proc.returncode != 0:
                    sys.exit("%s seed %d failed:\n%s" % (workload, seed, proc.stderr))
                result = json.loads(proc.stdout.splitlines()[-1])
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace, "result": result}) + "\n")
                out.flush()
                print("%-13s seed %-3d %s" % (workload, seed, " ".join(
                    "%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items()
                    if "." not in k or k.startswith("trace."))), flush=True)


def load(path) -> dict:
    """{workload: [result, ...]} in file order."""
    runs: dict = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metric_values(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def summarise(spec_: dict, runs: dict, traced: dict) -> dict:
    """Per workload: task and failure counts, the quartiles and spread
    (Q3 - Q1) / median of every end-to-end metric and, with traced runs, the
    per-layer medians and the tracing overhead, 1 - traced/untraced
    tasks_per_s on medians."""
    out = {}
    for w in spec_["workloads"]:
        results = runs.get(w["name"], [])
        if not results:
            continue
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {
            "why": w["why"],
            "seeds": len(results),
            "correct_runs": sum(r["correct"] for r in results),
            "tasks_per_run_median": statistics.median(r["attempted"] for r in results),
            "fail_frac": failed / attempted,
            "fail_base": attempted,
            "end_to_end": {},
        }
        for m in spec_["end_to_end"]:
            q1, med, q3 = quartiles(metric_values(results, m["name"]))
            entry["end_to_end"][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                              "spread": (q3 - q1) / med}
        if traced.get(w["name"]):
            entry["per_layer_median"] = {
                m["name"]: statistics.median(metric_values(traced[w["name"]], m["name"]))
                for m in spec_["per_layer"]}
            entry["tracing_overhead"] = 1 - (
                entry["per_layer_median"]["trace.tasks_per_s"]
                / entry["end_to_end"]["tasks_per_s"]["median"])
        out[w["name"]] = entry
    return out


def cmd_spread(args):
    s = spec()
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    summary = summarise(s, load(args.results), load(args.traced) if args.traced else {})
    worst, worst_at = 0.0, None
    for workload, entry in summary.items():
        print("%s: %d runs, %d tasks, fail_frac %.4g, correct in %d/%d" % (
            workload, entry["seeds"], entry["fail_base"], entry["fail_frac"],
            entry["correct_runs"], entry["seeds"]))
        for name, q in entry["end_to_end"].items():
            ratio = q["spread"] / bounds[name]
            if ratio > worst:
                worst, worst_at = ratio, "%s %s" % (workload, name)
            flag = "" if ratio < 1 / 3 else "  <-- above bound/3"
            print("  %-14s median %-12.6g Q1 %-12.6g Q3 %-12.6g spread %.4f (bound %.2f)%s" % (
                name, q["median"], q["q1"], q["q3"], q["spread"], bounds[name], flag))
        if "tracing_overhead" in entry:
            print("  tracing overhead: %.1f%%" % (100 * entry["tracing_overhead"]))
    print("largest spread / bound: %.3f (%s)" % (worst, worst_at))


def cmd_compare(args):
    s = spec()
    base, new = load(args.base), load(args.new)
    for workload in base:
        if workload not in new:
            continue
        print(workload)
        for m in s["end_to_end"]:
            a, b = metric_values(base[workload], m["name"]), metric_values(new[workload], m["name"])
            if not a or not b:
                continue
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            print("  %-14s base %-11.5g [%.5g, %.5g]  new %-11.5g [%.5g, %.5g]  new/base %.4f %s" % (
                m["name"], am, a1, a3, bm, b1, b3, bm / am, m["unit"]))


def cmd_baseline(args):
    s = spec()
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    out = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy_version, "platform": platform.platform()},
        "git_sha": sha,
        "run_seconds": s["run_seconds"],
        "workloads": summarise(s, load(args.results), load(args.traced)),
    }
    print(json.dumps(out, indent=2))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--seeds", required=True)
    p.add_argument("--workloads")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_run)
    p = sub.add_parser("spread")
    p.add_argument("results")
    p.add_argument("traced", nargs="?")
    p.set_defaults(fn=cmd_spread)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(fn=cmd_compare)
    p = sub.add_parser("baseline")
    p.add_argument("results")
    p.add_argument("traced")
    p.set_defaults(fn=cmd_baseline)
    args = parser.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
