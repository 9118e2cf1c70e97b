"""Tests of the benchmark itself; not part of the library's test suite.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from halphen import qseries  # noqa: E402
from tracer import TASK, Tracer, install  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_run(workload, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_reports_every_end_to_end_metric(workload):
    result = bench_run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_cli_pass_reports_every_per_layer_metric():
    result = bench_run("cli-session", trace=1)
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for name in ("cli.import_s", "cli.parse.s", "cli.handler.s", "cli.render.s",
                 "cli.report_bytes", "trace.tasks_per_s"):
        assert metrics[name]["value"] > 0, name


def test_missing_source_tree_fails_without_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.iterdir():
        if f.is_file():
            (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-series", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout


def test_oracles_pass_on_the_library():
    assert workloads.product_task(60, 4)() == workloads.OK
    assert workloads.product_task(60, 6)() == workloads.OK
    assert workloads.jacobi_task(200)() == workloads.OK
    assert workloads.log_unit_task(2, 200, 0.1 + 1.2j)() == workloads.OK


def test_timed_tau_stay_off_the_axis_and_the_probe_sees_it():
    for label, _ in itertools.islice(workloads.stream("numeric-flow", 4), 300):
        for tau in re.findall(r"\(([-+0-9.e]+)([-+][0-9.e]+)j\)", label):
            assert float(tau[1]) >= workloads.IM_TAU_MIN, label
    assert " 4 of 4 " in workloads.defect_probe("numeric-flow")


def test_perturbed_product_raises_fail_frac(monkeypatch):
    series = qseries.PiGradedQSeries
    original = series.__mul__

    def one_coefficient_off(self, other):
        product = original(self, other)
        if isinstance(other, series) and product.trunc_order >= 7:
            product = product + series({7: 1}, product.trunc_order, product.pi_power)
        return product

    monkeypatch.setattr(series, "__mul__", one_coefficient_off)
    assert workloads.product_task(60, 4)() == workloads.WRONG
    assert workloads.jacobi_task(200)() != workloads.OK
    summary = worker.timed_loop(workloads.stream("exact-series", 1), 0.5)
    assert summary["failed"] / summary["attempted"] > 0


def traced_loop(monkeypatch, stream, seconds):
    tracer = Tracer()
    install(tracer, monkeypatch.setattr)
    summary = worker.timed_loop(stream, seconds, tracer)
    return tracer, summary


def test_self_times_stay_within_task_wall_time(monkeypatch):
    tracer, summary = traced_loop(monkeypatch, workloads.exact_theta(2), 1.0)
    assert sum(tracer.self_s.values()) <= sum(summary["latencies_s"])
    # per task, from the stored spans: self = duration - children's durations
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    index = {sid: i for i, sid in enumerate(tracer.span_id)}
    children = [0.0] * len(dur)
    for i, parent in enumerate(tracer.parent):
        if parent >= 0:
            children[index[parent]] += dur[i]
    task_wall, task_self = {}, {}
    for i, task in enumerate(tracer.task_id):
        task_self[task] = task_self.get(task, 0.0) + dur[i] - children[i]
        if tracer.names[tracer.name_id[i]] == TASK:
            task_wall[task] = dur[i]
    assert task_wall.keys() == task_self.keys()
    for task, wall in task_wall.items():
        assert task_self[task] <= wall * (1 + 1e-9)


def test_series_products_dominate_the_dense_half(monkeypatch):
    tracer, summary = traced_loop(monkeypatch, workloads.exact_dense(2), 3.0)
    layers = worker.layer_metrics(tracer, summary)
    task_s = sum(summary["latencies_s"]) / summary["attempted"] * speed.scale(summary["snippets_s"])
    assert layers["qseries.mul.s"] >= 0.9 * task_s
