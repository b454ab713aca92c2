"""Tests of the benchmark itself: output schema, exact counters, bare checkout.

    python3 -m pytest bench/tests -q

The run tests start bench/run.py in a fresh interpreter, as a benchmark
harness would, with --seconds 1 so every run makes a single pass (two when
traced).  The cap test drives the runner in-process with an item that hangs.
"""

import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("starts", "memory", "certify", "cli")
# counters that must repeat exactly for a given seed and program
EXACT = (
    "problems.grad_calls",
    "flows.field_calls",
    "sim.steps",
    "sim.substepped_steps",
    "caputo.correct_calls",
    "special.evals_per_zero",
    "cli.bytes_written",
)
# the counters each workload must actually drive, so the comparison is not vacuous
DRIVEN = {
    "starts": ("problems.grad_calls", "flows.field_calls", "sim.steps", "sim.substepped_steps",
               "caputo.correct_calls"),
    "memory": ("problems.grad_calls", "sim.steps", "caputo.correct_calls"),
    "certify": ("special.evals_per_zero",),
    "cli": ("problems.grad_calls", "sim.steps", "caputo.correct_calls", "special.evals_per_zero",
            "cli.bytes_written"),
}


def run(workload, seed, trace, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    return proc


def result(workload, seed, trace):
    proc = run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_and_units(trace, section):
    out = result("certify", 3, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(out["correct"], bool)
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert isinstance(out["failed"], int)
    assert {name: m["unit"] for name, m in out["metrics"].items()} == declared(section)
    for m in out["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counters_repeat_for_a_seed(workload):
    first = result(workload, 7, 1)
    second = result(workload, 7, 1)
    assert first["correct"] and second["correct"]
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    for name in DRIVEN[workload]:
        assert first["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("certify", 1, 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_item_cap_records_a_hang_as_failed(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    monkeypatch.setattr(bench_run, "ITEM_CAP_S", 0.2)

    def hang():
        while True:
            pass

    case = types.SimpleNamespace(key="hang", call=hang)
    runner = bench_run.Runner(types.SimpleNamespace(cases=[case], references={}))
    previous = signal.signal(signal.SIGALRM, bench_run._on_alarm)
    try:
        runner.run_item(case)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert runner.failed == 1 and runner.attempted == 1
    assert "cap" in runner.errors[0]
