"""Tests of the benchmark itself.

Outside tier-1 ``testpaths`` on purpose (they run the benchmark, about
a minute and a half): ``python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import cProfile
import heapq
import importlib.util
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def load(name: str):
    """Import a benchmark module by path (``trace`` would otherwise
    resolve to the stdlib module of that name)."""
    spec = importlib.util.spec_from_file_location(
        f"e2e_{name}", os.path.join(HERE, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


e2e_trace = load("trace")
e2e_run = load("run")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    DECLARED = json.load(_fh)
E2E_UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}


def bench(*argv: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_metrics(metrics, units) -> None:
    for name, metric in metrics.items():
        assert NAME.fullmatch(name), name
        assert metric["unit"] == units[name], name
        assert math.isfinite(metric["value"]), name


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick") / "report.json"
    done = bench("--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out) as fh:
        return json.load(fh)


def test_quick_run_emits_every_declared_metric(quick_report):
    workloads = quick_report["workloads"]
    assert set(workloads) == {w["name"] for w in DECLARED["workloads"]}
    emitted = set()
    for name, entry in workloads.items():
        assert entry["fail_share"] == 0 and entry["attempted"] >= 1, name
        assert set(entry["end_to_end"]) == set(E2E_UNITS), name
        check_metrics(entry["end_to_end"], E2E_UNITS)
        assert all(m["value"] > 0 for m in entry["end_to_end"].values())
        assert set(entry["per_layer"]) <= set(LAYER_UNITS), name
        check_metrics(entry["per_layer"], LAYER_UNITS)
        emitted |= set(entry["per_layer"])
    assert emitted == set(LAYER_UNITS)
    for key in ("nproc", "jobs", "seed", "total_wall_s"):
        assert key in quick_report


def test_self_times_partition_the_traced_wall(quick_report):
    for name, entry in quick_report["workloads"].items():
        layers = entry["per_layer"]
        self_s = {layer: layers[f"{layer}.self_s"]["value"]
                  for layer in e2e_trace.LAYERS}
        if name == "figure_sweep":
            continue    # its pass is three legs plus their tear-down
        assert sum(self_s.values()) == pytest.approx(
            entry["traced_wall_s"], rel=0.02)
        dominant = max(self_s, key=self_s.get)
        assert dominant in {"tsp_compute": ("apps",),
                            "dsm_locks": ("dsm",), "dsm_barriers": ("dsm",),
                            "hw_coherence": ("hw", "mem")}[name]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_form_prints_the_declared_metrics(trace):
    done = bench("--workload", "dsm_barriers", "--seed", "3",
                 "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    units = LAYER_UNITS if trace == "1" else E2E_UNITS
    assert set(line["metrics"]) == set(units)
    check_metrics(line["metrics"], units)


def test_perturbed_expected_fails_the_run(tmp_path):
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    expected["dsm_barriers"]["as-sor_sim-p16"] = "0" * 64
    pins = tmp_path / "expected.json"
    pins.write_text(json.dumps(expected))
    out = tmp_path / "report.json"
    done = bench("--workload", "dsm_barriers", "--quick",
                 "--expected", str(pins), "--out", str(out))
    assert done.returncode != 0
    entry = json.loads(out.read_text())["workloads"]["dsm_barriers"]
    assert entry["fail_share"] > 0
    assert any("as-sor_sim-p16" in error for error in entry["errors"])


def test_fails_without_a_result_where_the_program_is_absent(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(
                        "__pycache__", ".scratch", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "dsm_barriers", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# ----------------------------------------------------------------------
@pytest.mark.parametrize("path, layer", [
    ("/x/src/repro/dsm/protocol.py", "dsm"),
    ("/x/src/repro/apps/tsp.py", "apps"),
    ("/x/src/repro/harness/parallel.py", "harness"),
    ("/x/src/repro/ledger/ledger.py", "harness"),
    ("/x/src/repro/check/checker.py", "harness"),
    ("/x/src/repro/recover/manager.py", "harness"),
    ("/x/src/repro/units.py", "other"),
    ("/home/repro/src/repro/hw/snoop.py", "hw"),
    ("C:\\w\\src\\repro\\mem\\store.py", "mem"),
    ("/usr/lib/python3/site-packages/numpy/core/fromnumeric.py", "numpy"),
    ("/home/repro/lib/site-packages/numpy/lib/function_base.py", "numpy"),
    ("/usr/lib/python3.11/json/encoder.py", "other"),
    ("/x/benchmarks/e2e/baskets.py", "other"),
])
def test_layer_of(path, layer):
    assert e2e_trace.layer_of(path) == layer


def test_fold_charges_builtins_to_their_caller_and_loses_nothing():
    def work():
        heap = []
        for i in range(2000):
            heapq.heappush(heap, -i)
        return json.dumps(heap)

    profile = cProfile.Profile()
    profile.runcall(work)
    stats = profile.getstats()
    self_s, calls = e2e_trace.fold(stats)
    # All of it but the profiler's own ``disable``, whose caller
    # (``runcall``) was entered before the hook was on.
    assert sum(self_s.values()) == pytest.approx(
        sum(entry.inlinetime for entry in stats), rel=1e-2)
    # heappush and this file are not the simulator's, nor numpy's.
    assert self_s["other"] == pytest.approx(sum(self_s.values()))
    assert set(calls.values()) == {0}


def metric(samples):
    return e2e_run.summarize(statistics.median(samples), samples, "s")


def test_compare_verdicts():
    steady = metric([1.00, 1.01, 0.99, 1.00])
    assert e2e_run.verdict(steady, metric([1.02, 1.03, 1.02, 1.04]),
                           "lower", 0.10) == "ok"
    assert e2e_run.verdict(steady, metric([1.20, 1.21, 1.19, 1.20]),
                           "lower", 0.10) == "regressed"
    assert e2e_run.verdict(steady, metric([0.80, 0.81, 0.79, 0.80]),
                           "higher", 0.10) == "regressed"
    noisy = metric([0.8, 1.3, 0.9, 1.2])
    assert e2e_run.verdict(steady, noisy, "lower", 0.10) == "unresolved"
    # ... unless every sample of B beats every sample of A.
    assert e2e_run.verdict(metric([2.0, 2.6, 2.1, 2.5]), steady,
                           "lower", 0.10) == "ok"
