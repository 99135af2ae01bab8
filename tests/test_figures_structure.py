"""Structural checks on figure reports at test scale.

Complements test_shapes (qualitative claims) by asserting each report
carries exactly the series and points its figure needs — the contract
EXPERIMENTS.md and the benchmark archive rely on.
"""

import pytest

from repro.harness.experiments import Scale
from repro.harness.workloads import SIMULATED_PROCS


@pytest.fixture(scope="module")
def reports(registry_runs):
    return lambda exp_id: registry_runs(exp_id).report


@pytest.mark.parametrize("fig", [f"fig{i}" for i in range(1, 9)])
def test_experimental_figures_have_two_machines(fig, reports):
    report = reports(fig)
    speedups = report.data["speedups"]
    assert set(speedups) == {"treadmarks", "sgi"}
    for series in speedups.values():
        assert set(series) == {1, 2, 4, 8}
        assert series[1] == pytest.approx(1.0)
        assert all(v > 0 for v in series.values())


@pytest.mark.parametrize("fig", ["fig9", "fig10", "fig11"])
def test_sim_figures_have_three_architectures(fig, reports):
    report = reports(fig)
    speedups = report.data["speedups"]
    assert set(speedups) == {"ah", "hs8", "as"}
    procs = SIMULATED_PROCS[Scale.TEST]
    for series in speedups.values():
        assert set(procs) <= set(series)


def test_fig12_13_consistent_totals(reports):
    msgs = reports("fig12").data
    data = reports("fig13").data
    assert set(msgs) == set(data)
    for workload in msgs:
        assert msgs[workload]["as_miss"] >= 0
        assert sum(data[workload]["as"].values()) > 0


@pytest.mark.parametrize("fig", ["fig14", "fig15", "fig16"])
def test_overhead_sweeps_have_four_series(fig, reports):
    speedups = reports(fig).data["speedups"]
    assert len(speedups) == 4
    labels = set(speedups)
    assert "fixed=2000,word=4" in labels
    assert "fixed=100,word=1" in labels


def test_x4_reports_both_implementations(reports):
    data = reports("x4").data
    assert set(data) == {"user-level", "kernel-level"}
    for row in data.values():
        assert row["lock_ms"] > 0
        assert row["barrier_ms"] > 0
    assert data["kernel-level"]["lock_ms"] < \
        data["user-level"]["lock_ms"]
