"""One run path: every registry experiment is one plan through
``execute_plan``, so the cache, the ledger, ``checking()`` and trace
sessions see every simulated cell."""

from repro.check import checking
from repro.check.checker import active_check_config
from repro.harness.experiments import REGISTRY, Scale, run_experiment
from repro.harness.parallel import run_context
from repro.harness.runner import run_curves
from repro.harness.workloads import make_app
from repro.ledger import Ledger
from repro.machines import DecTreadMarksMachine
from repro.machines.base import Machine


def test_every_experiment_is_one_plan(registry_runs):
    """One ``execute_plan`` per experiment — two for ``failure-sweep``,
    whose crash times come from its clean phase — and no simulation
    outside the plan layer."""
    for exp_id in REGISTRY:
        run = registry_runs(exp_id)
        expected = 2 if exp_id == "failure-sweep" else 1
        assert (run.plans, run.bare_runs) == (expected, 0), exp_id


def test_fig13_after_fig12_simulates_under_checking(registry_runs,
                                                    monkeypatch):
    registry_runs("fig12")
    armed = []
    real_run = Machine.run

    def spy(self, *args, **kwargs):
        armed.append(active_check_config() is not None)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", spy)
    with checking():
        run_experiment("fig13", Scale.TEST)
    assert armed == [True] * 6


def test_fig13_after_fig12_appends_one_record_per_cell(registry_runs,
                                                       tmp_path):
    registry_runs("fig12")
    ledger = Ledger(str(tmp_path / "ledger.jsonl"))
    with run_context(ledger=ledger):
        run_experiment("fig13", Scale.TEST)
    records = list(ledger.records())
    assert len(records) == len({rec["key"] for rec in records}) == 6


def test_fault_sweep_at_loss_zero_is_the_lossless_path(registry_runs):
    """Zero overhead when disabled: the rate-0 sweep point reproduces
    the clean TreadMarks speedup exactly, every recovery counter 0."""
    data = registry_runs("fault-sweep").report.data
    clean = run_curves({
        workload: (DecTreadMarksMachine(), make_app(workload, Scale.TEST),
                   (8,))
        for workload in data})
    for workload, by_rate in data.items():
        point = by_rate["0"]
        assert point["speedup"] == clean[workload].speedups()[8], workload
        for counter in ("retransmissions", "duplicates_dropped",
                        "messages_dropped", "timeout_cycles"):
            assert point[counter] == 0, (workload, counter)
