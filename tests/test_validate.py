"""The executable shape-claim checks."""

import copy

import pytest

from repro.harness.experiments import REGISTRY, Report, Scale
from repro.harness.validate import (CHECKS, ShapeCheck, format_results,
                                    run_validation)


def test_every_check_references_known_experiment():
    for check in CHECKS:
        assert check.exp_id in REGISTRY, check.name


def test_check_names_unique():
    names = [c.name for c in CHECKS]
    assert len(names) == len(set(names))


def test_format_results():
    checks = [ShapeCheck("demo", "t1", "demo claim", lambda r: True)]
    lines = format_results([(checks[0], True), (checks[0], False)])
    assert lines[0].startswith("[PASS]")
    assert lines[1].startswith("[FAIL]")
    assert lines[-1] == "1/2 shape claims hold"


def test_failing_claim_prints_the_command_that_shows_its_table():
    check = ShapeCheck("demo", "sync-sweep", "demo claim", lambda r: True)
    passing = format_results([(check, True)], Scale.TEST)
    failing = format_results([(check, False)], Scale.TEST)
    command = "repro-harness run sync-sweep --scale test"
    assert not any(command in line for line in passing)
    assert command in failing[1]


def test_run_validation_shares_experiment_runs(monkeypatch):
    calls = []

    def fake_run(exp_id, scale):
        calls.append(exp_id)
        return Report(exp_id, "t", data={"x": 1})

    monkeypatch.setattr("repro.harness.validate.run_experiment",
                        fake_run)
    checks = [
        ShapeCheck("a", "t1", "c", lambda r: r.data["x"] == 1),
        ShapeCheck("b", "t1", "c", lambda r: True),
        ShapeCheck("c", "t2", "c", lambda r: False),
    ]
    results = run_validation(Scale.TEST, checks)
    assert calls == ["t1", "t2"]          # t1 ran once, shared
    assert [ok for _c, ok in results] == [True, True, False]


def test_cli_validate_exits_nonzero_on_any_failed_claim(monkeypatch,
                                                        capsys):
    from repro.harness.cli import main
    monkeypatch.setattr("repro.harness.validate.run_experiment",
                        lambda exp_id, scale: Report(exp_id, "t"))
    holds = ShapeCheck("holds", "t1", "c", lambda r: True)
    fails = ShapeCheck("fails", "t2", "c", lambda r: False)
    argv = ["validate", "--scale", "test", "--no-cache", "--no-ledger"]
    monkeypatch.setattr("repro.harness.validate.CHECKS", [holds, holds])
    assert main(argv) == 0
    monkeypatch.setattr("repro.harness.validate.CHECKS", [holds, fails])
    assert main(argv) == 1
    assert "repro-harness run t2 --scale test" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The sweep claims on synthetic reports: each must be able to fail.
# ----------------------------------------------------------------------
def _sync_report(software_gain, ah_speedups):
    return Report("sync-sweep", "t", data={
        "top_procs": 16,
        "summary": {"mwater/as": {"gain": software_gain},
                    "tsp18/hs": {"gain": 1.0}},
        "cells": {"mwater": {
            "as": {"token+central": {"speedups": {"16": 1.0}}},
            "ah": {f"policy{i}": {"speedups": {"16": s}}
                   for i, s in enumerate(ah_speedups)}}},
    })


_CRASH_CELL = {
    "speedup": 2.3, "clean_speedup": 23.5, "detect_cycles": 1_000_000,
    "degraded": {"failed_nodes": [15], "crashed_at": [500],
                 "detected_at": [1_000_500]},
}


def _failure_report(**changes):
    """Two crashed cells: one healthy, one with ``changes`` applied."""
    return Report("failure-sweep", "t", data={
        "sor_sim": {"as": {"0.25": copy.deepcopy(_CRASH_CELL),
                           "0.5": {**copy.deepcopy(_CRASH_CELL),
                                   **changes}}}})


def _ablation_report(diff_ratio, scores, mechanisms=None):
    return Report("ablation-sweep", "t", data={
        "cells": {
            "as/sor_sim": {"loo": {"diffs": {
                "full": {"bytes": 10}, "ablated": {"bytes": 1000}}}},
            "as/mwater": {"loo": {"diffs": {
                "full": {"bytes": 100},
                "ablated": {"bytes": 100 * diff_ratio}}}}},
        "ranking": [{"mechanism": m, "score": s}
                    for m, s in scores.items()],
        "mechanisms": list(mechanisms or scores),
    })


#: name -> (report on which the claim holds, reports on which it fails)
SWEEP_CLAIM_CASES = {
    "sync-best-policy-lifts-software": (
        _sync_report(1.05, [30.0, 30.1]),
        [_sync_report(1.01, [30.0, 30.0])]),
    "sync-ah-flatter-than-software": (
        _sync_report(1.175, [30.0, 33.9]),
        [_sync_report(1.05, [30.0, 33.9]),      # AH moves more than AS
         _sync_report(1.0, [30.0, 30.0])]),     # nothing moves at all
    "failure-every-crash-completes": (
        _failure_report(),
        [_failure_report(degraded={}),
         Report("failure-sweep", "t", data={})]),
    "failure-detection-bounded": (
        _failure_report(),
        [_failure_report(degraded={"failed_nodes": [15],
                                   "crashed_at": [500],
                                   "detected_at": [1_001_501]}),
         _failure_report(degraded={"failed_nodes": [15],
                                   "crashed_at": [500],
                                   "detected_at": [500]}),
         _failure_report(degraded={})]),
    "failure-degraded-beats-one-proc": (
        _failure_report(),
        [_failure_report(speedup=0.97)]),
    "ablation-diffs-cut-mwater-bytes": (
        _ablation_report(1.5, {"diffs": 3.0}),
        [_ablation_report(1.2, {"diffs": 3.0})]),  # SOR's x100 is not M-Water's
    "ablation-no-dead-mechanism": (
        _ablation_report(1.5, {"diffs": 3.0, "backoff": 0.007}),
        [_ablation_report(1.5, {"diffs": 3.0, "backoff": 0.0}),
         _ablation_report(1.5, {"diffs": 3.0},
                          mechanisms=["diffs", "backoff"])]),
}


def test_every_sweep_claim_has_a_failing_case():
    sweep_claims = {c.name for c in CHECKS if c.exp_id.endswith("-sweep")}
    assert sweep_claims == set(SWEEP_CLAIM_CASES)


@pytest.mark.parametrize("name", SWEEP_CLAIM_CASES)
def test_sweep_claim_holds_and_fails(name):
    (check,) = [c for c in CHECKS if c.name == name]
    holds, fails = SWEEP_CLAIM_CASES[name]
    assert check.evaluate(holds) is True
    for report in fails:
        assert check.evaluate(report) is False


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.name)
def test_predicates_do_not_crash_on_real_reports(check, registry_runs):
    """Every predicate must evaluate (True or False) on real data."""
    report = registry_runs(check.exp_id).report
    assert check.evaluate(report) in (True, False)
