"""The claims each registry entry declares, and ``repro-harness validate``."""

import copy
import math

import pytest

from repro.harness import experiments
from repro.harness.cli import main
from repro.harness.experiments import (Claim, Experiment, Report,
                                       list_experiments)
from repro.harness.parallel import RunPlan

#: claim name -> (experiment id, claim), over the whole registry.
CLAIMS = {claim.name: (exp.exp_id, claim)
          for exp in list_experiments() for claim in exp.claims}

#: The claims that fail at ``Scale.TEST``: they are calibrated for the
#: bench-scale problems, where all of them hold.
FAILING_AT_TEST_SCALE = {
    "t1-sgi-slower-on-big-sor", "t2-water-syncs-most",
    "fig3-treadmarks-wins-large-sor", "fig8-mwater-recovers",
    "x3-treadmarks-wins-even-alldirty"}


def test_every_check_references_known_experiment():
    """Each claim is declared on the entry its name starts with."""
    for name, (exp_id, _claim) in CLAIMS.items():
        assert name.split("-")[0] == exp_id.split("-")[0], name


def test_check_names_unique():
    names = [claim.name for exp in list_experiments()
             for claim in exp.claims]
    assert len(names) == len(set(names)) == len(CLAIMS) == 30


# ----------------------------------------------------------------------
# `validate` over a fake registry
# ----------------------------------------------------------------------
def _fake(exp_id, *margins, runs=None):
    """An entry whose report is empty and whose claims score
    ``margins``; ``runs`` counts its plans."""
    def plan(scale):
        if runs is not None:
            runs.append(exp_id)
        return RunPlan()

    return Experiment(
        exp_id, "fake", "ref", "note", "claim", plan=plan,
        assemble=lambda scale, plan, results: Report(exp_id, "fake"),
        claims=tuple(Claim(f"{exp_id}-{i}", f"claim {i}",
                           lambda report, m=m: m)
                     for i, m in enumerate(margins)))


def _validate(monkeypatch, capsys, *entries):
    monkeypatch.setattr(experiments, "REGISTRY",
                        {exp.exp_id: exp for exp in entries})
    code = main(["validate", "--scale", "test", "--no-cache",
                 "--no-ledger", "--quiet"])
    return code, capsys.readouterr().out.splitlines()


def test_format_results(monkeypatch, capsys):
    """One line per claim with its signed margin, then the tally."""
    _code, lines = _validate(monkeypatch, capsys, _fake("t1", 0.25, -0.5))
    assert lines[0].startswith("[PASS] t1-0 ")
    assert " +0.250 (t1) claim 0" in lines[0]
    assert lines[1].startswith("[FAIL] t1-1 ")
    assert " -0.500 (t1) claim 1" in lines[1]
    assert "1/2 claims hold" in lines


def test_failing_claim_prints_the_command_that_shows_its_table(
        monkeypatch, capsys):
    command = "repro-harness run sync-sweep --scale test"
    _code, passing = _validate(monkeypatch, capsys, _fake("sync-sweep", 1.0))
    assert not any(command in line for line in passing)
    # A zero margin is no margin: the claim fails.
    _code, failing = _validate(monkeypatch, capsys, _fake("sync-sweep", 0.0))
    assert command in failing[1]


def test_run_validation_shares_experiment_runs(monkeypatch, capsys):
    runs = []
    _validate(monkeypatch, capsys, _fake("t1", 1.0, 2.0, runs=runs),
              _fake("t2", 1.0, runs=runs), _fake("fig1", runs=runs))
    assert runs == ["t1", "t2"]     # once each; no claims, no run


def test_cli_validate_exits_nonzero_on_any_failed_claim(monkeypatch,
                                                        capsys):
    assert _validate(monkeypatch, capsys, _fake("t1", 1.0, 0.5))[0] == 0
    assert _validate(monkeypatch, capsys, _fake("t1", 1.0),
                     _fake("t2", -1.0))[0] == 1


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
    sweep_claims = {name for name, (exp_id, _c) in CLAIMS.items()
                    if exp_id.endswith("-sweep")}
    assert sweep_claims == set(SWEEP_CLAIM_CASES)


@pytest.mark.parametrize("name", SWEEP_CLAIM_CASES)
def test_sweep_claim_holds_and_fails(name):
    _exp_id, claim = CLAIMS[name]
    holds, fails = SWEEP_CLAIM_CASES[name]
    assert claim.margin(holds) > 0
    for report in fails:
        assert claim.margin(report) <= 0


# ----------------------------------------------------------------------
# Every claim on the real test-scale reports
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", CLAIMS)
def test_predicates_do_not_crash_on_real_reports(name, registry_runs):
    """Every claim scores a finite margin on real data."""
    exp_id, claim = CLAIMS[name]
    margin = claim.margin(registry_runs(exp_id).report)
    assert isinstance(margin, float) and math.isfinite(margin)


def test_test_scale_verdicts_are_pinned(registry_runs):
    """Exactly the claims calibrated beyond test scale fail there; a
    wrongly converted margin flips one of the others."""
    failing = {name for name, (exp_id, claim) in CLAIMS.items()
               if not claim.margin(registry_runs(exp_id).report) > 0}
    assert failing == FAILING_AT_TEST_SCALE
