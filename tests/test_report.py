"""The drift-detecting report pass: regenerate, diff, resume.

Runs ``run_report`` against a hermetic root (its own goldens, cache,
and ledger under tmp) and pins the three behaviours the CI job leans
on: a clean tree reports no drift, a perturbed golden produces a
structured non-ok diff, and a re-run resumes entirely from the cache
(ledger shows only hit records — nothing re-simulates).
"""

from __future__ import annotations

import json

import pytest

from repro.harness.cache import ResultCache
from repro.harness.parallel import run_context
from repro.harness.report import (GOLDEN_FIGURES, GOLDEN_SPEEDUPS, Drift,
                                  diff_values, run_report)
from repro.harness.workloads import Scale
from repro.ledger import Ledger

FIGURES = ("fig6",)          # small: one machine pair, TSP-18


@pytest.fixture(scope="module")
def report_root(tmp_path_factory):
    """A hermetic root whose goldens were written by the report itself."""
    root = tmp_path_factory.mktemp("report-root")
    cache = ResultCache(str(root / "cache"))
    ledger = Ledger(str(root / "cache" / "ledger.jsonl"))
    with run_context(cache=cache, ledger=ledger):
        outcome = run_report(figures=FIGURES, scale=Scale.TEST,
                             root=str(root), write=True,
                             log=lambda _msg: None)
    assert outcome.written
    return root


def _run(root, **kwargs):
    cache = ResultCache(str(root / "cache"))
    ledger = Ledger(str(root / "cache" / "ledger.jsonl"))
    with run_context(cache=cache, ledger=ledger):
        outcome = run_report(figures=FIGURES, scale=Scale.TEST,
                             root=str(root), log=lambda _msg: None,
                             **kwargs)
    return outcome, cache, ledger


def test_clean_tree_reports_no_drift(report_root):
    outcome, _cache, _ledger = _run(report_root)
    assert outcome.ok
    assert outcome.drifts == []
    assert GOLDEN_SPEEDUPS in outcome.artifacts
    assert f"{GOLDEN_FIGURES}#test/fig6" in outcome.artifacts
    doc = outcome.drift_document()
    assert doc["ok"] and doc["drift_count"] == 0


def test_rerun_resumes_from_cache(report_root):
    """A killed/repeated pass re-simulates nothing: all cache hits."""
    before = len(Ledger(str(report_root / "cache" / "ledger.jsonl")))
    outcome, cache, ledger = _run(report_root)
    assert outcome.ok
    assert cache.stats()["misses"] == 0
    assert cache.stats()["hits"] > 0
    appended = list(ledger.records())[before:]
    assert len(appended) == ledger.appended > 0
    assert {r["path"] for r in appended} == {"hit"}
    assert all(r["executor"] == "cache" and "produced_by" in r
               for r in appended)


def test_perturbed_golden_yields_structured_drift(report_root):
    path = report_root / GOLDEN_SPEEDUPS
    committed = path.read_text()
    data = json.loads(committed)
    series = sorted(data)[0]
    nproc = sorted(data[series]["cycles"])[0]
    data[series]["cycles"][nproc] += 1
    try:
        path.write_text(json.dumps(data))
        outcome, _cache, _ledger = _run(report_root)
    finally:
        path.write_text(committed)
    assert not outcome.ok
    (drift,) = outcome.drifts
    assert drift.artifact == GOLDEN_SPEEDUPS
    assert drift.key == f"{series}.cycles.{nproc}"
    assert drift.expected == drift.actual + 1
    doc = outcome.drift_document()
    assert doc["drift_count"] == 1
    assert doc["drifts"][0]["key"] == drift.key
    assert not doc["ok"]


def test_missing_golden_is_drift(report_root):
    figures_path = report_root / GOLDEN_FIGURES
    committed = figures_path.read_text()
    try:
        figures_path.unlink()
        outcome, _cache, _ledger = _run(report_root)
    finally:
        figures_path.write_text(committed)
    assert not outcome.ok
    assert any(d.artifact.startswith(GOLDEN_FIGURES)
               for d in outcome.drifts)


def test_diff_values_walks_nested_structures():
    expected = {"a": {"b": [1, 2, 3]}, "c": 1.0}
    actual = {"a": {"b": [1, 9, 3]}, "d": True}
    drifts = diff_values("art", expected, actual)
    as_dicts = {d.key: (d.expected, d.actual) for d in drifts}
    assert as_dicts == {
        "a.b[1]": (2, 9),
        "c": (1.0, None),
        "d": (None, True),
    }
    assert all(isinstance(d, Drift) and d.artifact == "art"
               for d in drifts)
    assert diff_values("art", expected, expected) == []
