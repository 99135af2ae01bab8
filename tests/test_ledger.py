"""Provenance-ledger semantics: append-only, concurrent-safe, stable ids.

The ledger's value is entirely in its guarantees: records are never
rewritten, concurrent writers never interleave partial lines, a cache
hit appends a new attempt instead of mutating the producing record,
and the run_id of a given simulation point is the same whether it ran
serially, on the pool, or was served from a warm cache.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import ConsistencyViolation
from repro.harness.cache import ResultCache, run_key
from repro.harness.parallel import RunPlan, execute_plan, run_context
from repro.harness.workloads import Scale, make_app
from repro.ledger import (Ledger, ledger_session, make_run_id, run_scope)
from repro.machines import DecTreadMarksMachine, SgiMachine
from repro.trace import trace_session
from repro.trace.export import metrics_record


@pytest.fixture
def app():
    return make_app("sor_small", Scale.TEST)


def _plan():
    plan = RunPlan()
    for machine_cls in (DecTreadMarksMachine, SgiMachine):
        for p in (1, 2):
            plan.add(machine_cls(), make_app("sor_small", Scale.TEST), p)
    return plan


# ======================================================================
# Append-only file semantics
# ======================================================================
def test_append_never_rewrites_existing_bytes(tmp_path):
    path = str(tmp_path / "ledger.jsonl")
    ledger = Ledger(path)
    for i in range(3):
        ledger.append({"key": f"k{i}", "attempt": 1, "i": i})
    with open(path, "rb") as fh:
        snapshot = fh.read()
    for i in range(3, 5):
        ledger.append({"key": f"k{i}", "attempt": 1, "i": i})
    with open(path, "rb") as fh:
        grown = fh.read()
    assert grown.startswith(snapshot)
    assert len(ledger) == 5
    assert [r["i"] for r in ledger.records()] == list(range(5))


def test_reader_skips_torn_final_line(tmp_path):
    path = str(tmp_path / "ledger.jsonl")
    ledger = Ledger(path)
    ledger.append({"key": "whole", "attempt": 1})
    with open(path, "a") as fh:
        fh.write('{"key": "torn", "att')      # killed mid-write
    assert [r["key"] for r in Ledger(path).records()] == ["whole"]


def _hammer(args):
    """One concurrent writer: append ``count`` records tagged ``tag``."""
    path, tag, count = args
    ledger = Ledger(path)
    # A payload long enough that interleaved partial writes would tear.
    pad = "x" * 500
    for i in range(count):
        ledger.append({"key": f"{tag}", "attempt": i + 1,
                       "writer": tag, "i": i, "pad": pad})
    return tag


def test_concurrent_writers_never_interleave(tmp_path):
    path = str(tmp_path / "ledger.jsonl")
    writers, per_writer = 4, 40
    with ProcessPoolExecutor(max_workers=writers) as pool:
        list(pool.map(_hammer,
                      [(path, f"w{n}", per_writer)
                       for n in range(writers)]))
    # Every line must parse — raw readthrough, not the tolerant
    # Ledger.records() (which would mask interleaving as torn lines).
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    assert len(records) == writers * per_writer
    for n in range(writers):
        mine = [r for r in records if r["writer"] == f"w{n}"]
        assert sorted(r["i"] for r in mine) == list(range(per_writer))


# ======================================================================
# Run identity
# ======================================================================
def test_next_run_id_counts_existing_records(tmp_path):
    path = str(tmp_path / "ledger.jsonl")
    key = "ab" * 32
    Ledger(path).append({"key": key, "attempt": 2})
    run_id, attempt = Ledger(path).next_run_id(key)
    assert attempt == 3
    assert run_id == make_run_id(key, 3) == f"{key[:16]}.0003"


def test_run_id_stable_across_serial_and_pool(tmp_path, app):
    expected = {make_run_id(run_key(spec.machine, spec.app, spec.nprocs,
                                    seed=spec.seed, params=spec.params),
                            1)
                for spec in _plan().specs}
    by_mode = {}
    for mode, jobs in (("serial", 1), ("pool", 2)):
        ledger = Ledger(str(tmp_path / f"{mode}.jsonl"))
        results = execute_plan(_plan(), jobs=jobs, ledger=ledger)
        by_mode[mode] = {r.run_id for r in results}
        assert {rec["run_id"] for rec in ledger.records()} == expected
    assert by_mode["serial"] == by_mode["pool"] == expected


def test_warm_cache_appends_hit_records(tmp_path, app):
    ledger = Ledger(str(tmp_path / "ledger.jsonl"))
    cache = ResultCache(str(tmp_path / "cache"))
    cold = execute_plan(_plan(), jobs=1, cache=cache, ledger=ledger)
    warm = execute_plan(_plan(), jobs=1, cache=cache, ledger=ledger)
    records = list(ledger.records())
    misses = [r for r in records if r["path"] == "miss"]
    hits = [r for r in records if r["path"] == "hit"]
    assert len(misses) == len(hits) == len(_plan())
    for hit in hits:
        assert hit["attempt"] == 2
        assert hit["executor"] == "cache"
        producer = next(m for m in misses if m["key"] == hit["key"])
        assert hit["produced_by"] == producer["run_id"]
        assert hit["cycles"] == producer["cycles"]
    # Served results are re-stamped with the *hit's* identity, and
    # nothing else about them may differ (the determinism contract).
    assert {r.run_id for r in warm} == {h["run_id"] for h in hits}
    assert [r.summary() for r in cold] == [r.summary() for r in warm]


def test_run_context_ledger_alone_records_every_run(tmp_path):
    """An empty Ledger is falsy (``__len__`` is 0): the ambient one
    must be picked by identity, with no ``ledger_session`` around."""
    ledger = Ledger(str(tmp_path / "new.jsonl"))
    with run_context(ledger=ledger):
        results = execute_plan(_plan())
    assert ([rec["run_id"] for rec in ledger.records()] ==
            [r.run_id for r in results])
    assert len(ledger) == len(_plan())
    # run_id is identity, not measurement: summaries stay id-free.
    assert all("run_id" not in r.summary() for r in results)


def test_traced_plan_appends_fresh_records(tmp_path):
    """A live tracing session runs plans serially and uncached; the
    plan layer still records each unique run, with the id it stamped
    on the result the session collected."""
    ledger = Ledger(str(tmp_path / "traced.jsonl"))
    cache = ResultCache(str(tmp_path / "cache"))
    with run_context(cache=cache, ledger=ledger), \
            trace_session(trace=True) as session:
        execute_plan(_plan())
    records = list(ledger.records())
    assert [(rec["path"], rec["executor"]) for rec in records] == \
        [("fresh", "serial")] * len(_plan())
    assert session.run_ids == [rec["run_id"] for rec in records]


def test_x4_runs_are_plan_records_and_rerun_is_all_hits(tmp_path):
    """x4's four micro-benchmark cells go through the plan layer like
    every other experiment: recorded under ``run_context(ledger=L)``
    alone, cached, and served from the cache on a second run."""
    from repro.harness.experiments import Scale, run_experiment
    ledger = Ledger(str(tmp_path / "x4.jsonl"))
    cache = ResultCache(str(tmp_path / "cache"))
    with run_context(cache=cache, ledger=ledger):
        first = run_experiment("x4", Scale.TEST)
        second = run_experiment("x4", Scale.TEST)
    assert [rec["path"] for rec in ledger.records()] == \
        ["miss"] * 4 + ["hit"] * 4
    assert {rec["executor"] for rec in ledger.records()} == \
        {"serial", "cache"}
    assert second.data == first.data


# ======================================================================
# Downstream correlation
# ======================================================================
def test_no_ledger_means_no_run_id(app):
    result = DecTreadMarksMachine().run(app, 1)
    assert result.run_id is None
    assert "run_id" not in metrics_record(result)


def test_metrics_record_carries_run_id(tmp_path, app):
    ledger = Ledger(str(tmp_path / "ledger.jsonl"))
    plan = RunPlan()
    plan.add(DecTreadMarksMachine(), app, 1)
    with ledger_session(ledger):
        (result,) = execute_plan(plan)
    assert metrics_record(result)["run_id"] == result.run_id
    assert result.run_id is not None


def test_consistency_violation_carries_run_id():
    with run_scope("deadbeefdeadbeef.0007"):
        exc = ConsistencyViolation("stale read observed")
    assert exc.run_id == "deadbeefdeadbeef.0007"
    assert "[run deadbeefdeadbeef.0007]" in str(exc)
    assert ConsistencyViolation("outside any run").run_id is None
