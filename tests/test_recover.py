"""Crash-stop node failures: detection, DSM repair, degraded
completion, determinism, and the self-healing worker pool.

Covers ``repro.recover`` end to end — the :class:`RetryPolicy` edges,
the crash mini-language, both detection paths (retransmission timeout
and keepalive backstop), the repaired run's degraded metadata and
recovery counters, the serial == pool == warm-cache contract for crash
cells, checker silence on degraded runs, and the harness pool's
respawn/retry/quarantine behaviour when worker *processes* die.
"""

from __future__ import annotations

import functools
import math
import os

import pytest

import repro.harness.parallel as parallel
from repro import Scale, make_app, make_machine
from repro.apps import SorApp, ops
from repro.apps.base import Application
from repro.check import checking
from repro.errors import (ConfigurationError, DeadlockError,
                          NetworkPartitionError, WorkerCrashError)
from repro.harness.cache import ResultCache
from repro.harness.parallel import (MAX_WORKER_RETRIES, RunPlan,
                                    execute_plan, shutdown_pool)
from repro.ledger import Ledger, ledger_session
from repro.machines import (AllHardwareMachine, AllSoftwareMachine,
                            DecTreadMarksMachine, HybridMachine,
                            SgiMachine)
from repro.machines.params import HsParams
from repro.net.faults import (CrashEvent, FaultInjector, FaultPlan,
                              RetryPolicy, parse_crashes, parse_schedule)
from repro.net.reliable import ReliableNetwork
from repro.sim.engine import Engine
from repro.stats.counters import MsgKind
from repro.sync import BARRIER_ALGORITHMS, LOCK_ALGORITHMS

from tests.conftest import LockCounterApp


# ----------------------------------------------------------------------
# RetryPolicy: backoff edges
# ----------------------------------------------------------------------

def test_retry_policy_backoff_grows_then_caps():
    policy = RetryPolicy(backoff_factor=2.0, backoff_cap_cycles=300)
    assert policy.rto_for(100, 1) == 100
    assert policy.rto_for(100, 2) == 200
    assert policy.rto_for(100, 3) == 300     # capped (would be 400)
    assert policy.rto_for(100, 9) == 300     # stays capped forever
    assert policy.rto_for(0, 1) == 1         # never below one cycle


@pytest.mark.parametrize("kwargs", [
    {"max_retries": -1}, {"rto_multiplier": 0},
    {"backoff_factor": 0.5}, {"backoff_cap_cycles": 0},
])
def test_retry_policy_rejects_bad_parameters(kwargs):
    with pytest.raises(ConfigurationError):
        RetryPolicy(**kwargs)


def test_plan_folds_legacy_knobs_and_policy_both_ways():
    legacy = FaultPlan(max_retries=5, rto_multiplier=3.0)
    assert legacy.retry == RetryPolicy(max_retries=5, rto_multiplier=3.0)
    explicit = FaultPlan(retry=RetryPolicy(max_retries=2,
                                           backoff_cap_cycles=99))
    assert explicit.max_retries == 2
    assert explicit.retry.backoff_cap_cycles == 99


def test_capped_backoff_bounds_total_timeout_wait(atm, engine, counters):
    """With the cap pinned at the base RTO every retry waits the same
    flat interval: exhausting 3 retries costs 4 * rto, not 15 * rto."""
    base_rto = max(1, int(4.0 * atm.roundtrip_estimate(128)))
    net = ReliableNetwork(atm, FaultPlan(
        schedule=parse_schedule("drop:diff_request"),
        retry=RetryPolicy(max_retries=3, backoff_cap_cycles=base_rto)))
    net.send(0, 3, 128, kind=MsgKind.DIFF_REQUEST)
    with pytest.raises(NetworkPartitionError) as err:
        engine.run()
    assert err.value.attempts == 4
    assert counters.timeout_cycles == 4 * base_rto


def test_partition_error_carries_suspect_and_trail(atm, engine, counters):
    net = ReliableNetwork(atm, FaultPlan(
        schedule=parse_schedule("drop:diff_request"), max_retries=1))
    net.send(0, 3, 128, kind=MsgKind.DIFF_REQUEST)
    with pytest.raises(NetworkPartitionError) as err:
        engine.run()
    assert err.value.suspect == 3
    assert err.value.now == engine.now
    assert err.value.trail                   # replayable event slice
    assert any(entry[3] == 3 for entry in err.value.trail)


def test_watchdog_deadlock_carries_network_suspect():
    """The engine watchdog includes the reliable layer's diagnostics:
    a silent no-progress hang names the most-retransmitted-to node."""
    engine = Engine()
    engine.watchdog_cycles = 10_000

    class Stuck:
        ops_issued = 0
        finished = False

    engine.register_task(Stuck())
    trail = (("timeout", 5_000, 0, 2, "diff_request"),)
    engine.net_diagnostics = lambda: (2, trail)

    def heartbeat():
        engine.schedule(1_000, heartbeat)

    engine.schedule(0, heartbeat)
    with pytest.raises(DeadlockError) as err:
        engine.run()
    assert err.value.suspect == 2
    assert err.value.trail == trail


# ----------------------------------------------------------------------
# The crash mini-language and plan validation
# ----------------------------------------------------------------------

def test_crash_event_validation():
    with pytest.raises(ConfigurationError):
        CrashEvent(-1, 10)
    with pytest.raises(ConfigurationError):
        CrashEvent(0, -5)
    with pytest.raises(ConfigurationError):
        CrashEvent(0, 10, rejoin=10)         # must be strictly after


def test_parse_crashes_round_trip():
    assert parse_crashes("crash@node3:t=500000") == (
        CrashEvent(3, 500_000),)
    assert parse_crashes(
        "crash@node1:t=2000:rejoin=9000; crash@node2:t=100") == (
        CrashEvent(1, 2_000, rejoin=9_000), CrashEvent(2, 100))


@pytest.mark.parametrize("spec", [
    "", "node3:t=5", "crash@node:t=5", "crash@node3",
    "crash@node3:t=soon", "crash@node3:t=5:when=now",
])
def test_parse_crashes_rejects_bad_specs(spec):
    with pytest.raises(ConfigurationError):
        parse_crashes(spec)


def test_crash_specs_are_not_schedule_rules():
    with pytest.raises(ConfigurationError):
        parse_schedule("crash@node3:t=500000")


def test_crash_plan_enabled_labelled_and_deduplicated():
    plan = FaultPlan(crashes=(CrashEvent(3, 500_000),))
    assert plan.enabled
    assert "crash3t500000" in plan.label()
    with pytest.raises(ConfigurationError):
        FaultPlan(crashes=(CrashEvent(1, 10), CrashEvent(1, 20)))


def test_injector_requires_valid_nodes_and_a_survivor():
    with pytest.raises(ConfigurationError):
        FaultInjector(FaultPlan(crashes=(CrashEvent(5, 10),)), 4)
    with pytest.raises(ConfigurationError):
        FaultInjector(FaultPlan(crashes=(CrashEvent(0, 10),
                                         CrashEvent(1, 20))), 2)
    FaultInjector(FaultPlan(crashes=(CrashEvent(1, 10),)), 2)


def test_node_down_at_tracks_link_not_process():
    plan = FaultPlan(crashes=(CrashEvent(1, 100, rejoin=500),))
    assert not plan.node_down_at(1, 99)
    assert plan.node_down_at(1, 100)
    assert plan.node_down_at(1, 499)
    assert not plan.node_down_at(1, 500)     # link back; process dead
    assert not plan.node_down_at(0, 100)     # other nodes unaffected


def test_hardware_machines_reject_crash_plans():
    plan = FaultPlan(crashes=(CrashEvent(1, 1_000),))
    for factory in (SgiMachine, AllHardwareMachine):
        with pytest.raises(ConfigurationError):
            factory(faults=plan)


# ----------------------------------------------------------------------
# Degraded completion through the DSM stack
# ----------------------------------------------------------------------

def _crash_plan(node, at, detect=200_000, **kwargs):
    return FaultPlan(crashes=(CrashEvent(node, at),),
                     detect_cycles=detect, **kwargs)


def _sor():
    return SorApp(rows=32, cols=32, iterations=4)


def test_as_run_completes_degraded_with_repair_counters():
    app = _sor()
    clean = AllSoftwareMachine().run(app, 4)
    crashed = AllSoftwareMachine(
        faults=_crash_plan(3, clean.cycles // 2)).run(app, 4)
    degraded = crashed.degraded
    assert degraded is not None
    assert degraded["failed_nodes"] == [3]
    assert degraded["detected_via"][0] in ("timeout", "keepalive")
    latency = degraded["detected_at"][0] - degraded["crashed_at"][0]
    assert 0 < latency <= 200_000
    c = crashed.counters
    assert c.detection_cycles == latency
    assert c.pages_rehomed + c.pages_lost > 0
    assert c.barrier_reconfigs >= 1          # SOR is barrier-structured
    assert crashed.summary()["degraded_nodes"] == 1


def test_hs_run_completes_degraded_on_node_granularity():
    """On HS a crash takes a whole node — every co-resident processor
    — and barrier membership shrinks by the node's processor count."""
    app = _sor()
    params = HsParams(procs_per_node=2)
    clean = HybridMachine(params).run(app, 4)
    crashed = HybridMachine(
        params, faults=_crash_plan(1, clean.cycles // 2)).run(app, 4)
    assert crashed.degraded is not None
    assert crashed.degraded["failed_nodes"] == [1]
    assert crashed.cycles > 0
    c = crashed.counters
    assert c.detection_cycles > 0
    assert c.pages_rehomed + c.pages_lost + c.barrier_reconfigs > 0


def test_timeout_detection_beats_keepalive_under_lock_traffic():
    """Crash the lock manager's node with the backstop pushed far out:
    a survivor's retransmission chain to the dead host must exhaust
    and declare the failure long before the keepalive would."""
    app = LockCounterApp(increments=8)
    clean = AllSoftwareMachine().run(app, 4)
    crashed = AllSoftwareMachine(faults=_crash_plan(
        0, clean.cycles // 3, detect=50_000_000,
        retry=RetryPolicy(max_retries=3))).run(app, 4)
    degraded = crashed.degraded
    assert degraded is not None
    assert degraded["detected_via"] == ["timeout"]
    latency = degraded["detected_at"][0] - degraded["crashed_at"][0]
    assert 0 < latency < 50_000_000
    assert crashed.cycles < clean.cycles + 50_000_000


def test_crash_forks_cache_fingerprint_but_not_baseline():
    clean = AllSoftwareMachine()
    crashed = AllSoftwareMachine(faults=_crash_plan(1, 1_000))
    assert crashed.fingerprint_data(4) != clean.fingerprint_data(4)
    assert crashed.fingerprint_data(1) == clean.fingerprint_data(1)


def test_checkers_stay_silent_on_degraded_runs():
    """Armed online checkers (and the post-run history verifier) must
    accept a recovered run: repair is protocol-visible but legal."""
    app = _sor()
    with checking(history=True):
        result = AllSoftwareMachine(
            faults=_crash_plan(3, 150_000)).run(app, 4)
    assert result.degraded is not None


# ----------------------------------------------------------------------
# Crash x synchronization policy (two axes composed)
# ----------------------------------------------------------------------

#: (machine, processors, last node): AS p8 has eight uniprocessor
#: nodes, HS p16 two eight-processor nodes.
_CRASH_MACHINES = {"as": (8, 7), "hs": (16, 1)}


@functools.lru_cache(maxsize=None)
def _quarter_of_clean_run(name):
    """A crash time inside the run: a quarter of the clean (default
    policy) run, simulated once per machine."""
    nprocs, _node = _CRASH_MACHINES[name]
    clean = make_machine(name).run(make_app("mwater", Scale.TEST), nprocs)
    return clean.cycles // 4


@pytest.mark.parametrize("name", sorted(_CRASH_MACHINES))
@pytest.mark.parametrize("barrier", BARRIER_ALGORITHMS)
@pytest.mark.parametrize("lock", LOCK_ALGORITHMS)
def test_crash_completes_degraded_under_every_sync_policy(name, lock,
                                                          barrier):
    """Every lock x barrier algorithm survives a crash of the last
    node mid-run: the request and arrival routes all re-route off a
    dead home, the app still verifies, the checkers stay silent."""
    nprocs, node = _CRASH_MACHINES[name]
    machine = make_machine(
        name, sync=f"{lock}+{barrier}",
        faults=_crash_plan(node, _quarter_of_clean_run(name)))
    with checking():
        result = machine.run(make_app("mwater", Scale.TEST), nprocs)
    assert result.degraded["failed_nodes"] == [node]
    assert math.isfinite(result.app_output["kinetic"])


def _crash_cell_summaries(jobs, cache):
    app = _sor()
    plan = RunPlan()
    for machine in (AllSoftwareMachine(),
                    AllSoftwareMachine(faults=_crash_plan(3, 150_000))):
        plan.add_series(machine, app, (1, 4))
    results = execute_plan(plan, jobs=jobs, cache=cache)
    return [r.summary() for r in results]


def test_crash_cells_serial_pool_and_cache_identical(tmp_path,
                                                     monkeypatch):
    """The determinism contract extends to degraded runs: a crash
    cell's summary (degraded metadata included) is byte-identical
    across serial, pooled, cold-cache and warm-cache execution."""
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 4)
    try:
        serial = _crash_cell_summaries(jobs=1, cache=None)
        pooled = _crash_cell_summaries(jobs=2, cache=None)
        cache = ResultCache(str(tmp_path))
        cold = _crash_cell_summaries(jobs=2, cache=cache)
        warm = _crash_cell_summaries(jobs=2, cache=cache)
    finally:
        shutdown_pool()
    assert serial == pooled == cold == warm
    assert serial[3]["degraded_nodes"] == 1


# ----------------------------------------------------------------------
# The self-healing worker pool
# ----------------------------------------------------------------------

class _WorkerKiller(Application):
    """Dies with ``os._exit`` inside pool workers; healthy in-process.

    The first ``crashes`` distinct worker processes that pick the spec
    up die before simulating anything (counted through marker files in
    ``marker_dir``, so the tally survives pool respawns); later
    attempts run normally.  ``crashes`` beyond the batch attempt plus
    :data:`~repro.harness.parallel.MAX_WORKER_RETRIES` makes the spec
    a permanent crasher.
    """

    name = "worker-killer"

    def __init__(self, marker_dir: str, crashes: int) -> None:
        self.marker_dir = marker_dir
        self.crashes = crashes
        self.parent_pid = os.getpid()

    def regions(self, nprocs):
        return {"x": 4096}

    def init_data(self, ctx):
        if os.getpid() == self.parent_pid:
            return                            # serial path: harmless
        died = len(os.listdir(self.marker_dir))
        if died < self.crashes:
            open(os.path.join(self.marker_dir, f"m{died}"), "w").close()
            os._exit(137)

    def programs(self, ctx):
        def prog():
            yield ops.Compute(10)
        return [prog() for _ in range(ctx.nprocs)]


def _killer_plan(tmp_path, crashes):
    """The killer spec plus one innocent bystander.

    The bystander keeps the deduplicated work list at two entries so
    the plan actually engages the pool (a single-run plan clamps to
    one worker and executes in-process), and pins that a crashing
    neighbour never loses the innocent run's result.
    """
    marker_dir = str(tmp_path / "crashes")
    os.makedirs(marker_dir, exist_ok=True)
    plan = RunPlan()
    plan.add(DecTreadMarksMachine(),
             _WorkerKiller(marker_dir, crashes), 2)
    plan.add(DecTreadMarksMachine(),
             SorApp(rows=16, cols=16, iterations=1), 2)
    return plan


def test_killer_app_is_harmless_in_process(tmp_path):
    results = execute_plan(_killer_plan(tmp_path, crashes=99), jobs=1)
    assert results[0].cycles > 0


def test_pool_respawns_and_retries_after_worker_crashes(tmp_path,
                                                        monkeypatch):
    """Two worker processes die (one in the batch phase, one in the
    isolated retry) before the third attempt survives: the plan still
    returns a full result set and the ledger shows the failed
    attempts as result-less ``worker-crash`` records."""
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 4)
    ledger = Ledger(str(tmp_path / "ledger.jsonl"))
    try:
        with ledger_session(ledger):
            results = execute_plan(_killer_plan(tmp_path, crashes=2),
                                   jobs=2)
    finally:
        shutdown_pool()
    assert results[0].cycles > 0
    assert results[1].cycles > 0              # the bystander survived
    records = list(ledger.records())
    crash_records = [r for r in records if r["path"] == "worker-crash"]
    assert len(crash_records) == 1            # the isolated-retry death
    assert crash_records[0]["error"]
    assert "cycles" not in crash_records[0]   # result-less attempt
    success = [r for r in records if r["path"] in ("miss", "fresh")]
    assert len(success) == 2


def test_permanent_crasher_is_quarantined(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 4)
    ledger = Ledger(str(tmp_path / "ledger.jsonl"))
    try:
        with ledger_session(ledger):
            with pytest.raises(WorkerCrashError) as err:
                execute_plan(_killer_plan(tmp_path, crashes=99), jobs=2)
    finally:
        shutdown_pool()
    assert err.value.retries == MAX_WORKER_RETRIES
    assert any("worker-killer" in label for label in err.value.labels)
    crash_records = [r for r in ledger.records()
                     if r["path"] == "worker-crash"]
    assert len(crash_records) == MAX_WORKER_RETRIES
