"""The repro.check subsystem: online invariants, history, injected bugs.

The checkers must (a) stay silent on correct protocol
implementations, (b) cost nothing — not even a cycle of simulated
time — and (c) catch deliberately injected protocol bugs with a
structured :class:`~repro.errors.ConsistencyViolation` naming the
offending event.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import make_machine
from repro.check import (CheckConfig, ConsistencyViolation,
                         active_check_config, checking)
from repro.check.events import make_event
from repro.check.history import verify_lrc_history
from repro.dsm.pagetable import NodePages
from repro.dsm.protocol import TreadMarksDsm
from repro.harness.workloads import Scale, make_app
from repro.hw.directory import DirectorySystem
from repro.machines import (AllHardwareMachine, AllSoftwareMachine,
                            DecTreadMarksMachine, HybridMachine,
                            SgiMachine)
from repro.machines.params import HsParams
from repro.mem.directcache import CacheStack

from tests.conftest import LockCounterApp, PingPongApp


def five_machines():
    return [DecTreadMarksMachine(), SgiMachine(), AllSoftwareMachine(),
            AllHardwareMachine(), HybridMachine(HsParams(procs_per_node=2))]


# ----------------------------------------------------------------------
# enablement and zero-cost guarantees
# ----------------------------------------------------------------------

def test_checking_disabled_by_default(monkeypatch):
    # The suite itself may run under REPRO_CHECK=1 (one CI leg does);
    # "default" means the environment carries no opt-in.
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    assert active_check_config() is None


def test_checking_context_arms_and_restores(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    with checking() as cfg:
        assert active_check_config() is cfg
        assert cfg.label() == "on"
        import os
        assert os.environ["REPRO_CHECK"] == "1"
        with checking(history=True) as inner:
            assert active_check_config() is inner
            assert inner.label() == "history"
            assert os.environ["REPRO_CHECK"] == "history"
        assert active_check_config() is cfg
    assert active_check_config() is None


def test_env_var_arms_checkers(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "1")
    assert active_check_config() == CheckConfig(history=False)
    monkeypatch.setenv("REPRO_CHECK", "history")
    assert active_check_config() == CheckConfig(history=True)
    for off in ("", "0", "off", "false", "no"):
        monkeypatch.setenv("REPRO_CHECK", off)
        assert active_check_config() is None


def test_checkers_not_built_when_disabled():
    result = DecTreadMarksMachine().run(PingPongApp(), 4)
    assert result.cycles > 0  # ran; nothing to assert about checkers


@pytest.mark.parametrize("machine_factory", [
    DecTreadMarksMachine, SgiMachine, AllSoftwareMachine,
    AllHardwareMachine, lambda: HybridMachine(HsParams(procs_per_node=2)),
])
def test_checked_run_is_cycle_identical(machine_factory):
    """Checkers observe; they never change simulated time."""
    app = PingPongApp()
    plain = machine_factory().run(app, 4)
    with checking(history=True):
        checked = machine_factory().run(app, 4)
    assert checked.cycles == plain.cycles
    assert checked.app_output == plain.app_output


@pytest.mark.parametrize("machine, workload, nprocs", [
    ("sgi", "water", 8), ("ah", "mwater", 16), ("ah", "mwater", 64),
    ("hs", "mwater", 16),
])
def test_hw_checkers_stay_armed_over_stacked_caches(machine, workload,
                                                    nprocs):
    """The SWMR/directory checkers index ``cache.tags``/``cache.states``
    directly; those are row views of the domain's ``CacheStack`` now.
    Real workloads must pass them, at unchanged cycle counts."""
    app = make_app(workload, Scale.TEST)
    plain = make_machine(machine).run(app, nprocs)
    with checking():
        checked = make_machine(machine).run(app, nprocs)
    assert checked.cycles == plain.cycles
    assert checked.events == plain.events


def test_checking_forks_the_cache_fingerprint(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    machine = DecTreadMarksMachine()
    plain = machine.fingerprint_data(4)
    with checking():
        online = machine.fingerprint_data(4)
    with checking(history=True):
        history = machine.fingerprint_data(4)
    assert plain != online != history
    assert plain != history


# ----------------------------------------------------------------------
# clean runs stay silent
# ----------------------------------------------------------------------

@pytest.mark.parametrize("app_factory", [PingPongApp, LockCounterApp])
def test_all_machines_pass_checked_runs(app_factory):
    app = app_factory()
    with checking(history=True):
        for machine in five_machines():
            machine.run(app, 4)  # raises ConsistencyViolation on a bug


# ----------------------------------------------------------------------
# injected protocol bugs are caught and attributed
# ----------------------------------------------------------------------

def test_skipped_invalidation_is_caught(monkeypatch):
    """A write notice that leaves the page valid (skipped
    invalidation) trips the checker at the notice_applied event."""
    original = NodePages.apply_interval

    def buggy(self, interval):
        invalidated = original(self, interval)
        self.valid[list(interval.pages)] = True   # "forget" them all
        return invalidated

    monkeypatch.setattr(NodePages, "apply_interval", buggy)
    with checking(), pytest.raises(ConsistencyViolation) as err:
        DecTreadMarksMachine().run(PingPongApp(), 4)
    violation = err.value
    assert violation.event is not None
    assert violation.event.kind == "notice_applied"
    assert "missed invalidation" in violation.reason
    assert violation.now is not None
    assert violation.trail  # replayable slice of preceding events


def test_skipped_diff_application_is_caught(monkeypatch):
    """Finishing a fault while diff responses are outstanding is the
    ISSUE's canonical injected bug: the checker names fault_done."""
    original = TreadMarksDsm._diff_arrived

    def buggy(self, job, creator, wire_bytes, time):
        if job.outstanding > 1:
            # Skip the remaining diffs and declare the fault done.
            self._finish_fault(job, time)
            return
        original(self, job, creator, wire_bytes, time)

    monkeypatch.setattr(TreadMarksDsm, "_diff_arrived", buggy)
    # LockCounterApp makes several nodes dirty the same page between
    # synchronizations, so some fault has >= 2 pending diff sources.
    with checking(), pytest.raises(ConsistencyViolation) as err:
        DecTreadMarksMachine().run(LockCounterApp(), 4)
    assert err.value.event.kind == "fault_done"
    assert "outstanding" in err.value.reason


def test_missed_snoop_downgrade_is_caught(monkeypatch):
    """A read miss that leaves a peer's MODIFIED copy intact breaks
    single-writer-multiple-reader on the bus."""
    monkeypatch.setattr(CacheStack, "downgrade",
                        lambda self, rows, lines: 0)
    with checking(), pytest.raises(ConsistencyViolation) as err:
        SgiMachine().run(PingPongApp(), 2)
    assert err.value.event.kind == "swmr_check"
    assert "SWMR" in err.value.reason


def test_eager_eviction_deregistration_is_caught(monkeypatch):
    """Regression guard for the fixed directory bug: deregistering
    every evicted line — ignoring that a bulk access may refetch a
    victim in a later chunk — leaves a resident copy unregistered,
    and the checker says exactly that."""

    def buggy(self, proc, res):
        for evicted in (res.evicted_dirty_lines, res.evicted_clean_lines):
            if evicted.size:
                mine = evicted[self.owner[evicted] == proc]
                self.owner[mine] = -1
                self.sharers[evicted] &= ~(np.uint64(1) << np.uint64(proc))

    monkeypatch.setattr(DirectorySystem, "_handle_evictions", buggy)
    from tests.test_directory import make_system
    with checking():
        system, _ = make_system(cache_lines=8)
        system.write(1, 15, 34, now=0)
        with pytest.raises(ConsistencyViolation) as err:
            system.write(1, 24, 33, now=10_000)
    assert err.value.event.kind == "directory_check"
    assert "not registered in the sharer set" in err.value.reason


# ----------------------------------------------------------------------
# the LRC history checker
# ----------------------------------------------------------------------

def _fail_collector(failures):
    def fail(reason, event=None):
        failures.append((reason, event))
    return fail


def test_history_checker_accepts_applied_interval():
    history = [
        ("interval", 0, 1, (5,), (1, 0)),
        ("apply", 1, 5, ((0, 1),)),
        ("read", 1, 5, 6, (1, 1)),
    ]
    failures = []
    checks = verify_lrc_history(history, _fail_collector(failures))
    assert checks > 0
    assert failures == []


def test_history_checker_flags_stale_read():
    """A read whose clock covers interval 0:1 but never applied its
    diff returns stale data — the post-run replay catches it."""
    history = [
        ("interval", 0, 1, (5,), (1, 0)),
        ("read", 1, 5, 6, (1, 1)),       # no ("apply", 1, 5, ...) first
    ]
    failures = []
    verify_lrc_history(history, _fail_collector(failures))
    assert failures
    reason, event = failures[0]
    assert "stale read" in reason
    assert event.kind == "history_read"


def test_history_checker_accepts_eager_updates():
    """Eager-pushed pages are applied without a fault; the history
    records them as ("eager", ...) and the replay honours them."""
    history = [
        ("interval", 0, 1, (5,), (1, 0)),
        ("eager", 1, 5, (0, 1)),
        ("read", 1, 5, 6, (1, 1)),
    ]
    failures = []
    verify_lrc_history(history, _fail_collector(failures))
    assert failures == []


def test_history_checker_ignores_unreachable_intervals():
    """An interval outside the reader's happens-before past imposes
    nothing (the reader's clock has not covered it)."""
    history = [
        ("interval", 0, 1, (5,), (1, 0)),
        ("read", 1, 5, 6, (0, 1)),       # vc[0] == 0 < interval index 1
    ]
    failures = []
    verify_lrc_history(history, _fail_collector(failures))
    assert failures == []


def test_dsm_checker_records_and_verifies_history():
    with checking(history=True):
        machine = DecTreadMarksMachine()
        result = machine.run(PingPongApp(), 4)
    assert result.cycles > 0


# ----------------------------------------------------------------------
# ConsistencyViolation structure
# ----------------------------------------------------------------------

def test_violation_carries_event_time_and_trail():
    event = make_event("fault_done", 123.0, 2, page=7, outstanding=1)
    trail = (make_event("fault_begin", 100.0, 2, page=7),)
    violation = ConsistencyViolation("it broke", event=event, now=123.0,
                                     trail=trail)
    assert violation.event is event
    assert violation.now == 123.0
    assert violation.trail == trail
    text = str(violation)
    assert "it broke" in text
    assert "fault_done" in text
    assert "cycle 123" in text
    assert "1 preceding protocol events" in text


def test_protocol_event_formatting():
    event = make_event("notice_applied", 42.0, 1, page=3, creator=0)
    assert event.kind == "notice_applied"
    assert event.node == 1
    assert event.page == 3
    assert dict(event.details)["creator"] == 0
    assert "notice_applied" in str(event)
    assert "@t=42" in str(event)
