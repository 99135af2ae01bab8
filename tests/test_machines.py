"""Machine-level integration: every machine runs every fixture app
correctly, and the run plumbing behaves."""

import pytest

from repro.errors import ConfigurationError
from repro.machines import DecTreadMarksMachine, HybridMachine, SgiMachine


def test_every_machine_runs_pingpong(any_machine, pingpong):
    r = any_machine.run(pingpong, 4)
    assert r.cycles > 0
    assert r.nprocs == 4
    assert r.counters.barriers == pingpong.rounds
    assert r.app_output["sum"] != 0


def test_every_machine_runs_lockcounter(any_machine, lockcounter):
    r = any_machine.run(lockcounter, 4)
    # Mutual exclusion: every increment survives on every machine.
    assert r.app_output["count"] == 4 * lockcounter.increments
    assert r.counters.lock_acquires == 4 * lockcounter.increments


def test_single_proc_runs(any_machine, pingpong):
    r = any_machine.run(pingpong, 1)
    assert r.cycles > 0


def test_results_deterministic(any_machine, lockcounter):
    a = any_machine.run(lockcounter, 4)
    b = any_machine.run(lockcounter, 4)
    assert a.cycles == b.cycles
    assert a.counters.as_dict() == b.counters.as_dict()


def test_more_procs_more_lock_traffic(pingpong, lockcounter):
    machine = DecTreadMarksMachine()
    r2 = machine.run(lockcounter, 2)
    r8 = machine.run(lockcounter, 8)
    assert r8.counters.remote_lock_acquires > \
        r2.counters.remote_lock_acquires


def test_sgi_rejects_too_many_procs(pingpong):
    with pytest.raises(ConfigurationError):
        SgiMachine().run(pingpong, 16)


def test_rejects_zero_procs(pingpong):
    with pytest.raises(ConfigurationError):
        SgiMachine().run(pingpong, 0)


def test_sgi_produces_no_messages(pingpong):
    r = SgiMachine().run(pingpong, 4)
    assert r.counters.total_messages == 0
    assert r.counters.bus_transactions > 0


def test_dsm_produces_messages(pingpong):
    r = DecTreadMarksMachine().run(pingpong, 4)
    assert r.counters.total_messages > 0
    assert r.counters.page_faults > 0


def test_hybrid_single_node_no_messages(pingpong):
    machine = HybridMachine()  # 8 procs/node
    r = machine.run(pingpong, 4)
    assert r.counters.total_messages == 0


def test_hybrid_two_nodes_fewer_messages_than_as(pingpong):
    from repro.machines import AllSoftwareMachine
    hs = HybridMachine().run(pingpong, 16)
    as_ = AllSoftwareMachine().run(pingpong, 16)
    assert 0 < hs.counters.total_messages < as_.counters.total_messages


def test_run_result_rates(pingpong):
    r = DecTreadMarksMachine().run(pingpong, 4)
    assert r.seconds > 0
    assert r.barriers_per_sec > 0
    assert r.messages_per_sec > 0
    summary = r.summary()
    assert summary["machine"] == "treadmarks"
    assert summary["nprocs"] == 4


def test_kernel_level_faster_sync(lockcounter):
    user = DecTreadMarksMachine().run(lockcounter, 8)
    kernel = DecTreadMarksMachine(kernel_level=True).run(lockcounter, 8)
    assert kernel.seconds < user.seconds


def test_machine_names_distinct():
    names = {
        DecTreadMarksMachine().name,
        DecTreadMarksMachine(kernel_level=True).name,
        DecTreadMarksMachine(eager_locks="all").name,
        DecTreadMarksMachine(ablate="no-diffs").name,
        SgiMachine().name,
        HybridMachine().name,
    }
    assert len(names) == 6
