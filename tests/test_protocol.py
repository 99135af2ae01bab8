"""The LRC protocol engine: faults, diffs, invalidations, eager push."""

import pytest

from repro.ablate import AblationSpec
from repro.dsm.protocol import DsmConfig, TreadMarksDsm
from repro.errors import ConfigurationError
from repro.mem.layout import AddressSpace, Geometry
from repro.net.atm import AtmNetwork
from repro.net.overhead import OverheadPreset
from repro.sim.engine import Engine
from repro.stats.counters import Counters, MsgKind

PAGE = 4096


def make_dsm(num_nodes=4, **config_kwargs):
    engine = Engine()
    counters = Counters()
    net = AtmNetwork(engine, num_nodes,
                     bandwidth_bytes_per_sec=30e6 / 8,
                     switch_latency_cycles=400, clock_hz=40e6,
                     overhead=OverheadPreset.USER_LEVEL.build(),
                     counters=counters)
    space = AddressSpace(Geometry(PAGE, 64))
    space.alloc("data", 8 * PAGE)
    dsm = TreadMarksDsm(net, space, net.overhead,
                        DsmConfig(num_nodes=num_nodes, page_bytes=PAGE,
                                  **config_kwargs))
    return engine, counters, dsm


def run_sync(engine, fn, *args):
    """Invoke an async DSM op and drain the engine; returns cb args."""
    out = []
    fn(*args, lambda *cb_args: out.append(cb_args))
    engine.run()
    return out


def lock_roundtrip(engine, dsm, node, lock=0):
    """acquire + release on `node` (callback-driven)."""
    done = []

    def granted(t, _remote):
        dsm.release(lock, node, node, lambda t2: done.append(t2))

    dsm.acquire(lock, node, node, granted)
    engine.run()
    assert done
    return done[0]


def test_config_validation():
    engine = Engine()
    counters = Counters()
    net = AtmNetwork(engine, 2, bandwidth_bytes_per_sec=1e6,
                     switch_latency_cycles=1, clock_hz=1e6,
                     overhead=OverheadPreset.SIM_BASE.build(),
                     counters=counters)
    space = AddressSpace(Geometry(PAGE, 64))
    space.alloc("d", PAGE)
    with pytest.raises(ConfigurationError):
        TreadMarksDsm(net, space, net.overhead, DsmConfig(num_nodes=3))
    with pytest.raises(ConfigurationError):
        TreadMarksDsm(net, space, net.overhead,
                      DsmConfig(num_nodes=2, page_bytes=8192))


def test_read_valid_pages_is_instant():
    engine, counters, dsm = make_dsm()
    out = run_sync(engine, dsm.read, 0, 0, PAGE)
    assert len(out) == 1
    assert counters.page_faults == 0
    assert counters.total_messages == 0


def test_write_then_lock_transfer_invalidates_acquirer():
    engine, counters, dsm = make_dsm()
    # Node 0 takes the lock, writes a page, releases.
    run_sync(engine, dsm.acquire, 0, 0, 0)
    run_sync(engine, dsm.write, 0, 0, PAGE, 100)
    run_sync(engine, dsm.release, 0, 0, 0)
    assert counters.twins_created == 1

    # Node 1 acquires: the grant's notices invalidate its copy.
    run_sync(engine, dsm.acquire, 0, 1, 1)
    assert counters.pages_invalidated == 1
    assert not dsm.pages[1].is_valid(0)
    assert dsm.pages[2].is_valid(0)      # node 2 has not synced

    # Node 1 touches the page: fault, diff request + response.
    run_sync(engine, dsm.read, 1, 0, 8)
    assert dsm.pages[1].is_valid(0)
    assert counters.remote_page_faults == 1
    assert counters.diffs_created == 1
    assert counters.messages[MsgKind.DIFF_REQUEST] == 1
    assert counters.messages[MsgKind.DIFF_RESPONSE] == 1


def test_diff_created_lazily_once():
    engine, counters, dsm = make_dsm()
    run_sync(engine, dsm.acquire, 0, 0, 0)
    run_sync(engine, dsm.write, 0, 0, PAGE, 64)
    run_sync(engine, dsm.release, 0, 0, 0)

    # Two other nodes fault on the page: one diff creation, two sends.
    for node in (1, 2):
        run_sync(engine, dsm.acquire, 0, node, node)
        run_sync(engine, dsm.read, node, 0, 8)
        run_sync(engine, dsm.release, 0, node, node)
    assert counters.diffs_created == 1
    assert counters.messages[MsgKind.DIFF_RESPONSE] == 2


def test_barrier_propagates_notices_to_everyone():
    engine, counters, dsm = make_dsm()
    run_sync(engine, dsm.write, 2, PAGE, PAGE, 32)

    done = []
    for node in range(4):
        dsm.barrier_arrive(0, node, lambda t, n=node: done.append(n))
    engine.run()
    assert sorted(done) == [0, 1, 2, 3]
    assert counters.barriers == 1
    # Page 1 invalid everywhere but at the writer.
    for node in range(4):
        assert dsm.pages[node].is_valid(1) == (node == 2)
    # All clocks converged.
    assert all(vc == dsm.vcs[0] for vc in dsm.vcs)


def test_concurrent_faults_coalesce():
    """Multiple waiters for one (node, page) fault share one fetch."""
    engine, counters, dsm = make_dsm()
    run_sync(engine, dsm.write, 2, 0, PAGE, 64)
    for node in range(4):
        dsm.barrier_arrive(0, node, lambda t: None)
    engine.run()

    hits = []
    dsm.read(1, 0, 8, lambda t: hits.append("a"))
    dsm.read(1, 64, 8, lambda t: hits.append("b"))
    engine.run()
    assert sorted(hits) == ["a", "b"]
    assert counters.messages[MsgKind.DIFF_REQUEST] == 1


def test_write_to_invalid_page_faults_first():
    engine, counters, dsm = make_dsm()
    run_sync(engine, dsm.write, 2, 0, PAGE, 64)
    for node in range(4):
        dsm.barrier_arrive(0, node, lambda t: None)
    engine.run()

    run_sync(engine, dsm.write, 1, 0, 128, 128)
    assert counters.remote_page_faults == 1
    assert dsm.pages[1].is_valid(0)
    assert dsm.pages[1].dirty == {0: 128}


def test_single_node_short_circuit():
    engine, counters, dsm = make_dsm(num_nodes=1)
    run_sync(engine, dsm.write, 0, 0, PAGE, 4096)
    out = run_sync(engine, dsm.read, 0, 0, PAGE)
    assert out
    assert counters.twins_created == 0
    assert counters.total_messages == 0
    lock_roundtrip(engine, dsm, 0)


def test_eager_push_keeps_copies_valid():
    engine, counters, dsm = make_dsm(eager_locks="all")
    run_sync(engine, dsm.acquire, 0, 0, 0)
    run_sync(engine, dsm.write, 0, 0, PAGE, 200)
    run_sync(engine, dsm.release, 0, 0, 0)
    # Pushes to the 3 other valid copies.
    assert counters.messages[MsgKind.DIFF_RESPONSE] == 3
    # Acquiring now produces no invalidation (copies updated in place).
    run_sync(engine, dsm.acquire, 0, 1, 1)
    assert dsm.pages[1].is_valid(0)
    assert counters.pages_invalidated == 0


def test_whole_page_mode_moves_page_sized_diffs():
    engine, counters, dsm = make_dsm(ablate=AblationSpec.without("diffs"))
    run_sync(engine, dsm.write, 0, 0, 64, 8)   # 8 changed bytes
    assert dsm.pages[0].dirty == {0: PAGE}


def test_page_refreshed_hook_called():
    engine, counters, dsm = make_dsm()
    refreshed = []
    dsm.page_refreshed_hook = lambda node, page: refreshed.append(
        (node, page))
    run_sync(engine, dsm.write, 2, 0, PAGE, 64)
    for node in range(4):
        dsm.barrier_arrive(0, node, lambda t: None)
    engine.run()
    run_sync(engine, dsm.read, 1, 0, 8)
    assert (1, 0) in refreshed
