"""The pluggable DSM barrier algorithms (tree, combining)."""

import pytest

from repro.dsm.barriers import (DSM_BARRIER_IMPLS, BarrierManager,
                                CombiningBarrier, TreeBarrier,
                                make_dsm_barrier)
from repro.errors import ConfigurationError, ProtocolError
from repro.net.atm import AtmNetwork
from repro.net.overhead import OverheadPreset
from repro.sim.engine import Engine
from repro.stats.counters import Counters, MsgKind
from repro.sync import SwitchCombiner


def make_barrier(atm, algorithm="central", **kwargs):
    defaults = dict(
        manager_node=0,
        arrive_payload=lambda node: 32,
        depart_payload=lambda node: 48,
        on_all_arrived=lambda: None,
        on_depart=lambda node: None,
        local_cycles=50,
    )
    if algorithm == "combining":
        defaults["combiner"] = SwitchCombiner(
            atm, window_cycles=5000, combine_cycles=10)
    defaults.update(kwargs)
    return make_dsm_barrier(algorithm, atm, atm.num_nodes, **defaults)


def test_factory_inventory(atm):
    assert set(DSM_BARRIER_IMPLS) == {"central", "tree", "combining"}
    assert isinstance(make_barrier(atm, "central"), BarrierManager)
    assert isinstance(make_barrier(atm, "tree"), TreeBarrier)
    assert isinstance(make_barrier(atm, "combining"), CombiningBarrier)
    with pytest.raises(ConfigurationError):
        make_barrier(atm, "butterfly")


def test_combining_barrier_requires_combiner(atm):
    with pytest.raises(ConfigurationError):
        make_barrier(atm, "combining", combiner=None)


@pytest.mark.parametrize("algorithm", sorted(DSM_BARRIER_IMPLS))
def test_nobody_departs_before_all_arrive(atm, engine, algorithm):
    barrier = make_barrier(atm, algorithm)
    departed = []
    for node in (0, 1, 2):
        barrier.arrive(0, node, lambda t, n=node: departed.append(n))
    engine.run()
    assert departed == []          # node 3 never arrived
    barrier.arrive(0, 3, lambda t: departed.append(3))
    engine.run()
    assert sorted(departed) == [0, 1, 2, 3]
    assert barrier.completed == 1


@pytest.mark.parametrize("algorithm", sorted(DSM_BARRIER_IMPLS))
def test_double_arrival_rejected(atm, engine, algorithm):
    barrier = make_barrier(atm, algorithm)
    barrier.arrive(0, 1, lambda t: None)
    with pytest.raises(ProtocolError):
        barrier.arrive(0, 1, lambda t: None)


@pytest.mark.parametrize("algorithm", sorted(DSM_BARRIER_IMPLS))
def test_single_participant_barrier_trivial(engine, counters, algorithm):
    """A 1-node barrier needs no messages under any algorithm."""
    from repro.net.atm import AtmNetwork
    from repro.net.overhead import OverheadPreset
    net = AtmNetwork(engine, 1, bandwidth_bytes_per_sec=1e6,
                     switch_latency_cycles=1, clock_hz=1e6,
                     overhead=OverheadPreset.SIM_BASE.build(),
                     counters=counters)
    kwargs = dict(
        manager_node=0,
        arrive_payload=lambda n: 0, depart_payload=lambda n: 0,
        on_all_arrived=lambda: None, on_depart=lambda n: None)
    if algorithm == "combining":
        kwargs["combiner"] = SwitchCombiner(net, window_cycles=100,
                                            combine_cycles=1)
    barrier = make_dsm_barrier(algorithm, net, 1, **kwargs)
    done = []
    barrier.arrive(0, 0, done.append)
    engine.run()
    assert len(done) == 1
    assert counters.total_messages == 0


@pytest.mark.parametrize("algorithm", sorted(DSM_BARRIER_IMPLS))
def test_reentrant_episodes(atm, engine, algorithm):
    """A node may re-arrive for episode k+1 the moment it departs
    episode k, even while slower nodes are still inside episode k."""
    barrier = make_barrier(atm, algorithm)
    log = []

    def make_prog(node):
        def after_first(_t):
            log.append(("first", node))
            barrier.arrive(0, node,
                           lambda t: log.append(("second", node)))
        return after_first

    for node in range(4):
        barrier.arrive(0, node, make_prog(node))
    engine.run()
    assert barrier.completed == 2
    firsts = [e for e in log if e[0] == "first"]
    seconds = [e for e in log if e[0] == "second"]
    assert len(firsts) == 4 and len(seconds) == 4
    # No node's second departure may precede another's first.
    assert log.index(seconds[0]) > log.index(firsts[-1])


def test_tree_topology(atm, engine, counters):
    """Radix-2 over 4 nodes: two leaves report to node 1, node 1 and
    node 2's subtree report to the root — every non-root node sends
    exactly one arrival, every non-leaf sends its children departs."""
    barrier = make_barrier(atm, "tree", tree_radix=2)
    for node in range(4):
        barrier.arrive(0, node, lambda t: None)
    engine.run()
    # Up: 3 non-root arrivals; down: 3 departs (one per child edge).
    assert counters.messages[MsgKind.BARRIER_ARRIVE] == 3
    assert counters.messages[MsgKind.BARRIER_DEPART] == 3
    assert barrier.completed == 1


def test_tree_total_traffic_matches_central(atm, engine, counters):
    """Total up-traffic is identical (every non-root node reports
    once); the tree redistributes *who receives it*, it does not add
    messages."""
    msgs = {}
    for barrier_id, (algorithm, kwargs) in enumerate(
            (("central", {}), ("tree", {"tree_radix": 2}))):
        before = counters.messages[MsgKind.BARRIER_ARRIVE]
        barrier = make_barrier(atm, algorithm, **kwargs)
        for node in range(4):
            barrier.arrive(barrier_id, node, lambda t: None)
        engine.run()
        msgs[algorithm] = (counters.messages[MsgKind.BARRIER_ARRIVE]
                           - before)
    assert msgs["tree"] == msgs["central"] == 3


def test_tree_root_handles_only_its_children(atm, engine):
    """Count arrivals whose destination is the root directly."""
    barrier = make_barrier(atm, "tree", tree_radix=2)
    seen = []
    original = barrier._up_tick

    def spy(barrier_id, episode, li):
        seen.append(li)
        return original(barrier_id, episode, li)

    barrier._up_tick = spy
    for node in range(4):
        barrier.arrive(0, node, lambda t: None)
    engine.run()
    # Root (li 0) ticks: own arrival + two children = 3 of the 4+3
    # total up-ticks; under central it would count all 4 arrivals.
    assert seen.count(0) == 3


def test_combining_barrier_merges_arrivals(atm, engine, counters):
    """Near-simultaneous arrivals toward the manager combine in the
    switch; the departure wave combines on the send side."""
    barrier = make_barrier(atm, "combining")
    for node in range(4):
        barrier.arrive(0, node, lambda t: None)
    engine.run()
    assert barrier.completed == 1
    # 3 remote arrivals: first opens the window, the rest combine.
    # The depart wave adds send-side hits past the first copy.
    assert counters.combining_hits >= 3


def test_combining_falls_back_outside_window(atm, engine, counters):
    """Arrivals spread wider than the window pay full price."""
    barrier = make_barrier(
        atm, "combining",
        combiner=SwitchCombiner(atm, window_cycles=1, combine_cycles=1))
    for delay, node in ((0, 0), (100_000, 1), (200_000, 2),
                        (300_000, 3)):
        engine.schedule(delay, barrier.arrive, 0, node, lambda t: None)
    engine.run()
    assert barrier.completed == 1
    # Arrivals never share a window; only the depart wave (sent
    # back-to-back by the manager) can combine.
    assert counters.combining_hits <= 2


def _degraded_episode(algorithm):
    """One episode after node 3 of 4 is declared dead, on a fresh
    network: ``(messages by kind, combining hits, departure times)``."""
    engine, counters = Engine(), Counters()
    net = AtmNetwork(engine, 4, bandwidth_bytes_per_sec=30e6 / 8,
                     switch_latency_cycles=400, clock_hz=40e6,
                     overhead=OverheadPreset.USER_LEVEL.build(),
                     counters=counters)
    # Radix 2: node 3 is node 1's child, so tree routing would hang.
    barrier = make_barrier(net, algorithm, tree_radix=2)
    assert barrier.remove_node(3, engine.now) == 0  # no open episode
    departed = {}
    for node in (2, 0, 1):
        barrier.arrive(0, node, lambda t, n=node: departed.update({n: t}))
    engine.run()
    assert barrier.completed == 1
    return dict(counters.messages), counters.combining_hits, departed


@pytest.mark.parametrize("algorithm", ["tree", "combining"])
def test_degraded_routing_is_central(algorithm):
    """After ``remove_node`` every algorithm routes like ``central``
    (its one definition is the fallback): the survivors' episode sends
    the same message kinds and counts, at the same times, and the
    combining fabric is bypassed."""
    messages, hits, departed = _degraded_episode(algorithm)
    assert messages[MsgKind.BARRIER_ARRIVE] == 2   # nodes 1, 2 -> 0
    assert messages[MsgKind.BARRIER_DEPART] == 2   # 0 -> nodes 1, 2
    assert hits == 0
    assert (messages, hits, departed) == _degraded_episode("central")


@pytest.mark.parametrize("algorithm", sorted(DSM_BARRIER_IMPLS))
def test_distinct_barrier_ids_independent(atm, engine, algorithm):
    barrier = make_barrier(atm, algorithm)
    departed = []
    for node in range(4):
        barrier.arrive(7, node, lambda t, n=node: departed.append(n))
    engine.run()
    assert len(departed) == 4
    assert barrier.completed == 1
