"""DSM barriers: centralized manager plus scalable alternatives.

The paper's barrier (§2.1, the ``central`` default): every node sends
its arrival (carrying the intervals the manager has not yet seen) to a
manager node; once all have arrived the manager broadcasts departures,
each carrying the write notices that particular node lacks.  Arrival
processing serializes through the manager's handler CPU, which is what
makes the measured 8-processor barrier take ~2 ms on the ATM network —
and what makes it O(n) in the per-message software overhead.

Two alternatives attack that serialization:

* ``tree`` (:class:`TreeBarrier`) — a software combining tree of radix
  ``tree_radix`` rooted at the manager: each node reports to its
  parent only when its whole subtree has arrived, and departures fan
  back down the same tree.  The same 2(n-1) messages, but handler
  work spreads over the internal nodes and the critical path shrinks
  from O(n) to O(radix · log n) message handling times.
* ``combining`` (:class:`CombiningBarrier`) — the centralized
  protocol carried by an in-network combining stage
  (:class:`~repro.sync.combining.SwitchCombiner`): arrival increments
  merge in the fabric on the way up and the departure wave is a
  fabric multicast on the way down, so the manager CPU is charged for
  a handful of messages instead of n-1.

Consistency approximation (documented): all variants invoke the same
``on_all_arrived`` global merge once everyone is in, and every
departure carries ``depart_payload(dst)`` — the omniscient-log
simplification of DESIGN.md §4.4.  Tree *arrival* payloads use the
arriving node's own ``arrive_payload`` even though the message targets
the parent rather than the manager; interval bytes are what they are
regardless of the hop that carries them.

Crash-stop recovery (:mod:`repro.recover`): when a node is declared
dead, :meth:`BarrierManager.remove_node` shrinks membership from n to
n−1.  Completion becomes set-based (*every surviving node has
arrived*), open episodes are re-checked immediately, and all
algorithms degrade to central-style routing through the (possibly
reassigned) manager for the rest of the run — a tree with a dead
internal node or a combining fabric aimed at a dead home is no longer
sound, and correctness beats topology once the machine is degraded.
Episode ``departed`` sets make departure delivery idempotent, so
repair re-sends can never double-release a waiter.

The HS machine arranges for only the *last* processor of each node to
trigger the node-level arrival (§3.1); that logic lives in the machine
layer — this module works purely at node granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Set, Tuple

from repro.errors import ConfigurationError, ProtocolError
from repro.stats.counters import DataKind, MsgKind
from repro.trace.tracer import Category

DepartCallback = Callable[[int], None]
"""Called as ``cb(time)`` when the node may leave the barrier."""


@dataclass
class _Episode:
    barrier_id: int
    index: int
    waiting: Dict[int, DepartCallback] = field(default_factory=dict)
    #: Nodes whose arrival has reached the completion authority
    #: (manager-side knowledge, or recovery's resync seeding).
    arrived_nodes: Set[int] = field(default_factory=set)
    #: True once the episode completed; stale in-flight arrivals and
    #: up-ticks against a completed episode become no-ops.
    done: bool = False
    #: Nodes whose departure has been handed to them (idempotence
    #: guard: a repair re-send racing the original cannot double
    #: release).
    departed: Set[int] = field(default_factory=set)
    #: Manager node at completion time (the departure source the
    #: release wave depends on).
    release_src: int = -1
    first_arrival: int = -1  # time of first node arrival (for tracing)
    up: Dict[int, int] = field(default_factory=dict)  # tree up-counters


class BarrierManager:
    """The paper's centralized barrier (one manager node for all).

    Also the shared machinery of every DSM barrier algorithm — episode
    bookkeeping, double-arrival detection, the global consistency
    merge at completion, idempotent departure delivery, crash repair —
    and the one definition of central routing: :meth:`_on_arrival`
    (arrival → manager) and :meth:`_release` (manager → each
    survivor).  ``tree`` and ``combining`` override how those two
    propagate and fall back to this class's versions after any
    crash-stop failure (:meth:`remove_node`).
    """

    algorithm = "central"

    def __init__(self, net, num_nodes: int, *,
                 manager_node: int = 0,
                 arrive_payload: Callable[[int], int],
                 depart_payload: Callable[[int], int],
                 on_all_arrived: Callable[[], None],
                 on_depart: Callable[[int], None],
                 local_cycles: int = 100,
                 combiner=None, tree_radix: int = 4) -> None:
        self.net = net
        self.num_nodes = num_nodes
        self.manager_node = manager_node
        self.arrive_payload = arrive_payload
        self.depart_payload = depart_payload
        self.on_all_arrived = on_all_arrived
        self.on_depart = on_depart
        self.local_cycles = local_cycles
        self.combiner = combiner
        self.tree_radix = tree_radix
        self._episodes: Dict[int, _Episode] = {}
        self._counts: Dict[int, int] = {}
        #: Episodes that completed but whose departure wave may still
        #: be in flight (crash repair re-sends lost departures).
        self._releasing: Dict[Tuple[int, int], _Episode] = {}
        #: Nodes declared dead by recovery; excluded from membership.
        self.dead: Set[int] = set()
        self.completed: int = 0

    def _alive(self) -> Set[int]:
        """Current membership: all nodes not declared dead."""
        return {i for i in range(self.num_nodes) if i not in self.dead}

    # ------------------------------------------------------------------
    def arrive(self, barrier_id: int, node: int,
               done: DepartCallback) -> None:
        """Node-level arrival; ``done(time)`` fires at departure."""
        episode = self._episodes.get(barrier_id)
        if episode is None:
            episode = _Episode(barrier_id, self._counts.get(barrier_id, 0))
            self._episodes[barrier_id] = episode
        if node in episode.waiting:
            raise ProtocolError(
                f"node {node} arrived twice at barrier {barrier_id} "
                f"episode {episode.index}")
        episode.waiting[node] = done
        engine = self.net.engine
        if episode.first_arrival < 0:
            episode.first_arrival = engine.now
        tracer = engine.tracer
        if tracer.enabled:
            tracer.instant(node, Category.SYNC, "barrier_arrive",
                           engine.now, track=f"node{node}.dsm",
                           barrier=barrier_id, episode=episode.index)
        self._on_arrival(barrier_id, episode, node)

    def _on_arrival(self, barrier_id: int, episode: _Episode,
                    node: int) -> None:
        """Central routing: an arrival travels to the current manager."""
        if node == self.manager_node:
            self._arrived(barrier_id, episode, node)
        else:
            self._send_arrival(barrier_id, episode, node)

    def _send_arrival(self, barrier_id: int, episode: _Episode,
                      node: int) -> None:
        self.net.send(node, self.manager_node, self.arrive_payload(node),
                      kind=MsgKind.BARRIER_ARRIVE,
                      data_kind=DataKind.CONSISTENCY,
                      on_delivered=lambda _t:
                      self._arrived(barrier_id, episode, node))

    def _arrived(self, barrier_id: int, episode: _Episode,
                 node: int) -> None:
        """An arrival reached the completion authority."""
        if episode.done:
            return  # stale delivery against a completed episode
        episode.arrived_nodes.add(node)
        self._check_complete(barrier_id, episode)

    def _check_complete(self, barrier_id: int, episode: _Episode) -> None:
        """Complete the episode once every *surviving* node is in."""
        if episode.done:
            return
        if self._alive() <= episode.arrived_nodes:
            self._complete(barrier_id, episode)

    # ------------------------------------------------------------------
    def _complete(self, barrier_id: int, episode: _Episode) -> None:
        """All (surviving) nodes are in: merge, retire the episode."""
        episode.done = True
        self.on_all_arrived()
        self.completed += 1
        self._counts[barrier_id] = episode.index + 1
        del self._episodes[barrier_id]
        episode.release_src = self.manager_node
        self._releasing[(barrier_id, episode.index)] = episode
        engine = self.net.engine
        tracer = engine.tracer
        if tracer.enabled and engine.now > episode.first_arrival:
            tracer.complete(
                self.manager_node, Category.SYNC,
                f"barrier{barrier_id}#{episode.index}",
                episode.first_arrival, engine.now, track="barrier",
                nodes=self.num_nodes - len(self.dead))
        self._release(episode)

    def _release(self, episode: _Episode) -> None:
        """Central routing: the manager departs each survivor."""
        for dst, done in episode.waiting.items():
            if dst in self.dead:
                continue
            if dst == self.manager_node:
                self._local_depart(episode, dst, done)
            else:
                self._send_depart(episode, dst, done)

    def _send_depart(self, episode: _Episode, dst: int,
                     done: DepartCallback) -> None:
        """One departure message from the current manager to ``dst``."""
        self.net.send(self.manager_node, dst, self.depart_payload(dst),
                      kind=MsgKind.BARRIER_DEPART,
                      data_kind=DataKind.CONSISTENCY,
                      on_delivered=lambda t, d=dst, cb=done:
                      self._episode_depart(episode, d, cb, t))

    def _local_depart(self, episode: _Episode, node: int,
                      done: DepartCallback) -> None:
        episode.departed.add(node)
        engine = self.net.engine
        at = engine.now + self.local_cycles
        engine.schedule_at(at, self._depart, node, done, at)
        self._maybe_retire(episode)

    def _episode_depart(self, episode: _Episode, node: int,
                        done: DepartCallback, time: int) -> None:
        """Idempotent departure delivery (repair re-sends may race)."""
        if node in episode.departed:
            return
        episode.departed.add(node)
        self._depart(node, done, time)
        self._maybe_retire(episode)

    def _depart(self, node: int, done: DepartCallback, time: int) -> None:
        self.on_depart(node)
        done(time)

    def _maybe_retire(self, episode: _Episode) -> None:
        """Drop release bookkeeping once every survivor departed."""
        if all(d in episode.departed or d in self.dead
               for d in episode.waiting):
            self._releasing.pop((episode.barrier_id, episode.index), None)

    # ------------------------------------------------------------------
    # crash-stop recovery (repro.recover)
    # ------------------------------------------------------------------
    def remove_node(self, node: int, now: int) -> int:
        """Shrink barrier membership after ``node`` is declared dead.

        Reassigns the manager seat if it died, seeds every open
        episode's arrival knowledge from the survivors already waiting
        (the recovery resync), re-checks completion with the reduced
        membership, and re-sends departures the dead node would have
        carried.  Returns the number of episodes reconfigured (the
        ``barrier_reconfigs`` counter contribution).
        """
        self.dead.add(node)
        alive = self._alive()
        if not alive:
            raise ProtocolError("no surviving node left to run barriers")
        if self.manager_node in self.dead:
            self.manager_node = min(alive)
        engine = self.net.engine
        tracer = engine.tracer
        reconfigs = 0
        for barrier_id, episode in list(self._episodes.items()):
            reconfigs += 1
            # Recovery resync: survivors that already arrived locally
            # are known to the (new) manager even if their arrival
            # message died with the old topology.
            episode.arrived_nodes |= set(episode.waiting) - self.dead
            if tracer.enabled:
                tracer.instant(self.manager_node, Category.RECOVERY,
                               "barrier_reconfig", now,
                               track=f"node{self.manager_node}.dsm",
                               barrier=barrier_id, episode=episode.index,
                               dead=node)
            self._check_complete(barrier_id, episode)
        for episode in list(self._releasing.values()):
            if self._repair_release(episode, node):
                reconfigs += 1
        return reconfigs

    def _repair_release(self, episode: _Episode, dead_node: int) -> bool:
        """Re-send departures that may have died with ``dead_node``."""
        resent = False
        for dst, done in episode.waiting.items():
            if (dst in self.dead or dst in episode.departed
                    or dead_node not in self._depart_path(episode, dst)):
                continue
            self._send_depart(episode, dst, done)
            resent = True
        self._maybe_retire(episode)
        return resent

    def _depart_path(self, episode: _Episode, dst: int) -> Set[int]:
        """Nodes the departure for ``dst`` travels through (source
        included, ``dst`` excluded); a crash on this path may have
        lost the departure."""
        return {episode.release_src}


class CombiningBarrier(BarrierManager):
    """Centralized counting carried by an in-network combining stage.

    Protocol-identical to :class:`BarrierManager`; the transport
    differs.  Arrival increments toward the manager merge in the
    fabric (followers within a combining window charge the switch's
    merge stage instead of the manager's handler CPU), and the
    departure broadcast is a fabric multicast (replicas skip the
    manager's send CPU).  ``combining_hits`` counts the merges.
    """

    algorithm = "combining"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.combiner is None:
            raise ConfigurationError(
                "combining barrier needs a SwitchCombiner (combiner=...)")

    def _send_arrival(self, barrier_id: int, episode: _Episode,
                      node: int) -> None:
        if self.dead:  # a fabric aimed at a dead home is not sound
            return super()._send_arrival(barrier_id, episode, node)
        self.combiner.fan_in(node, self.manager_node,
                             self.arrive_payload(node),
                             kind=MsgKind.BARRIER_ARRIVE,
                             key=("barrier", barrier_id, episode.index),
                             on_delivered=lambda _t:
                             self._arrived(barrier_id, episode, node))

    def _send_depart(self, episode: _Episode, dst: int,
                     done: DepartCallback) -> None:
        if self.dead:
            return super()._send_depart(episode, dst, done)
        self.combiner.fan_out(self.manager_node, dst,
                              self.depart_payload(dst),
                              kind=MsgKind.BARRIER_DEPART,
                              key=("barrier-release", episode.index),
                              on_delivered=lambda t, d=dst, cb=done:
                              self._episode_depart(episode, d, cb, t))


class TreeBarrier(BarrierManager):
    """Software combining tree (MCS-style tournament) barrier.

    Nodes form a static radix-``tree_radix`` tree rooted at the
    manager.  Logical index of ``node`` is ``(node - root) mod n``;
    logical index 0 is the root and index ``i`` has children
    ``radix*i + 1 .. radix*i + radix``.  A node reports to its parent
    only when it has seen its own arrival plus one report per child
    subtree; the root completing triggers a departure wave back down
    the same edges.
    """

    algorithm = "tree"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.tree_radix < 2:
            raise ConfigurationError(
                f"tree barrier radix must be >= 2, got {self.tree_radix}")

    # -- static topology ------------------------------------------------
    def _node_of(self, li: int, root: int) -> int:
        return (root + li) % self.num_nodes

    def _index_of(self, node: int, root: int) -> int:
        return (node - root) % self.num_nodes

    def _children(self, li: int) -> List[int]:
        first = self.tree_radix * li + 1
        return [c for c in range(first, first + self.tree_radix)
                if c < self.num_nodes]

    # -- up phase --------------------------------------------------------
    def _on_arrival(self, barrier_id: int, episode: _Episode,
                    node: int) -> None:
        if self.dead:  # a tree with a dead internal node is not sound
            return super()._on_arrival(barrier_id, episode, node)
        self._up_tick(barrier_id, episode,
                      self._index_of(node, self.manager_node))

    def _up_tick(self, barrier_id: int, episode: _Episode,
                 li: int) -> None:
        if episode.done:
            return  # recovery completed the episode with n−1 members
        episode.up[li] = episode.up.get(li, 0) + 1
        if episode.up[li] < 1 + len(self._children(li)):
            return
        if li == 0:
            # The root has its whole tree: all members arrived.
            episode.arrived_nodes.update(range(self.num_nodes))
            self._check_complete(barrier_id, episode)
            return
        parent = (li - 1) // self.tree_radix
        root = self.manager_node
        src = self._node_of(li, root)
        self.net.send(src, self._node_of(parent, root),
                      self.arrive_payload(src),
                      kind=MsgKind.BARRIER_ARRIVE,
                      data_kind=DataKind.CONSISTENCY,
                      on_delivered=lambda _t:
                      self._up_tick(barrier_id, episode, parent))

    # -- down phase ------------------------------------------------------
    def _release(self, episode: _Episode) -> None:
        if self.dead:
            return super()._release(episode)
        self._wave(episode, 0)
        root = self._node_of(0, episode.release_src)
        self._local_depart(episode, root, episode.waiting[root])

    def _wave(self, episode: _Episode, li: int) -> None:
        root = episode.release_src
        src = self._node_of(li, root)
        for child in self._children(li):
            dst = self._node_of(child, root)
            self.net.send(src, dst, self.depart_payload(dst),
                          kind=MsgKind.BARRIER_DEPART,
                          data_kind=DataKind.CONSISTENCY,
                          on_delivered=lambda t, c=child, d=dst:
                          self._tree_depart(episode, c, d, t))

    def _tree_depart(self, episode: _Episode, li: int, node: int,
                     time: int) -> None:
        if node in episode.departed:
            return  # repair re-send already released this node
        episode.departed.add(node)
        self._wave(episode, li)  # forward first, then release locally
        self._depart(node, episode.waiting[node], time)
        self._maybe_retire(episode)

    def _depart_path(self, episode: _Episode, dst: int) -> Set[int]:
        """All ancestors of ``dst`` in the release tree (root first)."""
        root = episode.release_src
        path: Set[int] = set()
        li = self._index_of(dst, root)
        while li != 0:
            li = (li - 1) // self.tree_radix
            path.add(self._node_of(li, root))
        return path


#: Barrier algorithm name -> implementation class.
DSM_BARRIER_IMPLS: Dict[str, type] = {
    "central": BarrierManager,
    "tree": TreeBarrier,
    "combining": CombiningBarrier,
}


def make_dsm_barrier(algorithm: str, net, num_nodes: int,
                     **kwargs) -> BarrierManager:
    """Build the DSM barrier for ``algorithm`` (see DSM_BARRIER_IMPLS)."""
    impl = DSM_BARRIER_IMPLS.get(algorithm)
    if impl is None:
        raise ConfigurationError(
            f"unknown DSM barrier algorithm '{algorithm}' "
            f"(known: {', '.join(DSM_BARRIER_IMPLS)})")
    return impl(net, num_nodes, **kwargs)
