"""Hardware synchronization gadgets: shared-memory locks and barriers.

On the SGI 4D/480 and the AH machine, locks and barriers are ordinary
shared-memory algorithms (test-and-set / counters); their cost is a
handful of coherence transactions rather than kernel-mediated
messages.  The gadgets here charge parametric per-operation costs and
serialize through a resource (the snooping bus, or the barrier
counter's home-node port), so contention behaves realistically without
simulating the spin loops instruction by instruction.

The default gadgets are the paper's: a test-and-set lock with FIFO
handoff (:class:`HwLockTable`) and a centralized counter barrier
(:class:`HwBarrier`), both serializing every transaction through the
shared resource.  The scalable alternatives of the synchronization
design space (:mod:`repro.sync`) swap the coherence traffic pattern:

* ``mcs`` locks enqueue with one serialized swap but hand off
  cache-to-cache between waiters, off the shared resource;
* ``ticket`` locks add the invalidation storm a real ticket lock
  causes — every release makes all spinners refetch the now-serving
  counter through the serializer;
* ``combining`` locks and barriers push their fetch-and-ops through a
  :class:`~repro.net.crossbar.CombiningStage`, merging bursts in the
  interconnect before they reach the serializing home port;
* ``tree`` barriers replace the O(n) serialized counter with a
  radix-k software tree: per-arrival work is unserialized (each
  subtree counter lives in its own line/home) and the critical path
  is the tree depth, not the processor count.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional

from repro.errors import ConfigurationError, ProtocolError
from repro.net.crossbar import CombiningStage
from repro.sim.engine import Engine
from repro.sim.resource import Resource

DoneCallback = Callable[[int], None]


class _Serialized:
    """A gadget whose transactions queue at one shared resource."""

    serializer: Optional[Resource]

    def _charge(self, now: int, cycles: int) -> int:
        """When a ``cycles``-long transaction issued at ``now`` ends."""
        if self.serializer is None:
            return now + cycles
        _s, end = self.serializer.acquire(now, cycles)
        return end


@dataclass
class _HwLock:
    held: bool = False
    holder: Optional[int] = None
    last_owner: Optional[int] = None
    waiters: Deque = field(default_factory=deque)
    acquires: int = 0
    contended: int = 0
    migrations: int = 0


class HwLockTable(_Serialized):
    """Test-and-set style locks with FIFO handoff.

    The lock word lives in a cache line: a processor that reacquires a
    lock it released last (the line is still in its cache, EXCLUSIVE)
    pays only ``local_cycles``; acquiring a lock last held elsewhere
    migrates the line — a coherence transaction through ``serializer``
    costing ``acquire_cycles``.  This line-affinity behaviour is why
    mostly-private locks (Water's own-molecule updates) are nearly
    free on hardware while migrating locks pay bus/network latency.

    Subclasses vary the *contended* path only — what an enqueue costs
    and whether the handoff serializes — so the uncontended
    line-affinity fast path is identical across algorithms.
    """

    algorithm = "token"

    def __init__(self, engine: Engine, *,
                 acquire_cycles: int,
                 release_cycles: int,
                 handoff_cycles: int,
                 local_cycles: int = 5,
                 serializer: Optional[Resource] = None,
                 stage=None) -> None:
        self.engine = engine
        self.acquire_cycles = acquire_cycles
        self.release_cycles = release_cycles
        self.handoff_cycles = handoff_cycles
        self.local_cycles = local_cycles
        self.serializer = serializer
        self.stage = stage
        self._locks: Dict[int, _HwLock] = {}

    def _lock(self, lock_id: int) -> _HwLock:
        lock = self._locks.get(lock_id)
        if lock is None:
            lock = _HwLock()
            self._locks[lock_id] = lock
        return lock

    # ------------------------------------------------------------------
    def acquire(self, lock_id: int, proc: int, done: DoneCallback) -> None:
        """Take ``lock_id`` for ``proc``; ``done(time)`` runs once held.

        A free lock last held here costs ``local_cycles``; one that
        migrates from another processor pays a serialized transaction.
        A held lock queues the request.
        """
        lock = self._lock(lock_id)
        lock.acquires += 1
        if not lock.held:
            lock.held = True
            lock.holder = proc
            if lock.last_owner == proc or lock.last_owner is None:
                at = self.engine.now + self.local_cycles
            else:
                lock.migrations += 1
                at = self._charge(self.engine.now, self.acquire_cycles)
            lock.last_owner = proc
            self.engine.schedule_at(at, done, at)
        else:
            lock.contended += 1
            self._enqueue(lock, lock_id, proc, done)

    def _enqueue(self, lock: _HwLock, lock_id: int, proc: int,
                 done: DoneCallback) -> None:
        """Contended arrival (default test-and-set: free spinning)."""
        lock.waiters.append((proc, done))

    def release(self, lock_id: int, proc: int, done: DoneCallback) -> None:
        """Free ``lock_id`` (held by ``proc``), handing it to the first
        waiter if any; ``done(time)`` runs when the release completes."""
        lock = self._lock(lock_id)
        if not lock.held or lock.holder != proc:
            raise ProtocolError(
                f"hw lock {lock_id} released by {proc}, holder is "
                f"{lock.holder}")
        at = self.engine.now + self.release_cycles
        if lock.waiters:
            next_proc, next_done = lock.waiters.popleft()
            lock.holder = next_proc
            lock.last_owner = next_proc
            lock.migrations += 1
            grant_at = self._handoff(lock, lock_id, at)
            self.engine.schedule_at(grant_at, next_done, grant_at)
        else:
            lock.held = False
            lock.holder = None
        self.engine.schedule_at(at, done, at)

    def _handoff(self, lock: _HwLock, lock_id: int, at: int) -> int:
        """When the new holder may proceed (default: serialized)."""
        return self._charge(at, self.handoff_cycles)

    def stats(self) -> Dict[int, Dict[str, int]]:
        """Per lock id: total and contended acquire counts."""
        return {lid: {"acquires": lk.acquires, "contended": lk.contended}
                for lid, lk in self._locks.items()}


class HwMcsLockTable(HwLockTable):
    """MCS queue lock: serialized swap on enqueue, local handoff.

    The enqueue swap is one atomic transaction through the serializer
    (charged off the waiter's critical path — it spins locally after);
    the handoff writes the successor's own queue node, a direct
    cache-to-cache transfer that does *not* occupy the shared
    resource.  Under contention this diverts all handoff traffic off
    the bus/home port, which is the whole point of MCS.
    """

    algorithm = "mcs"

    def _enqueue(self, lock: _HwLock, lock_id: int, proc: int,
                 done: DoneCallback) -> None:
        self._charge(self.engine.now, self.acquire_cycles)  # tail swap
        lock.waiters.append((proc, done))

    def _handoff(self, lock: _HwLock, lock_id: int, at: int) -> int:
        return at + self.handoff_cycles  # successor's line: unserialized


class HwTicketLockTable(HwLockTable):
    """Ticket lock: fair, with the release-time invalidation storm.

    Enqueue grabs a ticket (serialized fetch-and-add).  Every release
    bumps the now-serving counter, invalidating the line *all*
    remaining spinners cache — each refetch is a serialized
    transaction, so release cost grows with the spinner count.  The
    granted waiter still pays the serialized handoff.
    """

    algorithm = "ticket"

    def _enqueue(self, lock: _HwLock, lock_id: int, proc: int,
                 done: DoneCallback) -> None:
        self._charge(self.engine.now, self.acquire_cycles)  # ticket F&A
        lock.waiters.append((proc, done))

    def _handoff(self, lock: _HwLock, lock_id: int, at: int) -> int:
        grant_at = self._charge(at, self.handoff_cycles)
        for _spinner in lock.waiters:  # popleft already removed the head
            self._charge(at, self.local_cycles)  # now-serving refetch
        return grant_at


class HwCombiningLockTable(HwLockTable):
    """Lock whose ticket fetch-and-add combines in the interconnect.

    Contended arrivals issue their fetch-and-add through a
    :class:`~repro.net.crossbar.CombiningStage`: bursts merge in the
    fabric and the serializing home port sees one transaction per
    combining window.  Handoff is a direct transfer to the successor,
    off the shared resource.
    """

    algorithm = "combining"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.stage is None:
            raise ConfigurationError(
                "combining hw locks need a CombiningStage (stage=...)")

    def _enqueue(self, lock: _HwLock, lock_id: int, proc: int,
                 done: DoneCallback) -> None:
        self.stage.fetch_op(("lock", lock_id), self.engine.now,
                            self.acquire_cycles)
        lock.waiters.append((proc, done))

    def _handoff(self, lock: _HwLock, lock_id: int, at: int) -> int:
        return at + self.handoff_cycles


@dataclass
class _HwBarrierEpisode:
    waiting: Dict[int, DoneCallback] = field(default_factory=dict)


class HwBarrier(_Serialized):
    """Centralized counter barrier.

    Each arrival performs an atomic increment (serialized through the
    counter's line); the last arrival releases everyone, and each
    departure refetches the flag line (another serialized access), so
    barrier cost grows linearly with the processor count as on a real
    bus machine.

    Subclasses override :meth:`_count_arrival` (what one arrival
    costs) and :meth:`_release` (how departures propagate).
    """

    algorithm = "central"

    def __init__(self, engine: Engine, num_procs: int, *,
                 arrive_cycles: int,
                 depart_cycles: int,
                 serializer: Optional[Resource] = None,
                 stage=None, tree_radix: int = 4) -> None:
        self.engine = engine
        self.num_procs = num_procs
        self.arrive_cycles = arrive_cycles
        self.depart_cycles = depart_cycles
        self.serializer = serializer
        self.stage = stage
        self.tree_radix = tree_radix
        self._episodes: Dict[int, _HwBarrierEpisode] = {}
        self.completed = 0

    def arrive(self, barrier_id: int, proc: int, done: DoneCallback) -> None:
        """Count ``proc`` in at ``barrier_id``; the last arrival releases
        every waiter, whose ``done(time)`` then runs."""
        episode = self._episodes.get(barrier_id)
        if episode is None:
            episode = _HwBarrierEpisode()
            self._episodes[barrier_id] = episode
        if proc in episode.waiting:
            raise ProtocolError(
                f"proc {proc} arrived twice at hw barrier {barrier_id}")
        episode.waiting[proc] = done
        counted_at = self._count_arrival(barrier_id)
        if len(episode.waiting) < self.num_procs:
            return
        # Last arrival: release everyone.
        del self._episodes[barrier_id]
        self.completed += 1
        self._release(episode, counted_at)

    def _count_arrival(self, barrier_id: int) -> int:
        return self._charge(self.engine.now, self.arrive_cycles)

    def _release(self, episode: _HwBarrierEpisode, counted_at: int) -> None:
        for _p, cb in episode.waiting.items():
            at = self._charge(counted_at, self.depart_cycles)
            self.engine.schedule_at(at, cb, at)


class HwTreeBarrier(HwBarrier):
    """Radix-k software combining tree barrier.

    Arrivals increment their subtree's counter — a distinct cache
    line / home per tree node, so arrival work does not serialize
    through the shared resource.  The last arrival propagates up the
    remaining levels and the release wave runs back down, so the
    critical path is ``depth * (arrive + depart)`` instead of
    ``n * depart`` serialized transactions.
    """

    algorithm = "tree"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.tree_radix < 2:
            raise ConfigurationError(
                f"tree barrier radix must be >= 2, got {self.tree_radix}")

    @property
    def _depth(self) -> int:
        if self.num_procs <= 1:
            return 0
        return max(1, math.ceil(math.log(self.num_procs, self.tree_radix)))

    def _count_arrival(self, barrier_id: int) -> int:
        return self.engine.now + self.arrive_cycles  # own subtree line

    def _release(self, episode: _HwBarrierEpisode, counted_at: int) -> None:
        depth = self._depth
        up = depth * self.arrive_cycles           # propagate to the root
        down = max(1, depth) * self.depart_cycles  # wave back down
        at = counted_at + up + down
        for _p, cb in episode.waiting.items():
            self.engine.schedule_at(at, cb, at)


class HwCombiningBarrier(HwBarrier):
    """Counter barrier whose increments combine in the interconnect.

    Arrival fetch-and-adds travel through a
    :class:`~repro.net.crossbar.CombiningStage`; bursts merge before
    reaching the counter's serializing home port.  The release is a
    fabric multicast of the flag line: one serialized flag write, then
    every processor departs after its (unserialized) refetch.
    """

    algorithm = "combining"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.stage is None:
            raise ConfigurationError(
                "combining hw barrier needs a CombiningStage (stage=...)")

    def _count_arrival(self, barrier_id: int) -> int:
        return self.stage.fetch_op(("barrier", barrier_id),
                                   self.engine.now, self.arrive_cycles)

    def _release(self, episode: _HwBarrierEpisode, counted_at: int) -> None:
        flagged_at = self._charge(counted_at, self.depart_cycles)
        at = flagged_at + self.depart_cycles  # multicast refetch, parallel
        for _p, cb in episode.waiting.items():
            self.engine.schedule_at(at, cb, at)


#: Lock algorithm name -> hardware implementation class.
HW_LOCK_IMPLS: Dict[str, type] = {
    "token": HwLockTable,
    "mcs": HwMcsLockTable,
    "ticket": HwTicketLockTable,
    "combining": HwCombiningLockTable,
}

#: Barrier algorithm name -> hardware implementation class.
HW_BARRIER_IMPLS: Dict[str, type] = {
    "central": HwBarrier,
    "tree": HwTreeBarrier,
    "combining": HwCombiningBarrier,
}


def make_hw_locks(algorithm: str, engine: Engine, **kwargs) -> HwLockTable:
    """Build the hardware lock table for ``algorithm``."""
    impl = HW_LOCK_IMPLS.get(algorithm)
    if impl is None:
        raise ConfigurationError(
            f"unknown hw lock algorithm '{algorithm}' "
            f"(known: {', '.join(HW_LOCK_IMPLS)})")
    return impl(engine, **kwargs)


def make_hw_barrier(algorithm: str, engine: Engine, num_procs: int,
                    **kwargs) -> HwBarrier:
    """Build the hardware barrier for ``algorithm``."""
    impl = HW_BARRIER_IMPLS.get(algorithm)
    if impl is None:
        raise ConfigurationError(
            f"unknown hw barrier algorithm '{algorithm}' "
            f"(known: {', '.join(HW_BARRIER_IMPLS)})")
    return impl(engine, num_procs, **kwargs)


def make_hw_sync(policy, engine: Engine, num_procs: int, params, counters,
                 *, serializer: Resource, combine_cycles: int):
    """``(locks, barrier)`` implementing ``policy`` on a hardware machine.

    ``params`` supplies the machine's ``lock_*_cycles`` /
    ``barrier_*_cycles``; sync operations serialize at ``serializer``
    (the bus, or the crossbar's sync home port).  A combining policy
    puts a :class:`~repro.net.crossbar.CombiningStage` in front of it:
    operations arriving within one service window merge, and a merged
    operation costs ``combine_cycles``.
    """
    stage = None
    if "combining" in (policy.lock, policy.barrier):
        stage = CombiningStage(
            counters, resource=serializer,
            window_cycles=params.barrier_arrive_cycles,
            combine_cycles=max(1, combine_cycles))
    locks = make_hw_locks(
        policy.lock, engine,
        acquire_cycles=params.lock_acquire_cycles,
        release_cycles=params.lock_release_cycles,
        handoff_cycles=params.lock_handoff_cycles,
        serializer=serializer, stage=stage)
    barrier = make_hw_barrier(
        policy.barrier, engine, num_procs,
        arrive_cycles=params.barrier_arrive_cycles,
        depart_cycles=params.barrier_depart_cycles,
        serializer=serializer, stage=stage,
        tree_radix=policy.tree_radix)
    return locks, barrier
