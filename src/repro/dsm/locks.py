"""Distributed DSM locks: the pluggable lock-algorithm family.

TreadMarks' own algorithm (§2.1) — the ``token`` default — assigns
each lock a static manager; the token rests at the last releaser.  An
acquire sends a request to the manager, which forwards it to the
probable owner; the holder responds directly to the requester with a
grant carrying the write notices the requester lacks.  The minimum
remote acquisition is therefore three messages (two when the manager
still holds the token) and zero when the token already rests at the
requesting node — which is also how the HS architecture gets its free
intra-node lock handoffs (§3.1).

Three alternatives from the scalable-synchronization literature share
that consistency plumbing (every grant still flows releaser→acquirer,
because LRC rides on it) and differ in how the releaser learns its
successor:

* ``mcs`` (:class:`McsLocks`) — an MCS-style distributed queue: the
  requester swaps itself onto a tail pointer at the lock's home, the
  swap reply names its predecessor, and a set-next message links it
  into the predecessor's queue node.  One extra (off-critical-path)
  message per contended acquire, but the handoff is a single direct
  predecessor→successor grant and enqueue traffic lands on the
  *predecessor* instead of piling onto the current holder.
* ``ticket`` (:class:`TicketLocks`) — a centralized ticket counter:
  acquires take a ticket at the home, and every contended handoff is
  home-mediated (release notify → home reply → grant), putting two
  extra messages on the handoff critical path.  Perfectly fair, and
  exactly why ticket locks are a poor fit for message-passing DSM.
* ``combining`` (:class:`CombiningLocks`) — ticket order taken by a
  combining fetch-and-add: home-bound request/release traffic merges
  in the fabric (:class:`~repro.sync.combining.SwitchCombiner`), so
  request bursts stop serializing through the home node's handler
  CPU.

All algorithms keep two shared fast paths: a token resting at the
requesting node with nobody waiting grants locally for
``local_grant_cycles``, and requests from the token-resident node
join the queue locally (the HS intra-node behaviour).  Waiters form a
global FIFO queue; grants to a co-resident waiter are local and
message-free.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional

from repro.errors import ConfigurationError, ProtocolError
from repro.stats.counters import DataKind, MsgKind
from repro.trace.tracer import Category

GrantCallback = Callable[[int, bool], None]
"""Called as ``cb(time, was_remote)`` when the lock is held."""


@dataclass
class _Waiter:
    node: int
    proc: int
    vc_bytes_hint: int
    done: GrantCallback
    remote: bool
    requested: int = 0  # acquire-call time (queue-wait accounting)


@dataclass
class LockRecord:
    """Global state of one lock (placement lives in the accounting)."""

    lock_id: int
    manager: int
    token_node: int
    held: bool = False
    in_transit: bool = False
    holder_proc: Optional[int] = None
    queue: Deque[_Waiter] = field(default_factory=deque)
    grants: int = 0
    local_grants: int = 0
    granted_at: int = 0  # last grant time (hold-cycle accounting)
    #: Waiter whose grant is in flight (crash repair needs to know who
    #: would strand if the grant dies with a crashed endpoint).
    pending_grant: Optional[_Waiter] = None
    #: Node the in-flight grant departed from.
    grant_src: Optional[int] = None
    #: Releaser node of an in-flight ticket release-notify handshake.
    notify_node: Optional[int] = None
    #: Bumped by :meth:`DsmLocks.remove_node` whenever it rewrites this
    #: record; in-flight completion closures captured the old epoch and
    #: turn into no-ops, so a straggler delivery cannot double-grant.
    repair_epoch: int = 0

    @property
    def available(self) -> bool:
        """True when the token is at rest and nobody holds the lock."""
        return not self.held and not self.in_transit and not self.queue


class DsmLocks:
    """All DSM locks of one machine (shared machinery, one algorithm).

    The owning protocol supplies:

    * ``net.send(...)`` for messages,
    * ``grant_payload(from_node, to_node)`` returning the consistency
      bytes a grant carries (vector clock + write notices),
    * ``on_granted(to_node, from_node)`` applying those notices, and
    * ``local_grant_cycles`` for token-resident acquisitions.

    Every remote acquire is :meth:`_request_home` (request → the
    lock's home); subclasses implement :meth:`_at_home` (how the home
    finds the current holder/queue, usually :meth:`_forward`) and may
    override :meth:`_after_release` (how the releaser learns its
    successor) and :meth:`_send_home` (the home-bound transport).
    """

    algorithm = "base"

    def __init__(self, net, num_nodes: int, *,
                 grant_payload: Callable[[int, int], int],
                 on_granted: Callable[[int, int], None],
                 request_payload_bytes: int,
                 local_grant_cycles: int = 100,
                 combiner=None) -> None:
        self.net = net
        self.num_nodes = num_nodes
        self.grant_payload = grant_payload
        self.on_granted = on_granted
        self.request_payload_bytes = request_payload_bytes
        self.local_grant_cycles = local_grant_cycles
        self.combiner = combiner
        self._locks: Dict[int, LockRecord] = {}
        # Manager-side probable-owner pointers: lock -> node the manager
        # last directed the token toward (used by the token algorithm).
        self._probable_owner: Dict[int, int] = {}
        #: Nodes declared dead by recovery; excluded from homing,
        #: queues, and grants.
        self.dead: set = set()

    # ------------------------------------------------------------------
    def record(self, lock_id: int) -> LockRecord:
        """The (lazily created) global record of ``lock_id``."""
        rec = self._locks.get(lock_id)
        if rec is None:
            manager = self._fallback_home(lock_id)
            rec = LockRecord(lock_id, manager, token_node=manager)
            self._locks[lock_id] = rec
            self._probable_owner[lock_id] = manager
        return rec

    def _fallback_home(self, lock_id: int) -> int:
        """First surviving node cycling up from the static home."""
        for step in range(self.num_nodes):
            cand = (lock_id + step) % self.num_nodes
            if cand not in self.dead:
                return cand
        raise ProtocolError(
            f"no surviving node left to home lock {lock_id}")

    # ------------------------------------------------------------------
    def acquire(self, lock_id: int, node: int, proc: int,
                done: GrantCallback) -> None:
        """Request the lock for ``proc`` on ``node``."""
        rec = self.record(lock_id)
        engine = self.net.engine
        if rec.token_node == node and rec.available:
            # Token already rests here and nobody is waiting: free.
            rec.held = True
            rec.holder_proc = proc
            rec.grants += 1
            rec.local_grants += 1
            at = engine.now + self.local_grant_cycles
            rec.granted_at = at
            self.net.counters.lock_wait_cycles += self.local_grant_cycles
            engine.schedule_at(at, done, at, False)
            return

        waiter = _Waiter(node, proc, self.request_payload_bytes, done,
                         remote=(rec.token_node != node),
                         requested=engine.now)
        if rec.token_node == node and not rec.in_transit:
            # Token is here but held (or others queued): wait locally.
            rec.queue.append(waiter)
            return

        # Remote path: to the home, then algorithm-specific routing.
        self.net.counters.remote_lock_acquires += 1
        tracer = engine.tracer
        if tracer.enabled:
            tracer.instant(node, Category.SYNC, "lock_request",
                           engine.now, track=f"node{node}.dsm",
                           lock=lock_id)
        self._request_home(rec, waiter)

    def _request_home(self, rec: LockRecord, waiter: _Waiter) -> None:
        """Request → the lock's home, where :meth:`_at_home` decides.

        Every remote acquire of every algorithm starts here, so every
        one is re-routed (:meth:`_reroute`) if the home is declared
        dead with the request on the wire.
        """
        self._send_home(waiter.node, rec, MsgKind.LOCK_REQUEST, "lock",
                        lambda _t: self._at_home(rec, waiter),
                        lambda _t: self._reroute(rec, waiter))

    def _send_home(self, src: int, rec: LockRecord, kind: MsgKind,
                   tag: str, on_delivered: Callable[[int], None],
                   on_abandoned: Optional[Callable[[int], None]] = None
                   ) -> None:
        """Transport of home-bound traffic (``tag`` names the flow)."""
        self.net.send(src, rec.manager, self.request_payload_bytes,
                      kind=kind, data_kind=DataKind.CONSISTENCY,
                      on_delivered=on_delivered, on_abandoned=on_abandoned)

    def _at_home(self, rec: LockRecord, waiter: _Waiter) -> None:
        raise NotImplementedError

    def _forward(self, rec: LockRecord, waiter: _Waiter,
                 target: int) -> None:
        """Home → ``target``, the node the token rests at."""
        if target == rec.manager:
            self._enqueue_at_holder(rec, waiter)
            return
        self.net.send(rec.manager, target, self.request_payload_bytes,
                      kind=MsgKind.LOCK_FORWARD,
                      data_kind=DataKind.CONSISTENCY,
                      on_delivered=lambda _t:
                      self._enqueue_at_holder(rec, waiter),
                      on_abandoned=lambda _t: self._reroute(rec, waiter))

    def _enqueue_at_holder(self, rec: LockRecord, waiter: _Waiter) -> None:
        if waiter.node in self.dead:
            # The requester died while its request was on the wire;
            # its processors are gone, so the request simply vanishes.
            return
        if rec.available:
            self._grant(rec, waiter)
        else:
            rec.queue.append(waiter)

    # ------------------------------------------------------------------
    def release(self, lock_id: int, node: int, proc: int,
                done: Callable[[int], None]) -> None:
        """Release the lock; hands off to the head waiter if any."""
        rec = self.record(lock_id)
        if not rec.held or rec.token_node != node:
            raise ProtocolError(
                f"release of lock {lock_id} by node {node} which does not "
                f"hold it (token at {rec.token_node}, held={rec.held})")
        if rec.holder_proc != proc:
            raise ProtocolError(
                f"release of lock {lock_id} by proc {proc}, held by "
                f"{rec.holder_proc}")
        engine = self.net.engine
        self.net.counters.lock_hold_cycles += engine.now - rec.granted_at
        rec.held = False
        rec.holder_proc = None
        self._after_release(rec, node)
        engine.schedule(self.local_grant_cycles, done,
                        engine.now + self.local_grant_cycles)

    def _after_release(self, rec: LockRecord, node: int) -> None:
        """Hand off to the next waiter; the releaser knows its queue."""
        if rec.queue:
            self._grant(rec, rec.queue.popleft())

    # ------------------------------------------------------------------
    def _grant(self, rec: LockRecord, waiter: _Waiter) -> None:
        rec.grants += 1
        engine = self.net.engine
        counters = self.net.counters
        if waiter.node == rec.token_node:
            # Intra-node handoff: shared memory within the node, no
            # messages, no consistency actions.
            rec.held = True
            rec.holder_proc = waiter.proc
            rec.local_grants += 1
            at = engine.now + self.local_grant_cycles
            rec.granted_at = at
            counters.lock_wait_cycles += at - waiter.requested
            engine.schedule_at(at, waiter.done, at, False)
            return

        src = rec.token_node
        payload = self.grant_payload(src, waiter.node)
        rec.token_node = waiter.node  # token (plus queue) migrates
        rec.in_transit = True
        rec.pending_grant = waiter
        rec.grant_src = src
        epoch = rec.repair_epoch
        tracer = engine.tracer
        if tracer.enabled:
            tracer.instant(src, Category.SYNC, "lock_grant",
                           engine.now, track=f"node{src}.dsm",
                           lock=rec.lock_id, to=waiter.node)

        def delivered(time: int, w=waiter, s=src, r=rec) -> None:
            if r.repair_epoch != epoch:
                return  # crash repair superseded this grant
            r.in_transit = False
            r.pending_grant = None
            r.grant_src = None
            r.held = True
            r.holder_proc = w.proc
            r.granted_at = time
            counters.lock_wait_cycles += time - w.requested
            self.on_granted(w.node, s)
            w.done(time, True)

        self.net.send(src, waiter.node, payload,
                      kind=MsgKind.LOCK_GRANT,
                      data_kind=DataKind.CONSISTENCY,
                      on_delivered=delivered)

    # ------------------------------------------------------------------
    def total_grants(self) -> int:
        """Total grants (local + remote) across all locks."""
        return sum(r.grants for r in self._locks.values())

    def holder_of(self, lock_id: int) -> Optional[int]:
        """The node holding ``lock_id``, or None if free."""
        rec = self._locks.get(lock_id)
        if rec is None or not rec.held:
            return None
        return rec.token_node

    # ------------------------------------------------------------------
    # crash-stop recovery (repro.recover)
    # ------------------------------------------------------------------
    def remove_node(self, node: int, now: int) -> int:
        """Regenerate lock state after ``node`` is declared dead.

        Purges dead waiters, moves manager seats and resting/held
        tokens off the dead node, and restarts handoffs whose in-flight
        message involved it.  Every rewritten record's ``repair_epoch``
        is bumped so straggler deliveries of superseded grants become
        no-ops.  Returns the number of locks regenerated (the
        ``locks_regenerated`` counter contribution).
        """
        self.dead.add(node)
        engine = self.net.engine
        tracer = engine.tracer
        repaired = 0
        for rec in self._locks.values():
            changed = False

            # Waiters from dead nodes will never consume a grant.
            survivors = [w for w in rec.queue if w.node not in self.dead]
            if len(survivors) != len(rec.queue):
                rec.queue = deque(survivors)
                changed = True

            # A ticket release-notify handshake stuck at a dead peer
            # (home or releaser): cancel it; the handoff restarts
            # below.  Checked before the manager seat moves.
            if (rec.in_transit and rec.pending_grant is None
                    and (rec.manager in self.dead
                         or rec.notify_node in self.dead)):
                rec.repair_epoch += 1
                rec.in_transit = False
                rec.notify_node = None
                changed = True

            if rec.manager in self.dead:
                rec.manager = self._fallback_home(rec.lock_id)
                changed = True

            if rec.in_transit and rec.pending_grant is not None and (
                    rec.token_node in self.dead
                    or rec.grant_src in self.dead):
                # The in-flight grant dies with one of its endpoints.
                # A surviving acquirer goes back to the head of the
                # queue; the token rematerializes at the manager.
                waiter = rec.pending_grant
                rec.repair_epoch += 1
                rec.in_transit = False
                rec.pending_grant = None
                rec.grant_src = None
                rec.held = False
                rec.holder_proc = None
                rec.token_node = rec.manager
                if waiter.node not in self.dead:
                    rec.queue.appendleft(waiter)
                changed = True
            elif not rec.in_transit and rec.token_node in self.dead:
                # Token resting at (or held by) the dead node: the
                # holder can never release, so the token is reminted
                # at the manager.
                rec.repair_epoch += 1
                rec.token_node = rec.manager
                rec.held = False
                rec.holder_proc = None
                changed = True

            if self._probable_owner.get(rec.lock_id) in self.dead:
                self._probable_owner[rec.lock_id] = rec.token_node
                changed = True

            if changed:
                repaired += 1
                if tracer.enabled:
                    tracer.instant(rec.manager, Category.RECOVERY,
                                   "lock_regenerated", now,
                                   track=f"node{rec.manager}.dsm",
                                   lock=rec.lock_id, dead=node)
                if not rec.held and not rec.in_transit and rec.queue:
                    # Restart the handoff from the repaired state.
                    self._grant(rec, rec.queue.popleft())
        return repaired

    def _reroute(self, rec: LockRecord, waiter: _Waiter) -> None:
        """Re-issue a remote acquire whose routing message was
        abandoned because its destination was declared dead.

        By the time a send is abandoned the declaration has already
        run :meth:`remove_node`, so the record's manager and token
        placement are repaired; the waiter simply retries against the
        new topology.
        """
        if waiter.node in self.dead:
            return
        self._request_home(rec, waiter)


class DistributedLocks(DsmLocks):
    """The paper's token-forwarding lock (TreadMarks §2.1)."""

    algorithm = "token"

    def _at_home(self, rec: LockRecord, waiter: _Waiter) -> None:
        # Manager -> probable owner (where the token was last sent).
        target = self._probable_owner[rec.lock_id]
        self._probable_owner[rec.lock_id] = waiter.node
        self._forward(rec, waiter, target)


class McsLocks(DsmLocks):
    """MCS-style distributed queue lock (swap at home, direct handoff).

    A contended acquire is three small messages — swap request to the
    home, swap reply naming the predecessor, set-next to the
    predecessor — of which none sits on the handoff critical path:
    the release is still a single direct grant to the successor.
    Compared to ``token``, enqueue traffic is spread over predecessor
    nodes instead of concentrating at the current holder.
    """

    algorithm = "mcs"

    def _at_home(self, rec: LockRecord, waiter: _Waiter) -> None:
        # The swap on the tail pointer at the lock's home.
        if waiter.node in self.dead:
            return  # requester crashed while the swap was in flight
        if rec.available:
            # Lock at rest: the home redirects to the resting token,
            # exactly like the token algorithm's forward.
            self._forward(rec, waiter, rec.token_node)
            return

        # Busy: the swap appoints the previous tail as predecessor.
        pred_node = rec.queue[-1].node if rec.queue else rec.token_node
        rec.queue.append(waiter)

        def swap_returned(_t: int) -> None:
            if pred_node != waiter.node:
                # set-next: link into the predecessor's queue node
                # (fire-and-forget; cost only, off the critical path).
                self.net.send(waiter.node, pred_node,
                              self.request_payload_bytes,
                              kind=MsgKind.LOCK_FORWARD,
                              data_kind=DataKind.CONSISTENCY)

        self.net.send(rec.manager, waiter.node, self.request_payload_bytes,
                      kind=MsgKind.LOCK_FORWARD,
                      data_kind=DataKind.CONSISTENCY,
                      on_delivered=swap_returned)


class TicketLocks(DsmLocks):
    """Centralized ticket lock at the lock's home node.

    Acquire order is the order requests reach the home (a ticket
    grab); the queue lives there.  The price appears at release: the
    releaser does not know its successor, so every contended handoff
    is release-notify → home → reply → grant — two extra messages on
    the critical path, all serialized through the home's handler CPU.
    """

    algorithm = "ticket"

    def _at_home(self, rec: LockRecord, waiter: _Waiter) -> None:
        if waiter.node in self.dead:
            return  # requester crashed while its ticket was in flight
        if rec.available:
            self._forward(rec, waiter, rec.token_node)
        else:
            rec.queue.append(waiter)

    def _after_release(self, rec: LockRecord, node: int) -> None:
        if not rec.queue:
            return  # token rests at the releaser, as in `token`
        # Home-mediated handoff: notify home, home names the next
        # ticket holder, the releaser grants.
        rec.in_transit = True
        rec.notify_node = node
        epoch = rec.repair_epoch

        def home_replied(_t: int) -> None:
            if rec.repair_epoch != epoch:
                return  # crash repair restarted this handoff
            rec.in_transit = False
            rec.notify_node = None
            if rec.queue:
                self._grant(rec, rec.queue.popleft())

        def at_home(_t: int) -> None:
            if rec.repair_epoch != epoch:
                return
            self.net.send(rec.manager, node, self.request_payload_bytes,
                          kind=MsgKind.LOCK_FORWARD,
                          data_kind=DataKind.CONSISTENCY,
                          on_delivered=home_replied)

        self._send_home(node, rec, MsgKind.LOCK_RELEASE, "lock-release",
                        at_home)


class CombiningLocks(TicketLocks):
    """Ticket order taken by an in-network combining fetch-and-add.

    Identical to :class:`TicketLocks` except that the two home-bound
    hops — the ticket grab and the release notify — travel through
    the combining switch: concurrent requests for the same lock merge
    in the fabric and stop serializing through the home node's
    handler CPU.  ``combining_hits`` counts the merges.
    """

    algorithm = "combining"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.combiner is None:
            raise ConfigurationError(
                "combining locks need a SwitchCombiner (combiner=...)")

    def _send_home(self, src: int, rec: LockRecord, kind: MsgKind,
                   tag: str, on_delivered: Callable[[int], None],
                   on_abandoned: Optional[Callable[[int], None]] = None
                   ) -> None:
        self.combiner.fan_in(src, rec.manager, self.request_payload_bytes,
                             kind=kind, key=(tag, rec.lock_id),
                             on_delivered=on_delivered,
                             on_abandoned=on_abandoned)


#: Lock algorithm name -> implementation class.
DSM_LOCK_IMPLS: Dict[str, type] = {
    "token": DistributedLocks,
    "mcs": McsLocks,
    "ticket": TicketLocks,
    "combining": CombiningLocks,
}


def make_dsm_locks(algorithm: str, net, num_nodes: int, **kwargs) -> DsmLocks:
    """Build the DSM lock table for ``algorithm`` (see DSM_LOCK_IMPLS)."""
    impl = DSM_LOCK_IMPLS.get(algorithm)
    if impl is None:
        raise ConfigurationError(
            f"unknown DSM lock algorithm '{algorithm}' "
            f"(known: {', '.join(DSM_LOCK_IMPLS)})")
    return impl(net, num_nodes, **kwargs)
