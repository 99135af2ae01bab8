"""The TreadMarks node runtime: lazy release consistency over a LAN.

:class:`TreadMarksDsm` exposes node-granularity operations to machine
models (``read``, ``write``, ``acquire``, ``release``,
``barrier_arrive``) and implements the LRC protocol of §2.1:

* **Intervals & write notices** — a node's dirty pages between
  synchronization points form an interval; acquirers and barrier
  departers receive notices for intervals they have not seen and
  invalidate their copies of the named pages.
* **Lazy diffs** — a faulting node requests diffs from the notice
  creators; creators build diffs on first request (twin comparison)
  and cache them.
* **Multiple-writer** — concurrent writers of one page each twin it
  and produce disjoint diffs; nobody is invalidated by their own
  writes.
* **Eager release** (optional, per lock) — at release time the
  releaser pushes diffs of its dirty pages to every node holding a
  valid copy, instead of invalidating lazily at the next acquire
  (the §2.4.3 TSP experiment).

For multiprocessor nodes (the HS architecture), everything here is
already node-granularity: co-resident processors share the page table,
their writes merge into one per-node diff, and concurrent faults on
one page coalesce into a single fetch (§3.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.ablate import ALL_ON, AblationSpec
from repro.check.checker import DsmChecker, active_check_config
from repro.dsm.diff import estimate_wire_bytes
from repro.dsm.interval import Interval, IntervalLog
from repro.dsm.locks import make_dsm_locks
from repro.dsm.barriers import make_dsm_barrier
from repro.dsm.pagetable import NodePages
from repro.dsm.vectorclock import VectorClock
from repro.errors import ConfigurationError, ProtocolError
from repro.mem.layout import AddressSpace
from repro.net.atm import AtmNetwork
from repro.net.overhead import SoftwareOverhead
from repro.stats.counters import Counters, DataKind, MsgKind
from repro.sync import DEFAULT_SYNC, SwitchCombiner, SyncPolicy
from repro.trace.tracer import Category

DoneCallback = Callable[[int], None]


@dataclass(frozen=True)
class DsmConfig:
    """Static protocol configuration."""

    num_nodes: int
    page_bytes: int = 4096
    request_payload_bytes: int = 16
    local_grant_cycles: int = 40
    barrier_local_cycles: int = 100
    eager_locks: Optional[frozenset] = None   # None, or lock ids; "all" ok
    barrier_manager_node: int = 0
    #: Which lock/barrier algorithms implement acquire/release and
    #: barrier_arrive (see :mod:`repro.sync`); the default is the
    #: paper's token lock + centralized barrier.
    sync: SyncPolicy = DEFAULT_SYNC
    #: Mechanism on/off selection (see :mod:`repro.ablate`); the
    #: all-on default is byte-identical to the pre-ablation protocol.
    ablate: AblationSpec = ALL_ON

    def lock_is_eager(self, lock_id: int) -> bool:
        if self.eager_locks is None:
            return False
        if self.eager_locks == "all":
            return True
        return lock_id in self.eager_locks


@dataclass
class _FaultJob:
    node: int
    page: int
    waiters: List[DoneCallback] = field(default_factory=list)
    outstanding: int = 0
    apply_cycles: int = 0
    started: int = 0      # fault start time (for tracing)
    remote: bool = False  # needed remote diffs (for tracing)
    #: Creators with a diff response still owed; recovery strikes a
    #: dead creator from this set, and a straggler response from a
    #: struck creator must not double-decrement ``outstanding``.
    creators: Set[int] = field(default_factory=set)


class TreadMarksDsm:
    """One machine's software DSM layer."""

    def __init__(self, net: AtmNetwork, space: AddressSpace,
                 overhead: SoftwareOverhead, config: DsmConfig) -> None:
        if config.num_nodes != net.num_nodes:
            raise ConfigurationError(
                f"DSM configured for {config.num_nodes} nodes but network "
                f"has {net.num_nodes}")
        if config.page_bytes != space.geometry.page_bytes:
            raise ConfigurationError(
                f"DSM page size {config.page_bytes} != address-space page "
                f"size {space.geometry.page_bytes}")
        self.net = net
        self.engine = net.engine
        self.counters: Counters = net.counters
        self.space = space
        self.overhead = overhead
        self.config = config
        self.ablate = config.ablate
        n = config.num_nodes
        self.vcs = [VectorClock(n) for _ in range(n)]
        self.log = IntervalLog(n)
        self.pages = [NodePages(i, space.total_pages) for i in range(n)]
        self._grant_snapshots: Dict[Tuple[int, int], Deque[VectorClock]] = {}
        self._inflight: Dict[Tuple[int, int], _FaultJob] = {}
        #: Nodes declared failed by recovery; excluded from clock
        #: merges, eager pushes, and fault targets.
        self.dead: Set[int] = set()
        #: Mutable barrier-manager seat; starts at the configured node
        #: and moves to the lowest-id survivor if that node dies.
        self.barrier_manager = config.barrier_manager_node
        #: Optional hook called as ``hook(node, page)`` whenever a
        #: node's copy of a page is refreshed with remote data; the HS
        #: machine uses it to invalidate stale lines in node caches.
        self.page_refreshed_hook: Optional[Callable[[int, int], None]] = None

        sync = config.sync
        combiner = None
        if "combining" in (sync.lock, sync.barrier):
            # Window ≈ the handler time a message would have cost (the
            # burst the fabric can merge); merge stage ≈ one switch
            # transit.
            combiner = SwitchCombiner(
                net,
                window_cycles=overhead.recv_cost(0),
                combine_cycles=max(1, net.switch_latency))
        self.combiner = combiner
        self.locks = make_dsm_locks(
            sync.lock, net, n,
            grant_payload=self._grant_payload,
            on_granted=self._on_granted,
            request_payload_bytes=config.request_payload_bytes,
            local_grant_cycles=config.local_grant_cycles,
            combiner=combiner,
        )
        self.barrier = make_dsm_barrier(
            sync.barrier, net, n,
            manager_node=config.barrier_manager_node,
            arrive_payload=self._arrive_payload,
            depart_payload=self._depart_payload,
            on_all_arrived=self._merge_all_clocks,
            on_depart=self._on_depart,
            local_cycles=config.barrier_local_cycles,
            combiner=combiner,
            tree_radix=sync.tree_radix,
        )
        self._merged_vc: Optional[VectorClock] = None
        #: Online invariant checker (repro.check); None unless a check
        #: configuration is ambient, so the disabled path costs one
        #: ``is not None`` test per hooked event.
        cfg = active_check_config()
        self.checker: Optional[DsmChecker] = (
            DsmChecker(self, cfg) if cfg is not None else None)

    # ==================================================================
    # interval bookkeeping
    # ==================================================================
    def end_interval(self, node: int) -> Optional[Interval]:
        """Close the node's current interval if it dirtied any pages."""
        if self.config.num_nodes == 1:
            return None  # nobody to notify: no interval bookkeeping
        table = self.pages[node]
        if not table.has_dirty:
            return None
        dirty = table.take_dirty(self.config.page_bytes)
        vc = self.vcs[node]
        index = vc.tick(node)
        interval = Interval(node, index, vc.snapshot(), dirty)
        if self.checker is not None:
            self.checker.on_interval_closed(interval)
        self.log.append(interval)
        return interval

    # ==================================================================
    # lock grant consistency plumbing
    # ==================================================================
    def _grant_payload(self, src: int, dst: int) -> int:
        self.end_interval(src)
        snapshot = self.vcs[src].copy()
        key = (src, dst)
        self._grant_snapshots.setdefault(key, deque()).append(snapshot)
        return self._notice_payload(src, dst, snapshot)

    def _notice_payload(self, src: int, dst: int,
                        upto: VectorClock) -> int:
        """Consistency bytes the sync message ``src`` → ``dst``
        carries: the write notices up to ``upto`` that ``dst`` lacks,
        counted and sized — or, with write-notice piggybacking ablated
        off, zero: the notices then travel as one standalone
        ``WRITE_NOTICE`` message on the same edge, paying its own
        header and handler occupancy.  The notices still *apply* when
        the sync message is delivered (the omniscient-log
        simplification of DESIGN.md §4.4); the ablation models the
        transport cost of not piggybacking, not a weaker ordering."""
        notices, nbytes = self.log.notice_payload(self.vcs[dst], upto)
        self.counters.write_notices_sent += notices
        if self.ablate.piggyback or nbytes == 0 or src == dst:
            return nbytes
        self.net.send(src, dst, nbytes, kind=MsgKind.WRITE_NOTICE,
                      data_kind=DataKind.CONSISTENCY)
        return 0

    def _on_granted(self, dst: int, src: int) -> None:
        queue = self._grant_snapshots.get((src, dst))
        if not queue:
            raise ProtocolError(
                f"grant delivered from {src} to {dst} without a snapshot")
        snapshot = queue.popleft()
        self._apply_notices(dst, snapshot)
        if self.checker is not None:
            self.checker.on_lock_granted(dst, src, snapshot)

    def _apply_notices(self, dst: int, upto: VectorClock) -> None:
        apply_interval = self.pages[dst].apply_interval
        intervals = self.log.newer_than(self.vcs[dst], upto)
        invalidated = 0
        for interval in intervals:
            invalidated += apply_interval(interval)
        self.counters.pages_invalidated += invalidated
        if intervals and self.checker is not None:
            # One batched checker call per merge instead of one hook
            # call per (interval, page) write notice.
            self.checker.on_notices_applied(dst, intervals)
        self.vcs[dst].merge(upto)
        if intervals and not self.ablate.lazy_fetch:
            self._eager_fetch(dst, {page for interval in intervals
                                    for page in interval.pages})

    def _eager_fetch(self, dst: int, pages: Set[int]) -> None:
        """Lazy-fetch ablation: fault invalidated pages immediately.

        The paper's protocol waits for the next access fault to pull a
        page's diffs; with ``lazy_fetch`` off the node fetches every
        page the just-applied notices invalidated right at the sync
        point, overlapping the fetches with whatever it does next (the
        access that would have faulted finds the page valid or
        coalesces onto the in-flight fetch)."""
        for page in sorted(pages):
            if page not in self.pages[dst].pending:
                continue  # re-validated or already fetched
            if (dst, page) in self._inflight:
                continue  # a fetch is already in flight: coalescing
            self.counters.eager_fetches += 1
            self._fault(dst, page, lambda _t: None)

    # ==================================================================
    # barrier consistency plumbing
    # ==================================================================
    def _arrive_payload(self, node: int) -> int:
        return self._notice_payload(node, self.barrier_manager,
                                    self.vcs[node])

    def _merge_all_clocks(self) -> None:
        self.counters.barriers += 1
        merged = self.vcs[self.barrier_manager].copy()
        for i, vc in enumerate(self.vcs):
            if i in self.dead:
                continue
            merged.merge(vc)
        self._merged_vc = merged

    def _depart_payload(self, node: int) -> int:
        if self._merged_vc is None:
            raise ProtocolError("departure before all arrivals merged")
        return self._notice_payload(self.barrier_manager, node,
                                    self._merged_vc)

    def _on_depart(self, node: int) -> None:
        if self._merged_vc is None:
            raise ProtocolError("departure before all arrivals merged")
        self._apply_notices(node, self._merged_vc)
        if self.checker is not None:
            self.checker.on_barrier_depart(node, self._merged_vc)

    # ==================================================================
    # public node-level operations
    # ==================================================================
    def acquire(self, lock_id: int, node: int, proc: int,
                done: Callable[[int, bool], None]) -> None:
        """Acquire a lock for ``proc`` on ``node``."""
        self.counters.lock_acquires += 1
        self.locks.acquire(lock_id, node, proc, done)

    def release(self, lock_id: int, node: int, proc: int,
                done: DoneCallback) -> None:
        """Release a lock, closing the node's interval first."""
        interval = self.end_interval(node)
        if interval is not None:
            if self.config.lock_is_eager(lock_id):
                self._eager_push(node, interval)
            elif not self.ablate.lazy_release:
                # Lazy-release ablation: §2.4.3's eager release
                # applied to every lock, not just ``eager_locks``.
                self.counters.eager_releases += 1
                self._eager_push(node, interval)
        self.locks.release(lock_id, node, proc, done)

    def barrier_arrive(self, barrier_id: int, node: int,
                       done: DoneCallback) -> None:
        """Node-level barrier arrival (machine aggregates processors)."""
        self.end_interval(node)
        self.barrier.arrive(barrier_id, node, done)

    # ------------------------------------------------------------------
    def read(self, node: int, addr: int, nbytes: int,
             done: DoneCallback) -> None:
        """Validate all pages under ``[addr, addr+nbytes)`` for reading."""
        if self.config.num_nodes == 1:
            self.engine.schedule(0, done, self.engine.now)
            return
        first, last = self.space.geometry.page_span(addr, nbytes)
        faulting = self.pages[node].invalid_in(first, last)
        if self.checker is not None:
            done = self.checker.wrap_read_done(node, first, last, done)
        self._resolve_faults(node, list(faulting), done)

    def write(self, node: int, addr: int, nbytes: int, changed_bytes: int,
              done: DoneCallback) -> None:
        """Validate + twin pages under a write of ``changed_bytes``."""
        if self.config.num_nodes == 1:
            # With a single node there is never a reader elsewhere:
            # TreadMarks does no write trapping, twinning, or diffing.
            self.engine.schedule(0, done, self.engine.now)
            return
        first, last = self.space.geometry.page_span(addr, nbytes)
        faulting = self.pages[node].invalid_in(first, last)

        def after_faults(time: int) -> None:
            cost = self._record_writes(node, addr, nbytes, changed_bytes,
                                       first, last)
            tracer = self.engine.tracer
            if tracer.enabled and cost:
                base = max(time, self.engine.now)
                tracer.complete(node, Category.PROTOCOL, "twin",
                                base, base + cost,
                                track=f"node{node}.dsm")
            self.engine.schedule_at(max(time, self.engine.now) + cost,
                                    done, time + cost)

        self._resolve_faults(node, list(faulting), after_faults)

    def _record_writes(self, node: int, addr: int, nbytes: int,
                       changed_bytes: int, first: int, last: int) -> int:
        """Distribute changed bytes over pages; twin on first write."""
        table = self.pages[node]
        page_bytes = self.config.page_bytes
        cost = 0
        for page in range(first, last):
            if self.checker is not None:
                self.checker.on_write(node, page)
            page_lo = page * page_bytes
            page_hi = page_lo + page_bytes
            overlap = min(addr + nbytes, page_hi) - max(addr, page_lo)
            if self.ablate.diffs:
                share = int(round(changed_bytes * overlap / nbytes))
            else:
                share = page_bytes  # whole-page transfer on fault
            if table.record_write(page, share):
                if self.ablate.twins:
                    cost += self.overhead.twin_cost(page_bytes)
                    self.counters.twins_created += 1
                # Twins off: the first write still opens the page's
                # dirty entry (interval bookkeeping), but no twin copy
                # is made — faulting nodes will receive whole pages.
        return cost

    # ==================================================================
    # fault handling
    # ==================================================================
    def _resolve_faults(self, node: int, faulting: List[int],
                        done: DoneCallback) -> None:
        """Fault pages in sequentially (as touch order would)."""
        if not faulting:
            self.engine.schedule(0, done, self.engine.now)
            return
        page = faulting[0]
        rest = faulting[1:]
        self._fault(node, page,
                    lambda _t: self._resolve_faults(node, rest, done))

    def _fault(self, node: int, page: int, done: DoneCallback) -> None:
        key = (node, page)
        job = self._inflight.get(key)
        if job is not None:
            # Another processor of this node is already fetching the
            # page: coalesce (the HS merged-fault behaviour, §3.1).
            job.waiters.append(done)
            return

        self.counters.page_faults += 1
        table = self.pages[node]
        if table.is_valid(page):
            self.engine.schedule(0, done, self.engine.now)
            return

        pend = table.begin_fault(page)
        if self.checker is not None:
            self.checker.on_fault_begin(node, page, pend)
        job = _FaultJob(node, page, waiters=[done],
                        started=self.engine.now)
        self._inflight[key] = job
        fault_cost = self.overhead.fault_cost()
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant(node, Category.MISS, "page_fault",
                           self.engine.now, track=f"node{node}.dsm",
                           page=page)

        # Per live creator, in first-notice order: the wire bytes to
        # fetch and the intervals they come from.
        creators: Dict[int, int] = {}
        indices: Dict[int, List[int]] = {}
        for creator, index, wire_bytes in pend:
            if creator != node and creator not in self.dead:
                creators[creator] = creators.get(creator, 0) + wire_bytes
                indices.setdefault(creator, []).append(index)
        if not self.ablate.twins:
            # No twins, no diffs to cut: each creator ships its whole
            # current copy of the page exactly once, however many of
            # its intervals the fault covers.
            creators = {c: self.config.page_bytes for c in creators}
        if not creators:
            # Invalidated only by own stale state; revalidate locally.
            self._finish_fault(job, self.engine.now + fault_cost)
            return

        self.counters.remote_page_faults += 1
        job.remote = True
        job.outstanding = len(creators)
        job.creators = set(creators)
        request_time = self.engine.now + fault_cost
        for creator, wire_bytes in creators.items():
            self.net.send(
                node, creator, self.config.request_payload_bytes,
                kind=MsgKind.DIFF_REQUEST, data_kind=DataKind.CONSISTENCY,
                now=request_time,
                on_delivered=lambda _t, c=creator, w=wire_bytes:
                self._serve_diffs(job, c, w, indices[c]))

    def _serve_diffs(self, job: _FaultJob, creator: int, wire_bytes: int,
                     indices: List[int]) -> None:
        """At the creator: lazily build the diffs, then respond.

        The response is a list of wire sizes sent back to back; the
        last message completes the fault with the *full* wire total,
        so the receiver's apply cost does not depend on the split.
        """
        create_cost = 0
        wires = [wire_bytes]
        if not self.ablate.twins:
            # Twin ablation: with no twin there is nothing to diff
            # against, so the creator ships its whole current copy of
            # the page in one message (``wire_bytes`` was overridden
            # to ``page_bytes`` at fault time).  No diff-creation cost
            # and no ``on_diff_created`` events — the page copy is not
            # a diff.
            self.counters.pages_shipped_whole += 1
        else:
            for index in indices:
                interval = self.log.get(creator, index)
                if interval.diff_pending(job.page):
                    if self.checker is not None:
                        self.checker.on_diff_created(interval, job.page)
                    interval.diffs_made.add(job.page)
                    create_cost += self.overhead.diff_create_cost(
                        self.config.page_bytes)
                    self.counters.diffs_created += 1
                    self.counters.diff_bytes_created += (
                        interval.pages[job.page])
                    self.pages[creator].consume_twin(job.page)
            if len(indices) > 1 and self.ablate.diff_merge:
                self.counters.diffs_merged += len(indices) - 1
            elif len(indices) > 1:
                # Diff-merge ablation: one response message per
                # covered interval instead of one merged response.
                # The per-interval wires sum to the merged total
                # (``pend.by_creator`` accumulates the same per-notice
                # estimates), so the ablation pays extra headers and
                # handler occupancy, not extra diff bytes.
                wires = [estimate_wire_bytes(
                    self.log.get(creator, index).pages[job.page])
                    for index in indices]
        _start, ready = self.net.handlers[creator].acquire(
            self.engine.now, create_cost)
        tracer = self.engine.tracer
        if tracer.enabled and ready > _start:
            tracer.complete(creator, Category.PROTOCOL, "diff_create",
                            _start, ready, track=f"node{creator}.dsm",
                            page=job.page, for_node=job.node)

        def arrived(time: int) -> None:
            self._diff_arrived(job, creator, wire_bytes, time)

        last = len(wires) - 1
        for i, wire in enumerate(wires):
            self.net.send(creator, job.node, wire,
                          kind=MsgKind.DIFF_RESPONSE,
                          data_kind=DataKind.MISS, now=ready,
                          on_delivered=arrived if i == last else None)

    def _diff_arrived(self, job: _FaultJob, creator: int,
                      wire_bytes: int, time: int) -> None:
        if creator not in job.creators:
            # Straggler: recovery already struck this creator from the
            # job (it was declared dead with the response in flight).
            # The decrement happened then; doing it again would let the
            # fault finish before a still-owed survivor responds.
            return
        job.creators.discard(creator)
        apply_cost = self.overhead.diff_apply_cost(wire_bytes)
        job.apply_cycles += apply_cost
        tracer = self.engine.tracer
        if tracer.enabled and apply_cost:
            tracer.complete(job.node, Category.PROTOCOL, "diff_apply",
                            time, time + apply_cost,
                            track=f"node{job.node}.dsm", page=job.page)
        job.outstanding -= 1
        if job.outstanding == 0:
            self._finish_fault(job, time + job.apply_cycles)

    def _finish_fault(self, job: _FaultJob, at: int) -> None:
        if self.checker is not None:
            self.checker.on_fault_done(job)
        tracer = self.engine.tracer
        if tracer.enabled and at > job.started:
            tracer.complete(job.node, Category.MISS,
                            "remote_fault" if job.remote else "local_fault",
                            job.started, at,
                            track=f"node{job.node}.dsm", page=job.page)
        table = self.pages[job.node]
        del self._inflight[(job.node, job.page)]
        if job.page in table.pending:
            # New write notices landed while this fault was in flight:
            # a co-resident processor synchronized (multiprocessor
            # nodes only — a uniprocessor node applies notices only
            # during its own sync operations).  Revalidating now would
            # leave the page missing those intervals' diffs and serve
            # stale data.  On a real SMP node the notice application
            # re-protects the page and the retried access faults
            # again, so model exactly that: fault once more, and only
            # then release the waiters.
            waiters = list(job.waiters)

            def resume_all(time: int) -> None:
                for waiter in waiters:
                    waiter(time)

            self._fault(job.node, job.page, resume_all)
            return
        table.revalidate(job.page)
        if self.page_refreshed_hook is not None:
            self.page_refreshed_hook(job.node, job.page)
        for waiter in job.waiters:
            self.engine.schedule_at(max(at, self.engine.now), waiter, at)

    # ==================================================================
    # eager release (§2.4.3)
    # ==================================================================
    def _eager_push(self, node: int, interval: Interval) -> None:
        """Push this interval's diffs to every node with a valid copy."""
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant(node, Category.PROTOCOL, "eager_push",
                           self.engine.now, track=f"node{node}.dsm",
                           pages=len(interval.pages))
        wires: Dict[int, int] = {}
        for page, changed in interval.pages.items():
            if self.ablate.twins:
                wires[page] = estimate_wire_bytes(changed)
                if self.checker is not None:
                    self.checker.on_diff_created(interval, page, eager=True)
                interval.diffs_made.add(page)
                self.counters.diffs_created += 1
                self.counters.diff_bytes_created += changed
                self.pages[node].consume_twin(page)
            else:
                # Twin ablation: no twin, no diff — push the whole
                # current page copy to each holder instead.
                wires[page] = self.config.page_bytes
        for other in range(self.config.num_nodes):
            if other == node or other in self.dead:
                continue
            held = [page for page in interval.pages
                    if self.pages[other].is_valid(page)]
            if not held:
                continue
            # The receiver's copies are updated in place: it will not
            # fault on these pages for this interval.  Only when the
            # push covers *every* page the interval wrote may the
            # interval be marked seen — a partial receiver must still
            # apply the interval's write notices at its next sync, or
            # a later read of an unheld page would be stale.
            covers_all = len(held) == len(interval.pages)
            for page in held:
                if self.checker is not None:
                    self.checker.on_eager_push(other, interval, page)
                if not self.ablate.twins:
                    self.counters.pages_shipped_whole += 1
                if covers_all:
                    on_delivered = (lambda _t, o=other,
                                    iv=interval: self._eager_applied(o, iv))
                else:
                    on_delivered = (lambda _t, o=other,
                                    pg=page: self._eager_refreshed(o, pg))
                self.net.send(
                    node, other, wires[page],
                    kind=MsgKind.DIFF_RESPONSE, data_kind=DataKind.MISS,
                    on_delivered=on_delivered)

    def _eager_applied(self, other: int, interval: Interval) -> None:
        vc = self.vcs[other]
        if vc[interval.node] == interval.index - 1:
            vc[interval.node] = interval.index
        if self.page_refreshed_hook is not None:
            for page in interval.pages:
                self.page_refreshed_hook(other, page)

    def _eager_refreshed(self, other: int, page: int) -> None:
        if self.page_refreshed_hook is not None:
            self.page_refreshed_hook(other, page)

    # ==================================================================
    # crash-stop recovery (repro.recover)
    # ==================================================================
    def fail_node(self, node: int, now: int) -> None:
        """Repair the protocol after ``node`` is declared dead.

        Invoked (once per node) by the
        :class:`~repro.recover.RecoveryManager` at declaration time.
        Repair order matters: clocks are sealed first so no later step
        can re-introduce a dependency on the dead node's intervals,
        then lock records are regenerated, pages re-homed or written
        off, and finally barrier membership shrinks to the survivors.
        """
        n = self.config.num_nodes
        self.dead.add(node)
        alive = [i for i in range(n) if i not in self.dead]
        tracer = self.engine.tracer

        # 1. Seal vector clocks: every survivor marks the dead node's
        # closed intervals as seen.  Notices for those intervals will
        # never be applied again — updates the dead node had not yet
        # made visible through a sync operation are lost, exactly the
        # crash-stop guarantee LRC can offer (nothing weaker than what
        # an acquirer had already been granted).
        final_index = self.vcs[node][node]
        for x in alive:
            if self.vcs[x][node] < final_index:
                self.vcs[x][node] = final_index

        # 2. Regenerate lock state (token relocation, queue repair).
        self.counters.locks_regenerated += self.locks.remove_node(
            node, now)

        # 3. Strip the dead creator from every survivor's pending-diff
        # sets; pages left with no other source are re-homed from a
        # surviving valid copy, or written off as lost.
        emptied: List[Tuple[int, int]] = []
        for x in alive:
            table = self.pages[x]
            for page, pend in list(table.pending.items()):
                kept = [record for record in pend if record[0] != node]
                if len(kept) == len(pend):
                    continue
                if kept:
                    table.pending[page] = kept
                else:
                    del table.pending[page]
                    emptied.append((x, page))
        for x, page in emptied:
            source = next((y for y in alive
                           if y != x and self.pages[y].is_valid(page)),
                          None)
            self.pages[x].revalidate(page)
            if source is None:
                # The only reconstruction source died with the node.
                self.counters.pages_lost += 1
                if tracer.enabled:
                    tracer.instant(x, Category.RECOVERY, "page_lost",
                                   now, track=f"node{x}.dsm",
                                   page=page, creator=node)
                continue
            self.counters.pages_rehomed += 1
            self.net.send(
                x, source, self.config.request_payload_bytes,
                kind=MsgKind.PAGE_REQUEST,
                data_kind=DataKind.CONSISTENCY, now=now,
                on_delivered=lambda t, s=source, d=x, p=page:
                self.net.send(s, d, self.config.page_bytes,
                              kind=MsgKind.PAGE_RESPONSE,
                              data_kind=DataKind.MISS, now=t,
                              on_delivered=lambda t2, d2=d, p2=p:
                              self._rehomed(d2, p2)))

        # 4. In-flight fault jobs: drop the dead node's own, strike it
        # from survivors' outstanding sets.
        for key in [k for k in self._inflight if k[0] == node]:
            del self._inflight[key]
        for job in list(self._inflight.values()):
            if node in job.creators:
                job.creators.discard(node)
                job.outstanding -= 1
                if job.outstanding == 0:
                    self._finish_fault(job, now)

        # 5. Shrink barrier membership n → n−1 (and move the manager
        # seat off the dead node).
        if self.barrier_manager == node and alive:
            self.barrier_manager = min(alive)
        self.counters.barrier_reconfigs += self.barrier.remove_node(
            node, now)

        if self.checker is not None:
            self.checker.on_node_failed(node)

    def _rehomed(self, node: int, page: int) -> None:
        """A re-homed page copy landed in node memory."""
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant(node, Category.RECOVERY, "page_rehomed",
                           self.engine.now, track=f"node{node}.dsm",
                           page=page)
        if self.page_refreshed_hook is not None:
            self.page_refreshed_hook(node, page)
