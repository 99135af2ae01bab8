"""Online memory-model invariant checkers.

Enablement mirrors ``repro.trace``: disabled runs pay exactly one
``is not None`` test per hook site and build nothing.  Enable with::

    from repro.check import checking

    with checking():                # online invariants only
        machine.run(app, nprocs=8)
    with checking(history=True):    # + LRC/SC history verification
        machine.run(app, nprocs=8)

or ambiently via ``REPRO_CHECK=1`` / ``REPRO_CHECK=history`` in the
environment — the context manager sets the variable too, so worker
processes spawned by the parallel runner inherit the setting.

The protocol subsystems install their own checker in their
constructor when a configuration is active (``TreadMarksDsm`` →
:class:`DsmChecker`, ``SnoopingSystem`` → :class:`SnoopChecker`,
``DirectorySystem`` → :class:`DirectoryChecker`), so every machine
model — including the hybrid, which nests snooping systems inside DSM
nodes — is covered without per-machine wiring.

Checkers observe; they never change protocol behaviour or timing.  A
violated invariant raises :class:`~repro.errors.ConsistencyViolation`
carrying the offending :class:`~repro.check.events.ProtocolEvent`,
the simulated time, and a bounded trail of preceding events.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from repro.check.events import ProtocolEvent, make_event
from repro.check.history import verify_lrc_history
from repro.errors import ConsistencyViolation
from repro.mem.directcache import EXCLUSIVE, INVALID

#: Environment variable carrying the ambient check setting across
#: process boundaries ("" / "0" = off, "1" = online, "history" = full).
ENV_VAR = "REPRO_CHECK"


@dataclass(frozen=True)
class CheckConfig:
    """What to check: online invariants always; history optionally."""

    history: bool = False
    trail: int = 64

    def label(self) -> str:
        return "history" if self.history else "on"


_STACK: List[CheckConfig] = []


def active_check_config() -> Optional[CheckConfig]:
    """The ambient configuration, or ``None`` when checking is off.

    The innermost :func:`checking` context wins; otherwise the
    ``REPRO_CHECK`` environment variable is consulted, which is how
    parallel-runner worker processes and CI matrix legs opt in.
    """
    if _STACK:
        return _STACK[-1]
    env = os.environ.get(ENV_VAR, "").strip().lower()
    if env in ("", "0", "off", "false", "no"):
        return None
    return CheckConfig(history=(env == "history"))


@contextmanager
def checking(history: bool = False,
             trail: int = 64) -> Iterator[CheckConfig]:
    """Arm the checkers for every run started inside the context."""
    cfg = CheckConfig(history=history, trail=trail)
    _STACK.append(cfg)
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = "history" if history else "1"
    try:
        yield cfg
    finally:
        _STACK.pop()
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous


class BaseChecker:
    """Shared event-trail plumbing for the three checkers.

    Trail entries are buffered as raw ``(kind, time, node, page,
    details)`` tuples; they are materialised into
    :class:`~repro.check.events.ProtocolEvent` records only when a
    violation is actually raised.  A hook on the hot path therefore
    pays a tuple pack and a deque append, not a dataclass build plus
    detail sorting per observed action.
    """

    def __init__(self, config: CheckConfig) -> None:
        self.config = config
        self.trail: deque = deque(maxlen=config.trail)

    @property
    def _now(self) -> float:  # pragma: no cover - overridden
        return 0.0

    def _emit(self, kind: str, node: int, page: Optional[int] = None,
              **details: Any) -> Tuple[Any, ...]:
        record = (kind, self._now, node, page, details)
        self.trail.append(record)
        return record

    @staticmethod
    def _materialize(record: Any) -> ProtocolEvent:
        if isinstance(record, ProtocolEvent):
            return record
        kind, time, node, page, details = record
        return make_event(kind, time, node, page, **details)

    def _fail(self, reason: str, event: Any) -> None:
        raise ConsistencyViolation(
            reason, event=self._materialize(event), now=self._now,
            trail=tuple(self._materialize(r) for r in self.trail))


class DsmChecker(BaseChecker):
    """LRC invariants for :class:`repro.dsm.protocol.TreadMarksDsm`.

    Online checks (every hooked event):

    * interval indices per node are sequential and agree with the
      creator's own vector-clock entry; clocks never regress;
    * applying a write notice leaves the page copy invalid;
    * an acquirer's clock dominates the releaser's snapshot after a
      grant; a node's clock dominates the barrier-merged clock at
      departure;
    * reads/writes only complete on valid pages — an invalid page is
      tolerated only when an unconsumed write notice explains it (a
      co-resident processor on a multiprocessor node may apply
      notices between a peer's fault resolution and its access);
    * diffs cover the twin: a diff is cut only for pages inside the
      interval's write set, at most once per (interval, page), and
      never claims more changed bytes than a page holds;
    * a fault only applies diffs from intervals inside the faulting
      node's happens-before past, and completes only after every
      outstanding diff response arrived.

    With ``history=True`` the checker additionally records intervals,
    reads, and diff applications and replays them post-run through
    :func:`repro.check.history.verify_lrc_history`.
    """

    def __init__(self, dsm: Any, config: CheckConfig) -> None:
        super().__init__(config)
        self.dsm = dsm
        n = dsm.config.num_nodes
        self._closed_index = [0] * n
        self._closed_vc: List[Optional[Tuple[int, ...]]] = [None] * n
        self._diffs_created: set = set()
        self._fault_pending: dict = {}
        self._failed_nodes: set = set()
        self.history: Optional[list] = [] if config.history else None
        self.history_checks = 0

    @property
    def _now(self) -> float:
        return self.dsm.engine.now

    # -- intervals and clocks ------------------------------------------
    def on_interval_closed(self, interval: Any) -> None:
        node = interval.node
        event = self._emit("interval_closed", node,
                           index=interval.index,
                           pages=tuple(sorted(interval.pages)))
        if interval.index != self._closed_index[node] + 1:
            self._fail(
                f"interval indices not sequential: node {node} closed "
                f"#{interval.index} after #{self._closed_index[node]}",
                event)
        self._closed_index[node] = interval.index
        vc = interval.vc
        if vc[node] != interval.index:
            self._fail("interval index disagrees with the creator's "
                       "vector-clock entry", event)
        previous = self._closed_vc[node]
        if previous is not None and any(
                a < b for a, b in zip(vc, previous)):
            self._fail("vector clock regressed between consecutive "
                       "intervals", event)
        self._closed_vc[node] = vc
        if not interval.pages:
            self._fail("interval closed with an empty write set", event)
        if self.history is not None:
            self.history.append(("interval", node, interval.index,
                                 tuple(interval.pages), vc))

    def on_notice_applied(self, dst: int, interval: Any,
                          page: int) -> None:
        event = self._emit("notice_applied", dst, page,
                           creator=interval.node, index=interval.index)
        if interval.node == dst:
            self._fail("node applied a write notice from its own "
                       "interval", event)
        if page not in interval.pages:
            self._fail("write notice names a page outside the "
                       "interval's write set", event)
        if self.dsm.pages[dst].valid[page]:
            self._fail("write notice applied but the page copy stayed "
                       "valid (missed invalidation)", event)

    def on_notices_applied(self, dst: int,
                           intervals: List[Any]) -> None:
        """Batched form of :meth:`on_notice_applied`.

        ``_apply_notices`` applies every write notice of a batch of
        intervals and then reports the whole batch here at once.  The
        protocol iterates each interval's own write set, so the
        page-membership test of the unbatched hook is vacuous on this
        path; the remaining invariants — no self notices, every
        applied page ends invalid — are checked with the loop
        constants hoisted.  The trail gets one summarizing record per
        interval instead of one per page.
        """
        valid = self.dsm.pages[dst].valid
        now = self.dsm.engine.now
        trail = self.trail
        for interval in intervals:
            creator = interval.node
            index = interval.index
            pages = interval.pages
            record = ("notices_applied", now, dst, None,
                      {"creator": creator, "index": index,
                       "pages": len(pages)})
            trail.append(record)
            if creator == dst:
                self._fail("node applied a write notice from its own "
                           "interval", record)
            for page in pages:
                if valid[page]:
                    self._fail(
                        "write notice applied but the page copy "
                        "stayed valid (missed invalidation)",
                        ("notice_applied", now, dst, page,
                         {"creator": creator, "index": index}))

    def on_lock_granted(self, dst: int, src: int,
                        snapshot: Any) -> None:
        event = self._emit("lock_granted", dst, src=src)
        if not self.dsm.vcs[dst].dominates(snapshot):
            self._fail("acquirer's clock does not dominate the "
                       "releaser's snapshot after grant", event)

    def on_barrier_depart(self, node: int, merged: Any) -> None:
        event = self._emit("barrier_depart", node)
        if not self.dsm.vcs[node].dominates(merged):
            self._fail("clock at barrier departure misses the merged "
                       "clock", event)

    # -- accesses ------------------------------------------------------
    def on_write(self, node: int, page: int) -> None:
        table = self.dsm.pages[node]
        if not table.valid[page] and page not in table.pending:
            self._fail(
                "write recorded on an invalid page with no pending "
                "write notice to explain it",
                self._emit("write", node, page))

    def on_read_done(self, node: int, first: int, last: int) -> None:
        table = self.dsm.pages[node]
        for page in range(first, last):
            if not table.valid[page] and page not in table.pending:
                self._fail(
                    "read completed on an invalid page with no "
                    "pending write notice to explain it",
                    self._emit("read_done", node, page))
        if self.history is not None:
            self.history.append(
                ("read", node, first, last,
                 self.dsm.vcs[node].snapshot()))

    def wrap_read_done(self, node: int, first: int, last: int,
                       done: Any) -> Any:
        def wrapped(*args: Any, **kwargs: Any) -> None:
            self.on_read_done(node, first, last)
            done(*args, **kwargs)
        return wrapped

    # -- faults and diffs ----------------------------------------------
    def on_fault_begin(self, node: int, page: int, pend: Any) -> None:
        intervals = tuple((creator, index) for creator, index, _ in pend)
        event = self._emit("fault_begin", node, page, intervals=intervals)
        vc = self.dsm.vcs[node]
        for creator, index in intervals:
            if index > vc[creator]:
                self._fail(
                    f"fault would apply diff {creator}:{index} from "
                    "outside the node's happens-before past", event)
            interval = self.dsm.log.get(creator, index)
            if page not in interval.pages:
                self._fail("pending notice names a page the interval "
                           "never wrote", event)
        self._fault_pending[(node, page)] = intervals

    def on_fault_done(self, job: Any) -> None:
        event = self._emit("fault_done", job.node, job.page,
                           outstanding=job.outstanding,
                           remote=job.remote)
        if job.outstanding != 0:
            self._fail(
                f"fault completed with {job.outstanding} diff "
                "responses still outstanding (skipped diff "
                "application)", event)
        intervals = self._fault_pending.pop((job.node, job.page), ())
        if self.history is not None:
            self.history.append(("apply", job.node, job.page,
                                 intervals))

    def on_diff_created(self, interval: Any, page: int,
                        eager: bool = False) -> None:
        event = self._emit("diff_created", interval.node, page,
                           index=interval.index, eager=eager)
        if page not in interval.pages:
            self._fail("diff cut for a page outside the interval's "
                       "write set (diff does not cover the twin)",
                       event)
        key = (interval.node, interval.index, page)
        if key in self._diffs_created:
            self._fail("diff cut twice for the same (interval, page)",
                       event)
        self._diffs_created.add(key)
        if interval.pages[page] > self.dsm.config.page_bytes:
            self._fail("interval claims more changed bytes than a "
                       "page holds", event)

    def on_eager_push(self, other: int, interval: Any,
                      page: int) -> None:
        if self.history is not None:
            self.history.append(("eager", other, page,
                                 (interval.node, interval.index)))

    # -- crash-stop recovery -------------------------------------------
    def on_node_failed(self, node: int) -> None:
        """Recovery declared ``node`` dead and repaired the stack.

        The online invariants keep running on the survivors, but the
        run is marked degraded: the dead node's in-flight faults will
        never report ``fault_done``, and post-run history replay is
        skipped — crash-stop recovery deliberately loses the dead
        node's unpropagated intervals, which strict LRC replay would
        (correctly, but unhelpfully) flag.
        """
        self._emit("node_failed", node)
        self._failed_nodes.add(node)
        for key in [k for k in self._fault_pending if k[0] == node]:
            del self._fault_pending[key]

    # -- end of run ----------------------------------------------------
    def finish(self) -> None:
        if self.history is not None and not self._failed_nodes:
            self.history_checks = verify_lrc_history(
                self.history, self._history_fail)

    def _history_fail(self, reason: str, event: Any = None) -> None:
        raise ConsistencyViolation(
            reason, event=event, now=self._now,
            trail=tuple(self._materialize(r) for r in self.trail))


class SnoopChecker(BaseChecker):
    """SWMR for :class:`repro.hw.snoop.SnoopingSystem`.

    Bus operations pass the checker the set of lines they touched
    (miss/ownership sets); assuming the invariant held before the
    operation, only those lines can newly violate SWMR — a line held
    EXCLUSIVE or MODIFIED anywhere must be resident in exactly one
    cache — so the inline check probes just them across every cache.
    A full sweep of all resident lines (vectorized: sort + neighbour
    compare) still runs every :data:`SWEEP_INTERVAL` checked
    operations and at the end of the run, as a backstop for
    bookkeeping the touched sets don't cover (e.g. evictions).
    """

    #: Checked operations between full cross-cache sweeps.
    SWEEP_INTERVAL = 64

    def __init__(self, system: Any, config: CheckConfig) -> None:
        super().__init__(config)
        self.system = system
        self._last_now = 0.0
        self._ops_checked = 0

    @property
    def _now(self) -> float:
        return self._last_now

    def after_op(self, op: str, proc: int, now: float,
                 lines: Optional[np.ndarray] = None) -> None:
        self._last_now = now
        self._ops_checked += 1
        if lines is not None and self._ops_checked % self.SWEEP_INTERVAL:
            if lines.size == 0 or self._lines_clean(lines):
                return
            # Fall through: the sweep rediscovers the violation and
            # raises with exact holder diagnostics.
        self._sweep(op, proc)

    def _lines_clean(self, lines: np.ndarray) -> bool:
        present = np.zeros(lines.shape, dtype=np.int64)
        owned = np.zeros(lines.shape, dtype=np.int64)
        for cache in self.system.caches:
            sets = lines % cache.num_sets
            states = cache.states[sets]
            hit = (cache.tags[sets] == lines) & (states != INVALID)
            present += hit
            owned += hit & (states >= EXCLUSIVE)
        return not ((owned > 0) & (present > 1)).any()

    def _sweep(self, op: str, proc: int) -> None:
        caches = self.system.caches
        lines_parts, owned_parts, who_parts = [], [], []
        for q, cache in enumerate(caches):
            resident = cache.states != INVALID
            tags = cache.tags[resident]
            lines_parts.append(tags)
            owned_parts.append(cache.states[resident] >= EXCLUSIVE)
            who_parts.append(np.full(tags.shape, q, dtype=np.int64))
        lines = np.concatenate(lines_parts)
        if lines.size < 2:
            return
        owned = np.concatenate(owned_parts)
        who = np.concatenate(who_parts)
        order = np.argsort(lines, kind="stable")
        lines, owned, who = lines[order], owned[order], who[order]
        same = lines[1:] == lines[:-1]
        shared_any = np.zeros(lines.shape, dtype=bool)
        shared_any[1:] |= same
        shared_any[:-1] |= same
        bad = shared_any & owned
        if bad.any():
            i = int(np.argmax(bad))
            line = int(lines[i])
            holders = tuple(
                (int(q), cache.state_of(line))
                for q, cache in enumerate(caches)
                if cache.state_of(line) != INVALID)
            event = self._emit("swmr_check", proc, details_op=op,
                               line=line, holders=holders)
            self._fail(
                f"SWMR violated: line {line} is EXCLUSIVE/MODIFIED in "
                f"cache {int(who[i])} while another cache holds a "
                "copy", event)

    def finish(self) -> None:
        self._sweep("final_sweep", -1)


class DirectoryChecker(BaseChecker):
    """Directory/cache agreement + SWMR for ``DirectorySystem``.

    Invariants: owned lines register exactly their owner as sharer; a
    line owned by cache *p* is resident nowhere else; every resident
    copy is registered in the sharer bitmap; and EXCLUSIVE/MODIFIED
    copies coincide with directory ownership.  Like the snoop
    checker, accesses hand over the lines they touched and only those
    are probed inline; a full sweep of every cache and the whole
    directory runs every :data:`SWEEP_INTERVAL` checked operations
    and at the end of the run.
    """

    #: Checked operations between full directory/cache sweeps.
    SWEEP_INTERVAL = 64

    def __init__(self, system: Any, config: CheckConfig) -> None:
        super().__init__(config)
        self.system = system
        self._last_now = 0.0
        self._ops_checked = 0

    @property
    def _now(self) -> float:
        return self._last_now

    def after_op(self, op: str, proc: int, now: float,
                 lines: Optional[np.ndarray] = None) -> None:
        self._last_now = now
        self._ops_checked += 1
        if lines is not None and self._ops_checked % self.SWEEP_INTERVAL:
            if lines.size == 0 or self._lines_clean(lines):
                return
            # Fall through: the sweep rediscovers the violation and
            # raises with exact per-line diagnostics.
        self._sweep(op, proc)

    def _lines_clean(self, lines: np.ndarray) -> bool:
        system = self.system
        owner, sharers = system.owner, system.sharers
        own = owner[lines]
        owned = own >= 0
        if owned.any():
            bits = np.uint64(1) << own[owned].astype(np.uint64)
            if (sharers[lines[owned]] != bits).any():
                return False
        one = np.uint64(1)
        registered = sharers[lines]
        for q, cache in enumerate(system.caches):
            sets = lines % cache.num_sets
            states = cache.states[sets]
            resident = (cache.tags[sets] == lines) & (states != INVALID)
            if not resident.any():
                continue
            if (resident & owned & (own != q)).any():
                return False
            if (resident &
                    (((registered >> np.uint64(q)) & one) == 0)).any():
                return False
            if (resident & (states >= EXCLUSIVE) & (own != q)).any():
                return False
        return True

    def _sweep(self, op: str, proc: int) -> None:
        system = self.system
        owner, sharers = system.owner, system.sharers
        owned = owner >= 0
        if owned.any():
            bits = np.uint64(1) << owner[owned].astype(np.uint64)
            mismatched = sharers[owned] != bits
            if mismatched.any():
                line = int(np.flatnonzero(owned)[np.argmax(mismatched)])
                event = self._emit("directory_check", proc,
                                   details_op=op, line=line,
                                   owner=int(owner[line]),
                                   sharers=int(sharers[line]))
                self._fail(
                    f"directory: owned line {line} has sharers "
                    "besides its owner", event)
        one = np.uint64(1)
        for q, cache in enumerate(system.caches):
            resident = cache.states != INVALID
            lines = cache.tags[resident]
            if lines.size == 0:
                continue
            states = cache.states[resident]
            line_owner = owner[lines]
            foreign = (line_owner >= 0) & (line_owner != q)
            if foreign.any():
                line = int(lines[np.argmax(foreign)])
                event = self._emit("directory_check", q,
                                   details_op=op, line=line,
                                   owner=int(owner[line]))
                self._fail(
                    f"SWMR violated: line {line} is owned by cache "
                    f"{int(owner[line])} but resident in cache {q}",
                    event)
            unregistered = (sharers[lines] >> np.uint64(q)) & one == 0
            if unregistered.any():
                line = int(lines[np.argmax(unregistered)])
                event = self._emit("directory_check", q,
                                   details_op=op, line=line)
                self._fail(
                    f"directory: line {line} resident in cache {q} "
                    "but not registered in the sharer set", event)
            unowned_dirty = (states >= EXCLUSIVE) & (line_owner != q)
            if unowned_dirty.any():
                line = int(lines[np.argmax(unowned_dirty)])
                event = self._emit("directory_check", q,
                                   details_op=op, line=line,
                                   owner=int(owner[line]))
                self._fail(
                    f"cache {q} holds line {line} EXCLUSIVE/MODIFIED "
                    "without directory ownership", event)

    def finish(self) -> None:
        self._sweep("final_sweep", -1)
