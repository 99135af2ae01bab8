"""Per-node page state for the DSM protocol.

Each node tracks, for every shared page:

* whether its copy is *valid* (invalid copies fault on access),
* whether the page has been *twinned* in the current interval (first
  write creates a twin so a diff can be computed later),
* how many bytes the node has dirtied in the current interval, and
* which remote intervals' diffs are *pending* — announced by write
  notices but not yet fetched (TreadMarks fetches diffs lazily, at
  access-fault time).  A page with pending notices is always invalid.

Validity is a numpy bool array so bulk accesses resolve in one
vectorized probe.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

import numpy as np

from repro.dsm.interval import Interval, NoticeRecord

PendingDiffs = List[NoticeRecord]
"""Diffs a node must fetch before revalidating one page: the sealed
``(creator, interval index, diff wire bytes)`` records of the write
notices applied since the page's last fault, in arrival order.  The
records are the creator interval's own, shared by every receiver;
per-creator byte totals and index lists are derived at fault time."""


class NodePages:
    """Page table of one DSM node."""

    def __init__(self, node: int, num_pages: int) -> None:
        self.node = node
        self.num_pages = num_pages
        # Runs start "warm": every node has a valid copy of every page,
        # matching the paper's methodology of excluding the initial
        # data distribution from measurements (§2.4.2, §3.2.1).
        self.valid = np.ones(num_pages, dtype=bool)
        self.twinned: Set[int] = set()
        self.dirty: Dict[int, int] = {}
        self.pending: Dict[int, PendingDiffs] = {}

    # ------------------------------------------------------------------
    # access-side queries
    # ------------------------------------------------------------------
    def invalid_in(self, first_page: int, last_page: int) -> np.ndarray:
        """Global page numbers in ``[first, last)`` that would fault."""
        window = self.valid[first_page:last_page]
        return first_page + np.flatnonzero(~window)

    def is_valid(self, page: int) -> bool:
        return bool(self.valid[page])

    # ------------------------------------------------------------------
    # write tracking
    # ------------------------------------------------------------------
    def record_write(self, page: int, changed_bytes: int) -> bool:
        """Account a write; returns True if this twinned the page."""
        first_write = page not in self.twinned
        if first_write:
            self.twinned.add(page)
        self.dirty[page] = self.dirty.get(page, 0) + changed_bytes
        return first_write

    def take_dirty(self, page_bytes: int) -> Dict[int, int]:
        """End the current interval: return and reset dirty pages.

        Per-page changed bytes are capped at the page size (a diff can
        never exceed one page).  Twins persist across interval ends —
        a page is only re-twinned after its twin is consumed by diff
        creation (see :meth:`consume_twin`), matching TreadMarks'
        lazy write-protection.
        """
        dirty = {page: min(changed, page_bytes)
                 for page, changed in self.dirty.items()}
        self.dirty = {}
        return dirty

    def consume_twin(self, page: int) -> None:
        """Diff creation used up the twin; next write re-twins."""
        self.twinned.discard(page)

    @property
    def has_dirty(self) -> bool:
        return bool(self.dirty)

    # ------------------------------------------------------------------
    # invalidation / revalidation
    # ------------------------------------------------------------------
    def apply_interval(self, interval: Interval) -> int:
        """Process every write notice of one sealed interval.

        Returns how many previously valid copies this invalidated.
        """
        return self._apply(interval.node, interval.notices)

    def apply_notice(self, page: int, creator: int, wire_bytes: int,
                     interval_index: int) -> bool:
        """Process one incoming write notice (a one-record interval).

        Returns True if this invalidated a previously valid copy.
        """
        record = (creator, interval_index, wire_bytes)
        return bool(self._apply(creator, ((page, record),)))

    def _apply(self, creator: int,
               notices: Iterable[Tuple[int, NoticeRecord]]) -> int:
        """Append ``notices`` to the pending lists and invalidate.

        Notices from this node itself are ignored (a node always sees
        its own writes).  A page that already has notices pending is
        already invalid, so only a page's first notice probes and
        flips its valid bit.
        """
        if creator == self.node:
            return 0
        pending = self.pending
        valid = self.valid
        invalidated = 0
        for page, record in notices:
            pend = pending.get(page)
            if pend is not None:
                pend.append(record)
            else:
                pending[page] = [record]
                if valid[page]:
                    valid[page] = False
                    invalidated += 1
        return invalidated

    def begin_fault(self, page: int) -> PendingDiffs:
        """Claim the pending-diff work for a faulting page."""
        return self.pending.pop(page, [])

    def revalidate(self, page: int) -> None:
        self.valid[page] = True

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "valid_pages": int(np.count_nonzero(self.valid)),
            "invalid_pages": int(np.count_nonzero(~self.valid)),
            "dirty_pages": len(self.dirty),
            "pending_pages": len(self.pending),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (f"<NodePages node={self.node} valid={s['valid_pages']} "
                f"dirty={s['dirty_pages']} pending={s['pending_pages']}>")
