"""Intervals, write notices, and the interval log.

A node's execution is divided into *intervals* delimited by its
synchronization operations.  Each interval records which pages the
node modified and how many bytes of each actually changed; a *write
notice* is the (page, creator, interval) triple that travels with
lock grants and barrier departures (§2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set, Tuple

from repro.dsm.vectorclock import VectorClock

INTERVAL_HEADER_BYTES = 8
"""Wire size of one interval record (creator + index)."""

NOTICE_RUN_BYTES = 6
"""Wire size of one compressed notice run (start page + count).

TreadMarks-style protocols send the write notices of an interval as
runs of consecutive page numbers; a band-structured application like
SOR dirties hundreds of *contiguous* pages per interval, which
compress to a single run, while scattered writers (M-Water) see
little compression — exactly the asymmetry visible in the paper's
consistency-data volumes (Figure 13)."""


@dataclass
class Interval:
    """One interval of one node: its timestamp and its dirty pages."""

    node: int
    index: int                      # this node's interval counter
    vc: Tuple[int, ...]             # clock snapshot at interval end
    pages: Dict[int, int] = field(default_factory=dict)  # page -> bytes
    diffs_made: Set[int] = field(default_factory=set)

    @property
    def num_notices(self) -> int:
        return len(self.pages)

    def notice_runs(self) -> int:
        """Number of maximal runs of consecutive dirty page numbers."""
        if not self.pages:
            return 0
        pages = sorted(self.pages)
        runs = 1
        for prev, cur in zip(pages, pages[1:]):
            if cur != prev + 1:
                runs += 1
        return runs

    def wire_bytes(self) -> int:
        """Bytes this interval's notices occupy in a message."""
        return INTERVAL_HEADER_BYTES + self.notice_runs() * NOTICE_RUN_BYTES

    def diff_pending(self, page: int) -> bool:
        """True if the diff for ``page`` has not been created yet
        (TreadMarks creates diffs lazily, on first request)."""
        return page in self.pages and page not in self.diffs_made


class IntervalLog:
    """All intervals of all nodes, ordered per node by index.

    The log is the oracle both lock grantors and the barrier manager
    consult to answer "which intervals does node X not know about?"
    (everything with an index above X's vector-clock entry for the
    creator).  Real TreadMarks garbage-collects old intervals; we keep
    them all — documented simplification, memory only.
    """

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self._per_node: List[List[Interval]] = [[] for _ in range(num_nodes)]

    def append(self, interval: Interval) -> None:
        log = self._per_node[interval.node]
        expected = len(log) + 1
        if interval.index != expected:
            raise ValueError(
                f"interval index {interval.index} out of order for node "
                f"{interval.node}; expected {expected}")
        log.append(interval)

    def node_count(self, node: int) -> int:
        return len(self._per_node[node])

    def get(self, node: int, index: int) -> Interval:
        return self._per_node[node][index - 1]

    # ------------------------------------------------------------------
    def newer_than(self, vc: VectorClock,
                   upto: VectorClock) -> Iterator[Interval]:
        """Intervals with ``vc < index <= upto`` per creator node.

        This is exactly the set of write notices a releaser with
        knowledge ``upto`` sends to an acquirer with knowledge ``vc``.
        """
        for node in range(self.num_nodes):
            lo = vc[node]
            hi = min(upto[node], len(self._per_node[node]))
            for index in range(lo + 1, hi + 1):
                yield self._per_node[node][index - 1]

    def notices_between(self, vc: VectorClock, upto: VectorClock) -> int:
        """Number of write notices in :meth:`newer_than`."""
        return sum(iv.num_notices for iv in self.newer_than(vc, upto))

    def consistency_bytes(self, vc: VectorClock, upto: VectorClock) -> int:
        """Wire bytes of the notice set plus one vector clock.

        Notices travel run-compressed per interval (see
        :data:`NOTICE_RUN_BYTES`).
        """
        total = upto.wire_bytes()
        for interval in self.newer_than(vc, upto):
            total += interval.wire_bytes()
        return total
