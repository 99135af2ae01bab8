"""Intervals, write notices, and the interval log.

A node's execution is divided into *intervals* delimited by its
synchronization operations.  Each interval records which pages the
node modified and how many bytes of each actually changed; a *write
notice* is the (page, creator, interval) triple that travels with
lock grants and barrier departures (§2.1).

As in TreadMarks, an interval's notices are materialized **once**, at
the release that closes it: constructing an :class:`Interval` seals
it — its run count, wire bytes and one shared notice record per dirty
page are computed then and never again, however many lock grants and
barrier departures later carry them.  :class:`IntervalLog` keeps
per-node prefix sums of those sealed counts, so sizing a sync
message's consistency payload is O(nodes) subtractions with no
interval touched.  The prefix sums assume a logged interval's page set
never changes (``pages`` is a read-only view) and that intervals enter
the log in index order (:meth:`IntervalLog.append` enforces it).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import List, Mapping, Optional, Set, Tuple

from repro.dsm.diff import estimate_wire_bytes
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

NoticeRecord = Tuple[int, int, int]
"""What a receiver keeps per write notice: ``(creator, interval
index, diff wire bytes)``.  Built once per dirty page when the
interval is sealed and shared by every receiver's pending list."""


class Interval:
    """One closed interval of one node: its timestamp and dirty pages.

    Sealed at construction, which takes ownership of ``pages``; only
    ``diffs_made`` (which diffs have been cut so far — TreadMarks
    creates them lazily) changes afterwards.
    """

    __slots__ = ("node", "index", "vc", "pages", "diffs_made", "notices",
                 "_runs")

    def __init__(self, node: int, index: int, vc: Tuple[int, ...],
                 pages: Optional[Mapping[int, int]] = None) -> None:
        pages = pages if pages is not None else {}
        self.node = node
        self.index = index          # this node's interval counter
        self.vc = vc                # clock snapshot at interval end
        #: page -> changed bytes, read-only.
        self.pages: Mapping[int, int] = MappingProxyType(pages)
        self.diffs_made: Set[int] = set()
        ordered = sorted(pages)
        #: ``(page, NoticeRecord)`` per dirty page, in page order.
        self.notices: Tuple[Tuple[int, NoticeRecord], ...] = tuple(
            (page, (node, index, estimate_wire_bytes(pages[page])))
            for page in ordered)
        # Maximal runs = pages minus the adjacent consecutive pairs.
        self._runs = len(ordered) - sum(
            b == a + 1 for a, b in zip(ordered, ordered[1:]))

    def __repr__(self) -> str:
        return (f"<Interval {self.node}:{self.index} "
                f"pages={sorted(self.pages)}>")

    @property
    def num_notices(self) -> int:
        return len(self.pages)

    def notice_runs(self) -> int:
        """Number of maximal runs of consecutive dirty page numbers."""
        return self._runs

    def wire_bytes(self) -> int:
        """Bytes this interval's notices occupy in a message."""
        return INTERVAL_HEADER_BYTES + self._runs * NOTICE_RUN_BYTES

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
        # Prefix sums per creator: entry k covers intervals 1..k.
        self._notices: List[List[int]] = [[0] for _ in range(num_nodes)]
        self._bytes: List[List[int]] = [[0] for _ in range(num_nodes)]

    def append(self, interval: Interval) -> None:
        node = interval.node
        log = self._per_node[node]
        expected = len(log) + 1
        if interval.index != expected:
            raise ValueError(
                f"interval index {interval.index} out of order for node "
                f"{node}; expected {expected}")
        log.append(interval)
        self._notices[node].append(self._notices[node][-1] +
                                   interval.num_notices)
        self._bytes[node].append(self._bytes[node][-1] +
                                 interval.wire_bytes())

    def node_count(self, node: int) -> int:
        return len(self._per_node[node])

    def get(self, node: int, index: int) -> Interval:
        return self._per_node[node][index - 1]

    # ------------------------------------------------------------------
    def newer_than(self, vc: VectorClock,
                   upto: VectorClock) -> List[Interval]:
        """Intervals with ``vc < index <= upto`` per creator node,
        node-major and index-ascending.

        This is exactly the set of write notices a releaser with
        knowledge ``upto`` sends to an acquirer with knowledge ``vc``.
        """
        newer: List[Interval] = []
        for lo, hi, log in zip(vc.entries, upto.entries, self._per_node):
            if hi > lo:
                newer += log[lo:hi]     # a slice clamps to the log's end
        return newer

    def notice_payload(self, vc: VectorClock,
                       upto: VectorClock) -> Tuple[int, int]:
        """``(write notices, wire bytes)`` of :meth:`newer_than`, the
        bytes including one vector clock; read off the prefix sums.

        Notices travel run-compressed per interval (see
        :data:`NOTICE_RUN_BYTES`).  The acquirer can be *ahead* of
        ``upto`` on a component (an eager push or crash sealing
        advanced it), hence ``hi > lo`` rather than a bare difference.
        """
        notices = 0
        nbytes = upto.wire_bytes()
        for lo, hi, counts, sizes in zip(vc.entries, upto.entries,
                                         self._notices, self._bytes):
            hi = min(hi, len(counts) - 1)
            if hi > lo:
                notices += counts[hi] - counts[lo]
                nbytes += sizes[hi] - sizes[lo]
        return notices, nbytes
