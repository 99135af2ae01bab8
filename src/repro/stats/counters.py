"""Counters for every event class the paper reports.

The paper's Table 2 reports barriers/s, remote locks/s, messages/s and
Kbytes/s; Figures 12-13 split messages into *miss* vs *synchronization*
messages and data into *miss data*, *consistency data* (write notices,
vector timestamps, intervals), and *message header* bytes.  The
categories here mirror that taxonomy exactly, plus hardware-side
counters for the bus and directory models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Dict


class MsgKind(Enum):
    """Message types exchanged by the software DSM."""

    LOCK_REQUEST = "lock_request"
    LOCK_FORWARD = "lock_forward"
    LOCK_GRANT = "lock_grant"
    LOCK_RELEASE = "lock_release"
    BARRIER_ARRIVE = "barrier_arrive"
    BARRIER_DEPART = "barrier_depart"
    DIFF_REQUEST = "diff_request"
    DIFF_RESPONSE = "diff_response"
    PAGE_REQUEST = "page_request"
    PAGE_RESPONSE = "page_response"
    BOUND_UPDATE = "bound_update"
    #: Standalone write-notice message: only sent when the ablation
    #: layer turns write-notice piggybacking off (consistency data
    #: normally rides lock-grant / barrier messages).
    WRITE_NOTICE = "write_notice"

    # Members are singletons compared by identity, so identity hashing
    # is exact; it spares every counter increment Enum's Python-level
    # ``hash(self._name_)``.
    __hash__ = object.__hash__

    @property
    def is_sync(self) -> bool:
        """Lock/barrier traffic, as opposed to data-miss traffic."""
        return self in _SYNC_KINDS

    @property
    def is_miss(self) -> bool:
        """Data-miss traffic (everything that is not sync)."""
        return not self.is_sync


_SYNC_KINDS = {
    MsgKind.LOCK_REQUEST,
    MsgKind.LOCK_FORWARD,
    MsgKind.LOCK_GRANT,
    MsgKind.LOCK_RELEASE,
    MsgKind.BARRIER_ARRIVE,
    MsgKind.BARRIER_DEPART,
    MsgKind.BOUND_UPDATE,
    MsgKind.WRITE_NOTICE,
}


class DataKind(Enum):
    """Payload byte categories (Figure 13's taxonomy)."""

    MISS = "miss"                # page contents / diffs
    CONSISTENCY = "consistency"  # write notices, vector timestamps
    HEADER = "header"            # per-message protocol headers

    __hash__ = object.__hash__   # as MsgKind's


@dataclass
class Counters:
    """Mutable event counters for one simulated run."""

    # -- software DSM traffic ------------------------------------------
    messages: Dict[MsgKind, int] = field(
        default_factory=lambda: {k: 0 for k in MsgKind})
    data_bytes: Dict[DataKind, int] = field(
        default_factory=lambda: {k: 0 for k in DataKind})

    # -- synchronization ------------------------------------------------
    barriers: int = 0
    lock_acquires: int = 0
    remote_lock_acquires: int = 0
    #: Cycles from each acquire request to its grant, summed over all
    #: acquisitions (queue/transit wait, including the local-grant
    #: dispatch cost).
    lock_wait_cycles: int = 0
    #: Cycles each lock was held (grant to release), summed.
    lock_hold_cycles: int = 0
    #: Fetch-and-op merges performed by a combining fabric stage
    #: (locks *and* barriers; only the ``combining`` sync algorithms
    #: ever increment this).
    combining_hits: int = 0

    # -- DSM protocol events ---------------------------------------------
    page_faults: int = 0
    remote_page_faults: int = 0
    twins_created: int = 0
    diffs_created: int = 0
    diff_bytes_created: int = 0
    write_notices_sent: int = 0
    pages_invalidated: int = 0
    #: Per-interval diff responses a creator folded into one merged
    #: response (the diff-merge mechanism; its ablation sends them
    #: individually instead).
    diffs_merged: int = 0

    # -- mechanism ablations (repro.ablate) --------------------------------
    #: Whole-page copies shipped in place of diffs (twins off).
    pages_shipped_whole: int = 0
    #: Pages fetched at notice-apply time instead of on access fault
    #: (lazy_fetch off).
    eager_fetches: int = 0
    #: Lock releases that eagerly pushed their interval's diffs
    #: because the ablation disabled lazy release (lazy_release off;
    #: per-lock ``eager_locks`` pushes are not counted here).
    eager_releases: int = 0

    # -- reliable delivery / fault recovery -------------------------------
    messages_dropped: int = 0
    retransmissions: int = 0
    duplicates_dropped: int = 0
    timeouts: int = 0
    timeout_cycles: int = 0
    stall_deferrals: int = 0

    # -- crash-stop failure recovery (repro.recover) ----------------------
    #: Cycles between each crash and its declaration, summed.
    detection_cycles: int = 0
    #: Pages owned/pending at a dead node re-homed to a survivor.
    pages_rehomed: int = 0
    #: Pages whose only reconstruction source died with the node.
    pages_lost: int = 0
    #: Lock records repaired (token regenerated / queue repaired).
    locks_regenerated: int = 0
    #: Barrier episodes reconfigured from n to n−1 membership.
    barrier_reconfigs: int = 0

    # -- hardware coherence ----------------------------------------------
    bus_transactions: int = 0
    bus_data_bytes: int = 0
    cache_hits: int = 0
    cache_misses_local: int = 0
    cache_misses_remote: int = 0
    invalidations: int = 0
    writebacks: int = 0
    cache_to_cache: int = 0
    network_hops: int = 0

    # ------------------------------------------------------------------
    def count_message(self, kind: MsgKind, payload_bytes: int,
                      data_kind: DataKind, header_bytes: int) -> None:
        """Record one message and its byte categories."""
        self.messages[kind] += 1
        if payload_bytes:
            self.data_bytes[data_kind] += payload_bytes
        if header_bytes:
            self.data_bytes[DataKind.HEADER] += header_bytes

    # -- aggregates ------------------------------------------------------
    @property
    def total_messages(self) -> int:
        """All messages sent, every kind."""
        return sum(self.messages.values())

    @property
    def sync_messages(self) -> int:
        """Messages carrying lock/barrier traffic (Table 4 split)."""
        return sum(n for k, n in self.messages.items() if k.is_sync)

    @property
    def miss_messages(self) -> int:
        """Messages carrying data-miss traffic (Table 4 split)."""
        return sum(n for k, n in self.messages.items() if k.is_miss)

    @property
    def total_bytes(self) -> int:
        """All bytes moved: miss data, consistency info, headers."""
        return sum(self.data_bytes.values())

    @property
    def miss_data_bytes(self) -> int:
        """Bytes of demanded data (pages, diffs on demand)."""
        return self.data_bytes[DataKind.MISS]

    @property
    def consistency_bytes(self) -> int:
        """Bytes of protocol metadata (write notices, intervals)."""
        return self.data_bytes[DataKind.CONSISTENCY]

    @property
    def header_bytes(self) -> int:
        """Bytes of per-message framing overhead."""
        return self.data_bytes[DataKind.HEADER]

    def to_jsonable(self) -> Dict[str, object]:
        """Lossless JSON form (cache storage, cross-process transport).

        Unlike :meth:`as_dict` (a *flat* report view with derived
        aggregates mixed in), this is an exact structural dump that
        :meth:`from_jsonable` restores field for field.
        """
        out: Dict[str, object] = {
            "messages": {k.value: v for k, v in self.messages.items()},
            "data_bytes": {k.value: v for k, v in self.data_bytes.items()},
        }
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                continue
            out[f.name] = value
        return out

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "Counters":
        """Rebuild a :class:`Counters` from :meth:`to_jsonable` output."""
        counters = cls()
        for key, value in data.get("messages", {}).items():
            counters.messages[MsgKind(key)] = int(value)
        for key, value in data.get("data_bytes", {}).items():
            counters.data_bytes[DataKind(key)] = int(value)
        for f in fields(cls):
            if f.name in ("messages", "data_bytes"):
                continue
            if f.name in data:
                setattr(counters, f.name, int(data[f.name]))
        return counters

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary (for reports and tests).

        Scalar fields are discovered via :func:`dataclasses.fields`, so
        counters added later appear here without further bookkeeping;
        the two dict-valued fields are flattened with ``msg.``/``bytes.``
        prefixes.
        """
        out: Dict[str, float] = {
            f"msg.{k.value}": v for k, v in self.messages.items()}
        out.update({f"bytes.{k.value}": v for k, v in self.data_bytes.items()})
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                continue  # messages / data_bytes, flattened above
            out[f.name] = value
        out["total_messages"] = self.total_messages
        out["total_bytes"] = self.total_bytes
        return out
