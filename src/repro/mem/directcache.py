"""Vectorized direct-mapped cache with MESI-style line states.

Both hardware protocols (snooping Illinois and the directory protocol)
keep one :class:`DirectMappedCache` per processor.  Applications issue
*bulk* accesses over contiguous byte ranges; the cache resolves a whole
range of global line numbers at once with numpy, which is what makes a
2000x1000 SOR simulable in pure Python.

States follow MESI numbering::

    INVALID(0) < SHARED(1) < EXCLUSIVE(2) < MODIFIED(3)

A direct-mapped cache maps global line ``l`` to set ``l % num_sets``.
Consecutive lines occupy consecutive sets (with wraparound).  Ranges
longer than the cache are processed in cache-sized chunks, so capacity
self-eviction within one access is modelled exactly: the evicted lines
show up in the eviction lists like any other victim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError

INVALID = 0
SHARED = 1
EXCLUSIVE = 2
MODIFIED = 3

_EMPTY = np.empty(0, dtype=np.int64)


def _concat(parts: List[np.ndarray]) -> np.ndarray:
    parts = [p for p in parts if p.size]
    if not parts:
        return _EMPTY
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


@dataclass
class AccessResult:
    """Outcome of one bulk cache access.

    * ``miss_lines`` — global lines that had to be fetched (includes
      capacity-duplicate misses for ranges longer than the cache).
    * ``upgrade_lines`` — write hits found in SHARED; the coherence
      protocol turns these into ownership/invalidation transactions.
    * ``evicted_dirty_lines`` / ``evicted_clean_lines`` — victims
      displaced by the fills (dirty ones require writeback).
    """

    hits: int = 0
    miss_lines: np.ndarray = field(default_factory=lambda: _EMPTY)
    upgrade_lines: np.ndarray = field(default_factory=lambda: _EMPTY)
    evicted_dirty_lines: np.ndarray = field(default_factory=lambda: _EMPTY)
    evicted_clean_lines: np.ndarray = field(default_factory=lambda: _EMPTY)

    @property
    def misses(self) -> int:
        return int(self.miss_lines.size)

    @property
    def upgrades(self) -> int:
        return int(self.upgrade_lines.size)

    @property
    def writebacks(self) -> int:
        return int(self.evicted_dirty_lines.size)


class DirectMappedCache:
    """Per-processor direct-mapped cache over global line numbers."""

    def __init__(self, cache_bytes: int, line_bytes: int,
                 name: str = "cache") -> None:
        if line_bytes <= 0:
            raise ConfigurationError(f"line_bytes must be positive: {line_bytes}")
        if cache_bytes <= 0 or cache_bytes % line_bytes != 0:
            raise ConfigurationError(
                f"cache_bytes ({cache_bytes}) must be a positive multiple "
                f"of line_bytes ({line_bytes})")
        self.name = name
        self.line_bytes = line_bytes
        self.num_sets = cache_bytes // line_bytes
        self.tags = np.full(self.num_sets, -1, dtype=np.int64)
        self.states = np.zeros(self.num_sets, dtype=np.uint8)

    # ------------------------------------------------------------------
    # introspection helpers
    # ------------------------------------------------------------------
    def state_of(self, line: int) -> int:
        """MESI state of a single global line (INVALID if absent)."""
        s = line % self.num_sets
        if self.tags[s] == line:
            return int(self.states[s])
        return INVALID

    def resident_count(self) -> int:
        return int(np.count_nonzero(self.states != INVALID))

    def dirty_count(self) -> int:
        return int(np.count_nonzero(self.states == MODIFIED))

    def resident_lines(self) -> np.ndarray:
        """Global line numbers of everything currently cached."""
        mask = self.states != INVALID
        return np.sort(self.tags[mask])

    def flush(self) -> int:
        """Drop everything; returns the number of dirty lines lost."""
        dirty = self.dirty_count()
        self.tags.fill(-1)
        self.states.fill(INVALID)
        return dirty

    # ------------------------------------------------------------------
    # bulk access
    # ------------------------------------------------------------------
    def access(self, first_line: int, last_line: int,
               write: bool) -> AccessResult:
        """Perform a bulk read or write over ``[first_line, last_line)``.

        Reads fill missing lines in SHARED (the protocol may
        :meth:`promote` them, e.g. Illinois fills EXCLUSIVE when no
        other cache holds the line).  Writes leave every touched line
        MODIFIED and report SHARED hits as upgrades.
        """
        result = AccessResult()
        if last_line <= first_line:
            return result
        misses: List[np.ndarray] = []
        upgrades: List[np.ndarray] = []
        dirty_victims: List[np.ndarray] = []
        clean_victims: List[np.ndarray] = []

        chunk_start = first_line
        while chunk_start < last_line:
            chunk_end = min(chunk_start + self.num_sets, last_line)
            lines = np.arange(chunk_start, chunk_end, dtype=np.int64)
            sets = lines % self.num_sets
            old_tags = self.tags[sets]
            old_states = self.states[sets]

            present = (old_tags == lines) & (old_states != INVALID)
            result.hits += int(np.count_nonzero(present))
            misses.append(lines[~present])

            conflict = (~present) & (old_states != INVALID)
            dirty_victims.append(old_tags[conflict &
                                          (old_states == MODIFIED)])
            clean_victims.append(old_tags[conflict &
                                          (old_states != MODIFIED)])

            if write:
                upgrades.append(lines[present & (old_states == SHARED)])
                self.tags[sets] = lines
                self.states[sets] = MODIFIED
            else:
                miss_mask = ~present
                miss_sets = sets[miss_mask]
                self.tags[miss_sets] = lines[miss_mask]
                self.states[miss_sets] = SHARED
            chunk_start = chunk_end

        result.miss_lines = _concat(misses)
        result.upgrade_lines = _concat(upgrades)
        result.evicted_dirty_lines = _concat(dirty_victims)
        result.evicted_clean_lines = _concat(clean_victims)
        return result

    def read(self, first_line: int, last_line: int) -> AccessResult:
        """Bulk read; missing lines fill SHARED, hits keep their state."""
        return self.access(first_line, last_line, write=False)

    def write(self, first_line: int, last_line: int) -> AccessResult:
        """Bulk write; all touched resident lines end MODIFIED."""
        return self.access(first_line, last_line, write=True)

    # ------------------------------------------------------------------
    # coherence-side operations
    # ------------------------------------------------------------------
    def promote(self, lines: np.ndarray, state: int) -> None:
        """Set the state of whichever of ``lines`` are resident."""
        if lines.size == 0:
            return
        sets = lines % self.num_sets
        mask = self.tags[sets] == lines
        self.states[sets[mask]] = state

    def invalidate_range(self, first_line: int, last_line: int
                         ) -> Tuple[int, int]:
        """Invalidate resident lines in the range.

        Returns ``(present, dirty)`` counts — ``dirty`` lines must be
        supplied or written back by the protocol before invalidation.
        """
        if last_line <= first_line:
            return 0, 0
        total_present = 0
        total_dirty = 0
        chunk_start = first_line
        while chunk_start < last_line:
            chunk_end = min(chunk_start + self.num_sets, last_line)
            lines = np.arange(chunk_start, chunk_end, dtype=np.int64)
            sets = lines % self.num_sets
            present = (self.tags[sets] == lines) & \
                (self.states[sets] != INVALID)
            dirty = present & (self.states[sets] == MODIFIED)
            total_present += int(np.count_nonzero(present))
            total_dirty += int(np.count_nonzero(dirty))
            self.states[sets[present]] = INVALID
            self.tags[sets[present]] = -1
            chunk_start = chunk_end
        return total_present, total_dirty

    def downgrade_lines(self, lines: np.ndarray) -> Tuple[int, int]:
        """Downgrade resident M/E ``lines`` to SHARED.

        Returns ``(present, dirty)``; dirty lines are supplied to the
        requester / written back by the protocol.
        """
        if lines.size == 0:
            return 0, 0
        sets = lines % self.num_sets
        present = (self.tags[sets] == lines) & (self.states[sets] != INVALID)
        dirty = present & (self.states[sets] == MODIFIED)
        exclusive = present & (self.states[sets] >= EXCLUSIVE)
        self.states[sets[exclusive]] = SHARED
        return int(np.count_nonzero(present)), int(np.count_nonzero(dirty))

    def invalidate_lines(self, lines: np.ndarray) -> Tuple[int, int]:
        """Invalidate an explicit set of global lines; see above."""
        if lines.size == 0:
            return 0, 0
        sets = lines % self.num_sets
        present = (self.tags[sets] == lines) & (self.states[sets] != INVALID)
        dirty = present & (self.states[sets] == MODIFIED)
        self.states[sets[present]] = INVALID
        self.tags[sets[present]] = -1
        return int(np.count_nonzero(present)), int(np.count_nonzero(dirty))

    def downgrade_range(self, first_line: int, last_line: int
                        ) -> Tuple[int, int]:
        """Downgrade M/E lines in the range to SHARED.

        Returns ``(present, dirty)``; dirty lines are flushed by the
        protocol (cache-to-cache supply under Illinois).
        """
        if last_line <= first_line:
            return 0, 0
        total_present = 0
        total_dirty = 0
        chunk_start = first_line
        while chunk_start < last_line:
            chunk_end = min(chunk_start + self.num_sets, last_line)
            lines = np.arange(chunk_start, chunk_end, dtype=np.int64)
            sets = lines % self.num_sets
            present = (self.tags[sets] == lines) & \
                (self.states[sets] != INVALID)
            dirty = present & (self.states[sets] == MODIFIED)
            total_present += int(np.count_nonzero(present))
            total_dirty += int(np.count_nonzero(dirty))
            exclusive = present & (self.states[sets] >= EXCLUSIVE)
            self.states[sets[exclusive]] = SHARED
            chunk_start = chunk_end
        return total_present, total_dirty

    def probe_lines(self, lines: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(present_mask, dirty_mask) for explicit global lines.

        Snooping and directory protocols use this to locate suppliers
        and sharers among the other caches.
        """
        if lines.size == 0:
            empty = np.zeros(0, dtype=bool)
            return empty, empty
        sets = lines % self.num_sets
        present = (self.tags[sets] == lines) & (self.states[sets] != INVALID)
        dirty = present & (self.states[sets] == MODIFIED)
        return present, dirty

    def present_in_range(self, first_line: int, last_line: int) -> int:
        """How many lines of the range are currently resident."""
        if last_line <= first_line:
            return 0
        count = 0
        chunk_start = first_line
        while chunk_start < last_line:
            chunk_end = min(chunk_start + self.num_sets, last_line)
            lines = np.arange(chunk_start, chunk_end, dtype=np.int64)
            sets = lines % self.num_sets
            present = (self.tags[sets] == lines) & \
                (self.states[sets] != INVALID)
            count += int(np.count_nonzero(present))
            chunk_start = chunk_end
        return count

    def __repr__(self) -> str:
        return (f"<DirectMappedCache {self.name}: {self.num_sets} sets x "
                f"{self.line_bytes} B, {self.resident_count()} resident>")
