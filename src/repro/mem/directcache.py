"""Vectorized direct-mapped cache with MESI-style line states.

Both hardware protocols (snooping Illinois and the directory protocol)
keep one :class:`DirectMappedCache` per processor.  Applications issue
*bulk* accesses over contiguous byte ranges; the cache resolves a whole
range of global line numbers at once with numpy, which is what makes a
2000x1000 SOR simulable in pure Python.

States follow MESI numbering::

    INVALID(0) < SHARED(1) < EXCLUSIVE(2) < MODIFIED(3)

A direct-mapped cache maps global line ``l`` to set ``l % num_sets``,
so consecutive lines that do not cross a multiple of ``num_sets``
occupy a contiguous *slice* of sets.  Range operations cut their range
at those multiples and work slice by slice; a range longer than the
cache thereby evicts its own earlier lines exactly (the victims show
up in the eviction lists like any other).  An INVALID set always
carries tag ``-1``, so a tag match alone means "resident".

The caches of one coherence domain (a snooping bus, the directory) are
row views of one :class:`CacheStack`; what a protocol does to *peer*
caches is defined there, once, over ``(cache, line)`` pairs.

Lock-protected updates touch one or two lines at a time, where a numpy
call costs more than the work it does.  A span of at most
:data:`SHORT_SPAN_LINES` lines may instead go through
:meth:`DirectMappedCache.access_short`, a per-line loop that finds
exactly what :meth:`DirectMappedCache.access` finds, as plain lists.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

INVALID = 0
SHARED = 1
EXCLUSIVE = 2
MODIFIED = 3

#: Longest span (in lines) that the coherence writes and the software
#: machines' local-cache charge resolve line by line with
#: :meth:`DirectMappedCache.access_short`; longer spans take the numpy
#: path.  Set at the measured crossover of the two (DESIGN.md §5).
SHORT_SPAN_LINES = 6

_EMPTY = np.empty(0, dtype=np.int64)


def _concat(parts: List[np.ndarray]) -> np.ndarray:
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else _EMPTY


def _set_slices(first_line: int, last_line: int, num_sets: int
                ) -> Iterator[Tuple[np.ndarray, slice]]:
    """Cut ``[first_line, last_line)`` into ``(lines, slice of sets)``."""
    while first_line < last_line:
        low = first_line % num_sets
        end = min(first_line + num_sets - low, last_line)
        yield (np.arange(first_line, end, dtype=np.int64),
               slice(low, low + end - first_line))
        first_line = end


def _invalidate_range(tags: np.ndarray, states: np.ndarray,
                      first_line: int, last_line: int) -> Tuple[int, int]:
    """Drop the range from every row of ``(..., sets)`` cache state."""
    present = dirty = 0
    for lines, sets in _set_slices(first_line, last_line, tags.shape[-1]):
        held = tags[..., sets] == lines
        held_states = states[..., sets][held]
        present += held_states.size
        dirty += int(np.count_nonzero(held_states == MODIFIED))
        states[..., sets][held] = INVALID
        tags[..., sets][held] = -1
    return present, dirty


class AccessResult:
    """Outcome of one bulk cache access.

    * ``miss_lines`` — global lines that had to be fetched (includes
      capacity-duplicate misses for ranges longer than the cache).
    * ``upgrade_lines`` — write hits found in SHARED; the coherence
      protocol turns these into ownership/invalidation transactions.
    * ``evicted_dirty_lines`` / ``evicted_clean_lines`` — victims
      displaced by the fills (dirty ones require writeback).
    """

    __slots__ = ("hits", "miss_lines", "upgrade_lines",
                 "evicted_dirty_lines", "evicted_clean_lines")

    def __init__(self, hits: int = 0, miss_lines: np.ndarray = _EMPTY,
                 upgrade_lines: np.ndarray = _EMPTY,
                 evicted_dirty_lines: np.ndarray = _EMPTY,
                 evicted_clean_lines: np.ndarray = _EMPTY) -> None:
        self.hits = hits
        self.miss_lines = miss_lines
        self.upgrade_lines = upgrade_lines
        self.evicted_dirty_lines = evicted_dirty_lines
        self.evicted_clean_lines = evicted_clean_lines

    @property
    def misses(self) -> int:
        """Number of lines fetched."""
        return self.miss_lines.size

    @property
    def upgrades(self) -> int:
        """Number of write hits found SHARED."""
        return self.upgrade_lines.size

    @property
    def writebacks(self) -> int:
        """Number of dirty victims to write back."""
        return self.evicted_dirty_lines.size


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
        #: Own arrays until a :class:`CacheStack` adopts the cache and
        #: rebinds both to row views of its block.
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
        """Number of valid (non-INVALID) lines held."""
        return int(np.count_nonzero(self.states != INVALID))

    def dirty_count(self) -> int:
        """Number of MODIFIED lines held."""
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
        hits = 0
        misses: List[np.ndarray] = []
        upgrades: List[np.ndarray] = []
        dirty_victims: List[np.ndarray] = []
        clean_victims: List[np.ndarray] = []
        for lines, sets in _set_slices(first_line, last_line, self.num_sets):
            tags = self.tags[sets]        # views: written through below
            states = self.states[sets]
            present = tags == lines
            n_hit = int(np.count_nonzero(present))
            hits += n_hit
            if write and n_hit:
                upgrades.append(lines[present & (states == SHARED)])
            if n_hit < lines.size:
                absent = ~present
                misses.append(lines[absent])
                conflict = absent & (states != INVALID)
                if conflict.any():
                    victims = tags[conflict]
                    dirty = states[conflict] == MODIFIED
                    dirty_victims.append(victims[dirty])
                    clean_victims.append(victims[~dirty])
                if write:
                    tags[:] = lines
                else:
                    tags[absent] = lines[absent]
                    states[absent] = SHARED
            if write:
                states[:] = MODIFIED
        return AccessResult(hits, _concat(misses), _concat(upgrades),
                            _concat(dirty_victims), _concat(clean_victims))

    def access_short(self, first_line: int, last_line: int, write: bool
                     ) -> Tuple[int, List[int], List[int], List[int],
                                List[int]]:
        """:meth:`access` resolved one line at a time, for short spans.

        Leaves the cache exactly as :meth:`access` would and returns
        ``(hits, miss_lines, upgrade_lines, evicted_dirty_lines,
        evicted_clean_lines)``, the lines as plain lists in the order
        :meth:`access` reports them.
        """
        tags, states, num_sets = self.tags, self.states, self.num_sets
        hits = 0
        misses: List[int] = []
        upgrades: List[int] = []
        dirty_victims: List[int] = []
        clean_victims: List[int] = []
        for line in range(first_line, last_line):
            s = line % num_sets
            tag, state = tags.item(s), states.item(s)
            if tag == line:
                hits += 1
                if not write or state == MODIFIED:
                    continue
                if state == SHARED:
                    upgrades.append(line)
            else:
                misses.append(line)
                if state == MODIFIED:
                    dirty_victims.append(tag)
                elif state != INVALID:
                    clean_victims.append(tag)
                tags[s] = line
                if not write:
                    states[s] = SHARED
                    continue
            states[s] = MODIFIED
        return hits, misses, upgrades, dirty_victims, clean_victims

    def read(self, first_line: int, last_line: int) -> AccessResult:
        """Bulk read; missing lines fill SHARED, hits keep their state."""
        return self.access(first_line, last_line, write=False)

    def write(self, first_line: int, last_line: int) -> AccessResult:
        """Bulk write; all touched resident lines end MODIFIED."""
        return self.access(first_line, last_line, write=True)

    # ------------------------------------------------------------------
    # coherence-side operations on this cache alone
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
        return _invalidate_range(self.tags, self.states,
                                 first_line, last_line)

    def invalidate_lines(self, lines: np.ndarray) -> Tuple[int, int]:
        """Invalidate an explicit set of global lines; see above."""
        sets = lines % self.num_sets
        sets = sets[self.tags[sets] == lines]
        dirty = int(np.count_nonzero(self.states[sets] == MODIFIED))
        self.states[sets] = INVALID
        self.tags[sets] = -1
        return sets.size, dirty

    def probe_lines(self, lines: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(present_mask, dirty_mask) for explicit global lines."""
        sets = lines % self.num_sets
        present = self.tags[sets] == lines
        return present, present & (self.states[sets] == MODIFIED)

    def __repr__(self) -> str:
        return (f"<DirectMappedCache {self.name}: {self.num_sets} sets x "
                f"{self.line_bytes} B, {self.resident_count()} resident>")


class CacheStack:
    """The ``(P × sets)`` ``tags``/``states`` block of one coherence domain.

    Adopts the caches it is given: their state moves into one block
    and each cache's ``tags``/``states`` become row views of it, so a
    cache's own access and the peer operations below see one memory.
    A *pair* ``(rows[i], lines[i])`` names global line ``lines[i]`` in
    the cache of row ``rows[i]``; snooping finds the pairs by one
    masked compare over the block (:meth:`peer_copies`), the directory
    reads them off its sharer bits.  Past that compare, work and
    temporaries are sized by the pairs, not by ``P × len(lines)``.
    """

    def __init__(self, caches: Sequence[DirectMappedCache]) -> None:
        if len({(c.num_sets, c.line_bytes) for c in caches}) != 1:
            raise ConfigurationError(
                "caches of one coherence domain must share one geometry")
        self.num_sets = caches[0].num_sets
        self.tags = np.empty((len(caches), self.num_sets), dtype=np.int64)
        self.states = np.empty((len(caches), self.num_sets), dtype=np.uint8)
        for row, cache in enumerate(caches):
            self.tags[row], self.states[row] = cache.tags, cache.states
            cache.tags, cache.states = self.tags[row], self.states[row]

    def peer_copies(self, proc: int, lines: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)``: every cache ``rows[i]`` other than ``proc``
        that holds ``lines[cols[i]]``."""
        held = self.tags[:, lines % self.num_sets] == lines
        held[proc] = False
        return np.nonzero(held)

    def downgrade(self, rows: np.ndarray, lines: np.ndarray) -> int:
        """Resident E/M pairs drop to SHARED; returns how many were M
        (the protocol supplies or writes those back)."""
        sets = lines % self.num_sets
        states = self.states[rows, sets]
        owned = (self.tags[rows, sets] == lines) & (states >= EXCLUSIVE)
        self.states[rows[owned], sets[owned]] = SHARED
        return int(np.count_nonzero(states[owned] == MODIFIED))

    def invalidate(self, rows: np.ndarray, lines: np.ndarray
                   ) -> Tuple[int, int]:
        """Resident pairs become INVALID; returns ``(present, dirty)``."""
        sets = lines % self.num_sets
        held = self.tags[rows, sets] == lines
        rows, sets = rows[held], sets[held]
        dirty = int(np.count_nonzero(self.states[rows, sets] == MODIFIED))
        self.states[rows, sets] = INVALID
        self.tags[rows, sets] = -1
        return rows.size, dirty

    def invalidate_range(self, first_line: int, last_line: int
                         ) -> Tuple[int, int]:
        """Invalidate the range in every row; ``(present, dirty)``."""
        return _invalidate_range(self.tags, self.states,
                                 first_line, last_line)
