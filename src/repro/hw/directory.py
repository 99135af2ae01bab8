"""Full-map directory coherence over a crossbar (the AH architecture).

Each node is home to an interleaved share of physical pages.  The
directory tracks, per line, an exclusive owner and a sharer bitmask.
Miss latencies fall into the paper's three classes (§3.1): satisfied
by local memory, by a clean remote home, or by a dirty line at a third
node — the 20 / 90..130-cycle range quoted for DASH/FLASH-class
machines.  Processors block on misses (in-order CPUs), so bulk-access
latency is the serial sum of per-line services; crossbar ports add
queueing when traffic converges on one node (e.g. TSP's shared queue).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.check.checker import DirectoryChecker, active_check_config
from repro.errors import ConfigurationError
from repro.mem import directcache
from repro.mem.directcache import (AccessResult, CacheStack,
                                   DirectMappedCache, EXCLUSIVE, INVALID,
                                   MODIFIED)
from repro.net.crossbar import CrossbarNetwork
from repro.stats.counters import Counters

#: ``_BITS[p]`` is processor ``p``'s sharer bit.
_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)


def sharer_pairs(masks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(index, proc)`` of every set bit of a uint64 sharer-mask array.

    Only the non-zero masks are unpacked, so a bulk write whose lines
    are mostly private never builds a ``len(masks) × 64`` table.
    """
    index = np.flatnonzero(masks)
    as_bytes = masks[index].astype("<u8", copy=False).view(np.uint8)
    rows, procs = np.nonzero(np.unpackbits(
        as_bytes.reshape(index.size, 8), axis=1, bitorder="little"))
    return index[rows], procs


class DirectorySystem:
    """Directory-based coherent memory across uniprocessor nodes."""

    def __init__(self, caches: List[DirectMappedCache],
                 network: CrossbarNetwork, counters: Counters, *,
                 total_lines: int, lines_per_page: int,
                 line_bytes: int,
                 hit_cycles: float = 1.0,
                 local_miss_cycles: int = 20,
                 remote_clean_cycles: int = 90,
                 remote_dirty_cycles: int = 130,
                 request_bytes: int = 16) -> None:
        if len(caches) > 64:
            raise ConfigurationError(
                "directory sharer bitmask supports at most 64 processors")
        self.caches = caches
        #: The caches' state as one block; remote copies are downgraded
        #: and invalidated through it, as (proc, line) pairs.
        self.stack = CacheStack(caches)
        self.network = network
        self.counters = counters
        self.num_procs = len(caches)
        self.total_lines = total_lines
        self.lines_per_page = lines_per_page
        self.line_bytes = line_bytes
        self.hit_cycles = hit_cycles
        self.local_miss_cycles = local_miss_cycles
        self.remote_clean_cycles = remote_clean_cycles
        self.remote_dirty_cycles = remote_dirty_cycles
        self.request_bytes = request_bytes
        self.owner = np.full(total_lines, -1, dtype=np.int32)
        self.sharers = np.zeros(total_lines, dtype=np.uint64)
        total_pages = max(1, total_lines // lines_per_page)
        self._page_home = np.full(total_pages, -1, dtype=np.int32)
        #: Online directory/SWMR checker (repro.check); None unless
        #: armed.
        cfg = active_check_config()
        self.checker = (DirectoryChecker(self, cfg)
                        if cfg is not None else None)

    # ------------------------------------------------------------------
    def home_of(self, lines: np.ndarray) -> np.ndarray:
        """Home node of each line (first-touch page placement).

        A page's home is the first node that accesses it — the
        standard NUMA placement of the era, which lands
        band-partitioned data (SOR's grid, Water's molecule array) at
        its owner regardless of how partitions align with pages.
        """
        return self._page_home[lines // self.lines_per_page]

    def _claim_homes(self, proc: int, lines: np.ndarray) -> np.ndarray:
        """First-touch: unplaced pages become local to the toucher.

        Returns the (now all placed) home of each line.
        """
        pages = lines // self.lines_per_page
        homes = self._page_home[pages]
        unset = homes < 0
        if unset.any():
            self._page_home[pages[unset]] = proc
            homes[unset] = proc
        return homes

    def _charge_ports(self, proc: int, homes: np.ndarray,
                      now: int) -> int:
        """Occupy crossbar ports for one line transfer per home given.

        Requests leave the requester; responses converge on it; each
        involved home's output port carries its share.
        """
        counts = np.bincount(homes, minlength=self.num_procs)
        counts[proc] = 0
        n_remote = int(counts.sum())
        if n_remote == 0:
            return now
        remote = np.flatnonzero(counts)
        return self._charge_remote(
            proc, zip(remote.tolist(), counts[remote].tolist()),
            n_remote, now)

    def _charge_remote(self, proc: int, per_home: Iterable[Tuple[int, int]],
                       n_remote: int, now: int) -> int:
        """Occupy the ports for ``n_remote`` line transfers, ``(home,
        count)`` in ascending home order; returns the end time."""
        wire_line = self.network.wire_cycles(self.line_bytes)
        wire_req = self.network.wire_cycles(self.request_bytes)
        self.counters.network_hops += 2 * n_remote
        _s, end = self.network.out_ports[proc].acquire(
            now, wire_req * n_remote)
        for home, count in per_home:
            _s, h_end = self.network.out_ports[home].acquire(
                now, wire_line * count)
            end = max(end, h_end)
        _s, in_end = self.network.in_ports[proc].acquire(
            now, wire_line * n_remote)
        return max(end, in_end)

    def _classify(self, proc: int, lines: np.ndarray, homes: np.ndarray):
        """``(local, dirty_remote)`` masks; the rest are remote-clean."""
        own = self.owner[lines]
        dirty_remote = (own >= 0) & (own != proc)
        return (homes == proc) & ~dirty_remote, dirty_remote

    # ------------------------------------------------------------------
    def read(self, proc: int, first_line: int, last_line: int,
             now: int) -> int:
        """Bulk read; returns the completion time."""
        cache = self.caches[proc]
        res = cache.read(first_line, last_line)
        self.counters.cache_hits += res.hits
        latency = int(res.hits * self.hit_cycles)
        if res.misses == 0 and res.writebacks == 0:
            return now + latency

        lines = res.miss_lines
        homes = self._claim_homes(proc, lines)
        local, dirty_remote = self._classify(proc, lines, homes)
        n_local = int(np.count_nonzero(local))
        n_dirty = int(np.count_nonzero(dirty_remote))
        latency += (n_local * self.local_miss_cycles +
                    (lines.size - n_local - n_dirty) *
                    self.remote_clean_cycles +
                    n_dirty * self.remote_dirty_cycles)
        self.counters.cache_misses_local += n_local
        self.counters.cache_misses_remote += lines.size - n_local

        # Owned (E/M) third-party copies are downgraded to SHARED and
        # dirty data is supplied cache-to-cache / written back.
        if n_dirty:
            owned_lines = lines[dirty_remote]
            owners = self.owner[owned_lines]
            dirty = self.stack.downgrade(owners, owned_lines)
            self.counters.writebacks += dirty
            self.counters.cache_to_cache += dirty
            self.sharers[owned_lines] |= _BITS[owners]
            self.owner[owned_lines] = -1

        # Register sharing; a line nobody else holds fills EXCLUSIVE
        # and takes directory ownership, so the later silent E -> M
        # upgrade is already covered.
        unshared = lines[(self.sharers[lines] == 0) &
                         (self.owner[lines] == -1)]
        self.sharers[lines] |= _BITS[proc]
        if unshared.size:
            cache.promote(unshared, EXCLUSIVE)
            self.owner[unshared] = proc
        self._handle_evictions(proc, res)

        end = self._charge_ports(proc, homes, now + latency)
        if self.checker is not None:
            self.checker.after_op("read", proc, end, lines=lines)
        return end

    def write(self, proc: int, first_line: int, last_line: int,
              now: int) -> int:
        """Bulk write; returns the completion time."""
        if last_line - first_line <= directcache.SHORT_SPAN_LINES:
            return self._write_short(proc, first_line, last_line, now)
        cache = self.caches[proc]
        res = cache.write(first_line, last_line)
        self.counters.cache_hits += res.hits
        latency = int(res.hits * self.hit_cycles)
        need_own = (np.concatenate([res.miss_lines, res.upgrade_lines])
                    if res.upgrade_lines.size else res.miss_lines)
        if need_own.size == 0 and res.writebacks == 0:
            return now + latency

        homes = self._claim_homes(proc, need_own)
        local, dirty_remote = self._classify(proc, need_own, homes)
        others = self.sharers[need_own] & ~_BITS[proc]

        # Lines with other sharers or a dirty owner pay the long
        # latency class; clean exclusive-to-us lines pay their home's.
        expensive = dirty_remote | (others != 0)
        n_expensive = int(np.count_nonzero(expensive))
        n_local = int(np.count_nonzero(local & ~expensive))
        n_remote_clean = need_own.size - n_expensive - n_local
        latency += (n_expensive * self.remote_dirty_cycles +
                    n_local * self.local_miss_cycles +
                    n_remote_clean * self.remote_clean_cycles)
        self.counters.cache_misses_local += n_local
        self.counters.cache_misses_remote += n_expensive + n_remote_clean

        # Invalidate every other copy.  A dirty owner is its line's
        # one sharer, so the sharer bits name every pair; what the
        # owner holds is also written back.
        if n_expensive:
            index, procs = sharer_pairs(others)
            self.counters.invalidations += index.size
            self.stack.invalidate(procs, need_own[index])
            self.counters.writebacks += int(
                np.count_nonzero(dirty_remote))

        self.owner[need_own] = proc
        self.sharers[need_own] = _BITS[proc]
        self._handle_evictions(proc, res)

        end = self._charge_ports(proc, homes, now + latency)
        if self.checker is not None:
            self.checker.after_op("write", proc, end, lines=need_own)
        return end

    # ------------------------------------------------------------------
    def _handle_evictions(self, proc: int, res: AccessResult) -> None:
        """Deregister evicted lines (dirty ones write back to home).

        A bulk access longer than the cache may evict a line in one
        chunk and refetch it in a later chunk of the same access; such
        a line ends the access resident, so its registration (done
        before this call) must survive even though the interim
        eviction's writeback traffic is real.  Clean EXCLUSIVE victims
        drop directory ownership like dirty ones.
        """
        self.counters.writebacks += res.writebacks
        for evicted in (res.evicted_dirty_lines, res.evicted_clean_lines):
            if evicted.size:
                refetched, _dirty = self.caches[proc].probe_lines(evicted)
                gone = evicted[~refetched]
                self.owner[gone[self.owner[gone] == proc]] = -1
                self.sharers[gone] &= ~_BITS[proc]

    def _write_short(self, proc: int, first_line: int, last_line: int,
                     now: int) -> int:
        """:meth:`write` line by line, for a short span."""
        hits, misses, upgrades, dirty_victims, clean_victims = (
            self.caches[proc].access_short(first_line, last_line, True))
        self.counters.cache_hits += hits
        latency = int(hits * self.hit_cycles)
        need_own = misses + upgrades
        if not need_own and not dirty_victims:
            return now + latency

        page_home, owner, sharers = self._page_home, self.owner, self.sharers
        tags, states = self.stack.tags, self.stack.states
        bit = 1 << proc
        n_expensive = n_local = n_dirty = n_pairs = 0
        remote = {}
        for line in need_own:
            page = line // self.lines_per_page
            home = page_home.item(page)
            if home < 0:
                page_home[page] = home = proc
            own = owner.item(line)
            dirty_remote = own >= 0 and own != proc
            others = sharers.item(line) & ~bit
            if others or dirty_remote:
                # The sharer bits name every other copy (a dirty owner
                # is its line's one sharer); invalidate them all.
                n_expensive += 1
                n_dirty += dirty_remote
                s = line % self.stack.num_sets
                while others:
                    low = others & -others
                    q = low.bit_length() - 1
                    others ^= low
                    n_pairs += 1
                    if tags.item(q, s) == line:
                        states[q, s] = INVALID
                        tags[q, s] = -1
            elif home == proc:
                n_local += 1
            if home != proc:
                remote[home] = remote.get(home, 0) + 1
            owner[line] = proc
            sharers[line] = bit
        n_remote_clean = len(need_own) - n_expensive - n_local
        latency += (n_expensive * self.remote_dirty_cycles +
                    n_local * self.local_miss_cycles +
                    n_remote_clean * self.remote_clean_cycles)
        self.counters.cache_misses_local += n_local
        self.counters.cache_misses_remote += n_expensive + n_remote_clean
        self.counters.invalidations += n_pairs
        self.counters.writebacks += n_dirty + len(dirty_victims)

        for evicted in (dirty_victims, clean_victims):
            for line in evicted:
                if tags.item(proc, line % self.stack.num_sets) != line:
                    if owner.item(line) == proc:
                        owner[line] = -1
                    sharers[line] = sharers.item(line) & ~bit

        end = now + latency
        if remote:
            end = self._charge_remote(proc, sorted(remote.items()),
                                      sum(remote.values()), end)
        if self.checker is not None:
            self.checker.after_op("write", proc, end,
                                  lines=np.array(need_own, dtype=np.int64))
        return end

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Directory/cache agreement (used by tests).

        A line with an owner has exactly that sharer bit set; a cache
        line in MODIFIED state is registered as owned by that cache;
        every resident line has its holder's sharer bit set.
        """
        owned = np.flatnonzero(self.owner >= 0)
        if (self.sharers[owned] != _BITS[self.owner[owned]]).any():
            raise AssertionError("owned lines must have a single sharer")
        procs, sets = np.nonzero(self.stack.states != INVALID)
        lines = self.stack.tags[procs, sets]
        modified = self.stack.states[procs, sets] == MODIFIED
        if (self.owner[lines[modified]] != procs[modified]).any():
            raise AssertionError("a MODIFIED line must be owned by its cache")
        if ((self.sharers[lines] & _BITS[procs]) == 0).any():
            raise AssertionError("a resident line must have its sharer bit")
