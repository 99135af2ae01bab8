"""Reference coherence model: the per-cache loops the kernel replaced.

``repro.mem.directcache.CacheStack`` resolves every peer cache of a
coherence domain in one vectorized pass.  This module keeps the code
it replaced — one Python iteration per peer cache, ``arange % num_sets``
indexing, cache-sized chunks from the first line — as an independent
oracle: same constructor signatures, own arrays per cache, no checker
and no tracer.  ``test_coherence_differential.py`` drives both with the
same scripts and demands equal times, cache state, directory state and
counters after every operation.  Nothing here may import the code
under test beyond the MESI constants.
"""

from __future__ import annotations

import numpy as np

from repro.mem.directcache import EXCLUSIVE, INVALID, MODIFIED, SHARED

_EMPTY = np.empty(0, dtype=np.int64)


def _concat(parts):
    parts = [p for p in parts if p.size]
    return np.concatenate(parts) if parts else _EMPTY


class ReferenceAccess:
    """What one bulk access found, as plain attributes."""

    def __init__(self):
        self.hits = 0
        self.miss_lines = self.upgrade_lines = _EMPTY
        self.evicted_dirty_lines = self.evicted_clean_lines = _EMPTY


class ReferenceCache:
    """Direct-mapped cache resolving ranges by fancy-indexed chunks."""

    def __init__(self, cache_bytes, line_bytes, name="cache"):
        self.name = name
        self.line_bytes = line_bytes
        self.num_sets = cache_bytes // line_bytes
        self.tags = np.full(self.num_sets, -1, dtype=np.int64)
        self.states = np.zeros(self.num_sets, dtype=np.uint8)

    def _present(self, sets, lines):
        return (self.tags[sets] == lines) & (self.states[sets] != INVALID)

    def access(self, first_line, last_line, write):
        result = ReferenceAccess()
        misses, upgrades, dirty_victims, clean_victims = [], [], [], []
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
            dirty_victims.append(old_tags[conflict & (old_states == MODIFIED)])
            clean_victims.append(old_tags[conflict & (old_states != MODIFIED)])
            if write:
                upgrades.append(lines[present & (old_states == SHARED)])
                self.tags[sets] = lines
                self.states[sets] = MODIFIED
            else:
                miss_sets = sets[~present]
                self.tags[miss_sets] = lines[~present]
                self.states[miss_sets] = SHARED
            chunk_start = chunk_end
        result.miss_lines = _concat(misses)
        result.upgrade_lines = _concat(upgrades)
        result.evicted_dirty_lines = _concat(dirty_victims)
        result.evicted_clean_lines = _concat(clean_victims)
        return result

    def promote(self, lines, state):
        sets = lines % self.num_sets
        self.states[sets[self.tags[sets] == lines]] = state

    def probe_lines(self, lines):
        sets = lines % self.num_sets
        present = self._present(sets, lines)
        return present, present & (self.states[sets] == MODIFIED)

    def downgrade_lines(self, lines):
        sets = lines % self.num_sets
        present = self._present(sets, lines)
        dirty = present & (self.states[sets] == MODIFIED)
        self.states[sets[present & (self.states[sets] >= EXCLUSIVE)]] = SHARED
        return int(np.count_nonzero(present)), int(np.count_nonzero(dirty))

    def invalidate_lines(self, lines):
        sets = lines % self.num_sets
        present = self._present(sets, lines)
        dirty = present & (self.states[sets] == MODIFIED)
        self.states[sets[present]] = INVALID
        self.tags[sets[present]] = -1
        return int(np.count_nonzero(present)), int(np.count_nonzero(dirty))


class ReferenceSnoopingSystem:
    """Illinois snooping, one loop iteration per peer cache."""

    def __init__(self, caches, bus, counters, *, line_bytes,
                 hit_cycles=1.0, memory_extra_cycles=10,
                 hold_bus_during_memory=True):
        self.caches = caches
        self.bus = bus
        self.counters = counters
        self.line_bytes = line_bytes
        self.hit_cycles = hit_cycles
        self.memory_extra_cycles = memory_extra_cycles
        self.hold_bus_during_memory = hold_bus_during_memory

    def _miss_service(self, now, n_fills, n_writebacks, n_upgrades):
        end = now
        if n_fills + n_writebacks:
            per = self.bus.timing.transaction_cycles(self.line_bytes)
            trailing = 0
            if self.hold_bus_during_memory:
                per += self.memory_extra_cycles
            else:
                trailing = self.memory_extra_cycles * n_fills
            _s, end = self.bus.resource.acquire(
                now, per * (n_fills + n_writebacks))
            end += trailing
            self.bus.counters.bus_transactions += n_fills + n_writebacks
            self.bus.counters.bus_data_bytes += (
                (n_fills + n_writebacks) * self.line_bytes)
        if n_upgrades:
            per = self.bus.timing.transaction_cycles(0)
            _s, end2 = self.bus.resource.acquire(max(now, end),
                                                 per * n_upgrades)
            self.bus.counters.bus_transactions += n_upgrades
            end = max(end, end2)
        return end

    def read(self, proc, first_line, last_line, now):
        cache = self.caches[proc]
        res = cache.access(first_line, last_line, False)
        self.counters.cache_hits += res.hits
        hit_cost = int(res.hits * self.hit_cycles)
        n_miss = res.miss_lines.size
        n_wb = res.evicted_dirty_lines.size
        if n_miss == 0 and n_wb == 0:
            return now + hit_cost
        any_present = np.zeros(n_miss, dtype=bool)
        any_dirty = np.zeros(n_miss, dtype=bool)
        for q, other in enumerate(self.caches):
            if q != proc:
                present, dirty = other.probe_lines(res.miss_lines)
                any_present |= present
                any_dirty |= dirty
        self.counters.cache_to_cache += int(np.count_nonzero(any_dirty))
        self.counters.cache_misses_local += n_miss
        for q, other in enumerate(self.caches):
            if q != proc:
                other.downgrade_lines(res.miss_lines)
        cache.promote(res.miss_lines[~any_present], EXCLUSIVE)
        end = self._miss_service(now + hit_cost, n_miss, n_wb, 0)
        self.counters.writebacks += n_wb
        return end

    def write(self, proc, first_line, last_line, now):
        cache = self.caches[proc]
        res = cache.access(first_line, last_line, True)
        self.counters.cache_hits += res.hits
        hit_cost = int(res.hits * self.hit_cycles)
        self.counters.cache_misses_local += res.miss_lines.size
        need_own = np.concatenate([res.miss_lines, res.upgrade_lines])
        n_flush = 0
        if need_own.size:
            for q, other in enumerate(self.caches):
                if q != proc:
                    present, dirty = other.invalidate_lines(need_own)
                    self.counters.invalidations += present
                    n_flush += dirty
        end = self._miss_service(now + hit_cost,
                                 res.miss_lines.size + n_flush,
                                 res.evicted_dirty_lines.size,
                                 res.upgrade_lines.size)
        self.counters.writebacks += res.evicted_dirty_lines.size
        return end


_BYTE_POPCOUNT = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)


def _popcount(values):
    as_bytes = values.view(np.uint8).reshape(values.size, 8)
    return _BYTE_POPCOUNT[as_bytes].sum(axis=1)


def _bit(proc):
    return np.uint64(1) << np.uint64(proc)


class ReferenceDirectorySystem:
    """Full-map directory, one loop iteration per sharer bit and owner."""

    def __init__(self, caches, network, counters, *, total_lines,
                 lines_per_page, line_bytes, hit_cycles=1.0,
                 local_miss_cycles=20, remote_clean_cycles=90,
                 remote_dirty_cycles=130, request_bytes=16):
        self.caches = caches
        self.network = network
        self.counters = counters
        self.num_procs = len(caches)
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

    def home_of(self, lines):
        return self._page_home[lines // self.lines_per_page]

    def _claim_homes(self, proc, lines):
        pages = lines // self.lines_per_page
        unset = self._page_home[pages] < 0
        self._page_home[pages[unset]] = proc

    def _charge_ports(self, proc, lines, now):
        homes = self.home_of(lines)
        remote = homes != proc
        n_remote = int(np.count_nonzero(remote))
        if n_remote == 0:
            return now
        wire_line = self.network.wire_cycles(self.line_bytes)
        wire_req = self.network.wire_cycles(self.request_bytes)
        self.counters.network_hops += 2 * n_remote
        _s, end = self.network.out_ports[proc].acquire(
            now, wire_req * n_remote)
        counts = np.bincount(homes[remote], minlength=self.num_procs)
        for home in np.flatnonzero(counts):
            _s, h_end = self.network.out_ports[home].acquire(
                now, wire_line * int(counts[home]))
            end = max(end, h_end)
        _s, in_end = self.network.in_ports[proc].acquire(
            now, wire_line * n_remote)
        return max(end, in_end)

    def _classify(self, proc, lines):
        own = self.owner[lines]
        dirty_remote = (own >= 0) & (own != proc)
        homes = self.home_of(lines)
        local = (homes == proc) & ~dirty_remote
        remote_clean = (homes != proc) & ~dirty_remote
        return local, remote_clean, dirty_remote

    def read(self, proc, first_line, last_line, now):
        cache = self.caches[proc]
        res = cache.access(first_line, last_line, False)
        self.counters.cache_hits += res.hits
        latency = int(res.hits * self.hit_cycles)
        lines = res.miss_lines
        if lines.size == 0 and res.evicted_dirty_lines.size == 0:
            return now + latency
        self._claim_homes(proc, lines)
        local, remote_clean, dirty_remote = self._classify(proc, lines)
        n_local = int(np.count_nonzero(local))
        latency += (n_local * self.local_miss_cycles +
                    int(np.count_nonzero(remote_clean)) *
                    self.remote_clean_cycles +
                    int(np.count_nonzero(dirty_remote)) *
                    self.remote_dirty_cycles)
        self.counters.cache_misses_local += n_local
        self.counters.cache_misses_remote += int(
            np.count_nonzero(remote_clean | dirty_remote))
        owned_lines = lines[dirty_remote]
        if owned_lines.size:
            owners = self.owner[owned_lines]
            for q in np.unique(owners):
                q_lines = owned_lines[owners == q]
                _present, dirty = self.caches[int(q)].downgrade_lines(
                    q_lines)
                self.counters.writebacks += dirty
                self.counters.cache_to_cache += dirty
                self.sharers[q_lines] |= _bit(int(q))
            self.owner[owned_lines] = -1
        unshared = lines[(self.sharers[lines] == 0) &
                         (self.owner[lines] == -1)]
        self.sharers[lines] |= _bit(proc)
        if unshared.size:
            cache.promote(unshared, EXCLUSIVE)
            self.owner[unshared] = proc
        self._handle_evictions(proc, res)
        return max(now + latency,
                   self._charge_ports(proc, lines, now + latency))

    def write(self, proc, first_line, last_line, now):
        cache = self.caches[proc]
        res = cache.access(first_line, last_line, True)
        self.counters.cache_hits += res.hits
        latency = int(res.hits * self.hit_cycles)
        need_own = np.concatenate([res.miss_lines, res.upgrade_lines])
        if need_own.size == 0 and res.evicted_dirty_lines.size == 0:
            return now + latency
        self._claim_homes(proc, need_own)
        local, remote_clean, dirty_remote = self._classify(proc, need_own)
        others = self.sharers[need_own] & ~_bit(proc)
        n_inval = int(_popcount(others).sum())
        expensive = dirty_remote | (others != 0)
        latency += (int(np.count_nonzero(expensive)) *
                    self.remote_dirty_cycles +
                    int(np.count_nonzero(local & ~expensive)) *
                    self.local_miss_cycles +
                    int(np.count_nonzero(remote_clean & ~expensive)) *
                    self.remote_clean_cycles)
        self.counters.cache_misses_local += int(
            np.count_nonzero(local & ~expensive))
        self.counters.cache_misses_remote += int(
            np.count_nonzero(expensive | (remote_clean & ~expensive)))
        self.counters.invalidations += n_inval
        if n_inval or dirty_remote.any():
            for q in range(self.num_procs):
                if q == proc:
                    continue
                q_lines = need_own[(others & _bit(q)) != 0]
                if q_lines.size:
                    self.caches[q].invalidate_lines(q_lines)
            dirty_lines = need_own[dirty_remote]
            if dirty_lines.size:
                owners = self.owner[dirty_lines]
                for q in np.unique(owners):
                    if int(q) == proc:
                        continue
                    q_lines = dirty_lines[owners == q]
                    self.caches[int(q)].invalidate_lines(q_lines)
                    self.counters.writebacks += int(q_lines.size)
        self.owner[need_own] = proc
        self.sharers[need_own] = _bit(proc)
        self._handle_evictions(proc, res)
        return max(now + latency,
                   self._charge_ports(proc, need_own, now + latency))

    def _handle_evictions(self, proc, res):
        cache = self.caches[proc]
        self.counters.writebacks += int(res.evicted_dirty_lines.size)
        for evicted in (res.evicted_dirty_lines, res.evicted_clean_lines):
            if evicted.size:
                refetched, _dirty = cache.probe_lines(evicted)
                gone = evicted[~refetched]
                mine = gone[self.owner[gone] == proc]
                self.owner[mine] = -1
                self.sharers[gone] &= ~_bit(proc)
