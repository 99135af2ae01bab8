"""Illinois-protocol snooping coherence on a shared bus.

Models the SGI 4D/480's second-level caches (§2.2): write-back,
direct-mapped, kept coherent by bus snooping with cache-to-cache
supply of dirty lines (the Illinois protocol of Papamarcos & Patel).
The processor blocks on misses, and every miss, upgrade, and writeback
occupies the shared bus — so bus saturation emerges naturally when
several processors stream data, which is exactly the effect that lets
the TreadMarks network outperform the 4D/480 on SOR.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.check.checker import SnoopChecker, active_check_config
from repro.mem import directcache
from repro.mem.directcache import (CacheStack, DirectMappedCache, EXCLUSIVE,
                                   INVALID, MODIFIED)
from repro.net.bus import BusModel
from repro.stats.counters import Counters
from repro.trace.tracer import Category


class SnoopingSystem:
    """A set of caches snooping one bus."""

    def __init__(self, caches: List[DirectMappedCache], bus: BusModel,
                 counters: Counters, *, line_bytes: int,
                 hit_cycles: float = 1.0,
                 memory_extra_cycles: int = 10,
                 hold_bus_during_memory: bool = True) -> None:
        self.caches = caches
        #: The caches' state as one block; every peer operation (and
        #: the HS page refresh) goes through it.
        self.stack = CacheStack(caches)
        self.bus = bus
        self.counters = counters
        self.line_bytes = line_bytes
        self.hit_cycles = hit_cycles
        self.memory_extra_cycles = memory_extra_cycles
        #: Circuit-switched buses (the 4D/480) hold the bus while
        #: memory services the request; split-transaction buses (HS
        #: nodes, which the paper grants "sufficient bus bandwidth to
        #: avoid contention") release it and only the requester waits.
        self.hold_bus_during_memory = hold_bus_during_memory
        #: Online SWMR checker (repro.check); None unless armed.
        cfg = active_check_config()
        self.checker = SnoopChecker(self, cfg) if cfg is not None else None

    # ------------------------------------------------------------------
    def _miss_service(self, now: int, n_fills: int, n_writebacks: int,
                      n_upgrades: int) -> int:
        """Charge the bus for a batch of transactions; returns end time.

        Fill and writeback transactions move a full line; upgrade
        (invalidate) transactions are address-only.  Memory service
        time is charged while the bus is held, 4D/480-style.
        """
        tracer = self.bus.tracer
        end = now
        if n_fills + n_writebacks:
            per = self.bus.timing.transaction_cycles(self.line_bytes)
            trailing = 0
            if self.hold_bus_during_memory:
                per += self.memory_extra_cycles
            else:
                trailing = self.memory_extra_cycles * n_fills
            occupancy = per * (n_fills + n_writebacks)
            _s, end = self.bus.resource.acquire(now, occupancy)
            if tracer.enabled:
                tracer.complete(0, Category.NETWORK, "miss_fill",
                                _s, end, track=self.bus.name,
                                fills=n_fills, writebacks=n_writebacks)
            end += trailing
            self.bus.counters.bus_transactions += n_fills + n_writebacks
            self.bus.counters.bus_data_bytes += (
                (n_fills + n_writebacks) * self.line_bytes)
        if n_upgrades:
            per = self.bus.timing.transaction_cycles(0)
            _s, end2 = self.bus.resource.acquire(max(now, end),
                                                 per * n_upgrades)
            if tracer.enabled:
                tracer.complete(0, Category.NETWORK, "upgrade",
                                _s, end2, track=self.bus.name,
                                upgrades=n_upgrades)
            self.bus.counters.bus_transactions += n_upgrades
            end = max(end, end2)
        return end

    # ------------------------------------------------------------------
    def read(self, proc: int, first_line: int, last_line: int,
             now: int) -> int:
        """Bulk read; returns the completion time."""
        cache = self.caches[proc]
        res = cache.read(first_line, last_line)
        self.counters.cache_hits += res.hits
        hit_cost = int(res.hits * self.hit_cycles)
        if res.misses == 0 and res.writebacks == 0:
            return now + hit_cost

        self.counters.cache_misses_local += res.misses

        # Every peer copy of a missed line is downgraded to SHARED:
        # dirty suppliers flush (memory is updated), and clean
        # EXCLUSIVE holders lose exclusivity — otherwise a later write
        # by them would silently hit on E and break single-writer.
        # Lines nobody else holds fill EXCLUSIVE.
        unshared = res.miss_lines
        rows, cols = self.stack.peer_copies(proc, unshared)
        if rows.size:
            self.counters.cache_to_cache += self.stack.downgrade(
                rows, unshared[cols])
            alone = np.ones(unshared.size, dtype=bool)
            alone[cols] = False
            unshared = unshared[alone]
        cache.promote(unshared, EXCLUSIVE)

        end = self._miss_service(now + hit_cost, res.misses,
                                 res.writebacks, 0)
        self.counters.writebacks += res.writebacks
        if self.checker is not None:
            self.checker.after_op("read", proc, end,
                                  lines=res.miss_lines)
        return end

    def write(self, proc: int, first_line: int, last_line: int,
              now: int) -> int:
        """Bulk write; returns the completion time."""
        if last_line - first_line <= directcache.SHORT_SPAN_LINES:
            return self._write_short(proc, first_line, last_line, now)
        cache = self.caches[proc]
        res = cache.write(first_line, last_line)
        self.counters.cache_hits += res.hits
        hit_cost = int(res.hits * self.hit_cycles)
        self.counters.cache_misses_local += res.misses

        # Invalidate every other copy of missed or upgraded lines;
        # dirty remote copies are flushed (one extra transaction each).
        need_own = (np.concatenate([res.miss_lines, res.upgrade_lines])
                    if res.upgrade_lines.size else res.miss_lines)
        n_flush = 0
        if need_own.size:
            rows, cols = self.stack.peer_copies(proc, need_own)
            if rows.size:
                present, n_flush = self.stack.invalidate(rows, need_own[cols])
                self.counters.invalidations += present

        end = self._miss_service(now + hit_cost,
                                 res.misses + n_flush,
                                 res.writebacks,
                                 res.upgrades)
        self.counters.writebacks += res.writebacks
        if self.checker is not None:
            self.checker.after_op("write", proc, end, lines=need_own)
        return end

    def _write_short(self, proc: int, first_line: int, last_line: int,
                     now: int) -> int:
        """:meth:`write` line by line, for a short span."""
        hits, misses, upgrades, dirty_victims, _clean = (
            self.caches[proc].access_short(first_line, last_line, True))
        self.counters.cache_hits += hits
        hit_cost = int(hits * self.hit_cycles)
        self.counters.cache_misses_local += len(misses)

        need_own = misses + upgrades
        n_flush = present = 0
        tags, states = self.stack.tags, self.stack.states
        for line in need_own:
            s = line % self.stack.num_sets
            column = tags[:, s].tolist()
            column[proc] = -1
            if line not in column:
                continue
            for r, tag in enumerate(column):
                if tag == line:
                    present += 1
                    n_flush += states.item(r, s) == MODIFIED
                    states[r, s] = INVALID
                    tags[r, s] = -1
        self.counters.invalidations += present

        end = self._miss_service(now + hit_cost, len(misses) + n_flush,
                                 len(dirty_victims), len(upgrades))
        self.counters.writebacks += len(dirty_victims)
        if self.checker is not None:
            self.checker.after_op("write", proc, end,
                                  lines=np.array(need_own, dtype=np.int64))
        return end
