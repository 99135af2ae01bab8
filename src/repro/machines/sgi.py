"""The SGI 4D/480 bus-based snooping multiprocessor (§2.2).

Eight 40 MHz processors, each with a 1 MB write-back second-level
cache, kept coherent with the Illinois protocol over a 64-bit shared
bus.  Synchronization is ordinary shared-memory (test-and-set locks,
counter barriers) whose transactions serialize through the bus.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.snoop import SnoopingSystem
from repro.hw.sync import make_hw_sync
from repro.machines.base import HardwareRuntime, Machine
from repro.machines.params import SgiParams
from repro.mem.directcache import DirectMappedCache
from repro.mem.layout import AddressSpace, Geometry
from repro.net.bus import BusModel
from repro.sim.engine import Engine
from repro.stats.counters import Counters


class SgiMachine(Machine):
    """The SGI 4D/480."""

    def __init__(self, params: Optional[SgiParams] = None,
                 **variants) -> None:
        self.params = params or SgiParams()
        super().__init__("sgi", **variants)

    @property
    def clock_hz(self) -> float:
        """MIPS R3000 clock (SgiParams)."""
        return self.params.clock_hz

    def geometry(self) -> Geometry:
        """Pages exist only for address layout; the bus moves lines."""
        return Geometry(self.params.page_bytes, self.params.line_bytes)

    def max_procs(self) -> int:
        """The 4D/480 tops out at 8 processors."""
        return self.params.max_procs

    def build_runtime(self, engine: Engine, space: AddressSpace,
                      counters: Counters, nprocs: int) -> HardwareRuntime:
        """Assemble L2 caches, the shared bus, and snooping coherence."""
        p = self.params
        caches = [DirectMappedCache(p.l2_bytes, p.line_bytes, name=f"l2.{i}")
                  for i in range(nprocs)]
        bus = BusModel("sgi.bus", p.bus, counters, tracer=engine.tracer)
        snoop = SnoopingSystem(
            caches, bus, counters,
            line_bytes=p.line_bytes,
            hit_cycles=p.l2_hit_cycles,
            memory_extra_cycles=p.memory_extra_cycles,
        )
        # Sync ops serialize on the bus; a combining policy is
        # Sequent-style fetch-and-add at the memory controller.
        locks, barrier = make_hw_sync(
            self.sync, engine, nprocs, p, counters,
            serializer=bus.resource,
            combine_cycles=p.lock_release_cycles)
        return HardwareRuntime(engine, space, counters, nprocs,
                               coherence=snoop, locks=locks,
                               barrier=barrier)
