"""The simulated all-hardware (AH) architecture of §3.1.

Uniprocessor nodes on a crossbar with a full-map directory protocol.
Misses are serviced in 20 cycles locally and 90-130 cycles remotely,
DASH/FLASH-class numbers.  Locks and barriers are shared-memory
algorithms whose critical accesses serialize at a home node.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.directory import DirectorySystem
from repro.hw.sync import make_hw_sync
from repro.machines.base import HardwareRuntime, Machine
from repro.machines.params import AhParams
from repro.mem.directcache import DirectMappedCache
from repro.mem.layout import AddressSpace, Geometry
from repro.net.crossbar import CrossbarNetwork
from repro.sim.engine import Engine
from repro.sim.resource import Resource
from repro.stats.counters import Counters


class AllHardwareMachine(Machine):
    """AH: uniprocessor nodes + crossbar + directory coherence."""

    def __init__(self, params: Optional[AhParams] = None,
                 **variants) -> None:
        self.params = params or AhParams()
        super().__init__("ah", **variants)

    @property
    def clock_hz(self) -> float:
        """Simulated node clock (AhParams)."""
        return self.params.clock_hz

    def geometry(self) -> Geometry:
        """AH pages exist only for address layout; lines do the work."""
        return Geometry(self.params.page_bytes, self.params.cpu.line_bytes)

    def max_procs(self) -> int:
        """Directory sharer bitmask width."""
        return 64

    def build_runtime(self, engine: Engine, space: AddressSpace,
                      counters: Counters, nprocs: int) -> HardwareRuntime:
        """Assemble caches, crossbar, directory, and hardware sync."""
        p = self.params
        caches = [DirectMappedCache(p.cpu.cache_bytes, p.cpu.line_bytes,
                                    name=f"c{i}") for i in range(nprocs)]
        network = CrossbarNetwork(
            engine, nprocs,
            bandwidth_bytes_per_sec=p.crossbar_bandwidth_bytes,
            latency_cycles=p.crossbar_latency_cycles,
            clock_hz=p.clock_hz,
            counters=counters,
        )
        directory = DirectorySystem(
            caches, network, counters,
            total_lines=space.total_lines,
            lines_per_page=space.geometry.lines_per_page(),
            line_bytes=p.cpu.line_bytes,
            hit_cycles=p.cpu.hit_cycles,
            local_miss_cycles=p.local_miss_cycles,
            remote_clean_cycles=p.remote_clean_cycles,
            remote_dirty_cycles=p.remote_dirty_cycles,
        )
        # Sync ops serialize at a home port; a combining policy merges
        # bursts there, a merged op costing one crossbar transit.
        locks, barrier = make_hw_sync(
            self.sync, engine, nprocs, p, counters,
            serializer=Resource("ah.sync_home"),
            combine_cycles=p.crossbar_latency_cycles)
        return HardwareRuntime(engine, space, counters, nprocs,
                               coherence=directory, locks=locks,
                               barrier=barrier, miss_span="dir")
