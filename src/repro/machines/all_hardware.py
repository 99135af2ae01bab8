"""The simulated all-hardware (AH) architecture of §3.1.

Uniprocessor nodes on a crossbar with a full-map directory protocol.
Misses are serviced in 20 cycles locally and 90-130 cycles remotely,
DASH/FLASH-class numbers.  Locks and barriers are shared-memory
algorithms whose critical accesses serialize at a home node.
"""

from __future__ import annotations

from typing import Optional

from repro.dsm.bound import BoundMode
from repro.hw.directory import DirectorySystem
from repro.hw.sync import HwBarrier, HwLockTable, make_hw_sync
from repro.machines.base import Machine, Runtime
from repro.machines.params import AhParams
from repro.mem.directcache import DirectMappedCache
from repro.mem.layout import AddressSpace, Geometry
from repro.net.crossbar import CrossbarNetwork
from repro.sim.engine import Engine
from repro.sim.resource import Resource
from repro.sim.task import ProcTask
from repro.stats.counters import Counters
from repro.trace.tracer import Category


class DirectoryRuntime(Runtime):
    """Operation dispatch for the directory machine."""

    def __init__(self, engine: Engine, space: AddressSpace,
                 counters: Counters, nprocs: int, *,
                 directory: DirectorySystem, locks: HwLockTable,
                 barrier: HwBarrier) -> None:
        super().__init__(engine, space, counters, nprocs,
                         bound_mode=BoundMode.HARDWARE)
        self.directory = directory
        self.locks = locks
        self.barrier = barrier

    def do_read(self, task: ProcTask, addr: int, nbytes: int) -> None:
        """Read through the cache; misses go to the directory."""
        first, last = self.space.geometry.line_span(addr, nbytes)
        now = self.engine.now
        end = self.directory.read(task.proc_id, first, last, now)
        tracer = self.engine.tracer
        if tracer.enabled and end > now:
            tracer.complete(task.proc_id, Category.MISS, "dir_read",
                            now, end, track=f"p{task.proc_id}.mem")
        task.resume(end)

    def do_write(self, task: ProcTask, addr: int, nbytes: int,
                 changed_bytes: int) -> None:
        """Write through the cache; the directory invalidates sharers."""
        first, last = self.space.geometry.line_span(addr, nbytes)
        now = self.engine.now
        end = self.directory.write(task.proc_id, first, last, now)
        tracer = self.engine.tracer
        if tracer.enabled and end > now:
            tracer.complete(task.proc_id, Category.MISS, "dir_write",
                            now, end, track=f"p{task.proc_id}.mem")
        task.resume(end)

    def do_acquire(self, task: ProcTask, lock: int) -> None:
        """Acquire through the hardware lock table at the sync home."""
        self.counters.lock_acquires += 1
        self.locks.acquire(lock, task.proc_id, task.resume)

    def do_release(self, task: ProcTask, lock: int) -> None:
        """Release at the lock table; the waiter queue hands off."""
        self.locks.release(lock, task.proc_id, task.resume)

    def do_barrier(self, task: ProcTask, barrier_id: int) -> None:
        """Arrive at the hardware barrier counter."""
        self.barrier.arrive(barrier_id, task.proc_id, task.resume)

    def finish_run(self) -> None:
        """Fold barrier counts into counters; close the checker."""
        self.counters.barriers = self.barrier.completed
        if self.directory.checker is not None:
            self.directory.checker.finish()


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
                      counters: Counters, nprocs: int) -> DirectoryRuntime:
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
        return DirectoryRuntime(engine, space, counters, nprocs,
                                directory=directory, locks=locks,
                                barrier=barrier)
