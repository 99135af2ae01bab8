"""The hardware-software (HS) architecture of §3.1.

Bus-based multiprocessor nodes connected by a general-purpose network.
Within a node, conventional bus snooping keeps the processors
coherent; between nodes, the TreadMarks LRC protocol runs at node
granularity.  The DSM treats all processors of a node as one:

* page faults by co-resident processors on the same page coalesce,
* their modifications merge into a single per-node diff,
* barriers arrive hierarchically (a node counter, then one message
  from the last processor), and
* a lock whose token already rests at the node hands off with no
  messages at all.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dsm.bound import BoundMode
from repro.dsm.protocol import TreadMarksDsm
from repro.errors import ConfigurationError
from repro.machines.base import Runtime
from repro.machines.params import HsParams
from repro.machines.software import SoftwareDsmMachine
from repro.hw.snoop import SnoopingSystem
from repro.mem.directcache import DirectMappedCache
from repro.mem.layout import AddressSpace, Geometry
from repro.net.atm import AtmNetwork
from repro.net.bus import BusModel
from repro.sim.engine import Engine
from repro.sim.task import ProcTask
from repro.stats.counters import Counters
from repro.trace.tracer import Category


class HybridRuntime(Runtime):
    """Operation dispatch for SMP-node + DSM machines."""

    def __init__(self, engine: Engine, space: AddressSpace,
                 counters: Counters, nprocs: int, *,
                 params: HsParams, net: AtmNetwork,
                 dsm: TreadMarksDsm, num_nodes: int) -> None:
        super().__init__(engine, space, counters, nprocs,
                         bound_mode=BoundMode.LAZY)
        self.params = params
        self.net = net
        self.dsm = dsm
        self.num_nodes = num_nodes
        self.ppn = params.procs_per_node
        dsm.page_refreshed_hook = self._page_refreshed

        self.node_procs: List[List[int]] = [[] for _ in range(num_nodes)]
        for proc in range(nprocs):
            self.node_procs[self.node_of(proc)].append(proc)

        self.caches = [
            DirectMappedCache(params.cpu.cache_bytes, params.cpu.line_bytes,
                              name=f"p{p}") for p in range(nprocs)
        ]
        self.node_snoops: List[SnoopingSystem] = []
        for node in range(num_nodes):
            bus = BusModel(f"hs.bus[{node}]", params.node_bus, counters,
                           tracer=engine.tracer)
            members = [self.caches[p] for p in self.node_procs[node]]
            self.node_snoops.append(SnoopingSystem(
                members, bus, counters,
                line_bytes=params.cpu.line_bytes,
                hit_cycles=params.cpu.hit_cycles,
                memory_extra_cycles=params.node_memory_extra_cycles,
                hold_bus_during_memory=False,
            ))
        # (node, barrier_id) -> list of (proc, task) waiting locally
        self._node_barrier: Dict[Tuple[int, int], List[ProcTask]] = {}

    def finish_run(self) -> None:
        """Close the DSM and per-node snoop checkers."""
        if self.dsm.checker is not None:
            self.dsm.checker.finish()
        for snoop in self.node_snoops:
            if snoop.checker is not None:
                snoop.checker.finish()

    # ------------------------------------------------------------------
    def node_of(self, proc: int) -> int:
        """The SMP node housing processor ``proc``."""
        return proc // self.ppn

    def _local_index(self, proc: int) -> int:
        return self.node_procs[self.node_of(proc)].index(proc)

    def _page_refreshed(self, node: int, page: int) -> None:
        """Remote data landed in node memory: stale cached lines die."""
        lpp = self.space.geometry.lines_per_page()
        self.node_snoops[node].stack.invalidate_range(
            page * lpp, (page + 1) * lpp)

    # ------------------------------------------------------------------
    def do_read(self, task: ProcTask, addr: int, nbytes: int) -> None:
        """DSM fetches the page to the node, then the bus snoops."""
        proc = task.proc_id
        node = self.node_of(proc)
        first, last = self.space.geometry.line_span(addr, nbytes)

        def after(time: int) -> None:
            end = self.node_snoops[node].read(
                self._local_index(proc), first, last, time)
            task.resume(end)

        self.dsm.read(node, addr, nbytes, after)

    def do_write(self, task: ProcTask, addr: int, nbytes: int,
                 changed_bytes: int) -> None:
        """DSM twins the page per node, then the bus orders the write."""
        proc = task.proc_id
        node = self.node_of(proc)
        first, last = self.space.geometry.line_span(addr, nbytes)

        def after(time: int) -> None:
            end = self.node_snoops[node].write(
                self._local_index(proc), first, last, time)
            task.resume(end)

        self.dsm.write(node, addr, nbytes, changed_bytes, after)

    # ------------------------------------------------------------------
    def do_acquire(self, task: ProcTask, lock: int) -> None:
        """Node-granularity DSM lock; co-resident handoff is free."""
        proc = task.proc_id
        self.dsm.acquire(lock, self.node_of(proc), proc,
                         self.then_sync_point(task))

    def do_release(self, task: ProcTask, lock: int) -> None:
        """Release through the DSM (per-node diffs ride along)."""
        proc = task.proc_id
        self.dsm.release(lock, self.node_of(proc), proc, task.resume)

    # ------------------------------------------------------------------
    def do_barrier(self, task: ProcTask, barrier_id: int) -> None:
        """Hierarchical barrier: node counter, then one DSM arrival."""
        proc = task.proc_id
        node = self.node_of(proc)
        key = (node, barrier_id)
        waiting = self._node_barrier.setdefault(key, [])
        waiting.append(task)
        if len(waiting) < len(self.node_procs[node]):
            return

        # Last processor on the node: send the node-level arrival.
        del self._node_barrier[key]
        intra = self.params.intra_barrier_cycles * len(waiting)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant(proc, Category.SYNC, "node_barrier_full",
                           self.engine.now, track=f"node{node}.dsm",
                           barrier=barrier_id, procs=len(waiting))

        def departed(time: int) -> None:
            for i, member in enumerate(waiting):
                at = time + self.params.intra_barrier_cycles * (i + 1)
                self.sync_point(member.proc_id, at)
                member.resume(at)

        self.engine.schedule(
            intra, self.dsm.barrier_arrive, barrier_id, node, departed)


class HybridMachine(SoftwareDsmMachine):
    """HS: bus-based SMP nodes + software DSM between nodes."""

    def __init__(self, params: Optional[HsParams] = None,
                 **variants) -> None:
        self.params = params or HsParams()
        super().__init__(f"hs{self.params.procs_per_node}", **variants)

    @property
    def clock_hz(self) -> float:
        """Simulated node clock (HsParams)."""
        return self.params.clock_hz

    def geometry(self) -> Geometry:
        """DSM pages between nodes, bus lines within them."""
        return Geometry(self.params.page_bytes, self.params.cpu.line_bytes)

    def build_runtime(self, engine: Engine, space: AddressSpace,
                      counters: Counters, nprocs: int) -> HybridRuntime:
        """Assemble per-node buses plus the node-granularity DSM."""
        p = self.params
        num_nodes = (nprocs + p.procs_per_node - 1) // p.procs_per_node
        if num_nodes < 1:
            raise ConfigurationError("HS machine needs at least one node")
        net = AtmNetwork(
            engine, num_nodes,
            bandwidth_bytes_per_sec=p.bandwidth_bytes,
            switch_latency_cycles=p.network_latency_cycles,
            clock_hz=p.clock_hz,
            overhead=p.overhead(),
            counters=counters,
            header_bytes=p.header_bytes,
            handler_servers=min(p.procs_per_node, nprocs),
        )
        net, dsm = self.build_dsm(
            net, space, p.overhead(), num_nodes=num_nodes,
            page_bytes=p.page_bytes,
            local_grant_cycles=p.lock_handoff_cycles)
        runtime = HybridRuntime(engine, space, counters, nprocs,
                                params=p, net=net, dsm=dsm,
                                num_nodes=num_nodes)
        # A node crash takes every co-resident processor with it.
        self.arm_recovery(
            runtime, procs_of=lambda node: runtime.node_procs[node])
        return runtime
