"""The paged software-DSM machine: one processor per node.

This is the shape shared by the experimental TreadMarks platform
(DECstations + ATM, §2.2) and the simulated all-software architecture
(§3.1) — only parameters differ.  Shared accesses go through the LRC
protocol at page granularity; a per-processor direct-mapped cache adds
the local memory-hierarchy cost of each access.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dsm.bound import BoundMode
from repro.dsm.protocol import DsmConfig, TreadMarksDsm
from repro.machines.base import Machine, Runtime, fingerprint_value
from repro.machines.params import LocalCacheParams
from repro.mem import directcache
from repro.mem.directcache import DirectMappedCache
from repro.mem.layout import AddressSpace, Geometry
from repro.net.atm import AtmNetwork
from repro.net.overhead import SoftwareOverhead
from repro.net.reliable import ReliableNetwork
from repro.recover import RecoveryManager
from repro.sim.engine import Engine
from repro.sim.task import ProcTask
from repro.stats.counters import Counters
from repro.trace.tracer import Category


class DsmRuntime(Runtime):
    """Operation dispatch for uniprocessor-node DSM machines."""

    def __init__(self, engine: Engine, space: AddressSpace,
                 counters: Counters, nprocs: int, *,
                 net: AtmNetwork, dsm: TreadMarksDsm,
                 cache_params: LocalCacheParams,
                 bound_mode: BoundMode,
                 bound_push_latency: int) -> None:
        super().__init__(engine, space, counters, nprocs,
                         bound_mode=bound_mode,
                         bound_push_latency=bound_push_latency)
        self.net = net
        self.dsm = dsm
        self.cache_params = cache_params
        self.caches = [
            DirectMappedCache(cache_params.cache_bytes,
                              cache_params.line_bytes, name=f"p{p}")
            for p in range(nprocs)
        ]

    def finish_run(self) -> None:
        if self.dsm.checker is not None:
            self.dsm.checker.finish()

    # ------------------------------------------------------------------
    def _then_local(self, task: ProcTask, addr: int, nbytes: int,
                    write: bool) -> Callable[[int], None]:
        """Continuation of a DSM access: once the pages are valid,
        charge the local memory hierarchy and resume ``task``."""
        proc = task.proc_id
        first, last = self.space.geometry.line_span(addr, nbytes)
        short = last - first <= directcache.SHORT_SPAN_LINES

        def after(time: int) -> None:
            if short:
                hits, miss_lines, *_rest = self.caches[proc].access_short(
                    first, last, write)
                misses = len(miss_lines)
            else:
                res = self.caches[proc].access(first, last, write)
                hits, misses = res.hits, res.misses
            self.counters.cache_hits += hits
            self.counters.cache_misses_local += misses
            cost = (int(hits * self.cache_params.hit_cycles) +
                    misses * self.cache_params.miss_cycles)
            tracer = self.engine.tracer
            if tracer.enabled and cost:
                tracer.complete(proc, Category.MISS, "local_mem",
                                time, time + cost, track=f"p{proc}.mem")
            task.resume(time + cost)

        return after

    def do_read(self, task: ProcTask, addr: int, nbytes: int) -> None:
        self.dsm.read(task.proc_id, addr, nbytes,
                      self._then_local(task, addr, nbytes, write=False))

    def do_write(self, task: ProcTask, addr: int, nbytes: int,
                 changed_bytes: int) -> None:
        self.dsm.write(task.proc_id, addr, nbytes, changed_bytes,
                       self._then_local(task, addr, nbytes, write=True))

    def do_acquire(self, task: ProcTask, lock: int) -> None:
        self.dsm.acquire(lock, task.proc_id, task.proc_id,
                         self.then_sync_point(task))

    def do_release(self, task: ProcTask, lock: int) -> None:
        self.dsm.release(lock, task.proc_id, task.proc_id, task.resume)

    def do_barrier(self, task: ProcTask, barrier_id: int) -> None:
        self.dsm.barrier_arrive(barrier_id, task.proc_id,
                                self.then_sync_point(task))


class SoftwareDsmMachine(Machine):
    """A machine whose nodes are kept coherent by the TreadMarks DSM.

    The one place the variant axes of :class:`Machine` reach a runtime.
    """

    software_dsm = True

    def build_dsm(self, net: AtmNetwork, space: AddressSpace,
                  overhead: SoftwareOverhead, **config):
        """``(net, dsm)`` for one run, this machine's variants applied."""
        if self.faults.enabled:
            net = ReliableNetwork(net, self.faults,
                                  flat_retry=not self.ablate.backoff)
        return net, TreadMarksDsm(net, space, overhead, DsmConfig(
            eager_locks=self.eager_locks, sync=self.sync,
            ablate=self.ablate, **config))

    def arm_recovery(self, runtime: Runtime, procs_of) -> None:
        """Under a crash plan, arm ``runtime``'s recovery manager.

        It kills ``procs_of(node)`` at the node's crash time and
        repairs the DSM stack when the failure is declared.
        """
        if self.faults.crashes:
            manager = RecoveryManager(
                runtime.engine, runtime.net, runtime.dsm, self.faults,
                runtime.counters, procs_of=procs_of)
            runtime.net.recovery = manager
            runtime.recovery = manager
            manager.arm()


class PagedDsmMachine(SoftwareDsmMachine):
    """Configurable uniprocessor-node software DSM machine.

    ``**variants`` are the variant axes of :class:`Machine`.
    """

    def __init__(self, name: str, *, clock_hz: float, page_bytes: int,
                 cache: LocalCacheParams,
                 bandwidth_bytes_per_sec: float,
                 switch_latency_cycles: int,
                 header_bytes: int,
                 overhead: SoftwareOverhead,
                 max_procs: Optional[int] = None,
                 **variants) -> None:
        super().__init__(name, **variants)
        self._clock_hz = clock_hz
        self.page_bytes = page_bytes
        self.cache = cache
        self.bandwidth = bandwidth_bytes_per_sec
        self.switch_latency = switch_latency_cycles
        self.header_bytes = header_bytes
        self.overhead = overhead
        self._max_procs = max_procs

    @property
    def clock_hz(self) -> float:
        return self._clock_hz

    def config_data(self, baseline: bool):
        """Cache identity; the 1-processor baseline is the local machine.

        At one node the DSM engages no remote machinery — no messages
        are sent, the lock token never moves, and the bound is local —
        so none of the protocol/network knobs (overhead preset,
        bandwidth, latency, headers; nor any variant, see
        :meth:`Machine.fingerprint_data`) can affect the run.  The
        paper leans on exactly this (Table 1's DEC and DEC+TreadMarks
        columns coincide), and ``tests/test_parallel.py`` pins it.
        The baseline therefore keeps only the local machine: clock,
        page size, and the processor cache.  Every software-DSM
        machine with the same local machine shares one cached
        baseline.
        """
        data = {
            "class": "PagedDsmMachine",
            "clock_hz": self._clock_hz,
            "page_bytes": self.page_bytes,
            "cache": fingerprint_value(self.cache),
        }
        if baseline:
            data["uniprocessor_baseline"] = True
            return data
        data.update({
            "name": self.name,
            "bandwidth_bytes_per_sec": self.bandwidth,
            "switch_latency_cycles": self.switch_latency,
            "header_bytes": self.header_bytes,
            "overhead": fingerprint_value(self.overhead),
            # Two constants the CACHE_VERSION-5 key schema has always
            # carried for this family (the second was a constructor
            # knob, now ablate="no-diffs").  Kept verbatim so existing
            # cache entries and ledger run_ids stay addressable (drop
            # both at the next CACHE_VERSION bump); a set
            # ``eager_locks`` overwrites the first through the fold.
            "eager_locks": None,
            "use_diffs": True,
        })
        return data

    def geometry(self) -> Geometry:
        return Geometry(self.page_bytes, self.cache.line_bytes)

    def max_procs(self) -> int:
        return self._max_procs if self._max_procs else 1024

    def build_runtime(self, engine: Engine, space: AddressSpace,
                      counters: Counters, nprocs: int) -> DsmRuntime:
        net = AtmNetwork(
            engine, nprocs,
            bandwidth_bytes_per_sec=self.bandwidth,
            switch_latency_cycles=self.switch_latency,
            clock_hz=self.clock_hz,
            overhead=self.overhead,
            counters=counters,
            header_bytes=self.header_bytes,
        )
        net, dsm = self.build_dsm(net, space, self.overhead,
                                  num_nodes=nprocs,
                                  page_bytes=self.page_bytes)
        if self.eager_locks:
            bound_mode = BoundMode.EAGER
            push_latency = net.roundtrip_estimate(256) // 2
        else:
            bound_mode = BoundMode.LAZY
            push_latency = 0
        runtime = DsmRuntime(
            engine, space, counters, nprocs,
            net=net, dsm=dsm, cache_params=self.cache,
            bound_mode=bound_mode, bound_push_latency=push_latency,
        )
        self.arm_recovery(runtime, procs_of=lambda node: [node])
        return runtime
