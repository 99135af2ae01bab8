"""Crossbar interconnect for the all-hardware (AH) architecture.

The paper uses a crossbar "to minimize the effect of network contention
on our results" (§3.1), with Paragon-class point-to-point bandwidth and
sub-microsecond latency.  Transfers occupy the source's output port and
the destination's input port; there is no software overhead — the
directory controller initiates transfers in hardware.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro import units
from repro.sim.engine import Engine
from repro.sim.resource import Resource
from repro.stats.counters import Counters
from repro.sync.combining import in_open_window
from repro.trace.tracer import Category


class CrossbarNetwork:
    """Hardware point-to-point network with per-port contention."""

    def __init__(self, engine: Engine, num_nodes: int, *,
                 bandwidth_bytes_per_sec: float,
                 latency_cycles: int,
                 clock_hz: float,
                 counters: Counters) -> None:
        self.engine = engine
        self.num_nodes = num_nodes
        self.bandwidth = bandwidth_bytes_per_sec
        self.latency = latency_cycles
        self.clock_hz = clock_hz
        self.counters = counters
        self.out_ports = [Resource(f"xbar.out[{i}]")
                          for i in range(num_nodes)]
        self.in_ports = [Resource(f"xbar.in[{i}]") for i in range(num_nodes)]

    def wire_cycles(self, nbytes: int) -> int:
        return units.transfer_cycles(nbytes, self.bandwidth, self.clock_hz)

    def transfer(self, src: int, dst: int, nbytes: int, now: int) -> int:
        """Move ``nbytes`` from node ``src`` to node ``dst``.

        Returns the arrival time.  Same-node transfers are free.
        """
        self.counters.network_hops += 1
        if src == dst:
            return now
        wire = self.wire_cycles(nbytes)
        _ostart, out_done = self.out_ports[src].acquire(now, wire)
        at_dst = out_done + self.latency
        _istart, arrival = self.in_ports[dst].acquire(at_dst, wire)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.complete(src, Category.NETWORK, "xfer",
                            _ostart, arrival, track=f"xbar.out{src}",
                            dst=dst, bytes=nbytes)
        return arrival


class CombiningStage:
    """Fetch-and-op combining in front of a serializing resource.

    The hardware mirror of the software
    :class:`~repro.sync.combining.SwitchCombiner`: atomic operations
    bound for the same location (``key``) whose issue times fall
    inside one combining window merge in the interconnect.  The
    window opener pays the full serialized transaction at the home
    port; followers are answered by the combining stage itself in
    ``combine_cycles``, never touching the shared resource.  On the
    AH machine the resource is the sync home-node port; on the SGI
    model it is the snooping bus (a Sequent-style fetch-and-add at
    the memory controller).

    Windows are keyed by simulated time only — fully deterministic.
    """

    def __init__(self, counters: Counters, *,
                 resource: Optional[Resource],
                 window_cycles: int,
                 combine_cycles: int) -> None:
        if window_cycles < 0 or combine_cycles < 0:
            raise ValueError("combining windows/cycles must be >= 0")
        self.counters = counters
        self.resource = resource
        self.window_cycles = window_cycles
        self.combine_cycles = combine_cycles
        self._windows: Dict[Tuple[object, ...], int] = {}

    def fetch_op(self, key: Tuple[object, ...], now: int,
                 cycles: int) -> int:
        """Issue one atomic op toward ``key``; returns completion time."""
        if in_open_window(self._windows, key, now, self.window_cycles):
            self.counters.combining_hits += 1
            return now + self.combine_cycles
        if self.resource is None:
            return now + cycles
        _start, done = self.resource.acquire(now, cycles)
        return done
