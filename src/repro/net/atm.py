"""Point-to-point ATM LAN with a central switch.

Models the Fore ASX-100-style configuration of §2.2: every node has a
full-duplex point-to-point link to a switch, so disjoint node pairs
communicate at full speed simultaneously, while a node's own inbound or
outbound link serializes its traffic.  Message cost decomposes into

* sender CPU (software overhead: kernel entry + copy),
* outbound link occupancy (wire time for payload + header),
* switch latency (cut-through),
* inbound link occupancy at the destination,
* receiver CPU (kernel entry + handler dispatch + copy).

CPU work serializes through a per-node *handler* resource.  The model
does not preempt application compute for message handling (documented
approximation in DESIGN.md §4.5); handler time still lands on the
critical path of every request/response pair, which is what determines
lock/barrier/page-fault latency in TreadMarks.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro import units
from repro.sim.engine import Engine
from repro.sim.resource import MultiResource, Resource
from repro.stats.counters import Counters, DataKind, MsgKind
from repro.net.overhead import SoftwareOverhead
from repro.trace.tracer import Category


class AtmNetwork:
    """A switched point-to-point LAN carrying DSM protocol messages."""

    def __init__(self, engine: Engine, num_nodes: int, *,
                 bandwidth_bytes_per_sec: float,
                 switch_latency_cycles: int,
                 clock_hz: float,
                 overhead: SoftwareOverhead,
                 counters: Counters,
                 header_bytes: int = 40,
                 handler_servers: int = 1) -> None:
        self.engine = engine
        self.num_nodes = num_nodes
        self.bandwidth = bandwidth_bytes_per_sec
        self.switch_latency = switch_latency_cycles
        self.clock_hz = clock_hz
        self.overhead = overhead
        self.counters = counters
        self.header_bytes = header_bytes
        self.out_links = [Resource(f"atm.out[{i}]") for i in range(num_nodes)]
        self.in_links = [Resource(f"atm.in[{i}]") for i in range(num_nodes)]
        # On a multiprocessor node (the HS machine) any of the node's
        # CPUs can field protocol messages, so handler work is a
        # k-server resource rather than a single choke point.
        self.handlers = [MultiResource(f"cpu.handler[{i}]", handler_servers)
                         for i in range(num_nodes)]
        #: ``wire_cycles`` by frame size, filled as frames are sent.
        self._wire: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def wire_cycles(self, nbytes: int) -> int:
        """Link occupancy for a frame of ``nbytes`` (incl. header)."""
        return units.transfer_cycles(nbytes, self.bandwidth, self.clock_hz)

    def send(self, src: int, dst: int, payload_bytes: int, *,
             kind: MsgKind, data_kind: DataKind = DataKind.CONSISTENCY,
             now: Optional[int] = None,
             send_cpu_cycles: Optional[int] = None,
             recv_cpu_cycles: Optional[int] = None,
             on_delivered: Optional[Callable[[int], None]] = None,
             on_abandoned: Optional[Callable[[int], None]] = None) -> int:
        """Send one message; returns the delivery completion time.

        ``on_delivered(time)`` (if given) runs as an engine event at
        the moment the receiver's handler has finished processing the
        message.  Sending to self is free of network cost but still
        passes through the local handler (loopback sanity path).

        ``on_abandoned`` is accepted for interface parity with the
        reliable wrapper and never fires here: a perfect network has
        no crash-stop failures, so no send is ever given up on.

        ``send_cpu_cycles`` / ``recv_cpu_cycles`` override the
        software-overhead CPU charges for this one message; the
        combining switch (:class:`~repro.sync.combining.SwitchCombiner`)
        uses them to model fetch-and-op merges and multicast
        replication happening in the fabric instead of on a node CPU.
        """
        if now is None:
            now = self.engine.now
        self.counters.count_message(kind, payload_bytes, data_kind,
                                    self.header_bytes)

        send_cpu = (self.overhead.send_cost(payload_bytes)
                    if send_cpu_cycles is None else send_cpu_cycles)
        sstart, sent = self.handlers[src].acquire(now, send_cpu)

        if src == dst:
            arrival = sent
            ostart = sent
        else:
            frame = payload_bytes + self.header_bytes
            wire = self._wire.get(frame)
            if wire is None:
                wire = self._wire[frame] = self.wire_cycles(frame)
            ostart, out_done = self.out_links[src].acquire(sent, wire)
            at_switch = out_done + self.switch_latency
            _istart, arrival = self.in_links[dst].acquire(at_switch, wire)

        recv_cpu = (self.overhead.recv_cost(payload_bytes)
                    if recv_cpu_cycles is None else recv_cpu_cycles)
        rstart, delivered = self.handlers[dst].acquire(arrival, recv_cpu)

        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.complete(src, Category.PROTOCOL, f"send:{kind.value}",
                            sstart, sent, track=f"node{src}.sw",
                            dst=dst, bytes=payload_bytes)
            if src != dst:
                tracer.complete(src, Category.NETWORK, kind.value,
                                ostart, arrival, track=f"link{src}",
                                dst=dst, bytes=payload_bytes)
            tracer.complete(dst, Category.PROTOCOL, f"recv:{kind.value}",
                            rstart, delivered, track=f"node{dst}.sw",
                            src=src, bytes=payload_bytes)

        if on_delivered is not None:
            self.engine.schedule_at(delivered, on_delivered, delivered)
        return delivered

    def roundtrip_estimate(self, payload_bytes: int = 0) -> int:
        """Uncontended request/response latency (for tests/calibration)."""
        one_way = (self.overhead.send_cost(payload_bytes) +
                   self.wire_cycles(payload_bytes + self.header_bytes) +
                   self.switch_latency +
                   self.wire_cycles(payload_bytes + self.header_bytes) +
                   self.overhead.recv_cost(payload_bytes))
        return 2 * one_way
