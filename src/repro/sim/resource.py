"""FCFS contended resources.

A :class:`Resource` models anything that can serve one request at a time
— a shared bus, one direction of a network link, a message-handler CPU.
Requests are serialized in the order they are issued; a request issued
at time ``t`` begins service at ``max(t, busy_until)``.

This "busy-until" abstraction is the same fidelity class as the paper's
execution-driven simulator: it captures queueing delay and utilization
without simulating individual arbitration cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass
class Resource:
    """A single-server FCFS resource measured in cycles."""

    name: str
    busy_until: int = 0
    total_busy: int = 0
    total_wait: int = 0
    acquisitions: int = 0

    def acquire(self, at: int, duration: int) -> Tuple[int, int]:
        """Reserve the resource for ``duration`` cycles starting no
        earlier than ``at``.  Returns ``(start, end)``.
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative: {duration}")
        at = int(at)
        duration = int(duration)
        start = self.busy_until
        if at > start:
            start = at
        end = start + duration
        self.total_wait += start - at
        self.total_busy += duration
        self.acquisitions += 1
        self.busy_until = end
        return start, end

    def peek(self, at: int) -> int:
        """Earliest time a request issued at ``at`` could begin service."""
        return max(int(at), self.busy_until)

    def utilization(self, horizon: int) -> float:
        """Fraction of ``[0, horizon]`` this resource spent busy."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.total_busy / horizon)

    def mean_wait(self) -> float:
        """Average queueing delay per acquisition, in cycles."""
        if self.acquisitions == 0:
            return 0.0
        return self.total_wait / self.acquisitions


class MultiResource:
    """A k-server FCFS resource (e.g. message handling on an SMP node,
    where any of the node's processors can run the DSM handler).

    Each request is served whole by the earliest-free server (the
    lowest-numbered one on a tie).  With one server, ``acquire`` *is*
    that server's ``acquire``.
    """

    def __init__(self, name: str, servers: int) -> None:
        if servers < 1:
            raise ValueError(f"need at least one server: {servers}")
        self.name = name
        self.servers = [Resource(f"{name}[{i}]") for i in range(servers)]
        if servers == 1:
            self.acquire = self.servers[0].acquire

    def acquire(self, at: int, duration: int) -> Tuple[int, int]:
        """Serve on the earliest-available server; returns (start, end)."""
        best = self.servers[0]
        for server in self.servers:
            if server.busy_until < best.busy_until:
                best = server
        return best.acquire(at, duration)

    def peek(self, at: int) -> int:
        return min(s.peek(at) for s in self.servers)

    @property
    def total_busy(self) -> int:
        return sum(s.total_busy for s in self.servers)

    @property
    def acquisitions(self) -> int:
        return sum(s.acquisitions for s in self.servers)

