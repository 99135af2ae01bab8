"""Synchronization micro-benchmarks (the paper's §2.2 / §2.4.4 costs).

Neither touches shared data: each run is one synchronization event,
so its simulated time *is* that event's cost.  ``x4`` runs both on
the user- and kernel-level TreadMarks machines.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps import ops
from repro.apps.base import AppContext, Application, Program


class BarrierOnlyApp(Application):
    """Every processor hits one barrier."""

    name = "sync-barrier"

    def regions(self, nprocs: int) -> Dict[str, int]:
        """One padding page: the address space may not be empty."""
        return {"pad": 4096}

    def programs(self, ctx: AppContext) -> List[Program]:
        """One ``Barrier`` per processor."""
        def prog():
            yield ops.Barrier()
        return [prog() for _ in range(ctx.nprocs)]


class LockPingApp(Application):
    """One cold remote lock acquisition, on three processors.

    Lock 0's manager is node 0; node 2 takes and releases the token
    first, so node 1's later acquisition walks the full three-message
    path (request to the manager, forward to the holder, grant back).
    The warm-up delay keeps the phases strictly ordered; subtract
    :attr:`DELAY` from the run's cycles to get the acquisition cost.
    """

    name = "sync-lock"
    DELAY = 1_000_000

    def regions(self, nprocs: int) -> Dict[str, int]:
        """One padding page: the address space may not be empty."""
        return {"pad": 4096}

    def programs(self, ctx: AppContext) -> List[Program]:
        """Manager idles, holder warms the token, requester acquires."""
        def manager_node():
            yield ops.Compute(1)

        def first_holder():
            yield ops.Acquire(0)
            yield ops.Release(0)

        def requester():
            yield ops.Compute(self.DELAY)
            yield ops.Acquire(0)
            yield ops.Release(0)
        return [manager_node(), requester(), first_holder()]
