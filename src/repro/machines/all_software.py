"""The simulated all-software (AS) architecture of §3.1.

Uniprocessor nodes with leading-edge CPUs/caches, a general-purpose
network (ATM-class bandwidth, microsecond latency), and TreadMarks
LRC between the nodes.  The ``overhead_preset`` knob reproduces the
Figure 14-15 software-overhead sweeps.
"""

from __future__ import annotations

from typing import Optional

from repro.machines.params import AsParams, LocalCacheParams
from repro.machines.software import PagedDsmMachine
from repro.net.overhead import OverheadPreset


class AllSoftwareMachine(PagedDsmMachine):
    """AS: uniprocessor nodes + general-purpose network + LRC DSM."""

    def __init__(self, params: Optional[AsParams] = None, *,
                 overhead_preset: Optional[OverheadPreset] = None,
                 **variants) -> None:
        params = params or AsParams()
        if overhead_preset is not None:
            params = params.with_overhead(overhead_preset)
        self.params = params
        suffix = ""
        if params.overhead_preset is not OverheadPreset.SIM_BASE:
            suffix = f"-{params.overhead_preset.value}"
        super().__init__(
            f"as{suffix}",
            clock_hz=params.clock_hz,
            page_bytes=params.page_bytes,
            cache=LocalCacheParams(
                cache_bytes=params.cpu.cache_bytes,
                line_bytes=params.cpu.line_bytes,
                hit_cycles=params.cpu.hit_cycles,
                miss_cycles=params.local_miss_cycles,
            ),
            bandwidth_bytes_per_sec=params.bandwidth_bytes,
            switch_latency_cycles=params.network_latency_cycles,
            header_bytes=params.header_bytes,
            overhead=params.overhead(),
            **variants,
        )
