"""The experimental TreadMarks platform: DECstations on an ATM LAN.

Eight DECstation-5000/240s, each a uniprocessor DSM node, connected
point-to-point to a Fore ATM switch (§2.2).  TreadMarks runs at user
level on Ultrix; the ``kernel_level=True`` variant models the in-kernel
implementation of §2.4.4 (roughly halved fixed messaging costs).
"""

from __future__ import annotations

from typing import Optional

from repro.machines.params import DecAtmParams
from repro.machines.software import PagedDsmMachine


class DecTreadMarksMachine(PagedDsmMachine):
    """TreadMarks on the DECstation/ATM testbed."""

    def __init__(self, params: Optional[DecAtmParams] = None, *,
                 kernel_level: bool = False,
                 max_procs: int = 8,
                 **variants) -> None:
        params = params or DecAtmParams()
        if kernel_level:
            params = params.kernel_level()
        self.params = params
        super().__init__(
            "treadmarks-kernel" if kernel_level else "treadmarks",
            clock_hz=params.clock_hz,
            page_bytes=params.page_bytes,
            cache=params.cache,
            bandwidth_bytes_per_sec=params.bandwidth_bytes,
            switch_latency_cycles=params.switch_latency_cycles,
            header_bytes=params.header_bytes,
            overhead=params.overhead(),
            max_procs=max_procs,
            **variants,
        )
