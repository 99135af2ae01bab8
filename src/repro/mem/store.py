"""The numpy-backed shared store.

One :class:`SharedStore` exists per simulated machine.  Applications
get typed numpy views of their regions and compute on them directly,
so the *values* a run produces are real (and identical across machine
models for data-race-free programs); the coherence machinery only
determines *timing* and *traffic*.

The store also offers :meth:`SharedStore.count_changed_bytes`, which
applications use before overwriting a block: TreadMarks diffs carry
only words whose values actually changed, which is the mechanism
behind the paper's SOR data-movement asymmetry (§2.4.2).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.mem.layout import AddressSpace, Region


class SharedStore:
    """Byte-addressable backing memory with typed region views."""

    def __init__(self, space: AddressSpace) -> None:
        self.space = space
        self._mem = np.zeros(max(space.total_bytes, 1), dtype=np.uint8)
        self._views: Dict[tuple, np.ndarray] = {}

    def _require_capacity(self) -> None:
        if self._mem.size < self.space.total_bytes:
            grown = np.zeros(self.space.total_bytes, dtype=np.uint8)
            grown[: self._mem.size] = self._mem
            self._mem = grown
            self._views.clear()

    def view(self, region_name: str, dtype=np.float64) -> np.ndarray:
        """A typed numpy view over a whole region (cached)."""
        self._require_capacity()
        key = (region_name, np.dtype(dtype).str)
        cached = self._views.get(key)
        if cached is not None:
            return cached
        region = self.space[region_name]
        raw = self._mem[region.base:region.end]
        typed = raw.view(dtype)
        self._views[key] = typed
        return typed

    def raw(self, region_name: str) -> np.ndarray:
        """The uint8 view of a region."""
        return self.view(region_name, np.uint8)

    # ------------------------------------------------------------------
    def count_changed_bytes(self, region_name: str, offset: int,
                            new_values: np.ndarray) -> int:
        """Bytes that would change if ``new_values`` replaced the bytes
        at ``offset``; used to size TreadMarks diffs before a write.
        """
        new_bytes = np.ascontiguousarray(new_values).view(np.uint8).ravel()
        region = self.space[region_name]
        addr = region.addr(offset, new_bytes.size)
        self._require_capacity()
        old = self._mem[addr:addr + new_bytes.size]
        return int(np.count_nonzero(old != new_bytes))

    def write(self, region_name: str, offset: int,
              new_values: np.ndarray) -> int:
        """Store ``new_values`` at ``offset``; returns changed bytes."""
        new_bytes = np.ascontiguousarray(new_values).view(np.uint8).ravel()
        region = self.space[region_name]
        addr = region.addr(offset, new_bytes.size)
        self._require_capacity()
        old = self._mem[addr:addr + new_bytes.size]
        changed = int(np.count_nonzero(old != new_bytes))
        old[:] = new_bytes
        return changed

    def read(self, region_name: str, offset: int, nbytes: int) -> np.ndarray:
        """A copy of ``nbytes`` raw bytes at ``offset``."""
        region = self.space[region_name]
        addr = region.addr(offset, nbytes)
        self._require_capacity()
        return self._mem[addr:addr + nbytes].copy()

    def region(self, region_name: str) -> Region:
        """The address-space region named ``region_name``."""
        return self.space[region_name]

    def checksum(self, region_name: str) -> int:
        """Cheap content fingerprint, handy for cross-machine checks."""
        raw = self.raw(region_name)
        if raw.size == 0:
            return 0
        weights = np.arange(1, raw.size + 1, dtype=np.uint64)
        return int((raw.astype(np.uint64) * weights).sum() % (2**61 - 1))

    def __repr__(self) -> str:
        return (f"<SharedStore {len(self.space.regions)} regions, "
                f"{self.space.total_bytes} bytes>")
