"""Shared address space layout: regions, pages, and cache lines.

Applications allocate named *regions*; machine models translate
(region, offset, length) accesses into global page or cache-line
ranges.  Regions are page-aligned so a page never spans two regions,
which keeps both the DSM page tables and the hardware line states
simple and mirrors how TreadMarks laid out its shared heap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import AddressError, ConfigurationError


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Geometry:
    """Page and cache-line sizes for a machine (both powers of two)."""

    page_bytes: int = 4096
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if not _is_pow2(self.page_bytes):
            raise ConfigurationError(
                f"page_bytes must be a power of two: {self.page_bytes}")
        if not _is_pow2(self.line_bytes):
            raise ConfigurationError(
                f"line_bytes must be a power of two: {self.line_bytes}")
        if self.line_bytes > self.page_bytes:
            raise ConfigurationError(
                "line_bytes may not exceed page_bytes "
                f"({self.line_bytes} > {self.page_bytes})")

    # -- span arithmetic ------------------------------------------------
    def page_span(self, addr: int, nbytes: int) -> Tuple[int, int]:
        """Global page range ``[first, last)`` covering the byte range."""
        if nbytes <= 0:
            raise AddressError(f"nbytes must be positive, got {nbytes}")
        first = addr // self.page_bytes
        last = (addr + nbytes - 1) // self.page_bytes + 1
        return first, last

    def line_span(self, addr: int, nbytes: int) -> Tuple[int, int]:
        """Global cache-line range ``[first, last)`` covering the bytes."""
        if nbytes <= 0:
            raise AddressError(f"nbytes must be positive, got {nbytes}")
        first = addr // self.line_bytes
        last = (addr + nbytes - 1) // self.line_bytes + 1
        return first, last

    def pages_in(self, nbytes: int) -> int:
        """Pages needed to hold ``nbytes`` (rounds up)."""
        return (nbytes + self.page_bytes - 1) // self.page_bytes

    def lines_in(self, nbytes: int) -> int:
        """Lines needed to hold ``nbytes`` (rounds up)."""
        return (nbytes + self.line_bytes - 1) // self.line_bytes

    def lines_per_page(self) -> int:
        """Cache lines in one page."""
        return self.page_bytes // self.line_bytes


@dataclass(frozen=True)
class Region:
    """A named, page-aligned slice of the shared address space."""

    name: str
    base: int
    nbytes: int

    @property
    def end(self) -> int:
        """First global address past the region."""
        return self.base + self.nbytes

    def addr(self, offset: int, nbytes: int = 1) -> int:
        """Global address of ``offset`` within the region, bounds-checked."""
        if offset < 0 or offset + nbytes > self.nbytes:
            raise AddressError(
                f"access [{offset}, {offset + nbytes}) outside region "
                f"'{self.name}' of {self.nbytes} bytes")
        return self.base + offset


class AddressSpace:
    """Allocator for page-aligned shared regions.

    The address space starts at zero; page and line numbers derived
    from it are *global* and unambiguous across regions.
    """

    def __init__(self, geometry: Geometry = Geometry()) -> None:
        self.geometry = geometry
        self._regions: Dict[str, Region] = {}
        self._next_base = 0

    def alloc(self, name: str, nbytes: int) -> Region:
        """Allocate a new page-aligned region of at least ``nbytes``."""
        if name in self._regions:
            raise ConfigurationError(f"region '{name}' already allocated")
        if nbytes <= 0:
            raise ConfigurationError(
                f"region size must be positive, got {nbytes}")
        page = self.geometry.page_bytes
        size = self.geometry.pages_in(nbytes) * page
        region = Region(name, self._next_base, size)
        self._regions[name] = region
        self._next_base += size
        return region

    def __getitem__(self, name: str) -> Region:
        try:
            return self._regions[name]
        except KeyError:
            raise AddressError(f"no region named '{name}'") from None

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    @property
    def regions(self) -> Dict[str, Region]:
        """A copy of the name -> region map, in allocation order."""
        return dict(self._regions)

    @property
    def total_bytes(self) -> int:
        """Bytes allocated so far (a whole number of pages)."""
        return self._next_base

    @property
    def total_pages(self) -> int:
        """Pages allocated so far."""
        return self._next_base // self.geometry.page_bytes

    @property
    def total_lines(self) -> int:
        """Cache lines allocated so far."""
        return self._next_base // self.geometry.line_bytes

    def span(self, region_name: str, offset: int,
             nbytes: int) -> Tuple[int, int]:
        """Global ``(addr, nbytes)`` for a region-relative access."""
        region = self[region_name]
        return region.addr(offset, nbytes), nbytes
