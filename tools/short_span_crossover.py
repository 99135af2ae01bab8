"""Where the per-line coherence write stops beating the numpy one.

Times ``SnoopingSystem.write`` and ``DirectorySystem.write`` on both
paths — ``SHORT_SPAN_LINES`` patched to 0 (numpy only) and to a huge
value (per-line only) — for spans of 1..64 lines at several processor
counts, and prints microseconds per write.  Two access patterns:

* ``migratory`` — processors take turns writing the same span, so
  every line misses and invalidates the previous writer's dirty copy
  (the lock-protected update of Water and M-Water);
* ``rewrite`` — one processor rewrites its own span, every line a
  MODIFIED hit.

Run from the repo root::

    PYTHONPATH=src python tools/short_span_crossover.py [--repeat 2000]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.hw.directory import DirectorySystem
from repro.hw.snoop import SnoopingSystem
from repro.mem import directcache
from repro.mem.directcache import DirectMappedCache
from repro.net.bus import BusModel, BusTiming
from repro.net.crossbar import CrossbarNetwork
from repro.sim.engine import Engine
from repro.stats.counters import Counters

LINE = 64
SETS = 4096
SPANS = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32, 48, 64)
PROCS = (8, 16, 64)


def snooping(nprocs: int) -> SnoopingSystem:
    """A bus of ``nprocs`` caches of ``SETS`` sets."""
    counters = Counters()
    caches = [DirectMappedCache(SETS * LINE, LINE) for _ in range(nprocs)]
    return SnoopingSystem(caches, BusModel("bus", BusTiming(), counters),
                          counters, line_bytes=LINE)


def directory(nprocs: int) -> DirectorySystem:
    """A directory over ``nprocs`` caches of ``SETS`` sets."""
    counters = Counters()
    caches = [DirectMappedCache(SETS * LINE, LINE) for _ in range(nprocs)]
    xbar = CrossbarNetwork(Engine(), nprocs, bandwidth_bytes_per_sec=200e6,
                           latency_cycles=10, clock_hz=100e6,
                           counters=counters)
    return DirectorySystem(caches, xbar, counters, total_lines=4 * SETS,
                           lines_per_page=64, line_bytes=LINE)


def per_write_us(build, nprocs: int, span: int, pattern: str,
                 short_limit: int, repeat: int) -> float:
    """Best of three passes of ``repeat`` writes, in microseconds."""
    directcache.SHORT_SPAN_LINES = short_limit
    best = float("inf")
    for _ in range(3):
        system = build(nprocs)
        write = system.write
        first = 1000
        step = 1 if pattern == "migratory" else 0
        write(0, first, first + span, 0)
        start = time.perf_counter()
        for i in range(repeat):
            write((i * step + 1) % nprocs, first, first + span, 0)
        best = min(best, time.perf_counter() - start)
    return best / repeat * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=2000,
                        help="writes per timed pass (default 2000)")
    args = parser.parse_args(argv)
    shipped = directcache.SHORT_SPAN_LINES
    for name, build in (("snooping", snooping), ("directory", directory)):
        for pattern in ("migratory", "rewrite"):
            print(f"\n{name} write, {pattern}: us per write, "
                  "numpy / per-line")
            print("lines " + "".join(f"{f'P={p}':>16}" for p in PROCS))
            for span in SPANS:
                cells = []
                for nprocs in PROCS:
                    bulk = per_write_us(build, nprocs, span, pattern, 0,
                                        args.repeat)
                    line = per_write_us(build, nprocs, span, pattern,
                                        1 << 30, args.repeat)
                    mark = "*" if line < bulk else " "
                    cells.append(f"{bulk:6.1f} /{line:6.1f}{mark}")
                print(f"{span:5d} " + "".join(f"{c:>16}" for c in cells))
    directcache.SHORT_SPAN_LINES = shipped
    print(f"\n* per-line path faster; shipped SHORT_SPAN_LINES = {shipped}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
