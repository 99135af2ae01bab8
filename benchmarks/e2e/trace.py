"""The traced pass: a cProfile hook installed from the benchmark's side.

The simulator is measured from outside.  One pass of a workload runs
under :class:`cProfile.Profile`; every function's *self* time is then
folded into the layer its source file belongs to, where the layers are
the repo's packages (``repro.apps``, ``repro.sim``, ...) plus ``numpy``
and ``other`` (stdlib, the benchmark itself, waiting on pool workers).
Self times partition the traced wall, so the eleven ``<layer>.self_s``
sum to it.

C functions have no source file.  numpy's are folded into ``numpy``;
any other builtin (``heapq.heappush``, ``dict.get``, ``max``) is folded
into the layer of the Python function that called it, read from the
profile's caller -> callee edges — otherwise a third of a pure-Python
layer's time would land in ``other``.

Call counts of the named public entry points come from the same
profile.  cProfile counts each *resumption* of a generator as a call,
so ``dsm.newer_than.calls`` is the number of intervals the generator
yielded plus one per exhausted iteration, not the number of loops that
consumed it.

The hook costs time on every Python call and none inside C, which
shifts proportions toward call-heavy layers; timed passes never run
with it on.
"""

from __future__ import annotations

import cProfile
import time
from typing import Any, Callable, Dict, Tuple

#: Layers every traced pass reports, in report order.
LAYERS = ("apps", "sim", "mem", "net", "dsm", "hw", "machines", "stats",
          "harness", "numpy", "other")

#: Packages that are plumbing around a simulation rather than part of
#: one; the issue folds them into a single ``harness`` layer.
_HARNESS_PACKAGES = frozenset(
    {"harness", "ledger", "trace", "check", "sync", "ablate", "recover"})

#: metric name -> ((path suffix, qualified function name), ...).
ENTRY_POINTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sim.resource_acquire.calls": (
        ("repro/sim/resource.py", "Resource.acquire"),),
    # Engine.schedule delegates to schedule_at, so this is every event
    # ever queued.
    "sim.schedule.calls": (("repro/sim/engine.py", "Engine.schedule_at"),),
    "net.atm_send.calls": (("repro/net/atm.py", "AtmNetwork.send"),),
    "net.crossbar_transfer.calls": (
        ("repro/net/crossbar.py", "CrossbarNetwork.transfer"),),
    "net.bus_transaction.calls": (
        ("repro/net/bus.py", "BusModel.transaction"),
        ("repro/net/bus.py", "BusModel.transactions")),
    "dsm.newer_than.calls": (
        ("repro/dsm/interval.py", "IntervalLog.newer_than"),),
    "dsm.apply_notice.calls": (
        ("repro/dsm/pagetable.py", "NodePages.apply_notice"),),
    "dsm.encode_diff.calls": (("repro/dsm/diff.py", "encode_diff"),),
    "hw.directory_read.calls": (
        ("repro/hw/directory.py", "DirectorySystem.read"),),
    "hw.directory_write.calls": (
        ("repro/hw/directory.py", "DirectorySystem.write"),),
    "hw.snoop_read.calls": (("repro/hw/snoop.py", "SnoopingSystem.read"),),
    "hw.snoop_write.calls": (("repro/hw/snoop.py", "SnoopingSystem.write"),),
    "mem.cache_access.calls": (
        ("repro/mem/directcache.py", "DirectMappedCache.access"),),
    "mem.invalidate_lines.calls": (
        ("repro/mem/directcache.py", "DirectMappedCache.invalidate_lines"),),
}


def layer_of(filename: str) -> str:
    """The layer a source file belongs to.

    ``.../repro/<package>/...`` maps to ``<package>`` (the plumbing
    packages to ``harness``), anything under a ``numpy`` directory to
    ``numpy``, everything else — stdlib, ``repro/units.py``, this
    benchmark — to ``other``.
    """
    path = filename.replace("\\", "/")
    _head, sep, tail = path.rpartition("/repro/")
    if sep:
        package = tail.split("/", 1)[0]
        if package in _HARNESS_PACKAGES:
            return "harness"
        if package in LAYERS:
            return package
    if "/numpy/" in path:
        return "numpy"
    return "other"


def fold(stats: Any) -> Tuple[Dict[str, float], Dict[str, int]]:
    """``cProfile.Profile.getstats()`` -> (self seconds by layer,
    call counts by entry-point metric)."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(ENTRY_POINTS, 0)
    wanted: Dict[str, list] = {}
    for metric, targets in ENTRY_POINTS.items():
        for suffix, qualname in targets:
            wanted.setdefault(qualname, []).append((suffix, metric))
    for entry in stats:
        code = entry.code
        if isinstance(code, str):
            continue    # a C function: folded through its callers below
        layer = layer_of(code.co_filename)
        self_s[layer] += entry.inlinetime
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                target = "numpy" if "numpy" in callee.code else layer
                self_s[target] += callee.inlinetime
        path = code.co_filename.replace("\\", "/")
        for suffix, metric in wanted.get(code.co_qualname, ()):
            if path.endswith(suffix):
                calls[metric] += entry.callcount
    return self_s, calls


def traced(fn: Callable[[], Any]) -> Tuple[Any, float, Dict[str, float],
                                           Dict[str, int]]:
    """Run ``fn`` once under the hook.

    Returns ``(fn's result, traced wall seconds, self seconds by layer,
    call counts)``.
    """
    profile = cProfile.Profile()
    start = time.perf_counter()
    result = profile.runcall(fn)
    wall = time.perf_counter() - start
    self_s, calls = fold(profile.getstats())
    return result, wall, self_s, calls
