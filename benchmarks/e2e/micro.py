"""Layer microbenchmarks: fixed-count loops over public functions.

Each one builds its object the way the unit tests do (at the sizes the
simulated machines use), runs a fixed number of operations ``REPEATS``
times and reports the median, in the unit its name ends in.  They
answer "did this layer's primitive get faster?" independently of any
application; the workloads answer whether that mattered.

``MICROS`` is the table of loops; a workload runs only the groups of
the layers it is bound by.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import statistics
import tempfile
import time
from typing import Dict, Tuple

import numpy as np

from repro import make_machine
from repro.dsm.diff import apply_diff, encode_diff
from repro.dsm.interval import Interval, IntervalLog
from repro.dsm.pagetable import NodePages
from repro.dsm.vectorclock import VectorClock
from repro.harness.cache import ResultCache, run_key
from repro.harness.parallel import RunPlan
from repro.harness.workloads import Scale, make_app
from repro.hw.directory import DirectorySystem
from repro.hw.snoop import SnoopingSystem
from repro.ledger import Ledger, run_record
from repro.mem.directcache import DirectMappedCache
from repro.net.atm import AtmNetwork
from repro.net.bus import BusModel, BusTiming
from repro.net.crossbar import CrossbarNetwork
from repro.net.overhead import OverheadPreset
from repro.sim.engine import Engine
from repro.sim.resource import Resource
from repro.stats.counters import Counters, MsgKind
from repro.stats.result import RunResult

REPEATS = 5

#: Simulated-machine sizes (AS/AH nodes): 64 KB caches of 64 B lines,
#: 4 KB pages, 16 processors.
LINE = 64
CACHE_LINES = 1024
PAGE = 4096
PROCS = 16

#: Every loop takes ``(scale, scratch)`` — a divisor for its fixed count
#: and a directory it may fill — and returns ``(seconds, operations)``.


def _noop() -> None:
    pass


def engine_events(scale: int, scratch: str) -> Tuple[float, int]:
    """``Engine.schedule`` + ``run`` over no-op callbacks."""
    n = 200_000 // scale
    engine = Engine()
    start = time.perf_counter()
    schedule = engine.schedule
    for i in range(n):
        schedule(i % 997, _noop)
    engine.run()
    return time.perf_counter() - start, n


def resource_acquire(scale: int, scratch: str) -> Tuple[float, int]:
    """Alternately uncontended and queued ``Resource.acquire``."""
    n = 200_000 // scale
    resource = Resource("r")
    acquire = resource.acquire
    start = time.perf_counter()
    for i in range(n):
        acquire(i * 3, 2 + (i & 3))
    return time.perf_counter() - start, n


def cache_access(scale: int, scratch: str) -> Tuple[float, int]:
    """Bulk reads and writes of 64 lines over four cache sizes."""
    n = 4_000 // scale
    cache = DirectMappedCache(CACHE_LINES * LINE, LINE)
    span = 64
    footprint = 4 * CACHE_LINES
    start = time.perf_counter()
    for i in range(n):
        first = (i * 48) % footprint
        cache.access(first, first + span, write=bool(i & 1))
    return time.perf_counter() - start, n * span


def invalidate_lines(scale: int, scratch: str) -> Tuple[float, int]:
    """``invalidate_lines`` of 8 scattered lines, half of them resident."""
    sweeps = 320 // scale
    cache = DirectMappedCache(CACHE_LINES * LINE, LINE)
    targets = [np.arange(k, k + 16, 2, dtype=np.int64) for k in range(64)]
    elapsed = 0.0
    for _ in range(sweeps):
        cache.read(0, 128)          # untimed: refill what a sweep drops
        start = time.perf_counter()
        for lines in targets:
            cache.invalidate_lines(lines)
        elapsed += time.perf_counter() - start
    return elapsed, sweeps * len(targets)


def _atm(engine: Engine, counters: Counters) -> AtmNetwork:
    return AtmNetwork(engine, PROCS, bandwidth_bytes_per_sec=155e6 / 8,
                      switch_latency_cycles=100, clock_hz=100e6,
                      overhead=OverheadPreset.USER_LEVEL.build(),
                      counters=counters)


def atm_send(scale: int, scratch: str) -> Tuple[float, int]:
    """Small sync messages between rotating node pairs, no callback."""
    n = 20_000 // scale
    atm = _atm(Engine(), Counters())
    send = atm.send
    start = time.perf_counter()
    for i in range(n):
        send(i % PROCS, (i * 7 + 1) % PROCS, 64,
             kind=MsgKind.LOCK_REQUEST, now=i * 50)
    return time.perf_counter() - start, n


def _crossbar(counters: Counters) -> CrossbarNetwork:
    return CrossbarNetwork(Engine(), PROCS, bandwidth_bytes_per_sec=200e6,
                           latency_cycles=10, clock_hz=100e6,
                           counters=counters)


def crossbar_transfer(scale: int, scratch: str) -> Tuple[float, int]:
    """One-line transfers between rotating node pairs."""
    n = 50_000 // scale
    transfer = _crossbar(Counters()).transfer
    start = time.perf_counter()
    for i in range(n):
        transfer(i % PROCS, (i * 7 + 1) % PROCS, LINE, i * 20)
    return time.perf_counter() - start, n


def _interval_log() -> IntervalLog:
    log = IntervalLog(PROCS)
    for node in range(PROCS):
        for index in range(1, 201):
            vc = [0] * PROCS
            vc[node] = index
            log.append(Interval(node, index, tuple(vc),
                                {(node * 200 + index) % 512: 100}))
    return log


def newer_than(scale: int, scratch: str) -> Tuple[float, int]:
    """Log of 16 nodes x 200 intervals; the acquirer lags by 2 per node."""
    n = 10_000 // scale
    log = _interval_log()
    seen = VectorClock(entries=[198] * PROCS)
    upto = VectorClock(entries=[200] * PROCS)
    start = time.perf_counter()
    for _ in range(n):
        for _interval in log.newer_than(seen, upto):
            pass
    return time.perf_counter() - start, n


def apply_notice(scale: int, scratch: str) -> Tuple[float, int]:
    """Write notices from 15 creators over 1024 pages."""
    n = 200_000 // scale
    table = NodePages(0, 1024)
    apply = table.apply_notice
    start = time.perf_counter()
    for i in range(n):
        apply(i & 1023, 1 + i % 15, 116, i)
    return time.perf_counter() - start, n


def _page_pairs():
    """(twin, current) pages with 1 %, 50 % and 100 % of bytes changed."""
    rng = np.random.default_rng(1994)
    pairs = []
    for share in (0.01, 0.5, 1.0):
        for _ in range(4):
            twin = rng.integers(0, 256, PAGE, dtype=np.uint8)
            current = twin.copy()
            # Word-grain changes, like a store of doubles.
            words = rng.choice(PAGE // 8, max(1, int(share * PAGE / 8)),
                               replace=False)
            for w in words:
                current[w * 8:(w + 1) * 8] ^= 0xFF
            pairs.append((twin, current))
    return pairs


def diff_encode(scale: int, scratch: str) -> Tuple[float, int]:
    """``encode_diff`` over the 1 % / 50 % / 100 % page mix."""
    rounds = max(1, 100 // scale)
    pairs = _page_pairs()
    start = time.perf_counter()
    for _ in range(rounds):
        for page, (twin, current) in enumerate(pairs):
            encode_diff(page, twin, current)
    return time.perf_counter() - start, rounds * len(pairs)


def diff_apply(scale: int, scratch: str) -> Tuple[float, int]:
    """``apply_diff`` of the same mix onto the twins."""
    rounds = max(1, 100 // scale)
    pairs = _page_pairs()
    diffs = [encode_diff(page, twin, current)
             for page, (twin, current) in enumerate(pairs)]
    bases = [twin.copy() for twin, _current in pairs]
    start = time.perf_counter()
    for _ in range(rounds):
        for base, diff in zip(bases, diffs):
            apply_diff(base, diff)
    return time.perf_counter() - start, rounds * len(pairs)


def vc_merge(scale: int, scratch: str) -> Tuple[float, int]:
    """``VectorClock.merge`` of two 16-entry clocks."""
    n = 30_000 // scale
    mine = VectorClock(entries=range(1, PROCS + 1))
    other = VectorClock(entries=range(PROCS, 0, -1))
    merge = mine.merge
    start = time.perf_counter()
    for _ in range(n):
        merge(other)
    return time.perf_counter() - start, n


def _read_sweeps(system, procs: int, band: int,
                 sweeps: int) -> Tuple[float, int]:
    """Time 8-line reads of the right-hand neighbour's band, which the
    neighbour has just written (untimed), so every read finds its lines
    dirty in one other cache."""
    elapsed = 0.0
    now = 0
    for _ in range(sweeps):
        for proc in range(procs):
            system.write(proc, proc * band, (proc + 1) * band, now)
        start = time.perf_counter()
        for proc in range(procs):
            base = (proc + 1) % procs * band
            for first in range(base, base + band, 8):
                now += 100
                system.read(proc, first, first + 8, now)
        elapsed += time.perf_counter() - start
    return elapsed, sweeps * procs * (band // 8)


def _write_sweeps(system, procs: int, lines: int,
                  sweeps: int) -> Tuple[float, int]:
    """Time 8-line writes, by rotating processors, that sweep a region
    every processor has read; the re-reads between sweeps are untimed."""
    elapsed = 0.0
    now = 0
    for _ in range(sweeps):
        for proc in range(procs):
            system.read(proc, 0, lines, now)
        start = time.perf_counter()
        for i, first in enumerate(range(0, lines, 8)):
            now += 100
            system.write(i % procs, first, first + 8, now)
        elapsed += time.perf_counter() - start
    return elapsed, sweeps * (lines // 8)


def _directory() -> DirectorySystem:
    counters = Counters()
    caches = [DirectMappedCache(CACHE_LINES * LINE, LINE, name=f"c{i}")
              for i in range(PROCS)]
    return DirectorySystem(caches, _crossbar(counters), counters,
                           total_lines=8 * CACHE_LINES,
                           lines_per_page=PAGE // LINE, line_bytes=LINE)


def directory_read(scale: int, scratch: str) -> Tuple[float, int]:
    """16 processors read 8-line records their neighbours hold dirty."""
    return _read_sweeps(_directory(), PROCS, 512, 1)


def directory_write(scale: int, scratch: str) -> Tuple[float, int]:
    """16 processors write 8-line records all of them have read."""
    return _write_sweeps(_directory(), PROCS, CACHE_LINES,
                         max(1, 4 // scale))


def _snoop() -> SnoopingSystem:
    counters = Counters()
    # SGI 4D/480: eight 1 MB second-level caches of 128 B lines.
    caches = [DirectMappedCache(1 << 20, 128, name=f"c{i}")
              for i in range(8)]
    bus = BusModel("bus", BusTiming(), counters)
    return SnoopingSystem(caches, bus, counters, line_bytes=128)


def snoop_read(scale: int, scratch: str) -> Tuple[float, int]:
    """8 processors read 8-line records their neighbours hold dirty."""
    return _read_sweeps(_snoop(), 8, 1024, 1)


def snoop_write(scale: int, scratch: str) -> Tuple[float, int]:
    """8 processors write 8-line records all of them have read."""
    return _write_sweeps(_snoop(), 8, 1024, max(1, 8 // scale))


@functools.lru_cache(maxsize=1)
def _sample_run():
    """One small real run the harness loops fingerprint, store and ship."""
    machine = make_machine("as")
    app = make_app("mwater", Scale.TEST)
    return machine, app, machine.run(app, 8), run_key(machine, app, 8)


def _keys(n: int):
    key = _sample_run()[3]
    return [f"{i:02x}{key[2:]}" for i in range(n)]


def harness_run_key(scale: int, scratch: str) -> Tuple[float, int]:
    """Fingerprint one (machine, app, nprocs, seed) point."""
    n = 1_000 // scale
    machine, app, _result, _key = _sample_run()
    start = time.perf_counter()
    for _ in range(n):
        run_key(machine, app, 8)
    return time.perf_counter() - start, n


def cache_put(scale: int, scratch: str) -> Tuple[float, int]:
    """Atomic store of one result document."""
    keys = _keys(200 // scale)
    result = _sample_run()[2]
    cache = ResultCache(tempfile.mkdtemp(dir=scratch))
    start = time.perf_counter()
    for key in keys:
        cache.put(key, result)
    return time.perf_counter() - start, len(keys)


def cache_get(scale: int, scratch: str) -> Tuple[float, int]:
    """Load and rebuild one stored result (a warm-cache hit)."""
    keys = _keys(200 // scale)
    result = _sample_run()[2]
    cache = ResultCache(tempfile.mkdtemp(dir=scratch))
    for key in keys:
        cache.put(key, result)
    start = time.perf_counter()
    for key in keys:
        cache.get(key)
    return time.perf_counter() - start, len(keys)


def ledger_append(scale: int, scratch: str) -> Tuple[float, int]:
    """One locked single-write append of a full provenance record."""
    n = 500 // scale
    machine, app, result, key = _sample_run()
    ledger = Ledger(os.path.join(tempfile.mkdtemp(dir=scratch),
                                 "ledger.jsonl"))
    record = run_record(run_id=f"{key[:16]}.0001", key=key, attempt=1,
                        machine=machine, app=app, nprocs=8, seed=42,
                        params=None, result=result, path="miss",
                        executor="serial", wall_s=0.5)
    start = time.perf_counter()
    for _ in range(n):
        ledger.append(record)
    return time.perf_counter() - start, n


def plan_pickle(scale: int, scratch: str) -> Tuple[float, int]:
    """Pickle + unpickle a 16-spec plan, as the pool ships it."""
    n = 200 // scale
    plan = RunPlan()
    for name in ("treadmarks", "sgi"):
        machine = make_machine(name)
        for workload in ("sor_large", "sor_small"):
            plan.add_series(machine, make_app(workload, Scale.BENCH),
                            (1, 2, 4, 8))
    start = time.perf_counter()
    for _ in range(n):
        pickle.loads(pickle.dumps(plan.specs,
                                  protocol=pickle.HIGHEST_PROTOCOL))
    return time.perf_counter() - start, n


def result_roundtrip(scale: int, scratch: str) -> Tuple[float, int]:
    """RunResult -> JSON text -> RunResult."""
    n = 1_000 // scale
    result = _sample_run()[2]
    start = time.perf_counter()
    for _ in range(n):
        RunResult.from_jsonable(json.loads(json.dumps(result.to_jsonable())))
    return time.perf_counter() - start, n


#: (metric, group, unit, loop).  A workload runs the groups of the
#: layers it is bound by; the unit says how seconds-per-operation is
#: scaled (``1/s`` inverts it).
MICROS = (
    ("sim.engine.events_per_s", "sim", "1/s", engine_events),
    ("sim.resource_acquire.ns", "sim", "ns", resource_acquire),
    ("mem.cache_access.ns_per_line", "mem", "ns", cache_access),
    ("mem.invalidate_lines.us", "mem", "us", invalidate_lines),
    ("net.atm_send.us", "net.atm", "us", atm_send),
    ("net.crossbar_transfer.us", "net.crossbar", "us", crossbar_transfer),
    ("dsm.newer_than.us", "dsm", "us", newer_than),
    ("dsm.apply_notice.us", "dsm", "us", apply_notice),
    ("dsm.encode_diff.us_per_page", "dsm", "us", diff_encode),
    ("dsm.apply_diff.us_per_page", "dsm", "us", diff_apply),
    ("dsm.vc_merge.ns", "dsm", "ns", vc_merge),
    ("hw.directory_read.us", "hw", "us", directory_read),
    ("hw.directory_write.us", "hw", "us", directory_write),
    ("hw.snoop_read.us", "hw", "us", snoop_read),
    ("hw.snoop_write.us", "hw", "us", snoop_write),
    ("harness.run_key.us", "harness", "us", harness_run_key),
    ("harness.cache_put.us", "harness", "us", cache_put),
    ("harness.cache_get.us", "harness", "us", cache_get),
    ("harness.ledger_append.us", "harness", "us", ledger_append),
    ("harness.plan_pickle.us", "harness", "us", plan_pickle),
    ("harness.result_roundtrip.us", "harness", "us", result_roundtrip),
)

MICRO_UNITS = {name: unit for name, _group, unit, _loop in MICROS}

_PER_SECOND = {"ns": 1e9, "us": 1e6}


def run_micros(groups, scale: int, scratch: str) -> Dict[str, float]:
    """Median over ``REPEATS`` of each loop in ``groups``.

    ``scale`` divides every loop count (``--quick`` passes 10);
    ``scratch`` is a directory the harness loops may fill.
    """
    out: Dict[str, float] = {}
    for name, group, unit, loop in MICROS:
        if group not in groups:
            continue
        samples = []
        for _ in range(REPEATS):
            seconds, ops = loop(scale, scratch)
            samples.append(ops / seconds if unit == "1/s"
                           else seconds / ops * _PER_SECOND[unit])
        out[name] = statistics.median(samples)
    return out
