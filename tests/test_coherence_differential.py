"""The stacked coherence kernel against the per-cache loops it replaced.

``tests/reference_coherence.py`` is the oracle.  Every script runs on
both; after *every* operation the completion time, each cache's
``tags``/``states``, the directory's ``owner``/``sharers``/page homes,
every bus and crossbar-port ``Resource`` and every ``Counters`` field
must be equal.  Caches have 8 sets, so scripts of lines 0..70 with
lengths up to 20 hold one-line accesses, ranges that wrap the set
index, ranges longer than the cache and lines evicted and refetched
within one access.

Writes of at most ``SHORT_SPAN_LINES`` lines take the per-line path
(:meth:`DirectMappedCache.access_short`); the fixed script also runs
with every write forced onto each path, the per-line one included on
spans longer than the cache.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.hw.directory import DirectorySystem
from repro.hw.snoop import SnoopingSystem
from repro.mem import directcache
from repro.mem.directcache import (DirectMappedCache, EXCLUSIVE, MODIFIED,
                                   SHARED, SHORT_SPAN_LINES)
from repro.net.bus import BusModel, BusTiming
from repro.net.crossbar import CrossbarNetwork
from repro.sim.engine import Engine
from repro.stats.counters import Counters
from tests.reference_coherence import (ReferenceCache,
                                       ReferenceDirectorySystem,
                                       ReferenceSnoopingSystem)

LINE = 64
SETS = 8
TOTAL_LINES = 96
PROCS = (2, 8, 64)

#: One of each kind the issue names, usable at any processor count
#: (procs are taken modulo P): (proc, write, first, length).
FIXED_SCRIPT = [
    (0, False, 0, 6),     # cold slice
    (1, False, 3, 1),     # one-line read of a peer's EXCLUSIVE copy
    (1, True, 3, 1),      # one-line SHARED -> upgrade
    (0, True, 0, 1),      # EXCLUSIVE -> silent upgrade
    (0, False, 6, 5),     # wraps the set index
    (1, True, 5, 19),     # longer than the cache, over peers' copies
    (0, True, 15, 19),    # evicts line 32 ...
    (0, True, 24, 9),     # ... and refetches it within one access
    (5, False, 20, 20),   # long read across a dirty owner's lines
    (1, False, 24, 4),    # all hits
    (7, True, 2, 3),
    (2, True, 40, SHORT_SPAN_LINES),          # longest per-line write
    (3, True, 41, SHORT_SPAN_LINES + 1),      # shortest numpy write
    (2, True, 41, SHORT_SPAN_LINES + 1),
    (3, True, 40, SHORT_SPAN_LINES),
]

#: ``SHORT_SPAN_LINES`` values that force every write onto one path.
PATHS = {"numpy": 0, "per-line": 1 << 30}

scripts = st.lists(
    st.tuples(st.integers(0, 63), st.booleans(), st.integers(0, 70),
              st.one_of(st.just(1), st.integers(2, 8),
                        st.integers(9, 20))),
    min_size=1, max_size=30)


def build_snoop(system_cls, cache_cls, nprocs, hold_bus):
    counters = Counters()
    caches = [cache_cls(SETS * LINE, LINE, name=f"c{i}")
              for i in range(nprocs)]
    bus = BusModel("bus", BusTiming(), counters)
    return system_cls(caches, bus, counters, line_bytes=LINE,
                      hold_bus_during_memory=hold_bus)


def build_directory(system_cls, cache_cls, nprocs):
    counters = Counters()
    caches = [cache_cls(SETS * LINE, LINE, name=f"c{i}")
              for i in range(nprocs)]
    xbar = CrossbarNetwork(Engine(), nprocs, bandwidth_bytes_per_sec=200e6,
                           latency_cycles=10, clock_hz=100e6,
                           counters=counters)
    return system_cls(caches, xbar, counters, total_lines=TOTAL_LINES,
                      lines_per_page=4, line_bytes=LINE)


def resources(system):
    """Every bus or crossbar-port ``Resource`` the system charges."""
    if hasattr(system, "bus"):
        return [system.bus.resource]
    return system.network.out_ports + system.network.in_ports


def assert_same_state(new, ref, step):
    for cache, oracle in zip(new.caches, ref.caches):
        assert (cache.tags == oracle.tags).all(), (step, cache.name)
        assert (cache.states == oracle.states).all(), (step, cache.name)
    assert asdict(new.counters) == asdict(ref.counters), step
    assert ([asdict(res) for res in resources(new)] ==
            [asdict(res) for res in resources(ref)]), step
    if hasattr(ref, "owner"):
        assert (new.owner == ref.owner).all(), step
        assert (new.sharers == ref.sharers).all(), step
        assert (new._page_home == ref._page_home).all(), step
        new.check_invariants()


def run_both(new, ref, script, nprocs):
    now = 0
    for step, (proc, write, first, length) in enumerate(script):
        op = "write" if write else "read"
        end = getattr(new, op)(proc % nprocs, first, first + length, now)
        expect = getattr(ref, op)(proc % nprocs, first, first + length, now)
        assert end == expect, (step, op, proc % nprocs, first, length)
        assert_same_state(new, ref, step)
        now = end + 7


def snoop_pair(nprocs, hold_bus):
    return (build_snoop(SnoopingSystem, DirectMappedCache, nprocs, hold_bus),
            build_snoop(ReferenceSnoopingSystem, ReferenceCache, nprocs,
                        hold_bus))


def directory_pair(nprocs):
    return (build_directory(DirectorySystem, DirectMappedCache, nprocs),
            build_directory(ReferenceDirectorySystem, ReferenceCache, nprocs))


@pytest.mark.parametrize("hold_bus", [True, False])
@pytest.mark.parametrize("nprocs", PROCS)
def test_snoop_fixed_script_matches_reference(nprocs, hold_bus):
    run_both(*snoop_pair(nprocs, hold_bus), FIXED_SCRIPT, nprocs)


@pytest.mark.parametrize("nprocs", PROCS)
def test_directory_fixed_script_matches_reference(nprocs):
    run_both(*directory_pair(nprocs), FIXED_SCRIPT, nprocs)


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("nprocs", PROCS)
def test_fixed_script_matches_reference_on_each_path(nprocs, path,
                                                     monkeypatch):
    monkeypatch.setattr(directcache, "SHORT_SPAN_LINES", PATHS[path])
    for hold_bus in (True, False):
        run_both(*snoop_pair(nprocs, hold_bus), FIXED_SCRIPT, nprocs)
    run_both(*directory_pair(nprocs), FIXED_SCRIPT, nprocs)


@settings(max_examples=40, deadline=None)
@given(scripts, st.sampled_from(PROCS), st.booleans())
def test_snoop_matches_reference(script, nprocs, hold_bus):
    run_both(*snoop_pair(nprocs, hold_bus), script, nprocs)


@settings(max_examples=60, deadline=None)
@given(scripts, st.sampled_from(PROCS))
def test_directory_matches_reference(script, nprocs):
    run_both(*directory_pair(nprocs), script, nprocs)


# ----------------------------------------------------------------------
# one case per branch of DirectMappedCache.access
# ----------------------------------------------------------------------

OUTCOMES = ("miss_lines", "upgrade_lines", "evicted_dirty_lines",
            "evicted_clean_lines")


def _prepared(cache_cls, prepare):
    cache = cache_cls(SETS * LINE, LINE)
    for first, last, write, promote in prepare:
        cache.access(first, last, write)
        if promote:
            cache.promote(np.arange(first, last), EXCLUSIVE)
    return cache


BRANCHES = [
    pytest.param([], (2, 6, False), id="slice-all-miss"),
    pytest.param([(2, 6, False, False)], (2, 6, False), id="slice-all-hit"),
    pytest.param([(2, 4, False, False)], (0, 6, True), id="slice-mixed"),
    pytest.param([(10, 14, True, False)], (2, 6, False),
                 id="slice-dirty-victims"),
    pytest.param([(8, 10, False, False), (10, 12, True, False)],
                 (0, 4, True), id="slice-clean-and-dirty-victims"),
    pytest.param([], (6, 11, True), id="wrap-all-miss"),
    pytest.param([(6, 11, False, False)], (6, 11, False), id="wrap-all-hit"),
    pytest.param([(7, 9, True, False)], (5, 12, False), id="wrap-mixed"),
    pytest.param([], (3, 30, False), id="multi-chunk-read"),
    pytest.param([(0, 8, True, False)], (3, 30, True),
                 id="multi-chunk-write-self-evicts"),
    pytest.param([(3, 6, False, False)], (3, 6, True), id="shared-upgrades"),
    pytest.param([(3, 6, False, True)], (3, 6, True), id="exclusive-silent"),
    pytest.param([(3, 6, True, False)], (3, 6, True), id="modified-silent"),
    pytest.param([], (5, 5, True), id="empty"),
]


@pytest.mark.parametrize("prepare, access", BRANCHES)
def test_access_branch_matches_reference(prepare, access):
    cache = _prepared(DirectMappedCache, prepare)
    oracle = _prepared(ReferenceCache, prepare)
    res, expect = cache.access(*access), oracle.access(*access)
    assert res.hits == expect.hits
    for name in OUTCOMES:
        assert list(getattr(res, name)) == list(getattr(expect, name)), name
    assert (cache.tags == oracle.tags).all()
    assert (cache.states == oracle.states).all()


@pytest.mark.parametrize("prepare, access", BRANCHES)
def test_access_short_branch_matches_reference(prepare, access):
    cache = _prepared(DirectMappedCache, prepare)
    oracle = _prepared(ReferenceCache, prepare)
    hits, *found = cache.access_short(*access)
    expect = oracle.access(*access)
    assert hits == expect.hits
    for name, lines in zip(OUTCOMES, found):
        assert lines == list(getattr(expect, name)), name
    assert (cache.tags == oracle.tags).all()
    assert (cache.states == oracle.states).all()


def test_access_branch_outcomes():
    """The three state outcomes by value, not only by agreement."""
    cache = DirectMappedCache(SETS * LINE, LINE)
    cache.read(0, 3)
    cache.promote(np.array([1]), EXCLUSIVE)
    res = cache.write(0, 3)
    assert res.hits == 3 and list(res.upgrade_lines) == [0, 2]
    assert all(cache.state_of(line) == MODIFIED for line in range(3))
    assert cache.read(0, 3).hits == 3 and cache.state_of(0) == MODIFIED
    assert cache.read(3, 4).misses == 1 and cache.state_of(3) == SHARED


@pytest.mark.parametrize("build", [
    lambda caches: SnoopingSystem(
        caches, BusModel("bus", BusTiming(), Counters()), Counters(),
        line_bytes=LINE),
    lambda caches: DirectorySystem(
        caches, None, Counters(), total_lines=TOTAL_LINES,
        lines_per_page=4, line_bytes=LINE),
], ids=["snoop", "directory"])
def test_unequal_geometry_in_one_domain_is_rejected(build):
    with pytest.raises(ConfigurationError):
        build([DirectMappedCache(SETS * LINE, LINE),
               DirectMappedCache(2 * SETS * LINE, LINE)])
