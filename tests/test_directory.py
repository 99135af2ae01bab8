"""Directory-based coherence over the crossbar."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.directory import DirectorySystem, sharer_pairs
from repro.mem.directcache import DirectMappedCache, MODIFIED
from repro.net.crossbar import CrossbarNetwork
from repro.sim.engine import Engine
from repro.stats.counters import Counters

LINE = 64
LINES_PER_PAGE = 64
TOTAL_LINES = 8 * LINES_PER_PAGE


def make_system(nprocs=4, cache_lines=16):
    counters = Counters()
    engine = Engine()
    caches = [DirectMappedCache(cache_lines * LINE, LINE, name=f"c{i}")
              for i in range(nprocs)]
    xbar = CrossbarNetwork(engine, nprocs, bandwidth_bytes_per_sec=200e6,
                           latency_cycles=10, clock_hz=100e6,
                           counters=counters)
    system = DirectorySystem(
        caches, xbar, counters,
        total_lines=TOTAL_LINES, lines_per_page=LINES_PER_PAGE,
        line_bytes=LINE, local_miss_cycles=20,
        remote_clean_cycles=90, remote_dirty_cycles=130)
    return system, counters


def test_sharer_pairs():
    masks = np.array([0, 1, 0, 0x8001, 2**63 + 2], dtype=np.uint64)
    index, procs = sharer_pairs(masks)
    assert list(zip(index.tolist(), procs.tolist())) == [
        (1, 0), (3, 0), (3, 15), (4, 1), (4, 63)]
    index, procs = sharer_pairs(np.zeros(3, dtype=np.uint64))
    assert index.size == procs.size == 0


def test_too_many_procs_rejected():
    counters = Counters()
    engine = Engine()
    caches = [DirectMappedCache(LINE, LINE) for _ in range(65)]
    xbar = CrossbarNetwork(engine, 65, bandwidth_bytes_per_sec=1e6,
                           latency_cycles=1, clock_hz=1e6,
                           counters=counters)
    with pytest.raises(Exception):
        DirectorySystem(caches, xbar, counters, total_lines=10,
                        lines_per_page=1, line_bytes=LINE)


def test_first_touch_homing():
    system, counters = make_system()
    system.read(2, 0, 4, now=0)
    assert list(system.home_of(np.arange(4))) == [2, 2, 2, 2]
    # Re-reads by others keep the established home.
    system.read(1, 0, 4, now=100)
    assert list(system.home_of(np.arange(4))) == [2, 2, 2, 2]


def test_local_vs_remote_latency():
    system, _ = make_system()
    t_first = system.read(0, 0, 4, now=0) - 0
    system.caches[0].flush()
    t_local = system.read(0, 0, 4, now=0) - 0
    system.caches[1].flush()
    t_remote_end = system.read(1, 0, 4, now=0)
    assert t_local <= t_first  # same class (local once homed)
    assert t_remote_end > t_local  # remote-clean costs 90 > 20


def test_dirty_remote_costs_most_and_flushes_owner():
    system, counters = make_system()
    system.write(0, 0, 1, now=0)
    assert system.owner[0] == 0
    end = system.read(1, 0, 1, now=1000)
    assert end - 1000 >= 130
    assert system.owner[0] == -1
    assert system.caches[0].state_of(0) != MODIFIED
    assert counters.cache_to_cache == 1


def test_write_invalidates_all_sharers():
    system, counters = make_system()
    for proc in (0, 1, 2):
        system.read(proc, 0, 4, now=0)
    system.write(3, 0, 4, now=100)
    for proc in (0, 1, 2):
        assert not system.caches[proc].probe_lines(np.arange(4))[0].any()
    assert counters.invalidations >= 8  # two other sharers x 4 lines
    assert (system.sharers[np.arange(4)] ==
            np.uint64(1) << np.uint64(3)).all()
    assert (system.owner[np.arange(4)] == 3).all()


def test_eviction_deregisters():
    system, _ = make_system(cache_lines=4)
    system.write(0, 0, 4, now=0)
    # Reading 4 conflicting lines evicts the dirty ones.
    system.read(0, 4, 8, now=100)
    assert (system.owner[np.arange(4)] == -1).all()
    system.check_invariants()


def test_bulk_refetch_in_one_access_keeps_registration():
    """A bulk access longer than the cache may evict a line in one
    chunk and refetch it in a later chunk of the same access (with 8
    sets, write(15, 34) evicts line 32 when line 24 fills set 0, then
    write(24, 33)'s second chunk refetches it).  The refetched copy
    ends the access resident, so it must stay directory-registered —
    a deregistered-but-resident copy would be invisible to later
    invalidations.
    """
    system, _ = make_system(cache_lines=8)
    system.write(1, 15, 34, now=0)
    system.write(1, 24, 33, now=10_000)
    assert system.caches[1].state_of(32) == MODIFIED
    assert system.owner[32] == 1
    assert system.sharers[32] == np.uint64(1) << np.uint64(1)
    system.check_invariants()
    # The interim eviction's writeback must still invalidate cleanly:
    # another writer takes the line over in full.
    system.write(2, 32, 33, now=20_000)
    assert system.caches[1].state_of(32) != MODIFIED
    assert system.owner[32] == 2


def test_directory_invariants_after_random_script(rng):
    system, _ = make_system()
    now = 0
    for _ in range(100):
        proc = int(rng.integers(4))
        first = int(rng.integers(0, 30))
        length = int(rng.integers(1, 10))
        if rng.random() < 0.5:
            now = system.read(proc, first, first + length, now)
        else:
            now = system.write(proc, first, first + length, now)
    system.check_invariants()


def _owned_shared_and_dirty():
    """Line 0 MODIFIED in cache 0, line 4 SHARED in caches 1 and 2."""
    system, _ = make_system()
    system.write(0, 0, 1, now=0)
    system.read(1, 4, 5, now=100)
    system.read(2, 4, 5, now=200)
    system.check_invariants()
    return system


def test_check_invariants_owned_line_with_second_sharer():
    system = _owned_shared_and_dirty()
    system.sharers[0] |= np.uint64(1) << np.uint64(3)
    with pytest.raises(AssertionError, match="single sharer"):
        system.check_invariants()


def test_check_invariants_modified_line_without_owner():
    system = _owned_shared_and_dirty()
    system.owner[0] = -1              # the directory forgot the owner
    with pytest.raises(AssertionError, match="MODIFIED line"):
        system.check_invariants()
    system = _owned_shared_and_dirty()
    system.caches[1].states[4] = MODIFIED     # a copy went dirty silently
    with pytest.raises(AssertionError, match="MODIFIED line"):
        system.check_invariants()


def test_check_invariants_resident_line_without_sharer_bit():
    system = _owned_shared_and_dirty()
    system.sharers[4] &= ~(np.uint64(1) << np.uint64(2))
    with pytest.raises(AssertionError, match="sharer bit"):
        system.check_invariants()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.booleans(),
                          st.integers(0, 30), st.integers(1, 8)),
                min_size=1, max_size=40))
def test_single_writer_property(script):
    """No line is ever MODIFIED in two caches at once."""
    system, _ = make_system()
    now = 0
    for proc, write, first, length in script:
        if write:
            now = system.write(proc, first, first + length, now)
        else:
            now = system.read(proc, first, first + length, now)
    states = np.stack([c.states for c in system.caches])
    tags = np.stack([c.tags for c in system.caches])
    for line in range(31 + 8):
        holders = 0
        for p in range(4):
            s = line % system.caches[p].num_sets
            if tags[p, s] == line and states[p, s] == MODIFIED:
                holders += 1
        assert holders <= 1
