"""Direct-mapped cache: bulk accesses, states, evictions."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mem.directcache import (CacheStack, DirectMappedCache, EXCLUSIVE,
                                   INVALID, MODIFIED, SHARED)


@pytest.fixture
def cache():
    # 16 sets of 64-byte lines.
    return DirectMappedCache(1024, 64)


def test_validation():
    with pytest.raises(ConfigurationError):
        DirectMappedCache(1000, 64)
    with pytest.raises(ConfigurationError):
        DirectMappedCache(0, 64)
    with pytest.raises(ConfigurationError):
        DirectMappedCache(64, 0)


def test_cold_read_all_misses(cache):
    res = cache.read(0, 10)
    assert res.misses == 10 and res.hits == 0
    assert list(res.miss_lines) == list(range(10))
    assert all(cache.state_of(l) == SHARED for l in range(10))


def test_warm_read_all_hits(cache):
    cache.read(0, 10)
    res = cache.read(0, 10)
    assert res.hits == 10 and res.misses == 0


def test_write_marks_modified_and_reports_upgrades(cache):
    cache.read(0, 4)
    res = cache.write(0, 4)
    assert res.hits == 4
    assert res.upgrades == 4          # SHARED -> MODIFIED needs the bus
    assert cache.state_of(2) == MODIFIED
    res2 = cache.write(0, 4)
    assert res2.upgrades == 0         # already MODIFIED: silent


def test_exclusive_upgrade_is_silent(cache):
    cache.read(0, 2)
    cache.promote(np.array([0, 1]), EXCLUSIVE)
    res = cache.write(0, 2)
    assert res.hits == 2 and res.upgrades == 0
    assert cache.state_of(0) == MODIFIED


def test_conflict_eviction_clean(cache):
    cache.read(0, 1)
    res = cache.read(16, 17)   # same set (16 % 16 == 0)
    assert res.misses == 1
    assert list(res.evicted_clean_lines) == [0]
    assert cache.state_of(0) == INVALID
    assert cache.state_of(16) == SHARED


def test_conflict_eviction_dirty(cache):
    cache.write(3, 4)
    res = cache.read(19, 20)
    assert list(res.evicted_dirty_lines) == [3]
    assert res.writebacks == 1


def test_range_longer_than_cache(cache):
    res = cache.read(0, 40)    # 40 lines through 16 sets
    assert res.misses == 40
    assert cache.resident_count() == 16
    # Final residents are the last 16 lines.
    assert sorted(cache.resident_lines()) == list(range(24, 40))


def test_long_dirty_range_self_evicts_with_writebacks(cache):
    res = cache.write(0, 40)
    # 24 lines were displaced by the tail of the same access, all dirty.
    assert res.misses == 40
    assert res.writebacks == 24
    assert cache.dirty_count() == 16


def test_invalidate_range(cache):
    cache.read(0, 8)
    cache.write(4, 6)
    present, dirty = cache.invalidate_range(2, 6)
    assert present == 4 and dirty == 2
    assert cache.state_of(3) == INVALID
    assert cache.state_of(6) == SHARED


def test_invalidate_lines(cache):
    cache.write(0, 4)
    present, dirty = cache.invalidate_lines(np.array([1, 2, 99]))
    assert present == 2 and dirty == 2


def test_probe_lines(cache):
    cache.read(0, 2)
    cache.write(5, 6)
    present, dirty = cache.probe_lines(np.array([0, 1, 5, 9]))
    assert list(present) == [True, True, True, False]
    assert list(dirty) == [False, False, True, False]


def test_flush(cache):
    cache.write(0, 5)
    assert cache.flush() == 5
    assert cache.resident_count() == 0


def test_empty_ranges_noop(cache):
    assert cache.read(5, 5).misses == 0
    assert cache.invalidate_range(5, 5) == (0, 0)
    empty = np.empty(0, dtype=np.int64)
    assert cache.invalidate_lines(empty) == (0, 0)
    assert cache.probe_lines(empty)[0].size == 0


# ----------------------------------------------------------------------
# the stacked block of one coherence domain
# ----------------------------------------------------------------------

@pytest.fixture
def stack():
    caches = [DirectMappedCache(1024, 64, name=f"c{i}") for i in range(3)]
    caches[0].write(0, 3)
    return CacheStack(caches), caches


def test_stack_adopts_caches_as_row_views(stack):
    block, caches = stack
    assert block.tags.shape == block.states.shape == (3, 16)
    for row, cache in enumerate(caches):
        assert np.shares_memory(cache.tags, block.tags[row])
        assert np.shares_memory(cache.states, block.states[row])
    # State written before adoption moved in; later accesses land in it.
    assert list(block.states[0, :4]) == [MODIFIED] * 3 + [INVALID]
    caches[2].read(5, 6)
    assert block.tags[2, 5] == 5 and block.states[2, 5] == SHARED


def test_stack_rejects_unequal_geometry():
    with pytest.raises(ConfigurationError):
        CacheStack([DirectMappedCache(1024, 64), DirectMappedCache(2048, 64)])
    with pytest.raises(ConfigurationError):
        CacheStack([DirectMappedCache(1024, 64), DirectMappedCache(1024, 32)])


def test_peer_copies_excludes_the_requester(stack):
    block, caches = stack
    caches[1].read(1, 2)
    caches[2].read(1, 3)
    rows, cols = block.peer_copies(0, np.array([0, 1, 2, 9]))
    assert sorted(zip(rows.tolist(), cols.tolist())) == [
        (1, 1), (2, 1), (2, 2)]
    rows, cols = block.peer_copies(2, np.array([9]))
    assert rows.size == cols.size == 0


def test_downgrade_lines(stack):
    block, caches = stack
    caches[1].read(8, 9)
    caches[1].promote(np.array([8]), EXCLUSIVE)
    rows, lines = np.array([0, 0, 1, 2]), np.array([0, 2, 8, 0])
    assert block.downgrade(rows, lines) == 2      # the two MODIFIED pairs
    assert caches[0].state_of(0) == caches[0].state_of(2) == SHARED
    assert caches[0].state_of(1) == MODIFIED      # not a pair: untouched
    assert caches[1].state_of(8) == SHARED        # clean E loses exclusivity
    assert caches[2].state_of(0) == INVALID       # absent pair: no-op
    # Idempotent: nothing dirty the second time.
    assert block.downgrade(rows, lines) == 0


def test_stack_invalidate_pairs(stack):
    block, caches = stack
    caches[1].read(16, 17)                        # set 0 of cache 1
    rows, lines = np.array([0, 1, 2]), np.array([1, 0, 1])
    assert block.invalidate(rows, lines) == (1, 1)
    assert caches[0].state_of(1) == INVALID
    assert caches[1].state_of(16) == SHARED       # same set, other tag
    assert block.tags[0, 1] == -1


def test_stack_invalidate_range_hits_every_row(stack):
    block, caches = stack
    caches[1].read(14, 18)                        # wraps the set index
    caches[2].read(0, 2)
    assert block.invalidate_range(1, 17) == (6, 2)
    assert [c.resident_count() for c in caches] == [1, 1, 1]
    assert caches[1].state_of(17) == SHARED
