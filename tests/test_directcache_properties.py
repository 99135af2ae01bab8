"""Property-based tests for the direct-mapped cache model.

A reference model — a dict from set to (tag, state) — is driven with
the same operations; the vectorized implementation must agree with it
on residency, dirtiness, and every miss/eviction count.  The per-line
primitive ``access_short`` must find exactly what ``access`` finds.
"""

from hypothesis import given, settings, strategies as st

from repro.mem.directcache import (DirectMappedCache, INVALID, MODIFIED,
                                   SHARED)

NUM_SETS = 8
LINE = 64


class ReferenceCache:
    """Line-at-a-time direct-mapped cache (the obvious slow model)."""

    def __init__(self):
        self.sets = {}

    def access(self, first, last, write):
        hits = misses = dirty_evict = clean_evict = upgrades = 0
        for line in range(first, last):
            s = line % NUM_SETS
            tag, state = self.sets.get(s, (-1, INVALID))
            if tag == line and state != INVALID:
                hits += 1
                if write:
                    if state == SHARED:
                        upgrades += 1
                    self.sets[s] = (line, MODIFIED)
            else:
                misses += 1
                if state == MODIFIED:
                    dirty_evict += 1
                elif state != INVALID:
                    clean_evict += 1
                self.sets[s] = (line, MODIFIED if write else SHARED)
        return hits, misses, dirty_evict, clean_evict, upgrades

    def resident(self):
        return sorted(tag for tag, state in self.sets.values()
                      if state != INVALID)

    def dirty(self):
        return sorted(tag for tag, state in self.sets.values()
                      if state == MODIFIED)


ops = st.lists(
    st.tuples(st.integers(0, 40),        # first line
              st.integers(1, 30),        # length
              st.booleans()),            # write?
    min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(ops)
def test_matches_reference_model(op_list):
    cache = DirectMappedCache(NUM_SETS * LINE, LINE)
    ref = ReferenceCache()
    for first, length, write in op_list:
        res = cache.access(first, first + length, write)
        hits, misses, dirty_evict, clean_evict, upgrades = ref.access(
            first, first + length, write)
        assert res.hits == hits
        assert res.misses == misses
        assert len(res.evicted_dirty_lines) == dirty_evict
        assert len(res.evicted_clean_lines) == clean_evict
        assert res.upgrades == upgrades
        assert list(cache.resident_lines()) == ref.resident()

    dirty = ref.dirty()
    assert cache.dirty_count() == len(dirty)


@settings(max_examples=200, deadline=None)
@given(ops)
def test_access_short_matches_access(op_list):
    bulk = DirectMappedCache(NUM_SETS * LINE, LINE)
    short = DirectMappedCache(NUM_SETS * LINE, LINE)
    ref = ReferenceCache()
    for first, length, write in op_list:
        res = bulk.access(first, first + length, write)
        hits, misses, upgrades, dirty, clean = short.access_short(
            first, first + length, write)
        assert hits == res.hits
        assert misses == res.miss_lines.tolist()
        assert upgrades == res.upgrade_lines.tolist()
        assert dirty == res.evicted_dirty_lines.tolist()
        assert clean == res.evicted_clean_lines.tolist()
        assert (hits, len(misses), len(dirty), len(clean),
                len(upgrades)) == ref.access(first, first + length, write)
        assert (short.tags == bulk.tags).all()
        assert (short.states == bulk.states).all()


@settings(max_examples=100, deadline=None)
@given(ops, st.integers(0, 40), st.integers(1, 30))
def test_invalidate_clears_exactly_range(op_list, first, length):
    cache = DirectMappedCache(NUM_SETS * LINE, LINE)
    for f, ln, w in op_list:
        cache.access(f, f + ln, w)
    before = set(cache.resident_lines())
    present, dirty = cache.invalidate_range(first, first + length)
    after = set(cache.resident_lines())
    cleared = before - after
    assert cleared == {l for l in before if first <= l < first + length}
    assert present == len(cleared)
    assert dirty <= present


@settings(max_examples=100, deadline=None)
@given(ops)
def test_flush_returns_dirty_count(op_list):
    cache = DirectMappedCache(NUM_SETS * LINE, LINE)
    for f, ln, w in op_list:
        cache.access(f, f + ln, w)
    dirty = cache.dirty_count()
    assert cache.flush() == dirty
    assert cache.resident_count() == 0
