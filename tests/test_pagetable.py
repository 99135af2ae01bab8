"""Per-node page tables: validity, twins, dirty tracking, pending diffs."""

import pytest

from repro.dsm.diff import estimate_wire_bytes
from repro.dsm.interval import Interval
from repro.dsm.pagetable import NodePages


def test_starts_warm():
    table = NodePages(0, 16)
    assert table.is_valid(7)
    assert list(table.invalid_in(0, 16)) == []


def test_invalid_in_reports_global_page_numbers():
    table = NodePages(0, 16)
    table.apply_notice(5, creator=1, wire_bytes=10, interval_index=1)
    table.apply_notice(9, creator=1, wire_bytes=10, interval_index=1)
    assert list(table.invalid_in(4, 12)) == [5, 9]
    assert list(table.invalid_in(6, 9)) == []


def test_own_notices_ignored():
    table = NodePages(2, 8)
    invalidated = table.apply_notice(3, creator=2, wire_bytes=10,
                                     interval_index=1)
    assert not invalidated
    assert table.is_valid(3)


def test_apply_notice_reports_first_invalidation_only():
    table = NodePages(0, 8)
    assert table.apply_notice(3, 1, 10, 1) is True
    assert table.apply_notice(3, 1, 12, 2) is False
    # (creator, interval index, diff wire bytes), in arrival order
    assert table.begin_fault(3) == [(1, 1, 10), (1, 2, 12)]


def test_pending_accumulates_per_creator():
    table = NodePages(0, 8)
    table.apply_notice(3, 1, 10, 1)
    table.apply_notice(3, 2, 20, 1)
    assert table.begin_fault(3) == [(1, 1, 10), (2, 1, 20)]


def test_begin_fault_clears_pending():
    table = NodePages(0, 8)
    table.apply_notice(3, 1, 10, 1)
    table.begin_fault(3)
    assert table.begin_fault(3) == []


@pytest.mark.parametrize("pages", [[3], [1, 2, 5], range(4, 40)])
def test_apply_interval_shares_the_sealed_records(pages):
    """Every page ends invalid, the count is of copies that were
    valid, and receivers hold the interval's own record objects, not
    copies."""
    interval = Interval(1, 1, (0, 1), dict.fromkeys(pages, 100))
    first, second = NodePages(0, 64), NodePages(2, 64)
    first.apply_notice(5, 2, 10, 7)              # page 5 already invalid
    expected = len(pages) - (5 in pages)
    assert first.apply_interval(interval) == expected
    assert second.apply_interval(interval) == len(pages)
    assert list(first.invalid_in(0, 64)) == sorted({5, *pages})
    for page, record in interval.notices:
        assert record == (1, 1, estimate_wire_bytes(100))
        assert first.pending[page][-1] is record
        assert second.pending[page] == [record]


def test_apply_interval_ignores_own_interval():
    table = NodePages(1, 8)
    assert table.apply_interval(Interval(1, 1, (0, 1), {3: 100})) == 0
    assert table.is_valid(3) and not table.pending


def test_revalidate():
    table = NodePages(0, 8)
    table.apply_notice(3, 1, 10, 1)
    assert not table.is_valid(3)
    table.revalidate(3)
    assert table.is_valid(3)


def test_record_write_twins_once_until_consumed():
    table = NodePages(0, 8)
    assert table.record_write(2, 100) is True     # first write: twin
    assert table.record_write(2, 50) is False     # still twinned
    dirty = table.take_dirty(page_bytes=4096)
    assert dirty == {2: 150}
    # Twin persists across interval end...
    assert table.record_write(2, 10) is False
    # ...until diff creation consumes it.
    table.consume_twin(2)
    assert table.record_write(2, 10) is True


def test_take_dirty_caps_at_page_size():
    table = NodePages(0, 8)
    table.record_write(1, 10_000)
    assert table.take_dirty(4096) == {1: 4096}


def test_take_dirty_resets():
    table = NodePages(0, 8)
    table.record_write(1, 10)
    assert table.has_dirty
    table.take_dirty(4096)
    assert not table.has_dirty
    assert table.take_dirty(4096) == {}


def test_stats():
    table = NodePages(0, 8)
    table.apply_notice(3, 1, 10, 1)
    table.record_write(5, 10)
    s = table.stats()
    assert s["valid_pages"] == 7
    assert s["invalid_pages"] == 1
    assert s["dirty_pages"] == 1
    assert s["pending_pages"] == 1
