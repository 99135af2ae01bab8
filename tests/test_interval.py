"""Intervals, write notices, and the interval log."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import SorApp
from repro.dsm.interval import (INTERVAL_HEADER_BYTES, NOTICE_RUN_BYTES,
                                Interval, IntervalLog)
from repro.dsm.vectorclock import VectorClock
from repro.machines import AllSoftwareMachine
from repro.net.faults import CrashEvent, FaultPlan


def make_interval(node, index, pages, width=3):
    vc = [0] * width
    vc[node] = index
    return Interval(node, index, tuple(vc), dict.fromkeys(pages, 100))


def test_notice_runs_contiguous_pages_compress():
    iv = make_interval(0, 1, range(10, 260))
    assert iv.num_notices == 250
    assert iv.notice_runs() == 1
    assert iv.wire_bytes() == INTERVAL_HEADER_BYTES + NOTICE_RUN_BYTES


def test_notice_runs_scattered_pages_do_not_compress():
    iv = make_interval(0, 1, [1, 3, 5, 7])
    assert iv.notice_runs() == 4
    assert iv.wire_bytes() == \
        INTERVAL_HEADER_BYTES + 4 * NOTICE_RUN_BYTES


def test_empty_interval():
    iv = Interval(0, 1, (1, 0, 0))
    assert iv.notice_runs() == 0
    assert iv.wire_bytes() == INTERVAL_HEADER_BYTES


def test_diff_pending_tracking():
    iv = make_interval(0, 1, [5])
    assert iv.diff_pending(5)
    iv.diffs_made.add(5)
    assert not iv.diff_pending(5)
    assert not iv.diff_pending(99)  # never dirtied


def test_log_enforces_order():
    log = IntervalLog(2)
    log.append(make_interval(0, 1, [1], width=2))
    with pytest.raises(ValueError):
        log.append(make_interval(0, 3, [2], width=2))
    log.append(make_interval(0, 2, [2], width=2))
    assert log.node_count(0) == 2
    assert log.node_count(1) == 0
    assert log.get(0, 2).pages == {2: 100}


def test_newer_than_selects_unseen_intervals():
    log = IntervalLog(2)
    for i in (1, 2, 3):
        log.append(make_interval(0, i, [i], width=2))
    log.append(make_interval(1, 1, [9], width=2))

    seen = VectorClock(entries=[1, 0])
    upto = VectorClock(entries=[3, 1])
    got = [(iv.node, iv.index) for iv in log.newer_than(seen, upto)]
    assert got == [(0, 2), (0, 3), (1, 1)]


def test_newer_than_clamps_to_log_length():
    log = IntervalLog(2)
    log.append(make_interval(0, 1, [1], width=2))
    seen = VectorClock(entries=[0, 0])
    upto = VectorClock(entries=[5, 5])   # beyond what exists
    got = list(log.newer_than(seen, upto))
    assert len(got) == 1


def test_notice_payload_counts_and_bytes():
    log = IntervalLog(2)
    log.append(make_interval(0, 1, [1, 2, 3], width=2))
    seen = VectorClock(entries=[0, 0])
    upto = VectorClock(entries=[1, 0])
    expected = (upto.wire_bytes() + INTERVAL_HEADER_BYTES +
                NOTICE_RUN_BYTES)  # pages 1..3 are one run
    assert log.notice_payload(seen, upto) == (3, expected)


def test_equal_clocks_nothing_new():
    log = IntervalLog(2)
    log.append(make_interval(0, 1, [1], width=2))
    vc = VectorClock(entries=[1, 0])
    assert log.notice_payload(vc, vc) == (0, vc.wire_bytes())
    assert log.newer_than(vc, vc) == []


# ----------------------------------------------------------------------
# sealed intervals
# ----------------------------------------------------------------------

def brute_runs(pages):
    """The pre-seal ``notice_runs()``: sort and count the breaks."""
    pages = sorted(pages)
    return sum(1 for i, page in enumerate(pages)
               if i == 0 or page != pages[i - 1] + 1)


@pytest.mark.parametrize("pages", [
    range(10, 260),                      # banded (SOR): one run
    [1, 3, 5, 7],                        # scattered (M-Water)
    [9, 2, 3, 40, 41, 42, 4],            # unsorted write order
    [*range(0, 60, 2), *range(100, 130)],  # big and broken up
    [],
])
def test_sealed_wire_bytes_equal_the_recount(pages):
    iv = make_interval(0, 1, pages)
    assert iv.notice_runs() == brute_runs(pages)
    assert iv.wire_bytes() == (INTERVAL_HEADER_BYTES +
                               brute_runs(pages) * NOTICE_RUN_BYTES)
    assert [page for page, _record in iv.notices] == sorted(pages)


def test_sealed_interval_pages_are_read_only():
    iv = make_interval(0, 1, [5])
    with pytest.raises(TypeError):
        iv.pages[6] = 100
    with pytest.raises(TypeError):
        del iv.pages[5]
    assert iv.pages == {5: 100}


# ----------------------------------------------------------------------
# prefix sums == a walk over newer_than
# ----------------------------------------------------------------------

def walked_payload(log, vc, upto):
    """What ``notices_between`` + ``consistency_bytes`` used to do."""
    intervals = log.newer_than(vc, upto)
    return (sum(iv.num_notices for iv in intervals),
            upto.wire_bytes() + sum(iv.wire_bytes() for iv in intervals))


def index_walk(log, vc, upto):
    """``newer_than`` spelled out: node-major, index-ascending."""
    return [(node, index) for node in range(log.num_nodes)
            for index in range(vc[node] + 1,
                               min(upto[node], log.node_count(node)) + 1)]


page_sets = st.sets(st.integers(0, 63), min_size=1, max_size=24)


@st.composite
def logs_and_clock_pairs(draw):
    nodes = draw(st.integers(1, 5))
    log = IntervalLog(nodes)
    for node in range(nodes):
        for index in range(1, draw(st.integers(0, 6)) + 1):
            log.append(make_interval(node, index, draw(page_sets),
                                     width=nodes))
    # Components range past the end of each node's log, and the two
    # clocks are drawn independently, so vc[n] > upto[n] occurs.
    component = st.integers(0, 8)
    vc = [draw(component) for _ in range(nodes)]
    upto = [draw(component) for _ in range(nodes)]
    if draw(st.booleans()):
        # fail_node step 1: survivors mark every closed interval of
        # the dead node as seen; a snapshot taken before the crash
        # then trails the receiver on that component.
        dead = draw(st.integers(0, nodes - 1))
        vc[dead] = log.node_count(dead)
    return log, VectorClock(entries=vc), VectorClock(entries=upto)


@settings(max_examples=200, deadline=None)
@given(logs_and_clock_pairs())
def test_prefix_sums_equal_a_walk_over_newer_than(case):
    log, vc, upto = case
    got = [(iv.node, iv.index) for iv in log.newer_than(vc, upto)]
    assert got == index_walk(log, vc, upto)
    assert log.notice_payload(vc, upto) == walked_payload(log, vc, upto)


def test_prefix_sums_equal_a_walk_in_a_crashed_run(monkeypatch):
    """The same oracle inside a real run whose clocks ``fail_node``
    seals: every payload the protocol sizes matches the walk, and the
    run does meet receivers ahead of the sender."""
    prefix_sums = IntervalLog.notice_payload
    seen = {"calls": 0, "ahead": 0}

    def checked(self, vc, upto):
        payload = prefix_sums(self, vc, upto)
        assert payload == walked_payload(self, vc, upto)
        seen["calls"] += 1
        seen["ahead"] += any(a > b for a, b in zip(vc.entries,
                                                   upto.entries))
        return payload

    monkeypatch.setattr(IntervalLog, "notice_payload", checked)
    plan = FaultPlan(crashes=(CrashEvent(3, 150_000),),
                     detect_cycles=200_000)
    result = AllSoftwareMachine(faults=plan).run(
        SorApp(rows=32, cols=32, iterations=4), 4)
    assert result.degraded is not None
    assert seen["calls"] > 0 and seen["ahead"] > 0
