"""FCFS resources and resource groups."""

from dataclasses import astuple

import numpy as np
import pytest

from repro.sim.resource import MultiResource, Resource


def test_uncontended_acquire_starts_immediately():
    r = Resource("bus")
    start, end = r.acquire(100, 50)
    assert (start, end) == (100, 150)
    assert r.total_wait == 0


def test_contended_acquire_queues():
    r = Resource("bus")
    r.acquire(0, 100)
    start, end = r.acquire(20, 10)
    assert (start, end) == (100, 110)
    assert r.total_wait == 80


def test_backward_request_waits_for_busy_until():
    r = Resource("bus")
    r.acquire(0, 100)
    start, _end = r.acquire(0, 1)
    assert start == 100


def test_zero_duration_allowed():
    r = Resource("bus")
    start, end = r.acquire(5, 0)
    assert start == end == 5


def test_negative_duration_rejected():
    r = Resource("bus")
    with pytest.raises(ValueError):
        r.acquire(0, -1)
    # Checked before the cast: a fraction below zero does not truncate
    # to a legal 0.
    with pytest.raises(ValueError, match="non-negative: -0.5"):
        r.acquire(0, -0.5)
    assert r.acquisitions == 0


def test_arguments_cast_to_int():
    r = Resource("bus")
    start, end = r.acquire(np.int64(7), 2.9)
    assert (start, end) == (7, 9)
    assert type(start) is int and type(end) is int
    assert all(type(v) is int for v in astuple(r)[1:])


def test_utilization_and_mean_wait():
    r = Resource("bus")
    r.acquire(0, 50)
    r.acquire(0, 50)
    assert r.utilization(200) == pytest.approx(0.5)
    assert r.utilization(0) == 0.0
    assert r.mean_wait() == pytest.approx(25.0)


def test_mean_wait_empty():
    assert Resource("bus").mean_wait() == 0.0


def test_peek_does_not_reserve():
    r = Resource("bus")
    r.acquire(0, 100)
    assert r.peek(10) == 100
    assert r.busy_until == 100


class _MinKeyMultiResource:
    """The k-server pick as ``min(key=busy_until)`` states it."""

    def __init__(self, servers):
        self.servers = [Resource(f"h[{i}]") for i in range(servers)]

    def acquire(self, at, duration):
        best = min(self.servers, key=lambda s: s.busy_until)
        return best.acquire(at, duration)


def _trace(rng, n=400):
    """(at, duration) requests: bursts that queue, gaps that idle, and
    repeated durations so that servers tie on ``busy_until``."""
    at = 0
    for _ in range(n):
        at += int(rng.choice([0, 0, 1, 5, 40]))
        yield at, int(rng.choice([0, 3, 10, 10, 25]))


def test_k_server_tie_goes_to_lowest_index():
    m = MultiResource("h", 3)
    m.acquire(0, 10)
    assert [s.acquisitions for s in m.servers] == [1, 0, 0]
    m.acquire(0, 10)   # servers 1 and 2 tie at 0
    assert [s.acquisitions for s in m.servers] == [1, 1, 0]
    m.acquire(0, 10)
    m.acquire(0, 10)   # all three tie at 10
    assert [s.acquisitions for s in m.servers] == [2, 1, 1]


@pytest.mark.parametrize("servers", [2, 3, 4])
def test_k_server_matches_min_reference(servers, rng):
    m = MultiResource("h", servers)
    ref = _MinKeyMultiResource(servers)
    for at, duration in _trace(rng):
        assert m.acquire(at, duration) == ref.acquire(at, duration)
    assert [astuple(s)[1:] for s in m.servers] == \
        [astuple(s)[1:] for s in ref.servers]


def test_one_server_is_a_bare_resource(rng):
    m = MultiResource("h", 1)
    bare = Resource("h[0]")
    for at, duration in _trace(rng):
        assert m.acquire(at, duration) == bare.acquire(at, duration)
    assert m.servers == [bare]
    assert (m.total_busy, m.acquisitions, m.peek(0)) == \
        (bare.total_busy, bare.acquisitions, bare.peek(0))
