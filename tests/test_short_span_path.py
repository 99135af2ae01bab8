"""The per-line write path changes nothing a run produces.

Writes of at most ``SHORT_SPAN_LINES`` lines take the per-line path
(:meth:`DirectMappedCache.access_short`).  With the checkers armed,
whole runs with that path disabled (``SHORT_SPAN_LINES = 0``) and as
shipped must give the same results and make the same checker calls:
same lines, same operation numbers, sweeps on the same operations.
"""

import pytest

from repro import make_machine
from repro.check.checker import DirectoryChecker, SnoopChecker, checking
from repro.harness.workloads import Scale, make_app
from repro.mem import directcache

CELLS = [("sgi", "water"), ("ah", "mwater"), ("hs", "mwater")]


def checked_run(machine, app, limit, monkeypatch):
    """``(result, checker calls, per-line accesses, ops checked per
    checker)`` of one checked run at ``limit``."""
    monkeypatch.setattr(directcache, "SHORT_SPAN_LINES", limit)
    calls, checkers, short = [], {}, []
    access_short = directcache.DirectMappedCache.access_short

    def count_short(self, *args):
        short.append(args)
        return access_short(self, *args)

    monkeypatch.setattr(directcache.DirectMappedCache, "access_short",
                        count_short)
    for cls in (SnoopChecker, DirectoryChecker):
        def after_op(self, op, proc, now, lines=None,
                     _original=cls.after_op):
            checkers.setdefault(id(self), self)
            calls.append((type(self).__name__, op, proc, now,
                          None if lines is None else lines.tolist()))
            _original(self, op, proc, now, lines)

        def sweep(self, op, proc, _original=cls._sweep):
            calls.append(("sweep", self._ops_checked))
            _original(self, op, proc)

        monkeypatch.setattr(cls, "after_op", after_op)
        monkeypatch.setattr(cls, "_sweep", sweep)
    with checking():
        result = make_machine(machine).run(make_app(app, Scale.TEST), 8,
                                           seed=42)
    monkeypatch.undo()
    ops_checked = [c._ops_checked for c in checkers.values()]
    return result, calls, len(short), ops_checked


@pytest.mark.parametrize("machine, app", CELLS)
def test_checked_runs_match_with_and_without_the_per_line_path(
        machine, app, monkeypatch):
    bulk, bulk_calls, bulk_short, bulk_ops = checked_run(
        machine, app, 0, monkeypatch)
    shipped, calls, n_short, ops = checked_run(
        machine, app, directcache.SHORT_SPAN_LINES, monkeypatch)
    assert bulk_short == 0 < n_short
    assert shipped.summary() == bulk.summary()
    assert (shipped.events, shipped.cycles) == (bulk.events, bulk.cycles)
    assert ops == bulk_ops and sum(ops) > 0
    assert calls == bulk_calls
    assert any(name == "sweep" for name, *_rest in calls)


@pytest.mark.parametrize("machine", ["as", "treadmarks"])
def test_software_local_cache_charge_matches_on_both_paths(machine,
                                                          monkeypatch):
    """The software machines' local-cache charge uses the same
    primitive; its results must not depend on the path either."""
    app = make_app("mwater", Scale.TEST)
    monkeypatch.setattr(directcache, "SHORT_SPAN_LINES", 0)
    bulk = make_machine(machine).run(app, 4, seed=42)
    monkeypatch.undo()
    shipped = make_machine(machine).run(app, 4, seed=42)
    assert shipped.summary() == bulk.summary()
    assert (shipped.events, shipped.cycles) == (bulk.events, bulk.cycles)
