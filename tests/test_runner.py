"""Speedup-curve assembly: one plan, base first, points in order."""

import pytest

from repro.harness.runner import run_curves, speedup_series
from repro.machines import DecTreadMarksMachine, SgiMachine


def test_speedup_series_baseline_is_one(pingpong):
    series = speedup_series(DecTreadMarksMachine(), pingpong, (1, 2, 4))
    sp = series.speedups()
    assert sp[1] == pytest.approx(1.0)
    assert set(sp) == {1, 2, 4}


def test_speedup_series_reuses_base_result(pingpong):
    """The base is the machine's 1-proc run, whether or not the
    series also lists ``1`` as a point."""
    machine = DecTreadMarksMachine()
    with_one = speedup_series(machine, pingpong, (1, 2))
    without_one = speedup_series(machine, pingpong, (2,))
    assert with_one.base_seconds == without_one.base_seconds
    assert with_one.at(1).summary() == machine.run(pingpong, 1).summary()
    assert [r.nprocs for r in without_one.points] == [2]
    assert with_one.speedups()[2] == without_one.speedups()[2]


def test_run_curves_keys_names_and_point_order(pingpong):
    out = run_curves({"tm": (DecTreadMarksMachine(), pingpong, (4, 2)),
                      "sgi": (SgiMachine(), pingpong, (1, 2))})
    assert list(out) == ["tm", "sgi"]
    assert out["tm"].machine == "treadmarks"
    assert out["sgi"].machine == "sgi"
    assert out["tm"].app == "pingpong"
    assert [r.nprocs for r in out["tm"].points] == [4, 2]
    assert [r.nprocs for r in out["sgi"].points] == [1, 2]
