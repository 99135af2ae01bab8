"""Coarse shape assertions — the paper's qualitative claims, checked
at small scale so they run in CI.

These are the invariants DESIGN.md promises; the full-size versions
live in the benchmarks.
"""

import pytest

from repro.apps import SorApp, TspApp, WaterApp
from repro.harness.runner import speedup_series
from repro.machines import (AllHardwareMachine, AllSoftwareMachine,
                            DecTreadMarksMachine, HybridMachine, SgiMachine)


def sp8(machine, app):
    series = speedup_series(machine, app, (1, 8))
    return series.speedups()[8]


# -- §2.4.4: Water vs M-Water on TreadMarks -----------------------------
def test_water_collapses_on_treadmarks_mwater_recovers():
    tm = DecTreadMarksMachine()
    water = sp8(tm, WaterApp(molecules=48, steps=1))
    mwater = sp8(tm, WaterApp(molecules=48, steps=1, modified=True))
    assert mwater > 2 * water


def test_water_vs_mwater_nearly_identical_on_sgi():
    sgi = SgiMachine()
    water = sp8(sgi, WaterApp(molecules=48, steps=1))
    mwater = sp8(sgi, WaterApp(molecules=48, steps=1, modified=True))
    assert water == pytest.approx(mwater, rel=0.5)
    assert water > 1.5


# -- §2.4.2: SOR data movement ------------------------------------------
def test_sor_diffs_move_less_data_than_hardware_lines():
    """TreadMarks communicates only changed words; the SGI moves whole
    lines.  With the zero-interior initialization the DSM's miss data
    is far below the hardware's coherence traffic for the same run."""
    app = SorApp(rows=96, cols=96, iterations=4)
    tm = DecTreadMarksMachine().run(app, 8)
    sgi = SgiMachine().run(SorApp(rows=96, cols=96, iterations=4), 8)
    assert tm.counters.miss_data_bytes < sgi.counters.bus_data_bytes


# -- §2.4.3: TSP bound staleness ----------------------------------------
def test_lazy_bound_is_stale_eager_is_fresher():
    app_lazy = TspApp(cities=10, leaf_cutoff=7, coord_seed=3)
    app_eager = TspApp(cities=10, leaf_cutoff=7, coord_seed=3)
    lazy = DecTreadMarksMachine().run(app_lazy, 8)
    eager = DecTreadMarksMachine(
        eager_locks=frozenset({1})).run(app_eager, 8)
    # Same optimum either way; the work may differ.
    assert lazy.app_output["optimal_length"] == pytest.approx(
        eager.app_output["optimal_length"])


# -- §3: HS traffic reduction -------------------------------------------
def test_hs_sends_fraction_of_as_messages():
    app = SorApp(rows=96, cols=96, iterations=3)
    as_r = AllSoftwareMachine().run(app, 16)
    hs_r = HybridMachine().run(SorApp(rows=96, cols=96, iterations=3), 16)
    assert hs_r.counters.total_messages < 0.5 * as_r.counters.total_messages
    assert hs_r.counters.total_bytes < as_r.counters.total_bytes


def test_ah_and_hs_beat_as_at_scale_for_sor():
    app_args = dict(rows=128, cols=128, iterations=3)
    results = {}
    for name, machine in [("ah", AllHardwareMachine()),
                          ("hs", HybridMachine()),
                          ("as", AllSoftwareMachine())]:
        results[name] = sp8(machine, SorApp(**app_args))
    assert results["ah"] > results["as"]


# -- §2.4.4 in-text: kernel-level TreadMarks ----------------------------
def test_kernel_level_helps_mwater_more_than_sor():
    app = WaterApp(molecules=48, steps=1, modified=True)
    user = sp8(DecTreadMarksMachine(), app)
    kernel = sp8(DecTreadMarksMachine(kernel_level=True),
                 WaterApp(molecules=48, steps=1, modified=True))
    mwater_gain = kernel / user

    # SOR must be big enough that its communication rate is low (the
    # paper's full-size runs); 96x96 would be barrier-bound too.
    sor_user = sp8(DecTreadMarksMachine(),
                   SorApp(rows=512, cols=512, iterations=3))
    sor_kernel = sp8(DecTreadMarksMachine(kernel_level=True),
                     SorApp(rows=512, cols=512, iterations=3))
    sor_gain = sor_kernel / sor_user
    assert mwater_gain > sor_gain


# -- A1: diffs vs whole pages -------------------------------------------
def test_whole_page_transfer_moves_more_data():
    app = SorApp(rows=96, cols=96, iterations=3)
    with_diffs = DecTreadMarksMachine().run(app, 8)
    without = DecTreadMarksMachine(ablate="no-diffs").run(
        SorApp(rows=96, cols=96, iterations=3), 8)
    assert without.counters.miss_data_bytes > \
        2 * with_diffs.counters.miss_data_bytes
