"""The Water force kernel against the scalar code it replaced.

``tests/reference_water.py`` is the oracle.  Every processor's force
phase runs on both, old and new generators stepped in the same
interleaving against two copies of one record array; every yielded op
must be equal and the records byte-identical after every op.  Whole
runs must give equal ``RunResult.summary()``, events and cycles on all
five machines.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import make_machine
from repro.apps.water import (DOUBLES_PER_RECORD, POS_OFF, WaterApp,
                              _pair_forces)
from repro.harness.workloads import Scale, make_app
from repro.machines import machine_names
from tests.reference_water import ReferenceWaterApp


def _records(molecules, seed):
    """Positions in a 30-unit box; velocities and forces random too, so
    the phases add to non-zero force fields."""
    rng = np.random.default_rng(seed)
    return rng.random((molecules, DOUBLES_PER_RECORD)) * 30.0


@settings(max_examples=80, deadline=None)
@given(molecules=st.integers(2, 64), modified=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_force_phase_matches_reference(molecules, modified, seed, data):
    nprocs = data.draw(st.integers(1, molecules + 3), label="nprocs")
    old_app = ReferenceWaterApp(molecules, modified=modified)
    new_app = WaterApp(molecules, modified=modified)
    old_rec = _records(molecules, seed)
    new_rec = old_rec.copy()

    old_gens, new_gens = [], []
    for proc in range(nprocs):
        old_pairs = old_app._pairs_of(proc, nprocs)
        new_pairs = new_app._pairs_of(proc, nprocs)
        assert new_pairs.dtype == np.int64
        assert new_pairs.shape == (len(old_pairs), 2)
        assert new_pairs.tolist() == [list(p) for p in old_pairs]
        expected = [old_app._force(old_rec[i, POS_OFF:POS_OFF + 3],
                                   old_rec[j, POS_OFF:POS_OFF + 3])
                    for i, j in old_pairs]
        assert _pair_forces(new_rec, new_pairs).tobytes() == \
            np.array(expected, dtype=np.float64).reshape(-1, 3).tobytes()
        if modified:
            old_gens.append(old_app._force_phase_mwater(None, old_rec,
                                                        old_pairs))
            new_gens.append(new_app._force_phase_mwater(new_rec, new_pairs))
        else:
            old_gens.append(old_app._force_phase_water(None, old_rec,
                                                       old_pairs))
            new_gens.append(new_app._force_phase_water(new_rec, new_pairs))

    # Processors share the records; step them in a seeded interleaving
    # (the same on both sides) until every phase has finished.
    schedule = random.Random(seed)
    live = list(range(nprocs))
    while live:
        proc = live[schedule.randrange(len(live))]
        old_op = next(old_gens[proc], None)
        new_op = next(new_gens[proc], None)
        assert old_op == new_op
        assert old_rec.tobytes() == new_rec.tobytes()
        if old_op is None:
            live.remove(proc)


@pytest.mark.parametrize("workload", ["water", "mwater"])
@pytest.mark.parametrize("machine", machine_names())
def test_runs_match_reference(machine, workload):
    app = make_app(workload, Scale.TEST)
    oracle = ReferenceWaterApp(app.molecules, app.steps,
                               modified=app.modified)
    new = make_machine(machine).run(app, 8)
    old = make_machine(machine).run(oracle, 8)
    assert new.summary() == old.summary()
    assert (new.events, new.cycles) == (old.events, old.cycles)
