"""Shared fixtures: small machines, apps, and engine scaffolding."""

from __future__ import annotations

import sys
import zlib
from typing import NamedTuple

import numpy as np
import pytest

from repro.apps import ops
from repro.apps.base import Application
from repro.harness import parallel
from repro.harness.experiments import Report, Scale, run_experiment
from repro.machines import (AllHardwareMachine, AllSoftwareMachine,
                            DecTreadMarksMachine, HybridMachine, SgiMachine)
from repro.machines.base import Machine
from repro.mem.layout import AddressSpace, Geometry
from repro.mem.store import SharedStore
from repro.net.atm import AtmNetwork
from repro.net.overhead import OverheadPreset
from repro.sim.engine import Engine
from repro.stats.counters import Counters


@pytest.fixture
def rng(request):
    """Per-test deterministic RNG, seeded from the test's node id.

    Every test that wants randomness takes this fixture instead of
    constructing its own ``np.random.default_rng(...)``: runs are
    reproducible, reruns of a single test see the same stream, and
    distinct tests get distinct streams.  (Applications that generate
    *data content* still seed their own RNGs from value tuples — that
    content must be identical across machines and worker processes,
    not per-test.)
    """
    return np.random.default_rng(zlib.crc32(request.node.nodeid.encode()))


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def space():
    sp = AddressSpace(Geometry(page_bytes=4096, line_bytes=64))
    sp.alloc("data", 8 * 4096)
    return sp


@pytest.fixture
def store(space):
    return SharedStore(space)


@pytest.fixture
def counters():
    return Counters()


@pytest.fixture
def atm(engine, counters):
    return AtmNetwork(
        engine, 4,
        bandwidth_bytes_per_sec=30e6 / 8,
        switch_latency_cycles=400,
        clock_hz=40e6,
        overhead=OverheadPreset.USER_LEVEL.build(),
        counters=counters,
    )


ALL_MACHINE_FACTORIES = [
    DecTreadMarksMachine,
    SgiMachine,
    AllSoftwareMachine,
    AllHardwareMachine,
    HybridMachine,
]


@pytest.fixture(params=ALL_MACHINE_FACTORIES,
                ids=lambda f: f.__name__)
def any_machine(request):
    return request.param()


class PingPongApp(Application):
    """Two processors alternately write/read one page under barriers."""

    name = "pingpong"

    def __init__(self, rounds: int = 3) -> None:
        self.rounds = rounds

    def regions(self, nprocs):
        return {"data": 4096 * max(2, nprocs)}

    def programs(self, ctx):
        def prog(p):
            for r in range(self.rounds):
                peer = (p + 1) % ctx.nprocs
                yield ops.Read("data", peer * 4096, 256)
                vals = np.full(32, float(r * 10 + p))
                changed = ctx.store.write("data", p * 4096, vals)
                yield ops.Write("data", p * 4096, 256, changed)
                yield ops.Barrier()
        return [prog(p) for p in range(ctx.nprocs)]

    def verify(self, ctx):
        data = ctx.store.view("data", np.float64)
        return {"sum": float(data.sum())}


class LockCounterApp(Application):
    """All processors increment a shared counter under one lock."""

    name = "lockcounter"

    def __init__(self, increments: int = 5) -> None:
        self.increments = increments

    def regions(self, nprocs):
        return {"counter": 4096}

    def programs(self, ctx):
        def prog(p):
            view = ctx.store.view("counter", np.int64)
            for _ in range(self.increments):
                yield ops.Acquire(0)
                yield ops.Read("counter", 0, 8)
                view[0] += 1
                yield ops.Write("counter", 0, 8)
                yield ops.Compute(100)
                yield ops.Release(0)
        return [prog(p) for p in range(ctx.nprocs)]

    def verify(self, ctx):
        view = ctx.store.view("counter", np.int64)
        return {"count": int(view[0])}


@pytest.fixture
def pingpong():
    return PingPongApp()


@pytest.fixture
def lockcounter():
    return LockCounterApp()


# ======================================================================
# Registry experiments, run once per session
# ======================================================================

#: Axis restrictions of the sweep experiments' grids: the predicates
#: only need one cell of each kind they read, and tier-1 should not pay
#: for the full design spaces (``validate --scale bench`` in CI does).
REDUCED_SWEEPS = {
    "sync-sweep": dict(values=("token+central", "token+tree"),
                       workloads=("mwater",), machines=("as", "ah")),
    "failure-sweep": dict(values=("0.5",), workloads=("sor_sim",),
                          machines=("as",)),
    "ablation-sweep": dict(values=("no-diffs", "no-piggyback"),
                           workloads=("mwater",), machines=("as",)),
}


class RegistryRun(NamedTuple):
    """One experiment's report and how its runs were executed."""

    report: Report
    #: ``execute_plan`` calls the experiment made.
    plans: int
    #: ``Machine.run`` calls made outside any ``execute_plan``.
    bare_runs: int


def _run_counted(exp_id: str) -> RegistryRun:
    real_plan, real_run = parallel.execute_plan, Machine.run
    counts = {"plans": 0, "depth": 0, "bare_runs": 0}

    def counting_plan(*args, **kwargs):
        counts["plans"] += 1
        counts["depth"] += 1
        try:
            return real_plan(*args, **kwargs)
        finally:
            counts["depth"] -= 1

    def counting_run(self, *args, **kwargs):
        if not counts["depth"]:
            counts["bare_runs"] += 1
        return real_run(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        for module in list(sys.modules.values()):
            if vars(module).get("execute_plan") is real_plan:
                mp.setattr(module, "execute_plan", counting_plan)
        mp.setattr(Machine, "run", counting_run)
        report = run_experiment(exp_id, Scale.TEST,
                                **REDUCED_SWEEPS.get(exp_id, {}))
    return RegistryRun(report, counts["plans"], counts["bare_runs"])


@pytest.fixture(scope="session")
def registry_runs():
    """``get(exp_id)`` -> :class:`RegistryRun` at ``Scale.TEST``.

    Each experiment runs once per session (sweeps on the axes of
    :data:`REDUCED_SWEEPS`), so the structure, predicate and run-path
    tests share one simulation of every report.
    """
    runs = {}

    def get(exp_id: str) -> RegistryRun:
        if exp_id not in runs:
            runs[exp_id] = _run_counted(exp_id)
        return runs[exp_id]

    return get
