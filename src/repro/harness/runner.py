"""Shared run helpers: speedup curves and statistics collection.

Built on :mod:`repro.harness.parallel`: each helper *declares* its run
grid as a :class:`~repro.harness.parallel.RunPlan` and lets
``execute_plan`` fan the independent simulations out over worker
processes, deduplicate identical points, and serve repeats from the
result cache — all without changing a single number (see that
module's determinism contract).  Under an active
:func:`~repro.ledger.ledger_session`, every point additionally
appends a provenance record and every returned
:class:`~repro.stats.result.RunResult` carries its ledger ``run_id``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.apps.base import Application
from repro.harness.cache import ResultCache
from repro.harness.parallel import RunPlan, execute_plan
from repro.machines.base import Machine
from repro.stats.result import RunResult, SpeedupSeries


def speedup_series(machine: Machine, app: Application,
                   procs: Iterable[int], *,
                   base_result: Optional[RunResult] = None,
                   jobs: Optional[int] = None,
                   cache: Optional[ResultCache] = None
                   ) -> SpeedupSeries:
    """Run ``app`` at each processor count; speedups vs the 1-proc run.

    Baseline methodology (the paper's, §2.3): every speedup is
    relative to the *single-processor execution on the same machine
    family*.  For TreadMarks that baseline is indistinguishable from a
    plain workstation — at one node the protocol engages no remote
    machinery, sends no messages, and the lock token never moves —
    which is why Table 1's "DEC" and "DEC+TreadMarks" columns
    coincide.  Because of that, *every* software-DSM variant with the
    same local machine (user vs kernel level, lazy vs eager release,
    diffs vs whole pages, any overhead preset) shares one 1-processor
    baseline: the machines fingerprint identically at ``nprocs == 1``,
    so the run plan executes the baseline once and the result cache
    reuses it across machines and invocations rather than re-running
    it per variant.

    The 1-processor run is never executed twice: if ``1`` appears in
    ``procs`` it reuses the baseline (and if ``base_result`` is given,
    that exact object is placed in the series and no baseline run is
    scheduled at all).
    """
    procs = list(procs)
    plan = RunPlan()
    base_index: Optional[int] = None
    if base_result is None:
        base_index = plan.add(machine, app, 1)
    point_index: Dict[int, int] = {}
    for p in procs:
        if p == 1 and base_result is not None:
            continue
        if p not in point_index:
            point_index[p] = plan.add(machine, app, p)
    results = execute_plan(plan, jobs=jobs, cache=cache)

    base = base_result if base_result is not None else results[base_index]
    series = SpeedupSeries(machine.name, app.name, base.seconds)
    for p in procs:
        if p == 1 and base_result is not None:
            series.add(base)
        else:
            series.add(results[point_index[p]])
    return series


def compare_machines(machines: Iterable[Machine], app: Application,
                     procs: Iterable[int], *,
                     jobs: Optional[int] = None,
                     cache: Optional[ResultCache] = None
                     ) -> Dict[str, SpeedupSeries]:
    """One speedup series per machine, same workload.

    Declares the whole (machine x processor-count) grid as one plan,
    so runs fan out across machines as well as processor counts, and
    machines sharing 1-processor semantics share one baseline run.
    """
    machines = list(machines)
    procs = list(procs)
    plan = RunPlan()
    layout = []
    for machine in machines:
        base_index = plan.add(machine, app, 1)
        point_indices = [plan.add(machine, app, p) for p in procs]
        layout.append((machine, base_index, point_indices))
    results = execute_plan(plan, jobs=jobs, cache=cache)

    out: Dict[str, SpeedupSeries] = {}
    for machine, base_index, point_indices in layout:
        base = results[base_index]
        series = SpeedupSeries(machine.name, app.name, base.seconds)
        for index in point_indices:
            series.add(results[index])
        out[machine.name] = series
    return out
