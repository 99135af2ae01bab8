"""Speedup curves: the one assembler from plan results to series.

:func:`run_curves` declares any number of curves in one
:class:`~repro.harness.parallel.RunPlan` and executes it once, so
every run goes through the plan layer: pooled, deduplicated, cached,
and ledger-recorded under an active
:func:`~repro.ledger.ledger_session`.  The experiments, the golden
speedup pins and the tests all take their series from here.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping, Sequence, Tuple

from repro.apps.base import Application
from repro.harness.parallel import RunPlan, execute_plan
from repro.machines.base import Machine
from repro.stats.result import SpeedupSeries

#: One curve to declare: a machine, an app, and its processor counts.
Curve = Tuple[Machine, Application, Sequence[int]]


def run_curves(curves: Mapping[Hashable, Curve]
               ) -> Dict[Hashable, SpeedupSeries]:
    """Run every curve in one plan; returns ``{key: series}``.

    Baseline methodology (the paper's, §2.3): every speedup is
    relative to the *single-processor execution on the same machine*,
    so each curve declares its 1-processor base run, then one run per
    processor count, and the series' points follow in that order.  A
    ``1`` among the counts is a second spec for the base run, which
    the plan executes once.  For TreadMarks that baseline is
    indistinguishable from a plain workstation — at one node the
    protocol engages no remote machinery — which is why Table 1's
    "DEC" and "DEC+TreadMarks" columns coincide, and why every
    software-DSM variant of one machine shares one 1-processor run
    (they fingerprint identically at ``nprocs == 1``).
    """
    plan = RunPlan()
    indices = {key: [plan.add(machine, app, 1)] +
               plan.add_series(machine, app, procs)
               for key, (machine, app, procs) in curves.items()}
    results = execute_plan(plan)
    out: Dict[Hashable, SpeedupSeries] = {}
    for key, (base_index, *point_indices) in indices.items():
        base = results[base_index]
        series = SpeedupSeries(base.machine, base.app, base.seconds)
        for index in point_indices:
            series.add(results[index])
        out[key] = series
    return out


def speedup_series(machine: Machine, app: Application,
                   procs: Iterable[int]) -> SpeedupSeries:
    """Run ``app`` at each processor count; speedups vs the 1-proc run."""
    return run_curves({None: (machine, app, list(procs))})[None]
