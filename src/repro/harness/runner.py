"""Speedup curves in one plan: :func:`run_curves`.

:func:`run_curves` files any number of curves in one
:class:`~repro.harness.parallel.RunPlan` (``RunPlan.curve``) and
executes it once, so every run goes through the plan layer: pooled,
deduplicated, cached, and ledger-recorded under an active
:func:`~repro.ledger.ledger_session`.  The registry experiments file
their curves in their own plans the same way; the golden speedup pins
and the tests take their series from here.
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
    for key, (machine, app, procs) in curves.items():
        plan.curve(key, machine, app, procs)
    return plan.series(execute_plan(plan))


def speedup_series(machine: Machine, app: Application,
                   procs: Iterable[int]) -> SpeedupSeries:
    """Run ``app`` at each processor count; speedups vs the 1-proc run."""
    return run_curves({None: (machine, app, list(procs))})[None]
