"""repro: software vs. hardware shared memory (Cox et al., ISCA 1994).

An execution-driven reproduction of the paper's two studies:

1. TreadMarks (lazy release consistency on an ATM LAN of DECstations)
   versus the SGI 4D/480 bus multiprocessor, up to 8 processors.
2. The simulated AS / AH / HS design space up to 64 processors.

Quickstart::

    from repro import SorApp, make_machine

    app = SorApp(rows=1000, cols=1000, iterations=6)
    for name in ("treadmarks", "sgi"):
        machine = make_machine(name)
        base = machine.run(app, 1)
        result = machine.run(app, 8)
        print(machine.name, base.seconds / result.seconds)

Grids run through :class:`RunPlan`/:func:`execute_plan` (parallel,
cached, ledger-recorded, deterministic) — the one run path every
registry experiment takes; :func:`run_curves` declares speedup curves
in one plan.  The op vocabulary — including the batched
:class:`OpBlock` form with :func:`fuse`/:func:`unfuse` — is re-exported
here.  Everything in ``__all__`` is the stable public surface; the
examples and the CLI are written against it.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.ablate import (DEFAULT_ABLATION, MECHANISMS, AblationSpec,
                          parse_ablation)
from repro.apps import (Acquire, AppContext, Application, Barrier, Compute,
                        IlinkApp, OpBlock, Read, ReadBound, Release, SorApp,
                        TspApp, UpdateBound, WaterApp, Write, fuse, unfuse)
from repro.check import checking
from repro.errors import ConfigurationError, ConsistencyViolation
from repro.harness.cache import ResultCache
from repro.harness.parallel import (RunPlan, RunSpec, execute_plan,
                                    run_context, shutdown_pool)
from repro.harness.runner import run_curves, speedup_series
from repro.harness.workloads import Scale, make_app
from repro.machines import (AllHardwareMachine, AllSoftwareMachine,
                            DecTreadMarksMachine, HybridMachine, Machine,
                            machine_names, make_machine, SgiMachine)
from repro.net.faults import CrashEvent, FaultPlan, RetryPolicy
from repro.net.overhead import OverheadPreset, SoftwareOverhead
from repro.stats import Counters, RunResult, SpeedupSeries
from repro.sync import (BARRIER_ALGORITHMS, DEFAULT_SYNC, LOCK_ALGORITHMS,
                        SyncPolicy, parse_sync)
from repro.trace import Tracer, trace_session

__version__ = "1.3.0"

__all__ = [
    # applications and the op vocabulary
    "Application",
    "AppContext",
    "SorApp",
    "TspApp",
    "WaterApp",
    "IlinkApp",
    "make_app",
    "Scale",
    "Compute",
    "Read",
    "Write",
    "Acquire",
    "Release",
    "Barrier",
    "ReadBound",
    "UpdateBound",
    "OpBlock",
    "fuse",
    "unfuse",
    # machines
    "Machine",
    "make_machine",
    "machine_names",
    "DecTreadMarksMachine",
    "SgiMachine",
    "AllSoftwareMachine",
    "AllHardwareMachine",
    "HybridMachine",
    "OverheadPreset",
    "SoftwareOverhead",
    "FaultPlan",
    "CrashEvent",
    "RetryPolicy",
    # synchronization design space
    "SyncPolicy",
    "parse_sync",
    "DEFAULT_SYNC",
    "LOCK_ALGORITHMS",
    "BARRIER_ALGORITHMS",
    # mechanism ablations
    "AblationSpec",
    "parse_ablation",
    "DEFAULT_ABLATION",
    "MECHANISMS",
    # run entry points
    "RunPlan",
    "RunSpec",
    "execute_plan",
    "run_context",
    "shutdown_pool",
    "run_curves",
    "speedup_series",
    "ResultCache",
    # observation and checking
    "Tracer",
    "trace_session",
    "checking",
    "ConsistencyViolation",
    "ConfigurationError",
    # results
    "Counters",
    "RunResult",
    "SpeedupSeries",
    "__version__",
]
