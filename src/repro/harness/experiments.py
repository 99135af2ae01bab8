"""The experiment registry: every table, figure, and ablation.

Each entry regenerates one artifact of the paper's evaluation.  The
ids follow DESIGN.md's experiment index: ``t1``/``t2`` (tables),
``fig1`` .. ``fig16`` (figures), ``x1`` .. ``x3`` (in-text
experiments), ``a1`` .. ``a3`` (ablations of design choices the paper
calls out).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Tuple

from repro.ablate import (MECHANISMS, AblationSpec, importance_score,
                          metric_deltas, run_metrics)
from repro.apps import BarrierOnlyApp, LockPingApp
from repro.errors import ConfigurationError
from repro.harness import fmt
from repro.harness.parallel import RunPlan, execute_plan
from repro.harness.runner import run_curves
from repro.harness.workloads import (EXPERIMENTAL_PROCS, SIMULATED_PROCS,
                                     Scale, make_app)
from repro.machines import (AllHardwareMachine, AllSoftwareMachine,
                            DecTreadMarksMachine, HybridMachine, SgiMachine,
                            make_machine)
from repro.net.faults import CrashEvent, FaultPlan, FaultRule
from repro.net.overhead import OVERHEAD_SWEEP
from repro.sync import BARRIER_ALGORITHMS, LOCK_ALGORITHMS, SyncPolicy


@dataclass
class Report:
    """The output of one experiment run."""

    exp_id: str
    title: str
    lines: List[str] = field(default_factory=list)
    data: Dict = field(default_factory=dict)

    def text(self) -> str:
        header = f"== {self.exp_id}: {self.title} =="
        return "\n".join([header] + self.lines)


@dataclass(frozen=True)
class Experiment:
    exp_id: str
    title: str
    paper_ref: str
    shape_note: str
    run: Callable[[Scale], Report]


REGISTRY: Dict[str, Experiment] = {}


def _register(exp_id: str, title: str, paper_ref: str, shape_note: str):
    def wrap(fn: Callable[[Scale], Report]) -> Callable[[Scale], Report]:
        REGISTRY[exp_id] = Experiment(exp_id, title, paper_ref,
                                      shape_note, fn)
        return fn
    return wrap


def get_experiment(exp_id: str) -> Experiment:
    try:
        return REGISTRY[exp_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment '{exp_id}'; choose from "
            f"{sorted(REGISTRY)}") from None


ALL_WORKLOADS = ("ilink_clp", "ilink_bad", "sor_large", "sor_small",
                 "tsp19", "tsp18", "water", "mwater")

SIM_WORKLOADS = ("sor_sim", "tsp19", "mwater")


# ======================================================================
# Tables
# ======================================================================
@_register("t1", "Single-processor execution times",
           "Table 1",
           "DSM overhead at 1 processor is ~nil; the SGI is slower for "
           "working sets exceeding its L2, roughly equal otherwise.")
def run_t1(scale: Scale) -> Report:
    apps = {name: make_app(name, scale) for name in ALL_WORKLOADS}
    plan = RunPlan()
    for machine in (DecTreadMarksMachine(), SgiMachine()):
        for app in apps.values():
            plan.add(machine, app, 1)
    results = execute_plan(plan)
    rows = []
    data = {}
    n = len(apps)
    for (name, app), tm, sgi in zip(apps.items(), results[:n],
                                    results[n:]):
        t_tm, t_sgi = tm.seconds, sgi.seconds
        # At one node TreadMarks engages no remote machinery, so the
        # plain-DEC and DEC+TreadMarks columns coincide (the paper
        # measured the same to within noise).
        rows.append([app.name, t_tm, t_tm, t_sgi, t_sgi / t_tm])
        data[name] = {"dec": t_tm, "treadmarks": t_tm, "sgi": t_sgi}
    report = Report("t1", "Single-processor execution times (seconds)")
    report.lines = fmt.format_table(
        ["program", "DEC", "DEC+TreadMarks", "SGI", "SGI/DEC"], rows)
    report.data = data
    return report


@_register("t2", "8-processor TreadMarks execution statistics",
           "Table 2",
           "Sync-rate ordering: Water >> M-Water > TSP-18 > TSP-19; "
           "ILINK-BAD >> ILINK-CLP in barrier and message rates.")
def run_t2(scale: Scale) -> Report:
    tm = DecTreadMarksMachine()
    apps = {name: make_app(name, scale) for name in ALL_WORKLOADS}
    plan = RunPlan()
    for app in apps.values():
        plan.add(tm, app, 8)
    rows = []
    data = {}
    for (name, app), r in zip(apps.items(), execute_plan(plan)):
        rows.append([app.name, r.barriers_per_sec, r.remote_locks_per_sec,
                     r.messages_per_sec, r.kbytes_per_sec])
        data[name] = r.summary()
    report = Report("t2", "8-processor TreadMarks execution statistics")
    report.lines = fmt.format_table(
        ["program", "barriers/s", "remote locks/s", "messages/s",
         "Kbytes/s"], rows)
    report.data = data
    return report


# ======================================================================
# Figures 1-8: TreadMarks vs SGI speedups
# ======================================================================
def _experimental_figure(exp_id: str, workload: str,
                         scale: Scale) -> Report:
    app = make_app(workload, scale)
    series = run_curves({m.name: (m, app, EXPERIMENTAL_PROCS)
                         for m in (DecTreadMarksMachine(), SgiMachine())})
    speedups = {name: s.speedups() for name, s in series.items()}
    report = Report(exp_id, f"{app.name} speedups, "
                            f"TreadMarks vs SGI 4D/480")
    report.lines = fmt.format_speedups(speedups, EXPERIMENTAL_PROCS)
    report.data = {"speedups": speedups,
                   "base_seconds": {n: s.base_seconds
                                    for n, s in series.items()}}
    return report


_EXPERIMENTAL_FIGURES = [
    ("fig1", "ilink_clp", "Figure 1", "SGI above TreadMarks; smallest "
     "ILINK gap (coarse grain, low barrier rate)."),
    ("fig2", "ilink_bad", "Figure 2", "SGI above TreadMarks; largest "
     "ILINK gap (fine grain, high barrier rate)."),
    ("fig3", "sor_large", "Figure 3", "TreadMarks above SGI: the 16 MB "
     "grid thrashes the SGI L2 and saturates its bus."),
    ("fig4", "sor_small", "Figure 4", "TreadMarks competitive with SGI "
     "even when the band fits the SGI L2 at 8 processors."),
    ("fig5", "tsp19", "Figure 5", "SGI above TreadMarks (fresher bound "
     "prunes better; occasional super-linear SGI runs)."),
    ("fig6", "tsp18", "Figure 6", "SGI above TreadMarks; slightly "
     "larger gap than the 19-city problem."),
    ("fig7", "water", "Figure 7", "TreadMarks gets essentially no "
     "speedup (per-update locks); SGI scales."),
    ("fig8", "mwater", "Figure 8", "TreadMarks recovers real speedup "
     "with batched updates; SGI nearly unchanged vs Water."),
]

for _fid, _wl, _ref, _note in _EXPERIMENTAL_FIGURES:
    def _make(fid=_fid, wl=_wl):
        def _run(scale: Scale) -> Report:
            return _experimental_figure(fid, wl, scale)
        return _run
    _register(_fid, f"{_wl} speedup (TreadMarks vs SGI)", _ref,
              _note)(_make())


# ======================================================================
# Figures 9-11: AS / AH / HS simulated speedups
# ======================================================================
def _sim_machines():
    return [AllHardwareMachine(), HybridMachine(), AllSoftwareMachine()]


def _sim_figure(exp_id: str, workload: str, scale: Scale) -> Report:
    procs = SIMULATED_PROCS[scale]
    app = make_app(workload, scale)
    series = run_curves({m.name: (m, app, (1,) + tuple(procs))
                         for m in _sim_machines()})
    speedups = {name: s.speedups() for name, s in series.items()}
    report = Report(exp_id, f"{app.name} on AH / HS / AS")
    report.lines = fmt.format_speedups(speedups, procs)
    report.data = {"speedups": speedups}
    return report


_SIM_FIGURES = [
    ("fig9", "sor_sim", "Figure 9", "AH and HS near-linear, AS "
     "sub-linear (nearest-neighbour sharing suits the hierarchy)."),
    ("fig10", "tsp19", "Figure 10", "AH ~ HS > AS; the gap opens as "
     "the compute-to-communication ratio shrinks with more CPUs."),
    ("fig11", "mwater", "Figure 11", "Only AH keeps improving; AS "
     "peaks earliest, HS peaks mid-range (synchronization bound)."),
]

for _fid, _wl, _ref, _note in _SIM_FIGURES:
    def _make_sim(fid=_fid, wl=_wl):
        def _run(scale: Scale) -> Report:
            return _sim_figure(fid, wl, scale)
        return _run
    _register(_fid, f"{_wl} on AH/HS/AS (simulation)", _ref,
              _note)(_make_sim())


# ======================================================================
# Figures 12-13: message and data totals, HS vs AS
# ======================================================================
def _traffic_runs(scale: Scale):
    """AS and HS runs at the largest machine (fig12 and fig13 each plan
    the same six cells; the result cache shares them)."""
    procs = max(SIMULATED_PROCS[scale])
    plan = RunPlan()
    for workload in SIM_WORKLOADS:
        app = make_app(workload, scale)
        plan.add(AllSoftwareMachine(), app, procs)
        plan.add(HybridMachine(), app, procs)
    results = execute_plan(plan)
    return procs, {workload: {"as": as_run, "hs": hs_run}
                   for workload, as_run, hs_run in zip(
                       SIM_WORKLOADS, results[::2], results[1::2])}


@_register("fig12", "Total messages, HS vs AS", "Figure 12",
           "HS sends a small fraction of AS's messages (1/4 .. 1/9, "
           "application dependent); sync messages shrink least.")
def run_fig12(scale: Scale) -> Report:
    procs, runs = _traffic_runs(scale)
    rows = []
    data = {}
    for workload, pair in runs.items():
        as_c, hs_c = pair["as"].counters, pair["hs"].counters
        total_as = max(1, as_c.total_messages)
        rows.append([
            workload,
            as_c.miss_messages, as_c.sync_messages,
            hs_c.miss_messages, hs_c.sync_messages,
            100.0 * hs_c.total_messages / total_as,
        ])
        data[workload] = {
            "as_miss": as_c.miss_messages, "as_sync": as_c.sync_messages,
            "hs_miss": hs_c.miss_messages, "hs_sync": hs_c.sync_messages,
        }
    report = Report("fig12", f"Total messages at {procs} processors "
                             f"(HS as % of AS)")
    report.lines = fmt.format_table(
        ["program", "AS miss", "AS sync", "HS miss", "HS sync",
         "HS % of AS"], rows)
    report.data = data
    return report


@_register("fig13", "Total data, HS vs AS", "Figure 13",
           "HS moves ~1/4 .. 1/8 of AS's data; diff coalescing cuts "
           "miss data, notice batching cuts consistency data.")
def run_fig13(scale: Scale) -> Report:
    procs, runs = _traffic_runs(scale)
    rows = []
    data = {}
    for workload, pair in runs.items():
        as_c, hs_c = pair["as"].counters, pair["hs"].counters
        total_as = max(1, as_c.total_bytes)
        rows.append([
            workload,
            as_c.miss_data_bytes // 1024, as_c.consistency_bytes // 1024,
            as_c.header_bytes // 1024,
            hs_c.miss_data_bytes // 1024, hs_c.consistency_bytes // 1024,
            hs_c.header_bytes // 1024,
            100.0 * hs_c.total_bytes / total_as,
        ])
        data[workload] = {
            "as": dict(miss=as_c.miss_data_bytes,
                       consistency=as_c.consistency_bytes,
                       header=as_c.header_bytes),
            "hs": dict(miss=hs_c.miss_data_bytes,
                       consistency=hs_c.consistency_bytes,
                       header=hs_c.header_bytes),
        }
    report = Report("fig13", f"Total data (KB) at {procs} processors "
                             f"(HS as % of AS)")
    report.lines = fmt.format_table(
        ["program", "AS miss", "AS cons", "AS hdr",
         "HS miss", "HS cons", "HS hdr", "HS % of AS"], rows)
    report.data = data
    return report


# ======================================================================
# Figures 14-16: software-overhead sweeps
# ======================================================================
def _overhead_sweep(exp_id: str, workload: str, hybrid: bool,
                    scale: Scale) -> Report:
    procs = SIMULATED_PROCS[scale]
    app = make_app(workload, scale)
    # One plan for the full (preset x processor-count) grid; the
    # shared 1-proc baseline (AS presets only differ in messaging
    # overheads) runs once.
    curves = {}
    for preset in OVERHEAD_SWEEP:
        if hybrid:
            machine = HybridMachine(
                HybridMachine().params.with_overhead(preset))
        else:
            machine = AllSoftwareMachine(overhead_preset=preset)
        ov = preset.build()
        label = (f"fixed={ov.fixed_send_cycles}"
                 f",word={ov.per_word_cycles}")
        curves[label] = (machine, app, (1,) + tuple(procs))
    speedups = {label: series.speedups()
                for label, series in run_curves(curves).items()}
    arch = "HS" if hybrid else "AS"
    report = Report(exp_id, f"{workload} on {arch}, software-overhead "
                            f"sweep")
    report.lines = fmt.format_speedups(speedups, procs)
    report.data = {"speedups": speedups}
    return report


@_register("fig14", "Overhead sweep: AS, SOR", "Figure 14",
           "Fixed per-message cost dominates SOR on AS; reducing it "
           "brings AS near AH/HS.")
def run_fig14(scale: Scale) -> Report:
    return _overhead_sweep("fig14", "sor_sim", False, scale)


@_register("fig15", "Overhead sweep: AS, M-Water", "Figure 15",
           "Fixed and per-word costs matter about equally for M-Water "
           "on AS.")
def run_fig15(scale: Scale) -> Report:
    return _overhead_sweep("fig15", "mwater", False, scale)


@_register("fig16", "Overhead sweep: HS, M-Water", "Figure 16",
           "On HS the fixed cost matters more than per-word (diff "
           "coalescing already cut the data volume).")
def run_fig16(scale: Scale) -> Report:
    return _overhead_sweep("fig16", "mwater", True, scale)


# ======================================================================
# In-text experiments
# ======================================================================
@_register("x1", "TSP with eager lock release", "§2.4.3",
           "Eager release propagates the bound at release time and "
           "recovers most of the SGI gap.")
def run_x1(scale: Scale) -> Report:
    app = make_app("tsp19", scale)
    machines = [
        DecTreadMarksMachine(),
        DecTreadMarksMachine(eager_locks=frozenset({1})),  # bound lock
        SgiMachine(),
    ]
    top = max(EXPERIMENTAL_PROCS)
    rows = []
    data = {}
    for name, series in run_curves(
            {m.name: (m, app, EXPERIMENTAL_PROCS)
             for m in machines}).items():
        speedup = series.speedups()[top]
        expansions = series.at(top).app_output.get(
            "parallel_expansions", 0)
        rows.append([name, speedup, expansions])
        data[name] = {"speedup": speedup, "expansions": expansions}
    report = Report("x1", "TSP: lazy vs eager release vs SGI "
                          "(8 processors)")
    report.lines = fmt.format_table(
        ["machine", "speedup@8", "expansions"], rows)
    report.data = data
    return report


@_register("x2", "Kernel-level TreadMarks", "§2.4.4",
           "Kernel-level messaging sharply improves M-Water; barrier "
           "apps (ILINK, SOR) barely change.")
def run_x2(scale: Scale) -> Report:
    workloads = ("sor_small", "ilink_clp", "tsp19", "mwater")
    kinds = {"user": DecTreadMarksMachine(),
             "kernel": DecTreadMarksMachine(kernel_level=True),
             "sgi": SgiMachine()}
    series = run_curves({
        (workload, kind): (machine, app, EXPERIMENTAL_PROCS)
        for workload in workloads
        for app in [make_app(workload, scale)]
        for kind, machine in kinds.items()})
    p = max(EXPERIMENTAL_PROCS)
    rows = []
    data = {}
    for workload in workloads:
        data[workload] = {kind: series[workload, kind].speedups()[p]
                          for kind in kinds}
        rows.append([workload, *data[workload].values()])
    report = Report("x2", "User-level vs kernel-level TreadMarks "
                          "(speedup at 8 processors)")
    report.lines = fmt.format_table(
        ["program", "user-level", "kernel-level", "SGI"], rows)
    report.data = data
    return report


@_register("x3", "SOR with every point changing", "§2.3/§2.4.2",
           "Equalizing data movement: TreadMarks moves far more data "
           "than with the zero interior, but still beats the SGI.")
def run_x3(scale: Scale) -> Report:
    workloads = ("sor_large", "sor_alldirty")
    series = run_curves({
        (workload, machine.name): (machine, app, EXPERIMENTAL_PROCS)
        for workload in workloads
        for app in [make_app(workload, scale)]
        for machine in (DecTreadMarksMachine(), SgiMachine())})
    p = max(EXPERIMENTAL_PROCS)
    rows = []
    data = {}
    for workload in workloads:
        tm, sgi = series[workload, "treadmarks"], series[workload, "sgi"]
        tm_top = tm.at(p)
        rows.append([tm.app, tm.speedups()[p], sgi.speedups()[p],
                     tm_top.counters.total_bytes // 1024])
        data[workload] = {"tm": tm.speedups()[p],
                          "sgi": sgi.speedups()[p],
                          "tm_kbytes": tm_top.counters.total_bytes / 1024}
    report = Report("x3", "SOR data-movement control experiment "
                          "(8 processors)")
    report.lines = fmt.format_table(
        ["program", "TreadMarks sp", "SGI sp", "TM total KB"], rows)
    report.data = data
    return report


@_register("x4", "Synchronization micro-costs", "§2.2 / §2.4.4",
           "Minimum remote lock acquisition and 8-processor barrier "
           "times; the kernel-level implementation roughly halves "
           "both.")
def run_x4(scale: Scale) -> Report:
    implementations = {
        "user-level": DecTreadMarksMachine(),
        "kernel-level": DecTreadMarksMachine(kernel_level=True)}
    plan = RunPlan()
    for machine in implementations.values():
        plan.add(machine, LockPingApp(), 3)
        plan.add(machine, BarrierOnlyApp(), 8)
    results = execute_plan(plan)
    rows = []
    data = {}
    for (label, machine), lock_run, barrier_run in zip(
            implementations.items(), results[::2], results[1::2]):
        lock_cycles = lock_run.cycles - LockPingApp.DELAY
        lock_ms = 1e3 * lock_cycles / machine.clock_hz
        barrier_ms = 1e3 * barrier_run.seconds
        rows.append([label, lock_ms, barrier_ms])
        data[label] = {"lock_ms": lock_ms, "barrier_ms": barrier_ms}
    report = Report("x4", "Remote lock and 8-processor barrier times "
                          "(milliseconds)")
    report.lines = fmt.format_table(
        ["implementation", "remote lock (ms)", "8-proc barrier (ms)"],
        rows)
    report.data = data
    return report


# ======================================================================
# Ablations
# ======================================================================
@_register("a1", "Diffs vs whole-page transfer", "DESIGN.md A1",
           "Whole-page transfers multiply data movement for "
           "fine-grain-write applications.")
def run_a1(scale: Scale) -> Report:
    series = run_curves({
        (workload, diffs): (
            DecTreadMarksMachine(ablate=AblationSpec(diffs=diffs)),
            app, (8,))
        for workload in ("sor_small", "mwater")
        for app in [make_app(workload, scale)]
        for diffs in (True, False)})
    rows = []
    data = {}
    for (workload, diffs), s in series.items():
        p8 = s.at(8)
        rows.append([s.app, s.machine, s.speedups()[8],
                     p8.counters.total_bytes // 1024])
        data[f"{workload}|diffs={diffs}"] = {
            "speedup": s.speedups()[8],
            "bytes": p8.counters.total_bytes,
        }
    report = Report("a1", "Diff-based vs whole-page data movement "
                          "(8 processors)")
    report.lines = fmt.format_table(
        ["program", "machine", "speedup@8", "total KB"], rows)
    report.data = data
    return report


@_register("a2", "Lazy vs eager release across applications",
           "DESIGN.md A2",
           "Eager release helps the unsynchronized-read pattern (TSP) "
           "and hurts high-lock-rate applications (more messages).")
def run_a2(scale: Scale) -> Report:
    workloads = ("tsp19", "mwater", "sor_small")
    series = run_curves({
        (workload, eager): (DecTreadMarksMachine(eager_locks=eager),
                            app, (8,))
        for workload in workloads
        for app in [make_app(workload, scale)]
        for eager in (None, "all")})
    rows = []
    data = {}
    for workload in workloads:
        lazy, eager = series[workload, None], series[workload, "all"]
        data[workload] = {
            "lazy": lazy.speedups()[8], "eager": eager.speedups()[8],
            "lazy_msgs": lazy.at(8).counters.total_messages,
            "eager_msgs": eager.at(8).counters.total_messages,
        }
        rows.append([workload, *data[workload].values()])
    report = Report("a2", "Lazy vs eager release (8 processors)")
    report.lines = fmt.format_table(
        ["program", "lazy sp", "eager sp", "lazy msgs", "eager msgs"],
        rows)
    report.data = data
    return report


@_register("a3", "HS node-size sweep", "DESIGN.md A3",
           "Larger nodes cut messages; returns diminish once the node "
           "bus and the per-node DSM serialize.")
def run_a3(scale: Scale) -> Report:
    procs = max(SIMULATED_PROCS[scale])
    params = HybridMachine().params
    series = run_curves({
        (workload, node_size): (
            HybridMachine(replace(params, procs_per_node=node_size)),
            make_app(workload, scale), (procs,))
        for node_size in (1, 2, 4, 8, 16)
        for workload in ("sor_small", "mwater")})
    rows = []
    data = {}
    for (workload, node_size), s in series.items():
        r = s.at(procs)
        rows.append([workload, node_size, s.speedups()[procs],
                     r.counters.total_messages])
        data[f"{workload}|node={node_size}"] = {
            "speedup": s.speedups()[procs],
            "messages": r.counters.total_messages,
        }
    report = Report("a3", f"HS node-size sweep at {procs} processors")
    report.lines = fmt.format_table(
        ["program", "procs/node", "speedup", "messages"], rows)
    report.data = data
    return report


# ======================================================================
# Robustness: the fault sweep
# ======================================================================

#: Loss rates swept by ``fault-sweep`` unless overridden via
#: :func:`sweep_options` (the CLI's ``--loss-rate`` flags).
DEFAULT_LOSS_RATES: Tuple[float, ...] = (0.0, 0.005, 0.02, 0.05)

#: One bandwidth-bound, one sync-light, one lock-heavy workload — the
#: three degradation regimes loss can expose.
FAULT_SWEEP_WORKLOADS: Tuple[str, ...] = ("sor_small", "tsp19", "mwater")


@dataclass(frozen=True)
class FaultSweepOptions:
    """Parameters of the ``fault-sweep`` experiment."""

    loss_rates: Tuple[float, ...] = DEFAULT_LOSS_RATES
    seed: int = 42
    schedule: Tuple[FaultRule, ...] = ()

    def plan(self, rate: float) -> FaultPlan:
        return FaultPlan(loss_rate=rate, seed=self.seed,
                         schedule=self.schedule)


@_register("fault-sweep", "Speedup vs. network loss rate (TreadMarks)",
           "robustness",
           "Speedup decays monotonically as loss rises; retransmission "
           "and duplicate counters grow from zero; no run hangs.")
def run_fault_sweep(scale: Scale) -> Report:
    opts = current_options("fault-sweep")
    procs = max(EXPERIMENTAL_PROCS)
    # One plan for the (workload x loss-rate) grid.  The rate-0 plan is
    # *disabled*, so its machine fingerprints — and cache entries —
    # coincide with the lossless TreadMarks runs of t1/t2/fig3-8: the
    # zero-overhead-when-disabled invariant, asserted by CI.
    plan = RunPlan()
    layout = []
    for workload in FAULT_SWEEP_WORKLOADS:
        app = make_app(workload, scale)
        base_index = plan.add(DecTreadMarksMachine(), app, 1)
        entries = []
        for rate in opts.loss_rates:
            machine = DecTreadMarksMachine(faults=opts.plan(rate))
            entries.append((rate, plan.add(machine, app, procs)))
        layout.append((workload, base_index, entries))
    results = execute_plan(plan)

    rows = []
    data: Dict[str, Dict] = {}
    for workload, base_index, entries in layout:
        base = results[base_index]
        for rate, index in entries:
            r = results[index]
            speedup = base.seconds / r.seconds
            c = r.counters
            rows.append([workload, rate, speedup, c.retransmissions,
                         c.duplicates_dropped, c.timeout_cycles])
            data.setdefault(workload, {})[f"{rate:g}"] = {
                "speedup": speedup,
                "retransmissions": c.retransmissions,
                "duplicates_dropped": c.duplicates_dropped,
                "messages_dropped": c.messages_dropped,
                "timeout_cycles": c.timeout_cycles,
            }
    report = Report("fault-sweep",
                    f"TreadMarks speedup at {procs} processors vs. "
                    f"message loss rate (fault seed {opts.seed})")
    report.lines = fmt.format_table(
        ["program", "loss rate", "speedup", "retransmits",
         "dups dropped", "timeout cycles"], rows)
    report.data = data
    return report


# ======================================================================
# Robustness: the failure sweep (crash-stop recovery)
# ======================================================================

#: Fractions of the *clean* run's length at which the crash lands —
#: early (recovery cost amortized over most of the run) and midway.
DEFAULT_CRASH_FRACS: Tuple[float, ...] = (0.25, 0.5)

#: One barrier-structured and one lock-structured workload; crashes
#: stress the two recovery paths (barrier reconfiguration vs lock
#: token regeneration) differently.
FAILURE_SWEEP_WORKLOADS: Tuple[str, ...] = ("sor_sim", "tsp19")

#: The two software-DSM simulated architectures.  Hardware machines
#: reject crash plans outright (no recovery story), so they are not
#: sweepable here.
FAILURE_SWEEP_MACHINES: Tuple[str, ...] = ("as", "hs")


@dataclass(frozen=True)
class FailureSweepOptions:
    """Parameters of the ``failure-sweep`` experiment.

    ``crashes`` (the CLI's ``--crash``) overrides the derived schedule:
    when non-empty, every cell runs with exactly these events instead
    of one crash at each ``fracs`` fraction of the clean run.
    """

    fracs: Tuple[float, ...] = DEFAULT_CRASH_FRACS
    workloads: Tuple[str, ...] = FAILURE_SWEEP_WORKLOADS
    machines: Tuple[str, ...] = FAILURE_SWEEP_MACHINES
    crashes: Tuple[CrashEvent, ...] = ()
    detect_cycles: int = 1_000_000


def _sweep_num_nodes(mname: str, machine, procs: int) -> int:
    """DSM node count of a sweep cell (crash targets are *nodes*)."""
    if mname == "hs":
        per_node = machine.params.procs_per_node
        return max(1, procs // per_node)
    return procs


@_register("failure-sweep",
           "Degraded completion under crash-stop node failures",
           "robustness",
           "Every crashed cell completes degraded on n-1 nodes with "
           "byte-identical summaries across serial/pool/warm-cache; "
           "detection latency is bounded by the keepalive backstop and "
           "recovery counters (pages rehomed/lost, locks regenerated, "
           "barrier reconfigs) come out non-zero.")
def run_failure_sweep(scale: Scale) -> Report:
    opts = current_options("failure-sweep")
    procs = max(SIMULATED_PROCS[scale])

    # Phase 1: the clean cells.  These coincide (fingerprints and all)
    # with fig9/fig10 points, so a warm cache serves them; their cycle
    # counts deterministically place the crashes of phase 2.
    clean_plan = RunPlan()
    clean_layout = []
    for mname in opts.machines:
        for workload in opts.workloads:
            app = make_app(workload, scale)
            machine = make_machine(mname)
            base_index = clean_plan.add(machine, app, 1)
            clean_index = clean_plan.add(machine, app, procs)
            clean_layout.append((mname, workload, base_index, clean_index))
    clean_results = execute_plan(clean_plan)

    # Phase 2: the crashed cells.  Unless --crash pinned an explicit
    # schedule, the last DSM node crashes at each configured fraction
    # of the clean run — a pure function of phase 1, so the whole
    # sweep stays deterministic and cacheable.
    plan = RunPlan()
    layout = []
    for mname, workload, base_index, clean_index in clean_layout:
        clean = clean_results[clean_index]
        app = make_app(workload, scale)
        num_nodes = _sweep_num_nodes(mname, make_machine(mname), procs)
        if num_nodes < 2:
            continue                  # no survivor would remain
        if opts.crashes:
            schedules = [("explicit", opts.crashes)]
        else:
            schedules = [
                (f"{frac:g}",
                 (CrashEvent(num_nodes - 1, int(frac * clean.cycles)),))
                for frac in opts.fracs]
        for tag, crashes in schedules:
            faults = FaultPlan(crashes=crashes,
                               detect_cycles=opts.detect_cycles)
            machine = make_machine(mname, faults=faults)
            index = plan.add(machine, app, procs)
            layout.append((mname, workload, tag, crashes, base_index,
                           clean_index, index))
    results = execute_plan(plan)

    rows = []
    data: Dict[str, Dict] = {}
    for (mname, workload, tag, crashes, base_index, clean_index,
         index) in layout:
        base = clean_results[base_index]
        clean = clean_results[clean_index]
        r = results[index]
        c = r.counters
        degraded = r.degraded or {}
        speedup = base.seconds / r.seconds
        clean_speedup = base.seconds / clean.seconds
        rows.append([mname, workload, tag,
                     len(degraded.get("failed_nodes", ())),
                     speedup, clean_speedup, c.detection_cycles,
                     c.pages_rehomed, c.pages_lost, c.locks_regenerated,
                     c.barrier_reconfigs])
        data.setdefault(workload, {}).setdefault(mname, {})[tag] = {
            "speedup": speedup,
            "clean_speedup": clean_speedup,
            "degraded": degraded,
            "crashes": [{"node": e.node, "at": e.at, "rejoin": e.rejoin}
                        for e in crashes],
            "detect_cycles": opts.detect_cycles,
            "detection_cycles": c.detection_cycles,
            "pages_rehomed": c.pages_rehomed,
            "pages_lost": c.pages_lost,
            "locks_regenerated": c.locks_regenerated,
            "barrier_reconfigs": c.barrier_reconfigs,
        }
    report = Report("failure-sweep",
                    f"Crash-stop recovery at {procs} processors "
                    f"(detect backstop {opts.detect_cycles} cycles)")
    report.lines = fmt.format_table(
        ["machine", "program", "crash", "failed", "degraded sp",
         "clean sp", "detect cyc", "rehomed", "lost", "locks",
         "barriers"], rows)
    report.data = data
    return report


# ======================================================================
# The synchronization design space: the sync sweep
# ======================================================================

#: One lock-heavy and one barrier-heavy workload — the two traffic
#: patterns the lock and barrier axes of the design space stress.
SYNC_SWEEP_WORKLOADS: Tuple[str, ...] = ("tsp18", "mwater")

#: The three simulated large-scale architectures; the experimental
#: machines can be swept too (``sweep_options("sync-sweep",
#: machines=...)``) but cap at 8 processors where the policies barely
#: separate.
SYNC_SWEEP_MACHINES: Tuple[str, ...] = ("as", "ah", "hs")


@dataclass(frozen=True)
class SyncSweepOptions:
    """Parameters of the ``sync-sweep`` experiment."""

    locks: Tuple[str, ...] = LOCK_ALGORITHMS
    barriers: Tuple[str, ...] = BARRIER_ALGORITHMS
    workloads: Tuple[str, ...] = SYNC_SWEEP_WORKLOADS
    machines: Tuple[str, ...] = SYNC_SWEEP_MACHINES

    def policies(self) -> List[SyncPolicy]:
        return [SyncPolicy(lock=lk, barrier=bar)
                for lk in self.locks for bar in self.barriers]


@_register("sync-sweep",
           "Speedup across the lock x barrier design space",
           "DESIGN.md §sync",
           "Tree/combining barriers lift the software machines at high "
           "processor counts (the centralized manager's O(n) handler "
           "serialization is the bottleneck they remove); lock choice "
           "barely moves DSM apps.  AH moves less across policies than "
           "the best software gain.")
def run_sync_sweep(scale: Scale) -> Report:
    opts = current_options("sync-sweep")
    procs = tuple(SIMULATED_PROCS[scale])
    top = max(procs)
    policies = opts.policies()
    # One plan for the whole (machine x workload x policy) grid.  The
    # 1-processor baselines dedup across policies: a software machine's
    # uniprocessor fingerprint hides everything non-local, including
    # the sync policy, so each (machine, workload) baseline runs once.
    curves = {}
    for mname in opts.machines:
        for workload in opts.workloads:
            app = make_app(workload, scale)
            for policy in policies:
                curves[mname, workload, policy.label()] = (
                    make_machine(mname, sync=policy), app, (1,) + procs)

    rows = []
    data: Dict[str, Dict] = {}
    for (mname, workload, label), series in run_curves(curves).items():
        r_top = series.at(top)
        c = r_top.counters
        rows.append([mname, workload, label,
                     series.speedups()[top], c.combining_hits])
        data.setdefault(workload, {}).setdefault(mname, {})[label] = {
            "speedups": {str(p): s for p, s in series.speedups().items()},
            "seconds": r_top.seconds,
            "combining_hits": c.combining_hits,
            "lock_wait_cycles": c.lock_wait_cycles,
            "lock_hold_cycles": c.lock_hold_cycles,
            "sync_messages": c.sync_messages,
        }

    # The crossover view: how close the best software-machine policy
    # brings AS/HS to AH's default at the largest machine.
    summary: Dict[str, Dict] = {}
    for workload, machines in data.items():
        ah = machines.get("ah", {}).get("token+central")
        for mname in ("as", "hs"):
            cells = machines.get(mname)
            if not cells or "token+central" not in cells:
                continue
            default_sp = cells["token+central"]["speedups"][str(top)]
            best_label, best = max(
                cells.items(),
                key=lambda kv: kv[1]["speedups"][str(top)])
            best_sp = best["speedups"][str(top)]
            summary[f"{workload}/{mname}"] = {
                "default": default_sp,
                "best": best_sp,
                "best_policy": best_label,
                "gain": best_sp / default_sp if default_sp else 0.0,
                "ah_default": (ah["speedups"][str(top)] if ah else None),
            }

    report = Report("sync-sweep",
                    f"Lock x barrier design space at up to {top} "
                    f"processors")
    report.lines = fmt.format_table(
        ["machine", "program", "policy", f"speedup@{top}",
         "combining hits"], rows)
    report.lines.append("")
    for key, s in summary.items():
        report.lines.append(
            f"{key}: default {s['default']:.2f} -> best "
            f"{s['best']:.2f} ({s['best_policy']}, "
            f"{100 * (s['gain'] - 1):+.1f}%)")
    report.data = {"cells": data, "summary": summary, "top_procs": top}
    return report


# ======================================================================
# The mechanism design space: the ablation sweep
# ======================================================================

#: One barrier-heavy, one branch-and-bound, one lock-heavy workload —
#: each DSM mechanism earns its keep on a different traffic pattern.
ABLATION_SWEEP_WORKLOADS: Tuple[str, ...] = ("sor_sim", "tsp19", "mwater")

#: The two software-DSM simulated architectures.  The hardware
#: machines have none of the ablatable mechanisms and reject
#: non-default specs.
ABLATION_SWEEP_MACHINES: Tuple[str, ...] = ("as", "hs")

#: Supported spec grids: ``loo`` (leave one mechanism out of the full
#: protocol) and ``only`` (keep one mechanism, strip the rest).
ABLATION_GRIDS: Tuple[str, ...] = ("loo", "only")


@dataclass(frozen=True)
class AblationSweepOptions:
    """Parameters of the ``ablation-sweep`` experiment."""

    mechanisms: Tuple[str, ...] = MECHANISMS
    workloads: Tuple[str, ...] = ABLATION_SWEEP_WORKLOADS
    machines: Tuple[str, ...] = ABLATION_SWEEP_MACHINES
    grids: Tuple[str, ...] = ("loo",)
    #: The backoff mechanism is inert on a lossless network, so its
    #: cells run under a small-loss fault plan (ablated *and* its
    #: full-protocol baseline, keeping the comparison paired).
    loss_rate: float = 0.01
    fault_seed: int = 42

    def __post_init__(self) -> None:
        for mech in self.mechanisms:
            if mech not in MECHANISMS:
                raise ConfigurationError(
                    f"unknown mechanism '{mech}'; choose from "
                    f"{', '.join(MECHANISMS)}")
        for grid in self.grids:
            if grid not in ABLATION_GRIDS:
                raise ConfigurationError(
                    f"unknown ablation grid '{grid}'; choose from "
                    f"{', '.join(ABLATION_GRIDS)}")

    def fault_plan(self) -> FaultPlan:
        return FaultPlan(loss_rate=self.loss_rate, seed=self.fault_seed)

    def specs(self, grid: str) -> List[Tuple[str, AblationSpec]]:
        """(mechanism, spec) cells of one grid, in mechanism order."""
        if grid == "loo":
            return [(m, AblationSpec.without(m)) for m in self.mechanisms]
        return [(m, AblationSpec.only(m)) for m in self.mechanisms]


@_register("ablation-sweep",
           "Per-mechanism importance over the DSM protocol",
           "DESIGN.md §8",
           "Lazy diff fetching dominates on barrier-heavy SOR (eager "
           "fetching refetches every invalidated page per sync); "
           "diffs/twins matter most where pages are sparsely written "
           "(Water); piggybacking saves a message per sync pair; "
           "backoff only separates under loss.")
def run_ablation_sweep(scale: Scale) -> Report:
    opts = current_options("ablation-sweep")
    top = max(SIMULATED_PROCS[scale])

    # One plan for the whole grid.  Each (machine, workload) gets a
    # full-protocol baseline; each swept mechanism gets one ablated
    # cell per grid against that baseline.  Backoff cells (loo grid)
    # pair a lossy ablated run with a lossy full-protocol baseline.
    plan = RunPlan()
    layout: List[Tuple] = []
    for mname in opts.machines:
        for workload in opts.workloads:
            app = make_app(workload, scale)
            full_index = plan.add(make_machine(mname), app, top)
            faulty_full_index = None
            if "backoff" in opts.mechanisms and "loo" in opts.grids:
                faulty_full_index = plan.add(
                    make_machine(mname, faults=opts.fault_plan()),
                    app, top)
            for grid in opts.grids:
                for mech, spec in opts.specs(grid):
                    if grid == "loo" and mech == "backoff":
                        index = plan.add(
                            make_machine(mname, faults=opts.fault_plan(),
                                         ablate=spec), app, top)
                        base_index = faulty_full_index
                    else:
                        index = plan.add(
                            make_machine(mname, ablate=spec), app, top)
                        base_index = full_index
                    layout.append((mname, workload, grid, mech, spec,
                                   base_index, index))
    results = execute_plan(plan)

    rows = []
    cells: Dict[str, Dict] = {}
    #: mechanism -> list of (score, cell key, deltas) over loo cells.
    loo_scores: Dict[str, List[Tuple[float, str, Dict[str, float]]]] = {}
    for mname, workload, grid, mech, spec, base_index, index in layout:
        full = run_metrics(results[base_index])
        ablated = run_metrics(results[index])
        deltas = metric_deltas(full, ablated)
        score = importance_score(full, ablated)
        key = f"{mname}/{workload}"
        rows.append([mname, workload, grid, spec.label(),
                     deltas["seconds"], deltas["messages"],
                     deltas["bytes"], deltas["diff_bytes"], score])
        cells.setdefault(key, {}).setdefault(grid, {})[mech] = {
            "spec": spec.label(),
            "full": full,
            "ablated": ablated,
            "deltas": deltas,
            "score": score,
        }
        if grid == "loo":
            loo_scores.setdefault(mech, []).append((score, key, deltas))

    # The ranked "which mechanism earns its cost" view: a mechanism's
    # headline importance is its peak leave-one-out score over the
    # swept (machine, workload) cells.
    ranking = []
    for mech, entries in loo_scores.items():
        peak_score, peak_key, peak_deltas = max(entries)
        ranking.append({
            "mechanism": mech,
            "score": peak_score,
            "peak_cell": peak_key,
            "peak_deltas": peak_deltas,
            # Positive seconds delta: removing the mechanism slows the
            # run down, i.e. the mechanism pays for itself.
            "earns_cost": peak_deltas["seconds"] > 0,
        })
    ranking.sort(key=lambda e: e["score"], reverse=True)

    report = Report("ablation-sweep",
                    f"Mechanism importance at {top} processors "
                    f"(leave-one-out{' + one-only' if 'only' in opts.grids else ''})")
    report.lines = fmt.format_table(
        ["machine", "program", "grid", "spec", "d.seconds", "d.msgs",
         "d.bytes", "d.diffbytes", "score"], rows)
    if ranking:
        report.lines.append("")
        report.lines.append("mechanism importance (peak leave-one-out "
                            "score; + = removing it hurts):")
        for rank, entry in enumerate(ranking, start=1):
            sign = "+" if entry["earns_cost"] else "-"
            report.lines.append(
                f"{rank}. {entry['mechanism']:<13s} {entry['score']:8.3f} "
                f"{sign}  peak at {entry['peak_cell']} "
                f"(d.seconds {entry['peak_deltas']['seconds']:+.3f}, "
                f"d.msgs {entry['peak_deltas']['messages']:+.3f})")
    report.data = {"cells": cells, "ranking": ranking, "top_procs": top,
                   "grids": list(opts.grids),
                   "mechanisms": list(opts.mechanisms)}
    return report


# ======================================================================
# Sweep options: one ambient override mechanism for the four sweeps
# ======================================================================

#: The experiments that take parameters, and the frozen dataclass that
#: validates and expands them (``plan()`` / ``policies()`` / ``specs()``).
SWEEP_OPTIONS: Dict[str, type] = {
    "fault-sweep": FaultSweepOptions,
    "failure-sweep": FailureSweepOptions,
    "sync-sweep": SyncSweepOptions,
    "ablation-sweep": AblationSweepOptions,
}

_option_scopes: List[Tuple[str, object]] = []


@contextmanager
def sweep_options(exp_id: str, **overrides):
    """Ambient overrides for one sweep experiment (mirrors ``run_context``).

    ``overrides`` are fields of ``SWEEP_OPTIONS[exp_id]``; scopes nest,
    innermost wins, and scopes for different experiments are independent.
    """
    if exp_id not in SWEEP_OPTIONS:
        raise ConfigurationError(
            f"'{exp_id}' takes no sweep options; choose from "
            f"{sorted(SWEEP_OPTIONS)}")
    opts = SWEEP_OPTIONS[exp_id](**overrides)
    _option_scopes.append((exp_id, opts))
    try:
        yield opts
    finally:
        _option_scopes.pop()


def current_options(exp_id: str):
    """The innermost :func:`sweep_options` for ``exp_id``, or its defaults."""
    for scoped_id, opts in reversed(_option_scopes):
        if scoped_id == exp_id:
            return opts
    return SWEEP_OPTIONS[exp_id]()


def run_experiment(exp_id: str, scale: Scale = Scale.BENCH) -> Report:
    """Run one experiment by id at the given scale."""
    return get_experiment(exp_id).run(scale)


def list_experiments() -> List[Experiment]:
    order = (["t1", "t2"] + [f"fig{i}" for i in range(1, 17)] +
             ["x1", "x2", "x3", "x4", "a1", "a2", "a3", "fault-sweep",
              "failure-sweep", "sync-sweep", "ablation-sweep"])
    return [REGISTRY[k] for k in order if k in REGISTRY]
