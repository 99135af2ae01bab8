"""The experiment registry: every table, figure, and ablation.

Each entry regenerates one artifact of the paper's evaluation and is
the one declaration of it: the title, the paper's claim, the shape
the reproduction must show, any known deviation, the run plan
(``plan(scale) -> RunPlan``) and the assembly of that plan's results
into a :class:`Report` (``assemble(scale, plan, results)``).
EXPERIMENTS.md and ``repro-harness list`` are generated from it.  The
ids are ``t1``/``t2`` (tables), ``fig1`` .. ``fig16`` (figures),
``x1`` .. ``x4`` (in-text experiments), ``a1`` .. ``a3`` (ablations of
design choices the paper calls out) and four robustness and
design-space sweeps, registered in that order.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Sequence, Tuple

from repro.ablate import (MECHANISMS, AblationSpec, importance_score,
                          metric_deltas, run_metrics)
from repro.apps import BarrierOnlyApp, LockPingApp
from repro.errors import ConfigurationError
from repro.harness import fmt
from repro.harness.parallel import RunPlan, execute_plan
from repro.harness.workloads import (EXPERIMENTAL_PROCS, SIMULATED_PROCS,
                                     Scale, make_app)
from repro.machines import (AllHardwareMachine, AllSoftwareMachine,
                            DecTreadMarksMachine, HybridMachine, SgiMachine,
                            make_machine)
from repro.net.faults import CrashEvent, FaultPlan, FaultRule
from repro.net.overhead import OVERHEAD_SWEEP
from repro.stats.result import RunResult
from repro.sync import BARRIER_ALGORITHMS, LOCK_ALGORITHMS, SyncPolicy


@dataclass
class Report:
    """The output of one experiment run."""

    exp_id: str
    title: str
    lines: List[str] = field(default_factory=list)
    data: Dict = field(default_factory=dict)

    def text(self) -> str:
        """The report as printed: a header line, then the body lines."""
        header = f"== {self.exp_id}: {self.title} =="
        return "\n".join([header] + self.lines)


#: The results of a plan, in plan order.
Results = Sequence[RunResult]


@dataclass(frozen=True)
class Experiment:
    """One registry entry: everything the repo says about one artifact.

    ``plan`` declares every run the artifact needs at a scale;
    ``assemble`` turns that plan's results into the :class:`Report`,
    finding which result is which in ``plan.layout``.  ``paper_claim``
    is what the paper reports, ``shape_note`` the shape the
    reproduction must show, and ``deviation`` (empty when there is
    none) says where and why the measured shape departs from the
    paper's.
    """

    exp_id: str
    title: str
    paper_ref: str
    shape_note: str
    paper_claim: str
    plan: Callable[[Scale], RunPlan]
    assemble: Callable[[Scale, RunPlan, Results], Report]
    deviation: str = ""


REGISTRY: Dict[str, Experiment] = {}


def _register(exp: Experiment) -> None:
    REGISTRY[exp.exp_id] = exp


def get_experiment(exp_id: str) -> Experiment:
    """The registry entry for ``exp_id``; a ConfigurationError names
    the known ids when there is none."""
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
def _t1_plan(scale: Scale) -> RunPlan:
    plan = RunPlan()
    apps = {name: make_app(name, scale) for name in ALL_WORKLOADS}
    for machine in (DecTreadMarksMachine(), SgiMachine()):
        for name, app in apps.items():
            plan.layout.setdefault(name, []).append(
                plan.add(machine, app, 1))
    return plan


def _t1_assemble(scale: Scale, plan: RunPlan, results: Results) -> Report:
    rows = []
    data = {}
    for name, (tm, sgi) in plan.layout.items():
        t_tm, t_sgi = results[tm].seconds, results[sgi].seconds
        # At one node TreadMarks engages no remote machinery, so the
        # plain-DEC and DEC+TreadMarks columns coincide (the paper
        # measured the same to within noise).
        rows.append([results[tm].app, t_tm, t_tm, t_sgi, t_sgi / t_tm])
        data[name] = {"dec": t_tm, "treadmarks": t_tm, "sgi": t_sgi}
    report = Report("t1", "Single-processor execution times (seconds)")
    report.lines = fmt.format_table(
        ["program", "DEC", "DEC+TreadMarks", "SGI", "SGI/DEC"], rows)
    report.data = data
    return report


def _t2_plan(scale: Scale) -> RunPlan:
    plan = RunPlan()
    tm = DecTreadMarksMachine()
    for name in ALL_WORKLOADS:
        plan.layout[name] = plan.add(tm, make_app(name, scale), 8)
    return plan


def _t2_assemble(scale: Scale, plan: RunPlan, results: Results) -> Report:
    rows = []
    data = {}
    for name, index in plan.layout.items():
        r = results[index]
        rows.append([r.app, r.barriers_per_sec, r.remote_locks_per_sec,
                     r.messages_per_sec, r.kbytes_per_sec])
        data[name] = r.summary()
    report = Report("t2", "8-processor TreadMarks execution statistics")
    report.lines = fmt.format_table(
        ["program", "barriers/s", "remote locks/s", "messages/s",
         "Kbytes/s"], rows)
    report.data = data
    return report


_register(Experiment(
    "t1", "Single-processor execution times", "Table 1",
    shape_note="DSM overhead at 1 processor is ~nil; the SGI is slower for "
               "working sets exceeding its L2, roughly equal otherwise.",
    paper_claim="TreadMarks has almost no effect on single-processor times; "
                "the 4D/480 is somewhat slower than the DECstation when the "
                "working set exceeds its secondary cache (only SOR differs "
                "sizably).",
    plan=_t1_plan, assemble=_t1_assemble,
    deviation="The DEC and DEC+TreadMarks columns are identical by "
              "construction: at one node the protocol engages no remote "
              "machinery, which is the paper's observation (measured "
              "difference within noise)."))

_register(Experiment(
    "t2", "8-processor TreadMarks execution statistics", "Table 2",
    shape_note="Sync-rate ordering: Water >> M-Water > TSP-18 > TSP-19; "
               "ILINK-BAD >> ILINK-CLP in barrier and message rates.",
    paper_claim="Synchronization rates order the applications: Water has "
                "thousands of remote lock acquires/second, M-Water an order "
                "of magnitude fewer; TSP-18 syncs more than TSP-19; "
                "ILINK-BAD has several times CLP's barrier and message rates.",
    plan=_t2_plan, assemble=_t2_assemble))


# ======================================================================
# Figures 1-8: TreadMarks vs SGI speedups
# ======================================================================
def _experimental_plan(workload: str, scale: Scale) -> RunPlan:
    plan = RunPlan()
    app = make_app(workload, scale)
    for m in (DecTreadMarksMachine(), SgiMachine()):
        plan.curve(m.name, m, app, EXPERIMENTAL_PROCS)
    return plan


def _experimental_assemble(exp_id: str, scale: Scale, plan: RunPlan,
                           results: Results) -> Report:
    series = plan.series(results)
    speedups = {name: s.speedups() for name, s in series.items()}
    report = Report(exp_id, f"{plan.specs[0].app.name} speedups, "
                            f"TreadMarks vs SGI 4D/480")
    report.lines = fmt.format_speedups(speedups, EXPERIMENTAL_PROCS)
    report.data = {"speedups": speedups,
                   "base_seconds": {n: s.base_seconds
                                    for n, s in series.items()}}
    return report


#: (id, workload, paper ref, shape note, paper claim, known deviation).
_EXPERIMENTAL_FIGURES = [
    ("fig1", "ilink_clp", "Figure 1",
     "SGI above TreadMarks; smallest ILINK gap (coarse grain, low barrier "
     "rate).",
     "ILINK-CLP: both machines speed up sublinearly (inherent load "
     "imbalance); the SGI leads by the smallest margin of the ILINK inputs.",
     ""),
    ("fig2", "ilink_bad", "Figure 2",
     "SGI above TreadMarks; largest ILINK gap (fine grain, high barrier "
     "rate).",
     "ILINK-BAD: worst ILINK input; the SGI-TreadMarks gap is the largest, "
     "tracking the higher barrier rate.", ""),
    ("fig3", "sor_large", "Figure 3",
     "TreadMarks above SGI: the 16 MB grid thrashes the SGI L2 and "
     "saturates its bus.",
     "SOR 2000x1000: better speedup on TreadMarks than on the SGI — the SGI "
     "is memory-bandwidth bound on its shared bus, each DECstation has a "
     "private path to memory, and diffs ship only changed words.", ""),
    ("fig4", "sor_small", "Figure 4",
     "TreadMarks competitive with SGI even when the band fits the SGI L2 "
     "at 8 processors.",
     "SOR 1000x1000 (fits the SGI L2 at 8 processors): TreadMarks still "
     "achieves the better speedup.",
     "With per-processor bands exactly fitting the 1 MB L2, our SGI model "
     "shows mild super-linear speedup (thrashing baseline), so TreadMarks "
     "and the SGI finish closer than the paper's figure; the large-SOR "
     "case (fig3) shows the paper's full effect."),
    ("fig5", "tsp19", "Figure 5",
     "SGI above TreadMarks (fresher bound prunes better; occasional "
     "super-linear SGI runs).",
     "TSP 19 cities: speedup favours the SGI (about 6.3 vs 4-ish); its "
     "eager coherence propagates the bound sooner, so processors do less "
     "redundant work.", ""),
    ("fig6", "tsp18", "Figure 6",
     "SGI above TreadMarks; slightly larger gap than the 19-city problem.",
     "TSP 18 cities: same ordering, slightly larger gap (more "
     "synchronization per unit of computation).", ""),
    ("fig7", "water", "Figure 7",
     "TreadMarks gets essentially no speedup (per-update locks); SGI "
     "scales.",
     "Water: TreadMarks gets essentially no speedup (per-update locks "
     "generate an overwhelming message rate); the SGI scales normally.",
     ""),
    ("fig8", "mwater", "Figure 8",
     "TreadMarks recovers real speedup with batched updates; SGI nearly "
     "unchanged vs Water.",
     "M-Water: batching updates restores TreadMarks to real speedup; the "
     "SGI is virtually unchanged versus Water.", ""),
]

for _fid, _wl, _ref, _note, _claim, _deviation in _EXPERIMENTAL_FIGURES:
    _register(Experiment(
        _fid, f"{_wl} speedup (TreadMarks vs SGI)", _ref, _note, _claim,
        partial(_experimental_plan, _wl),
        partial(_experimental_assemble, _fid), _deviation))


# ======================================================================
# Figures 9-11: AS / AH / HS simulated speedups
# ======================================================================
def _sim_plan(workload: str, scale: Scale) -> RunPlan:
    plan = RunPlan()
    app = make_app(workload, scale)
    for m in (AllHardwareMachine(), HybridMachine(), AllSoftwareMachine()):
        plan.curve(m.name, m, app, (1,) + tuple(SIMULATED_PROCS[scale]))
    return plan


def _sim_assemble(exp_id: str, scale: Scale, plan: RunPlan,
                  results: Results) -> Report:
    speedups = {name: s.speedups()
                for name, s in plan.series(results).items()}
    report = Report(exp_id, f"{plan.specs[0].app.name} on AH / HS / AS")
    report.lines = fmt.format_speedups(speedups, SIMULATED_PROCS[scale])
    report.data = {"speedups": speedups}
    return report


#: (id, workload, paper ref, shape note, paper claim, known deviation).
_SIM_FIGURES = [
    ("fig9", "sor_sim", "Figure 9",
     "AH and HS near-linear, AS sub-linear (nearest-neighbour sharing "
     "suits the hierarchy).",
     "Simulated SOR: linear-ish speedup on AH and HS; AS is sub-linear due "
     "to communication cost.", ""),
    ("fig10", "tsp19", "Figure 10",
     "AH ~ HS > AS; the gap opens as the compute-to-communication ratio "
     "shrinks with more CPUs.",
     "Simulated TSP: AH and HS comparable; AS falls behind as the "
     "computation-to-communication ratio drops.",
     "Our scaled instances (12 cities standing in for 19) leave too little "
     "work per processor at 64 CPUs, so the HS/AS curves are noisier and "
     "flatter than the paper's; the ordering AH ≥ HS ≥ AS still holds.  "
     "Branch-and-bound is also inherently instance-sensitive — seed 11 of "
     "our generator reproduces the paper's occasional super-linear "
     "hardware speedup."),
    ("fig11", "mwater", "Figure 11",
     "Only AH keeps improving; AS peaks earliest, HS peaks mid-range "
     "(synchronization bound).",
     "Simulated M-Water: only AH keeps improving; AS peaks at a small "
     "processor count, HS peaks later but stays well below AH "
     "(synchronization messages and lock waits).",
     "The paper has HS peak mid-range (their elided processor count); our "
     "HS peaks at the single-node boundary (8 processors) and declines "
     "beyond it.  It stays above AS at every count and below AH from 16 "
     "processors on.  Problem size does not explain the early peak: HS "
     "falls from 7.89 at 8 processors to 3.63 at 64 at bench scale (216 "
     "molecules), and from 7.91 to 4.76 at paper scale (288 molecules)."),
]

for _fid, _wl, _ref, _note, _claim, _deviation in _SIM_FIGURES:
    _register(Experiment(
        _fid, f"{_wl} on AH/HS/AS (simulation)", _ref, _note, _claim,
        partial(_sim_plan, _wl), partial(_sim_assemble, _fid), _deviation))


# ======================================================================
# Figures 12-13: message and data totals, HS vs AS
# ======================================================================
def _traffic_plan(scale: Scale) -> RunPlan:
    """AS and HS runs at the largest machine (fig12 and fig13 each plan
    the same six cells; the result cache shares them)."""
    procs = max(SIMULATED_PROCS[scale])
    plan = RunPlan()
    for workload in SIM_WORKLOADS:
        app = make_app(workload, scale)
        plan.layout[workload] = (plan.add(AllSoftwareMachine(), app, procs),
                                 plan.add(HybridMachine(), app, procs))
    return plan


def _fig12_assemble(scale: Scale, plan: RunPlan,
                    results: Results) -> Report:
    rows = []
    data = {}
    for workload, (as_index, hs_index) in plan.layout.items():
        as_c, hs_c = results[as_index].counters, results[hs_index].counters
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
    report = Report("fig12", f"Total messages at {plan.specs[0].nprocs} "
                             f"processors (HS as % of AS)")
    report.lines = fmt.format_table(
        ["program", "AS miss", "AS sync", "HS miss", "HS sync",
         "HS % of AS"], rows)
    report.data = data
    return report


def _fig13_assemble(scale: Scale, plan: RunPlan,
                    results: Results) -> Report:
    rows = []
    data = {}
    for workload, (as_index, hs_index) in plan.layout.items():
        as_c, hs_c = results[as_index].counters, results[hs_index].counters
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
    report = Report("fig13", f"Total data (KB) at {plan.specs[0].nprocs} "
                             f"processors (HS as % of AS)")
    report.lines = fmt.format_table(
        ["program", "AS miss", "AS cons", "AS hdr",
         "HS miss", "HS cons", "HS hdr", "HS % of AS"], rows)
    report.data = data
    return report


_register(Experiment(
    "fig12", "Total messages, HS vs AS", "Figure 12",
    shape_note="HS sends a small fraction of AS's messages (1/4 .. 1/9, "
               "application dependent); sync messages shrink least.",
    paper_claim="At the largest machine, HS sends a small fraction of AS's "
                "messages (about 1/9 for SOR; less than 1/4 for TSP; ~1/4 "
                "for M-Water).",
    plan=_traffic_plan, assemble=_fig12_assemble,
    deviation="In the TSP row, HS's *synchronization* messages do not "
              "shrink as much as the paper's (our scaled instance makes the "
              "queue token migrate between nodes almost every pop); miss "
              "messages drop ~10x as expected."))

_register(Experiment(
    "fig13", "Total data, HS vs AS", "Figure 13",
    shape_note="HS moves ~1/4 .. 1/8 of AS's data; diff coalescing cuts miss "
               "data, notice batching cuts consistency data.",
    paper_claim="HS moves roughly 1/4 (TSP) to 1/8 of AS's data; per-node "
                "diff coalescing drives the reduction.",
    plan=_traffic_plan, assemble=_fig13_assemble))


# ======================================================================
# Figures 14-16: software-overhead sweeps
# ======================================================================
def _overhead_plan(workload: str, hybrid: bool, scale: Scale) -> RunPlan:
    # One plan for the full (preset x processor-count) grid; the
    # shared 1-proc baseline (AS presets only differ in messaging
    # overheads) runs once.
    plan = RunPlan()
    app = make_app(workload, scale)
    for preset in OVERHEAD_SWEEP:
        if hybrid:
            machine = HybridMachine(
                HybridMachine().params.with_overhead(preset))
        else:
            machine = AllSoftwareMachine(overhead_preset=preset)
        ov = preset.build()
        label = (f"fixed={ov.fixed_send_cycles}"
                 f",word={ov.per_word_cycles}")
        plan.curve(label, machine, app, (1,) + tuple(SIMULATED_PROCS[scale]))
    return plan


def _overhead_assemble(exp_id: str, workload: str, hybrid: bool,
                       scale: Scale, plan: RunPlan,
                       results: Results) -> Report:
    speedups = {label: series.speedups()
                for label, series in plan.series(results).items()}
    arch = "HS" if hybrid else "AS"
    report = Report(exp_id, f"{workload} on {arch}, software-overhead "
                            f"sweep")
    report.lines = fmt.format_speedups(speedups, SIMULATED_PROCS[scale])
    report.data = {"speedups": speedups}
    return report


#: (id, title, workload, on HS?, paper ref, shape note, paper claim,
#: known deviation).
_OVERHEAD_FIGURES = [
    ("fig14", "Overhead sweep: AS, SOR", "sor_sim", False, "Figure 14",
     "Fixed per-message cost dominates SOR on AS; reducing it brings AS "
     "near AH/HS.",
     "SOR on AS: reducing the fixed per-message cost has the largest "
     "effect; speedup approaches the other architectures.", ""),
    ("fig15", "Overhead sweep: AS, M-Water", "mwater", False, "Figure 15",
     "Fixed and per-word costs matter about equally for M-Water on AS.",
     "M-Water on AS: fixed and per-word costs matter about equally.",
     "The paper reports fixed and per-word costs mattering about equally; "
     "in our calibration the fixed cost dominates for M-Water too.  At 16 "
     "processors, cutting the fixed cost from 2000 to 500 cycles lifts AS "
     "from 4.08 to 5.12 at bench scale (216 molecules) and from 5.10 to "
     "6.28 at paper scale (288 molecules), while cutting the per-word cost "
     "from 4 to 1 cycle (at fixed=100) moves it only from 5.47 to 5.50 and "
     "from 6.55 to 6.68.  The larger problem does not close the gap, so "
     "the scaled molecule count is not the cause; the remaining candidate "
     "is message size (our run-compressed notices keep messages smaller on "
     "average than the paper's).  The direction of every individual knob "
     "matches."),
    ("fig16", "Overhead sweep: HS, M-Water", "mwater", True, "Figure 16",
     "On HS the fixed cost matters more than per-word (diff coalescing "
     "already cut the data volume).",
     "M-Water on HS: the fixed cost matters more than for AS (HS already "
     "cut data volume more than message count).", ""),
]

for (_fid, _title, _wl, _hybrid, _ref, _note, _claim,
     _deviation) in _OVERHEAD_FIGURES:
    _register(Experiment(
        _fid, _title, _ref, _note, _claim,
        partial(_overhead_plan, _wl, _hybrid),
        partial(_overhead_assemble, _fid, _wl, _hybrid), _deviation))


# ======================================================================
# In-text experiments
# ======================================================================
def _x1_plan(scale: Scale) -> RunPlan:
    plan = RunPlan()
    app = make_app("tsp19", scale)
    for m in (DecTreadMarksMachine(),
              DecTreadMarksMachine(eager_locks=frozenset({1})),  # bound lock
              SgiMachine()):
        plan.curve(m.name, m, app, EXPERIMENTAL_PROCS)
    return plan


def _x1_assemble(scale: Scale, plan: RunPlan, results: Results) -> Report:
    top = max(EXPERIMENTAL_PROCS)
    rows = []
    data = {}
    for name, series in plan.series(results).items():
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


def _x2_plan(scale: Scale) -> RunPlan:
    plan = RunPlan()
    kinds = {"user": DecTreadMarksMachine(),
             "kernel": DecTreadMarksMachine(kernel_level=True),
             "sgi": SgiMachine()}
    for workload in ("sor_small", "ilink_clp", "tsp19", "mwater"):
        app = make_app(workload, scale)
        for kind, machine in kinds.items():
            plan.curve((workload, kind), machine, app, EXPERIMENTAL_PROCS)
    return plan


def _x2_assemble(scale: Scale, plan: RunPlan, results: Results) -> Report:
    p = max(EXPERIMENTAL_PROCS)
    data: Dict[str, Dict[str, float]] = {}
    for (workload, kind), series in plan.series(results).items():
        data.setdefault(workload, {})[kind] = series.speedups()[p]
    report = Report("x2", "User-level vs kernel-level TreadMarks "
                          "(speedup at 8 processors)")
    report.lines = fmt.format_table(
        ["program", "user-level", "kernel-level", "SGI"],
        [[workload, *row.values()] for workload, row in data.items()])
    report.data = data
    return report


_X3_WORKLOADS = ("sor_large", "sor_alldirty")


def _x3_plan(scale: Scale) -> RunPlan:
    plan = RunPlan()
    for workload in _X3_WORKLOADS:
        app = make_app(workload, scale)
        for machine in (DecTreadMarksMachine(), SgiMachine()):
            plan.curve((workload, machine.name), machine, app,
                       EXPERIMENTAL_PROCS)
    return plan


def _x3_assemble(scale: Scale, plan: RunPlan, results: Results) -> Report:
    series = plan.series(results)
    p = max(EXPERIMENTAL_PROCS)
    rows = []
    data = {}
    for workload in _X3_WORKLOADS:
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


def _x4_plan(scale: Scale) -> RunPlan:
    plan = RunPlan()
    for label, machine in (
            ("user-level", DecTreadMarksMachine()),
            ("kernel-level", DecTreadMarksMachine(kernel_level=True))):
        plan.layout[label] = (plan.add(machine, LockPingApp(), 3),
                              plan.add(machine, BarrierOnlyApp(), 8))
    return plan


def _x4_assemble(scale: Scale, plan: RunPlan, results: Results) -> Report:
    rows = []
    data = {}
    for label, (lock_index, barrier_index) in plan.layout.items():
        lock_cycles = results[lock_index].cycles - LockPingApp.DELAY
        lock_ms = 1e3 * lock_cycles / plan.specs[lock_index].machine.clock_hz
        barrier_ms = 1e3 * results[barrier_index].seconds
        rows.append([label, lock_ms, barrier_ms])
        data[label] = {"lock_ms": lock_ms, "barrier_ms": barrier_ms}
    report = Report("x4", "Remote lock and 8-processor barrier times "
                          "(milliseconds)")
    report.lines = fmt.format_table(
        ["implementation", "remote lock (ms)", "8-proc barrier (ms)"],
        rows)
    report.data = data
    return report


_register(Experiment(
    "x1", "TSP with eager lock release", "§2.4.3",
    shape_note="Eager release propagates the bound at release time and "
               "recovers most of the SGI gap.",
    paper_claim="Replacing the bound lock's lazy release with an eager "
                "release improves TSP's 8-processor speedup most of the way "
                "to the SGI's.",
    plan=_x1_plan, assemble=_x1_assemble))

_register(Experiment(
    "x2", "Kernel-level TreadMarks", "§2.4.4",
    shape_note="Kernel-level messaging sharply improves M-Water; barrier "
               "apps (ILINK, SOR) barely change.",
    paper_claim="Kernel-level TreadMarks halves lock/barrier times; ILINK, "
                "SOR and TSP barely change, M-Water improves sharply.",
    plan=_x2_plan, assemble=_x2_assemble))

_register(Experiment(
    "x3", "SOR with every point changing", "§2.3/§2.4.2",
    shape_note="Equalizing data movement: TreadMarks moves far more data "
               "than with the zero interior, but still beats the SGI.",
    paper_claim="Initializing SOR so every point changes equalizes data "
                "movement; TreadMarks still achieves the better speedup.",
    plan=_x3_plan, assemble=_x3_assemble))

_register(Experiment(
    "x4", "Synchronization micro-costs", "§2.2 / §2.4.4",
    shape_note="Minimum remote lock acquisition and 8-processor barrier "
               "times; the kernel-level implementation roughly halves both.",
    paper_claim="Minimum remote lock acquisition takes a fraction of a "
                "millisecond and an 8-processor barrier about two; moving "
                "TreadMarks into the kernel roughly halves both (§2.2, "
                "§2.4.4).",
    plan=_x4_plan, assemble=_x4_assemble))


# ======================================================================
# Ablations
# ======================================================================
def _a1_plan(scale: Scale) -> RunPlan:
    plan = RunPlan()
    for workload in ("sor_small", "mwater"):
        app = make_app(workload, scale)
        for diffs in (True, False):
            plan.curve((workload, diffs), DecTreadMarksMachine(
                ablate=AblationSpec(diffs=diffs)), app, (8,))
    return plan


def _a1_assemble(scale: Scale, plan: RunPlan, results: Results) -> Report:
    rows = []
    data = {}
    for (workload, diffs), s in plan.series(results).items():
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


_A2_WORKLOADS = ("tsp19", "mwater", "sor_small")


def _a2_plan(scale: Scale) -> RunPlan:
    plan = RunPlan()
    for workload in _A2_WORKLOADS:
        app = make_app(workload, scale)
        for eager in (None, "all"):
            plan.curve((workload, eager),
                       DecTreadMarksMachine(eager_locks=eager), app, (8,))
    return plan


def _a2_assemble(scale: Scale, plan: RunPlan, results: Results) -> Report:
    series = plan.series(results)
    rows = []
    data = {}
    for workload in _A2_WORKLOADS:
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


def _a3_plan(scale: Scale) -> RunPlan:
    plan = RunPlan()
    procs = max(SIMULATED_PROCS[scale])
    params = HybridMachine().params
    for node_size in (1, 2, 4, 8, 16):
        for workload in ("sor_small", "mwater"):
            plan.curve((workload, node_size), HybridMachine(
                replace(params, procs_per_node=node_size)),
                make_app(workload, scale), (procs,))
    return plan


def _a3_assemble(scale: Scale, plan: RunPlan, results: Results) -> Report:
    procs = max(SIMULATED_PROCS[scale])
    rows = []
    data = {}
    for (workload, node_size), s in plan.series(results).items():
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


_register(Experiment(
    "a1", "Diffs vs whole-page transfer", "DESIGN.md A1",
    shape_note="Whole-page transfers multiply data movement for "
               "fine-grain-write applications.",
    paper_claim="(Repo ablation — no paper counterpart.) Diffs vs whole-page "
                "transfer on the fault path.",
    plan=_a1_plan, assemble=_a1_assemble))

_register(Experiment(
    "a2", "Lazy vs eager release across applications", "DESIGN.md A2",
    shape_note="Eager release helps the unsynchronized-read pattern (TSP) "
               "and hurts high-lock-rate applications (more messages).",
    paper_claim="(Repo ablation.) Lazy vs eager release across programs: "
                "eager trades extra messages for freshness.",
    plan=_a2_plan, assemble=_a2_assemble))

_register(Experiment(
    "a3", "HS node-size sweep", "DESIGN.md A3",
    shape_note="Larger nodes cut messages; returns diminish once the node "
               "bus and the per-node DSM serialize.",
    paper_claim="(Repo ablation.) HS node-size sweep: bigger nodes cut "
                "messages with diminishing returns.",
    plan=_a3_plan, assemble=_a3_assemble))


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
        """The fault plan of one swept loss rate."""
        return FaultPlan(loss_rate=rate, seed=self.seed,
                         schedule=self.schedule)


def _fault_sweep_plan(scale: Scale) -> RunPlan:
    opts = current_options("fault-sweep")
    procs = max(EXPERIMENTAL_PROCS)
    # One plan for the (workload x loss-rate) grid.  The rate-0 plan is
    # *disabled*, so its machine fingerprints — and cache entries —
    # coincide with the lossless TreadMarks runs of t1/t2/fig3-8: the
    # zero-overhead-when-disabled invariant, asserted by CI.
    plan = RunPlan()
    for workload in FAULT_SWEEP_WORKLOADS:
        app = make_app(workload, scale)
        base_index = plan.add(DecTreadMarksMachine(), app, 1)
        plan.layout[workload] = (base_index, [
            (rate, plan.add(DecTreadMarksMachine(faults=opts.plan(rate)),
                            app, procs))
            for rate in opts.loss_rates])
    return plan


def _fault_sweep_assemble(scale: Scale, plan: RunPlan,
                          results: Results) -> Report:
    opts = current_options("fault-sweep")
    procs = max(EXPERIMENTAL_PROCS)
    rows = []
    data: Dict[str, Dict] = {}
    for workload, (base_index, entries) in plan.layout.items():
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


_register(Experiment(
    "fault-sweep", "Speedup vs. network loss rate (TreadMarks)", "robustness",
    shape_note="Speedup decays monotonically as loss rises; retransmission "
               "and duplicate counters grow from zero; no run hangs.",
    paper_claim="(Repo robustness experiment — no paper counterpart.)  The "
                "paper's TreadMarks runs over UDP and supplies its own "
                "reliability (§2.2); this sweep injects deterministic "
                "message loss under the reliable-delivery layer and measures "
                "the speedup decay: monotone per program, steepest for the "
                "message-rate-bound programs.",
    plan=_fault_sweep_plan, assemble=_fault_sweep_assemble,
    deviation="At bench scale, in the TSP and M-Water rows, the speedup can "
              "tick *up* by 1-2% at the lowest loss rates before the decay "
              "takes over: TSP's branch-and-bound prunes differently when "
              "loss perturbs bound-propagation timing, and M-Water's "
              "lock-token migration order shifts.  The monotone decay the "
              "experiment claims is exact at test scale and holds at bench "
              "scale once recovery cost dominates (the largest rate is "
              "always the slowest).  SOR, with no data-dependent control "
              "flow, decays strictly at every scale."))


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


def _failure_sweep_plan(scale: Scale) -> RunPlan:
    """Phase 1, the clean cells.  These coincide (fingerprints and all)
    with fig9/fig10 points, so a warm cache serves them; their cycle
    counts deterministically place the crashes of phase 2."""
    opts = current_options("failure-sweep")
    procs = max(SIMULATED_PROCS[scale])
    plan = RunPlan()
    for mname in opts.machines:
        for workload in opts.workloads:
            app = make_app(workload, scale)
            machine = make_machine(mname)
            plan.layout[mname, workload] = (plan.add(machine, app, 1),
                                            plan.add(machine, app, procs))
    return plan


def _failure_sweep_assemble(scale: Scale, clean_plan: RunPlan,
                            clean_results: Results) -> Report:
    opts = current_options("failure-sweep")
    procs = max(SIMULATED_PROCS[scale])

    # Phase 2: the crashed cells.  Unless --crash pinned an explicit
    # schedule, the last DSM node crashes at each configured fraction
    # of the clean run — a pure function of phase 1, so the whole
    # sweep stays deterministic and cacheable.
    plan = RunPlan()
    for (mname, workload), (base_index, clean_index) in \
            clean_plan.layout.items():
        clean = clean_results[clean_index]
        spec = clean_plan.specs[clean_index]
        num_nodes = _sweep_num_nodes(mname, spec.machine, procs)
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
            plan.layout[mname, workload, tag] = (
                crashes, base_index, clean_index,
                plan.add(machine, spec.app, procs))
    results = execute_plan(plan)

    rows = []
    data: Dict[str, Dict] = {}
    for (mname, workload, tag), (crashes, base_index, clean_index,
                                 index) in plan.layout.items():
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


_register(Experiment(
    "failure-sweep", "Degraded completion under crash-stop node failures",
    "robustness",
    shape_note="Every crashed cell completes degraded on n-1 nodes with "
               "byte-identical summaries across serial/pool/warm-cache; "
               "detection latency is bounded by the keepalive backstop and "
               "recovery counters (pages rehomed/lost, locks regenerated, "
               "barrier reconfigs) come out non-zero.",
    paper_claim="(Repo robustness experiment — no paper counterpart.)  The "
                "paper's machines assume fail-free nodes; this sweep "
                "crash-stops a node mid-run under the software machines and "
                "measures degraded completion: every cell still finishes and "
                "verifies, detection latency is bounded by the keepalive "
                "backstop, and the recovery counters (pages re-homed/lost, "
                "lock tokens regenerated, barrier reconfigurations) account "
                "for the repair.  A barrier-structured program loses most of "
                "its speedup (every survivor stalls for the detection "
                "window) but every degraded cell still beats one processor.",
    plan=_failure_sweep_plan, assemble=_failure_sweep_assemble,
    deviation="Restated claim.  The bar was \"a degraded run retains at "
              "least 0.10 of its clean speedup\".  That holds at 16 "
              "processors (worst 0.257, `as/sor_sim`) but not at 64 (worst "
              "0.073, `hs/sor_sim`): SOR's survivors all stall at the next "
              "barrier for the whole detection window, which is long next "
              "to a clean 64-processor run.  `validate` gates the claim "
              "that is true at both: every degraded cell still beats one "
              "processor (minimum speedup 2.30 at bench scale, 1.26 at test "
              "scale)."))


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
        """Every (lock, barrier) policy of the swept grid."""
        return [SyncPolicy(lock=lk, barrier=bar)
                for lk in self.locks for bar in self.barriers]


def _sync_sweep_plan(scale: Scale) -> RunPlan:
    opts = current_options("sync-sweep")
    procs = tuple(SIMULATED_PROCS[scale])
    # One plan for the whole (machine x workload x policy) grid.  The
    # 1-processor baselines dedup across policies: a software machine's
    # uniprocessor fingerprint hides everything non-local, including
    # the sync policy, so each (machine, workload) baseline runs once.
    plan = RunPlan()
    for mname in opts.machines:
        for workload in opts.workloads:
            app = make_app(workload, scale)
            for policy in opts.policies():
                plan.curve((mname, workload, policy.label()),
                           make_machine(mname, sync=policy), app,
                           (1,) + procs)
    return plan


def _sync_sweep_assemble(scale: Scale, plan: RunPlan,
                         results: Results) -> Report:
    top = max(SIMULATED_PROCS[scale])
    rows = []
    data: Dict[str, Dict] = {}
    for (mname, workload, label), series in plan.series(results).items():
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


_register(Experiment(
    "sync-sweep", "Speedup across the lock x barrier design space",
    "DESIGN.md §sync",
    shape_note="Tree/combining barriers lift the software machines at high "
               "processor counts (the centralized manager's O(n) handler "
               "serialization is the bottleneck they remove); lock choice "
               "barely moves DSM apps.  AH moves less across policies than "
               "the best software gain.",
    paper_claim="(Repo design-space experiment — extends §3's comparison.)  "
                "The paper attributes the software machines' synchronization "
                "gap to message handling on the critical path (§3.3.4); this "
                "sweep makes the synchronization algorithm a free variable "
                "(token/mcs/ticket/combining locks x central/tree/combining "
                "barriers) and measures how far the best policy moves AS and "
                "HS toward AH's default.  Expected: distributing the barrier "
                "(tree, or combining in the switch) lifts the barrier-bound "
                "programs on AS; lock choice barely matters on a DSM, where "
                "lock transfer cost is dominated by the consistency data it "
                "drags along; AH moves less than the best software gain — "
                "hardware synchronization was never the bottleneck.",
    plan=_sync_sweep_plan, assemble=_sync_sweep_assemble,
    deviation="Restated claim (AH flatness).  The bar was \"AH's best/worst "
              "policy spread is at most x1.05\".  That holds at 16 "
              "processors (x1.019, test scale) but not at 64 (x1.132, bench "
              "scale), where the ticket lock's release notification costs "
              "AH M-Water about 10%.  `validate` gates the claim that is "
              "true at both: AH's spread stays below the best "
              "software-machine gain (x1.132 < x1.175 at bench scale, "
              "x1.019 < x1.052 at test)."))


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
        """The small-loss plan the backoff cells run under."""
        return FaultPlan(loss_rate=self.loss_rate, seed=self.fault_seed)

    def specs(self, grid: str) -> List[Tuple[str, AblationSpec]]:
        """(mechanism, spec) cells of one grid, in mechanism order."""
        if grid == "loo":
            return [(m, AblationSpec.without(m)) for m in self.mechanisms]
        return [(m, AblationSpec.only(m)) for m in self.mechanisms]


def _ablation_sweep_plan(scale: Scale) -> RunPlan:
    opts = current_options("ablation-sweep")
    top = max(SIMULATED_PROCS[scale])
    # One plan for the whole grid.  Each (machine, workload) gets a
    # full-protocol baseline; each swept mechanism gets one ablated
    # cell per grid against that baseline.  Backoff cells (loo grid)
    # pair a lossy ablated run with a lossy full-protocol baseline.
    plan = RunPlan()
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
                    plan.layout[mname, workload, grid, mech] = (
                        spec, base_index, index)
    return plan


def _ablation_sweep_assemble(scale: Scale, plan: RunPlan,
                             results: Results) -> Report:
    opts = current_options("ablation-sweep")
    top = max(SIMULATED_PROCS[scale])
    rows = []
    cells: Dict[str, Dict] = {}
    #: mechanism -> list of (score, cell key, deltas) over loo cells.
    loo_scores: Dict[str, List[Tuple[float, str, Dict[str, float]]]] = {}
    for (mname, workload, grid, mech), (spec, base_index, index) in \
            plan.layout.items():
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


_register(Experiment(
    "ablation-sweep", "Per-mechanism importance over the DSM protocol",
    "DESIGN.md §8",
    shape_note="Lazy diff fetching dominates on barrier-heavy SOR (eager "
               "fetching refetches every invalidated page per sync); "
               "diffs/twins matter most where pages are sparsely written "
               "(Water); piggybacking saves a message per sync pair; backoff "
               "only separates under loss.",
    paper_claim="(Repo design-space experiment — extends §2.4's protocol "
                "description.)  The paper stacks seven separable DSM "
                "mechanisms (twins, RLE diffs, lazy diff fetch, lazy "
                "release, write-notice piggybacking, diff merging, "
                "exponential retransmission backoff) but never isolates "
                "their contributions; this sweep switches each one off "
                "(leave-one-out) on AS and HS and ranks them by importance — "
                "the mean relative change over seconds, messages, bytes, and "
                "diff bytes, peaked across (machine, workload) cells.  "
                "Expected: diffs dominate (whole-page transfer multiplies "
                "M-Water's bytes), lazy fetch next (eager fetch floods pages "
                "the node never reads), every mechanism nonzero somewhere; "
                "backoff registers only under injected loss, so its cell "
                "pairs a lossy ablated run with a lossy full-protocol "
                "baseline.",
    plan=_ablation_sweep_plan, assemble=_ablation_sweep_assemble))


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
    """Run one experiment by id at the given scale: build its plan,
    execute it once, assemble the report from the results."""
    exp = get_experiment(exp_id)
    plan = exp.plan(scale)
    return exp.assemble(scale, plan, execute_plan(plan))


def list_experiments() -> List[Experiment]:
    """Every registry entry, in registration (paper) order."""
    return list(REGISTRY.values())
