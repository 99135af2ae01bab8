"""The experiment registry: every table, figure, and ablation.

Each entry regenerates one artifact of the paper's evaluation and is
the one declaration of it: the title, the paper's claim, the shape
the reproduction must show, any known deviation, the run plan
(``plan(scale) -> RunPlan``) and the assembly of that plan's results
into a :class:`Report` (``assemble(scale, plan, results)``).  An entry
whose runs are (machines x workloads) x one machine variant declares
them as a :class:`VariantGrid` instead, and its plan and assembly
follow from the grid.  EXPERIMENTS.md and ``repro-harness list`` are
generated from the registry.  The ids are ``t1``/``t2`` (tables),
``fig1`` .. ``fig16`` (figures), ``x1`` .. ``x4`` (in-text
experiments), ``a1`` .. ``a3`` (ablations of design choices the paper
calls out) and, registered after them by
:mod:`repro.harness.sweeps`, four robustness and design-space sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import (Any, Callable, Dict, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple, Union)

from repro.ablate import AblationSpec
from repro.apps import BarrierOnlyApp, LockPingApp
from repro.errors import ConfigurationError
from repro.harness import fmt
from repro.harness.parallel import RunPlan, RunSpec, execute_plan
from repro.harness.workloads import (EXPERIMENTAL_PROCS, SIMULATED_PROCS,
                                     Scale, make_app)
from repro.machines import (AllHardwareMachine, AllSoftwareMachine,
                            DecTreadMarksMachine, HybridMachine, SgiMachine,
                            make_machine)
from repro.machines.base import Machine
from repro.net.overhead import OVERHEAD_SWEEP, OverheadPreset
from repro.stats.result import RunResult


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


class Axis(NamedTuple):
    """One machine variant axis, as a :class:`VariantGrid` sweeps it.

    ``parse`` reads a value label (a bad one raises ConfigurationError
    or ValueError), ``label`` writes a parsed value's stable label
    back, and ``settings`` turns a parsed value into ``make_machine``
    keyword arguments.
    """

    parse: Callable[[str], Any]
    label: Callable[[Any], str]
    settings: Callable[[Any], Dict[str, Any]]


@dataclass(frozen=True)
class VariantGrid:
    """(machines x workloads) x the ``values`` of one variant ``axis``.

    With a ``baseline`` value, each (machine, workload, value) cell is
    one run at the largest count of ``procs``, paired with a baseline
    run at ``base_procs`` (``None``: the cell's own count).  A cell's
    baseline machine is its own with the baseline value's settings
    laid over it, so a cell that runs lossy keeps a lossy baseline.  A
    cell that is the same run as one already planned for its
    (machine, workload) reuses it.  Without a baseline, each value
    runs a speedup curve: its 1-processor base, then 1 and every count
    of ``procs``.  ``procs`` is a tuple, or a mapping from scale to
    one.  ``report(grid, scale, plan, results)`` writes the
    experiment's :class:`Report`.
    """

    machines: Tuple[str, ...]
    workloads: Tuple[str, ...]
    procs: Union[Tuple[int, ...], Mapping[Scale, Tuple[int, ...]]]
    values: Tuple[str, ...]
    axis: Axis
    report: Callable[..., Report]
    baseline: Optional[str] = None
    base_procs: Optional[int] = None

    def counts(self, scale: Scale) -> Tuple[int, ...]:
        """The processor counts of ``procs`` at ``scale``."""
        procs = self.procs
        return tuple(procs[scale] if isinstance(procs, Mapping) else procs)

    def machine(self, name: str, *values: str) -> Machine:
        """Machine ``name`` with the settings of ``values`` laid over
        one another in order."""
        settings: Dict[str, Any] = {}
        for value in values:
            settings.update(self.axis.settings(self.axis.parse(value)))
        return make_machine(name, **settings)

    def plan(self, scale: Scale) -> RunPlan:
        """Every run of the grid, machine-major, then workload, then
        value; the layout files each cell under (machine, workload,
        value)."""
        plan = RunPlan()
        counts = self.counts(scale)
        for name in self.machines:
            for workload in self.workloads:
                app = make_app(workload, scale)
                if self.baseline is None:
                    for value in self.values:
                        plan.curve((name, workload, value),
                                   self.machine(name, value), app,
                                   (1,) + counts)
                    continue
                planned: Dict[str, int] = {}

                def add(machine: Machine, nprocs: int) -> int:
                    key = RunSpec(machine, app, nprocs).key()
                    if key not in planned:
                        planned[key] = plan.add(machine, app, nprocs)
                    return planned[key]

                top = max(counts)
                bases = [add(self.machine(name, value, self.baseline),
                             self.base_procs or top)
                         for value in self.values]
                for value, base in zip(self.values, bases):
                    plan.layout[name, workload, value] = (
                        base, add(self.machine(name, value), top))
        return plan

    def cells(self, plan: RunPlan, results: Results) -> Dict[Tuple, Tuple]:
        """``{(machine, workload, value): (base, result)}`` in plan
        order; a curve grid's result is the value's speedup series."""
        if self.baseline is None:
            return {key: (results[plan.layout[key][0]], series)
                    for key, series in plan.series(results).items()}
        return {key: (results[base], results[index])
                for key, (base, index) in plan.layout.items()}

    def assemble(self, scale: Scale, plan: RunPlan,
                 results: Results) -> Report:
        """The experiment's report on this grid's results."""
        return self.report(self, scale, plan, results)

    def over(self, **axes: Sequence[str]) -> "VariantGrid":
        """This grid with some of its machines, workloads and values
        replaced (the CLI's ``--axis``), the values under their stable
        labels.  Building the new grid's test-scale plan checks every
        name and value here, before anything runs."""
        for name, given in axes.items():
            if name not in ("machines", "workloads", "values") or not given:
                raise ConfigurationError(
                    f"bad axis {name}={','.join(given)}: name machines, "
                    f"workloads or values, with at least one value")
        try:
            if "values" in axes:
                axes["values"] = [self.axis.label(self.axis.parse(value))
                                  for value in axes["values"]]
            grid = replace(self, **{name: tuple(given)
                                    for name, given in axes.items()})
            grid.plan(Scale.TEST)
        except ValueError as exc:
            raise ConfigurationError(f"bad axis value: {exc}") from None
        return grid


@dataclass(frozen=True)
class Experiment:
    """One registry entry: everything the repo says about one artifact.

    ``plan`` declares every run the artifact needs at a scale;
    ``assemble`` turns that plan's results into the :class:`Report`,
    finding which result is which in ``plan.layout``.  An entry
    declared by a ``grid`` takes both from it.  ``paper_claim`` is
    what the paper reports, ``shape_note`` the shape the reproduction
    must show, and ``deviation`` (empty when there is none) says where
    and why the measured shape departs from the paper's.
    """

    exp_id: str
    title: str
    paper_ref: str
    shape_note: str
    paper_claim: str
    plan: Callable[[Scale], RunPlan] = None
    assemble: Callable[[Scale, RunPlan, Results], Report] = None
    deviation: str = ""
    grid: Optional[VariantGrid] = None

    def __post_init__(self) -> None:
        if self.grid is not None:
            object.__setattr__(self, "plan", self.grid.plan)
            object.__setattr__(self, "assemble", self.grid.assemble)

    def over(self, **axes: Sequence[str]) -> "Experiment":
        """This experiment on its grid with ``axes`` replaced (see
        :meth:`VariantGrid.over`)."""
        if self.grid is None:
            raise ConfigurationError(f"'{self.exp_id}' has no variant grid")
        return replace(self, grid=self.grid.over(**axes))

    def run(self, scale: Scale) -> Report:
        """Build the plan, execute it once, assemble the report."""
        plan = self.plan(scale)
        return self.assemble(scale, plan, execute_plan(plan))


REGISTRY: Dict[str, Experiment] = {}


def register(exp: Experiment) -> None:
    """Add ``exp`` to the registry, after every entry already there."""
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


register(Experiment(
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

register(Experiment(
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
    register(Experiment(
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
     "Our scaled instances (12 cities at bench scale and 13 at paper "
     "scale, standing in for 19) leave too little work per processor at "
     "64 CPUs, so the HS/AS curves are noisier and flatter than the "
     "paper's; the ordering AH ≥ HS ≥ AS still holds.  "
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
    register(Experiment(
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


register(Experiment(
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

register(Experiment(
    "fig13", "Total data, HS vs AS", "Figure 13",
    shape_note="HS moves ~1/4 .. 1/8 of AS's data; diff coalescing cuts miss "
               "data, notice batching cuts consistency data.",
    paper_claim="HS moves roughly 1/4 (TSP) to 1/8 of AS's data; per-node "
                "diff coalescing drives the reduction.",
    plan=_traffic_plan, assemble=_fig13_assemble))


# ======================================================================
# Figures 14-16: software-overhead sweeps
# ======================================================================
#: An overhead preset, by its ``OverheadPreset`` value.
OVERHEAD = Axis(OverheadPreset, lambda preset: preset.value,
                lambda preset: {"params": {"overhead_preset": preset}})


def _overhead_report(exp_id: str, grid: VariantGrid, scale: Scale,
                     plan: RunPlan, results: Results) -> Report:
    speedups = {}
    for (name, workload, value), (_base, series) in \
            grid.cells(plan, results).items():
        ov = OverheadPreset(value).build()
        label = f"fixed={ov.fixed_send_cycles},word={ov.per_word_cycles}"
        if len(grid.machines) * len(grid.workloads) > 1:
            label = f"{name}/{workload} {label}"
        speedups[label] = series.speedups()
    return Report(exp_id, f"{'/'.join(grid.workloads)} on "
                          f"{'/'.join(grid.machines).upper()}, "
                          f"software-overhead sweep",
                  fmt.format_speedups(speedups, grid.counts(scale)),
                  {"speedups": speedups})


#: (id, title, machine, workload, paper ref, shape note, paper claim,
#: known deviation).
_OVERHEAD_FIGURES = [
    ("fig14", "Overhead sweep: AS, SOR", "as", "sor_sim", "Figure 14",
     "Fixed per-message cost dominates SOR on AS; reducing it brings AS "
     "near AH/HS.",
     "SOR on AS: reducing the fixed per-message cost has the largest "
     "effect; speedup approaches the other architectures.", ""),
    ("fig15", "Overhead sweep: AS, M-Water", "as", "mwater", "Figure 15",
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
    ("fig16", "Overhead sweep: HS, M-Water", "hs", "mwater", "Figure 16",
     "On HS the fixed cost matters more than per-word (diff coalescing "
     "already cut the data volume).",
     "M-Water on HS: the fixed cost matters more than for AS (HS already "
     "cut data volume more than message count).", ""),
]

for (_fid, _title, _machine, _wl, _ref, _note, _claim,
     _deviation) in _OVERHEAD_FIGURES:
    # One curve per preset; the AS presets differ only in messaging
    # overheads, so their shared 1-processor baseline runs once.
    register(Experiment(
        _fid, _title, _ref, _note, _claim, deviation=_deviation,
        grid=VariantGrid((_machine,), (_wl,), SIMULATED_PROCS,
                         tuple(preset.value for preset in OVERHEAD_SWEEP),
                         OVERHEAD, partial(_overhead_report, _fid))))


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


register(Experiment(
    "x1", "TSP with eager lock release", "§2.4.3",
    shape_note="Eager release propagates the bound at release time and "
               "recovers most of the SGI gap.",
    paper_claim="Replacing the bound lock's lazy release with an eager "
                "release improves TSP's 8-processor speedup most of the way "
                "to the SGI's.",
    plan=_x1_plan, assemble=_x1_assemble))

register(Experiment(
    "x2", "Kernel-level TreadMarks", "§2.4.4",
    shape_note="Kernel-level messaging sharply improves M-Water; barrier "
               "apps (ILINK, SOR) barely change.",
    paper_claim="Kernel-level TreadMarks halves lock/barrier times; ILINK, "
                "SOR and TSP barely change, M-Water improves sharply.",
    plan=_x2_plan, assemble=_x2_assemble))

register(Experiment(
    "x3", "SOR with every point changing", "§2.3/§2.4.2",
    shape_note="Equalizing data movement: TreadMarks moves far more data "
               "than with the zero interior, but still beats the SGI.",
    paper_claim="Initializing SOR so every point changes equalizes data "
                "movement; TreadMarks still achieves the better speedup.",
    plan=_x3_plan, assemble=_x3_assemble))

register(Experiment(
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


register(Experiment(
    "a1", "Diffs vs whole-page transfer", "DESIGN.md §2",
    shape_note="Whole-page transfers multiply data movement for "
               "fine-grain-write applications.",
    paper_claim="(Repo ablation — no paper counterpart.) Diffs vs whole-page "
                "transfer on the fault path.",
    plan=_a1_plan, assemble=_a1_assemble))

register(Experiment(
    "a2", "Lazy vs eager release across applications", "DESIGN.md §2",
    shape_note="Eager release helps the unsynchronized-read pattern (TSP) "
               "and hurts high-lock-rate applications (more messages).",
    paper_claim="(Repo ablation.) Lazy vs eager release across programs: "
                "eager trades extra messages for freshness.",
    plan=_a2_plan, assemble=_a2_assemble))

register(Experiment(
    "a3", "HS node-size sweep", "DESIGN.md §2",
    shape_note="Larger nodes cut messages; returns diminish once the node "
               "bus and the per-node DSM serialize.",
    paper_claim="(Repo ablation.) HS node-size sweep: bigger nodes cut "
                "messages with diminishing returns.",
    plan=_a3_plan, assemble=_a3_assemble))


def run_experiment(exp_id: str, scale: Scale = Scale.BENCH,
                   **axes: Sequence[str]) -> Report:
    """Run one experiment by id at the given scale, on its grid with
    ``axes`` replaced when any are given."""
    exp = get_experiment(exp_id)
    return (exp.over(**axes) if axes else exp).run(scale)


def list_experiments() -> List[Experiment]:
    """Every registry entry, in registration (paper) order."""
    return list(REGISTRY.values())
