"""Executable shape checks: the paper's qualitative claims as code.

``repro-harness validate`` runs a set of experiments and evaluates the
claims the paper makes about them — "TreadMarks beats the SGI on large
SOR", "HS sends a small fraction of AS's messages", and so on — and
prints PASS/FAIL per claim.  This turns the reproduction's definition
of success (each registry entry's shape note) into something a CI job can
assert, and it is the one place a claim about simulated numbers is
stated: the repo's own sync / recovery / ablation sweeps are gated
here too, beside the paper's claims.

Each check declares which experiment it consumes; experiments are run
once and shared between checks.  Every check is calibrated at bench
scale — the scale the CI gate runs — and a claim that does not hold
there is restated in its experiment's ``deviation`` note (printed inline
in EXPERIMENTS.md), not given a per-scale threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.harness.experiments import Report, Scale, run_experiment


@dataclass(frozen=True)
class ShapeCheck:
    """One verifiable claim about one experiment's report data."""

    name: str
    exp_id: str
    claim: str
    predicate: Callable[[Report], bool]

    def evaluate(self, report: Report) -> bool:
        """Whether the claim holds on ``report``."""
        return bool(self.predicate(report))


def _top(speedups: Dict[int, float]) -> float:
    return speedups[max(speedups)]


def _speedup(report: Report, machine: str) -> float:
    return _top(report.data["speedups"][machine])


CHECKS: List[ShapeCheck] = [
    ShapeCheck(
        "t1-dsm-overhead-nil", "t1",
        "TreadMarks adds ~nothing to single-processor times",
        lambda r: all(abs(v["treadmarks"] - v["dec"]) <= 0.02 * v["dec"]
                      for v in r.data.values())),
    ShapeCheck(
        "t1-sgi-slower-on-big-sor", "t1",
        "The SGI is >10% slower than the DEC when SOR exceeds its L2",
        lambda r: r.data["sor_large"]["sgi"] >
        1.1 * r.data["sor_large"]["dec"]),
    ShapeCheck(
        "t2-water-syncs-most", "t2",
        "Water has the highest remote-lock rate of the suite",
        lambda r: r.data["water"]["remote_locks_per_sec"] >=
        max(v["remote_locks_per_sec"] for k, v in r.data.items()
            if k != "water")),
    ShapeCheck(
        "t2-bad-beats-clp", "t2",
        "ILINK-BAD out-messages and out-barriers ILINK-CLP",
        lambda r: (r.data["ilink_bad"]["barriers_per_sec"] >
                   r.data["ilink_clp"]["barriers_per_sec"] and
                   r.data["ilink_bad"]["messages_per_sec"] >
                   r.data["ilink_clp"]["messages_per_sec"])),
    ShapeCheck(
        "fig3-treadmarks-wins-large-sor", "fig3",
        "Large SOR: better speedup on TreadMarks than on the SGI",
        lambda r: _speedup(r, "treadmarks") > _speedup(r, "sgi")),
    ShapeCheck(
        "fig5-sgi-leads-tsp", "fig5",
        "TSP: the SGI's fresher bound gives it the better speedup",
        lambda r: _speedup(r, "sgi") > _speedup(r, "treadmarks")),
    ShapeCheck(
        "fig7-water-no-speedup-on-dsm", "fig7",
        "Water: TreadMarks gets essentially no speedup; the SGI scales",
        lambda r: (_speedup(r, "treadmarks") < 1.0 and
                   _speedup(r, "sgi") > 3.0)),
    ShapeCheck(
        "fig8-mwater-recovers", "fig8",
        "M-Water: TreadMarks recovers real speedup vs Water",
        lambda r: _speedup(r, "treadmarks") > 1.5),
    ShapeCheck(
        "fig9-as-scales-worst-for-sor", "fig9",
        "Simulated SOR: AH and HS clearly above AS at the largest size",
        lambda r: min(_speedup(r, "ah"), _speedup(r, "hs8")) >
        1.5 * _speedup(r, "as")),
    ShapeCheck(
        "fig10-ordering", "fig10",
        "Simulated TSP: AH >= HS >= AS at the largest size",
        lambda r: _speedup(r, "ah") >= _speedup(r, "hs8") >=
        0.9 * _speedup(r, "as")),
    ShapeCheck(
        "fig11-ah-keeps-improving", "fig11",
        "Simulated M-Water: AH improves to the largest machine; "
        "AS peaks early; HS stays between AS and AH beyond one node",
        lambda r: (_speedup(r, "ah") ==
                   max(r.data["speedups"]["ah"].values()) and
                   max(r.data["speedups"]["as"],
                       key=r.data["speedups"]["as"].get) <= 16 and
                   _speedup(r, "as") <= _speedup(r, "hs8") <=
                   _speedup(r, "ah"))),
    ShapeCheck(
        "fig12-hs-message-reduction", "fig12",
        "HS sends a small fraction of AS's messages (SOR ~1/9)",
        lambda r: (r.data["sor_sim"]["hs_miss"] +
                   r.data["sor_sim"]["hs_sync"]) <
        0.25 * (r.data["sor_sim"]["as_miss"] +
                r.data["sor_sim"]["as_sync"])),
    ShapeCheck(
        "fig13-hs-data-reduction", "fig13",
        "HS moves a small fraction of AS's data for every workload",
        lambda r: all(sum(v["hs"].values()) < 0.5 * sum(v["as"].values())
                      for v in r.data.values())),
    ShapeCheck(
        "fig14-fixed-cost-dominates-sor", "fig14",
        "SOR/AS: cutting the fixed cost helps; cutting per-word adds "
        "almost nothing",
        lambda r: _fixed_dominates(r)),
    ShapeCheck(
        "x1-eager-recovers-tsp", "x1",
        "Eager release moves TSP's speedup toward the SGI's",
        lambda r: (r.data["treadmarks"]["speedup"] <
                   r.data["treadmarks-eager"]["speedup"] <=
                   1.15 * r.data["sgi"]["speedup"])),
    ShapeCheck(
        "x2-kernel-helps-mwater-most", "x2",
        "Kernel-level TreadMarks helps M-Water far more than ILINK",
        lambda r: (r.data["mwater"]["kernel"] / r.data["mwater"]["user"] >
                   r.data["ilink_clp"]["kernel"] /
                   r.data["ilink_clp"]["user"])),
    ShapeCheck(
        "x4-kernel-halves-sync-costs", "x4",
        "Kernel-level TreadMarks roughly halves lock and barrier times",
        lambda r: (0.3 < r.data["kernel-level"]["lock_ms"] /
                   r.data["user-level"]["lock_ms"] < 0.7 and
                   0.3 < r.data["kernel-level"]["barrier_ms"] /
                   r.data["user-level"]["barrier_ms"] < 0.7)),
    ShapeCheck(
        "x4-sync-magnitudes", "x4",
        "User-level remote lock is sub-millisecond; an 8-processor "
        "barrier is a couple of milliseconds",
        lambda r: (0.3 < r.data["user-level"]["lock_ms"] < 1.5 and
                   1.0 < r.data["user-level"]["barrier_ms"] < 4.0)),
    ShapeCheck(
        "x3-treadmarks-wins-even-alldirty", "x3",
        "SOR still favours TreadMarks when every point changes",
        lambda r: r.data["sor_alldirty"]["tm"] >
        r.data["sor_alldirty"]["sgi"]),
    ShapeCheck(
        "a1-diffs-cut-data", "a1",
        "Whole-page transfer moves at least 2x the diffed data",
        lambda r: all(
            r.data[f"{wl}|diffs=False"]["bytes"] >
            2 * r.data[f"{wl}|diffs=True"]["bytes"]
            for wl in ("sor_small", "mwater"))),
    ShapeCheck(
        "a2-eager-tradeoff", "a2",
        "Eager release helps TSP but sends more M-Water messages",
        lambda r: (r.data["tsp19"]["eager"] > r.data["tsp19"]["lazy"] and
                   r.data["mwater"]["eager_msgs"] >
                   r.data["mwater"]["lazy_msgs"])),
    ShapeCheck(
        "sync-best-policy-lifts-software", "sync-sweep",
        "Some lock x barrier policy beats token+central by >2% on a "
        "software machine",
        lambda r: _best_software_gain(r) > 1.02),
    ShapeCheck(
        "sync-ah-flatter-than-software", "sync-sweep",
        "AH's best/worst policy spread stays below the best software "
        "gain: hardware sync was never the bottleneck",
        lambda r: _ah_policy_spread(r) < _best_software_gain(r)),
    ShapeCheck(
        "failure-every-crash-completes", "failure-sweep",
        "Every crashed cell declares its failure and completes degraded",
        lambda r: _every_crash_cell(
            r, lambda cell: cell["degraded"].get("failed_nodes"))),
    ShapeCheck(
        "failure-detection-bounded", "failure-sweep",
        "Every crash is detected after it happens and within the "
        "keepalive backstop (detect_cycles + 1000 cycles of event slack)",
        lambda r: _every_crash_cell(r, _detected_in_time)),
    ShapeCheck(
        "failure-degraded-beats-one-proc", "failure-sweep",
        "Every degraded cell still beats one processor",
        lambda r: _every_crash_cell(r, lambda cell: cell["speedup"] > 1.0)),
    ShapeCheck(
        "ablation-diffs-cut-mwater-bytes", "ablation-sweep",
        "Without diffs M-Water moves >1.3x the bytes on some software "
        "machine",
        lambda r: max(
            cell["loo"]["diffs"]["ablated"]["bytes"] /
            cell["loo"]["diffs"]["full"]["bytes"]
            for key, cell in r.data["cells"].items()
            if key.endswith("/mwater")) > 1.3),
    ShapeCheck(
        "ablation-no-dead-mechanism", "ablation-sweep",
        "Every swept mechanism scores nonzero leave-one-out importance "
        "on some cell",
        lambda r: (all(e["score"] > 0 for e in r.data["ranking"]) and
                   {e["mechanism"] for e in r.data["ranking"]} ==
                   set(r.data["mechanisms"]))),
]


def _fixed_dominates(report: Report) -> bool:
    series = report.data["speedups"]
    by_label = {label: _top(points) for label, points in series.items()}
    base = by_label["fixed=2000,word=4"]
    low_fixed = by_label["fixed=100,word=4"]
    low_both = by_label["fixed=100,word=1"]
    fixed_gain = low_fixed - base
    word_gain = low_both - low_fixed
    return fixed_gain > 0 and word_gain < 0.5 * max(fixed_gain, 1e-9)


def _best_software_gain(report: Report) -> float:
    """Best policy speedup over token+central, across AS/HS cells."""
    return max(s["gain"] for s in report.data["summary"].values())


def _ah_policy_spread(report: Report) -> float:
    """Worst best/worst policy speedup ratio on AH at the top size."""
    top = str(report.data["top_procs"])
    per_workload = [[c["speedups"][top] for c in machines["ah"].values()]
                    for machines in report.data["cells"].values()]
    return max(max(s) / min(s) for s in per_workload)


def _every_crash_cell(report: Report,
                      holds: Callable[[dict], bool]) -> bool:
    """``holds(cell)`` on every failure-sweep cell; no cells is a FAIL."""
    cells = [cell for machines in report.data.values()
             for tags in machines.values() for cell in tags.values()]
    return bool(cells) and all(holds(cell) for cell in cells)


def _detected_in_time(cell: dict) -> bool:
    """A cell that never declared its crash has no latency: a FAIL."""
    degraded = cell["degraded"]
    latencies = [detected - crashed for detected, crashed in
                 zip(degraded.get("detected_at", ()),
                     degraded.get("crashed_at", ()))]
    return bool(latencies) and all(
        0 < latency <= cell["detect_cycles"] + 1000
        for latency in latencies)


def run_validation(scale: Scale = Scale.BENCH,
                   checks: List[ShapeCheck] = None) -> List[tuple]:
    """Run the checks; returns ``[(check, passed), ...]``."""
    checks = checks if checks is not None else CHECKS
    reports: Dict[str, Report] = {}
    results = []
    for check in checks:
        if check.exp_id not in reports:
            reports[check.exp_id] = run_experiment(check.exp_id, scale)
        results.append((check, check.evaluate(reports[check.exp_id])))
    return results


def format_results(results: List[tuple],
                   scale: Scale = Scale.BENCH) -> List[str]:
    """One line per claim; a FAIL adds the command that shows its table."""
    lines = []
    passed = 0
    for check, ok in results:
        status = "PASS" if ok else "FAIL"
        passed += ok
        lines.append(f"[{status}] {check.name:<34} ({check.exp_id}) "
                     f"{check.claim}")
        if not ok:
            lines.append(f"       reproduce: repro-harness run "
                         f"{check.exp_id} --scale {scale.value}")
    lines.append(f"{passed}/{len(results)} shape claims hold")
    return lines
