"""The repo's one benchmark: five workloads, end-to-end and per-layer.

    python benchmarks/e2e/run.py [--seed 42] [--workload NAME] [--quick]
                                 [--out PATH] [--record]
    python benchmarks/e2e/run.py --compare A.json B.json
    python benchmarks/e2e/run.py --update-expected

runs the workloads one after another, each in a fresh child interpreter
(child.py), prints every metric by name with its unit, writes one JSON
report and exits non-zero if any output was wrong.  README.md says what
is measured and why.

The benchmark driver's form,

    ... --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of stdout, one JSON
object with the end-to-end metrics (``--trace 0``: timed passes only)
or the per-layer metrics (``--trace 1``: traced pass and
microbenchmarks) that BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
EXPECTED = os.path.join(HERE, "expected.json")

#: Same names as ``baskets.WORKLOADS``, repeated because this process
#: never imports the simulator.
WORKLOADS = ("tsp_compute", "dsm_locks", "dsm_barriers", "hw_coherence",
             "figure_sweep")

#: Set-ups clocked per run; ``setup_s`` is the fastest.  Each is a whole
#: child (interpreter start, imports, build, warm-up pass).
SETUP_REPEATS = 3

#: The harness default; the seed ``expected.json`` is pinned at.
DEFAULT_SEED = 42

#: Ambient knobs that would change what the children simulate or print.
SCRUBBED_ENV = ("REPRO_CHECK", "REPRO_PROGRESS")

Metric = Dict[str, Any]


# ----------------------------------------------------------------------
# running one workload
# ----------------------------------------------------------------------
def run_child(workload: str, phases: str, args: argparse.Namespace,
              scratch: str) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Run one child to completion.

    Returns ``(set-up seconds, result message)``; the result is None
    for a set-up-only child.  Raises ``RuntimeError`` if the child
    fails.
    """
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--phases", phases,
               "--scratch", scratch]
    if args.quick:
        command.append("--quick")
    # figure_sweep's simulations always run at the harness seed, so its
    # pins hold at any --seed; a basket's only at the seed they were
    # taken at.
    if args.expected and (workload == "figure_sweep" or
                          args.seed == DEFAULT_SEED):
        command += ["--expected", args.expected]
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    setup_s = result = None
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          env=env, cwd=ROOT) as proc:
        for line in proc.stdout:
            if not line.startswith('{"event"'):
                continue
            message = json.loads(line)
            if message["event"] == "ready":
                setup_s = time.perf_counter() - start
            elif message["event"] == "result":
                result = message
    if proc.returncode != 0 or setup_s is None or \
            (result is None and phases != "setup"):
        raise RuntimeError(f"{workload}: child ({phases}) exited with "
                           f"code {proc.returncode} and no result")
    return setup_s, result


def summarize(value: float, samples: Sequence[float], unit: str) -> Metric:
    """One metric: its value, and the median, quartiles and count of
    the samples it was taken from."""
    median = statistics.median(samples)
    if len(samples) >= 2:
        q1, _q2, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = median
    return {"value": value, "unit": unit, "median": median, "q1": q1,
            "q3": q3, "n": len(samples), "samples": list(samples)}


def run_workload(workload: str, phases: str, args: argparse.Namespace,
                 scratch: str) -> Dict[str, Any]:
    """All children of one workload -> its entry in the report."""
    first_setup, result = run_child(workload, phases, args, scratch)
    setups = [first_setup]
    if phases != "traced" and not args.quick:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(run_child(workload, "setup", args, scratch)[0])

    walls = result["walls"]
    work = result["work"]
    entry: Dict[str, Any] = {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_share": result["failed"] / result["attempted"],
        "errors": result["errors"],
        "digests": result["digests"],
        "passes": len(walls["wall_s"]["passes"]),
        "jobs": result["jobs"],
        "work": work,
    }
    if phases != "traced":
        events = work.get("sim.events", 0)

        def wall(metric: str) -> Metric:
            # Nothing is cached or pooled on a simulation workload, so a
            # warm or pooled rerun of it costs the plain pass wall; the
            # driver wants every gated metric from every workload.
            one = walls.get(metric, walls["wall_s"])
            return summarize(one["fastest"], one["passes"], "s")

        cold = walls["wall_s"]
        entry["end_to_end"] = {
            "wall_s": wall("wall_s"),
            "events_per_s": summarize(events / cold["fastest"],
                                      [events / w for w in cold["passes"]],
                                      "1/s"),
            "warm_wall_s": wall("warm_wall_s"),
            "pooled_wall_s": wall("pooled_wall_s"),
            "peak_rss_mb": summarize(result["peak_rss_mb"],
                                     [result["peak_rss_mb"]], "MiB"),
            "setup_s": summarize(min(setups), setups, "s"),
        }
    if phases != "timed":
        entry["per_layer"] = result["per_layer"]
        entry["traced_wall_s"] = result["traced_wall_s"]
    return entry


def run_all(workloads: Sequence[str], phases: str,
            args: argparse.Namespace) -> Dict[str, Any]:
    """Run ``workloads`` one after another -> the report."""
    os.makedirs(os.path.join(HERE, ".scratch"), exist_ok=True)
    scratch = tempfile.mkdtemp(dir=os.path.join(HERE, ".scratch"))
    start = time.perf_counter()
    report: Dict[str, Any] = {
        "seed": args.seed, "quick": args.quick, "seconds": args.seconds,
        "phases": phases, "nproc": os.cpu_count(), "workloads": {},
    }
    try:
        for workload in workloads:
            report["workloads"][workload] = run_workload(
                workload, phases, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report["jobs"] = max(e["jobs"] for e in report["workloads"].values())
    report["total_wall_s"] = time.perf_counter() - start
    return report


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def print_report(report: Dict[str, Any]) -> None:
    """Every metric by name, with its unit."""
    for workload, entry in report["workloads"].items():
        print(f"== {workload}: {entry['passes']} timed passes, "
              f"{entry['attempted']} operations, {entry['failed']} failed "
              f"(fail_share {entry['fail_share']:.4f} ratio)")
        for error in entry["errors"]:
            print(f"   ! {error}")
        for name, m in entry.get("end_to_end", {}).items():
            print(f"   {name:<34} {m['value']:>14.6g} {m['unit']:<6} "
                  f"[median {m['median']:.6g}, q1 {m['q1']:.6g}, "
                  f"q3 {m['q3']:.6g}, n={m['n']}]")
        for name, m in entry.get("per_layer", {}).items():
            print(f"   {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"total {report['total_wall_s']:.1f} s on {report['nproc']} "
          f"cores, jobs={report['jobs']}, seed={report['seed']}")


def write_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def declared() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def driver_line(entry: Dict[str, Any], trace: int) -> str:
    """The one JSON object the benchmark driver reads.

    A declared per-layer metric this workload does not have — another
    basket's cell, a microbenchmark of a layer it is not bound by, a
    harness ratio on a simulation workload — reads 0.
    """
    spec = declared()
    if trace:
        have = entry["per_layer"]
        metrics = {m["name"]: have.get(m["name"],
                                       {"value": 0.0, "unit": m["unit"]})
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: entry["end_to_end"][m["name"]]
                   for m in spec["end_to_end"]}
    return json.dumps({
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    })


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def spread(metric: Metric) -> float:
    """Interquartile range as a share of the median."""
    return (metric["q3"] - metric["q1"]) / metric["median"]


def verdict(a: Metric, b: Metric, better: str, bound: float) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for B against A."""
    lower = better == "lower"
    worse_by = (b["value"] - a["value"]) / a["value"] * (1 if lower else -1)
    if worse_by > bound:
        return "regressed"
    if max(spread(a), spread(b)) > bound:
        # Too noisy to call unchanged — unless B wins every sample.
        wins = (max(b["samples"]) < min(a["samples"]) if lower
                else min(b["samples"]) > max(a["samples"]))
        return "ok" if wins else "unresolved"
    return "ok"


def load_side(paths: str) -> Dict[str, Any]:
    """The ``workloads`` of one report, or of a set of them.

    ``paths`` is one report file or several joined by commas.  A set
    is judged as the benchmark driver judges it: a metric's value is
    the median of the runs' values, its spread their interquartile
    range — run-to-run, where a single report only has its passes.
    """
    reports = []
    for path in paths.split(","):
        with open(path) as fh:
            reports.append(json.load(fh)["workloads"])
    if len(reports) == 1:
        return reports[0]
    merged: Dict[str, Any] = {}
    for workload, first in reports[0].items():
        runs = [r[workload]["end_to_end"] for r in reports if workload in r]
        merged[workload] = {
            "work": first["work"], "digests": first["digests"],
            "end_to_end": {
                name: summarize(
                    statistics.median(run[name]["value"] for run in runs),
                    [run[name]["value"] for run in runs], metric["unit"])
                for name, metric in first["end_to_end"].items()},
        }
    return merged


def compare(path_a: str, path_b: str) -> int:
    """Print B against A per workload x end-to-end metric; 0 if every
    verdict is ``ok`` and the simulated outputs are identical."""
    a, b = load_side(path_a), load_side(path_b)
    specs = declared()["end_to_end"]
    bad = 0
    print(f"A = {path_a}\nB = {path_b}\nratio = B value / A value")
    for workload in a:
        if workload not in b:
            continue
        same = (a[workload]["work"] == b[workload]["work"] and
                a[workload]["digests"] == b[workload]["digests"])
        bad += not same
        print(f"== {workload}: work counts and digests "
              f"{'identical' if same else 'DIFFER'}")
        for spec in specs:
            name = spec["name"]
            ma = a[workload].get("end_to_end", {}).get(name)
            mb = b[workload].get("end_to_end", {}).get(name)
            if ma is None or mb is None:
                continue
            result = verdict(ma, mb, spec["better"], spec["bound"])
            bad += result != "ok"
            print(f"   {name:<14} A {ma['value']:.6g} "
                  f"[{ma['q1']:.6g}, {ma['q3']:.6g}]  "
                  f"B {mb['value']:.6g} [{mb['q1']:.6g}, {mb['q3']:.6g}] "
                  f"{ma['unit']}  ratio {mb['value'] / ma['value']:.4f} "
                  f"of A  ({spec['better']} is better, bound "
                  f"{spec['bound']:.0%})  {result}")
    return 1 if bad else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="budget of each workload's timed passes "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver form: 0 = end-to-end metrics only, "
                             "1 = per-layer metrics only")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 1 timed pass, 1 set-up, "
                             "micro loops / 10; numbers not comparable")
    parser.add_argument("--out", help="write the JSON report here "
                        "(default without --trace: results/report.json)")
    parser.add_argument("--expected", default=EXPECTED,
                        help="pinned digests (default: expected.json)")
    parser.add_argument("--record", action="store_true",
                        help="append the report to results/trajectory.jsonl")
    parser.add_argument("--update-expected", action="store_true",
                        help="re-pin the digests at seed 42")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="two reports, or two comma-joined sets of "
                             "reports, of the same seeds")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    phases = {None: "all", 0: "timed", 1: "traced"}[args.trace]
    pins = args.expected
    if args.update_expected:
        # One quick unpinned run of everything at the pinned seed.
        workloads, phases = list(WORKLOADS), "timed"
        args.expected, args.quick, args.seed = "", True, DEFAULT_SEED
    try:
        report = run_all(workloads, phases, args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.update_expected:
        write_json(pins, {name: entry["digests"] for name, entry
                          in report["workloads"].items()})
        print(f"wrote {os.path.relpath(pins)}")
        return 0

    out = args.out or (None if args.trace is not None
                       else os.path.join(RESULTS, "report.json"))
    if args.record:
        sys.path.insert(0, ROOT)
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from benchmarks._common import bench_meta
        report["meta"] = bench_meta()
        os.makedirs(RESULTS, exist_ok=True)
        with open(os.path.join(RESULTS, "trajectory.jsonl"), "a") as fh:
            fh.write(json.dumps(report, sort_keys=True) + "\n")
    if out:
        write_json(out, report)
    print_report(report)
    if args.trace is not None:
        print(driver_line(report["workloads"][args.workload], args.trace))
    failed = sum(e["failed"] for e in report["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
