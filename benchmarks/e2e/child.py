"""One workload in one fresh interpreter (spawned by run.py, never two
at once).

Phases: *set-up* (imports, build machines and apps, one untimed warm-up
pass — the parent clocks it from process start to the ``ready`` line),
*timed passes* with tracing off, then optionally one *traced pass*
under the cProfile hook and the *layer microbenchmarks*.  Everything
measured goes to the parent as one ``result`` JSON line on stdout; the
per-layer metrics are named here, the end-to-end ones by the parent,
which alone sees the set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

import baskets  # noqa: E402  (needs src on the path)
import micro  # noqa: E402
import trace  # noqa: E402

#: Fewest timed passes of a run, however slow the host.
MIN_PASSES = 3


def emit(event: str, **payload) -> None:
    """One protocol line to the parent."""
    print(json.dumps({"event": event, **payload}), flush=True)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    reaped child (a pool worker), in MiB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss +
           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def fastest(timed, metric: str) -> float:
    """The wall ``metric`` would have had on a quiet host: each part
    (cell, figure) at its fastest timed pass, summed.  Interference on
    a shared host only ever adds time, in bursts longer than a part, so
    the minimum is the steady estimate and the median is not."""
    parts = [one.walls[metric] for one in timed]
    return sum(min(p[part] for p in parts) for part in parts[0])


def per_layer(workload: str, timed, timed_s, traced, micros) -> dict:
    """Name and unit every per-layer number this run measured.

    ``timed_s`` holds the whole-call seconds of each timed pass, the
    untraced counterpart of the traced pass's wall.
    """
    out = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    wall = fastest(timed, "wall_s")
    _pass, traced_wall, self_s, calls = traced
    for layer, seconds in self_s.items():
        put(f"{layer}.self_s", seconds, "s")
    put("trace.overhead_ratio", traced_wall / min(timed_s), "ratio")
    for name, count in calls.items():
        put(name, count, "count")
    work = timed[0].work
    for name, unit in baskets.WORK_UNITS.items():
        put(name, work.get(name, 0), unit)
    events, cycles = work.get("sim.events", 0), work.get("sim.cycles", 0)
    put("machines.us_per_event", wall / events * 1e6 if events else 0.0,
        "us")
    put("machines.sim_cycles_per_s", cycles / wall, "1/s")
    if workload in baskets.BASKETS:
        for cell in timed[0].walls["wall_s"]:
            put(f"cell.{cell}.wall_s",
                min(one.walls["wall_s"][cell] for one in timed), "s")
    for name, value in micros.items():
        put(name, value, micro.MICRO_UNITS[name])
    for name in timed[0].harness:
        put(name, statistics.median(one.harness[name] for one in timed),
            "count" if name.endswith("workers_effective") else "ratio")
    if "pooled_wall_s" in timed[0].walls:
        put("harness.pool_speedup",
            wall / fastest(timed, "pooled_wall_s"), "ratio")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=baskets.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="budget of the timed passes")
    parser.add_argument("--phases", required=True,
                        choices=("setup", "timed", "traced", "all"))
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--expected", default="",
                        help="pinned digests; given only when they apply")
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()

    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.scratch)
    workload = baskets.build(args.workload, args.seed, scratch)
    try:
        passes = [workload.run_pass()]      # warm-up, also a reference
        emit("ready")
        if args.phases == "setup":
            return 0

        # A traced-only run still needs an untraced wall to compare the
        # traced one with, but not a steady median: a quarter will do.
        budget = args.seconds / (4 if args.phases == "traced" else 1)
        deadline = time.perf_counter() + budget
        timed, timed_s = [], []
        while True:
            start = time.perf_counter()
            timed.append(workload.run_pass())
            timed_s.append(time.perf_counter() - start)
            if args.quick or (len(timed) >= MIN_PASSES and
                              time.perf_counter() >= deadline):
                break
        workload.close()        # reap pool workers so their RSS counts
        rss = peak_rss_mb()
        passes += timed

        layers = traced = None
        if args.phases != "timed":
            traced = trace.traced(workload.run_pass)
            passes.append(traced[0])
            micros = micro.run_micros(baskets.MICRO_GROUPS[args.workload],
                                      10 if args.quick else 1, scratch)
            layers = per_layer(args.workload, timed, timed_s, traced,
                               micros)

        pinned = None
        if args.expected:
            with open(args.expected) as fh:
                pinned = json.load(fh)[args.workload]
        attempted, failed, errors, digests = baskets.check(passes, pinned)
        walls = {metric: {"fastest": fastest(timed, metric),
                          "passes": [sum(one.walls[metric].values())
                                     for one in timed]}
                 for metric in timed[0].walls}
        emit("result",
             walls=walls,
             work=timed[0].work,
             peak_rss_mb=rss,
             per_layer=layers,
             traced_wall_s=traced[1] if layers else None,
             attempted=attempted, failed=failed, errors=errors,
             digests=digests,
             jobs=workload.jobs)
        return 0
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
