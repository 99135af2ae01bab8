"""The recovery artifact: crash-stop failures, degraded completion.

Runs the ``failure-sweep`` experiment — SOR and TSP on the two
software-DSM simulated machines (AS, HS), crash-stopping the last DSM
node at each configured fraction of the clean run — and pins the two
numbers the recovery subsystem promises:

* **Detection latency** is bounded: every declared failure is
  detected strictly after the crash and no later than the keepalive
  backstop (``detect_cycles`` after the crash, plus a small event
  slack).  An unbounded detection time would mean survivors can hang
  on a dead node.
* **Degraded overhead** is bounded: the degraded speedup retains at
  least ``--min-retained`` of the clean speedup.  Losing one node out
  of n costs the node's share of the work plus the detection stall —
  it must not collapse the run.

Every crashed cell must also *complete* degraded (``failed_nodes``
non-empty, result verified) — a cell that never declared its crash is
a detection failure, not a fast run.

Writes ``BENCH_recovery.json`` at the repo root and archives the
report rows under ``benchmarks/results/failure-sweep.txt``.  Exits
non-zero if a bar is missed.  Run with::

    PYTHONPATH=src python benchmarks/bench_recovery.py \
        [--scale test|bench] [--jobs N] [--min-retained F]
"""

from __future__ import annotations

import argparse
import os
import time

from _common import RESULTS_DIR, write_bench_json
from repro.harness.experiments import (REGISTRY, current_options,
                                       run_experiment)
from repro.harness.parallel import run_context, shutdown_pool
from repro.harness.workloads import Scale

OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                        "BENCH_recovery.json")

#: Degraded speedup must retain at least this fraction of the clean
#: speedup.  Deliberately loose: a mid-run crash on a
#: barrier-structured program stalls every survivor for the full
#: detection window, so the floor only guards against collapse.
MIN_RETAINED = 0.10

#: Detection may land this many cycles past the keepalive backstop
#: (event-queue granularity; the backstop event itself is exact).
DETECT_SLACK = 1_000


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=[s.value for s in Scale],
                        default=Scale.TEST.value,
                        help="problem-size scale (default: test; bench "
                             "sweeps to 64 processors and takes "
                             "proportionally longer)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel simulation workers (0 = all "
                             "cores; default: 1)")
    parser.add_argument("--min-retained", type=float,
                        default=MIN_RETAINED, metavar="F",
                        help="fail if any cell's degraded/clean speedup "
                             "ratio drops below this (default: "
                             "%(default)s)")
    args = parser.parse_args()
    scale = Scale(args.scale)
    opts = current_options("failure-sweep")

    start = time.perf_counter()
    with run_context(jobs=args.jobs):
        report = run_experiment("failure-sweep", scale)
    shutdown_pool()
    elapsed = time.perf_counter() - start

    text = report.text()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "failure-sweep.txt"), "w") as fh:
        fh.write(f"{text}\n[expected shape: "
                 f"{REGISTRY['failure-sweep'].shape_note}]\n")

    ok = True
    worst_latency = 0
    worst_retained = None
    incomplete = []
    cells = {}
    for workload, machines in report.data.items():
        for mname, tags in machines.items():
            for tag, cell in tags.items():
                key = f"{mname}/{workload}/crash@{tag}"
                degraded = cell["degraded"]
                if not degraded.get("failed_nodes"):
                    incomplete.append(key)
                    continue
                latencies = [det - cra for det, cra in
                             zip(degraded["detected_at"],
                                 degraded["crashed_at"])]
                worst_latency = max(worst_latency, max(latencies))
                retained = (cell["speedup"] / cell["clean_speedup"]
                            if cell["clean_speedup"] > 0 else 0.0)
                if worst_retained is None or retained < worst_retained[1]:
                    worst_retained = (key, retained)
                cells[key] = {
                    "speedup": round(cell["speedup"], 4),
                    "clean_speedup": round(cell["clean_speedup"], 4),
                    "retained": round(retained, 4),
                    "detection_latencies": latencies,
                    "detected_via": degraded["detected_via"],
                    "pages_rehomed": cell["pages_rehomed"],
                    "pages_lost": cell["pages_lost"],
                    "locks_regenerated": cell["locks_regenerated"],
                    "barrier_reconfigs": cell["barrier_reconfigs"],
                }

    latency_bar = opts.detect_cycles + DETECT_SLACK
    bench = {
        "grid": f"{list(opts.machines)} x {list(opts.workloads)} x "
                f"crash fracs {list(opts.fracs)}, scale {scale.value}",
        "elapsed_s": round(elapsed, 2),
        "jobs": args.jobs,
        "cpu_count": os.cpu_count(),
        "detect_cycles": opts.detect_cycles,
        "cells": cells,
        "detection_latency": {
            "what": "worst crash-to-declaration latency (sim cycles)",
            "worst": worst_latency,
            "bar": latency_bar,
        },
        "degraded_overhead": {
            "what": "worst degraded/clean speedup ratio",
            "worst_cell": worst_retained[0] if worst_retained else None,
            "retained": round(worst_retained[1], 4) if worst_retained
            else None,
            "bar": args.min_retained,
        },
        "incomplete_cells": incomplete,
    }
    write_bench_json(OUT_PATH, bench)

    if incomplete:
        print(f"COMPLETION BAR MISSED: {len(incomplete)} crashed "
              f"cell(s) never declared the failure: {incomplete}")
        ok = False
    else:
        print(f"completion: all {len(cells)} crashed cells finished "
              f"degraded and verified")
    if worst_latency <= 0 or worst_latency > latency_bar:
        print(f"DETECTION BAR MISSED: worst latency {worst_latency} "
              f"cycles outside (0, {latency_bar}]")
        ok = False
    else:
        print(f"detection: worst latency {worst_latency} cycles "
              f"(bar {latency_bar})")
    if worst_retained is None or worst_retained[1] < args.min_retained:
        retained = worst_retained[1] if worst_retained else float("nan")
        print(f"OVERHEAD BAR MISSED: worst retained speedup "
              f"{retained:.3f} < {args.min_retained}")
        ok = False
    else:
        print(f"overhead: worst retained speedup {worst_retained[1]:.3f} "
              f"at {worst_retained[0]} (bar {args.min_retained})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
