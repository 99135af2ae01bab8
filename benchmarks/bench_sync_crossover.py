"""The sync-crossover artifact: lock x barrier x machine sweep.

Runs the ``sync-sweep`` experiment — TSP-18 and M-Water across every
lock algorithm (token, mcs, ticket, combining) crossed with every
barrier algorithm (central, tree, combining) on the three simulated
machines (AS, AH, HS) — and distils the *crossover* question: how far
does the best synchronization policy move a software machine toward
the all-hardware machine's default speedup?

The acceptance bar is the point of the whole subsystem: at least one
non-default policy on a software machine must beat the token+central
baseline by ``--min-crossover-gain`` (the tree barrier on AS M-Water
is the expected winner — it removes the central manager's O(n)
handler serialization, the precise cost that separates AS from AH in
the paper's Figure 11).  AH itself must stay nearly flat across
policies (``--max-ah-spread``): hardware synchronization was never
the bottleneck, so policy choice should barely matter there.

Writes ``BENCH_sync_crossover.json`` at the repo root and archives
the report rows under ``benchmarks/results/sync-sweep.txt``.  Exits
non-zero if a bar is missed.  Run with::

    PYTHONPATH=src python benchmarks/bench_sync_crossover.py \
        [--scale test|bench] [--jobs N] [--min-crossover-gain F]
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
                        "BENCH_sync_crossover.json")

MIN_CROSSOVER_GAIN = 1.02
MAX_AH_SPREAD = 1.05


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
    parser.add_argument("--min-crossover-gain", type=float,
                        default=MIN_CROSSOVER_GAIN, metavar="F",
                        help="fail unless some software-machine policy "
                             "beats its token+central baseline by this "
                             "factor (default: %(default)s)")
    parser.add_argument("--max-ah-spread", type=float,
                        default=MAX_AH_SPREAD, metavar="F",
                        help="fail if AH's best/worst policy speedup "
                             "ratio exceeds this (default: %(default)s)")
    args = parser.parse_args()
    scale = Scale(args.scale)
    opts = current_options("sync-sweep")

    start = time.perf_counter()
    with run_context(jobs=args.jobs):
        report = run_experiment("sync-sweep", scale)
    shutdown_pool()
    elapsed = time.perf_counter() - start

    text = report.text()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "sync-sweep.txt"), "w") as fh:
        fh.write(f"{text}\n[expected shape: "
                 f"{REGISTRY['sync-sweep'].shape_note}]\n")

    top = report.data["top_procs"]
    summary = report.data["summary"]
    cells = report.data["cells"]

    # Bar 1: the crossover shift.  Best gain over every software
    # (machine, workload) pair in the sweep.
    software = {key: s for key, s in summary.items()
                if not key.endswith("/ah")}
    best_key, best = max(software.items(), key=lambda kv: kv[1]["gain"]) \
        if software else (None, None)

    # Bar 2: AH stays flat — policy choice must not matter where
    # synchronization runs in hardware.
    ah_spread = 0.0
    for workload, machines in cells.items():
        ah = machines.get("ah")
        if not ah:
            continue
        speedups = [c["speedups"][str(top)] for c in ah.values()]
        if min(speedups) > 0:
            ah_spread = max(ah_spread, max(speedups) / min(speedups))

    bench = {
        "grid": f"{list(opts.machines)} x {list(opts.workloads)} x "
                f"{len(opts.locks)} locks x {len(opts.barriers)} "
                f"barriers, scale {scale.value}, up to {top} procs",
        "elapsed_s": round(elapsed, 2),
        "jobs": args.jobs,
        "cpu_count": os.cpu_count(),
        "top_procs": top,
        "cells": cells,
        "summary": summary,
        "crossover": {
            "what": "best software-machine policy vs its token+central "
                    "baseline",
            "best_cell": best_key,
            "best_policy": best["best_policy"] if best else None,
            "gain": round(best["gain"], 4) if best else None,
            "bar": args.min_crossover_gain,
        },
        "ah_flatness": {
            "what": "max best/worst policy speedup ratio on AH",
            "spread": round(ah_spread, 4),
            "bar": args.max_ah_spread,
        },
    }
    write_bench_json(OUT_PATH, bench)

    ok = True
    if best is None or best["gain"] < args.min_crossover_gain:
        gain = best["gain"] if best else float("nan")
        print(f"CROSSOVER BAR MISSED: best software gain x{gain:.3f} "
              f"< x{args.min_crossover_gain}")
        ok = False
    else:
        print(f"crossover: {best_key} via {best['best_policy']} "
              f"x{best['gain']:.3f} (bar x{args.min_crossover_gain})")
    if ah_spread > args.max_ah_spread:
        print(f"AH FLATNESS BAR MISSED: policy spread x{ah_spread:.3f} "
              f"> x{args.max_ah_spread}")
        ok = False
    else:
        print(f"ah flatness: policy spread x{ah_spread:.3f} "
              f"(bar x{args.max_ah_spread})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
