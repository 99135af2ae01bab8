"""The ablation artifact: per-mechanism importance over the DSM.

Runs the ``ablation-sweep`` experiment — every TreadMarks mechanism
switched off one at a time (and, with ``--one-only``, switched on one
at a time) on the AS and HS machines over SOR, TSP, and M-Water — and
distils two claims the protocol design rests on:

* **Diffs earn their keep.**  Shipping RLE diffs instead of whole
  pages is the paper's core bandwidth argument (§2.4.2): with diffs
  ablated, M-Water must move at least ``--min-diff-bytes-ratio`` times
  the bytes of the full protocol on some software machine.

* **Nothing is dead weight.**  Every swept mechanism must register a
  nonzero leave-one-out importance score on at least one
  (machine, workload) cell — a mechanism whose removal changes no
  metric anywhere is untested freight, and the sweep would be the
  place to find out.

Writes ``BENCH_ablation.json`` at the repo root and archives the
ranked report under ``benchmarks/results/ablation-sweep.txt``.  Exits
non-zero if a bar is missed.  Run with::

    PYTHONPATH=src python benchmarks/bench_ablation.py \
        [--scale test|bench] [--jobs N] [--min-diff-bytes-ratio F]
"""

from __future__ import annotations

import argparse
import os
import time

from _common import RESULTS_DIR, write_bench_json
from repro.harness.experiments import (REGISTRY, run_experiment,
                                       sweep_options)
from repro.harness.parallel import run_context, shutdown_pool
from repro.harness.workloads import Scale

OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                        "BENCH_ablation.json")

MIN_DIFF_BYTES_RATIO = 1.3


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
    parser.add_argument("--one-only", action="store_true",
                        help="also sweep the one-only grid (each "
                             "mechanism alone against everything off)")
    parser.add_argument("--min-diff-bytes-ratio", type=float,
                        default=MIN_DIFF_BYTES_RATIO, metavar="F",
                        help="fail unless ablating diffs multiplies "
                             "M-Water's bytes on some software machine "
                             "by this factor (default: %(default)s)")
    args = parser.parse_args()
    scale = Scale(args.scale)
    grids = ("loo", "only") if args.one_only else ("loo",)

    start = time.perf_counter()
    with sweep_options("ablation-sweep", grids=grids) as opts:
        with run_context(jobs=args.jobs):
            report = run_experiment("ablation-sweep", scale)
    shutdown_pool()
    elapsed = time.perf_counter() - start

    text = report.text()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "ablation-sweep.txt"), "w") as fh:
        fh.write(f"{text}\n[expected shape: "
                 f"{REGISTRY['ablation-sweep'].shape_note}]\n")

    top = report.data["top_procs"]
    cells = report.data["cells"]
    ranking = report.data["ranking"]

    # Bar 1: diffs move the bytes needle on M-Water.  Peak ablated/full
    # bytes ratio over the swept machines' mwater cells.
    diff_ratio = 0.0
    diff_cell = None
    for key, grids_cell in cells.items():
        if not key.endswith("/mwater"):
            continue
        cell = grids_cell.get("loo", {}).get("diffs")
        if cell and cell["full"]["bytes"] > 0:
            ratio = cell["ablated"]["bytes"] / cell["full"]["bytes"]
            if ratio > diff_ratio:
                diff_ratio, diff_cell = ratio, key

    # Bar 2: every swept mechanism scores nonzero somewhere.
    dead = [e["mechanism"] for e in ranking if e["score"] <= 0.0]
    swept = {e["mechanism"] for e in ranking}
    dead += [m for m in report.data["mechanisms"] if m not in swept]

    bench = {
        "grid": f"{list(opts.machines)} x {list(opts.workloads)} x "
                f"{len(opts.mechanisms)} mechanisms x {list(grids)}, "
                f"scale {scale.value}, {top} procs",
        "elapsed_s": round(elapsed, 2),
        "jobs": args.jobs,
        "cpu_count": os.cpu_count(),
        "top_procs": top,
        "cells": cells,
        "ranking": ranking,
        "diff_bytes": {
            "what": "peak ablated/full total-bytes ratio with diffs "
                    "off, M-Water cells",
            "cell": diff_cell,
            "ratio": round(diff_ratio, 4),
            "bar": args.min_diff_bytes_ratio,
        },
        "dead_mechanisms": {
            "what": "mechanisms with zero leave-one-out importance "
                    "on every swept cell",
            "dead": dead,
            "bar": "must be empty",
        },
    }
    write_bench_json(OUT_PATH, bench)

    ok = True
    if diff_ratio < args.min_diff_bytes_ratio:
        print(f"DIFF BYTES BAR MISSED: ablated/full x{diff_ratio:.3f} "
              f"< x{args.min_diff_bytes_ratio}")
        ok = False
    else:
        print(f"diff bytes: {diff_cell} ships x{diff_ratio:.3f} the "
              f"bytes without diffs (bar x{args.min_diff_bytes_ratio})")
    if dead:
        print(f"DEAD MECHANISM BAR MISSED: zero importance everywhere "
              f"for {', '.join(sorted(dead))}")
        ok = False
    else:
        print(f"mechanisms: all {len(ranking)} swept mechanisms score "
              "nonzero on some cell")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
