"""Wall-clock overhead of the observers: ``repro.trace`` and ``repro.check``.

Times fixed bench-scale cells with each observer off and in its two
armed modes:

* ``off``            — no tracer, checkers never constructed;
* ``trace_metrics``  — breakdown accounting only (``keep_spans=False``);
* ``trace_full``     — spans + instants retained for Chrome export;
* ``check_online``   — invariant checkers armed (``checking()``);
* ``check_history``  — plus LRC history recording and post-run replay.

Observers only observe: every configuration of a cell must finish in
the same simulated cycle, and the script fails if one does not.  It
writes ``benchmarks/results/observers.json`` stamped with
``_common.bench_meta()``.  (The observatory's ``trace.overhead_ratio``
is its own cProfile hook and covers neither package; until it grows an
observers workload, this script is where their cost is measured.)

Run with::

    PYTHONPATH=src python benchmarks/bench_observers.py
"""

from __future__ import annotations

import contextlib
import json
import os
import time

from _common import RESULTS_DIR, bench_meta
from repro import make_machine
from repro.check import checking
from repro.harness.workloads import Scale, make_app
from repro.trace.tracer import Tracer

REPEATS = 9
OUT_PATH = os.path.join(RESULTS_DIR, "observers.json")

#: (machine, workload, processors): one barrier-structured and one
#: compute-bound DSM cell, and the same SOR on both hardware protocols.
CELLS = [
    ("treadmarks", "sor_small", 4),
    ("treadmarks", "tsp18", 4),
    ("sgi", "sor_small", 4),
    ("ah", "sor_small", 4),
]

#: label -> (``Tracer`` kwargs or None, ``checking`` kwargs or None).
#: ``off`` comes first: every other overhead is relative to it.
CONFIGS = {
    "off": (None, None),
    "trace_metrics": ({"keep_spans": False}, None),
    "trace_full": ({"keep_spans": True}, None),
    "check_online": (None, {}),
    "check_history": (None, {"history": True}),
}


def _time_cell(machine_name, app_name, nprocs, tracer_kwargs, check_kwargs):
    """Best wall-clock seconds over REPEATS runs; also the cycles.

    The minimum is the standard estimator for microbenchmarks: every
    sample above it is the same work plus scheduler noise.
    """
    def run():
        machine = make_machine(machine_name)
        app = make_app(app_name, Scale.BENCH)
        tracer = (Tracer(**tracer_kwargs)
                  if tracer_kwargs is not None else None)
        start = time.perf_counter()
        result = machine.run(app, nprocs, tracer=tracer)
        return time.perf_counter() - start, result.cycles

    armed = (checking(**check_kwargs) if check_kwargs is not None
             else contextlib.nullcontext())
    with armed:
        run()   # untimed: allocator and cache warmup
        samples = [run() for _ in range(REPEATS)]
    cycles = {c for _seconds, c in samples}
    if len(cycles) != 1:
        raise AssertionError(
            f"non-deterministic cycles for {machine_name}/{app_name}: "
            f"{sorted(cycles)}")
    return min(seconds for seconds, _c in samples), cycles.pop()


def main() -> int:
    report = {"repeats": REPEATS, "scale": "bench", "runs": []}
    for machine_name, app_name, nprocs in CELLS:
        entry = {"machine": machine_name, "app": app_name,
                 "nprocs": nprocs}
        cycles_seen = {}
        for config, (tracer_kwargs, check_kwargs) in CONFIGS.items():
            seconds, cycles_seen[config] = _time_cell(
                machine_name, app_name, nprocs, tracer_kwargs,
                check_kwargs)
            entry[f"seconds_{config}"] = round(seconds, 6)
            if config != "off":
                entry[f"overhead_{config}"] = round(
                    seconds / entry["seconds_off"] - 1, 4)
        if len(set(cycles_seen.values())) != 1:
            raise AssertionError(
                f"an observer changed simulated cycles: {cycles_seen}")
        entry["cycles"] = cycles_seen["off"]
        report["runs"].append(entry)
        print(f"{machine_name:12s} {app_name:10s} "
              f"off={entry['seconds_off']:.4f}s " +
              " ".join(f"{config}={entry[f'overhead_{config}']:+.1%}"
                       for config in CONFIGS if config != "off"))

    report["meta"] = bench_meta()
    with open(OUT_PATH, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.normpath(OUT_PATH)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
