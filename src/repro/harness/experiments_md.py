"""Generate EXPERIMENTS.md from the registry and the archived results.

Reads ``benchmarks/results/<exp_id>.txt`` (written by the benchmark
suite through :func:`write_archive`) and pairs each regenerated
artifact with what its registry entry says: the paper's claim, the
expected shape and any known deviation, called out inline.  The file
opens with a mapping table (paper artifact -> experiment id ->
machines -> workloads -> runs -> validate checks): the machines,
workloads and unique-run count are read off each experiment's
bench-scale plan, the checks off the claims each registry entry
declares (``Experiment.claims``, in :mod:`repro.harness.experiments`
or :mod:`repro.harness.sweeps`).

EXPERIMENTS.md is generated — edit the registry
(:mod:`repro.harness.experiments`, and :mod:`repro.harness.sweeps` for
the sweeps), re-run the benchmark suite if results changed, then
regenerate with::

    PYTHONPATH=src python -m repro.harness.experiments_md [results_dir] [output_md]

(defaults: ``benchmarks/results`` and ``EXPERIMENTS.md``).
"""

from __future__ import annotations

import os
import sys
from typing import Tuple

from repro.harness.experiments import (Experiment, Report, Scale,
                                       get_experiment, list_experiments)


def write_archive(results_dir: str, exp_id: str, report: Report) -> str:
    """Archive one bench-scale report as ``<results_dir>/<exp_id>.txt``.

    The archive is the report text plus the registry's expected shape;
    :func:`build` reads it back.  Returns the archived text.
    """
    note = get_experiment(exp_id).shape_note
    body = f"{report.text()}\n[expected shape: {note}]\n"
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{exp_id}.txt"), "w") as fh:
        fh.write(body)
    return body


def _plan_columns(exp: Experiment) -> Tuple[str, str, int]:
    """(machines, workloads, unique runs) of the bench-scale plan."""
    specs = exp.plan(Scale.BENCH).specs
    machines = dict.fromkeys(spec.machine.base_name for spec in specs)
    workloads = dict.fromkeys(spec.app.name for spec in specs)
    return (", ".join(machines), ", ".join(workloads),
            len({spec.key() for spec in specs}))


#: The fixed opening of EXPERIMENTS.md, down to the map's column header.
_HEADER = """\
# EXPERIMENTS — paper vs. measured

Regenerated by `pytest benchmarks/ --benchmark-only` (bench scale; see
`repro.harness.workloads` for exact problem sizes).  Absolute numbers are
not comparable to the paper's testbed — every machine constant is a
calibrated stand-in (DESIGN.md) — so each entry records the paper's *claim*
and the measured *shape*.  Known deviations are called out inline.

This file is generated — edit the registry in
`src/repro/harness/experiments.py` (the sweeps in
`src/repro/harness/sweeps.py`) and regenerate with
`PYTHONPATH=src python -m repro.harness.experiments_md`.

## Figure-to-experiment map

Run any row with `repro-harness run <exp id>`; the checks column names
the claims `repro-harness validate` evaluates for that experiment, each
to a signed margin, as its registry entry declares them.

| paper artifact | exp id | machines | workloads | runs | claimed shape \
| validate checks |
|---|---|---|---|---|---|---|
"""

#: The fixed closing section of EXPERIMENTS.md.
_CORRECTNESS = """\
## Correctness checking (repro.check)

Every number above assumes the five machine models implement their
memory models correctly.  `repro.check` makes that assumption testable
without perturbing any of the results: the checkers only observe, so an
armed run finishes in exactly the same simulated cycle as an unarmed one
(asserted by `benchmarks/bench_observers.py`, which writes
`benchmarks/results/observers.json`).

* `repro-harness check [--scale test]` — runs the fixed fuzz seeds plus
  the SOR/TSP/Water battery on all five machines with the online
  invariant checkers armed (SWMR for the hardware models; interval
  monotonicity, diff-covers-twin and no-write-to-invalid-page for the
  LRC models) and the post-run LRC history verifier.  A violation
  raises `ConsistencyViolation` naming the offending protocol event,
  its simulated time, and a replayable slice of the preceding trace.
* `repro-harness fuzz --seed 0 --iters 50` — differential fuzzing:
  seeded random data-race-free programs run on all five machines, final
  memory images and checker verdicts diffed.  Failures shrink to a
  minimal program (`--no-shrink` to skip) and persist under
  `tests/fuzz_seeds/`, which the test suite replays forever after.
* `REPRO_CHECK=1 python -m pytest` — the whole tier-1 suite with online
  checkers armed (`REPRO_CHECK=history` adds history recording); one CI
  leg runs this way.

"""


def _map_rows() -> list:
    """One map row per experiment: artifact, id, plan columns, claims."""
    rows = []
    for exp in list_experiments():
        machines, workloads, runs = _plan_columns(exp)
        checks = ", ".join(f"`{claim.name}`" for claim in exp.claims)
        rows.append(
            f"| {exp.paper_ref} | `{exp.exp_id}` | {machines} "
            f"| {workloads} | {runs} | {exp.shape_note} "
            f"| {checks or '—'} |")
    return rows


def build(results_dir: str) -> str:
    """The text of EXPERIMENTS.md over the archives in ``results_dir``."""
    lines = _map_rows() + [""]
    for exp in list_experiments():
        lines.append(f"## {exp.exp_id} — {exp.title} ({exp.paper_ref})")
        lines.append("")
        lines.append(f"**Paper:** {exp.paper_claim}")
        lines.append("")
        path = os.path.join(results_dir, f"{exp.exp_id}.txt")
        if os.path.exists(path):
            with open(path) as fh:
                body = fh.read().rstrip()
            lines.append("**Measured:**")
            lines.append("")
            lines.append("```")
            lines.append(body)
            lines.append("```")
        else:
            lines.append("*(no archived result — run the benchmark "
                         "suite first)*")
        lines.append("")
        if exp.deviation:
            lines.append(f"**Known deviation:** {exp.deviation}")
            lines.append("")
    return _HEADER + "\n".join(lines) + "\n" + _CORRECTNESS


def main(argv=None) -> int:
    """Write EXPERIMENTS.md: ``[results_dir] [output_md]``."""
    argv = argv if argv is not None else sys.argv[1:]
    results_dir = argv[0] if argv else os.path.join("benchmarks",
                                                    "results")
    output = argv[1] if len(argv) > 1 else "EXPERIMENTS.md"
    text = build(results_dir)
    with open(output, "w") as fh:
        fh.write(text)
    print(f"wrote {output} from {results_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
