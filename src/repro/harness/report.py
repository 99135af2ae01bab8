"""Drift-detecting reproducibility reports: ``repro-harness report``.

The repository commits two kinds of simulated-number artifacts whose
credibility rests on being regenerable: the golden speedup pins
(``tests/golden/speedups.json``) and per-figure data goldens
(``tests/golden/figures.json``).  This module is the single pass that
regenerates them through the ambient
:func:`~repro.harness.parallel.run_context` — cache + ledger + pool —
and fails loudly with a structured :class:`Drift` diff when a
regenerated number no longer matches what is committed.

Because every run flows through the content-addressed cache and
appends a provenance-ledger record, the pass is *resumable*: a killed
report re-run schedules only the cache misses onto the pool, and the
ledger shows exactly which numbers were simulated afresh versus
served (``path="miss"``/``"hit"``), by which code version, on which
host.

Claims *about* the simulated numbers are stated and gated by
``repro-harness validate`` (:mod:`repro.harness.validate`); host
wall-clock time is measured by ``benchmarks/e2e``.  Neither is this
module's business.

``--write`` regenerates the committed goldens in place (the sanctioned
way to bless an intended behaviour change); at bench scale it also
rewrites ``benchmarks/results/<fig>.txt`` and regenerates
EXPERIMENTS.md, so figure text, goldens, and ledger stay one story.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.harness.experiments import REGISTRY, run_experiment
from repro.harness.runner import run_curves
from repro.harness.workloads import Scale, make_app
from repro.machines import (AllHardwareMachine, AllSoftwareMachine,
                            DecTreadMarksMachine, HybridMachine,
                            SgiMachine)
from repro.stats.result import jsonable

#: The golden speedup-pin grid (shared with tests/test_golden.py).
PIN_WORKLOADS = ("sor_small", "tsp18", "water")
PIN_PROCS = (2, 8)

#: Figures the default report regenerates (small, fast, and covering
#: both machine families); ``--figures`` overrides.
DEFAULT_FIGURES = ("fig3", "fig6")

GOLDEN_SPEEDUPS = os.path.join("tests", "golden", "speedups.json")
GOLDEN_FIGURES = os.path.join("tests", "golden", "figures.json")


# ======================================================================
# Regeneration
# ======================================================================
def _pin_machines():
    return [DecTreadMarksMachine(), SgiMachine(), AllSoftwareMachine(),
            AllHardwareMachine(), HybridMachine()]


def speedup_pin_data() -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Current values of the golden speedup pins (TEST scale).

    Exactly the data pinned by ``tests/golden/speedups.json`` (and
    asserted by tests/test_golden.py, which imports this function):
    simulated cycle counts and derived speedups of the SOR / TSP /
    Water curves on all five machine models.  Runs execute through
    the ambient context, so under ``repro-harness report`` they are
    cached, ledger-recorded, and pooled.
    """
    curves = {f"{workload}/{machine.name}": (machine, app, PIN_PROCS)
              for workload in PIN_WORKLOADS
              for app in [make_app(workload, Scale.TEST)]
              for machine in _pin_machines()}
    return {key: {"cycles": {str(r.nprocs): r.cycles
                             for r in series.points},
                  "speedups": {str(n): round(s, 9)
                               for n, s in series.speedups().items()}}
            for key, series in run_curves(curves).items()}


def _canon(value: Any) -> Any:
    """Canonical JSON form: string keys, floats rounded to 9 places.

    Rounding matches the golden-pin convention — enough precision
    that any real behaviour change shows, while JSON round-trips
    byte-identically.
    """
    value = jsonable(value)
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(
            value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, list):
        return [_canon(v) for v in value]
    if isinstance(value, float):
        return round(value, 9)
    return value


def figure_data(exp_id: str, scale: Scale) -> Dict[str, Any]:
    """Canonicalized ``Report.data`` for one registry experiment."""
    return _canon(run_experiment(exp_id, scale).data)


# ======================================================================
# Drift detection
# ======================================================================
@dataclass(frozen=True)
class Drift:
    """One committed number that no longer regenerates."""

    artifact: str            # file the number is committed in
    key: str                 # dotted path within the artifact
    expected: Any            # committed value
    actual: Any              # regenerated value (None = missing)

    def as_dict(self) -> Dict[str, Any]:
        return {"artifact": self.artifact, "key": self.key,
                "expected": self.expected, "actual": self.actual}

    def line(self) -> str:
        return (f"[drift] {self.artifact} :: {self.key}: "
                f"committed {self.expected!r} != regenerated "
                f"{self.actual!r}")


def diff_values(artifact: str, expected: Any, actual: Any,
                prefix: str = "") -> List[Drift]:
    """Structural diff of two JSON-able values as a flat drift list."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        drifts: List[Drift] = []
        for key in sorted(set(expected) | set(actual), key=str):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in expected:
                drifts.append(Drift(artifact, path, None, actual[key]))
            elif key not in actual:
                drifts.append(Drift(artifact, path, expected[key], None))
            else:
                drifts.extend(diff_values(artifact, expected[key],
                                          actual[key], path))
        return drifts
    if isinstance(expected, list) and isinstance(actual, list):
        drifts = []
        if len(expected) != len(actual):
            drifts.append(Drift(artifact, f"{prefix}.length",
                                len(expected), len(actual)))
        for i, (e, a) in enumerate(zip(expected, actual)):
            drifts.extend(diff_values(artifact, e, a, f"{prefix}[{i}]"))
        return drifts
    if expected != actual:
        return [Drift(artifact, prefix or "<value>", expected, actual)]
    return []


@dataclass
class ReportOutcome:
    """Everything one report pass produced."""

    artifacts: List[str] = field(default_factory=list)
    drifts: List[Drift] = field(default_factory=list)
    written: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.drifts

    def drift_document(self) -> Dict[str, Any]:
        """The structured diff (what ``--drift-out`` writes)."""
        return {
            "ok": self.ok,
            "artifacts_checked": list(self.artifacts),
            "drift_count": len(self.drifts),
            "drifts": [d.as_dict() for d in self.drifts],
        }


# ======================================================================
# The report pass
# ======================================================================
def _load_json(path: str) -> Optional[Any]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _write_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_artifact(outcome: ReportOutcome, artifact: str,
                    committed: Optional[Any], current: Any,
                    log: Callable[[str], None]) -> None:
    outcome.artifacts.append(artifact)
    if committed is None:
        outcome.drifts.append(Drift(artifact, "<file>",
                                    "<committed artifact>", None))
        log(f"[report] {artifact}: MISSING (run with --write to "
            f"create it)")
        return
    drifts = diff_values(artifact, committed, current)
    outcome.drifts.extend(drifts)
    status = "ok" if not drifts else f"{len(drifts)} drift(s)"
    log(f"[report] {artifact}: {status}")


def run_report(*, figures: Sequence[str] = DEFAULT_FIGURES,
               scale: Scale = Scale.TEST,
               root: str = ".",
               write: bool = False,
               log: Callable[[str], None] = print) -> ReportOutcome:
    """Regenerate committed artifacts and diff them against the repo.

    Call inside a :func:`~repro.harness.parallel.run_context` (with
    ``ledger=``) — every simulation is scheduled through it, so
    misses fan out over the pool and everything is recorded.
    """
    unknown = [f for f in figures if f not in REGISTRY]
    if unknown:
        raise ValueError(f"unknown figure ids: {unknown}; known: "
                         f"{sorted(REGISTRY)}")
    outcome = ReportOutcome()

    # -- golden speedup pins (always; they gate tier-1) -----------------
    pins_path = os.path.join(root, GOLDEN_SPEEDUPS)
    log(f"[report] regenerating golden speedup pins "
        f"({len(PIN_WORKLOADS)} workloads x 5 machines x "
        f"{len(PIN_PROCS) + 1} processor counts)")
    current_pins = speedup_pin_data()
    if write:
        _write_json(pins_path, current_pins)
        outcome.written.append(pins_path)
    _check_artifact(outcome, GOLDEN_SPEEDUPS, _load_json(pins_path),
                    current_pins, log)

    # -- figure data goldens --------------------------------------------
    figures_path = os.path.join(root, GOLDEN_FIGURES)
    committed_figures = _load_json(figures_path)
    if not isinstance(committed_figures, dict):
        committed_figures = {}
    scale_block = committed_figures.get(scale.value)
    current_figures: Dict[str, Any] = {}
    for exp_id in figures:
        log(f"[report] regenerating {exp_id} data "
            f"({REGISTRY[exp_id].paper_ref}, scale={scale.value})")
        current_figures[exp_id] = figure_data(exp_id, scale)
    if write:
        merged = dict(committed_figures)
        merged[scale.value] = {**(scale_block or {}), **current_figures}
        _write_json(figures_path, merged)
        outcome.written.append(figures_path)
        scale_block = merged[scale.value]
    for exp_id in figures:
        artifact = f"{GOLDEN_FIGURES}#{scale.value}/{exp_id}"
        committed = (scale_block or {}).get(exp_id)
        _check_artifact(outcome, artifact, committed,
                        current_figures[exp_id], log)

    # -- bench-scale write mode: figure text + EXPERIMENTS.md -----------
    if write and scale is Scale.BENCH:
        results_dir = os.path.join(root, "benchmarks", "results")
        os.makedirs(results_dir, exist_ok=True)
        for exp_id in figures:
            report = run_experiment(exp_id, scale)   # cache-served
            note = REGISTRY[exp_id].shape_note
            path = os.path.join(results_dir, f"{exp_id}.txt")
            with open(path, "w") as fh:
                fh.write(f"{report.text()}\n[expected shape: {note}]\n")
            outcome.written.append(path)
        from repro.harness import experiments_md
        md_path = os.path.join(root, "EXPERIMENTS.md")
        with open(md_path, "w") as fh:
            fh.write(experiments_md.build(results_dir))
        outcome.written.append(md_path)
        log(f"[report] rewrote {len(figures)} figure archives and "
            f"EXPERIMENTS.md")

    status = ("CLEAN" if outcome.ok
              else f"DRIFT ({len(outcome.drifts)} value(s))")
    log(f"[report] {status}: {len(outcome.artifacts)} artifact(s) "
        f"checked" + (f", {len(outcome.written)} written"
                      if outcome.written else ""))
    for drift in outcome.drifts:
        log(drift.line())
    return outcome
