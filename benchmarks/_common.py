"""Shared benchmark plumbing.

``bench_registry.py`` regenerates one artifact of the paper (a table
or a figure) per test through the experiment registry, times it with
pytest-benchmark, prints the regenerated rows/series, and archives
them under ``benchmarks/results/<exp_id>.txt`` so the output survives
pytest's capture (:func:`bench_experiment`).

Host-time reports (``bench_observers.py``, ``e2e/run.py --record``)
carry :func:`bench_meta` — host, code revision, package/cache
versions, generation time.  Wall-clock numbers are meaningless without
knowing what hardware and which commit produced them.
"""

from __future__ import annotations

import datetime
import os
from typing import Any, Dict

import repro
from repro.harness.experiments import REGISTRY, Report, Scale, run_experiment
from repro.ledger import git_revision, host_meta

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def bench_meta() -> Dict[str, Any]:
    """The provenance stamp a host-time report carries under ``meta``.

    Mirrors the fields a ledger record carries (``code``, ``host``,
    ``repro_version``) so a report can be correlated with the ledger
    records of the runs it timed.
    """
    from repro.harness.cache import CACHE_VERSION
    return {
        "generated_utc": datetime.datetime.now(
            datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "code": git_revision(),
        "host": host_meta(),
        "repro_version": getattr(repro, "__version__", "0"),
        "cache_version": CACHE_VERSION,
    }


def bench_experiment(benchmark, exp_id: str,
                     scale: Scale = Scale.BENCH) -> Report:
    """Run one registry experiment under pytest-benchmark."""
    holder = {}

    def run() -> None:
        holder["report"] = run_experiment(exp_id, scale)

    benchmark.pedantic(run, rounds=1, iterations=1)
    report = holder["report"]
    text = report.text()
    note = REGISTRY[exp_id].shape_note
    body = f"{text}\n[expected shape: {note}]\n"
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{exp_id}.txt")
    with open(path, "w") as fh:
        fh.write(body)
    print()
    print(body)
    return report
