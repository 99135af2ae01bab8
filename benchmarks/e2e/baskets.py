"""The five workloads: what one pass runs and how its outputs are checked.

Four *simulation* workloads are baskets of cells — (machine, app,
processor count) points run through ``Machine.run`` — chosen so that
each is bound by a different layer of the simulator.  The fifth,
``figure_sweep``, regenerates two registry experiments through the
harness the way ``repro-harness run`` does: cold, from a warm cache,
and on the process pool.  README.md gives the reasons in full.

An *operation* is one cell run or one experiment regeneration.  Every
operation yields a sha256 digest (of ``RunResult.summary()`` plus the
event and cycle counts, or of the report text) that must be the same
in every pass and, at the pinned seed, equal to ``expected.json``.
"""

from __future__ import annotations

import gc
import glob
import hashlib
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import make_machine
from repro.harness.cache import ResultCache
from repro.harness.experiments import run_experiment
from repro.harness.parallel import (effective_workers, run_context,
                                    shutdown_pool)
from repro.harness.workloads import Scale, make_app
from repro.ledger import Ledger, ledger_session
from repro.stats.result import RunResult

#: Simulation workloads: name -> cells (machine, app, processors).
BASKETS: Dict[str, Tuple[Tuple[str, str, int], ...]] = {
    "tsp_compute": (("treadmarks", "tsp18", 4), ("as", "tsp19", 16),
                    ("ah", "tsp19", 16)),
    "dsm_locks": (("as", "mwater", 16), ("hs", "mwater", 16),
                  ("treadmarks", "mwater", 8)),
    "dsm_barriers": (("as", "sor_sim", 16), ("hs", "sor_sim", 16),
                     ("treadmarks", "sor_alldirty", 8),
                     ("treadmarks", "ilink_clp", 8)),
    "hw_coherence": (("ah", "mwater", 16), ("ah", "sor_sim", 16),
                     ("sgi", "water", 8), ("sgi", "sor_large", 8)),
}

FIGURES = ("fig3", "fig4")
WARM_REGENERATIONS = 50

WORKLOADS = tuple(BASKETS) + ("figure_sweep",)

#: Microbenchmark groups (see micro.py) of the layers each workload is
#: bound by.  ``tsp_compute`` is bound by application code, which has
#: no primitive to loop over; it carries the engine loops instead.
MICRO_GROUPS: Dict[str, Tuple[str, ...]] = {
    "tsp_compute": ("sim",),
    "dsm_locks": ("dsm", "sim", "net.atm"),
    "dsm_barriers": ("dsm", "mem", "net.atm"),
    "hw_coherence": ("hw", "mem", "net.crossbar"),
    "figure_sweep": ("harness",),
}

#: ``RunResult``/``Counters`` sums reported as work done.
WORK_UNITS = {
    "sim.events": "count", "sim.cycles": "count",
    "net.messages": "count", "net.kbytes": "KiB",
    "dsm.page_faults": "count", "dsm.diffs_created": "count",
    "dsm.write_notices_sent": "count",
    "dsm.remote_lock_acquires": "count", "dsm.barriers": "count",
    "hw.cache_misses": "count", "hw.invalidations": "count",
    "hw.bus_transactions": "count",
}


def cell_name(machine: str, app: str, nprocs: int) -> str:
    """``as-mwater-p16``: the name a cell has in metrics and digests."""
    return f"{machine}-{app}-p{nprocs}"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result: RunResult) -> str:
    """Digest of everything simulated that a speed-up must not move."""
    return _sha256(json.dumps(
        {"summary": result.summary(), "events": result.events,
         "cycles": result.cycles}, sort_keys=True))


def work_done(results: Sequence[RunResult]) -> Dict[str, float]:
    """Sum the work counters of ``results`` under the names above."""
    counters = [r.counters for r in results]
    return {
        "sim.events": sum(r.events for r in results),
        "sim.cycles": sum(r.cycles for r in results),
        "net.messages": sum(c.total_messages for c in counters),
        "net.kbytes": sum(c.total_bytes for c in counters) / 1024.0,
        "dsm.page_faults": sum(c.page_faults for c in counters),
        "dsm.diffs_created": sum(c.diffs_created for c in counters),
        "dsm.write_notices_sent": sum(c.write_notices_sent
                                      for c in counters),
        "dsm.remote_lock_acquires": sum(c.remote_lock_acquires
                                        for c in counters),
        "dsm.barriers": sum(c.barriers for c in counters),
        "hw.cache_misses": sum(c.cache_misses_local + c.cache_misses_remote
                               for c in counters),
        "hw.invalidations": sum(c.invalidations for c in counters),
        "hw.bus_transactions": sum(c.bus_transactions for c in counters),
    }


@dataclass
class Pass:
    """What one pass measured and produced."""

    #: Seconds by wall metric and *part*: ``wall_s`` by cell on a
    #: simulation workload; ``wall_s``, ``warm_wall_s`` and
    #: ``pooled_wall_s`` by figure on ``figure_sweep``.  A pass's wall
    #: is the sum of its parts; the parts are kept apart so that each
    #: can be judged by its fastest pass (see README.md, "Noise").
    walls: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: ``(key into expected.json, digest)`` per operation; the digest
    #: is None when the operation raised.
    ops: List[Tuple[str, Optional[str]]] = field(default_factory=list)
    #: Work counters summed over the pass (must repeat exactly).
    work: Dict[str, float] = field(default_factory=dict)
    #: Harness-derived ratios (``figure_sweep`` only).
    harness: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


class SimBasket:
    """A basket of cells run directly through ``Machine.run``."""

    jobs = 1    # no pool: one process does all the work

    def __init__(self, name: str, seed: int) -> None:
        self.seed = seed
        cells = list(BASKETS[name])
        # The seed fixes the order for the whole run, so passes of one
        # run are comparable while runs at different seeds differ.
        random.Random(seed).shuffle(cells)
        self.cells = [(cell_name(m, a, p), make_machine(m),
                       make_app(a, Scale.BENCH), p) for m, a, p in cells]

    def run_pass(self) -> Pass:
        """Run every cell once; only the runs themselves are timed."""
        out = Pass()
        results = []
        cell_s = out.walls["wall_s"] = {}
        for name, machine, app, nprocs in self.cells:
            # Collect the previous cell's cycles now, not at some point
            # inside the next one: steadier walls and a peak RSS that
            # does not depend on the order of the cells.
            gc.collect()
            start = time.perf_counter()
            try:
                result = machine.run(app, nprocs, seed=self.seed)
            except Exception as exc:    # a failed operation, reported
                result = None
                out.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            cell_s[name] = time.perf_counter() - start
            results.append((name, result))
        for name, result in results:
            out.ops.append((name, result and result_digest(result)))
        out.work = work_done([r for _name, r in results if r is not None])
        return out

    def close(self) -> None:
        """Nothing to release."""


class FigureSweep:
    """``fig3`` + ``fig4`` through cache, ledger and pool."""

    def __init__(self, seed: int, scratch: str) -> None:
        self.scratch = scratch
        self.figures = list(FIGURES)
        # ``run_experiment`` takes no seed (its simulations always run
        # at the harness default, 42); the seed only orders the figures.
        random.Random(seed).shuffle(self.figures)
        self.jobs = min(os.cpu_count() or 1, 4)

    def _regenerate(self, root: str, jobs: int, times: int = 1
                    ) -> Tuple[Dict[str, float], List[Dict[str, str]],
                               ResultCache]:
        """Regenerate every figure ``times`` times against the cache and
        ledger under ``root``; returns (seconds per figure, texts per
        round, cache)."""
        cache = ResultCache(os.path.join(root, "cache"))
        ledger = Ledger(os.path.join(root, "ledger.jsonl"))
        rounds = []
        seconds = dict.fromkeys(self.figures, 0.0)
        # Both scopes, as the CLI opens them: run_context alone drops a
        # still-empty ledger (execute_plan tests it for truth, and an
        # empty Ledger has length 0).
        with ledger_session(ledger), \
                run_context(jobs=jobs, cache=cache, ledger=ledger):
            for _ in range(times):
                texts = {}
                for fig in self.figures:
                    start = time.perf_counter()
                    texts[fig] = run_experiment(fig, Scale.BENCH).text()
                    seconds[fig] += time.perf_counter() - start
                rounds.append(texts)
        return seconds, rounds, cache

    def _leg(self, out: Pass, wall_name: str, root: str, jobs: int,
             times: int, want_hits: bool) -> Optional[ResultCache]:
        """One timed leg; its operations fail together if it raises or
        its cache behaved unlike a cold (warm) one."""
        try:
            gc.collect()
            seconds, rounds, cache = self._regenerate(root, jobs, times)
            served = cache.hits > 0 and cache.misses == 0
            simulated = cache.hits == 0 and cache.misses > 0
            if not (served if want_hits else simulated):
                raise AssertionError(
                    f"cache hits={cache.hits} misses={cache.misses}")
        except Exception as exc:
            out.errors.append(f"{wall_name}: {type(exc).__name__}: {exc}")
            out.ops.extend((fig, None) for fig in self.figures * times)
            return None
        out.walls[wall_name] = seconds
        for texts in rounds:
            out.ops.extend((fig, _sha256(text))
                           for fig, text in texts.items())
        return cache

    def run_pass(self) -> Pass:
        """Cold serial, 50 x warm, cold pooled — each leg timed alone."""
        out = Pass()
        cold_root = tempfile.mkdtemp(prefix="cold-", dir=self.scratch)
        pool_root = tempfile.mkdtemp(prefix="pool-", dir=self.scratch)
        try:
            cold = self._leg(out, "wall_s", cold_root, 1, 1, False)
            warm = self._leg(out, "warm_wall_s", cold_root, 1,
                             WARM_REGENERATIONS, True)
            self._leg(out, "pooled_wall_s", pool_root, self.jobs, 1, False)
            if cold is not None and warm is not None:
                self._derive(out, cold_root, warm)
        finally:
            shutil.rmtree(cold_root, ignore_errors=True)
            shutil.rmtree(pool_root, ignore_errors=True)
        return out

    def _derive(self, out: Pass, cold_root: str, warm: ResultCache) -> None:
        """Work done and harness ratios, read back from what the cold
        leg left on disk (outside every timed region)."""
        results = []
        pattern = os.path.join(cold_root, "cache", "*", "*.json")
        for path in sorted(glob.glob(pattern)):
            with open(path) as fh:
                results.append(RunResult.from_jsonable(
                    json.load(fh)["result"]))
        out.work = work_done(results)
        ledger = Ledger(os.path.join(cold_root, "ledger.jsonl"))
        simulated = sum(record.get("wall_s", 0.0)
                        for record in ledger.records()
                        if record.get("path") == "miss")
        cold_wall = sum(out.walls["wall_s"].values())
        out.harness = {
            "harness.overhead_share": (cold_wall - simulated) / cold_wall,
            "harness.cache_hit_ratio":
                warm.hits / (warm.hits + warm.misses),
            "harness.workers_effective":
                effective_workers(self.jobs, len(results) // len(FIGURES)),
        }

    def close(self) -> None:
        """Stop the pool workers the pooled legs left warm."""
        shutdown_pool()


def build(name: str, seed: int, scratch: str):
    """The workload object for ``name``."""
    if name == "figure_sweep":
        return FigureSweep(seed, scratch)
    return SimBasket(name, seed)


def check(passes: Sequence[Pass], pinned: Optional[Dict[str, str]]
          ) -> Tuple[int, int, List[str], Dict[str, str]]:
    """Count failed operations over ``passes``.

    An operation fails if it raised, or if its digest differs from the
    reference for its key: the pinned digest when there is one, else
    the first digest seen in this run.  Work counters must also repeat
    exactly between passes; that comparison counts as one more
    operation per pass.

    Returns ``(attempted, failed, errors, digests seen first)``.
    """
    reference = dict(pinned or {})
    seen: Dict[str, str] = {}
    attempted = failed = 0
    errors: List[str] = []
    for index, one in enumerate(passes):
        errors.extend(f"pass {index}: {e}" for e in one.errors)
        for key, digest in one.ops:
            attempted += 1
            if digest is None:
                failed += 1
                continue
            seen.setdefault(key, digest)
            if digest != reference.setdefault(key, digest):
                failed += 1
                errors.append(f"pass {index}: {key}: digest {digest[:12]} "
                              f"!= expected {reference[key][:12]}")
        attempted += 1
        if one.work != passes[0].work:
            failed += 1
            errors.append(f"pass {index}: work counters differ from "
                          f"pass 0")
    return attempted, failed, errors, seen
