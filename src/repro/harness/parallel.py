"""Parallel, cached execution of independent simulation runs.

The paper's figures are sweeps — one run per (machine, workload,
processor count) — and every run is independent and deterministic.
This module turns a declared grid (:class:`RunPlan`) into results with
three orthogonal accelerations, none of which may change a single
number:

* **fan-out** — independent runs execute in a process pool
  (``jobs > 1``); results are merged back in plan order, so output is
  byte-identical to a serial execution;
* **dedup** — specs with the same content address
  (:func:`~repro.harness.cache.run_key`) execute once per plan; this
  is how a speedup series reuses its 1-processor baseline, and how
  software-DSM variants (user/kernel-level, lazy/eager, any ablation)
  share one baseline run between *machines*;
* **cache** — a :class:`~repro.harness.cache.ResultCache` skips
  already-simulated points across invocations.

Determinism contract
--------------------

``execute_plan(plan, jobs=1)``, ``execute_plan(plan, jobs=N)`` and a
warm-cache execution all return results whose ``summary()``
dictionaries — and derived speedups — are identical (pinned by
``tests/test_parallel.py``).  The only rewrite the layer ever performs
is the machine *display name* on a shared result (a cached TreadMarks
baseline returned for the kernel-level variant reports the variant's
name, exactly as a fresh run would have).

Tracing interacts specially: inside a ``trace_session(trace=True)``
scope, spans must be collected live in this process, so plans execute
serially and bypass the cache (the deduplicated work list is
unchanged, keeping traced and untraced run counts equal, and the
ledger records each run as usual).

Provenance and progress
-----------------------

When a :class:`~repro.ledger.Ledger` is in scope (via
:func:`~repro.ledger.ledger_session` — which ``run_context(ledger=...)``
enters itself — or the ``ledger=`` argument), every unique run of a
plan appends one
append-only provenance record: misses record the simulation (code
version, fingerprints, fault plan, checker arming, wall time), cache
hits record the serve with a ``produced_by`` pointer to the producing
run_id.  The allocated ``run_id`` rides inside the worker via
:func:`~repro.ledger.run_scope`, so the returned ``RunResult`` (and
any metrics line or trace derived from it) carries the same identity
the ledger recorded.

The pool
--------

Fan-out uses one *persistent* pool of warm workers per process: the
first parallel plan pays the interpreter/numpy spawn cost, later
plans reuse the same workers.  Each unique run is one future carrying
its own :class:`RunSpec` — a spec pickles to under 2 KB, so there is
nothing to gain from sharing the plan out of band.  Because warm
workers keep the environment they were forked with, each dispatch
re-ships the ambient knobs that may legally change between plans
(``REPRO_CHECK``).

Worker counts are clamped to physical cores: simulation is CPU-bound,
so extra workers only add pickling and scheduling overhead.  When the
clamp leaves a single worker (small boxes), the plan runs in-process
instead — ``--jobs N`` then costs nothing over serial.

Unless ``quiet``, per-run ``start``/``done`` lines stream to stderr —
workers print their own start lines and the parent prints
completions with wall time and a running done/total count — so long
sweeps are never silent.  All progress lines from a pooled plan are
serialized through one queue drained by a single writer thread in the
parent, so lines never interleave mid-line under load.
"""

from __future__ import annotations

import atexit
import dataclasses
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import (Any, Dict, Hashable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.apps.base import Application
from repro.errors import WorkerCrashError
from repro.harness.cache import ResultCache, run_key
from repro.ledger import (Ledger, active_ledger, ledger_session,
                          run_record, run_scope)
from repro.machines.base import Machine
from repro.stats.result import RunResult, SpeedupSeries
from repro.trace import session as trace_session

#: Environment variables whose ambient values are re-shipped to the
#: persistent pool with every dispatch (warm workers keep the
#: environment they were forked with, so inheritance alone would go
#: stale the moment e.g. a ``checking()`` scope opens or closes).
SHIPPED_ENV = ("REPRO_CHECK",)


@dataclass(frozen=True)
class RunSpec:
    """One simulation point: an app on a machine at a processor count."""

    machine: Machine
    app: Application
    nprocs: int
    seed: int = 42
    params: Optional[Dict[str, Any]] = None

    def key(self) -> str:
        """The spec's content address (dedup + cache lookup)."""
        return run_key(self.machine, self.app, self.nprocs,
                       seed=self.seed, params=self.params)


@dataclass
class RunPlan:
    """An ordered grid of runs; indices are stable result handles.

    ``layout`` is where the plan's builder files those handles under
    its own keys, so whoever reads the results back needs nothing but
    the plan: a registry experiment's ``assemble`` and
    :func:`~repro.harness.runner.run_curves` both read it.
    """

    specs: List[RunSpec] = field(default_factory=list)
    layout: Dict[Hashable, Any] = field(default_factory=dict)

    def add(self, machine: Machine, app: Application, nprocs: int, *,
            seed: int = 42,
            params: Optional[Dict[str, Any]] = None) -> int:
        """Append one run; returns its index into the results list."""
        self.specs.append(RunSpec(machine, app, nprocs,
                                  seed=seed, params=params))
        return len(self.specs) - 1

    def add_series(self, machine: Machine, app: Application,
                   procs: Sequence[int], *, seed: int = 42,
                   params: Optional[Dict[str, Any]] = None) -> List[int]:
        """Append one run per processor count; returns their indices."""
        return [self.add(machine, app, p, seed=seed, params=params)
                for p in procs]

    def curve(self, key: Hashable, machine: Machine, app: Application,
              procs: Sequence[int]) -> None:
        """File a speedup curve under ``key``: the 1-processor base run,
        then one run per count in ``procs`` (the baseline methodology of
        :func:`~repro.harness.runner.run_curves`)."""
        self.layout[key] = ([self.add(machine, app, 1)] +
                            self.add_series(machine, app, procs))

    def series(self, results: Sequence[RunResult]
               ) -> Dict[Hashable, SpeedupSeries]:
        """``{key: series}`` for a plan whose layout holds only curves."""
        out: Dict[Hashable, SpeedupSeries] = {}
        for key, (base_index, *point_indices) in self.layout.items():
            base = results[base_index]
            out[key] = SpeedupSeries(
                base.machine, base.app, base.seconds,
                [results[index] for index in point_indices])
        return out

    def __len__(self) -> int:
        return len(self.specs)


# ======================================================================
# Ambient execution context
# ======================================================================
@dataclass
class RunContext:
    """Execution defaults installed by the CLI (or tests).

    ``quiet`` defaults to True for library/test use; the CLI flips it
    so interactive sweeps stream per-run progress by default
    (suppressed again with ``--quiet``).
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None
    quiet: bool = True


_CONTEXT_STACK: List[RunContext] = []


@contextmanager
def run_context(*, jobs: int = 1,
                cache: Optional[ResultCache] = None,
                ledger: Optional[Ledger] = None,
                quiet: bool = True) -> Iterator[RunContext]:
    """Scope within which plans default to ``jobs`` workers + ``cache``.

    The experiment registry calls :func:`execute_plan` without
    threading options through every experiment; the CLI installs
    one context around a whole command instead.  ``ledger`` opens a
    :func:`~repro.ledger.ledger_session` for the scope: every plan
    inside appends one provenance record per unique run.
    """
    ctx = RunContext(jobs=jobs, cache=cache, quiet=quiet)
    _CONTEXT_STACK.append(ctx)
    try:
        with ledger_session(ledger):
            yield ctx
    finally:
        _CONTEXT_STACK.pop()


def current_context() -> RunContext:
    """The innermost active context (a serial default otherwise)."""
    return _CONTEXT_STACK[-1] if _CONTEXT_STACK else RunContext()


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value (None = ambient, 0 = all cores)."""
    if jobs is None:
        jobs = current_context().jobs
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


# ======================================================================
# The persistent worker pool
# ======================================================================
def _cpu_count() -> int:
    return os.cpu_count() or 1


def effective_workers(jobs: int, nwork: int) -> int:
    """Worker processes a plan will actually use.

    ``jobs`` is clamped to the number of unique runs and to physical
    cores — CPU-bound simulations gain nothing from oversubscription,
    they only pay extra transfer and context switching.  A result of
    1 means the plan runs in-process (no pool at all).
    """
    return max(1, min(jobs, nwork, _cpu_count()))


_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_PROGRESS_QUEUE: Optional[Any] = None
_DRAIN_THREAD: Optional[threading.Thread] = None
_WORKER_QUEUE: Optional[Any] = None   # set in workers by _init_worker


def _progress_write(line: str) -> None:
    """Emit one progress line through the single-writer channel.

    In a pool worker this enqueues to the parent's drain thread; in
    the parent (serial path, plan summaries) it enqueues too when the
    queue exists, so worker and parent lines share one writer and
    never interleave mid-line.  Before any pool has been created the
    line goes straight to stderr.
    """
    queue = _WORKER_QUEUE or _PROGRESS_QUEUE
    if queue is not None:
        queue.put(line)
    else:
        sys.stderr.write(line)
        sys.stderr.flush()


def _drain_progress(queue: Any) -> None:
    while True:
        line = queue.get()
        if line is None:
            return
        sys.stderr.write(line)
        sys.stderr.flush()


def _init_worker(queue: Any) -> None:
    global _WORKER_QUEUE
    _WORKER_QUEUE = queue


def _ensure_pool(workers: int) -> ProcessPoolExecutor:
    """The shared warm pool, (re)built only when it must grow."""
    global _POOL, _POOL_WORKERS, _PROGRESS_QUEUE, _DRAIN_THREAD
    if _POOL is not None and _POOL_WORKERS >= workers:
        return _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=True)
    ctx = get_context()
    if _PROGRESS_QUEUE is None:
        _PROGRESS_QUEUE = ctx.Queue()
        _DRAIN_THREAD = threading.Thread(
            target=_drain_progress, args=(_PROGRESS_QUEUE,),
            daemon=True)
        _DRAIN_THREAD.start()
    _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=ctx,
                                initializer=_init_worker,
                                initargs=(_PROGRESS_QUEUE,))
    _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (idempotent).

    Registered atexit; also the recovery path when a worker dies and
    breaks the executor.  Stops the progress drain thread too, so
    interpreter shutdown never catches it mid-``get``.
    """
    global _POOL, _POOL_WORKERS, _PROGRESS_QUEUE, _DRAIN_THREAD
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0
    if _PROGRESS_QUEUE is not None:
        _PROGRESS_QUEUE.put(None)
        if _DRAIN_THREAD is not None:
            _DRAIN_THREAD.join(timeout=2)
        _PROGRESS_QUEUE.close()
        _PROGRESS_QUEUE = None
        _DRAIN_THREAD = None


atexit.register(shutdown_pool)


# ======================================================================
# Execution
# ======================================================================
def _spec_label(spec: RunSpec) -> str:
    return f"{spec.machine.name}/{spec.app.name}/p{spec.nprocs}"


def _run_spec(spec: RunSpec, run_id: Optional[str] = None,
              announce: bool = False,
              traced: bool = False) -> Tuple[RunResult, float]:
    """Execute one spec; returns ``(result, wall_seconds)``.

    Runs inside ``run_scope(run_id)`` so the result — whether produced
    here in the parent or in a pool worker — is stamped with the
    ledger identity the parent allocated.  Session auto-record is
    suppressed (the plan layer records results itself, in plan order)
    unless ``traced``: a live tracing session needs ``Machine.run`` to
    record each (result, tracer) pair.  ``announce`` prints a start
    line to stderr; in the pool that line comes from the worker,
    marking *actual* start rather than submission.
    """
    if announce:
        _progress_write(f"[run {run_id or '-'}] start "
                        f"{_spec_label(spec)} pid={os.getpid()}\n")
    start = time.perf_counter()
    with (nullcontext() if traced
          else trace_session.no_session()), run_scope(run_id):
        result = spec.machine.run(spec.app, spec.nprocs,
                                  seed=spec.seed, params=spec.params)
    return result, time.perf_counter() - start


def _run_spec_in_worker(spec: RunSpec, run_id: Optional[str],
                        env: Dict[str, Optional[str]],
                        announce: bool) -> Tuple[RunResult, float]:
    """Pool entry point: re-apply the shipped environment, run one spec."""
    for key, value in env.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    return _run_spec(spec, run_id, announce)


def _localize(result: RunResult, spec: RunSpec) -> RunResult:
    """Stamp a shared/cached result with the requesting machine's name."""
    if result.machine == spec.machine.name:
        return result
    return dataclasses.replace(result, machine=spec.machine.name)


#: Isolated attempts a spec gets after a worker crash before it is
#: quarantined and the plan fails with :class:`WorkerCrashError`.
MAX_WORKER_RETRIES = 3


def _execute_pooled(work: Sequence[Tuple[str, RunSpec]],
                    run_id_of: Any, produced: Dict[str, RunResult],
                    walls: Dict[str, float], progress_done: Any,
                    workers: int, on_worker_crash: Any,
                    announce: bool) -> None:
    """Run the work list on the persistent pool, one future per spec.

    Results are merged under their content keys as futures complete.

    The pool self-heals: a worker dying (OOM kill, segfault, an
    ``os._exit`` in application code) poisons the whole executor, so
    the broken pool is torn down, a fresh one is spawned, and every
    run that had not reported back is retried *alone* — one spec in
    flight at a time — which both re-runs the innocent casualties of
    the broken pool and isolates the culprit.  A spec that keeps
    killing workers is quarantined after :data:`MAX_WORKER_RETRIES`
    isolated attempts and the plan fails with
    :class:`~repro.errors.WorkerCrashError` naming it; each failed
    attempt is reported through ``on_worker_crash(key, spec, error)``
    so the provenance ledger records attempts that produced no result.
    """
    env = {name: os.environ.get(name) for name in SHIPPED_ENV}

    def submit(i: int) -> Any:
        key, spec = work[i]
        return _ensure_pool(workers).submit(
            _run_spec_in_worker, spec, run_id_of(key), env, announce)

    def merge(i: int, result: RunResult, wall: float) -> None:
        key, spec = work[i]
        produced[key] = result
        walls[key] = wall
        progress_done(key, spec)

    futures: Dict[Any, int] = {}
    try:
        for i in range(len(work)):
            futures[submit(i)] = i
    except BrokenProcessPool:
        pass  # a worker died mid-submission; the retry pass takes the rest
    for future in as_completed(futures):
        try:
            merge(futures[future], *future.result())
        except BrokenProcessPool:
            pass  # handled by the retry pass

    remaining = [i for i, (key, _spec) in enumerate(work)
                 if key not in produced]
    if not remaining:
        return
    shutdown_pool()  # only a broken pool leaves work behind
    quarantined: List[str] = []
    for i in remaining:
        key, spec = work[i]
        for attempt in range(1, MAX_WORKER_RETRIES + 1):
            try:
                merge(i, *submit(i).result())
                break
            except BrokenProcessPool:
                shutdown_pool()
                on_worker_crash(
                    key, spec,
                    f"worker process died (isolated attempt "
                    f"{attempt}/{MAX_WORKER_RETRIES})")
        else:
            quarantined.append(_spec_label(spec))
    if quarantined:
        raise WorkerCrashError(quarantined, MAX_WORKER_RETRIES)


def execute_plan(plan: RunPlan, *, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 ledger: Optional[Ledger] = None,
                 quiet: Optional[bool] = None) -> List[RunResult]:
    """Execute every spec of ``plan``; results in plan order.

    ``jobs``/``cache``/``quiet`` default to the ambient
    :func:`run_context`, ``ledger`` to the ambient
    :func:`~repro.ledger.ledger_session`.  Inside a
    metrics-collecting session, exactly one result per *unique* run is
    recorded, in plan order — identical whether the run executed
    serially, in the pool, or came from the cache.
    """
    specs = plan.specs
    if not specs:
        return []
    keys = [spec.key() for spec in specs]

    session = trace_session.active_session()
    traced = session is not None and session.trace

    context = current_context()
    jobs = resolve_jobs(jobs)
    if traced:
        jobs, cache = 1, None     # spans are collected live, here
    elif cache is None:
        cache = context.cache
    if ledger is None:
        ledger = active_ledger()
    if quiet is None:
        quiet = context.quiet
    plan_start = time.perf_counter()

    results: List[Optional[RunResult]] = [None] * len(specs)
    unique_order: List[str] = []          # first-appearance key order
    first_index: Dict[str, int] = {}      # key -> first spec index
    pending: Dict[str, List[int]] = {}    # key -> spec indices to run
    produced: Dict[str, RunResult] = {}   # key -> canonical result
    hit_keys: List[str] = []

    for i, key in enumerate(keys):
        if key not in pending:
            unique_order.append(key)
            first_index[key] = i
            pending[key] = []
            if cache is not None:
                hit = cache.get(key)
                if hit is not None:
                    produced[key] = hit
                    hit_keys.append(key)
        if key not in produced:
            pending[key].append(i)

    work: List[Tuple[str, RunSpec]] = [
        (key, specs[indices[0]])
        for key, indices in pending.items() if indices]

    # Ledger identities: a cache hit is an attempt like any other —
    # it appends immediately, pointing at the producing run_id, and
    # the served result is re-stamped with the hit's own identity.
    # Misses get their run_id *before* execution so it rides into the
    # worker (run_scope) and onto the RunResult.
    assigned: Dict[str, Tuple[str, int]] = {}
    if ledger is not None:
        for key in hit_keys:
            hit = produced[key]
            hit_id, attempt = ledger.next_run_id(key)
            spec = specs[first_index[key]]
            ledger.append(run_record(
                run_id=hit_id, key=key, attempt=attempt,
                machine=spec.machine, app=spec.app, nprocs=spec.nprocs,
                seed=spec.seed, params=spec.params, result=hit,
                path="hit", executor="cache",
                produced_by=hit.run_id))
            produced[key] = dataclasses.replace(hit, run_id=hit_id)
        for key, _spec in work:
            assigned[key] = ledger.next_run_id(key)

    total = len(work)
    done = 0
    walls: Dict[str, float] = {}

    def run_id_of(key: str) -> Optional[str]:
        return assigned[key][0] if key in assigned else None

    def progress_done(key: str, spec: RunSpec) -> None:
        nonlocal done
        done += 1
        if not quiet:
            _progress_write(f"[run {run_id_of(key) or '-'}] done "
                            f"{_spec_label(spec)} "
                            f"wall={walls[key]:.2f}s "
                            f"({done}/{total})\n")

    def on_worker_crash(key: str, spec: RunSpec, error: str) -> None:
        # A crashed worker produced no RunResult, but the attempt
        # still happened: append a result-less record so the ledger's
        # attempt chain shows the failures leading to the retry (or to
        # quarantine).  The eventual successful retry keeps the run_id
        # originally assigned to this key.
        if ledger is None:
            return
        crash_id, attempt = ledger.next_run_id(key)
        ledger.append(run_record(
            run_id=crash_id, key=key, attempt=attempt,
            machine=spec.machine, app=spec.app, nprocs=spec.nprocs,
            seed=spec.seed, params=spec.params, result=None,
            path="worker-crash", executor="pool", error=error))

    workers = effective_workers(jobs, len(work))
    pooled = workers > 1
    if pooled:
        _execute_pooled(work, run_id_of, produced, walls, progress_done,
                        workers, on_worker_crash, announce=not quiet)
    else:
        for key, spec in work:
            produced[key], walls[key] = _run_spec(
                spec, run_id_of(key), announce=not quiet, traced=traced)
            progress_done(key, spec)

    if cache is not None:
        for key, _spec in work:
            cache.put(key, produced[key])
    if ledger is not None:
        for key, spec in work:
            miss_id, attempt = assigned[key]
            ledger.append(run_record(
                run_id=miss_id, key=key, attempt=attempt,
                machine=spec.machine, app=spec.app, nprocs=spec.nprocs,
                seed=spec.seed, params=spec.params,
                result=produced[key],
                path="miss" if cache is not None else "fresh",
                executor="pool" if pooled else "serial",
                wall_s=walls[key]))

    if not quiet:
        unique = len(unique_order)
        hit_pct = 100.0 * len(hit_keys) / unique if unique else 0.0
        _progress_write(f"[plan] specs={len(specs)} unique={unique} "
                        f"executed={total} cache_hits={len(hit_keys)} "
                        f"({hit_pct:.0f}%) jobs={jobs} "
                        f"workers={workers} "
                        f"wall={time.perf_counter() - plan_start:.2f}s\n")

    for i, key in enumerate(keys):
        results[i] = _localize(produced[key], specs[i])

    if session is not None and not traced:
        for key in unique_order:
            session.record(results[first_index[key]], None)

    return results  # type: ignore[return-value]

