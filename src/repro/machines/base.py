"""Machine base class and the runtime/operation dispatch skeleton.

A :class:`Machine` is a reusable description of a platform.  Each call
to :meth:`Machine.run` builds a fresh engine, address space, store and
*runtime* (the per-run :class:`~repro.sim.task.OpHandler`), executes
the application's processor programs to completion, and returns a
:class:`~repro.stats.result.RunResult`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from typing import Any, Callable, Dict, Optional

from repro.ablate import AblationSpecLike, parse_ablation
from repro.apps.base import AppContext, Application
from repro.apps import ops
from repro.check.checker import active_check_config
from repro.dsm.bound import BoundMode, SharedBound
from repro.errors import ConfigurationError, SimulationError
from repro.ledger import current_run_id, run_scope
from repro.mem.layout import AddressSpace, Geometry
from repro.mem.store import SharedStore
from repro.net.faults import FaultPlan
from repro.sim.engine import Engine
from repro.sim.task import OpHandler, ProcTask
from repro.stats.counters import Counters
from repro.stats.result import RunResult
from repro.sync import SyncSpec, parse_sync
from repro.trace import session as trace_session
from repro.trace.opmap import op_category
from repro.trace.tracer import Category, Tracer


class Runtime(OpHandler):
    """Per-run operation dispatcher; machines subclass this."""

    def __init__(self, engine: Engine, space: AddressSpace,
                 counters: Counters, nprocs: int, *,
                 bound_mode: BoundMode,
                 bound_push_latency: int = 0) -> None:
        self.engine = engine
        self.space = space
        self.counters = counters
        self.nprocs = nprocs
        self.bound = SharedBound(bound_mode, nprocs,
                                 push_latency_cycles=bound_push_latency)
        #: Set by software machines when the fault plan schedules
        #: crashes; :meth:`Machine.run` reads the degraded verdict off
        #: it after the engine drains.
        self.recovery = None

    # ------------------------------------------------------------------
    def handle(self, task: ProcTask, op: Any) -> None:
        """Dispatch one application op to the machine-specific hook."""
        if type(op) is ops.OpBlock:
            # ProcTask unrolls chunks member-by-member before dispatch
            # (see repro.sim.task); a block reaching the runtime means
            # a custom task skipped that layer.
            raise SimulationError(
                "OpBlock must be issued through ProcTask's chunked "
                "scheduler, not handed to the runtime directly")
        tracer = self.engine.tracer
        if tracer.enabled:
            category, name = op_category(op)
            tracer.begin_op(task.proc_id, category, name,
                            self.engine.now)
        if isinstance(op, ops.Compute):
            task.busy_cycles += op.cycles
            task.resume(self.engine.now + op.cycles)
        elif isinstance(op, ops.Read):
            addr, nbytes = self.space.span(op.region, op.offset, op.nbytes)
            self.do_read(task, addr, nbytes)
        elif isinstance(op, ops.Write):
            addr, nbytes = self.space.span(op.region, op.offset, op.nbytes)
            self.do_write(task, addr, nbytes, op.changed_bytes)
        elif isinstance(op, ops.Acquire):
            self.do_acquire(task, op.lock)
        elif isinstance(op, ops.Release):
            self.do_release(task, op.lock)
        elif isinstance(op, ops.Barrier):
            self.do_barrier(task, op.barrier_id)
        elif isinstance(op, ops.ReadBound):
            value = self.bound.read(task.proc_id, self.engine.now)
            task.resume(self.engine.now + 1, value)
        elif isinstance(op, ops.UpdateBound):
            improved = self.bound.update(task.proc_id, op.value,
                                         self.engine.now)
            task.resume(self.engine.now + 1, improved)
        else:
            raise SimulationError(f"unknown operation {op!r}")

    # -- abstract memory/sync hooks -------------------------------------
    def do_read(self, task: ProcTask, addr: int, nbytes: int) -> None:
        """Serve a shared read; resume ``task`` when the data is local."""
        raise NotImplementedError

    def do_write(self, task: ProcTask, addr: int, nbytes: int,
                 changed_bytes: int) -> None:
        """Apply a shared write (``changed_bytes`` of it actually new)."""
        raise NotImplementedError

    def do_acquire(self, task: ProcTask, lock: int) -> None:
        """Acquire ``lock``; resume ``task`` once granted."""
        raise NotImplementedError

    def do_release(self, task: ProcTask, lock: int) -> None:
        """Release ``lock`` (consistency actions ride along here)."""
        raise NotImplementedError

    def do_barrier(self, task: ProcTask, barrier_id: int) -> None:
        """Enter a global barrier; resume ``task`` at departure."""
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------
    def sync_point(self, proc: int, time: int) -> None:
        """Record a consistency sync point (bound visibility catches up)."""
        self.bound.on_sync(proc, time)

    def then_sync_point(self, task: ProcTask) -> Callable[..., None]:
        """Continuation of a DSM sync operation: ``cb(time, ...)``
        records the sync point for ``task``'s processor, resumes it."""
        proc = task.proc_id

        def synced(time: int, _remote: bool = False) -> None:
            self.sync_point(proc, time)
            task.resume(time)

        return synced

    def finish_run(self) -> None:
        """Hook for end-of-run bookkeeping (optional)."""


def fingerprint_value(value: Any) -> Any:
    """Recursively reduce a parameter value to stable, JSON-safe data.

    Dataclasses (machine params, nested timing/overhead structures)
    become field dictionaries, enums their values, sets sorted lists.
    Anything exotic falls back to ``repr`` — stable across processes,
    which is all a fingerprint needs.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: fingerprint_value(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return [type(value).__name__, value.value]
    if isinstance(value, dict):
        return {str(k): fingerprint_value(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [fingerprint_value(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((fingerprint_value(v) for v in value), key=str)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):
        return value.item()
    return repr(value)


class HardwareRuntime(Runtime):
    """Operation dispatch for the hardware-coherent machines (AH, SGI).

    ``coherence`` is the protocol every access goes through (a
    :class:`~repro.hw.directory.DirectorySystem` or a
    :class:`~repro.hw.snoop.SnoopingSystem`: ``read`` / ``write`` over
    a line span, returning the completion time); locks and barriers
    are the shared-memory gadgets of :func:`~repro.hw.sync.make_hw_sync`.
    ``miss_span`` names the trace span of an access that took time
    (``"dir"`` → ``dir_read`` / ``dir_write``); the bus traces its own
    transactions, so the snooping machine passes none.
    """

    def __init__(self, engine: Engine, space: AddressSpace,
                 counters: Counters, nprocs: int, *,
                 coherence, locks, barrier,
                 miss_span: Optional[str] = None) -> None:
        super().__init__(engine, space, counters, nprocs,
                         bound_mode=BoundMode.HARDWARE)
        self.coherence = coherence
        self.locks = locks
        self.barrier = barrier
        self.miss_span = miss_span

    def do_read(self, task: ProcTask, addr: int, nbytes: int) -> None:
        """Read through the cache; misses go to the coherence protocol."""
        first, last = self.space.geometry.line_span(addr, nbytes)
        now = self.engine.now
        end = self.coherence.read(task.proc_id, first, last, now)
        tracer = self.engine.tracer
        if tracer.enabled and end > now and self.miss_span:
            tracer.complete(task.proc_id, Category.MISS,
                            f"{self.miss_span}_read", now, end,
                            track=f"p{task.proc_id}.mem")
        task.resume(end)

    def do_write(self, task: ProcTask, addr: int, nbytes: int,
                 changed_bytes: int) -> None:
        """Write through the cache; other copies are invalidated."""
        # Hardware moves whole lines regardless of how many bytes
        # actually changed — the §2.4.2 SOR asymmetry.
        first, last = self.space.geometry.line_span(addr, nbytes)
        now = self.engine.now
        end = self.coherence.write(task.proc_id, first, last, now)
        tracer = self.engine.tracer
        if tracer.enabled and end > now and self.miss_span:
            tracer.complete(task.proc_id, Category.MISS,
                            f"{self.miss_span}_write", now, end,
                            track=f"p{task.proc_id}.mem")
        task.resume(end)

    def do_acquire(self, task: ProcTask, lock: int) -> None:
        """Acquire through the hardware lock table."""
        self.counters.lock_acquires += 1
        self.locks.acquire(lock, task.proc_id, task.resume)

    def do_release(self, task: ProcTask, lock: int) -> None:
        """Release at the lock table; the waiter queue hands off."""
        self.locks.release(lock, task.proc_id, task.resume)

    def do_barrier(self, task: ProcTask, barrier_id: int) -> None:
        """Arrive at the hardware barrier counter."""
        self.barrier.arrive(barrier_id, task.proc_id, task.resume)

    def finish_run(self) -> None:
        """Fold barrier counts into counters; close the checker."""
        self.counters.barriers = self.barrier.completed
        if self.coherence.checker is not None:
            self.coherence.checker.finish()


class Machine:
    """A platform that can run applications; subclasses configure it.

    A machine is its configuration (:meth:`config_data`) plus a value
    on each *variant axis*: ``eager_locks``, ``sync``
    (:class:`~repro.sync.SyncPolicy`), ``ablate``
    (:class:`~repro.ablate.AblationSpec`), ``faults``
    (:class:`~repro.net.faults.FaultPlan`).  A default value is the
    paper's protocol and leaves name and cache key untouched; any
    other suffixes the name and forks the key.  That rule lives here
    only: :meth:`variants` decides, ``__init__`` and
    :meth:`fingerprint_data` apply.
    """

    #: True where coherence runs over the software DSM (treadmarks,
    #: as, hs).  The other machines have no DSM to ablate, no message
    #: path to fault, and take only the ``sync`` axis.
    software_dsm: bool = False

    #: No-progress window (sim cycles) for the engine watchdog; set
    #: under an enabled fault plan so a lossy run that stops making
    #: progress fails diagnosably instead of hanging.
    watchdog_cycles: Optional[int] = None

    def __init__(self, base_name: str, *,
                 faults: Optional[FaultPlan] = None,
                 sync: SyncSpec = None,
                 ablate: AblationSpecLike = None,
                 eager_locks=None) -> None:
        self.last_runtime: Optional[Runtime] = None
        #: Display name before any variant suffix (``as``, ``hs8``).
        self.base_name = base_name
        self.eager_locks = eager_locks
        self.sync = parse_sync(sync)
        self.ablate = parse_ablation(ablate)
        self.faults = FaultPlan() if faults is None else faults
        self.name = base_name
        for axis, spec in self.variants().items():
            label = "eager" if axis == "eager_locks" else spec.label()
            if axis != "sync" and not self.software_dsm:
                raise ConfigurationError(
                    f"{base_name} keeps coherence in hardware: "
                    f"{axis}={label} applies only to the software DSM "
                    f"machines (treadmarks, as, hs)")
            self.name += f"-{label}"
            if axis == "faults":
                self.watchdog_cycles = spec.watchdog_cycles

    # -- transport --------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Pickle the machine *description* only."""
        # ``last_runtime`` holds a whole simulation (engine, generator
        # tasks) — unpicklable and irrelevant to a machine *description*.
        # Dropping it keeps machines transportable to worker processes.
        state = dict(self.__dict__)
        state["last_runtime"] = None
        return state

    # -- identity ---------------------------------------------------------
    def variants(self) -> Dict[str, Any]:
        """The non-default axes, ``axis -> spec``, in name-suffix order.

        A disabled fault plan, the token+central policy and the all-on
        ablation spec are the paper's protocol and behave exactly like
        passing nothing, so they must share cache entries with the
        plain machine (zero overhead when disabled); any other value
        changes message flows and must fork the key.
        """
        found = {"eager_locks": self.eager_locks} if self.eager_locks else {}
        for axis in ("sync", "ablate", "faults"):
            spec = getattr(self, axis)
            if not spec.is_default:
                found[axis] = spec
        return found

    def config_data(self, baseline: bool) -> Dict[str, Any]:
        """Everything but the variants that identifies the machine.

        The default covers machines fully described by a ``params``
        dataclass (SGI, AH, HS); a subclass with other
        behaviour-affecting state must override and include it, or
        distinct configurations alias in the result cache.
        ``baseline``: see :meth:`fingerprint_data`.
        """
        data: Dict[str, Any] = {
            "class": type(self).__qualname__,
            "name": self.base_name if baseline else self.name,
        }
        params = getattr(self, "params", None)
        if params is not None:
            data["params"] = fingerprint_value(params)
        return data

    def fingerprint_data(self, nprocs: Optional[int] = None
                         ) -> Dict[str, Any]:
        """Stable data identifying this machine's simulated behaviour.

        At one processor a software machine is one DSM node: no
        message is sent, no lock token moves, no diff is made, so no
        variant can affect the run.  That *baseline* fingerprint
        carries no variant and the unsuffixed name, and all variants
        of a machine share one cached baseline run.  The hardware
        machines synchronize through their policy even alone.
        """
        baseline = self.software_dsm and nprocs == 1
        data = self.config_data(baseline)
        if not baseline:
            for axis, spec in self.variants().items():
                data[axis] = fingerprint_value(spec)
        check_cfg = active_check_config()
        if check_cfg is not None:
            # Checked runs are timing-identical to clean ones, but a
            # cached result would skip the checkers entirely; fork the
            # key so "run with checks" always actually checks.
            data["check"] = check_cfg.label()
        return data

    def fingerprint(self, nprocs: Optional[int] = None) -> str:
        """Hex digest of :meth:`fingerprint_data` (cache-key component)."""
        payload = json.dumps(self.fingerprint_data(nprocs),
                             sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- abstract configuration -----------------------------------------
    @property
    def clock_hz(self) -> float:
        """Processor clock rate (cycles <-> seconds conversions)."""
        raise NotImplementedError

    def geometry(self) -> Geometry:
        """Page/line geometry the address space is laid out with."""
        raise NotImplementedError

    def max_procs(self) -> int:
        """Largest processor count this machine is defined for."""
        return 1024

    def build_runtime(self, engine: Engine, space: AddressSpace,
                      counters: Counters, nprocs: int) -> Runtime:
        """Construct the full simulated system for one run."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def run(self, app: Application, nprocs: int, *,
            seed: int = 42,
            params: Optional[Dict[str, Any]] = None,
            tracer: Optional[Tracer] = None) -> RunResult:
        """Execute ``app`` on ``nprocs`` processors; returns results.

        Pass a :class:`~repro.trace.tracer.Tracer` to collect spans
        and a time breakdown; inside an active
        :func:`~repro.trace.session.trace_session`, one is supplied
        (and the result collected) automatically.
        """
        app.check_nprocs(nprocs)
        if nprocs > self.max_procs():
            raise ConfigurationError(
                f"{self.name} supports at most {self.max_procs()} "
                f"processors, requested {nprocs}")

        session = trace_session.active_session()
        if tracer is None and session is not None:
            tracer = session.new_tracer(
                f"{self.name}/{app.name}/p{nprocs}")

        # Provenance: the plan layer allocates this run's ledger
        # identity (in this process or a pool worker) and appends the
        # record; the run only carries the id (None outside a plan).
        run_id = current_run_id()

        engine = Engine(tracer=tracer)
        engine.watchdog_cycles = self.watchdog_cycles
        space = AddressSpace(self.geometry())
        for region_name, size in app.regions(nprocs).items():
            space.alloc(region_name, size)
        store = SharedStore(space)
        counters = Counters()

        ctx = AppContext(store, nprocs, seed=seed, params=dict(params or {}))
        app.init_data(ctx)

        runtime = self.build_runtime(engine, space, counters, nprocs)
        self.last_runtime = runtime
        recovery = getattr(runtime, "recovery", None)
        if recovery is not None:
            # Crash declarations repair the DSM stack; the application
            # hook lets the workload retire the dead procs' share of
            # its run state too (work-queue termination counts etc.).
            recovery.app_hooks.append(
                lambda node, procs, _now: app.on_node_failed(ctx, procs))

        programs = app.programs(ctx)
        if len(programs) != nprocs:
            raise ConfigurationError(
                f"{app.name} produced {len(programs)} programs for "
                f"{nprocs} processors")
        tasks = [ProcTask(engine, p, gen, runtime)
                 for p, gen in enumerate(programs)]
        for task in tasks:
            task.start()
        with run_scope(run_id):
            # Anything raised in here — notably ConsistencyViolation
            # from an armed checker — captures the ambient run_id.
            engine.run()
            runtime.finish_run()

        cycles = max((t.finish_time or 0) for t in tasks)
        degraded = recovery.degraded_info() if recovery is not None else None
        if degraded is not None:
            # Tell the application's verifier which nodes died so it
            # can apply degraded-mode acceptance (a crashed worker's
            # partial contribution is legitimately absent).
            ctx.params["_failed_nodes"] = list(degraded["failed_nodes"])
        output = app.verify(ctx)
        output.update(ctx.output)
        breakdown = None
        if tracer is not None and tracer.enabled:
            breakdown = tracer.finish(
                cycles, nprocs, self.clock_hz,
                machine=self.name, app=app.name,
                **({"run_id": run_id} if run_id is not None else {}))
        result = RunResult(
            machine=self.name,
            app=app.name,
            nprocs=nprocs,
            cycles=cycles,
            clock_hz=self.clock_hz,
            counters=counters,
            app_output=output,
            params={"seed": seed, **(params or {})},
            events=engine.events_processed,
            breakdown=breakdown,
            run_id=run_id,
            degraded=degraded,
        )
        if session is not None:
            session.record(result, tracer)
        return result

    def __repr__(self) -> str:
        return f"<{type(self).__name__} '{self.name}'>"
