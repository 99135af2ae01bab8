"""Detection and repair orchestration for crash-stop node failures.

One :class:`RecoveryManager` is built per run (by the software
machines, when the fault plan carries crashes).  It owns the timeline
of each failure:

1. **Crash** (``CrashEvent.at``): the node's processors are killed
   mid-program and its host stops acknowledging frames.  Nothing else
   happens yet — survivors only ever learn about the crash through
   the network.
2. **Suspicion**: a survivor's retransmission chain to the dead host
   exhausts its retry budget.  The reliable layer asks
   :meth:`RecoveryManager.on_suspect` instead of raising
   :class:`~repro.errors.NetworkPartitionError`; if the destination
   really did crash, the failure is *declared*.  A keepalive backstop
   (``plan.detect_cycles`` after the crash) bounds detection latency
   even when no survivor happens to be talking to the dead node.
3. **Declaration** (:meth:`_declare`): idempotent repair of the whole
   software stack, delegated to
   :meth:`~repro.dsm.protocol.TreadMarksDsm.fail_node` — seal vector
   clocks, repair lock records, re-home or write off pages, shrink
   barrier membership — then the :class:`NodeFailure` record is
   appended and a :attr:`Category.RECOVERY
   <repro.trace.tracer.Category>` span covers crash→declaration.

The manager's :meth:`degraded_info` becomes
:attr:`RunResult.degraded <repro.stats.result.RunResult.degraded>`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.net.faults import CrashEvent, FaultPlan
from repro.trace.tracer import Category


@dataclass(frozen=True)
class NodeFailure:
    """One detected crash-stop failure, with its detection latency.

    ``via`` records which path declared the node dead:
    ``"timeout"`` (a retransmission chain exhausted its budget
    against the dead host) or ``"keepalive"`` (the
    ``detect_cycles`` backstop fired first).
    """

    node: int
    crashed_at: int
    detected_at: int
    via: str
    detail: str = ""

    @property
    def detection_cycles(self) -> int:
        """Cycles between the crash and its declaration."""
        return self.detected_at - self.crashed_at


class RecoveryManager:
    """Per-run failure detector and repair coordinator.

    Built by a software machine's ``build_runtime`` when the fault
    plan schedules crashes; hardware machines reject crash plans
    outright (there is no software recovery path to model).
    """

    def __init__(self, engine: Any, net: Any, dsm: Any,
                 plan: FaultPlan, counters: Any,
                 procs_of: Callable[[int], Sequence[int]]) -> None:
        self.engine = engine
        self.net = net
        self.dsm = dsm
        self.plan = plan
        self.counters = counters
        self.procs_of = procs_of
        #: Nodes whose crash time has passed (host may still look up
        #: until survivors notice).
        self.crashed: set = set()
        #: Nodes declared dead — repair has run, membership is n−1.
        self.dead: set = set()
        self.failures: List[NodeFailure] = []
        #: Application-level repair callbacks ``fn(node, procs, now)``,
        #: run after the DSM stack repair of each declaration.  The
        #: machine registers one per run so the application can retire
        #: a dead worker's contribution to shared run state (e.g.
        #: TSP's active-worker count) — without it, survivors of apps
        #: with work-stealing termination protocols would wait forever
        #: for the dead worker's work to finish.
        self.app_hooks: List[Callable[[int, Sequence[int], int],
                                      None]] = []

    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Schedule every crash and its keepalive backstop."""
        for crash in self.plan.crashes:
            self.engine.schedule_at(crash.at, self._crash, crash)
            self.engine.schedule_at(crash.at + self.plan.detect_cycles,
                                    self._keepalive, crash)

    # ------------------------------------------------------------------
    def _crash(self, crash: CrashEvent) -> None:
        """The node dies: halt its processors, go silent on the wire."""
        now = self.engine.now
        self.crashed.add(crash.node)
        victims = set(self.procs_of(crash.node))
        for task in self.engine.tasks:
            if task.proc_id in victims:
                task.kill(now)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant(crash.node, Category.RECOVERY, "node_crash",
                           now, track=f"node{crash.node}.sw",
                           procs=len(victims))

    def _keepalive(self, crash: CrashEvent) -> None:
        """Backstop detection: declare the crash if nothing else did."""
        if crash.node not in self.dead:
            self._declare(crash.node, self.engine.now, "keepalive",
                          detail=f"no traffic pointed at node "
                                 f"{crash.node} for "
                                 f"{self.plan.detect_cycles} cycles")

    def on_suspect(self, tx: Any) -> bool:
        """A retry chain to ``tx.dst`` died; is that a real crash?

        Returns True when the destination actually crashed (the
        verdict is consumed and recovery proceeds); False leaves the
        reliable layer to raise its partition error — a falsely
        suspected *alive* node is not survivable and should fail
        loudly.
        """
        crash = self.plan.crash_of(tx.dst)
        now = self.engine.now
        if crash is None or now < crash.at:
            return False
        if tx.dst not in self.dead:
            self._declare(tx.dst, now, "timeout",
                          detail=f"{tx.kind.value} from node {tx.src} "
                                 f"lost {tx.attempt} times")
        return True

    # ------------------------------------------------------------------
    def _declare(self, node: int, now: int, via: str,
                 detail: str = "") -> None:
        """Idempotent: repair the stack and record the failure."""
        if node in self.dead:
            return
        self.dead.add(node)
        self.crashed.add(node)
        crash = self.plan.crash_of(node)
        crashed_at = crash.at if crash is not None else now
        self.counters.detection_cycles += now - crashed_at
        self.dsm.fail_node(node, now)
        procs = list(self.procs_of(node))
        for hook in self.app_hooks:
            hook(node, procs, now)
        failure = NodeFailure(node=node, crashed_at=crashed_at,
                              detected_at=now, via=via, detail=detail)
        self.failures.append(failure)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.complete(node, Category.RECOVERY,
                            f"node_failure:{via}", crashed_at, now,
                            track=f"node{node}.sw", detail=detail)

    # ------------------------------------------------------------------
    def is_dead(self, node: int) -> bool:
        """Has ``node`` been declared failed (membership excludes it)?"""
        return node in self.dead

    def degraded_info(self) -> Optional[Dict[str, Any]]:
        """The ``RunResult.degraded`` payload, or None if no failures."""
        if not self.failures:
            return None
        return {
            "failed_nodes": [f.node for f in self.failures],
            "crashed_at": [f.crashed_at for f in self.failures],
            "detected_at": [f.detected_at for f in self.failures],
            "detected_via": [f.via for f in self.failures],
        }
