"""Deterministic fault injection for the point-to-point network path.

The paper's TreadMarks runs over UDP on the ATM LAN (§2.2) and supplies
its own reliability — timeouts, retransmission, duplicate suppression.
Our :class:`~repro.net.atm.AtmNetwork` is perfectly lossless, so this
module adds the misbehaviour back, under strict determinism: every
drop/duplicate/jitter decision is a pure function of the fault seed and
the message's position in its (src, dst, kind) stream, computed with
:func:`hashlib.blake2b` (never Python's salted ``hash``), so the same
:class:`FaultPlan` produces the same fault sequence in-process, across
worker processes, and across interpreter invocations — the property
``tests/test_determinism.py`` and the result cache rely on.

Because each decision compares one stable uniform draw against the
configured rate, the set of dropped messages is (approximately) nested
across loss rates: raising ``loss_rate`` only adds drops, which is what
makes the ``fault-sweep`` experiment's degradation curves monotone
rather than noise.

A :class:`FaultPlan` is a frozen value object — picklable to worker
processes and reducible by
:func:`repro.machines.base.fingerprint_value` for cache keys.  Targeted
scenarios ("drop the 3rd diff request from node 2") are expressed as
:class:`FaultRule`\\ s, parseable from the compact CLI spec of
:func:`parse_schedule`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.stats.counters import MsgKind

#: Scales a 64-bit digest prefix into [0, 1).
_U64_SPAN = float(1 << 64)

_ACTIONS = ("drop", "dup")


@dataclass(frozen=True)
class FaultRule:
    """One targeted fault: ``action`` on messages matching the filters.

    ``kind``/``src``/``dst`` restrict which messages match (``None``
    matches anything); ``nth`` fires on the n-th match only (1-based),
    or on every match when ``None``.  Matching counts *transmission
    attempts* in deterministic engine order, so a retransmission of a
    previously-dropped message is a new match.
    """

    action: str
    kind: Optional[str] = None
    src: Optional[int] = None
    dst: Optional[int] = None
    nth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ConfigurationError(
                f"fault rule action must be one of {_ACTIONS}: "
                f"{self.action!r}")
        if self.kind is not None:
            try:
                MsgKind(self.kind)
            except ValueError:
                raise ConfigurationError(
                    f"unknown message kind in fault rule: {self.kind!r} "
                    f"(choose from {sorted(k.value for k in MsgKind)})"
                ) from None
        if self.nth is not None and self.nth < 1:
            raise ConfigurationError(
                f"fault rule nth is 1-based, got {self.nth}")

    def matches(self, src: int, dst: int, kind: MsgKind) -> bool:
        """Does this rule apply to a message? (None fields = wildcard)"""
        return ((self.kind is None or self.kind == kind.value) and
                (self.src is None or self.src == src) and
                (self.dst is None or self.dst == dst))


@dataclass(frozen=True)
class StallWindow:
    """Node ``node`` neither sends nor receives during [start, end)."""

    node: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ConfigurationError(
                f"stall window needs 0 <= start < end: "
                f"[{self.start}, {self.end})")


@dataclass(frozen=True)
class RetryPolicy:
    """Reliable-delivery retransmission knobs as one frozen value.

    ``rto_multiplier`` scales the network round-trip estimate into the
    first retransmission timeout; each further attempt multiplies the
    timeout by ``backoff_factor`` (2.0 reproduces the classic binary
    exponential backoff of the pre-policy code exactly, including at
    integer cycle granularity), optionally clamped at
    ``backoff_cap_cycles``.  After ``max_retries`` retransmissions the
    destination is *suspected dead* — recovery takes over when a crash
    plan is armed, otherwise a
    :class:`~repro.errors.NetworkPartitionError` is raised.
    """

    max_retries: int = 8
    rto_multiplier: float = 4.0
    backoff_factor: float = 2.0
    backoff_cap_cycles: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0: {self.max_retries}")
        if self.rto_multiplier <= 0:
            raise ConfigurationError(
                f"rto_multiplier must be > 0: {self.rto_multiplier}")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1: {self.backoff_factor}")
        if (self.backoff_cap_cycles is not None and
                self.backoff_cap_cycles < 1):
            raise ConfigurationError(
                f"backoff_cap_cycles must be >= 1: "
                f"{self.backoff_cap_cycles}")

    def rto_for(self, base_rto: int, attempt: int) -> int:
        """Timeout (cycles) armed for transmission attempt ``attempt``.

        ``attempt`` is 1-based: the first send waits ``base_rto``, each
        retransmission multiplies by ``backoff_factor``, and the cap —
        when set — bounds the wait however many attempts have failed.
        """
        rto = int(base_rto * self.backoff_factor ** (attempt - 1))
        if self.backoff_cap_cycles is not None:
            rto = min(rto, self.backoff_cap_cycles)
        return max(1, rto)


@dataclass(frozen=True)
class CrashEvent:
    """Crash-stop failure of ``node`` at simulated cycle ``at``.

    The node's processors halt and its host stops acknowledging
    frames.  ``rejoin`` (optional, strictly after ``at``) restores the
    *link* — frames addressed to the host are deliverable again — but
    the process stays dead: membership remains n−1 and recovery is
    never undone.  This models the realistic cluster sequence "machine
    reboots, daemon does not", and keeps crash semantics strictly
    crash-stop.
    """

    node: int
    at: int
    rejoin: Optional[int] = None

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ConfigurationError(
                f"crash node must be >= 0: {self.node}")
        if self.at < 0:
            raise ConfigurationError(
                f"crash time must be >= 0: {self.at}")
        if self.rejoin is not None and self.rejoin <= self.at:
            raise ConfigurationError(
                f"crash rejoin must come after the crash: "
                f"rejoin={self.rejoin} <= at={self.at}")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, picklable description of network misbehaviour.

    The default-constructed plan is *disabled* (``enabled`` is False):
    machines given a disabled plan behave byte-identically to machines
    given no plan at all, and share their cache fingerprints.
    """

    loss_rate: float = 0.0
    dup_rate: float = 0.0
    jitter_cycles: int = 0
    seed: int = 0
    max_retries: int = 8
    rto_multiplier: float = 4.0
    schedule: Tuple[FaultRule, ...] = ()
    stalls: Tuple[StallWindow, ...] = ()
    #: Crash-stop node failures (see :class:`CrashEvent`).
    crashes: Tuple[CrashEvent, ...] = ()
    #: Retransmission knobs; defaults to a policy built from the
    #: legacy ``max_retries``/``rto_multiplier`` fields so old call
    #: sites keep behaving (and fingerprinting) exactly as before.
    retry: Optional[RetryPolicy] = None
    #: Keepalive backstop: when a crash plan is armed, a failed node
    #: is *declared* dead no later than ``crash_at + detect_cycles``,
    #: even if no retransmission chain happens to be pointed at it.
    detect_cycles: int = 1_000_000
    #: No-progress window (sim cycles) for the engine watchdog armed
    #: whenever this plan is enabled; generous next to the worst-case
    #: backoff so only genuinely wedged runs trip it.
    watchdog_cycles: int = 200_000_000

    def __post_init__(self) -> None:
        # Tolerate lists from callers/JSON; store hashable tuples.
        object.__setattr__(self, "schedule", tuple(self.schedule))
        object.__setattr__(self, "stalls", tuple(self.stalls))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        # Fold the legacy flat retry knobs and the RetryPolicy value
        # into agreement: a policy argument wins, otherwise one is
        # built from the flat fields.  Either way both views coincide,
        # so fingerprints and old call sites stay stable.
        if self.retry is None:
            object.__setattr__(self, "retry", RetryPolicy(
                max_retries=self.max_retries,
                rto_multiplier=self.rto_multiplier))
        else:
            object.__setattr__(self, "max_retries",
                               self.retry.max_retries)
            object.__setattr__(self, "rto_multiplier",
                               self.retry.rto_multiplier)
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0, 1): {self.loss_rate}")
        if not 0.0 <= self.dup_rate < 1.0:
            raise ConfigurationError(
                f"dup_rate must be in [0, 1): {self.dup_rate}")
        if self.jitter_cycles < 0:
            raise ConfigurationError(
                f"jitter_cycles must be >= 0: {self.jitter_cycles}")
        crashed_nodes = [c.node for c in self.crashes]
        if len(set(crashed_nodes)) != len(crashed_nodes):
            raise ConfigurationError(
                f"duplicate crash node in plan: {sorted(crashed_nodes)}")
        if self.detect_cycles <= 0:
            raise ConfigurationError(
                f"detect_cycles must be > 0: {self.detect_cycles}")
        if self.watchdog_cycles <= 0:
            raise ConfigurationError(
                f"watchdog_cycles must be > 0: {self.watchdog_cycles}")

    @property
    def enabled(self) -> bool:
        """True when any fault mechanism can actually fire."""
        return bool(self.loss_rate or self.dup_rate or
                    self.jitter_cycles or self.schedule or self.stalls or
                    self.crashes)

    @property
    def is_default(self) -> bool:
        """True for a disabled plan (the variant protocol's spelling)."""
        return not self.enabled

    def label(self) -> str:
        """Compact machine-name suffix (``loss0.02``, ``sched``...)."""
        parts = []
        if self.loss_rate:
            parts.append(f"loss{self.loss_rate:g}")
        if self.dup_rate:
            parts.append(f"dup{self.dup_rate:g}")
        if self.jitter_cycles:
            parts.append(f"jit{self.jitter_cycles}")
        if self.schedule:
            parts.append("sched")
        if self.stalls:
            parts.append("stall")
        for crash in self.crashes:
            parts.append(f"crash{crash.node}t{crash.at}")
        return "+".join(parts) or "off"

    # -- crash queries ----------------------------------------------------
    def crash_of(self, node: int) -> Optional[CrashEvent]:
        """The crash event scheduled for ``node``, if any."""
        for crash in self.crashes:
            if crash.node == node:
                return crash
        return None

    def node_down_at(self, node: int, time: int) -> bool:
        """Is ``node``'s *host* unreachable at ``time``?

        True between the crash and the (optional) link rejoin.  Note
        this is a link property only — the *process* on a crashed node
        is dead forever regardless of rejoin (crash-stop).
        """
        crash = self.crash_of(node)
        if crash is None or time < crash.at:
            return False
        return crash.rejoin is None or time < crash.rejoin


def parse_schedule(spec: str) -> Tuple[FaultRule, ...]:
    """Parse the CLI fault-schedule mini-language.

    Rules are separated by ``;``; each rule is colon-separated fields:
    an action (``drop``/``dup``), optionally a message kind, and
    optional ``src=``/``dst=``/``nth=`` filters::

        drop:diff_request:src=2:nth=3; dup:lock_grant
    """
    rules = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk.startswith("crash@"):
            raise ConfigurationError(
                f"crash events are not schedule rules: pass {chunk!r} "
                f"via --crash / parse_crashes, not the fault schedule")
        parts = [p.strip() for p in chunk.split(":")]
        action, kind = parts[0], None
        filters: Dict[str, int] = {}
        for part in parts[1:]:
            if "=" in part:
                key, _, value = part.partition("=")
                key = key.strip()
                if key not in ("src", "dst", "nth"):
                    raise ConfigurationError(
                        f"unknown fault rule filter {key!r} in "
                        f"{chunk!r} (expected src=, dst=, nth=)")
                try:
                    filters[key] = int(value)
                except ValueError:
                    raise ConfigurationError(
                        f"fault rule filter {key}= needs an integer: "
                        f"{chunk!r}") from None
            elif kind is None:
                kind = part
            else:
                raise ConfigurationError(
                    f"fault rule has two message kinds: {chunk!r}")
        rules.append(FaultRule(action, kind=kind, **filters))
    if not rules:
        raise ConfigurationError(f"empty fault schedule: {spec!r}")
    return tuple(rules)


def parse_crashes(spec: str) -> Tuple[CrashEvent, ...]:
    """Parse the CLI crash mini-language into :class:`CrashEvent`\\ s.

    Events are separated by ``;``; each is
    ``crash@node<N>:t=<cycles>[:rejoin=<cycles>]``::

        crash@node3:t=500000
        crash@node1:t=2000000:rejoin=9000000
    """
    events = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(":")]
        head = parts[0]
        if not head.startswith("crash@node"):
            raise ConfigurationError(
                f"crash spec must start with 'crash@node<N>': {chunk!r}")
        try:
            node = int(head[len("crash@node"):])
        except ValueError:
            raise ConfigurationError(
                f"crash spec needs an integer node: {chunk!r}") from None
        fields: Dict[str, int] = {}
        for part in parts[1:]:
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in ("t", "rejoin"):
                raise ConfigurationError(
                    f"unknown crash field {part!r} in {chunk!r} "
                    f"(expected t=, rejoin=)")
            try:
                fields[key] = int(value)
            except ValueError:
                raise ConfigurationError(
                    f"crash field {key}= needs an integer: "
                    f"{chunk!r}") from None
        if "t" not in fields:
            raise ConfigurationError(
                f"crash spec needs a time (t=): {chunk!r}")
        events.append(CrashEvent(node, fields["t"],
                                 rejoin=fields.get("rejoin")))
    if not events:
        raise ConfigurationError(f"empty crash spec: {spec!r}")
    return tuple(events)


@dataclass
class FaultDecision:
    """What the fault plane does to one transmission attempt."""

    drop: bool = False
    duplicate: bool = False
    jitter: int = 0


class FaultInjector:
    """Stateful evaluator of a :class:`FaultPlan` for one run.

    Holds the per-edge message counters and per-rule match counters;
    build a fresh injector per simulation (the wrapping
    :class:`~repro.net.reliable.ReliableNetwork` does).
    """

    def __init__(self, plan: FaultPlan, num_nodes: int) -> None:
        for rule in plan.schedule:
            for attr in ("src", "dst"):
                node = getattr(rule, attr)
                if node is not None and not 0 <= node < num_nodes:
                    raise ConfigurationError(
                        f"fault rule {attr}={node} outside the "
                        f"{num_nodes}-node machine")
        for stall in plan.stalls:
            if not 0 <= stall.node < num_nodes:
                raise ConfigurationError(
                    f"stall window node {stall.node} outside the "
                    f"{num_nodes}-node machine")
        for crash in plan.crashes:
            if not 0 <= crash.node < num_nodes:
                raise ConfigurationError(
                    f"crash node {crash.node} outside the "
                    f"{num_nodes}-node machine")
        if plan.crashes and len(plan.crashes) >= num_nodes:
            raise ConfigurationError(
                f"crash plan kills all {num_nodes} nodes; at least "
                f"one survivor is required for a degraded run")
        self.plan = plan
        self._edge_count: Dict[Tuple[int, int, str], int] = {}
        self._rule_count = [0] * len(plan.schedule)

    # ------------------------------------------------------------------
    def _uniform(self, tag: str, src: int, dst: int, kind: MsgKind,
                 n: int) -> float:
        key = f"{self.plan.seed}:{tag}:{src}:{dst}:{kind.value}:{n}"
        digest = hashlib.blake2b(key.encode("ascii"),
                                 digest_size=8).digest()
        return int.from_bytes(digest, "big") / _U64_SPAN

    def decide(self, src: int, dst: int, kind: MsgKind) -> FaultDecision:
        """The fate of the next transmission attempt on this edge."""
        plan = self.plan
        edge = (src, dst, kind.value)
        n = self._edge_count.get(edge, 0)
        self._edge_count[edge] = n + 1

        decision = FaultDecision()
        if plan.loss_rate and (
                self._uniform("drop", src, dst, kind, n) < plan.loss_rate):
            decision.drop = True
        if plan.dup_rate and (
                self._uniform("dup", src, dst, kind, n) < plan.dup_rate):
            decision.duplicate = True
        if plan.jitter_cycles:
            u = self._uniform("jitter", src, dst, kind, n)
            decision.jitter = int(u * (plan.jitter_cycles + 1))

        for i, rule in enumerate(plan.schedule):
            if not rule.matches(src, dst, kind):
                continue
            self._rule_count[i] += 1
            if rule.nth is not None and self._rule_count[i] != rule.nth:
                continue
            if rule.action == "drop":
                decision.drop = True
            else:
                decision.duplicate = True
        return decision

    def stall_until(self, node: int, now: int) -> int:
        """Earliest cycle >= ``now`` at which ``node`` is not stalled."""
        wake = now
        # Windows may chain/overlap; iterate to the combined fixpoint.
        changed = True
        while changed:
            changed = False
            for stall in self.plan.stalls:
                if stall.node == node and stall.start <= wake < stall.end:
                    wake = stall.end
                    changed = True
        return wake
