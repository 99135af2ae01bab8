"""The append-only provenance ledger.

Every simulated run — serial, pooled, cache-served, faulted, or
checked — appends exactly one JSON line to a :class:`Ledger`.  Nothing
is ever overwritten or deleted: the ledger is the audit trail that
ties a regenerated figure, a golden speedup pin, or a BENCH file back
to the code version, machine fingerprint, fault plan, and checker
arming that produced it.

Run identity
------------

A record is keyed by its ``run_id``::

    <first 16 hex chars of the cache fingerprint> . <attempt number>

The fingerprint part is the content address from
:func:`repro.harness.cache.run_key` — stable across serial, pooled,
and warm-cache execution by the PR 2 determinism contract — and the
attempt number counts how many times this ledger has seen that
fingerprint, starting at 1.  A cache *hit* is an attempt like any
other: it appends a record with ``path="hit"`` and a ``produced_by``
pointer to the run_id that actually simulated, so lineage is a chain
of run_ids sharing one fingerprint.

Write safety
------------

Appends are one ``write`` of one line on an ``O_APPEND`` descriptor
under an exclusive ``flock``, so concurrent writers (pool parents,
parallel harness invocations sharing a cache directory) never
interleave partial records.  Readers tolerate a torn final line (a
killed writer) by skipping lines that fail to parse.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

try:
    import fcntl
except ImportError:                       # non-POSIX: flock unavailable
    fcntl = None                          # type: ignore[assignment]

from repro.ledger.provenance import git_revision, host_meta

#: Hex chars of the cache fingerprint that prefix a run_id.  16 chars
#: (64 bits) cannot collide within any realistic ledger; the full
#: fingerprint is in the record's ``key`` field.
RUN_ID_PREFIX = 16

#: Environment variable overriding the default ledger path.
LEDGER_ENV = "REPRO_LEDGER"


def make_run_id(key: str, attempt: int) -> str:
    """``<key prefix>.<attempt>`` — the stable identity of one attempt."""
    return f"{key[:RUN_ID_PREFIX]}.{attempt:04d}"


class Ledger:
    """An append-only JSONL file of per-run provenance records."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.appended = 0
        #: key -> highest attempt number seen (lazily loaded from disk)
        self._attempts: Optional[Dict[str, int]] = None

    # -- run identity ---------------------------------------------------
    def _load_attempts(self) -> Dict[str, int]:
        if self._attempts is None:
            attempts: Dict[str, int] = {}
            for record in self.records():
                key = record.get("key")
                if key:
                    attempts[key] = max(attempts.get(key, 0),
                                        int(record.get("attempt", 0)))
            self._attempts = attempts
        return self._attempts

    def next_run_id(self, key: str) -> Tuple[str, int]:
        """Allocate ``(run_id, attempt)`` for a new attempt at ``key``.

        Attempts number from 1 in allocation order within this ledger
        file; existing records (earlier invocations sharing the file)
        are counted, so re-running a plan yields fresh run_ids rather
        than reusing old ones.
        """
        attempts = self._load_attempts()
        attempt = attempts.get(key, 0) + 1
        attempts[key] = attempt
        return make_run_id(key, attempt), attempt

    # -- append-only writes ---------------------------------------------
    def append(self, record: Dict[str, Any]) -> None:
        """Append one record as a single locked write (never rewrites)."""
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        data = line.encode("utf-8")
        fd = os.open(self.path,
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            os.write(fd, data)
        finally:
            if fcntl is not None:
                try:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                except OSError:
                    pass
            os.close(fd)
        self.appended += 1

    # -- reads ----------------------------------------------------------
    def records(self) -> Iterator[Dict[str, Any]]:
        """Parsed records in append order (torn/corrupt lines skipped)."""
        try:
            fh = open(self.path, encoding="utf-8")
        except OSError:
            return
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue              # torn final line of a killed writer
                if isinstance(record, dict):
                    yield record

    def __len__(self) -> int:
        return sum(1 for _ in self.records())

    def __repr__(self) -> str:
        return f"<Ledger {self.path!r} appended={self.appended}>"


# ======================================================================
# Record construction
# ======================================================================
def run_record(*, run_id: str, key: str, attempt: int,
               machine: Any, app: Any, nprocs: int, seed: int,
               params: Optional[Dict[str, Any]],
               result: Any, path: str, executor: str,
               wall_s: Optional[float] = None,
               produced_by: Optional[str] = None,
               error: Optional[str] = None) -> Dict[str, Any]:
    """Build the full provenance record for one run attempt.

    ``machine``/``app``/``result`` are duck-typed (Machine,
    Application, RunResult) so this module stays import-cycle-free:
    ``repro.machines.base`` imports the ledger, not the reverse.

    ``path`` is the cache outcome (``"miss"`` — simulated; ``"hit"`` —
    served from the cache, ``produced_by`` naming the producing
    run_id; ``"fresh"`` — simulated with no cache in play) and
    ``executor`` is where it ran (``"serial"``, ``"pool"`` or
    ``"cache"``).  Only the plan layer builds records: a bare
    ``Machine.run`` outside a plan is not recorded.
    """
    # Lazy imports: machines.base and check.checker import this package.
    from repro.check.checker import active_check_config
    from repro.machines.base import fingerprint_value

    import repro

    record: Dict[str, Any] = {
        "run_id": run_id,
        "key": key,
        "attempt": int(attempt),
        "ts": time.time(),
        "pid": os.getpid(),
        "code": git_revision(),
        "host": host_meta(),
        "repro_version": getattr(repro, "__version__", "0"),
        "machine": getattr(machine, "name", str(machine)),
        "machine_fingerprint": machine.fingerprint(nprocs),
        "app": getattr(app, "name", str(app)),
        "workload": fingerprint_value(dict(vars(app))),
        "nprocs": int(nprocs),
        "seed": int(seed),
        "params": fingerprint_value(params or {}),
        "path": path,
        "executor": executor,
    }
    record["faults"] = fingerprint_value(machine.variants().get("faults"))
    check_cfg = active_check_config()
    record["check"] = check_cfg.label() if check_cfg is not None else None
    if produced_by is not None:
        record["produced_by"] = produced_by
    if wall_s is not None:
        record["wall_s"] = round(float(wall_s), 6)
    if error is not None:
        # Failed attempts (a crashed pool worker) have no result; the
        # record preserves that the attempt happened and why it died.
        record["error"] = error
    if result is not None:
        record["cycles"] = int(result.cycles)
        record["events"] = int(result.events)
        record["sim_seconds"] = float(result.seconds)
    return record


# ======================================================================
# Ambient state: the active ledger and the current run_id
# ======================================================================
_LEDGER_STACK: List[Ledger] = []
_RUN_ID_STACK: List[str] = []


def active_ledger() -> Optional[Ledger]:
    """The innermost ledger installed by :func:`ledger_session`."""
    return _LEDGER_STACK[-1] if _LEDGER_STACK else None


@contextmanager
def ledger_session(ledger: Optional[Ledger]) -> Iterator[Optional[Ledger]]:
    """Scope within which every run appends a provenance record.

    The parallel runner writes the records for plan executions; a bare
    ``Machine.run`` inside the scope appends its own ``direct``
    record.  ``None`` is accepted and is a no-op scope, so callers can
    thread an optional ledger without branching.
    """
    if ledger is None:
        yield None
        return
    _LEDGER_STACK.append(ledger)
    try:
        yield ledger
    finally:
        _LEDGER_STACK.pop()


def current_run_id() -> Optional[str]:
    """The run_id of the run executing in this process, if any."""
    return _RUN_ID_STACK[-1] if _RUN_ID_STACK else None


@contextmanager
def run_scope(run_id: Optional[str]) -> Iterator[Optional[str]]:
    """Scope marking the currently-executing run attempt.

    Installed around each simulation by the execution layers so that
    everything produced inside — the ``RunResult``, tracer metadata,
    metrics lines, a raised ``ConsistencyViolation`` — can carry the
    run_id of the ledger record describing the run.  ``None`` is a
    no-op scope.
    """
    if run_id is None:
        yield None
        return
    _RUN_ID_STACK.append(run_id)
    try:
        yield run_id
    finally:
        _RUN_ID_STACK.pop()
