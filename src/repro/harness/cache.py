"""Content-addressed on-disk cache for simulation results.

Every simulated run is a pure function of (machine configuration,
application configuration, processor count, seed, run params) — the
engine is deterministic and applications derive all randomness from
the seed.  That makes results cacheable by a *fingerprint* of those
inputs: repeated ``repro-harness run`` / ``validate`` invocations skip
already-simulated points entirely.

Key construction
----------------

:func:`run_key` hashes, with SHA-256 over canonical JSON:

* the machine's :meth:`~repro.machines.base.Machine.fingerprint_data`
  (class + display name + every parameter field — editing any value in
  ``machines/params.py`` changes the key and invalidates old entries),
* the application's class, name, and constructor state (which encodes
  the workload scale — grid sizes, city counts, molecule counts),
* the processor count, the seed, and any run params,
* :data:`CACHE_VERSION`, a manual salt for *code* changes.  Parameter
  changes invalidate automatically; a change to simulation *semantics*
  (protocol logic, timing formulas) must bump ``CACHE_VERSION`` so
  stale results cannot leak across code versions.  The installed
  package version is mixed in as a second guard.

Storage layout
--------------

``<root>/<key[:2]>/<key>.json`` — one JSON document per result, in
:meth:`~repro.stats.result.RunResult.to_jsonable` form, fanned out
over 256 subdirectories.  Writes are atomic (temp file + ``rename``),
so concurrent harness invocations sharing a cache directory are safe.
Unreadable, corrupt or mis-keyed entries are treated as misses and
overwritten.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Optional

import repro
from repro.apps.base import Application
from repro.machines.base import Machine, fingerprint_value
from repro.stats.result import RunResult

#: Bump when a change alters simulation *behaviour* without touching
#: any machine/application parameter (protocol logic, timing math).
#: v2: reliable-delivery/fault-injection layer — fault params joined
#: the machine fingerprint, so pre-fault entries must not be reused.
#: v3: synchronization design space — the Counters schema grew
#: lock-wait/hold and combining-hit fields, so pre-sync entries would
#: replay with silently-zero counters.
#: v4: crash-stop recovery — Counters grew detection/recovery fields
#: and RunResult grew ``degraded``; pre-recovery entries would replay
#: with silently-zero recovery metadata.
#: v5: ablation engine — Counters grew pages_shipped_whole /
#: eager_fetches / eager_releases plus the WRITE_NOTICE message kind,
#: and the default path now counts diffs_merged; pre-ablation entries
#: would replay with silently-zero or missing counters.
CACHE_VERSION = 5

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the invoking directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> str:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``.repro-cache``."""
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


def default_ledger_path(cache_dir: Optional[str] = None) -> str:
    """Where the provenance ledger lives: ``$REPRO_LEDGER`` or
    ``<cache root>/ledger.jsonl``.

    The ledger sits beside the cache because the two describe the
    same content-addressed runs: cache entries are the *results*,
    ledger records the *attempts* (including hits) that produced or
    served them.
    """
    from repro.ledger.ledger import LEDGER_ENV
    explicit = os.environ.get(LEDGER_ENV)
    if explicit:
        return explicit
    return os.path.join(cache_dir or default_cache_dir(),
                        "ledger.jsonl")


def app_fingerprint_data(app: Application) -> Dict[str, Any]:
    """Stable data identifying a workload (class + configuration).

    Applications are descriptions — all run state lives in the store
    or in generator locals — so instance attributes *are* the
    configuration (rows/cols/iterations, cities/seed, molecules, ...).
    """
    return {
        "class": type(app).__qualname__,
        "name": getattr(app, "name", "?"),
        "state": {key: fingerprint_value(value)
                  for key, value in sorted(vars(app).items())},
    }


def run_key(machine: Machine, app: Application, nprocs: int, *,
            seed: int = 42,
            params: Optional[Dict[str, Any]] = None) -> str:
    """The content address of one simulated run."""
    payload = {
        "cache_version": CACHE_VERSION,
        "repro_version": getattr(repro, "__version__", "0"),
        "machine": machine.fingerprint_data(nprocs),
        "app": app_fingerprint_data(app),
        "nprocs": int(nprocs),
        "seed": int(seed),
        "params": fingerprint_value(params or {}),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """A content-addressed store of :class:`RunResult` documents."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> str:
        """On-disk location for ``key`` (two-level fan-out)."""
        return os.path.join(self.root, key[:2], f"{key}.json")

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or None (counted as a miss).

        An entry is served only for the key it was stored under: a
        file copied or renamed to another address, or torn and
        rewritten, is a miss, and the ``put`` that follows repairs it.
        """
        try:
            with open(self.path_for(key)) as fh:
                payload = json.load(fh)
            if payload["key"] != key:
                raise KeyError(key)
            result = RunResult.from_jsonable(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> None:
        """Store ``result`` under ``key`` (atomic, last writer wins)."""
        directory = os.path.dirname(self.path_for(key))
        os.makedirs(directory, exist_ok=True)
        payload = {
            "key": key,
            "cache_version": CACHE_VERSION,
            "result": result.to_jsonable(),
        }
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp_path, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.stores += 1

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Hit/miss/store tallies since this cache was opened."""
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores}

    def format_stats(self) -> str:
        """One deterministic, greppable line (used by the CLI and CI)."""
        return (f"[cache] hits={self.hits} misses={self.misses} "
                f"stores={self.stores} dir={self.root}")

    def __repr__(self) -> str:
        return f"<ResultCache {self.root!r} {self.stats()}>"
