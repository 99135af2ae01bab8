"""Machine models: the two experimental platforms and the three
simulated large-scale architectures.

* :class:`~repro.machines.dec_treadmarks.DecTreadMarksMachine` — eight
  DECstation-5000/240s on a Fore ATM LAN running TreadMarks (§2.2).
* :class:`~repro.machines.sgi.SgiMachine` — the SGI 4D/480 bus-based
  snooping multiprocessor (§2.2).
* :class:`~repro.machines.all_software.AllSoftwareMachine` — AS:
  uniprocessor nodes + general-purpose network + TreadMarks (§3).
* :class:`~repro.machines.all_hardware.AllHardwareMachine` — AH:
  uniprocessor nodes + crossbar + directory protocol (§3).
* :class:`~repro.machines.hybrid.HybridMachine` — HS: bus-based SMP
  nodes + TreadMarks between nodes (§3).
"""

import dataclasses
from typing import Any, Dict, Optional, Tuple, Type, Union

from repro.errors import ConfigurationError
from repro.machines.all_hardware import AllHardwareMachine
from repro.machines.all_software import AllSoftwareMachine
from repro.machines.base import Machine
from repro.machines.dec_treadmarks import DecTreadMarksMachine
from repro.machines.hybrid import HybridMachine
from repro.machines.sgi import SgiMachine
from repro.machines import params

#: Canonical name -> (machine class, its params dataclass).  The
#: canonical names are the paper's labels — the same strings the
#: machines report as ``result.machine`` (modulo variant suffixes).
MACHINE_REGISTRY: Dict[str, Tuple[Type[Machine], type]] = {
    "treadmarks": (DecTreadMarksMachine, params.DecAtmParams),
    "sgi": (SgiMachine, params.SgiParams),
    "as": (AllSoftwareMachine, params.AsParams),
    "ah": (AllHardwareMachine, params.AhParams),
    "hs": (HybridMachine, params.HsParams),
}

_ALIASES: Dict[str, str] = {
    "tm": "treadmarks",
    "dec": "treadmarks",
    "dec-treadmarks": "treadmarks",
    "all-software": "as",
    "all_software": "as",
    "all-hardware": "ah",
    "all_hardware": "ah",
    "hybrid": "hs",
}


def machine_names() -> Tuple[str, ...]:
    """The canonical machine names, in registry (paper) order."""
    return tuple(MACHINE_REGISTRY)


def make_machine(name: str, nprocs: Optional[int] = None, *,
                 params: Union[None, Any, Dict[str, Any]] = None,
                 **kwargs: Any) -> Machine:
    """Build a machine by name — the stable construction entry point.

    ``name`` is a canonical registry name (``treadmarks``, ``sgi``,
    ``as``, ``ah``, ``hs``) or an alias (``tm``, ``dec``, ``hybrid``,
    ...), case-insensitively.  ``params`` is either an instance of
    the machine's params dataclass or a plain dict of field overrides
    applied to the defaults (``{"page_bytes": 8192}``).  ``nprocs``
    is optional and purely a validation convenience: when given, the
    factory rejects a count the machine cannot run rather than
    letting :meth:`Machine.run` fail later.  The remaining keyword
    arguments go to the constructor, which parses the variant axes of
    :class:`~repro.machines.base.Machine` itself: ``faults`` takes a
    :class:`~repro.net.faults.FaultPlan` (software DSM machines
    only); ``sync`` takes any :data:`~repro.sync.policy.SyncSpec` —
    a :class:`~repro.sync.SyncPolicy`, a spec string like
    ``"mcs+tree"``, or a mapping — selecting the lock/barrier
    algorithms (every machine accepts every policy); ``ablate``
    takes any :data:`~repro.ablate.spec.AblationSpecLike` — an
    :class:`~repro.ablate.AblationSpec`, a spec string like
    ``"no-twins"``, or a mapping — selecting which DSM mechanisms
    stay on (software DSM machines only; the hardware machines
    reject non-default specs); ``eager_locks`` (software DSM
    machines only) names the locks released eagerly, or ``"all"``;
    the rest are per-machine knobs (``kernel_level=True``,
    ``overhead_preset=...``).

    The factory adds no state of its own: machines it returns are
    indistinguishable — fingerprints, cache keys, ledger records —
    from directly-constructed ones, and the class constructors remain
    supported as the compatibility path.
    """
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    entry = MACHINE_REGISTRY.get(key)
    if entry is None:
        known = ", ".join(sorted(set(MACHINE_REGISTRY) | set(_ALIASES)))
        raise ConfigurationError(
            f"unknown machine '{name}' (known: {known})")
    machine_cls, params_cls = entry
    if isinstance(params, dict):
        try:
            params = dataclasses.replace(params_cls(), **params)
        except TypeError as exc:
            raise ConfigurationError(
                f"bad params override for '{key}': {exc}") from None
    elif params is not None and not isinstance(params, params_cls):
        raise ConfigurationError(
            f"machine '{key}' takes {params_cls.__name__} params, "
            f"got {type(params).__name__}")
    machine = machine_cls(params, **kwargs)
    if nprocs is not None and nprocs > machine.max_procs():
        raise ConfigurationError(
            f"{machine.name} supports at most {machine.max_procs()} "
            f"processors, requested {nprocs}")
    return machine


__all__ = [
    "Machine",
    "DecTreadMarksMachine",
    "SgiMachine",
    "AllSoftwareMachine",
    "AllHardwareMachine",
    "HybridMachine",
    "MACHINE_REGISTRY",
    "machine_names",
    "make_machine",
    "params",
]
