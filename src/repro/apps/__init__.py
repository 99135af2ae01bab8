"""Applications: the paper's workload suite on a PARMACS-like API.

Programs are generators that perform *real* computation on the shared
store and yield operations (:mod:`repro.apps.ops`) describing their
shared accesses and synchronization.  The suite matches §2.3:

* :mod:`repro.apps.sor` — Red-Black Successive Over-Relaxation.
* :mod:`repro.apps.tsp` — branch-and-bound travelling salesman with an
  unsynchronized global bound.
* :mod:`repro.apps.water` — n-body molecular dynamics in two locking
  disciplines: per-update locks (Water) and accumulate-then-update
  (M-Water).
* :mod:`repro.apps.ilink` — a synthetic genetic-linkage workload with
  CLP-like and BAD-like presets (see DESIGN.md substitutions).
* :mod:`repro.apps.micro` — one-event synchronization micro-benchmarks
  (a cold remote lock acquisition, one barrier).
"""

from repro.apps.base import AppContext, Application
from repro.apps.ilink import IlinkApp
from repro.apps.micro import BarrierOnlyApp, LockPingApp
from repro.apps.ops import (Acquire, Barrier, Compute, OpBlock, Read,
                            ReadBound, Release, UpdateBound, Write,
                            fuse, unfuse)
from repro.apps.sor import SorApp
from repro.apps.tsp import TspApp
from repro.apps.water import WaterApp

__all__ = [
    "Application",
    "AppContext",
    "Compute",
    "Read",
    "Write",
    "Acquire",
    "Release",
    "Barrier",
    "ReadBound",
    "UpdateBound",
    "OpBlock",
    "fuse",
    "unfuse",
    "SorApp",
    "TspApp",
    "WaterApp",
    "IlinkApp",
    "LockPingApp",
    "BarrierOnlyApp",
]
