"""Water and M-Water: molecular dynamics with two locking styles.

A SPLASH-Water-shaped n-body code (§2.3): per time step, every
processor computes pairwise interactions for its molecules against the
following half of the molecule array, accumulating forces, then
integrates positions of its own molecules.  Two barrier-separated
phases per step.

The two variants differ only in how force *updates* to other
processors' molecules are synchronized:

* **Water** — a lock around every single update of a molecule record
  (lock acquires = number of updates), the original SPLASH discipline
  that drowns TreadMarks in messages (§2.4.4).
* **M-Water** — each processor accumulates its contributions locally
  and applies them once per touched molecule at the end of the force
  phase (lock acquires = number of touched molecules), the paper's
  modification.

Molecule records are padded to a realistic SPLASH-like stride so they
spread over pages the way the original's ~600-byte records did.
Force physics is a simple soft inverse-square interaction — the paper's
results depend on the synchronization and sharing pattern, not the
potential — and every machine model produces bit-identical trajectories
because updates are serialized by the (simulated) molecule locks.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.apps.base import AppContext, Application, Program, chunk_ranges
from repro.apps import ops
from repro.errors import ConfigurationError

#: Bytes per molecule record (SPLASH Water's record is ~672 bytes; we
#: round to a power of two so records never straddle lines unevenly).
RECORD_BYTES = 512
DOUBLES_PER_RECORD = RECORD_BYTES // 8

# Record layout (field offsets in doubles): position, velocity, force.
POS_OFF = 0
VEL_OFF = 3
FORCE_OFF = 6

#: Molecule locks start here (0..9 reserved for app-global locks).
MOL_LOCK_BASE = 100

#: SPLASH Water evaluates nine site-site interactions plus an erfc per
#: molecule pair — thousands of cycles of real floating-point work.
CYCLES_PER_PAIR = 3000
CYCLES_PER_INTEGRATE = 500

GRAVITY_SOFTENING = 4.0


def _pair_forces(rec: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The force molecule ``j`` exerts on ``i`` for every ``(i, j)`` row
    of ``pairs``, as a ``(k, 3)`` array.

    Every pair gets the same IEEE operations in the same association as
    a scalar evaluation would (DESIGN.md, "Water: one force kernel").
    """
    pos = rec[:, POS_OFF:POS_OFF + 3]
    dx, dy, dz = (pos[pairs[:, 0]] - pos[pairs[:, 1]]).T
    r2 = dx * dx + dy * dy + dz * dz + GRAVITY_SOFTENING
    inv = 1.0 / (r2 * np.sqrt(r2))
    return np.stack((dx * inv, dy * inv, dz * inv), axis=1)


class WaterApp(Application):
    """n-body molecular dynamics; ``modified=True`` selects M-Water."""

    name = "water"

    def __init__(self, molecules: int = 64, steps: int = 2, *,
                 modified: bool = False, box: float = 30.0) -> None:
        if molecules < 2:
            raise ConfigurationError(
                f"need at least 2 molecules: {molecules}")
        if steps < 1:
            raise ConfigurationError(f"need at least 1 step: {steps}")
        self.molecules = molecules
        self.steps = steps
        self.modified = modified
        self.box = box
        self.name = ("m-water" if modified else "water") + f"-{molecules}"

    # ------------------------------------------------------------------
    def regions(self, nprocs: int) -> Dict[str, int]:
        """One molecule-record array (position, velocity, forces)."""
        return {"mol": self.molecules * RECORD_BYTES}

    def _records(self, ctx: AppContext) -> np.ndarray:
        view = ctx.store.view("mol", np.float64)
        return view[: self.molecules * DOUBLES_PER_RECORD].reshape(
            self.molecules, DOUBLES_PER_RECORD)

    def init_data(self, ctx: AppContext) -> None:
        """Random positions in the box, small random velocities."""
        rng = np.random.default_rng(self.molecules * 7919 + 13)
        rec = self._records(ctx)
        rec.fill(0.0)
        rec[:, POS_OFF:POS_OFF + 3] = rng.random(
            (self.molecules, 3)) * self.box
        rec[:, VEL_OFF:VEL_OFF + 3] = (rng.random(
            (self.molecules, 3)) - 0.5) * 0.1

    # ------------------------------------------------------------------
    def _pairs_of(self, proc: int, nprocs: int) -> np.ndarray:
        """The half-sweep pair set owned by ``proc``, one ``(i, j)`` row
        per pair.

        Molecule i interacts with the next n/2 molecules (mod n); the
        owner of i computes those pairs — every unordered pair is
        handled exactly once.  Rows run over i, then over the distance.
        """
        n = self.molecules
        owned = chunk_ranges(n, nprocs)[proc]
        half = n // 2
        i = np.repeat(np.arange(owned.start, owned.stop, dtype=np.int64),
                      half)
        d = np.tile(np.arange(1, half + 1, dtype=np.int64), len(owned))
        # Even n: the diameter pair would be counted from both ends.
        keep = ~((n % 2 == 0) & (d == half) & (i >= half))
        i, d = i[keep], d[keep]
        return np.stack((i, (i + d) % n), axis=1)

    # ------------------------------------------------------------------
    def programs(self, ctx: AppContext) -> List[Program]:
        """One force-compute/update worker per processor."""
        return [self._worker(ctx, p) for p in range(ctx.nprocs)]

    def _mol_write(self, mol: int) -> ops.Write:
        """A 24-byte force update of one molecule record."""
        return ops.Write("mol", mol * RECORD_BYTES + FORCE_OFF * 8, 24)

    def _worker(self, ctx: AppContext, proc: int) -> Program:
        rec = self._records(ctx)
        owned = chunk_ranges(self.molecules, ctx.nprocs)[proc]
        pairs = self._pairs_of(proc, ctx.nprocs)
        region_bytes = self.molecules * RECORD_BYTES

        # Parallel initialization: each processor touches its own
        # molecules first, exactly as SPLASH codes do so that
        # first-touch page placement lands each record at its owner.
        if len(owned):
            yield ops.Read("mol", owned.start * RECORD_BYTES,
                           len(owned) * RECORD_BYTES)
        yield ops.Barrier(2)

        for _step in range(self.steps):
            # -- force phase -----------------------------------------
            # Each processor reads (the positions of) essentially the
            # whole molecule array: "each processor accesses a
            # majority of the shared data during each step" (§3.2.3).
            yield ops.Read("mol", 0, region_bytes)

            if self.modified:
                yield from self._force_phase_mwater(rec, pairs)
            else:
                yield from self._force_phase_water(rec, pairs)
            yield ops.Barrier(0)

            # -- integrate own molecules ------------------------------
            mine = rec[owned.start:owned.stop]
            frc = mine[:, FORCE_OFF:FORCE_OFF + 3]
            mine[:, VEL_OFF:VEL_OFF + 3] += 0.001 * frc
            mine[:, POS_OFF:POS_OFF + 3] += mine[:, VEL_OFF:VEL_OFF + 3]
            frc[:] = 0.0
            if len(owned):
                yield ops.Compute(len(owned) * CYCLES_PER_INTEGRATE)
                yield ops.Write("mol", owned.start * RECORD_BYTES,
                                len(owned) * RECORD_BYTES)
            yield ops.Barrier(1)

    def _force_phase_water(self, rec: np.ndarray,
                           pairs: np.ndarray) -> Program:
        """Original Water: one lock acquisition per force update.

        Positions do not change between ``Barrier(1)`` and
        ``Barrier(0)``, so every force is computed up front; the
        updates still happen one by one, each under its molecule lock.
        """
        forces = _pair_forces(rec, pairs).tolist()
        for (i, j), (fx, fy, fz) in zip(pairs.tolist(), forces):
            yield ops.Compute(CYCLES_PER_PAIR)
            for mol, sign in ((i, 1.0), (j, -1.0)):
                yield ops.Acquire(MOL_LOCK_BASE + mol)
                rec[mol, FORCE_OFF] += sign * fx
                rec[mol, FORCE_OFF + 1] += sign * fy
                rec[mol, FORCE_OFF + 2] += sign * fz
                yield self._mol_write(mol)
                yield ops.Release(MOL_LOCK_BASE + mol)

    def _force_phase_mwater(self, rec: np.ndarray,
                            pairs: np.ndarray) -> Program:
        """M-Water: accumulate locally, one locked update per molecule."""
        forces = _pair_forces(rec, pairs)
        # Rows (i, +f), (j, -f) pair by pair; add.at is unbuffered and
        # goes in row order, so each molecule sums its terms in pair
        # order, starting from 0.0.
        rows = pairs.ravel()
        local = np.zeros((self.molecules, 3))
        np.add.at(local, rows,
                  np.stack((forces, -forces), axis=1).reshape(-1, 3))
        yield ops.Compute(len(pairs) * CYCLES_PER_PAIR)
        # Apply updates starting from this processor's own molecules:
        # processors sweep the molecule array out of phase, so the
        # per-molecule locks do not convoy.
        ordered = np.unique(rows)
        if ordered.size:
            start = int(np.searchsorted(ordered, pairs[0, 0]))
            ordered = np.concatenate((ordered[start:], ordered[:start]))
        for mol, (fx, fy, fz) in zip(ordered.tolist(),
                                     local[ordered].tolist()):
            yield ops.Acquire(MOL_LOCK_BASE + mol)
            rec[mol, FORCE_OFF] += fx
            rec[mol, FORCE_OFF + 1] += fy
            rec[mol, FORCE_OFF + 2] += fz
            yield self._mol_write(mol)
            yield ops.Release(MOL_LOCK_BASE + mol)

    # ------------------------------------------------------------------
    def verify(self, ctx: AppContext) -> Dict[str, float]:
        """Position/velocity checksums; everything must stay finite."""
        rec = self._records(ctx)
        pos = rec[:, POS_OFF:POS_OFF + 3]
        vel = rec[:, VEL_OFF:VEL_OFF + 3]
        assert np.isfinite(pos).all() and np.isfinite(vel).all()
        return {
            "pos_checksum": float(pos.sum()),
            "vel_checksum": float(vel.sum()),
            "kinetic": float(0.5 * (vel ** 2).sum()),
        }
