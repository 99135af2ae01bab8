"""Reference Water: the scalar per-pair code the force kernel replaced.

``repro.apps.water`` computes every pair force of a phase in one
vectorized pass (``_pair_forces``) and accumulates M-Water's local sums
with ``np.add.at``.  This module keeps the code it replaced — pair
lists built in a Python loop, one ``math.sqrt`` force evaluation per
pair on numpy scalars, M-Water sums in a dict of lists, Water forces
computed lazily between its lock operations, integration one molecule
at a time — as an independent oracle.  ``ReferenceWaterApp`` is a
``WaterApp`` whose worker is entirely this code, so
``test_water_kernel_differential.py`` can demand equal op streams,
equal record bytes and equal simulated results from both.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List

from repro.apps import ops
from repro.apps.base import chunk_ranges
from repro.apps.water import (CYCLES_PER_INTEGRATE, CYCLES_PER_PAIR,
                              FORCE_OFF, GRAVITY_SOFTENING, MOL_LOCK_BASE,
                              POS_OFF, RECORD_BYTES, VEL_OFF, WaterApp)


class ReferenceWaterApp(WaterApp):
    """``WaterApp`` with the scalar force code."""

    def _pairs_of(self, proc, nprocs) -> List:
        n = self.molecules
        owned = chunk_ranges(n, nprocs)[proc]
        half = n // 2
        pairs = []
        for i in owned:
            for d in range(1, half + 1):
                j = (i + d) % n
                if n % 2 == 0 and d == half and i >= n // 2:
                    continue  # avoid double-counting the diameter pair
                pairs.append((i, j))
        return pairs

    @staticmethod
    def _force(pi, pj) -> tuple:
        dx = pi[0] - pj[0]
        dy = pi[1] - pj[1]
        dz = pi[2] - pj[2]
        r2 = dx * dx + dy * dy + dz * dz + GRAVITY_SOFTENING
        inv = 1.0 / (r2 * math.sqrt(r2))
        return (dx * inv, dy * inv, dz * inv)

    def _mol_write(self, mol):
        return ops.Write("mol", mol * RECORD_BYTES + FORCE_OFF * 8, 24)

    def _worker(self, ctx, proc):
        rec = self._records(ctx)
        owned = chunk_ranges(self.molecules, ctx.nprocs)[proc]
        pairs = self._pairs_of(proc, ctx.nprocs)
        region_bytes = self.molecules * RECORD_BYTES

        if len(owned):
            yield ops.Read("mol", owned.start * RECORD_BYTES,
                           len(owned) * RECORD_BYTES)
        yield ops.Barrier(2)

        for _step in range(self.steps):
            yield ops.Read("mol", 0, region_bytes)

            if self.modified:
                yield from self._force_phase_mwater(ctx, rec, pairs)
            else:
                yield from self._force_phase_water(ctx, rec, pairs)
            yield ops.Barrier(0)

            for i in owned:
                pos = rec[i, POS_OFF:POS_OFF + 3]
                vel = rec[i, VEL_OFF:VEL_OFF + 3]
                frc = rec[i, FORCE_OFF:FORCE_OFF + 3]
                vel += 0.001 * frc
                pos += vel
                frc[:] = 0.0
            if len(owned):
                yield ops.Compute(len(owned) * CYCLES_PER_INTEGRATE)
                yield ops.Write("mol", owned.start * RECORD_BYTES,
                                len(owned) * RECORD_BYTES)
            yield ops.Barrier(1)

    def _force_phase_water(self, ctx, rec, pairs):
        for i, j in pairs:
            fx, fy, fz = self._force(rec[i, POS_OFF:POS_OFF + 3],
                                     rec[j, POS_OFF:POS_OFF + 3])
            yield ops.Compute(CYCLES_PER_PAIR)
            for mol, sign in ((i, 1.0), (j, -1.0)):
                yield ops.Acquire(MOL_LOCK_BASE + mol)
                rec[mol, FORCE_OFF] += sign * fx
                rec[mol, FORCE_OFF + 1] += sign * fy
                rec[mol, FORCE_OFF + 2] += sign * fz
                yield self._mol_write(mol)
                yield ops.Release(MOL_LOCK_BASE + mol)

    def _force_phase_mwater(self, ctx, rec, pairs):
        local: Dict[int, List[float]] = {}
        for i, j in pairs:
            fx, fy, fz = self._force(rec[i, POS_OFF:POS_OFF + 3],
                                     rec[j, POS_OFF:POS_OFF + 3])
            for mol, sign in ((i, 1.0), (j, -1.0)):
                acc = local.setdefault(mol, [0.0, 0.0, 0.0])
                acc[0] += sign * fx
                acc[1] += sign * fy
                acc[2] += sign * fz
        yield ops.Compute(len(pairs) * CYCLES_PER_PAIR)
        ordered = sorted(local)
        if ordered and pairs:
            start = bisect.bisect_left(ordered, pairs[0][0])
            ordered = ordered[start:] + ordered[:start]
        for mol in ordered:
            acc = local[mol]
            yield ops.Acquire(MOL_LOCK_BASE + mol)
            rec[mol, FORCE_OFF] += acc[0]
            rec[mol, FORCE_OFF + 1] += acc[1]
            rec[mol, FORCE_OFF + 2] += acc[2]
            yield self._mol_write(mol)
            yield ops.Release(MOL_LOCK_BASE + mol)
