#!/usr/bin/env python
"""Does the synchronization algorithm move the software/hardware gap?

The paper fixes one sync algorithm per machine — token locks and a
central barrier manager for the DSM machines, bus/home-serialized
shared-memory sync for the hardware ones — so sync cost looks like a
property of the machine.  `repro.sync` makes it an axis: any machine
accepts ``sync="<lock>+<barrier>"``.

This example runs M-Water (the most sync-bound workload) on AS and AH
under four policies and prints the speedup each achieves.  The shape
to look for:

* **AS spreads.**  The central manager's departure broadcast costs one
  software message-handler service per node — O(n) serialized work per
  barrier.  A tree or combining barrier removes it, and the AS curve
  shifts toward the hardware one.
* **AH stays flat.**  Hardware sync transactions are cheap next to
  directory misses, so the policy never mattered — which is why the
  paper could treat it as fixed.

Run:  python examples/sync_crossover.py     (takes ~a minute)

The full grid (2 workloads x 3 machines x 4 locks x 3 barriers) is
``repro-harness run sync-sweep``; ``repro-harness validate`` gates
both shapes.
"""

from repro import WaterApp, make_machine

PROCS = 32
POLICIES = ("token+central", "mcs+tree", "ticket+central",
            "combining+combining")


def mwater():
    return WaterApp(molecules=144, steps=2, modified=True)


def speedup(machine):
    base = machine.run(mwater(), 1)
    top = machine.run(mwater(), PROCS)
    return base.seconds / top.seconds


def main() -> None:
    print(f"M-Water at {PROCS} processors, speedup by sync policy\n")
    print(f"{'policy':<22} {'AS':>8} {'AH':>8}")
    rows = {}
    for policy in POLICIES:
        row = []
        for arch in ("as", "ah"):
            row.append(speedup(make_machine(arch, sync=policy)))
        rows[policy] = row
        print(f"{policy:<22} {row[0]:>8.2f} {row[1]:>8.2f}")

    as_col = [r[0] for r in rows.values()]
    ah_col = [r[1] for r in rows.values()]
    print()
    print(f"AS best/worst spread: x{max(as_col) / min(as_col):.3f} "
          "(software machines feel the algorithm)")
    print(f"AH best/worst spread: x{max(ah_col) / min(ah_col):.3f} "
          "(hardware sync was never the bottleneck)")


if __name__ == "__main__":
    main()
