"""Alternating parent/change pairs of one ``benchmarks/e2e`` workload.

Every ``perf_opt`` PR is judged the way choosing-metrics §8 says: at
least ten pairs of parent and change, alternating which side runs
first, a gain claimed only if the change wins nine tenths of the pairs
and the medians differ by more than the parent's own interquartile
range.  This makes those pairs one command::

    python tools/ab_e2e.py --parent HEAD~1 --workload dsm_barriers --pairs 10

The parent revision is checked out into a temporary ``git worktree``
(removed afterwards); the change is the working tree this script sits
in, uncommitted edits included.  Each run is that tree's own
``benchmarks/e2e/run.py --workload W --seed S --trace 0 --out FILE`` —
what the benchmark driver runs, for the run length BENCHMARK.json sets
on both sides — and the two sets of reports are then
handed to ``run.py --compare``, which prints every end-to-end metric
with its verdict.  Nothing under ``benchmarks/e2e/`` is written; the
reports go to ``--out-dir`` (default: a fresh temporary directory).

Before that it lists ``--metric`` (default ``wall_s``) pair by pair
and says whether it meets the §8 gain rule.

Exit status: non-zero if a run failed (a digest differs from
``expected.json``) or if ``--compare`` found a regression, an
unresolved metric or differing work counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join("benchmarks", "e2e", "run.py")


def run_once(tree: str, out: str, args: argparse.Namespace) -> float:
    """One driver-form run of ``tree``; returns ``--metric``."""
    cmd = [sys.executable, RUN_PY, "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "0", "--out", out]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL)
    if done.returncode:
        raise SystemExit(f"error: {' '.join(cmd)} exited "
                         f"{done.returncode} in {tree}")
    with open(out) as fh:
        entry = json.load(fh)["workloads"][args.workload]
    return entry["end_to_end"][args.metric]["value"]


def judge(parent: List[float], change: List[float], better: str) -> None:
    """Apply the §8 gain rule to the per-pair values and print it."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gap = sign * (statistics.median(parent) - statistics.median(change))
    met = wins >= 0.9 * len(parent) and gap > q3 - q1
    print(f"change won {wins} of {len(parent)} pairs ({ties} ties); "
          f"medians {statistics.median(parent):.6g} -> "
          f"{statistics.median(change):.6g}, parent IQR {q3 - q1:.6g}: "
          f"gain rule {'met' if met else 'NOT met'} ({better} is better)")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="git revision to compare the working tree to")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"]
                  for m in json.load(fh)["end_to_end"]}
    parser.add_argument("--metric", default="wall_s", choices=sorted(better),
                        help="end-to-end metric listed pair by pair")
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    out_dir = args.out_dir or tempfile.mkdtemp(prefix="ab_e2e-")
    os.makedirs(out_dir, exist_ok=True)
    worktree = tempfile.mkdtemp(prefix="ab_e2e-parent-")
    subprocess.run(["git", "worktree", "add", "--detach",
                    worktree, args.parent], cwd=REPO_ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    trees = {"parent": worktree, "change": REPO_ROOT}
    reports: Dict[str, List[str]] = {"parent": [], "change": []}
    values: Dict[str, List[float]] = {"parent": [], "change": []}
    try:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else (
                "change", "parent")
            for side in order:
                out = os.path.join(out_dir, f"{side}-{pair:02d}.json")
                values[side].append(run_once(trees[side], out, args))
                reports[side].append(out)
            print(f"pair {pair + 1:>2}/{args.pairs} ({order[0]} first): "
                  f"{args.metric} parent {values['parent'][-1]:.6g}  "
                  f"change {values['change'][-1]:.6g}", flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", worktree],
                       cwd=REPO_ROOT, check=False)
    judge(values["parent"], values["change"], better[args.metric])
    print(f"reports in {out_dir}", flush=True)
    return subprocess.run(
        [sys.executable, RUN_PY, "--compare", ",".join(reports["parent"]),
         ",".join(reports["change"])], cwd=REPO_ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
