"""Alternating parent/change pairs of ``benchmarks/e2e`` workloads.

Every ``perf_opt`` PR is judged the way choosing-metrics §8 says: at
least ten pairs of parent and change, alternating which side runs
first, a gain claimed only if the change wins nine tenths of the pairs
and the medians differ by more than the parent's own interquartile
range — and no *other* workload may get worse.  This makes both one
command::

    python tools/ab_e2e.py --parent HEAD~1 --workload dsm_barriers --pairs 10
    python tools/ab_e2e.py --parent HEAD~1 --workload all --pairs 10

``--workload`` takes one name, a comma list or ``all``; the names are
checked against ``BENCHMARK.json`` before anything else happens.  The
parent revision is unpacked with ``git archive`` into a temporary
directory (removed afterwards; the repository's own git state is not
touched); the change is the working tree this script sits in,
uncommitted edits included.  Each run is that tree's own
``benchmarks/e2e/run.py --workload W --seed S --trace 0 --out FILE`` —
what the benchmark driver runs, for the run length BENCHMARK.json sets
on both sides.  Nothing under ``benchmarks/e2e/`` is written; the
reports go to ``--out-dir`` (default: a fresh temporary directory).

Per workload it lists ``--metric`` (default ``wall_s``) pair by pair
and says whether it meets the §8 gain rule.  It ends with one table of
every workload × end-to-end metric: run-to-run median and quartiles of
each side, their ratio and the verdict ``run.py --compare`` gives
(``ok``, ``regressed``, ``unresolved`` against the metric's bound).

Exit status: non-zero if a run failed (a digest differs from
``expected.json``), if work counts or digests differ between the
sides, or if any verdict in the table is not ``ok``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join("benchmarks", "e2e", "run.py")


def load_run_py():
    """``benchmarks/e2e/run.py`` as a module: its ``--compare`` rules
    (``load_side``, ``verdict``) are the table's, not a second copy."""
    spec = importlib.util.spec_from_file_location(
        "e2e_run", os.path.join(REPO_ROOT, RUN_PY))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_workloads(text: str, known: List[str]) -> List[str]:
    """``all`` or a comma list, every name checked against ``known``."""
    names = known if text == "all" else [w for w in text.split(",") if w]
    unknown = [w for w in names if w not in known]
    if unknown or not names:
        raise argparse.ArgumentTypeError(
            f"unknown workload(s) {', '.join(unknown) or repr(text)}; "
            f"BENCHMARK.json declares {', '.join(known)} (or 'all')")
    return list(dict.fromkeys(names))


def unpack_parent(rev: str) -> str:
    """``git archive`` of ``rev`` in a new temporary directory."""
    tree = tempfile.mkdtemp(prefix="ab_e2e-parent-")
    archive = os.path.join(tree, ".parent.tar")
    try:
        subprocess.run(["git", "archive", "-o", archive, rev],
                       cwd=REPO_ROOT, check=True)
        shutil.unpack_archive(archive, tree)
        os.remove(archive)
    except BaseException:
        shutil.rmtree(tree, ignore_errors=True)
        raise
    return tree


def run_once(tree: str, out: str, workload: str,
             args: argparse.Namespace) -> float:
    """One driver-form run of ``tree``; returns ``--metric``."""
    cmd = [sys.executable, RUN_PY, "--workload", workload,
           "--seed", str(args.seed), "--trace", "0", "--out", out]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL)
    if done.returncode:
        raise SystemExit(f"error: {' '.join(cmd)} exited "
                         f"{done.returncode} in {tree}")
    with open(out) as fh:
        entry = json.load(fh)["workloads"][workload]
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


def run_pairs(workload: str, trees: Dict[str, str], out_dir: str,
              args: argparse.Namespace, better: str
              ) -> Dict[str, List[str]]:
    """The alternating pairs of one workload; returns its reports."""
    reports: Dict[str, List[str]] = {"parent": [], "change": []}
    values: Dict[str, List[float]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else (
            "change", "parent")
        for side in order:
            out = os.path.join(out_dir, f"{workload}-{side}-{pair:02d}.json")
            values[side].append(run_once(trees[side], out, workload, args))
            reports[side].append(out)
        print(f"{workload} pair {pair + 1:>2}/{args.pairs} "
              f"({order[0]} first): {args.metric} "
              f"parent {values['parent'][-1]:.6g}  "
              f"change {values['change'][-1]:.6g}", flush=True)
    judge(values["parent"], values["change"], better)
    return reports


def print_table(reports: Dict[str, Dict[str, List[str]]],
                specs: List[Dict]) -> int:
    """Every workload × end-to-end metric, judged as ``--compare``
    judges a set of reports; returns how many rows are not ``ok``."""
    e2e = load_run_py()
    bad = 0
    print(f"\n{'workload':<13} {'metric':<14} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'ratio':>6}  verdict")
    for workload, sides in reports.items():
        parent = e2e.load_side(",".join(sides["parent"]))[workload]
        change = e2e.load_side(",".join(sides["change"]))[workload]
        if (parent["work"], parent["digests"]) != (
                change["work"], change["digests"]):
            bad += 1
            print(f"{workload:<13} work counts or digests DIFFER")
        for spec in specs:
            a = parent["end_to_end"].get(spec["name"])
            b = change["end_to_end"].get(spec["name"])
            if a is None or b is None:
                continue
            result = e2e.verdict(a, b, spec["better"], spec["bound"])
            bad += result != "ok"
            cells = [f"{m['value']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}]"
                     for m in (a, b)]
            print(f"{workload:<13} {spec['name']:<14} {cells[0]:<32} "
                  f"{cells[1]:<32} {b['value'] / a['value']:>6.3f}  "
                  f"{result} ({spec['better']} is better, "
                  f"bound {spec['bound']:.0%})")
    return bad


def main() -> int:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    known = [w["name"] for w in benchmark["workloads"]]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="git revision to compare the working tree to")
    parser.add_argument("--workload", required=True, metavar="NAMES",
                        type=lambda text: parse_workloads(text, known),
                        help="one workload, a comma list, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--metric", default="wall_s", choices=sorted(better),
                        help="end-to-end metric listed pair by pair")
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    out_dir = args.out_dir or tempfile.mkdtemp(prefix="ab_e2e-")
    os.makedirs(out_dir, exist_ok=True)
    trees = {"parent": unpack_parent(args.parent), "change": REPO_ROOT}
    try:
        reports = {workload: run_pairs(workload, trees, out_dir, args,
                                       better[args.metric])
                   for workload in args.workload}
    finally:
        shutil.rmtree(trees["parent"], ignore_errors=True)
    bad = print_table(reports, benchmark["end_to_end"])
    print(f"reports in {out_dir}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
