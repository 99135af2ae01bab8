"""Command-line interface: ``repro-harness``.

Usage::

    repro-harness list
    repro-harness run t1 fig3 --scale bench
    repro-harness run all --scale test --jobs 4
    repro-harness run fig3 --metrics-out metrics.jsonl --no-cache
    repro-harness validate --jobs 0            # 0 = all cores
    repro-harness trace fig3 --scale test
    repro-harness report --check --figures fig3,fig6

``run`` and ``validate`` fan independent simulations out over ``--jobs``
worker processes and reuse results from the content-addressed cache
(``--cache-dir``, default ``.repro-cache`` or ``$REPRO_CACHE_DIR``);
``--no-cache`` forces fresh simulation.  Both accelerations are
guaranteed not to change any number (see ``repro.harness.parallel``).
``trace`` always simulates serially and afresh — spans must be
collected live in-process.

Every simulated or cache-served run appends one record to the
append-only provenance ledger (``--ledger``, default
``<cache>/ledger.jsonl`` or ``$REPRO_LEDGER``; ``--no-ledger``
disables), and per-run start/done progress streams to stderr
(``--quiet`` suppresses).  ``report`` regenerates the committed
goldens and figure data through the ledger + cache and, with
``--check``, exits non-zero on any drift.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

# The CLI is written against the stable public surface (repro.__all__)
# wherever it reaches for library behaviour; only harness plumbing
# with no public equivalent (registry, default paths, exporters) comes
# from deep modules.
from repro import (ConfigurationError, ResultCache, Scale, run_context,
                   trace_session)
from repro.harness.cache import default_cache_dir, default_ledger_path
from repro.harness.experiments import (REGISTRY, Experiment,
                                       get_experiment, list_experiments)
from repro.ledger import Ledger
from repro.trace import write_chrome_trace, write_metrics_jsonl


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-harness`` argument parser, one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Regenerate the tables and figures of Cox et al., "
                    "'Software Versus Hardware Shared-Memory "
                    "Implementation' (ISCA 1994).")
    sub = parser.add_subparsers(dest="command", required=True)

    lister = sub.add_parser("list", help="list all experiments")
    lister.set_defaults(func=cmd_list)

    runner = sub.add_parser("run", help="run experiments by id")
    runner.add_argument("ids", nargs="+",
                        help="experiment ids (or 'all')")
    runner.add_argument("--scale", choices=[s.value for s in Scale],
                        default=Scale.BENCH.value,
                        help="problem-size scale (default: bench)")
    runner.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="also write one metrics JSON line per "
                             "machine run (machine, app, cycles, "
                             "counters)")
    _add_axis_option(runner)
    _add_exec_options(runner)
    runner.set_defaults(func=cmd_run)

    tracer = sub.add_parser(
        "trace",
        help="run experiments with tracing on; write a Chrome trace")
    tracer.add_argument("ids", nargs="+",
                        help="experiment ids (or 'all')")
    tracer.add_argument("--scale", choices=[s.value for s in Scale],
                        default=Scale.TEST.value,
                        help="problem-size scale (default: test)")
    tracer.add_argument("--out", metavar="PATH", default=None,
                        help="Chrome trace output path (default: "
                             "traces/<ids>-<scale>.trace.json)")
    tracer.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="also write metrics JSONL (with time "
                             "breakdowns) for the traced runs")
    tracer.set_defaults(func=cmd_trace)

    validator = sub.add_parser(
        "validate",
        help="evaluate the paper's shape claims as PASS/FAIL checks")
    validator.add_argument("--scale", choices=[s.value for s in Scale],
                           default=Scale.BENCH.value)
    _add_exec_options(validator)
    validator.set_defaults(func=cmd_validate)

    reporter = sub.add_parser(
        "report",
        help="regenerate committed goldens and figure data from the "
             "ledger-backed cache; detect drift")
    reporter.add_argument("--figures", metavar="IDS", default=None,
                          help="comma-separated figure experiment ids "
                               "(default: fig3,fig6)")
    reporter.add_argument("--scale", choices=[s.value for s in Scale],
                          default=Scale.TEST.value,
                          help="problem-size scale (default: test)")
    reporter.add_argument("--check", action="store_true",
                          help="exit non-zero if any regenerated "
                               "artifact drifts from the committed one")
    reporter.add_argument("--write", action="store_true",
                          help="rewrite the committed artifacts with "
                               "the regenerated data")
    reporter.add_argument("--drift-out", metavar="PATH", default=None,
                          help="also write the structured drift "
                               "document (JSON) here")
    _add_exec_options(reporter)
    reporter.set_defaults(func=cmd_report)

    checker = sub.add_parser(
        "check",
        help="run the checked conformance battery (online invariant "
             "checkers + differential fuzz programs) on all machines")
    checker.add_argument("--scale", choices=[s.value for s in Scale],
                         default=Scale.TEST.value,
                         help="problem-size scale for the application "
                              "entries (default: test)")
    checker.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="parallel simulation workers "
                              "(0 = all cores; default: 1)")
    checker.set_defaults(func=cmd_check)

    fuzzer = sub.add_parser(
        "fuzz",
        help="differential-fuzz random DRF programs across all five "
             "machine models with the consistency checkers armed")
    fuzzer.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default: 0)")
    fuzzer.add_argument("--iters", type=int, default=50, metavar="N",
                        help="number of random programs (default: 50)")
    fuzzer.add_argument("--shrink", dest="shrink", action="store_true",
                        default=True,
                        help="shrink failures to a minimal reproducer "
                             "(default)")
    fuzzer.add_argument("--no-shrink", dest="shrink",
                        action="store_false",
                        help="keep failing programs as generated")
    fuzzer.add_argument("--seeds-dir", metavar="PATH", default=None,
                        help="regression-seed directory; persisted "
                             "failures are replayed first and new "
                             "minimal repros saved here (default: "
                             "tests/fuzz_seeds)")
    fuzzer.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel simulation workers "
                             "(0 = all cores; default: 1)")
    fuzzer.add_argument("--ablation-iters", type=int, default=0,
                        metavar="N",
                        help="additional random-ablation differential "
                             "cases (each runs one program on software "
                             "machines with a seeded random mechanism "
                             "subset switched off; default: 0)")
    fuzzer.set_defaults(func=cmd_fuzz)

    ablater = sub.add_parser(
        "ablate",
        help="run the ablation-sweep experiment and print the ranked "
             "which-mechanism-earns-its-cost report")
    ablater.add_argument("--scale", choices=[s.value for s in Scale],
                         default=Scale.TEST.value,
                         help="problem-size scale (default: test)")
    _add_axis_option(ablater)
    _add_exec_options(ablater)
    # `ablate` is `run ablation-sweep`, defaulting to test scale.
    ablater.set_defaults(func=cmd_run, ids=["ablation-sweep"],
                         metrics_out=None)
    return parser


def _add_axis_option(sub: argparse.ArgumentParser) -> None:
    """--axis: replace one axis of a variant-grid experiment."""
    sub.add_argument("--axis", action="append", default=[],
                     metavar="NAME=V1,V2",
                     help="run the one experiment given (fig14-16 or a "
                          "sweep) on its variant grid with axis NAME "
                          "(machines, workloads or values) replaced; "
                          "values take the grid's labels, e.g. "
                          "values=0.1 for fault-sweep or "
                          "values=mcs+tree for sync-sweep (repeatable)")


def _add_exec_options(sub: argparse.ArgumentParser) -> None:
    """--jobs / cache / ledger / progress options, shared by the
    simulation-heavy subcommands (run, validate, report)."""
    sub.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="run up to N independent simulations in "
                          "parallel worker processes (0 = all cores; "
                          "default: 1)")
    sub.add_argument("--cache-dir", metavar="PATH", default=None,
                     help="content-addressed result cache directory "
                          "(default: $REPRO_CACHE_DIR or .repro-cache)")
    sub.add_argument("--no-cache", action="store_true",
                     help="simulate every point afresh, and store "
                          "nothing")
    sub.add_argument("--ledger", metavar="PATH", default=None,
                     help="append-only provenance ledger (default: "
                          "$REPRO_LEDGER or <cache dir>/ledger.jsonl)")
    sub.add_argument("--no-ledger", action="store_true",
                     help="record no provenance")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress per-run progress lines on stderr")


def _make_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir or default_cache_dir())


def _make_ledger(args: argparse.Namespace) -> Optional[Ledger]:
    if args.no_ledger:
        return None
    path = args.ledger or default_ledger_path(args.cache_dir)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    return Ledger(path)


def _report_cache(cache: Optional[ResultCache],
                  ledger: Optional[Ledger] = None) -> None:
    if cache is not None:
        print(cache.format_stats())
    if ledger is not None and ledger.appended:
        print(f"[ledger] appended={ledger.appended} path={ledger.path}")


def cmd_list(_args: argparse.Namespace) -> int:
    """``list``: every experiment with its paper reference and shape."""
    for exp in list_experiments():
        print(f"{exp.exp_id:6s} {exp.paper_ref:14s} {exp.title}")
        print(f"       shape: {exp.shape_note}")
    return 0


def _experiments(ids: List[str], axes: List[str]) -> List[Experiment]:
    """The experiments ``ids`` name (``all``: every one), with the
    ``--axis`` overrides applied; a ConfigurationError on any bad id or
    override."""
    experiments = ([get_experiment(exp_id) for exp_id in ids]
                   if ids != ["all"] else list_experiments())
    if not axes:
        return experiments
    if len(experiments) != 1:
        raise ConfigurationError(
            f"--axis applies to one experiment, got {len(experiments)}")
    overrides: dict = {}
    for text in axes:
        name, sep, values = text.partition("=")
        if not sep:
            raise ConfigurationError(f"--axis takes NAME=V1,V2: {text!r}")
        overrides[name.strip()] = overrides.get(name.strip(), ()) + tuple(
            value.strip() for value in values.split(",") if value.strip())
    return [experiments[0].over(**overrides)]


def cmd_run(args: argparse.Namespace) -> int:
    """``run`` (and ``ablate``): run experiments and print their reports."""
    scale = Scale(args.scale)
    try:
        # Before any session: a usage error must not leave a cache or
        # ledger behind.
        experiments = _experiments(args.ids, args.axis)
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 2

    def run_all() -> None:
        for exp in experiments:
            start = time.time()
            report = exp.run(scale)
            elapsed = time.time() - start
            print(report.text())
            print(f"   [{exp.exp_id} at scale={scale.value} in "
                  f"{elapsed:.1f}s; "
                  f"expected shape: {exp.shape_note}]")
            print()

    cache = _make_cache(args)
    ledger = _make_ledger(args)
    with run_context(jobs=args.jobs, cache=cache, ledger=ledger,
                     quiet=args.quiet):
        if args.metrics_out:
            # Metrics-only session: collects every run with zero
            # per-event overhead (no tracers are created).
            with trace_session(trace=False) as session:
                run_all()
            lines = write_metrics_jsonl(args.metrics_out,
                                        session.results)
            print(f"wrote {lines} metrics records to "
                  f"{args.metrics_out}")
        else:
            run_all()
    _report_cache(cache, ledger)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``trace``: run experiments traced; write a Chrome trace."""
    scale = Scale(args.scale)
    try:
        experiments = _experiments(args.ids, [])
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 2
    out = args.out
    if out is None:
        ids = "-".join(exp.exp_id for exp in experiments)
        out = os.path.join("traces", f"{ids}-{scale.value}.trace.json")
    out_dir = os.path.dirname(out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    with trace_session(trace=True) as session:
        for exp in experiments:
            start = time.time()
            report = exp.run(scale)
            elapsed = time.time() - start
            print(report.text())
            print(f"   [{exp.exp_id} traced at scale={scale.value} in "
                  f"{elapsed:.1f}s]")
            print()

    write_chrome_trace(out, session.tracers)
    print(f"wrote Chrome trace of {len(session.tracers)} runs to {out}")
    print("  (load in chrome://tracing or https://ui.perfetto.dev)")
    print()
    print("time breakdown (fraction of aggregate processor time):")
    for run in session.runs:
        b = run.result.breakdown
        if b is None:
            continue
        fracs = " ".join(f"{cat}={frac:.2f}"
                         for cat, frac in b.fractions().items())
        print(f"  {run.result.machine:12s} {run.result.app:12s} "
              f"p{run.result.nprocs:<3d} {fracs} "
              f"sw_overhead={b.software_overhead_fraction():.2f}")
    if args.metrics_out:
        lines = write_metrics_jsonl(args.metrics_out, session.results)
        print(f"wrote {lines} metrics records to {args.metrics_out}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """``validate``: evaluate every shape check; 1 if any fails."""
    from repro.harness.validate import format_results, run_validation
    scale = Scale(args.scale)
    cache = _make_cache(args)
    ledger = _make_ledger(args)
    with run_context(jobs=args.jobs, cache=cache, ledger=ledger,
                     quiet=args.quiet):
        results = run_validation(scale)
    for line in format_results(results, scale):
        print(line)
    _report_cache(cache, ledger)
    return 0 if all(ok for _c, ok in results) else 1


def cmd_report(args: argparse.Namespace) -> int:
    """``report``: regenerate the goldens and diff them for drift."""
    import json as _json

    from repro.harness.report import DEFAULT_FIGURES, run_report
    figures = DEFAULT_FIGURES
    if args.figures:
        figures = tuple(f for f in args.figures.split(",") if f)
    unknown = [f for f in figures if f not in REGISTRY]
    if unknown:
        print(f"unknown figure ids: {unknown}", file=sys.stderr)
        return 2
    cache = _make_cache(args)
    ledger = _make_ledger(args)
    with run_context(jobs=args.jobs, cache=cache, ledger=ledger,
                     quiet=args.quiet):
        outcome = run_report(figures=figures, scale=Scale(args.scale),
                             write=args.write, log=print)
    _report_cache(cache, ledger)
    if args.drift_out:
        with open(args.drift_out, "w") as fh:
            _json.dump(outcome.drift_document(), fh, indent=2,
                       sort_keys=True)
            fh.write("\n")
        print(f"wrote drift document to {args.drift_out}")
    if outcome.drifts:
        print(f"[report] DRIFT: {len(outcome.drifts)} mismatched "
              f"value(s)", file=sys.stderr)
        for drift in outcome.drifts:
            print(f"  {drift.line()}", file=sys.stderr)
        if args.check:
            return 2
    elif args.check:
        print("[report] OK: no drift")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """``check``: run the checked conformance battery."""
    from repro.check.conformance import run_conformance
    report = run_conformance(Scale(args.scale), jobs=args.jobs,
                             log=print)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    """``fuzz``: run a differential fuzz campaign."""
    from repro.check.fuzz import SEEDS_DIRNAME, fuzz_run, load_seeds
    seeds_dir = args.seeds_dir or SEEDS_DIRNAME
    regressions = load_seeds(seeds_dir)
    if regressions:
        print(f"replaying {len(regressions)} persisted regression "
              f"seed(s) from {seeds_dir}")
    report = fuzz_run(args.seed, args.iters, shrink=args.shrink,
                      seeds_dir=seeds_dir, jobs=args.jobs,
                      regression_programs=regressions,
                      ablation_iters=args.ablation_iters, log=print)
    status = "PASS" if report.ok else "FAIL"
    print(f"[{status}] fuzz campaign seed={args.seed}: "
          f"{report.programs_run} programs "
          f"({len(regressions)} regression + {report.iterations} "
          f"random), {len(report.failures)} failure(s)")
    for outcome in report.failures:
        print(f"  - {outcome.reason}")
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` and run the chosen command; returns its exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
