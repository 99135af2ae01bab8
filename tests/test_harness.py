"""Harness: registry completeness, formatting, workloads, CLI."""

import importlib
import os
import re

import pytest

import repro

from repro.errors import ConfigurationError
from repro.harness import fmt
from repro.harness import experiments
from repro.harness.cli import build_parser, main
from repro.harness.experiments import (REGISTRY, Scale, get_experiment,
                                       list_experiments, run_experiment)
from repro.harness.workloads import (EXPERIMENTAL_PROCS, WORKLOADS,
                                     make_app)


def test_registry_covers_every_paper_artifact():
    expected = (["t1", "t2"] + [f"fig{i}" for i in range(1, 17)] +
                ["x1", "x2", "x3", "x4", "a1", "a2", "a3",
                 "fault-sweep", "failure-sweep", "sync-sweep",
                 "ablation-sweep"])
    assert set(REGISTRY) == set(expected)
    assert [e.exp_id for e in list_experiments()] == expected


def test_every_experiment_has_metadata():
    for exp in REGISTRY.values():
        assert exp.title
        assert exp.paper_ref
        assert exp.shape_note
        assert callable(exp.plan) and callable(exp.assemble)


#: exp_id -> ((specs, unique run keys) at TEST, the same at BENCH).
PLAN_SIZES = {
    "t1": ((16, 16), (16, 16)), "t2": ((8, 8), (8, 8)),
    **{f"fig{i}": ((10, 8), (10, 8)) for i in range(1, 9)},
    **{f"fig{i}": ((12, 9), (18, 15)) for i in (9, 10, 11)},
    "fig12": ((6, 6), (6, 6)), "fig13": ((6, 6), (6, 6)),
    "fig14": ((16, 9), (24, 17)), "fig15": ((16, 9), (24, 17)),
    "fig16": ((16, 12), (24, 20)),
    "x1": ((15, 11), (15, 11)), "x2": ((60, 44), (60, 44)),
    "x3": ((20, 16), (20, 16)), "x4": ((4, 4), (4, 4)),
    "a1": ((8, 6), (8, 6)), "a2": ((12, 9), (12, 9)),
    "a3": ((20, 20), (20, 20)),
    "fault-sweep": ((15, 15), (15, 15)),
    "failure-sweep": ((8, 8), (8, 8)),
    "sync-sweep": ((288, 172), (432, 316)),
    "ablation-sweep": ((54, 54), (54, 54)),
}


@pytest.mark.parametrize("scale", [Scale.TEST, Scale.BENCH])
def test_plan_sizes_are_pinned(scale):
    """Each experiment's plan, built without simulating anything, has
    the pinned number of specs and of unique run keys (what the
    EXPERIMENTS.md map's run column prints at bench scale)."""
    column = 0 if scale is Scale.TEST else 1
    sizes = {}
    for exp_id, exp in REGISTRY.items():
        specs = exp.plan(scale).specs
        sizes[exp_id] = (len(specs), len({spec.key() for spec in specs}))
    assert sizes == {exp_id: pins[column]
                     for exp_id, pins in PLAN_SIZES.items()}


def test_get_experiment_unknown():
    with pytest.raises(ConfigurationError):
        get_experiment("fig99")


def test_workload_factories_at_all_scales():
    for name in WORKLOADS:
        for scale in Scale:
            app = make_app(name, scale)
            assert app.regions(4)
    with pytest.raises(ConfigurationError):
        make_app("nope", Scale.TEST)


def test_experimental_procs_go_to_eight():
    assert EXPERIMENTAL_PROCS == (1, 2, 4, 8)


def test_format_table_alignment():
    lines = fmt.format_table(["name", "v"], [["a", 1.5], ["bb", 1234.0]])
    assert len(lines) == 4
    assert lines[0].startswith("name")
    assert "1,234" in lines[3]


def test_format_speedups():
    lines = fmt.format_speedups({"m1": {1: 1.0, 2: 1.9}}, [1, 2])
    assert "m1" in lines[2]
    assert "1.90" in lines[2]


def test_run_t1_at_test_scale_structure():
    report = run_experiment("t1", Scale.TEST)
    assert report.exp_id == "t1"
    assert len(report.data) == 8
    for row in report.data.values():
        # DSM overhead ~ nil at one processor.
        assert row["treadmarks"] == pytest.approx(row["dec"])
    assert report.text().startswith("== t1")


def test_run_fig_at_test_scale_structure():
    report = run_experiment("fig4", Scale.TEST)
    speedups = report.data["speedups"]
    assert set(speedups) == {"treadmarks", "sgi"}
    for series in speedups.values():
        assert series[1] == pytest.approx(1.0)


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig16" in out and "Table 1" in out


def test_cli_run_unknown_id(capsys):
    assert main(["run", "fig99"]) == 2


def test_cli_run_test_scale(capsys):
    assert main(["run", "x3", "--scale", "test"]) == 0
    out = capsys.readouterr().out
    assert "x3" in out


def test_cli_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# -- variant grids: one declared type, one --axis flag -----------------
GRIDS = {exp_id: exp.grid for exp_id, exp in REGISTRY.items() if exp.grid}


def test_the_sweeps_and_overhead_figures_are_grids():
    assert list(GRIDS) == ["fig14", "fig15", "fig16", "fault-sweep",
                           "failure-sweep", "sync-sweep", "ablation-sweep"]
    for exp_id, grid in GRIDS.items():
        exp = REGISTRY[exp_id]
        assert exp.plan == grid.plan and exp.assemble == grid.assemble


@pytest.mark.parametrize("exp_id", list(GRIDS))
def test_grid_values_round_trip_their_labels(exp_id):
    grid = GRIDS[exp_id]
    for value in grid.values + ((grid.baseline,) if grid.baseline else ()):
        assert grid.axis.label(grid.axis.parse(value)) == value


def test_grid_override_is_an_explicit_replacement():
    """``over`` returns a new experiment on a new grid; the registry
    entry and every axis not named keep their declared values."""
    sync = get_experiment("sync-sweep")
    narrowed = sync.over(Scale.TEST, values=("mcs",), machines=("as",))
    assert narrowed.grid.values == ("mcs+central",)
    assert narrowed.grid.machines == ("as",)
    assert narrowed.grid.workloads == sync.grid.workloads
    assert narrowed.plan(Scale.TEST).layout.keys() == {
        ("as", workload, "mcs+central") for workload in sync.grid.workloads}
    assert REGISTRY["sync-sweep"] is sync and len(sync.grid.values) == 12


def test_grid_override_validates_names_and_values():
    with pytest.raises(ConfigurationError, match="no variant grid"):
        get_experiment("fig3").over(Scale.TEST, values=("x",))
    with pytest.raises(ConfigurationError, match="bad axis"):
        get_experiment("sync-sweep").over(Scale.TEST, locks=("mcs",))
    with pytest.raises(ConfigurationError, match="unknown ablation"):
        get_experiment("ablation-sweep").over(
            Scale.TEST, values=("no-telepathy",))
    with pytest.raises(ConfigurationError, match="bad axis value"):
        get_experiment("fault-sweep").over(Scale.TEST, values=("lots",))
    with pytest.raises(ConfigurationError, match="unknown machine"):
        get_experiment("fault-sweep").over(Scale.TEST, machines=("vax",))
    # A crash target is a DSM node, and HS has 2 of them at test scale
    # (16 processors) but 8 at bench (64): the run's scale decides.
    crash = dict(values=("crash@node3:t=500000",))
    with pytest.raises(ConfigurationError, match="outside the 2-node"):
        get_experiment("failure-sweep").over(Scale.TEST, **crash)
    get_experiment("failure-sweep").over(Scale.BENCH, **crash)


class _Planned(Exception):
    """Raised by the ``execute_plan`` spy once it has seen a plan."""


@pytest.fixture
def planned(monkeypatch):
    """The plans experiments hand to ``execute_plan``; the first one
    ends the command (nothing is simulated)."""
    seen = []

    def spy(plan, **_kwargs):
        seen.append(plan)
        raise _Planned

    monkeypatch.setattr(experiments, "execute_plan", spy)
    return seen


def test_cli_axis_values_reach_the_fault_sweep_plan(planned):
    with pytest.raises(_Planned):
        main(["run", "fault-sweep", "--scale", "test", "--no-cache",
              "--no-ledger", "--axis", "values=0.1"])
    plan, = planned
    assert {value for _m, _w, value in plan.layout} == {"loss0.1"}
    assert [(spec.machine.faults.loss_rate, spec.nprocs)
            for spec in plan.specs] == [(0.0, 1), (0.1, 8)] * 3


def test_cli_sweep_flags_reach_their_experiment(planned):
    with pytest.raises(_Planned):
        main(["run", "sync-sweep", "--scale", "test", "--no-cache",
              "--no-ledger", "--axis", "values=mcs,ticket+tree",
              "--axis", "machines=as"])
    plan, = planned
    assert list(plan.layout) == [
        ("as", workload, value)
        for workload in REGISTRY["sync-sweep"].grid.workloads
        for value in ("mcs+central", "ticket+tree")]


def test_cli_sweep_flag_without_its_experiment_is_a_usage_error(capsys):
    assert main(["run", "fig3", "--scale", "test",
                 "--axis", "values=0.1"]) == 2
    assert "'fig3' has no variant grid" in capsys.readouterr().err
    assert main(["run", "fault-sweep", "sync-sweep", "--scale", "test",
                 "--axis", "values=0.1"]) == 2
    assert "--axis applies to one experiment" in capsys.readouterr().err


def test_cli_bad_sweep_value_is_a_usage_error_before_any_session(
        capsys, tmp_path):
    for argv, message in [
            (["ablation-sweep", "--axis", "mechanisms=diffs"], "bad axis"),
            (["ablation-sweep", "--axis", "values=no-telepathy"],
             "unknown ablation mechanism"),
            (["failure-sweep", "--axis", "values=crash@nodeX:t=5"],
             "integer node"),
            (["failure-sweep", "--axis", "values=crash@node3:t=500000"],
             "crash node 3 outside the 2-node machine"),
            (["fault-sweep", "--axis", "values=lots"], "bad axis value"),
            (["fault-sweep", "sync-sweep", "--axis", "values=0.1"],
             "one experiment")]:
        cache_dir = tmp_path / "cache"
        assert main(["run", *argv, "--scale", "test",
                     "--cache-dir", str(cache_dir)]) == 2, argv
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err, argv
        assert len(err.splitlines()) == 1, argv
        assert not cache_dir.exists()  # neither cache nor ledger opened


def test_cli_axis_is_the_one_sweep_flag():
    parser = build_parser()
    assert parser.parse_args(["run", "fig3"]).axis == []
    for flag in ("--sync-lock", "--crash", "--loss-rate", "--ablate-grid"):
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "sync-sweep", flag, "x"])


def test_cli_ablate_is_run_ablation_sweep_at_test_scale(capsys):
    assert main(["ablate", "--no-cache", "--no-ledger",
                 "--axis", "values=no-diffs", "--axis", "machines=as",
                 "--axis", "workloads=tsp19"]) == 0
    out = capsys.readouterr().out
    assert "[ablation-sweep at scale=test" in out
    assert re.search(r"^as\s+tsp19\s+loo\s+no-diffs\s", out, re.M)


def test_design_md_paper_refs_name_existing_headings():
    """A ``paper_ref`` that cites DESIGN.md names one of its sections,
    by number or by title."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "DESIGN.md")) as fh:
        headings = re.findall(r"^#+ (?:(\d+)\. )?(.+)$", fh.read(), re.M)
    sections = {part for heading in headings for part in heading if part}
    cited = [exp.paper_ref for exp in REGISTRY.values()
             if "DESIGN.md" in exp.paper_ref]
    assert cited
    for ref in cited:
        assert re.fullmatch(r"DESIGN\.md §(.+)", ref), ref
        assert ref.split("§", 1)[1] in sections, ref


def test_pyproject_takes_its_version_from_the_package():
    """One version string: ``repro.__version__`` (stamped into every
    ledger record) is what packaging reports, not a second literal."""
    tomllib = pytest.importorskip("tomllib")        # Python 3.11+
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        doc = tomllib.load(fh)
    assert "version" not in doc["project"]
    assert doc["project"]["dynamic"] == ["version"]
    module, attr = doc["tool"]["setuptools"]["dynamic"]["version"][
        "attr"].rsplit(".", 1)
    assert getattr(importlib.import_module(module), attr) == \
        repro.__version__
