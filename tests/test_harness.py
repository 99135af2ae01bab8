"""Harness: registry completeness, formatting, workloads, CLI."""

import dataclasses
import importlib
import os

import pytest

import repro

from repro.errors import ConfigurationError
from repro.harness import fmt
from repro.harness.cli import _SWEEP_FLAGS, build_parser, main
from repro.harness.experiments import (REGISTRY, SWEEP_OPTIONS, Scale,
                                       current_options,
                                       get_experiment,
                                       list_experiments, run_experiment,
                                       sweep_options)
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


# -- sweep options: one ambient mechanism, one CLI flag table ------------
def test_sweep_options_scopes_nest_and_stay_per_experiment():
    assert current_options("sync-sweep") == SWEEP_OPTIONS["sync-sweep"]()
    with sweep_options("sync-sweep", locks=("mcs",)) as outer:
        with sweep_options("fault-sweep", seed=7):
            assert current_options("sync-sweep") is outer
            assert current_options("fault-sweep").seed == 7
            with sweep_options("sync-sweep", locks=("ticket",)):
                assert current_options("sync-sweep").locks == ("ticket",)
            assert current_options("sync-sweep") is outer
        assert current_options("fault-sweep").seed == 42
    assert current_options("sync-sweep").locks != ("mcs",)


def test_sweep_options_validate_experiment_and_fields():
    with pytest.raises(ConfigurationError, match="takes no sweep options"):
        with sweep_options("fig3"):
            pass
    with pytest.raises(TypeError):
        with sweep_options("sync-sweep", loss_rates=(0.1,)):
            pass
    with pytest.raises(ConfigurationError, match="unknown mechanism"):
        with sweep_options("ablation-sweep", mechanisms=("telepathy",)):
            pass


def test_cli_sweep_flag_table_matches_parser_and_options():
    """Every flag in the table exists on `run` and names a real field."""
    args = build_parser().parse_args(["run", "fig3"])
    for exp_id, flags in _SWEEP_FLAGS.items():
        fields = {f.name for f in dataclasses.fields(SWEEP_OPTIONS[exp_id])}
        for flag, field, *_ in flags:
            assert getattr(args, flag[2:].replace("-", "_")) is None
            assert field in fields, (exp_id, field)


def test_cli_sweep_flags_reach_their_experiment(capsys, monkeypatch):
    seen = {}
    x3 = get_experiment("x3")

    def spy(scale):
        seen["opts"] = current_options("sync-sweep")
        return x3.plan(scale)

    monkeypatch.setitem(REGISTRY, "sync-sweep",
                        dataclasses.replace(x3, exp_id="sync-sweep",
                                            plan=spy))
    assert main(["run", "sync-sweep", "--scale", "test", "--no-cache",
                 "--no-ledger", "--sync-lock", "mcs", "--sync-lock",
                 "ticket", "--sync-machine", "as"]) == 0
    assert seen["opts"].locks == ("mcs", "ticket")
    assert seen["opts"].machines == ("as",)
    assert seen["opts"].barriers == SWEEP_OPTIONS["sync-sweep"]().barriers


def test_cli_sweep_flag_without_its_experiment_is_a_usage_error(capsys):
    assert main(["run", "fig3", "--scale", "test", "--crash-frac",
                 "0.5"]) == 2
    err = capsys.readouterr().err
    assert "--crash/--crash-frac/--detect-cycles" in err
    assert "'failure-sweep'" in err


def test_cli_bad_sweep_value_is_a_usage_error_before_any_session(
        capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    assert main(["run", "ablation-sweep", "--scale", "test",
                 "--cache-dir", str(cache_dir),
                 "--ablate-mechanism", "telepathy"]) == 2
    assert "unknown mechanism" in capsys.readouterr().err
    assert not cache_dir.exists()  # neither cache nor ledger was opened


def test_cli_ablate_is_run_ablation_sweep_at_test_scale(capsys,
                                                        monkeypatch):
    seen = {}
    x3 = get_experiment("x3")

    def spy(scale):
        seen["scale"] = scale
        seen["opts"] = current_options("ablation-sweep")
        return x3.plan(scale)

    monkeypatch.setitem(REGISTRY, "ablation-sweep",
                        dataclasses.replace(x3, exp_id="ablation-sweep",
                                            plan=spy))
    assert main(["ablate", "--no-cache", "--no-ledger",
                 "--ablate-mechanism", "diffs",
                 "--ablate-machine", "as"]) == 0
    assert seen["scale"] is Scale.TEST
    assert seen["opts"].mechanisms == ("diffs",)
    assert seen["opts"].machines == ("as",)
    assert "[ablation-sweep at scale=test" in capsys.readouterr().out
    # The alias takes only its own experiment's flags.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["ablate", "--sync-lock", "mcs"])


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
