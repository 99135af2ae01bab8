"""EXPERIMENTS.md generation."""

import os

from repro.harness.experiments import REGISTRY, Report
from repro.harness.experiments_md import build, main, write_archive

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_experiments_md_is_regenerated():
    # The committed file is exactly what the registry and the archived
    # results generate: a registry edit without a regeneration fails.
    with open(os.path.join(REPO_ROOT, "EXPERIMENTS.md")) as fh:
        committed = fh.read()
    assert committed == build(os.path.join(REPO_ROOT, "benchmarks",
                                           "results"))


def test_every_experiment_states_its_paper_claim():
    for exp in REGISTRY.values():
        assert exp.paper_claim.strip(), exp.exp_id


def test_sync_sweep_documented(tmp_path):
    # The sync-sweep claim must name the design space's axes, and the
    # mapping table row is derived from its plan like every artifact's.
    claim = REGISTRY["sync-sweep"].paper_claim
    for algorithm in ("token", "mcs", "ticket", "combining",
                      "central", "tree"):
        assert algorithm in claim, algorithm
    results = tmp_path / "results"
    results.mkdir()
    text = build(str(results))
    assert "## sync-sweep —" in text
    assert "| `sync-sweep` | as, ah, hs8 | tsp-11, m-water-216 | 316 |" \
        in text


def test_build_with_results(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    (results / "t1.txt").write_text("== t1: demo ==\nrow\n")
    text = build(str(results))
    assert "# EXPERIMENTS" in text
    assert "== t1: demo ==" in text
    assert "no archived result" in text      # for the missing ones
    for exp_id, exp in REGISTRY.items():
        assert f"## {exp_id} —" in text
        assert f"**Paper:** {exp.paper_claim}" in text
        if exp.deviation:
            assert f"**Known deviation:** {exp.deviation}" in text


def test_write_archive_appends_the_expected_shape(tmp_path):
    body = write_archive(str(tmp_path / "results"), "fig3",
                         Report("fig3", "demo", ["row"]))
    assert (tmp_path / "results" / "fig3.txt").read_text() == body
    assert body == ("== fig3: demo ==\nrow\n[expected shape: "
                    f"{REGISTRY['fig3'].shape_note}]\n")


def test_main_writes_file(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    out = tmp_path / "EXP.md"
    assert main([str(results), str(out)]) == 0
    assert os.path.exists(out)
    assert "paper vs. measured" in out.read_text()
