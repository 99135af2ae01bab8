"""Every registry experiment, timed and archived at bench scale.

One parametrised pytest-benchmark test regenerates each table, figure,
in-text experiment, ablation and sweep through the experiment registry
and archives its rows under ``benchmarks/results/<id>.txt``
(``_common.bench_experiment``).  What each id reproduces and the shape
it must show is the registry's ``title`` / ``shape_note`` (``repro-harness
list``; EXPERIMENTS.md); the claims themselves are gated by
``repro-harness validate``.

Run one:  ``PYTHONPATH=src python -m pytest "benchmarks/bench_registry.py::test_experiment[fig3]"``
"""

import pytest

from _common import bench_experiment
from repro.harness.experiments import list_experiments


@pytest.mark.parametrize(
    "exp_id", [exp.exp_id for exp in list_experiments()])
def test_experiment(benchmark, exp_id):
    bench_experiment(benchmark, exp_id)
