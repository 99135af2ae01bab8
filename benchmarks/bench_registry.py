"""Every registry experiment that has no dedicated BENCH script, timed.

One parametrised pytest-benchmark test regenerates each table, figure,
in-text experiment and ablation of the paper through the experiment
registry and archives its rows under ``benchmarks/results/<id>.txt``
(``_common.bench_experiment``).  What each id reproduces and the shape
it must show is the registry's ``title`` / ``shape_note`` (``repro-harness
list``; EXPERIMENTS.md).

Run one:  ``PYTHONPATH=src python -m pytest "benchmarks/bench_registry.py::test_experiment[fig3]"``
"""

import pytest

from _common import bench_experiment
from repro.harness.experiments import list_experiments

#: Sweeps with their own script, ``BENCH_*.json`` report and CI bars
#: (bench_sync_crossover.py, bench_recovery.py, bench_ablation.py).
DEDICATED = ("sync-sweep", "failure-sweep", "ablation-sweep")


@pytest.mark.parametrize(
    "exp_id", [exp.exp_id for exp in list_experiments()
               if exp.exp_id not in DEDICATED])
def test_experiment(benchmark, exp_id):
    bench_experiment(benchmark, exp_id)
