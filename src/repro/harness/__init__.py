"""Experiment harness: regenerate every table and figure of the paper.

The registry in :mod:`repro.harness.experiments` maps experiment ids
(``t1``, ``t2``, ``fig1`` .. ``fig16``, ``x1`` .. ``x4``, ``a1`` ..
``a3``, then the sweeps of :mod:`repro.harness.sweeps`) to runnable
experiment definitions at three scales:

* ``test`` — seconds-long configurations for CI,
* ``bench`` — the default, preserving the paper's shape claims,
* ``paper`` — full problem sizes (slow).

Run from the command line::

    repro-harness list
    repro-harness run fig3 t2 --scale bench
"""

from repro.harness.experiments import REGISTRY, Report, Scale, get_experiment
from repro.harness import sweeps  # noqa: F401  (registers the sweeps)

__all__ = ["REGISTRY", "Scale", "Report", "get_experiment"]
