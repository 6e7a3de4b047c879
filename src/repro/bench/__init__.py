"""Experiment harness regenerating every table and figure of Section VI.

Each experiment is one entry of :data:`~repro.bench.figures.EXPERIMENTS`:
independent units that each return table rows, merged into an
:class:`~repro.bench.harness.ExperimentResult` (a titled table of rows plus
notes on how it maps to the paper).  Run from the command line::

    python -m repro.bench list
    python -m repro.bench fig4            # fast (reduced-scale) mode
    python -m repro.bench fig4 --full     # paper-scale workloads
    python -m repro.bench all

or through the pytest-benchmark suite in ``benchmarks/``.
"""

from repro.bench.harness import ExperimentResult, format_table
from repro.bench.figures import (
    EXPERIMENTS,
    experiment_units,
    merge_experiment_units,
    run_experiment,
    run_experiment_unit,
)

__all__ = [
    "ExperimentResult",
    "format_table",
    "EXPERIMENTS",
    "run_experiment",
    "experiment_units",
    "run_experiment_unit",
    "merge_experiment_units",
]
