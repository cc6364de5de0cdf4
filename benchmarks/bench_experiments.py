"""Benchmarks: regenerate every registered paper table and figure.

One pytest-benchmark test per experiment in the registry (``test_fig01``
… ``test_table9``), each built by
:func:`benchmarks.harness.experiment_benchmark`: it runs the experiment end
to end over the benchmark study and saves the rendered artifact under
``benchmarks/output/``.
"""

from repro.reporting.experiments import EXPERIMENTS

from .harness import experiment_benchmark

for _experiment_id in sorted(EXPERIMENTS):
    globals()[f"test_{_experiment_id}"] = experiment_benchmark(_experiment_id)
