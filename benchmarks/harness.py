"""Shared pytest-benchmark harness for the ``benchmarks/`` suite.

Everything the ``bench_*.py`` scripts share lives here: the benchmark
scale knob, output persistence (text + SVG for figures), and
:func:`experiment_benchmark` — a factory that turns a registered
experiment id into a complete pytest-benchmark test;
``bench_experiments.py`` builds one per registered experiment.

The same experiments are also runnable outside pytest through
``python -m repro bench`` (see :mod:`repro.obs.bench`), which shares this
scale/seed convention and writes a consolidated ``BENCH_all.json``.

The benchmark study scale is controlled by ``REPRO_BENCH_SCALE`` (default
0.12 — about 200 users per campaign). Rendered experiment outputs are saved
under ``benchmarks/output/`` so paper-vs-measured comparisons can be read
after a run.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro import run_experiment
from repro.reporting.experiments import EXPERIMENTS

OUTPUT_DIR = Path(__file__).parent / "output"


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.12"))


#: Figures whose paper originals use log axes.
_LOG_X = {"fig03", "fig04", "fig13", "fig17", "fig19"}
_LOG_Y = {"fig13", "fig17"}


def save_output(output_dir: Path, experiment_id: str, result) -> None:
    """Persist a rendered experiment artifact (text, plus SVG for figures)."""
    text = result.render() if hasattr(result, "render") else str(result)
    (output_dir / f"{experiment_id}.txt").write_text(text + "\n")
    from repro.reporting.figures import Figure
    from repro.reporting.svg import figure_to_svg

    if isinstance(result, Figure):
        svg = figure_to_svg(
            result,
            log_x=experiment_id in _LOG_X,
            log_y=experiment_id in _LOG_Y,
        )
        (output_dir / f"{experiment_id}.svg").write_text(svg)


def experiment_benchmark(experiment_id: str):
    """Build the standard pytest-benchmark test for one registered experiment.

    The returned function runs the experiment end to end over the shared
    benchmark study (``bench_cache`` fixture) and saves the rendered
    artifact to ``benchmarks/output/<id>.txt`` (plus ``.svg`` for figures).
    """
    if experiment_id not in EXPERIMENTS:
        raise ValueError(f"unknown experiment id: {experiment_id}")

    def test(bench_cache, output_dir, benchmark):
        result = benchmark(run_experiment, experiment_id, bench_cache)
        save_output(output_dir, experiment_id, result)

    spec = EXPERIMENTS[experiment_id]
    test.__name__ = f"test_{experiment_id}"
    test.__doc__ = f"Benchmark: regenerate {spec.paper_item} — {spec.title}."
    return test
