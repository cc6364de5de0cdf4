"""Traced pass: run a workload's commands in one process, charged to layers.

Run by ``run.py --trace 1`` as a child process::

    PYTHONPATH=src python perfbench/traced.py COMMANDS.json RESULT.json

``COMMANDS.json`` is a list of ``{"argv": [...], "stdout": path}``. Each
``argv`` is passed to ``repro.cli.main`` in this process, with the
program's own tracer off (``run.py`` leaves ``--telemetry`` out of the
argv and ``REPRO_TELEMETRY`` out of the environment), after
:func:`install` has wrapped each layer's
public entry points with the benchmark's own spans; what it prints goes to
``stdout``. ``RESULT.json`` receives each command's exit code and wall
time, self seconds per span name, the counts, the analysis cache counters
and the import time of ``repro.cli``. Times here are raw; ``run.py`` scales
them by the host factor it measures around this process.

Each entry point is wrapped under the name its caller looks it up by, so
the wrapper is the function the program actually calls.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder, wrap_call, wrap_generator  # noqa: E402

#: Analysis artifacts (public ``AnalysisContext`` methods) given own spans.
ARTIFACTS = ("clean", "daily_matrix", "hourly_series", "geo_index",
             "association_index", "user_classes", "classification")


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def install(recorder: Recorder, contexts: list
            ) -> List[Tuple[object, str, Callable]]:
    """Wrap every traced entry point; returns ``(owner, attr, original)``.

    Each ``AnalysisContext`` the program builds is appended to
    ``contexts``, so its cache counters can be read after the run.
    """
    import repro.cli as cli
    import repro.simulation.campaign as campaign
    import repro.simulation.study as study
    from repro.analysis.context import AnalysisContext
    from repro.collection.pipeline import CollectionPump
    from repro.collection.server import CollectionServer
    from repro.obs.recorder import FlightRecorder
    from repro.traces.store import CampaignStore

    def merged(result, *args, **kwargs):
        recorder.count("engine.rows_merged", result.dataset.n_rows_total)
        report = result.collection
        if report is None:
            return
        totals = report.totals()
        recorder.count("collection.batches_generated", totals["ticks"])
        recorder.count("collection.batches_delivered", totals["delivered"])
        recorder.count("collection.lost_churn", totals["churned"])
        recorder.count("collection.lost_eviction", totals["dropped"])
        recorder.count("collection.duplicates_dropped",
                       report.duplicates_dropped)

    def persisted(result, dataset, path):
        recorder.count("traces.persist_bytes", _tree_bytes(path))

    def emitted(result, *args, **kwargs):
        recorder.count("obs.events")

    context_init = AnalysisContext.__init__

    def init_context(context, *args, **kwargs):
        context_init(context, *args, **kwargs)
        contexts.append(context)

    targets = [
        (study, "plan_campaign", wrap_call, ("simulation.world",)),
        (study, "execute_plans", wrap_call, ("engine.execute",)),
        (study, "merge_campaign", wrap_call, ("engine.merge", merged)),
        (campaign, "simulate_devices", wrap_generator,
         ("simulation.kernel", "simulation.devices")),
        (CollectionPump, "transmit", wrap_call, ("collection.pump",)),
        (CollectionPump, "transmit_bulk", wrap_call, ("collection.pump",)),
        (CollectionServer, "flush_buffers", wrap_call, ("collection.pump",)),
        (cli, "save_dataset", wrap_call, ("traces.persist", persisted)),
        (cli, "load_dataset", wrap_call, ("traces.load",)),
        (CampaignStore, "load_dataset", wrap_call, ("traces.load",)),
        (CampaignStore, "write_partition", wrap_call, ("traces.spill",)),
        (CampaignStore, "finalize", wrap_call, ("traces.finalize",)),
        (cli, "run_experiment", wrap_call,
         (lambda experiment_id, *a, **k: f"reporting.{experiment_id}",)),
        (FlightRecorder, "emit", wrap_call, ("obs.emit", emitted)),
    ] + [
        (AnalysisContext, name, wrap_call, (f"analysis.{name}",))
        for name in ARTIFACTS
    ]
    installed = []
    for owner, attr, wrapper, spec in targets:
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper(recorder, original, *spec))
        installed.append((owner, attr, original))
    AnalysisContext.__init__ = init_context
    installed.append((AnalysisContext, "__init__", context_init))
    return installed


def uninstall(installed: List[Tuple[object, str, Callable]]) -> None:
    for owner, attr, original in reversed(installed):
        setattr(owner, attr, original)


def run(commands: List[dict]) -> dict:
    start = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - start

    recorder = Recorder()
    contexts: list = []
    install(recorder, contexts)
    codes, walls = [], []
    for command in commands:
        with open(command["stdout"], "w") as out, \
                contextlib.redirect_stdout(out):
            with recorder.span("cli.main") as span:
                codes.append(repro.cli.main(command["argv"]))
        walls.append(span.duration)
    stats = [context.stats for context in contexts]
    return {
        "import_s": import_s,
        "codes": codes,
        "walls": walls,
        "self_s": recorder.self_times(),
        "counts": dict(recorder.counts),
        "cache_hits": sum(s.hits for s in stats),
        "cache_misses": sum(s.misses for s in stats),
        "cached_bytes": sum(s.cached_bytes for s in stats),
    }


if __name__ == "__main__":
    commands_path, result_path = sys.argv[1:3]
    commands = json.loads(Path(commands_path).read_text())
    Path(result_path).write_text(json.dumps(run(commands)))
