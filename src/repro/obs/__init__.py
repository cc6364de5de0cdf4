"""Run-telemetry and fidelity-observability subsystem.

Stdlib-light modules the rest of the system threads through:

- :mod:`repro.obs.recorder` — the one instrumentation spine: the
  crash-durable flight recorder (append-only ``events.jsonl``; one
  O_APPEND write per event) whose ``span()``/``count()`` record timed,
  nested stages as ``span_start``/``span_end`` events. A shared no-op
  recorder keeps instrumented hot paths zero-overhead unless a command
  asks for ``--events``/``--telemetry``. Every view is a fold over the
  log: :func:`~repro.obs.recorder.span_tree` (manifest spans and stages),
  :func:`~repro.obs.recorder.chrome_trace` (``chrome://tracing`` /
  Perfetto) and the truncation-tolerant
  :func:`~repro.obs.recorder.reconstruct` postmortem. Stdlib-only, so
  every layer can record.
- :mod:`repro.obs.metrics` — ``MetricsRegistry`` folding the analysis
  cache stats, collection loss accounting and executor shard timings into
  one counters/stages schema.
- :mod:`repro.obs.manifest` — ``RunManifest``, the machine-readable JSON
  account of one run (config hash, seed, shard layout, per-stage seconds,
  cache hit rates, fault losses).
- :mod:`repro.obs.reference` — the paper-reference registry: one
  ``PaperRef`` per checkable claim, each with a tolerance/shape
  ``Predicate`` producing a normalized divergence and verdict.
- :mod:`repro.obs.resources` — the daemon-thread resource sampler
  (RSS/CPU//dev/shm/store-disk plus executor lifetime counters) with a
  Prometheus-textfile exporter.
- :mod:`repro.obs.history` — append-only run-history JSONL for
  ``bench``/``fidelity`` gate results, with rolling-window drift
  warnings and sparkline rendering.

:mod:`repro.obs.bench` (the ``repro bench`` harness),
:mod:`repro.obs.fidelity` (the scorer), :mod:`repro.obs.docgen` and
:mod:`repro.obs.report` are deliberately NOT imported here: they reach up
into the simulation/analysis/reporting layers, which import this package,
and eager import would cycle.
"""

from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    build_manifest,
    config_hash_of,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import (
    EVENT_KINDS,
    EVENTS_ENV_VAR,
    FlightRecorder,
    NoopRecorder,
    Postmortem,
    chrome_trace,
    get_recorder,
    load_events,
    parse_events,
    reconstruct,
    set_recorder,
    span_tree,
    use_recorder,
    write_chrome_trace,
)
from repro.obs.reference import (
    REFERENCES,
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_SKIP,
    VERDICT_WARN,
    PaperRef,
    Predicate,
    refs_for,
    verdict_rank,
)

__all__ = [
    "MetricsRegistry",
    "RunManifest",
    "build_manifest",
    "config_hash_of",
    "MANIFEST_SCHEMA_VERSION",
    "chrome_trace",
    "span_tree",
    "write_chrome_trace",
    "REFERENCES",
    "PaperRef",
    "Predicate",
    "refs_for",
    "verdict_rank",
    "VERDICT_PASS",
    "VERDICT_WARN",
    "VERDICT_FAIL",
    "VERDICT_SKIP",
    "EVENT_KINDS",
    "EVENTS_ENV_VAR",
    "FlightRecorder",
    "NoopRecorder",
    "Postmortem",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "parse_events",
    "load_events",
    "reconstruct",
]
