"""One schema over every run counter the system produces.

Before this module, run accounting was scattered: the analysis memo kept
:class:`~repro.analysis.context.CacheStats`, the collection pipeline kept
:class:`~repro.collection.faults.CollectionReport` loss/outage counters, and
the execution engine kept shard timings inside span trees. A
:class:`MetricsRegistry` ingests all three into two flat, JSON-ready maps:

- ``counters`` — namespaced monotonic counts
  (``cache.clean.hits``, ``collection.2015.delivered``, ``engine.shards``);
- ``stages`` — per-stage timing rollups aggregated by span name
  (``{"wall_s", "cpu_s", "count"}`` per stage).

Ingestors are duck-typed (they read attributes, not types) so this module
imports nothing from the engine, collection, or analysis layers and can sit
below all of them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Union

Number = Union[int, float]

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Accumulates counters and per-stage timings for one run."""

    def __init__(self) -> None:
        self._counters: Dict[str, Number] = {}
        self._stages: Dict[str, Dict[str, Number]] = {}

    # -- primitives --------------------------------------------------------

    def count(self, name: str, n: Number = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + n

    def set(self, name: str, value: Number) -> None:
        self._counters[name] = value

    def observe(self, stage: str, wall_s: float, cpu_s: float = 0.0) -> None:
        entry = self._stages.setdefault(
            stage, {"wall_s": 0.0, "cpu_s": 0.0, "count": 0}
        )
        entry["wall_s"] += wall_s
        entry["cpu_s"] += cpu_s
        entry["count"] += 1

    @property
    def counters(self) -> Dict[str, Number]:
        return dict(self._counters)

    @property
    def stages(self) -> Dict[str, Dict[str, Number]]:
        return {k: dict(v) for k, v in self._stages.items()}

    # -- ingestors ---------------------------------------------------------

    def ingest_cache_stats(self, stats, prefix: str = "cache") -> None:
        """Fold a ``CacheStats``-shaped object into ``counters``.

        Artifact compute time is not observed here: each cache miss is an
        ``artifact.<name>`` span, and spans are the only source of stages.
        Expects ``per_artifact()`` yielding objects with ``artifact``,
        ``hits``, ``misses``, ``compute_seconds`` and ``cached_bytes``.
        """
        for entry in stats.per_artifact():
            base = f"{prefix}.{entry.artifact}"
            self.count(f"{base}.hits", entry.hits)
            self.count(f"{base}.misses", entry.misses)
            self.count(f"{base}.cached_bytes", entry.cached_bytes)
        self.set(f"{prefix}.hit_rate", round(_hit_rate(stats), 6))

    def ingest_collection_report(
        self, report, year: Optional[int] = None, prefix: str = "collection"
    ) -> None:
        """Fold a ``CollectionReport``-shaped object into ``counters``.

        Records the fault-loss accounting: batches generated vs delivered,
        churn/drop/duplicate losses, and the recruited-vs-valid panel gap.
        """
        base = f"{prefix}.{year}" if year is not None else prefix
        for key, value in report.totals().items():
            self.count(f"{base}.{key}", value)
        self.count(f"{base}.batches_received", report.batches_received)
        self.count(f"{base}.duplicates_dropped", report.duplicates_dropped)
        self.count(f"{base}.recruited", report.recruited)
        self.count(f"{base}.valid", report.n_valid())
        totals = report.totals()
        ticks = totals.get("ticks", 0)
        self.set(
            f"{base}.completeness",
            round(totals.get("delivered", 0) / ticks, 6) if ticks else 1.0,
        )

    def ingest_execution(self, info, prefix: str = "engine") -> None:
        """Fold an ``ExecutionInfo``-shaped object into ``counters``."""
        self.set(f"{prefix}.n_jobs", info.n_jobs)
        self.count(f"{prefix}.shards", info.n_shards)
        self.set(f"{prefix}.executor_parallel",
                 int(getattr(info, "executor", "serial") != "serial"))
        self.count(f"{prefix}.steals", getattr(info, "steals", 0))
        self.count(f"{prefix}.transport_bytes",
                   getattr(info, "transport_bytes", 0))

    def ingest_resilience(self, report, prefix: str = "engine") -> None:
        """Fold a ``ResilienceReport``-shaped object into ``counters``.

        Records the self-healing accounting: in-pool retries, serial
        fallbacks, shards dropped under partial mode, classified failure
        counts, and checkpoint traffic.
        """
        self.count(f"{prefix}.retries", report.retries)
        self.count(f"{prefix}.fallbacks", report.fallbacks)
        self.count(f"{prefix}.dropped_shards", report.dropped_shards)
        for kind, n in sorted(report.failures_by_kind.items()):
            self.count(f"{prefix}.failures.{kind}", n)
        self.count("checkpoint.saved", report.checkpoint_saved)
        self.count("checkpoint.hits", report.checkpoint_hits)
        self.count("checkpoint.corrupt", report.checkpoint_corrupt)

    def ingest_losses(self, losses, prefix: str = "engine") -> None:
        """Fold an ``ExecutionLosses``-shaped object into ``counters``."""
        base = f"{prefix}.{losses.year}"
        self.count(f"{base}.shards_dropped", len(losses.dropped_shards))
        self.count(f"{base}.devices_dropped", losses.dropped_devices)
        self.set(f"{base}.device_completeness",
                 round(losses.device_completeness, 6))

    def ingest_span_tree(self, exported: Optional[Mapping]) -> None:
        """Aggregate an exported span tree into per-stage timings.

        Stages sharing a span name accumulate (``simulate_shard`` over 8
        shards becomes one stage with ``count == 8``); span counters are
        summed into ``counters`` under ``span.<name>.<counter>``.
        """
        if not exported:
            return
        self.observe(str(exported["name"]),
                     float(exported.get("wall_s", 0.0)),
                     float(exported.get("cpu_s", 0.0)))
        for key, value in exported.get("counters", {}).items():
            self.count(f"span.{exported['name']}.{key}", value)
        for child in exported.get("children", ()):
            self.ingest_span_tree(child)

    # -- output ------------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-ready ``{"counters": ..., "stages": ...}`` (sorted keys)."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "stages": {
                k: {f: round(v, 6) if isinstance(v, float) else v
                    for f, v in self._stages[k].items()}
                for k in sorted(self._stages)
            },
        }

    def render(self) -> str:
        """Aligned plain-text report: stages first, then counters."""
        lines = ["run metrics", "-" * 11]
        if self._stages:
            width = max(len(k) for k in self._stages)
            lines.append(f"{'stage'.ljust(width)}  count  wall_s    cpu_s")
            for name in sorted(self._stages):
                entry = self._stages[name]
                lines.append(
                    f"{name.ljust(width)}  {entry['count']:5d}  "
                    f"{entry['wall_s']:8.3f}  {entry['cpu_s']:7.3f}"
                )
        if self._counters:
            width = max(len(k) for k in self._counters)
            for name in sorted(self._counters):
                lines.append(f"{name.ljust(width)}  {self._counters[name]}")
        return "\n".join(lines)


def _hit_rate(stats) -> float:
    hits = sum(e.hits for e in stats.per_artifact())
    misses = sum(e.misses for e in stats.per_artifact())
    return hits / (hits + misses) if hits + misses else 0.0
