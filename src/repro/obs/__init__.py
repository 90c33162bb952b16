"""Observability: counters, metrics, series, traces, manifests.

The layers, in increasing cost:

* :class:`~repro.obs.telemetry.RunTelemetry` — integer counters the
  kernel's lean loop bumps inline; always on, near-zero cost, rides on
  :class:`~repro.core.metrics.RunResult` (and across worker processes
  in sweeps).
* :class:`~repro.obs.metrics.MetricRegistry` — the deterministic
  metric registry (counters, high-water gauges, fixed-bucket
  histograms) with order-independent merge;
  :class:`~repro.obs.metrics.RunMetricsRecorder` feeds one per step.
* :class:`~repro.obs.series.StepSeries` — bounded per-step time series
  (Φ, in-flight, deflections, max node load) via
  :class:`~repro.obs.series.SeriesRecorder`.  Both recorders consume
  only the kernel's per-step summaries (``needs_summaries``), so they
  ride the lean loops and the soa backend unchanged.
* :class:`~repro.obs.tracing.PacketTracer` — opt-in
  deflection-causality tracing (inject → advance/deflect(by=q) →
  deliver); needs the instrumented loop.
* :class:`~repro.obs.profiler.PhaseProfiler` — opt-in wall-clock
  timing of the kernel pipeline phases, read by the loop that actually
  runs (:meth:`~repro.core.kernel.StepKernel.run_lean` or the soa
  loops); identical routing semantics, just timestamped.
* :class:`~repro.obs.manifest.RunManifest` /
  :class:`~repro.obs.manifest.JsonlRunLogger` — structured JSONL
  self-descriptions of whole runs (config, seed, git sha, telemetry,
  phase timings), written from the CLI via ``--telemetry PATH``.
* :mod:`~repro.obs.export` — schema-versioned JSONL series/trace
  sinks plus Prometheus text exposition of a registry snapshot.

This package is the sanctioned wall-clock domain for the DET106 lint
rule (``repro.obs.clock`` specifically), mirroring how
:mod:`repro.core.rng` is the sanctioned RNG home for DET101; the
OBS6xx family additionally polices that metrics flow through the
registry and that nothing else in ``repro.obs`` imports a clock.

Import structure: :mod:`repro.obs.telemetry`, ``.clock``,
``.profiler``, ``.metrics``, ``.series``, ``.tracing`` and ``.export``
never import ``repro.core`` at runtime (the core engines import
*them*, so this direction must stay acyclic).  Manifest names are
re-exported lazily — they pull in the core layer.

See ``docs/observability.md`` for the complete catalog of counters,
metrics, series columns, trace events, and schema versions.
"""

from typing import Any

from repro.obs.export import (
    read_series_jsonl,
    read_trace_jsonl,
    render_prometheus,
    write_series_jsonl,
    write_trace_jsonl,
)
from repro.obs.metrics import (
    REGISTRY_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    RunMetricsRecorder,
    fold_telemetry,
)
from repro.obs.profiler import PHASES, PhaseProfiler
from repro.obs.series import (
    SERIES_SCHEMA_VERSION,
    SeriesRecorder,
    StepSeries,
)
from repro.obs.telemetry import RunTelemetry, aggregate
from repro.obs.tracing import (
    TRACE_SCHEMA_VERSION,
    PacketTrace,
    PacketTracer,
    TraceEvent,
)

__all__ = [
    "PHASES",
    "REGISTRY_SCHEMA_VERSION",
    "SERIES_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlRunLogger",
    "MetricRegistry",
    "PacketTrace",
    "PacketTracer",
    "PhaseProfiler",
    "RunManifest",
    "RunMetricsRecorder",
    "RunTelemetry",
    "SeriesRecorder",
    "StepSeries",
    "TraceEvent",
    "aggregate",
    "append_manifest",
    "fold_telemetry",
    "git_sha",
    "manifest_for_engine",
    "manifest_from_run_result",
    "read_manifests",
    "read_series_jsonl",
    "read_trace_jsonl",
    "render_prometheus",
    "validate_manifest",
    "write_series_jsonl",
    "write_trace_jsonl",
]

_MANIFEST_NAMES = frozenset(
    {
        "JsonlRunLogger",
        "RunManifest",
        "append_manifest",
        "git_sha",
        "manifest_for_engine",
        "manifest_from_run_result",
        "read_manifests",
        "validate_manifest",
    }
)


def __getattr__(name: str) -> Any:
    """PEP 562 lazy re-export of the manifest layer (imports core)."""
    if name in _MANIFEST_NAMES:
        from repro.obs import manifest

        return getattr(manifest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
