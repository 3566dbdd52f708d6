"""Deterministic tracing, metrics, and phase-level profiling.

The repo-wide observability layer (see ``docs/observability.md``):

* :mod:`repro.telemetry.registry` — counters, gauges, fixed-bucket
  histograms, and the Prometheus text rendering;
* :mod:`repro.telemetry.trace` — the span tracer emitting JSONL events
  with monotonic timings;
* :mod:`repro.telemetry.runtime` — process-wide enable/disable and the
  zero-cost-when-off hot-path helpers re-exported here;
* :mod:`repro.telemetry.summarize` — the per-phase summary behind
  ``repro trace summarize`` (the verb is :mod:`repro.telemetry.cli`);
* :mod:`repro.telemetry.diagnostics` — pooled cache stats and the
  one list of diagnostics keys parity asserts must pop.

Typical use::

    from repro import telemetry

    telemetry.enable(trace="out.jsonl")
    with telemetry.span("epoch.steps", epoch=3):
        ...
    telemetry.count("engine.rewirings", 2)
    print(telemetry.summary_line())   # TELEMETRY spans=.. events=..
    telemetry.disable()

Everything telemetry records is observational: results are
byte-identical with telemetry on and off, and no wall-clock reading may
enter a result-bearing path.
"""

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.runtime import (
    count,
    disable,
    enable,
    enabled,
    event,
    kernel_call,
    metrics,
    observe,
    record_span,
    register_cache,
    span,
    summary_line,
    tracer,
)

__all__ = [
    "MetricsRegistry",
    "count",
    "disable",
    "enable",
    "enabled",
    "event",
    "kernel_call",
    "metrics",
    "observe",
    "record_span",
    "register_cache",
    "span",
    "summary_line",
    "tracer",
]
