"""Process-wide telemetry state and the zero-cost-when-off guard.

All instrumentation in the repo routes through the module-level helpers
here (:func:`span`, :func:`event`, :func:`count`, :func:`observe`,
:func:`kernel_call`).  When telemetry is disabled —
the default — every helper is one global read plus a ``None`` check and
returns a module-level singleton where a value is needed, so the
instrumented hot paths stay within noise of un-instrumented code
(``tests/telemetry/test_off_cost.py`` gates this at <2% of an epoch's
wall-clock, on both engine planners) and allocate nothing that survives
the call.

Enabling is explicit and process-local::

    from repro import telemetry

    telemetry.enable(trace="out.jsonl")      # tracer + metrics registry
    ...
    summary = telemetry.disable()            # {"spans": N, "events": M}

Nothing telemetry records may enter a result-bearing artifact
(:class:`~repro.core.engine.EpochRecord`, a stored sweep cell): results
must stay byte-identical with telemetry on and off, which is asserted
by ``tests/telemetry/test_noop_guard.py``.
"""

from __future__ import annotations

import io
from typing import Dict, Optional, Sequence, Union

from repro.telemetry.registry import (
    DEFAULT_LATENCY_EDGES,
    NULL_SPAN,
    MetricsRegistry,
)
from repro.telemetry.trace import Span, Tracer

_metrics: Optional[MetricsRegistry] = None
_tracer: Optional[Tracer] = None
_trace_path: Optional[str] = None
_trace_file = None


def enable(
    *,
    trace: Union[None, str, list, io.TextIOBase] = None,
    metrics: bool = True,
) -> MetricsRegistry:
    """Turn telemetry on for this process.

    ``trace`` may be a path (opened for writing, closed by
    :func:`disable`), an open text file, or a list sink (tests).  With
    ``metrics`` true a fresh :class:`MetricsRegistry` replaces any
    previous one.  Returns the active registry (a throwaway one if
    ``metrics`` is false, so callers need not branch).
    """
    global _metrics, _tracer, _trace_path, _trace_file
    disable()
    if metrics:
        _metrics = MetricsRegistry()
    if trace is not None:
        if isinstance(trace, str):
            _trace_path = trace
            _trace_file = open(trace, "w", encoding="utf-8")
            _tracer = Tracer(_trace_file)
        else:
            _tracer = Tracer(trace)
    return _metrics if _metrics is not None else MetricsRegistry()


def disable() -> Dict[str, int]:
    """Turn telemetry off; returns the closing tracer's span/event counts."""
    global _metrics, _tracer, _trace_path, _trace_file
    summary = {"spans": 0, "events": 0}
    if _tracer is not None:
        summary = _tracer.close()
    if _trace_file is not None:
        _trace_file.close()
    _metrics = None
    _tracer = None
    _trace_path = None
    _trace_file = None
    return summary


def enabled() -> bool:
    """True when a registry or tracer is active."""
    return _metrics is not None or _tracer is not None


def metrics() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` when metrics are off."""
    return _metrics


def tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` when tracing is off."""
    return _tracer



# ---------------------------------------------------------------------- #
# Hot-path helpers (the no-op guard)
# ---------------------------------------------------------------------- #
def span(name: str, **attrs: object):
    """A tracing span; the shared no-op singleton when tracing is off."""
    t = _tracer
    if t is None:
        return NULL_SPAN
    return t.span(name, **attrs)


def event(name: str, **attrs: object) -> None:
    """A point trace event; nothing when tracing is off."""
    t = _tracer
    if t is not None:
        t.event(name, **attrs)


def record_span(name: str, duration: float, **attrs: object) -> None:
    """A back-dated span measured elsewhere; nothing when tracing is off."""
    t = _tracer
    if t is not None:
        t.record_span(name, duration, **attrs)


def count(name: str, amount: int = 1) -> None:
    """Bump counter ``name``; nothing when metrics are off."""
    m = _metrics
    if m is not None:
        m.counter(name).inc(amount)


def observe(
    name: str, value: float, edges: Sequence[float] = DEFAULT_LATENCY_EDGES
) -> None:
    """Observe ``value`` into histogram ``name``; nothing when metrics off."""
    m = _metrics
    if m is not None:
        m.histogram(name, edges).observe(value)


def kernel_call(name: str, size: int = 0) -> None:
    """Count one routing-kernel invocation and its input size (rows).

    Folded under ``kernel.<name>.calls`` / ``kernel.<name>.rows`` — the
    per-kernel ledger the ROADMAP's compilation tier will gate against.
    """
    m = _metrics
    if m is not None:
        m.counter(f"kernel.{name}.calls").inc()
        if size:
            m.counter(f"kernel.{name}.rows").inc(int(size))


def register_cache(cache: object) -> None:
    """Fold ``cache``'s counters into registry snapshots (weakly held)."""
    m = _metrics
    if m is not None:
        m.attach_cache(cache)


def summary_line() -> str:
    """The greppable ``TELEMETRY spans= events=`` one-liner for CLI output."""
    t = _tracer
    spans = t.spans if t is not None else 0
    events = t.events if t is not None else 0
    line = f"TELEMETRY spans={spans} events={events}"
    if _trace_path is not None:
        line += f" trace={_trace_path}"
    return line


__all__ = [
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
