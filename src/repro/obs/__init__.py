"""Observability subsystem: span tracing and trace exporters.

Everything the run-total counters of :mod:`repro.runtime.tracing`
cannot answer — *when* did each rank wait, how long did each halo
wait take, which step recomputed — is recorded here as spans,
exported as Chrome trace-event JSON (Perfetto-loadable), a plain-text
phase report, or per-rank distributions of span durations and numeric
attributes (:func:`span_metrics`).

Off by default; enabled per run via ``Platform(tracing=True)``,
``Platform.builder().tracing()``, ``preset(..., tracing=True)`` or the
``REPRO_TRACE=1`` environment variable.  The disabled path is a single
flag check per instrumentation site.
"""

from .aspect import MonitoringAspect
from .export import (
    chrome_trace_document,
    format_ns,
    phase_report,
    save_chrome_trace,
    span_metrics,
    widest_spans,
)
from .spans import (
    DEFAULT_CAPACITY,
    SpanBuffer,
    Tracer,
    env_tracing_default,
    global_tracer,
    set_tracing,
    span,
    tracing_enabled,
)

__all__ = [
    "MonitoringAspect",
    "Tracer",
    "SpanBuffer",
    "global_tracer",
    "span",
    "tracing_enabled",
    "set_tracing",
    "env_tracing_default",
    "chrome_trace_document",
    "save_chrome_trace",
    "phase_report",
    "span_metrics",
    "widest_spans",
    "format_ns",
    "DEFAULT_CAPACITY",
]
