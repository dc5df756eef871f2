"""Observability subsystem: span tracing, metrics, and trace exporters.

Everything the run-total counters of :mod:`repro.runtime.tracing`
cannot answer — *when* did each rank wait, how long was each halo
exchange in flight, which step recomputed — is recorded here as spans
and metrics, exported as Chrome trace-event JSON (Perfetto-loadable)
or a plain-text phase report.

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
    widest_spans,
)
from .metrics import Histogram, MetricsRegistry, global_metrics
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
    "Histogram",
    "MetricsRegistry",
    "global_tracer",
    "global_metrics",
    "span",
    "tracing_enabled",
    "set_tracing",
    "env_tracing_default",
    "chrome_trace_document",
    "save_chrome_trace",
    "phase_report",
    "widest_spans",
    "format_ns",
    "DEFAULT_CAPACITY",
]
