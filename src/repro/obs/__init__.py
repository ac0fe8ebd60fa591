"""Serving observability: request spans, rolling metrics, trace export.

Host-side only, and built after the run from its one event log — nothing
here is visible to the simulated machine or changes which code a run
executes, so an observed run is bit-identical to an unobserved one.  See
:mod:`repro.obs.spans` for the event log and span model,
:mod:`repro.obs.metrics` for the windowed time-series engine, and
:mod:`repro.obs.export` for Perfetto-loadable Chrome trace JSON plus the
terminal timeline renderer.
"""

from repro.obs.export import (
    REQUIRED_EVENT_KEYS,
    chrome_trace,
    render_timeline,
    validate_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    RollingMetrics,
    auto_interval,
    build_timeline,
    timeline_peaks,
)
from repro.obs.spans import (
    CATEGORIES,
    ServingEvent,
    Span,
    SpanRecorder,
    build_spans,
)

__all__ = [
    "CATEGORIES",
    "REQUIRED_EVENT_KEYS",
    "RollingMetrics",
    "ServingEvent",
    "Span",
    "SpanRecorder",
    "auto_interval",
    "build_spans",
    "build_timeline",
    "chrome_trace",
    "render_timeline",
    "timeline_peaks",
    "validate_trace",
    "write_chrome_trace",
]
