"""Dependency-free tracing for the characterization pipeline: spans and counters.

Usage::

    from repro.telemetry import get_telemetry, write_trace

    tele = get_telemetry()
    tele.enable()
    with tele.span("suite", suite="CUDA"):
        tele.count("cache.hits")
    write_trace(tele, "run.json")   # Chrome trace-event JSON

See :mod:`repro.telemetry.core` for the registry semantics and
:mod:`repro.telemetry.export` for the trace file format.
"""

from repro.telemetry.core import (
    Span,
    Telemetry,
    TelemetrySnapshot,
    get_telemetry,
)
from repro.telemetry.export import (
    TRACE_FORMAT,
    TraceData,
    format_summary,
    load_trace,
    write_trace,
)

__all__ = [
    "Span",
    "Telemetry",
    "TelemetrySnapshot",
    "get_telemetry",
    "TRACE_FORMAT",
    "TraceData",
    "write_trace",
    "load_trace",
    "format_summary",
]
