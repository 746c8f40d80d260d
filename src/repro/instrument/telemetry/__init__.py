"""End-to-end telemetry: the three layers the compile service exports,
modelled on the production observability stack around clang tooling.
The first two are also the compiler's own: ``-ftime-trace`` records the
same span record, and ``-stats`` counts in the same registry.

==================  =====================================  ============
Layer               Real-world counterpart                 Module
==================  =====================================  ============
span record         OpenTelemetry span/context
                    propagation; clang ``-ftime-trace``
                    (:mod:`repro.instrument.timetrace`
                    records into a ``SpanLog``); clangd
                    request tracing; one Chrome-event
                    writer for both                        ``tracing``
counter registry    Prometheus client library
                    (counters/gauges/histograms, text
                    exposition, fixed-bucket quantiles);
                    LLVM ``STATISTIC`` (label-free
                    counters in the ``STATS`` registry,
                    :mod:`repro.instrument.stats`)         ``metrics``
structured events   JSONL access/lifecycle logs keyed by
                    trace id                               ``events``
==================  =====================================  ============

The package is pure stdlib and import-cheap; the service only pays for
a layer when its flag (``-ftrace-requests``, ``--metrics-json``,
``--log-jsonl``) or config field turns it on — except the counter
registry, which is always live (a label-free ``inc`` is one attribute
add, and bucket increments are too cheap to gate).
"""

from repro.instrument.telemetry.events import EventLog, read_jsonl
from repro.instrument.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.instrument.telemetry.tracing import (
    RequestTrace,
    SpanLog,
    SpanRecord,
    TraceRecorder,
    chrome_events,
    clock_anchor,
    clock_offset_ns,
    new_span_id,
    new_trace_id,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RequestTrace",
    "SpanLog",
    "SpanRecord",
    "TraceRecorder",
    "chrome_events",
    "clock_anchor",
    "clock_offset_ns",
    "new_span_id",
    "new_trace_id",
    "read_jsonl",
]
