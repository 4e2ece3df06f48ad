"""Observability: logging, decision tracing, metrics, spans & flight record.

Five individually-zero-cost facilities:

``repro.obs.logging``
    A library-wide ``repro`` logger hierarchy -- silent by default
    (NullHandler), one-call setup via :func:`configure_logging` with plain or
    JSON-lines output.
``repro.obs.events``
    The decision facts the spans carry -- admission verdicts as span
    attributes, MINPROCS steps, PARTITION attempts, phase completions and
    the decisive ``Rejection`` as span events -- and :func:`decision_events`
    / :func:`rejection` to read them back, so a FEDCONS rejection comes with
    a machine-readable explanation of which task, phase and bound failed.
``repro.obs.metrics``
    A registry of counters, wall-clock timers and mergeable log-bucketed
    latency :class:`Histogram`\\ s (p50/p95/p99/max) over the analysis,
    simulation and admission hot paths, with ``snapshot()``, JSON/CSV export
    and Prometheus text exposition
    (:meth:`~MetricsRegistry.to_prometheus`).
``repro.obs.spans``
    A contextvar span tracer: one admission becomes one end-to-end tree of
    timed, attributed spans (controller -> probe -> journal), exported as
    OTLP-inspired JSONL that ``fedcons-obs show`` renders as trees.
``repro.obs.flight``
    A flight recorder: a bounded ring of the most recent spans and metric
    observations, dumped on demand or automatically from an
    excepthook/``SIGUSR1`` handler -- the post-mortem artifact for crash
    recovery experiments.

Typical use::

    from repro.obs import configure_logging, collecting, rejection, span_tracing

    configure_logging("DEBUG")                # watch every decision
    with collecting() as m, span_tracing() as spans:
        result = fedcons(system, m=8)
    if not result.success:
        print(rejection(spans))               # failing phase, task, bound
    print(m.snapshot()["counters"])           # dbf_star_evaluations, ...
    print(m.histogram("fedcons.total_seconds").quantile(0.99))
    spans.to_jsonl("trace.jsonl")             # fedcons-obs show trace.jsonl
"""

from repro.obs.events import decision_events, rejection
from repro.obs.flight import FlightRecorder, flight, flight_recording
from repro.obs.logging import (
    ROOT_LOGGER_NAME,
    JsonFormatter,
    configure_logging,
    get_logger,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    TimerStats,
    collecting,
    metrics,
    percentile,
)
from repro.obs.spans import (
    Span,
    SpanTracer,
    current_span,
    current_tracer,
    load_spans,
    span,
    span_tracing,
)

def to_prometheus() -> str:
    """Prometheus text exposition of the process-global metrics registry.

    Convenience wrapper over :meth:`MetricsRegistry.to_prometheus` on the
    shared :data:`metrics` instance -- what the admission service's
    ``/metrics`` endpoint serves.
    """
    return metrics.to_prometheus()


__all__ = [
    "ROOT_LOGGER_NAME",
    "JsonFormatter",
    "configure_logging",
    "get_logger",
    "decision_events",
    "rejection",
    "MetricsRegistry",
    "TimerStats",
    "Histogram",
    "collecting",
    "metrics",
    "percentile",
    "to_prometheus",
    "Span",
    "SpanTracer",
    "span",
    "span_tracing",
    "current_span",
    "current_tracer",
    "load_spans",
    "FlightRecorder",
    "flight",
    "flight_recording",
]
