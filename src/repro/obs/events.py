"""Decision events: why an analysis or an admission decided as it did.

Every decision fact is recorded once, on the span tracer of
:mod:`repro.obs.spans` (armed by :func:`~repro.obs.spans.span_tracing`,
``--trace-out`` and ``fedcons-analyze --explain``):

* A fact about the operation a span covers is an attribute of that span.
  ``online.admit`` carries ``kind``, ``accepted``, ``seq``, ``processors``
  and ``reason``; ``online.depart`` carries ``kind``, ``seq``, ``released``,
  ``migrations`` and ``clean``; ``online.checkpoint.write``,
  ``online.recover``, ``service.commit_batch`` and ``service.promote``
  likewise carry what they wrote, replayed, committed or took over.
* A fact that repeats inside one span is a span event
  (:meth:`~repro.obs.spans.Span.add_event`), named for what it records:

  ``MinprocsStep`` (``task``, ``processors``, ``makespan``, ``deadline``, ``fits``)
      one List-Scheduling attempt of the MINPROCS search; the last step of
      a successful search has ``fits=True``.
  ``PartitionAttempt`` (``task``, ``deadline``, ``wcet``, ``utilization``, ``processor``, ``candidates``, ``admitted``)
      the placement of one low-density task during PARTITION;
      ``processor`` is ``None`` when no shared processor admitted it.
  ``PhaseComplete`` (``phase``, ``ok``, ``duration``, ``detail``)
      a FEDCONS phase (``validate``, ``minprocs``, ``partition``) finished.
  ``Rejection`` (``phase``, ``reason``, ``task``, ``detail``)
      the decisive event of a failed analysis: the failing phase, the
      violated condition, the first task that could not be accommodated,
      and the violated bound (critical path vs deadline, processors
      demanded vs available, or the best demand/rate slack any shared
      processor could offer).

With no tracer active nothing is built: instrumented code reads
:func:`~repro.obs.spans.current_span` once per call and skips the events
when it is ``None``.  :func:`decision_events` and :func:`rejection` read the
events back, from a live tracer or from trace JSONL loaded with
:func:`~repro.obs.spans.load_spans`.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.obs.spans import Span, SpanTracer

__all__ = ["decision_events", "rejection"]


def decision_events(
    spans: SpanTracer | Iterable[Span | dict], name: str | None = None
) -> list[dict]:
    """The span events named *name* (every event when ``None``), in order.

    Each event comes back as ``{"event": name, **attributes}``.  Events of
    different spans are ordered by when they were recorded.
    """
    if isinstance(spans, SpanTracer):
        spans = spans.finished
    timed = []
    for s in spans:
        record = s if isinstance(s, dict) else s.to_dict()
        for event in record["events"]:
            if name is None or event["name"] == name:
                timed.append((
                    record["wall_start"] + event["offset"],
                    {"event": event["name"], **event.get("attributes", {})},
                ))
    timed.sort(key=lambda pair: pair[0])
    return [event for _, event in timed]


def rejection(spans: SpanTracer | Iterable[Span | dict]) -> dict | None:
    """The decisive ``Rejection`` event, or ``None`` if nothing was rejected."""
    rejections = decision_events(spans, "Rejection")
    return rejections[-1] if rejections else None
