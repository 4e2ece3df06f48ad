"""Causal span tracing: one admission as one end-to-end tree of timed spans.

Counters and histograms answer *how often* and *how long in aggregate*; they
cannot answer *where inside this particular slow admission the time went*.
Spans do: a :class:`Span` is a named, timed region with structured
attributes, a parent link, and ids -- so one `admit()` call produces one
trace whose tree reads ``online.commit -> online.admit -> ... ->
online.journal.append``, each node carrying its own perf-counter duration
(the probe scan reports through attributes on ``online.admit`` and the
``online.probe_scan_seconds`` histogram -- a span of its own would cost a
large fraction of a cheap admission).

The design mirrors OpenTelemetry's data model (trace id / span id /
parent id / attributes / span events) without taking the dependency: spans
serialize to one-JSON-object-per-line files that ``fedcons-obs show``
renders as trees, and that any OTLP-literate pipeline could ingest with a
trivial adapter.

Activation follows the same contextvar discipline as the rest of
``repro.obs``: a :class:`SpanTracer` is scoped with :func:`span_tracing`,
and the :func:`span` helper used at instrumentation sites returns a shared
no-op context manager when no tracer is active -- the disabled cost is one
``ContextVar.get()`` and a branch, no object construction, no clock reads::

    with span("online.admit", task=task.name):
        ...

Ids are deterministic per tracer (``trace-1``, ``span-3``, ...) rather than
random: runs are reproducible, golden traces diff cleanly, and the ids only
need to be unique within one exported file.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from collections.abc import Iterator
from pathlib import Path

from repro.obs.flight import flight as _flight

__all__ = [
    "Span",
    "SpanTracer",
    "span",
    "span_tracing",
    "current_tracer",
    "current_span",
    "load_spans",
]


class Span:
    """One named, timed region of a trace.

    ``start``/``end`` are :func:`time.perf_counter` readings -- meaningful
    only as differences and only within one process; ``wall_start`` is a
    single ``time.time()`` stamp for correlating with logs.

    A span is its own context manager (``__enter__`` activates it,
    ``__exit__`` closes it on its tracer): the hot path allocates one object
    per span, not a span plus a wrapper.  ``_events`` is created lazily on
    the first :meth:`add_event` -- most spans carry none.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "wall_start",
        "attributes",
        "_events",
        "_tracer",
        "_token",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        attributes: dict,
        tracer: SpanTracer | None = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.perf_counter()
        self.end: float | None = None
        self.wall_start = time.time()
        self.attributes = attributes
        self._events: list[dict] | None = None
        self._tracer = tracer
        self._token = None

    def __enter__(self) -> Span:
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attributes["error"] = f"{exc_type.__name__}: {exc}"
        _ACTIVE.reset(self._token)
        self._tracer.close_span(self)

    @property
    def duration(self) -> float:
        """Elapsed seconds (up to now if the span is still open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def set(self, **attributes: object) -> None:
        """Attach (or overwrite) structured attributes."""
        self.attributes.update(attributes)

    def add_event(self, name: str, **attributes: object) -> None:
        """Record a point-in-time event inside the span.

        Decisions that repeat inside one span (MINPROCS steps, PARTITION
        attempts, phase completions, the decisive rejection) are recorded
        this way; :mod:`repro.obs.events` lists them.
        """
        entry: dict = {"name": name, "offset": time.perf_counter() - self.start}
        if attributes:
            entry["attributes"] = attributes
        if self._events is None:
            self._events = []
        self._events.append(entry)

    @property
    def events(self) -> list[dict]:
        """Point-in-time events recorded inside the span (possibly empty)."""
        return self._events if self._events is not None else []

    def to_dict(self) -> dict:
        """JSON-ready representation (one line of the trace JSONL file)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "wall_start": self.wall_start,
            "duration_seconds": self.duration,
            "attributes": self.attributes,
            "events": self.events,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end is None else f"{self.duration:.6f}s"
        return f"Span({self.name!r}, {self.span_id}, {state})"


class SpanTracer:
    """Collects finished spans and assigns deterministic ids.

    A span opened while another is active becomes its child; a span opened
    with no active parent starts a fresh trace.  Finished spans accumulate
    in :attr:`finished` (in completion order -- children before parents)
    and can be exported with :meth:`to_jsonl`.
    """

    def __init__(self) -> None:
        self.finished: list[Span] = []
        self._trace_seq = 0
        self._span_seq = 0

    def __len__(self) -> int:
        return len(self.finished)

    def open_span(
        self, name: str, parent: Span | None, attributes: dict
    ) -> Span:
        """Create a span under *parent* (a new root trace when ``None``)."""
        self._span_seq += 1
        if parent is None:
            self._trace_seq += 1
            trace_id = f"trace-{self._trace_seq}"
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        return Span(
            name, trace_id, f"span-{self._span_seq}", parent_id, attributes,
            tracer=self,
        )

    def close_span(self, opened: Span) -> None:
        """Stamp the end time and retain the span (feeds the flight ring).

        The flight tap hands over the :class:`Span` itself -- the ring
        serializes lazily at dump time, so closing a span while the recorder
        runs costs one deque append, not a ``to_dict()``.
        """
        opened.end = time.perf_counter()
        self.finished.append(opened)
        if _flight.enabled:
            _flight.record("span", opened)

    def roots(self) -> list[Span]:
        """Finished root spans (one per trace), in completion order."""
        return [s for s in self.finished if s.parent_id is None]

    def children_of(self, parent: Span) -> list[Span]:
        """Finished direct children of *parent*, in completion order."""
        return [s for s in self.finished if s.parent_id == parent.span_id]

    def to_dicts(self) -> list[dict]:
        """All finished spans as JSON-ready dicts, in completion order."""
        return [s.to_dict() for s in self.finished]

    def to_jsonl(self, path: str | Path) -> None:
        """Write finished spans as one-object-per-line JSON (atomic write)."""
        from repro.io import atomic_write_text

        lines = [json.dumps(s.to_dict(), sort_keys=True) for s in self.finished]
        atomic_write_text(path, "".join(line + "\n" for line in lines))


_TRACER: ContextVar[SpanTracer | None] = ContextVar(
    "repro_span_tracer", default=None
)
_ACTIVE: ContextVar[Span | None] = ContextVar(
    "repro_active_span", default=None
)


def current_tracer() -> SpanTracer | None:
    """The active :class:`SpanTracer`, or ``None`` when tracing is off."""
    return _TRACER.get()


def current_span() -> Span | None:
    """The innermost open :class:`Span`, or ``None``."""
    return _ACTIVE.get()


class _NullSpanContext:
    """Shared no-op stand-in handed out while no tracer is active.

    Implements the same surface instrumentation sites use (``set``,
    ``add_event``, context manager), so call sites never branch on whether
    tracing is on.
    """

    __slots__ = ()

    def __enter__(self) -> _NullSpanContext:
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attributes: object) -> None:
        return None

    def add_event(self, name: str, **attributes: object) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


def span(name: str, **attributes: object):
    """Open a child span of the current span (or a new trace) for a block.

    Returns a context manager; with no active tracer, a shared null object
    whose ``__enter__``/``set``/``add_event`` do nothing.  With a tracer,
    the returned :class:`Span` is itself the context manager.
    """
    tracer = _TRACER.get()
    if tracer is None:
        return _NULL_SPAN
    return tracer.open_span(name, _ACTIVE.get(), attributes)


@contextmanager
def span_tracing(tracer: SpanTracer | None = None) -> Iterator[SpanTracer]:
    """Activate span collection for the dynamic extent of the block.

    A fresh :class:`SpanTracer` is created unless one is supplied (supplying
    one accumulates several operations into a single export).  Nested
    activations stack; the innermost tracer receives the spans.
    """
    tracer = tracer if tracer is not None else SpanTracer()
    token = _TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _TRACER.reset(token)


def load_spans(path: str | Path) -> list[dict]:
    """Read a trace JSONL file back into span dicts (torn tail tolerated)."""
    from repro.io import read_jsonl

    records, _torn = read_jsonl(path)
    return records
