"""Flight recorder: a bounded ring buffer of the most recent telemetry.

A long-running admission service cannot keep (or afford to persist) its
whole telemetry stream, but the question after a crash is always about the
*recent past*: what were the last admissions, which span was open, which
counters moved just before the process died.  The
:class:`FlightRecorder` answers exactly that -- a fixed-capacity
``collections.deque`` of the most recent spans and metric deltas, fed by
the other ``repro.obs`` facilities whenever the recorder is enabled, and
dumped on demand or automatically from an installed ``sys.excepthook`` /
``SIGUSR1`` handler.

The recorder is a *tap*, not a source: spans are captured when a span
tracer is active (:mod:`repro.obs.spans`) -- and with them the decisions
they carry (:mod:`repro.obs.events`) -- and metric deltas when the
:data:`~repro.obs.metrics.metrics` registry is collecting.  Enabling the
recorder alone costs one attribute check at each of those choke points and
records nothing until telemetry flows.

Typical use::

    from repro.obs import flight_recording

    with flight_recording(capacity=200) as recorder:
        serve_forever()          # spans and metric deltas tap in
    # ... or post-mortem, from the installed excepthook:
    #     flight-<pid>-<n>.json appears in the configured dump directory

Entries are plain dicts ``{"seq": int, "ts": float, "kind": str, "data":
{...}}`` where ``kind`` is one of ``"span"``, ``"timer"``, ``"histogram"``
or ``"crash"`` and ``data`` is the producer's payload; ``seq`` increases
monotonically over the recorder's lifetime, so a dump shows how much
history the ring evicted.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback
from collections import deque
from contextlib import contextmanager
from collections.abc import Iterator
from pathlib import Path

__all__ = ["FlightRecorder", "flight", "flight_recording"]

#: Default ring capacity: enough to hold the full causal neighbourhood of a
#: crash (a few hundred events) while staying trivially cheap to dump.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Fixed-capacity ring of recent telemetry entries with post-mortem dump.

    Disabled by default; the producers guard every tap with a plain
    ``recorder.enabled`` attribute check, so the cost while disabled is one
    attribute load and a branch per already-enabled telemetry operation.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"flight capacity must be >= 1, got {capacity}")
        self.enabled = False
        self._ring: deque[tuple] = deque(maxlen=capacity)
        self._seq = 0
        self._dump_dir: Path | None = None
        self._dump_count = 0
        self._previous_excepthook = None
        self._previous_signal = None
        self._installed_signal: int | None = None

    # -- collection --------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum number of entries the ring retains."""
        return self._ring.maxlen or 0

    @property
    def total_recorded(self) -> int:
        """Entries recorded over the recorder's lifetime (evicted included)."""
        return self._seq

    def __len__(self) -> int:
        return len(self._ring)

    def enable(self, capacity: int | None = None) -> None:
        """Start recording; *capacity* (if given) resizes and clears the ring."""
        if capacity is not None and capacity != self._ring.maxlen:
            if capacity < 1:
                raise ValueError(
                    f"flight capacity must be >= 1, got {capacity}"
                )
            self._ring = deque(maxlen=capacity)
        self.enabled = True

    def disable(self) -> None:
        """Stop recording (already-recorded entries are kept for dumping)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every buffered entry and restart the sequence counter."""
        self._ring.clear()
        self._seq = 0

    def record(self, kind: str, payload) -> None:
        """Append one entry (no-op while disabled).

        The producers call this; *payload* is either a JSON-ready dict or an
        object exposing ``to_dict()``.  The latter keeps the hot path cheap:
        serialization is deferred to :meth:`entries`, so entries that the
        ring evicts are never serialized at all.
        """
        if not self.enabled:
            return
        self._seq += 1
        self._ring.append((self._seq, time.time(), kind, payload))

    def entries(self) -> list[dict]:
        """The buffered entries, oldest first (a copy; safe to mutate).

        Deferred payloads (objects with ``to_dict()``) are serialized here.
        """
        return [
            {
                "seq": seq,
                "ts": ts,
                "kind": kind,
                "data": payload if isinstance(payload, dict) else payload.to_dict(),
            }
            for seq, ts, kind, payload in self._ring
        ]

    # -- dumping -----------------------------------------------------------

    def dump_document(self, reason: str = "on_demand") -> dict:
        """JSON-ready post-mortem document of the current ring."""
        entries = self.entries()
        return {
            "reason": reason,
            "dumped_at": time.time(),
            "pid": os.getpid(),
            "capacity": self.capacity,
            "total_recorded": self._seq,
            "evicted": self._seq - len(entries),
            "entries": entries,
        }

    def dump(self, path: str | Path, reason: str = "on_demand") -> Path:
        """Write :meth:`dump_document` to *path* (atomic write); returns it."""
        from repro.io import atomic_write_text

        target = Path(path)
        atomic_write_text(
            target,
            json.dumps(self.dump_document(reason), indent=2) + "\n",
        )
        return target

    def _auto_dump(self, reason: str) -> Path | None:
        """Dump into the installed directory with a fresh generation name.

        Never raises: a failing post-mortem writer must not mask the crash
        it is documenting.
        """
        if self._dump_dir is None:
            return None
        self._dump_count += 1
        target = (
            self._dump_dir / f"flight-{os.getpid()}-{self._dump_count}.json"
        )
        try:
            self._dump_dir.mkdir(parents=True, exist_ok=True)
            return self.dump(target, reason=reason)
        except OSError:  # pragma: no cover - depends on filesystem failure
            return None

    # -- automatic post-mortem hooks --------------------------------------

    def install(self, directory: str | Path, use_signal: bool = True) -> None:
        """Arm automatic dumps into *directory*.

        Installs a ``sys.excepthook`` that writes a dump (then chains to the
        previous hook, so tracebacks still print), and -- where the platform
        has it and we are on the main thread -- a ``SIGUSR1`` handler for
        on-demand dumps of a live process.  :meth:`uninstall` restores both.
        """
        self._dump_dir = Path(directory)
        if self._previous_excepthook is None:
            self._previous_excepthook = sys.excepthook
            sys.excepthook = self._excepthook
        if use_signal and hasattr(signal, "SIGUSR1"):
            try:
                self._previous_signal = signal.signal(
                    signal.SIGUSR1, self._signal_handler
                )
                self._installed_signal = signal.SIGUSR1
            except ValueError:
                # Not on the main thread: excepthook dumps still work.
                self._previous_signal = None
                self._installed_signal = None

    def uninstall(self) -> None:
        """Restore the previous excepthook/signal handler (idempotent)."""
        if self._previous_excepthook is not None:
            sys.excepthook = self._previous_excepthook
            self._previous_excepthook = None
        if self._installed_signal is not None:
            signal.signal(self._installed_signal, self._previous_signal)
            self._previous_signal = None
            self._installed_signal = None
        self._dump_dir = None

    def _excepthook(self, exc_type, exc, tb) -> None:
        self.record(
            "crash",
            {
                "exception": "".join(
                    traceback.format_exception_only(exc_type, exc)
                ).strip(),
            },
        )
        self._auto_dump(reason=f"excepthook:{exc_type.__name__}")
        previous = self._previous_excepthook or sys.__excepthook__
        previous(exc_type, exc, tb)

    def _signal_handler(self, signum, frame) -> None:  # pragma: no cover
        self._auto_dump(reason=f"signal:{signum}")


#: The library-wide recorder every telemetry producer taps into.
flight = FlightRecorder()


@contextmanager
def flight_recording(
    capacity: int = DEFAULT_CAPACITY,
    dump_dir: str | Path | None = None,
) -> Iterator[FlightRecorder]:
    """Enable the global :data:`flight` recorder for a scoped block.

    The ring starts empty at the requested *capacity*; with *dump_dir* set,
    the excepthook/``SIGUSR1`` post-mortem hooks are armed for the extent of
    the block.  The previous enabled state (and the hooks) are restored on
    exit -- the buffered entries are kept, so a caller can still
    :meth:`~FlightRecorder.dump` after leaving the block.
    """
    was_enabled = flight.enabled
    flight.enable(capacity=capacity)
    flight.reset()
    if dump_dir is not None:
        flight.install(dump_dir)
    try:
        yield flight
    finally:
        flight.enabled = was_enabled
        if dump_dir is not None:
            flight.uninstall()
