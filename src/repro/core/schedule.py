"""Template schedules for one dag-job on a dedicated processor cluster.

MINPROCS stores the schedule produced by Graham's List Scheduling as a
*template* ``sigma_i`` (Section IV-A of the paper): a set of time slots, one
per vertex, each pinned to a processor.  At run time the template is used as a
lookup table -- job ``v`` of a dag-job released at time ``r`` executes on its
assigned processor in the window ``[r + start, r + end)``, and the processor
idles out the remainder of the slot if the job finishes early.  This is what
makes the approach immune to Graham's timing anomalies (re-running LS online
with smaller-than-WCET execution times may *lengthen* the schedule).

:class:`Schedule` also provides full structural validation (slot/ WCET
agreement, processor exclusivity, precedence feasibility), which the test
suite uses as the ground-truth oracle for every scheduling algorithm.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.errors import ScheduleError
from repro.model.dag import DAG, VertexId

__all__ = ["Slot", "Schedule"]

_TOL = 1e-9


@dataclass(frozen=True, order=True)
class Slot:
    """One contiguous execution window of one job on one processor."""

    start: float
    end: float
    processor: int
    vertex: VertexId = None

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ScheduleError(
                f"slot for {self.vertex!r} has non-positive length "
                f"[{self.start:g}, {self.end:g})"
            )
        if self.start < 0:
            raise ScheduleError(f"slot for {self.vertex!r} starts before time 0")
        if self.processor < 0:
            raise ScheduleError(f"slot for {self.vertex!r} has negative processor index")

    @property
    def length(self) -> float:
        """Duration of the slot."""
        return self.end - self.start


class Schedule:
    """A non-preemptive template schedule of one dag-job on ``m`` processors.

    Parameters
    ----------
    dag:
        The DAG being scheduled.
    slots:
        One :class:`Slot` per vertex of *dag* (each vertex exactly once;
        Graham's LS is non-preemptive so one contiguous slot per job).
    processors:
        The number of processors in the cluster.  Slots must use processor
        indices ``0 .. processors-1``.
    """

    __slots__ = ("_dag", "_slots", "_processors", "_makespan")

    def __init__(self, dag: DAG, slots: Iterable[Slot], processors: int) -> None:
        if processors < 1:
            raise ScheduleError(f"processor count must be >= 1, got {processors}")
        self._dag = dag
        self._processors = processors
        self._slots: dict[VertexId, Slot] = {}
        for slot in slots:
            if slot.vertex not in dag:
                raise ScheduleError(f"slot references unknown vertex {slot.vertex!r}")
            if slot.vertex in self._slots:
                raise ScheduleError(f"vertex {slot.vertex!r} scheduled twice")
            if slot.processor >= processors:
                raise ScheduleError(
                    f"slot for {slot.vertex!r} uses processor {slot.processor} "
                    f"but the cluster has only {processors}"
                )
            self._slots[slot.vertex] = slot
        missing = [v for v in dag.vertices if v not in self._slots]
        if missing:
            raise ScheduleError(
                f"vertices never scheduled: {', '.join(repr(v) for v in missing)}"
            )
        self._makespan = max(s.end for s in self._slots.values())

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def dag(self) -> DAG:
        """The DAG this template schedules."""
        return self._dag

    @property
    def processors(self) -> int:
        """Cluster size the template was built for."""
        return self._processors

    @property
    def makespan(self) -> float:
        """Completion time of the last job (the schedule length)."""
        return self._makespan

    def slot(self, vertex: VertexId) -> Slot:
        """The slot assigned to *vertex*."""
        try:
            return self._slots[vertex]
        except KeyError:
            raise ScheduleError(f"vertex {vertex!r} not in schedule") from None

    @property
    def slots(self) -> tuple[Slot, ...]:
        """All slots sorted by start time."""
        return tuple(sorted(self._slots.values()))

    def slots_on(self, processor: int) -> tuple[Slot, ...]:
        """Slots on one processor, sorted by start time."""
        return tuple(
            sorted(s for s in self._slots.values() if s.processor == processor)
        )

    def __len__(self) -> int:
        return len(self._slots)

    def __repr__(self) -> str:
        return (
            f"Schedule(m={self._processors}, |V|={len(self._slots)}, "
            f"makespan={self._makespan:g})"
        )

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    @property
    def total_idle_time(self) -> float:
        """Idle processor-time within ``[0, makespan)`` across the cluster."""
        busy = sum(s.length for s in self._slots.values())
        return self._processors * self._makespan - busy

    @property
    def average_utilization(self) -> float:
        """Fraction of the cluster kept busy over ``[0, makespan)``."""
        if self._makespan == 0:
            return 0.0
        busy = sum(s.length for s in self._slots.values())
        return busy / (self._processors * self._makespan)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every structural invariant; raise :class:`ScheduleError` if any fails.

        Invariants:

        1. each slot's length equals its vertex's WCET;
        2. no two slots on the same processor overlap;
        3. for every edge ``(u, v)``, slot(u).end <= slot(v).start.
        """
        wcets = self._dag.wcets
        by_processor: dict[int, list[Slot]] = {}
        for vertex, slot in self._slots.items():
            wcet = wcets[vertex]
            if abs(slot.length - wcet) > _TOL * max(1.0, wcet):
                raise ScheduleError(
                    f"slot of {vertex!r} has length {slot.length:g} but WCET is {wcet:g}"
                )
            by_processor.setdefault(slot.processor, []).append(slot)
        for proc in sorted(by_processor):
            ordered = sorted(by_processor[proc])
            for a, b in zip(ordered, ordered[1:]):
                if a.end > b.start + _TOL:
                    raise ScheduleError(
                        f"slots of {a.vertex!r} and {b.vertex!r} overlap on "
                        f"processor {proc}"
                    )
        for u, v in self._dag.edges:
            if self._slots[u].end > self._slots[v].start + _TOL:
                raise ScheduleError(
                    f"precedence violated: {u!r} ends at {self._slots[u].end:g} "
                    f"but successor {v!r} starts at {self._slots[v].start:g}"
                )

    def is_valid(self) -> bool:
        """True if :meth:`validate` passes."""
        try:
            self.validate()
        except ScheduleError:
            return False
        return True

    def meets_deadline(self, deadline: float) -> bool:
        """True if the makespan is within *deadline* (with tolerance)."""
        return self._makespan <= deadline + _TOL

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    def as_gantt_text(self, width: int = 60) -> str:
        """A fixed-width ASCII Gantt chart of the template (for examples/docs)."""
        if self._makespan <= 0:
            return "(empty schedule)"
        scale = width / self._makespan
        lines = []
        for proc in range(self._processors):
            row = [" "] * width
            for slot in self.slots_on(proc):
                lo = int(round(slot.start * scale))
                hi = max(lo + 1, int(round(slot.end * scale)))
                label = str(slot.vertex)
                for col in range(lo, min(hi, width)):
                    row[col] = "#"
                for offset, ch in enumerate(label):
                    if lo + offset < min(hi, width):
                        row[lo + offset] = ch
            lines.append(f"P{proc:<3}|{''.join(row)}|")
        lines.append(f"     0{' ' * (width - 12)}{self._makespan:>10.2f}")
        return "\n".join(lines)

    def shifted(self, offset: float) -> Mapping[VertexId, Slot]:
        """The absolute-time slots of a dag-job released at time *offset*.

        Used by the run-time dispatcher / simulator: the template is relative
        to the release instant.
        """
        return {
            v: Slot(
                start=s.start + offset,
                end=s.end + offset,
                processor=s.processor,
                vertex=v,
            )
            for v, s in self._slots.items()
        }
