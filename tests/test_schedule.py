"""Unit tests for repro.core.schedule (template schedules)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ScheduleError
from repro.core.schedule import _TOL, Schedule, Slot
from repro.model.dag import DAG

from strategies import dags


def _slots_for_chain():
    return [
        Slot(start=0, end=2, processor=0, vertex=0),
        Slot(start=2, end=5, processor=0, vertex=1),
        Slot(start=5, end=6, processor=0, vertex=2),
    ]


class TestSlot:
    def test_length(self):
        assert Slot(1, 3, 0, "v").length == 2

    def test_zero_length_rejected(self):
        with pytest.raises(ScheduleError, match="non-positive"):
            Slot(1, 1, 0, "v")

    def test_negative_start_rejected(self):
        with pytest.raises(ScheduleError, match="before time 0"):
            Slot(-1, 1, 0, "v")

    def test_negative_processor_rejected(self):
        with pytest.raises(ScheduleError, match="negative processor"):
            Slot(0, 1, -1, "v")

    def test_ordering_by_start(self):
        assert Slot(0, 1, 0, "a") < Slot(2, 3, 0, "b")


class TestScheduleConstruction:
    def test_valid_chain(self, chain_dag):
        schedule = Schedule(chain_dag, _slots_for_chain(), processors=1)
        assert schedule.makespan == 6
        schedule.validate()

    def test_missing_vertex_rejected(self, chain_dag):
        with pytest.raises(ScheduleError, match="never scheduled"):
            Schedule(chain_dag, _slots_for_chain()[:2], processors=1)

    def test_duplicate_vertex_rejected(self, chain_dag):
        slots = _slots_for_chain() + [Slot(6, 8, 0, 0)]
        with pytest.raises(ScheduleError, match="twice"):
            Schedule(chain_dag, slots, processors=1)

    def test_unknown_vertex_rejected(self, chain_dag):
        slots = _slots_for_chain() + [Slot(6, 7, 0, 99)]
        with pytest.raises(ScheduleError, match="unknown vertex"):
            Schedule(chain_dag, slots, processors=1)

    def test_processor_out_of_range(self, chain_dag):
        slots = _slots_for_chain()
        slots[0] = Slot(0, 2, 1, 0)
        with pytest.raises(ScheduleError, match="processor 1"):
            Schedule(chain_dag, slots, processors=1)

    def test_zero_processors_rejected(self, chain_dag):
        with pytest.raises(ScheduleError, match=">= 1"):
            Schedule(chain_dag, _slots_for_chain(), processors=0)


class TestValidation:
    def test_wrong_length_detected(self, chain_dag):
        slots = [
            Slot(0, 3, 0, 0),  # WCET is 2, slot is 3
            Slot(3, 6, 0, 1),
            Slot(6, 7, 0, 2),
        ]
        schedule = Schedule(chain_dag, slots, processors=1)
        with pytest.raises(ScheduleError, match="length"):
            schedule.validate()
        assert not schedule.is_valid()

    def test_overlap_detected(self):
        dag = DAG.independent([2, 2])
        slots = [Slot(0, 2, 0, 0), Slot(1, 3, 0, 1)]
        schedule = Schedule(dag, slots, processors=1)
        with pytest.raises(ScheduleError, match="overlap"):
            schedule.validate()

    def test_precedence_violation_detected(self, chain_dag):
        slots = [
            Slot(0, 2, 0, 0),
            Slot(1, 4, 1, 1),  # starts before predecessor 0 finishes? no: 1 < 2
            Slot(4, 5, 0, 2),
        ]
        schedule = Schedule(chain_dag, slots, processors=2)
        with pytest.raises(ScheduleError, match="precedence"):
            schedule.validate()

    def test_parallel_on_different_processors_ok(self):
        dag = DAG.independent([2, 2])
        slots = [Slot(0, 2, 0, 0), Slot(0, 2, 1, 1)]
        Schedule(dag, slots, processors=2).validate()

    # validate() groups slots by processor in one pass; one test per
    # invariant on a wide cluster pins that every processor is still checked.
    def test_overlap_on_highest_processor_detected(self):
        dag = DAG.independent([2] * 6)
        slots = [Slot(0, 2, p, p) for p in range(4)] + [
            Slot(0, 2, 5, 4), Slot(1, 3, 5, 5),
        ]
        schedule = Schedule(dag, slots, processors=6)
        with pytest.raises(ScheduleError, match="overlap on processor 5"):
            schedule.validate()

    def test_lowest_overlapping_processor_reported_first(self):
        dag = DAG.independent([2] * 4)
        slots = [Slot(1, 3, 3, 0), Slot(0, 2, 3, 1),
                 Slot(0, 2, 1, 2), Slot(1, 3, 1, 3)]
        schedule = Schedule(dag, slots, processors=4)
        with pytest.raises(ScheduleError, match="2 and 3 overlap on processor 1"):
            schedule.validate()

    def test_precedence_break_across_processors_detected(self):
        dag = DAG({0: 1, 1: 1, 2: 1, 3: 1}, [(0, 1), (2, 3)])
        slots = [Slot(0, 1, 0, 0), Slot(1, 2, 1, 1),
                 Slot(0, 1, 2, 2), Slot(0.5, 1.5, 3, 3)]
        schedule = Schedule(dag, slots, processors=4)
        with pytest.raises(ScheduleError, match="precedence violated: 2"):
            schedule.validate()

    def test_wcet_length_mismatch_on_high_processor_detected(self):
        dag = DAG.independent([1, 1, 1])
        slots = [Slot(0, 1, 0, 0), Slot(0, 1, 1, 1), Slot(0, 1.5, 2, 2)]
        schedule = Schedule(dag, slots, processors=3)
        with pytest.raises(ScheduleError, match="slot of 2 has length 1.5"):
            schedule.validate()

    def test_length_checked_before_overlap(self):
        dag = DAG.independent([2, 2, 1])
        slots = [Slot(0, 2, 0, 0), Slot(1, 3, 0, 1), Slot(0, 2, 1, 2)]
        schedule = Schedule(dag, slots, processors=2)
        with pytest.raises(ScheduleError, match="length"):
            schedule.validate()


def _reference_validate(schedule):
    """The three invariants checked the direct way: every processor scans
    every slot (O(P·n))."""
    dag = schedule.dag
    for vertex, slot in schedule._slots.items():  # slot insertion order
        wcet = dag.wcet(vertex)
        if abs(slot.length - wcet) > _TOL * max(1.0, wcet):
            raise ScheduleError(
                f"slot of {vertex!r} has length {slot.length:g} but WCET is {wcet:g}"
            )
    for proc in range(schedule.processors):
        ordered = sorted(s for s in schedule._slots.values() if s.processor == proc)
        for a, b in zip(ordered, ordered[1:]):
            if a.end > b.start + _TOL:
                raise ScheduleError(
                    f"slots of {a.vertex!r} and {b.vertex!r} overlap on "
                    f"processor {proc}"
                )
    for u, v in dag.edges:
        if schedule.slot(u).end > schedule.slot(v).start + _TOL:
            raise ScheduleError(
                f"precedence violated: {u!r} ends at {schedule.slot(u).end:g} "
                f"but successor {v!r} starts at {schedule.slot(v).start:g}"
            )


def _verdict(check, schedule):
    try:
        check(schedule)
    except ScheduleError as exc:
        return str(exc)
    return None


@st.composite
def _arbitrary_schedules(draw):
    """Slots with random starts/processors and (mostly) WCET lengths, so all
    three invariants are broken now and then."""
    dag = draw(dags(max_vertices=8))
    processors = draw(st.integers(1, 4))
    slots = []
    for v in dag.vertices:
        start = float(draw(st.integers(0, 12)))
        stretch = draw(st.sampled_from([0.0, 0.0, 0.0, 0.5]))
        slots.append(Slot(start, start + dag.wcet(v) + stretch,
                          draw(st.integers(0, processors - 1)), v))
    return Schedule(dag, draw(st.permutations(slots)), processors)


class TestValidateEquivalence:
    @given(_arbitrary_schedules())
    def test_same_verdict_as_reference(self, schedule):
        assert _verdict(Schedule.validate, schedule) == _verdict(
            _reference_validate, schedule
        )


class TestMetrics:
    def test_makespan(self, chain_dag):
        assert Schedule(chain_dag, _slots_for_chain(), 1).makespan == 6

    def test_meets_deadline(self, chain_dag):
        schedule = Schedule(chain_dag, _slots_for_chain(), 1)
        assert schedule.meets_deadline(6)
        assert schedule.meets_deadline(7)
        assert not schedule.meets_deadline(5.9)

    def test_total_idle_time(self):
        dag = DAG.independent([2, 1])
        slots = [Slot(0, 2, 0, 0), Slot(0, 1, 1, 1)]
        schedule = Schedule(dag, slots, processors=2)
        assert schedule.total_idle_time == pytest.approx(1.0)

    def test_average_utilization(self):
        dag = DAG.independent([2, 2])
        slots = [Slot(0, 2, 0, 0), Slot(0, 2, 1, 1)]
        assert Schedule(dag, slots, 2).average_utilization == pytest.approx(1.0)

    def test_slots_sorted(self, chain_dag):
        schedule = Schedule(chain_dag, reversed(_slots_for_chain()), 1)
        starts = [s.start for s in schedule.slots]
        assert starts == sorted(starts)

    def test_slots_on_processor(self):
        dag = DAG.independent([1, 1])
        slots = [Slot(0, 1, 0, 0), Slot(0, 1, 1, 1)]
        schedule = Schedule(dag, slots, 2)
        assert len(schedule.slots_on(0)) == 1
        assert schedule.slots_on(0)[0].vertex == 0

    def test_slot_lookup_unknown(self, chain_dag):
        schedule = Schedule(chain_dag, _slots_for_chain(), 1)
        with pytest.raises(ScheduleError, match="not in schedule"):
            schedule.slot(99)


class TestPresentation:
    def test_gantt_text_contains_processors(self, chain_dag):
        schedule = Schedule(chain_dag, _slots_for_chain(), 1)
        text = schedule.as_gantt_text(width=30)
        assert "P0" in text

    def test_shifted(self, chain_dag):
        schedule = Schedule(chain_dag, _slots_for_chain(), 1)
        shifted = schedule.shifted(10.0)
        assert shifted[0].start == 10.0
        assert shifted[2].end == 16.0

    def test_repr(self, chain_dag):
        schedule = Schedule(chain_dag, _slots_for_chain(), 1)
        assert "makespan=6" in repr(schedule)
