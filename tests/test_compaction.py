"""Departure compaction: the canonical fast path against the reference replay.

While the controller is canonical, a low-density departure replays the
surviving suffix with :meth:`AdmissionController._replay_changed`, which
probes only the buckets the departure changed.  The reference
:meth:`AdmissionController._replay_suffix` replays every placement.  The
property here runs both on copies of the same controller over random churn
traces -- Chen gadgets, high-density carve/release, snapshot/restore mid
trace, and a ``repack_on_departure=False`` stretch closed by ``compact()``
-- and demands identical receipts, bucket lists, ledger floats,
``canonical`` flags and snapshots.  A pinned instance covers the unclean
(first-fit anomaly) outcome, which random traces practically never reach.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.generation.adversarial import chen_gadget
from repro.generation.traces import TraceConfig, generate_trace
from repro.online import AdmissionController

from strategies import parallel_task


def _with_reference_replay(controller: AdmissionController) -> AdmissionController:
    """Route *controller*'s canonical departures through the reference."""
    controller._replay_changed = lambda after_seq, origin: (
        controller._replay_suffix(after_seq)
    )
    return controller


def _restored(controller: AdmissionController, **overrides) -> AdmissionController:
    return AdmissionController.restore({**controller.snapshot(), **overrides})


def _assert_same_state(fast: AdmissionController, ref: AdmissionController) -> None:
    assert fast.canonical == ref.canonical
    assert [[e.sporadic.name for e in b] for b in fast._buckets] == [
        [e.sporadic.name for e in b] for b in ref._buckets
    ]
    assert [s.state_vector() for s in fast._shards] == [
        s.state_vector() for s in ref._shards
    ]
    assert fast.snapshot() == ref.snapshot()


def _churn(seed: int, processors: int, gadget_share: float):
    """A churny trace with some admits swapped for Chen gadget tasks."""
    config = TraceConfig(
        events=70, processors=processors, mean_lifetime=12.0,
        heavy_fraction=0.2,
    )
    rng = np.random.default_rng([seed, 1510])
    events = []
    for event in generate_trace(config, seed):
        if event.op == "admit" and rng.random() < gadget_share:
            tasks = chen_gadget(int(rng.integers(1, 4))).system.tasks
            task = tasks[int(rng.integers(len(tasks)))]
            event = replace(event, task=replace(task, name=event.task_id))
        events.append(event)
    return events


class TestFastPathEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        processors=st.integers(min_value=3, max_value=12),
        gadget_share=st.sampled_from([0.0, 0.15]),
        restore_at=st.integers(min_value=0, max_value=69),
        pause=st.one_of(st.none(), st.tuples(
            st.integers(min_value=0, max_value=60),
            st.integers(min_value=1, max_value=20),
        )),
    )
    def test_same_outcome_as_reference(
        self, seed, processors, gadget_share, restore_at, pause
    ):
        fast = AdmissionController(processors)
        ref = _with_reference_replay(AdmissionController(processors))
        admitted: set[str] = set()
        for i, event in enumerate(_churn(seed, processors, gadget_share)):
            if i == restore_at:
                fast = _restored(fast)
                ref = _with_reference_replay(_restored(ref))
            if pause is not None and i == pause[0]:
                # Departures in the pause leave the packing non-canonical.
                fast = _restored(fast, repack_on_departure=False)
                ref = _with_reference_replay(
                    _restored(ref, repack_on_departure=False)
                )
            if pause is not None and i == pause[0] + pause[1]:
                assert fast.compact() == ref.compact()
                fast = _restored(fast, repack_on_departure=True)
                ref = _with_reference_replay(
                    _restored(ref, repack_on_departure=True)
                )
            if event.op == "admit":
                got, want = fast.admit(event.task), ref.admit(event.task)
                assert (got.accepted, got.processors, got.reason) == (
                    want.accepted, want.processors, want.reason
                )
                if got.accepted:
                    admitted.add(event.task_id)
                continue
            if event.task_id not in admitted:
                continue
            admitted.discard(event.task_id)
            got, want = fast.depart(event.task_id), ref.depart(event.task_id)
            assert (got.migrations, got.clean, got.released) == (
                want.migrations, want.clean, want.released
            )
            _assert_same_state(fast, ref)
            if fast.canonical:
                assert fast.matches_batch()
        _assert_same_state(fast, ref)


class TestUncleanCompaction:
    def test_first_fit_anomaly_keeps_old_packing(self):
        # Removing t2 lets t3 move to bucket 0, after which t4..t6 no longer
        # pack first-fit on two processors: the pass is rejected and the
        # old assignment (minus t2) is kept.
        specs = [
            (1.0, 2.0, 4.0), (1.5, 4.0, 5.0), (1.0, 6.0, 10.0),
            (1.5, 2.0, 8.0), (1.0, 4.0, 8.0), (0.5, 2.0, 4.0),
            (0.5, 2.0, 8.0),
        ]
        controller = AdmissionController(2)
        for i, (wcet, deadline, period) in enumerate(specs):
            task = parallel_task(1, wcet, deadline, period, f"t{i}")
            assert controller.admit(task).accepted
        assert controller.canonical
        receipt = controller.depart("t2")
        assert (receipt.migrations, receipt.clean) == (0, False)
        assert not controller.canonical
        survivors = ["t0", "t1", "t3", "t4", "t5", "t6"]
        assert [controller.bucket_of(n) for n in survivors] == [0, 0, 1, 1, 1, 0]
        assert controller.verify(exact=True)
