"""Online admission bench: incremental controller vs per-event re-analysis.

An admit-heavy trace (effectively infinite lifetimes, light tasks, a large
shared pool) grows the live population past 200 concurrently admitted tasks.
The same event sequence is costed two ways:

* **incremental** -- one :class:`repro.online.AdmissionController` replay;
  each admit is an O(buckets x test points) shard probe;
* **per-event batch** -- after every event, the full two-phase FEDCONS
  analysis of the currently-admitted set is re-run (what an online system
  without incremental state would have to do).  Decisions are identical by
  construction: the batch run is the controller's correctness oracle.

The tentpole's acceptance criterion -- incremental beats per-event batch
re-analysis by >= 5x once 200+ tasks are admitted -- is asserted here, and
the timings land in ``benchmarks/BENCH_online.json`` for PR-to-PR tracking.
The baseline is timed exactly (no stride sampling): at these sizes it costs
a few seconds total, which is the point.

The ``churn`` leg costs departures on the ``make profile-admit`` trace
(2,000 events, m=64, seed 0): the canonical fast path
(``_replay_changed``) against the reference suffix replay
(``_replay_suffix``), with departures/s from the summed ``depart()`` CPU
time and the ``fits_all_points`` probes and ``ShardState`` builds per
departure.  Only the counts are gated: the fast path must probe strictly
less than the reference.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.shard import ShardState

from repro.generation.tasksets import SystemConfig
from repro.generation.traces import TraceConfig, generate_trace
from repro.online.controller import AdmissionController
from repro.online.trace import replay

ARTIFACT = Path(__file__).parent / "BENCH_online.json"

_SEED = 0
_CONFIG = TraceConfig(
    events=280,
    processors=96,
    mean_lifetime=1e6,  # nothing departs inside the window: population grows
    heavy_fraction=0.05,
    utilization_low=0.02,
    utilization_high=0.28,
    shape=SystemConfig(
        min_vertices=4, max_vertices=10, deadline_ratio=(0.35, 1.0)
    ),
)


_CHURN_SEED = 0
_CHURN_CONFIG = TraceConfig(events=2000, processors=64)
#: Timed repetitions per path; the fastest is recorded.
_CHURN_REPEATS = 3


def _update_artifact(entries: dict) -> None:
    """Merge *entries* into the artifact, keeping the other leg's keys."""
    data = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {}
    data.update(entries)
    ARTIFACT.write_text(json.dumps(data, indent=2) + "\n")


def _churn_pass(trace, reference: bool, departing: list[bool] | None = None):
    """Replay *trace*; the receipts and the summed ``depart()`` CPU time.

    ``departing[0]`` is held true while ``depart()`` runs, for the counting
    pass's ``ShardState`` hooks.
    """
    controller = AdmissionController(_CHURN_CONFIG.processors)
    if reference:
        controller._replay_changed = lambda after_seq, origin: (
            controller._replay_suffix(after_seq)
        )
    flag = departing if departing is not None else [False]
    receipts = []
    depart_seconds = 0.0
    for event in trace:
        if event.op == "admit":
            controller.admit(event.task)
        elif event.task_id in controller.admitted_ids:
            flag[0] = True
            started = time.process_time()
            receipt = controller.depart(event.task_id)
            depart_seconds += time.process_time() - started
            flag[0] = False
            receipts.append((receipt.task_id, receipt.migrations, receipt.clean))
    assert controller.verify()
    return receipts, depart_seconds


def _churn_counts(trace, reference: bool, monkeypatch) -> dict[str, int]:
    """Probes and ledger builds made inside ``depart()`` over *trace*."""
    counts = {"probes": 0, "builds": 0}
    departing = [False]
    fits, init = ShardState.fits_all_points, ShardState.__init__

    def counted_fits(self, task):
        counts["probes"] += departing[0]
        return fits(self, task)

    def counted_init(self, *args, **kwargs):
        counts["builds"] += departing[0]
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(ShardState, "fits_all_points", counted_fits)
        patch.setattr(ShardState, "__init__", counted_init)
        _churn_pass(trace, reference, departing)
    return counts


def test_bench_online_churn(monkeypatch):
    trace = generate_trace(_CHURN_CONFIG, _CHURN_SEED)
    legs = {}
    for name, reference in (("fast_path", False), ("reference", True)):
        runs = [_churn_pass(trace, reference) for _ in range(_CHURN_REPEATS)]
        receipts = runs[0][0]
        assert all(r == receipts for r, _ in runs)
        departures = len(receipts)
        seconds = min(s for _, s in runs)
        counts = _churn_counts(trace, reference, monkeypatch)
        legs[name] = {
            "receipts": receipts,
            "depart_cpu_seconds": seconds,
            "departures_per_second": departures / seconds if seconds else 0.0,
            "probes_per_departure": counts["probes"] / departures,
            "states_built_per_departure": counts["builds"] / departures,
        }
    fast, ref = legs["fast_path"], legs["reference"]
    # The fast path is exact: same migrations and clean flag per departure.
    receipts = fast.pop("receipts")
    assert receipts == ref.pop("receipts")
    _update_artifact(
        {
            "churn": {
                "events": len(trace),
                "processors": _CHURN_CONFIG.processors,
                "seed": _CHURN_SEED,
                "departures": len(receipts),
                "timing": f"min of {_CHURN_REPEATS} summed depart() CPU times",
                "fast_path": fast,
                "reference": ref,
                "depart_speedup": (
                    ref["depart_cpu_seconds"] / fast["depart_cpu_seconds"]
                ),
            }
        }
    )
    print(
        f"\nchurn departures: fast {fast['departures_per_second']:.0f}/s, "
        f"{fast['probes_per_departure']:.1f} probes, "
        f"{fast['states_built_per_departure']:.1f} builds; reference "
        f"{ref['departures_per_second']:.0f}/s, "
        f"{ref['probes_per_departure']:.1f} probes, "
        f"{ref['states_built_per_departure']:.1f} builds"
    )
    assert fast["probes_per_departure"] < ref["probes_per_departure"]


def test_bench_online_admission():
    trace = generate_trace(_CONFIG, _SEED)

    controller = AdmissionController(_CONFIG.processors)
    report = replay(controller, trace)
    incremental_seconds = report.elapsed_seconds
    assert controller.verify(exact=True)

    baseline = AdmissionController(_CONFIG.processors)
    batch_seconds = 0.0
    for event in trace:
        if event.op == "admit":
            baseline.admit(event.task)
        elif event.task_id in baseline.admitted_ids:
            baseline.depart(event.task_id)
        started = time.perf_counter()
        baseline.reanalyze()
        batch_seconds += time.perf_counter() - started

    speedup = batch_seconds / incremental_seconds if incremental_seconds else 0.0
    _update_artifact(
        {
            "events": report.events,
            "processors": _CONFIG.processors,
            "seed": _SEED,
            "peak_admitted": report.peak_admitted,
            "accepted": report.accepted,
            "rejected": report.rejected,
            "incremental_seconds": incremental_seconds,
            "incremental_events_per_second": report.events_per_second,
            "batch_seconds": batch_seconds,
            "batch_events_per_second": (
                report.events / batch_seconds if batch_seconds else 0.0
            ),
            "speedup": speedup,
            "baseline_sampling": "exact (every event)",
        }
    )

    print(
        f"\npeak admitted {report.peak_admitted}: incremental "
        f"{incremental_seconds:.3f}s vs per-event batch {batch_seconds:.3f}s "
        f"({speedup:.0f}x)"
    )

    assert report.peak_admitted >= 200, (
        f"trace too small to exercise the criterion: peak admitted "
        f"{report.peak_admitted} < 200"
    )
    # The tentpole's acceptance criterion.
    assert speedup >= 5.0, (
        f"incremental admission only {speedup:.1f}x faster than per-event "
        f"re-analysis ({incremental_seconds:.3f}s vs {batch_seconds:.3f}s)"
    )
