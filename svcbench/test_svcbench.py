"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python -m pytest svcbench -q
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

from calibration import REFERENCE_SECONDS, loop_seconds, to_reference  # noqa: E402
from check import (  # noqa: E402
    EXPECTED_ERROR,
    FAILED,
    MISMATCH,
    OK,
    classify,
)
from load import _counters  # noqa: E402
from repro.obs.spans import span, span_tracing  # noqa: E402
from repro.online.trace import ReplayRecord  # noqa: E402
from stats import tail  # noqa: E402
from tracing import (  # noqa: E402
    SHARD_PROBE,
    exact_counts,
    hot,
    layer_busy,
    layer_metrics,
    request_window,
    traced,
)
from workloads import WORKLOADS, make_trace, request_line  # noqa: E402


def _short(name: str, events: int = 40):
    workload = WORKLOADS[name]
    return replace(workload, config=replace(workload.config, events=events))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeded_trace_is_byte_identical(name):
    workload = _short(name)
    first = b"".join(request_line(e) for e in make_trace(workload, 7))
    again = b"".join(request_line(e) for e in make_trace(workload, 7))
    other = b"".join(request_line(e) for e in make_trace(workload, 8))
    assert first == again
    assert first != other


def test_heavy_trace_carries_gadget_tasks_under_unique_ids():
    events = make_trace(_short("heavy", 200), 0)
    admits = [e for e in events if e.op == "admit"]
    assert len({e.task.name for e in admits}) == len(admits)
    assert all(e.task.name == e.task_id for e in admits)
    # Chen gadget tasks are fully parallel: every vertex is independent.
    assert any(not e.task.dag.edges for e in admits)


def _record(op, outcome, kind="low_density", processors=(), migrations=0):
    return ReplayRecord(
        seq=1, op=op, task_id="t0001", kind=kind, outcome=outcome, reason="",
        processors=processors, migrations=migrations, latency_seconds=0.0,
    )


def test_classify_separates_absent_departs_from_failures():
    absent = _record("depart", "absent", kind="")
    error = {"ok": False, "code": "online_error", "error": "no admitted task"}
    assert classify(absent, error) == EXPECTED_ERROR
    assert classify(absent, {"ok": False, "code": "internal"}) == FAILED
    assert classify(absent, None) == FAILED
    departed = {"ok": True, "receipt": {
        "kind": "low_density", "released": [], "migrations": 0,
    }}
    assert classify(absent, departed) == MISMATCH
    assert classify(_record("depart", "departed"), departed) == OK
    assert classify(_record("depart", "departed"), error) == FAILED


def test_classify_compares_admit_decisions():
    record = _record("admit", "accepted", processors=(3,))
    answer = {"ok": True, "decision": {
        "accepted": True, "kind": "low_density", "processors": [3],
        "reason": None,
    }}
    assert classify(record, answer) == OK
    moved = {"ok": True, "decision": {**answer["decision"], "processors": [4]}}
    assert classify(record, moved) == MISMATCH
    assert classify(record, {"ok": False, "code": "bad_request"}) == FAILED
    assert classify(record, None) == FAILED


def test_tail_reports_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 1001))
    t = tail(samples)
    assert (t.percentile, t.value, t.count, t.beyond) == (99.0, 990, 1000, 10)
    t = tail(samples[:999])
    assert t.percentile == 90.0 and t.beyond >= 10
    assert tail(range(20)).percentile == 50.0
    assert tail(range(5)) is None


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _traced_calls():
    """A decode, an admit with nested MINPROCS and shard calls, an encode,
    recorded by the program's span tracer as the traced primary does."""
    probe = hot(SHARD_PROBE, lambda: _busy(0.001))

    def minprocs():
        with span("minprocs"):
            _busy(0.002)

    def admit():
        with span("online.admit"):
            _busy(0.001)
            minprocs()
            probe()
            probe()

    decode = traced(
        "protocol.decode", lambda: {"op": "admit", "task": {"name": "t1"}},
        request=lambda _args, msg: f"admit:{msg['task']['name']}",
    )
    encode = traced(
        "protocol.encode", lambda: _busy(0.001),
        request=lambda *_: "admit:t1",
    )
    with span_tracing() as tracer:
        decode()
        _busy(0.002)  # not inside any span: unattributed
        admit()
        encode()
    return json.loads(json.dumps(tracer.to_dicts()))


def test_self_times_plus_unattributed_sum_to_wall_time():
    spans = _traced_calls()
    window, wall = request_window(spans)
    busy = layer_busy(window)
    assert all(value >= 0 for value in busy.values())
    assert busy["shard"] >= 0.002
    assert busy["minprocs"] >= 0.002
    assert busy["controller"] >= 0.001
    # Self times partition the root spans: nothing counted twice.
    roots = sum(s["duration_seconds"] for s in window if s["parent_id"] is None)
    assert sum(busy.values()) == pytest.approx(roots)
    unattributed = wall - roots
    assert unattributed >= 0.002
    metrics = layer_metrics(spans, {
        "requests": 1, "admits": 1, "accepted": 1, "departs": 0,
        "migrations": 0, "journal_bytes": 10, "ls_runs": 1, "group_syncs": 1,
    })
    shares = [v for k, v in metrics.items() if k.endswith(".share")]
    assert sum(shares) + metrics["server.unattributed_share"] == pytest.approx(1)
    assert metrics["shard.probes_per_admit"] == 2
    assert metrics["minprocs.calls"] == 1
    assert exact_counts(spans)["hot_counts"] == [
        [SHARD_PROBE, "online.admit", 2]
    ]


def test_counters_keep_only_the_names_found():
    text = "online_placement_probes_total 12\nother_total 3\n"
    assert _counters(text) == {"online_placement_probes_total": 12}


def test_reference_scaling_cancels_host_speed():
    # A host half as fast doubles both the pass and the loop.
    assert to_reference(2.0, 2 * REFERENCE_SECONDS) == pytest.approx(
        to_reference(1.0, REFERENCE_SECONDS)
    )
    assert loop_seconds() > 0
