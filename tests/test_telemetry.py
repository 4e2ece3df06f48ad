"""Tests for the service-grade telemetry stack (``repro.obs``).

Covers the four facilities the observability layer is built from, and the
contracts the rest of the library leans on:

* log-bucketed :class:`~repro.obs.metrics.Histogram` sketches -- bucket
  geometry, quantile accuracy against the exact reference, and *bit-exact*
  order-independent merging (the property the parallel engine's aggregate
  snapshots rest on);
* the shared :func:`~repro.obs.metrics.percentile` helper against numpy;
* ``TimerStats.min`` through snapshot / merge / old-format snapshots;
* span tracing -- nesting, deterministic ids, the null-span fast path,
  JSONL round-trip, and the decisions spans carry;
* the flight recorder -- ring semantics, dumps, and the excepthook
  post-mortem path;
* Prometheus text exposition;
* the ``fedcons-obs`` inspector and the ``fedcons-admit`` telemetry flags,
  including the decisions-unchanged-under-telemetry guarantee.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import decision_events
from repro.obs.flight import FlightRecorder, flight, flight_recording
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    TimerStats,
    collecting,
    metrics,
    percentile,
)
from repro.obs.spans import (
    SpanTracer,
    current_span,
    current_tracer,
    load_spans,
    span,
    span_tracing,
)
from repro.obs.tool import obs_main
from repro.online.cli import admit_main
from repro.parallel.engine import GridSpec, run_grid

_LOG_DENSITY = 8
_GROWTH = 2.0 ** (1.0 / _LOG_DENSITY)

positive_floats = st.floats(
    min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False
)
samples_lists = st.lists(positive_floats, min_size=1, max_size=80)


# ---------------------------------------------------------------------------
# percentile helper
# ---------------------------------------------------------------------------


class TestPercentile:
    @given(samples_lists, st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_linear(self, data, q):
        assert percentile(data, q) == pytest.approx(
            float(np.percentile(np.asarray(data), q)), rel=1e-12, abs=1e-300
        )

    def test_extremes_are_exact(self):
        data = [5.0, 1.0, 3.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 5.0
        assert percentile(data, 50) == 3.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 25) == 2.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([1.0], 101)


# ---------------------------------------------------------------------------
# histogram sketch
# ---------------------------------------------------------------------------


class TestHistogram:
    @given(positive_floats)
    @settings(max_examples=100, deadline=None)
    def test_bucket_brackets_value(self, value):
        index = Histogram.bucket_index(value)
        upper = Histogram.bucket_upper_bound(index)
        lower = Histogram.bucket_upper_bound(index - 1)
        # One-ulp tolerance: log2 rounding at exact powers of the growth
        # factor may land on either side of the boundary.
        assert value <= upper * (1.0 + 1e-12)
        assert value > lower * (1.0 - 1e-12)

    @given(samples_lists, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_quantile_within_one_bucket_of_order_statistic(self, data, q):
        hist = Histogram()
        for value in data:
            hist.add(value)
        target = sorted(data)[max(1, math.ceil(q * len(data))) - 1]
        estimate = hist.quantile(q)
        assert estimate <= target * _GROWTH * (1.0 + 1e-12)
        assert estimate >= target / _GROWTH * (1.0 - 1e-12)

    @given(samples_lists)
    @settings(max_examples=60, deadline=None)
    def test_extremes_and_count_and_sum_exact(self, data):
        hist = Histogram()
        for value in data:
            hist.add(value)
        assert hist.count == len(data)
        assert hist.min == min(data)
        assert hist.max == max(data)
        assert hist.quantile(0.0) == min(data)
        assert hist.quantile(1.0) == max(data)
        assert hist.sum == pytest.approx(math.fsum(data), rel=1e-15)

    @given(
        samples_lists,
        st.integers(min_value=1, max_value=5),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_is_bit_identical_and_order_independent(
        self, data, parts, shuffler
    ):
        whole = Histogram()
        for value in data:
            whole.add(value)
        chunks = [Histogram() for _ in range(parts)]
        for k, value in enumerate(data):
            chunks[k % parts].add(value)
        snapshots = [chunk.to_dict() for chunk in chunks]
        shuffler.shuffle(snapshots)
        merged = Histogram()
        for snapshot in snapshots:
            merged.merge_dict(snapshot)
        # Dict equality covers count, extrema, buckets AND the integer
        # exact sum -- bit identity, not approximate agreement.
        assert merged.to_dict() == whole.to_dict()

    def test_zeros_counted_separately(self):
        hist = Histogram()
        for value in (0.0, -1.0, 0.5):
            hist.add(value)
        assert hist.zeros == 2
        assert hist.count == 3
        assert hist.min == -1.0
        assert hist.quantile(0.5) == 0.0

    def test_empty_quantile_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Histogram().quantile(1.5)

    def test_merge_degraded_snapshot_without_exact_sum(self):
        hist = Histogram()
        hist.add(2.0)
        degraded = hist.to_dict()
        del degraded["exact_sum"]
        other = Histogram()
        other.merge_dict(degraded)
        assert other.sum == 2.0
        assert other.count == 1

    def test_merge_empty_snapshot_is_noop(self):
        hist = Histogram()
        hist.merge_dict(Histogram().to_dict())
        assert hist.count == 0
        assert hist.to_dict()["buckets"] == {}


# ---------------------------------------------------------------------------
# TimerStats.min
# ---------------------------------------------------------------------------


class TestTimerMin:
    def test_min_tracked_and_snapshotted(self):
        registry = MetricsRegistry(enabled=True)
        for seconds in (0.5, 0.2, 0.9):
            registry.record_time("t", seconds)
        stats = registry.snapshot()["timers"]["t"]
        assert stats["min_seconds"] == 0.2
        assert stats["max_seconds"] == 0.9

    def test_empty_timer_reports_zero_min(self):
        assert TimerStats().to_dict()["min_seconds"] == 0.0

    def test_merge_with_min(self):
        stats = TimerStats()
        stats.add(0.5)
        stats.merge(2, 0.6, maximum=0.4, minimum=0.1)
        assert stats.min == 0.1
        assert stats.max == 0.5

    def test_merge_old_snapshot_defaults_min_to_max(self):
        registry = MetricsRegistry()
        registry.merge_snapshot(
            {
                "counters": {},
                "timers": {
                    "t": {"count": 3, "total_seconds": 0.9, "max_seconds": 0.5}
                },
            }
        )
        assert registry.timer("t").min == 0.5

    def test_merge_empty_timer_leaves_min_alone(self):
        stats = TimerStats()
        stats.add(0.3)
        stats.merge(0, 0.0, maximum=0.0, minimum=0.0)
        assert stats.min == 0.3

    def test_record_time_feeds_histogram(self):
        registry = MetricsRegistry(enabled=True)
        registry.record_time("t", 0.25)
        assert registry.histogram("t").count == 1
        snap = registry.snapshot()
        assert set(snap) == {"counters", "timers", "histograms"}
        assert snap["histograms"]["t"]["count"] == 1

    def test_csv_includes_min_and_histograms(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        registry.incr("c")
        registry.record_time("t", 0.25)
        out = tmp_path / "metrics.csv"
        registry.to_csv(out)
        text = out.read_text()
        assert "timer,t,min_seconds,0.25" in text
        assert "histogram,t,p50," in text


# ---------------------------------------------------------------------------
# span tracing
# ---------------------------------------------------------------------------


class TestSpans:
    def test_nesting_parent_child_and_ids(self):
        with span_tracing() as tracer:
            with span("outer", kind="test") as outer:
                with span("inner") as inner:
                    assert current_span() is inner
                assert current_span() is outer
        assert current_tracer() is None
        assert [s.name for s in tracer.finished] == ["inner", "outer"]
        inner, outer = tracer.finished
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id == "trace-1"
        assert tracer.roots() == [outer]
        assert tracer.children_of(outer) == [inner]
        assert outer.attributes == {"kind": "test"}

    def test_sibling_traces_get_distinct_trace_ids(self):
        with span_tracing() as tracer:
            with span("a"):
                pass
            with span("b"):
                pass
        assert [s.trace_id for s in tracer.finished] == ["trace-1", "trace-2"]

    def test_null_span_without_tracer(self):
        assert current_tracer() is None
        first = span("anything")
        second = span("else")
        assert first is second  # the shared no-op singleton
        with first as handle:
            handle.set(ignored=True)
            handle.add_event("ignored")
        assert current_span() is None

    def test_exception_annotates_and_closes(self):
        with span_tracing() as tracer:
            with pytest.raises(RuntimeError):
                with span("failing"):
                    raise RuntimeError("boom")
        (failing,) = tracer.finished
        assert failing.attributes["error"] == "RuntimeError: boom"
        assert failing.end is not None

    def test_span_events_carry_offsets(self):
        with span_tracing() as tracer:
            with span("s") as handle:
                handle.add_event("mark", task="T1")
        (finished,) = tracer.finished
        (event,) = finished.events
        assert event["name"] == "mark"
        assert event["attributes"] == {"task": "T1"}
        assert event["offset"] >= 0.0

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with span_tracing() as tracer:
            with span("outer", m=8):
                with span("inner"):
                    pass
        tracer.to_jsonl(path)
        restored = load_spans(path)
        assert restored == tracer.to_dicts()
        assert restored[0]["name"] == "inner"
        assert restored[1]["attributes"] == {"m": 8}

    def test_decision_events_annotate_active_span(self):
        with span_tracing() as tracer:
            with span("outer") as outer:
                outer.add_event("Rejection", phase="partition", task="T1")
                with span("inner") as inner:
                    inner.add_event("MinprocsStep", task="T7", fits=True)
                outer.add_event("PhaseComplete", phase="partition")
        # Events read back across spans in recording order, with their
        # attributes flattened beside the event name.
        assert decision_events(tracer) == [
            {"event": "Rejection", "phase": "partition", "task": "T1"},
            {"event": "MinprocsStep", "task": "T7", "fits": True},
            {"event": "PhaseComplete", "phase": "partition"},
        ]
        assert decision_events(tracer.to_dicts(), "MinprocsStep") == [
            {"event": "MinprocsStep", "task": "T7", "fits": True}
        ]


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_evicts_oldest(self):
        recorder = FlightRecorder(capacity=3)
        recorder.enable()
        for k in range(5):
            recorder.record("event", {"k": k})
        entries = recorder.entries()
        assert [e["data"]["k"] for e in entries] == [2, 3, 4]
        assert [e["seq"] for e in entries] == [3, 4, 5]
        assert recorder.total_recorded == 5
        assert len(recorder) == 3

    def test_disabled_records_nothing(self):
        recorder = FlightRecorder(capacity=3)
        recorder.record("event", {})
        assert len(recorder) == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_dump_document_accounts_for_eviction(self, tmp_path):
        recorder = FlightRecorder(capacity=2)
        recorder.enable()
        for k in range(4):
            recorder.record("event", {"k": k})
        document = recorder.dump_document(reason="unit")
        assert document["reason"] == "unit"
        assert document["capacity"] == 2
        assert document["total_recorded"] == 4
        assert document["evicted"] == 2
        path = recorder.dump(tmp_path / "dump.json", reason="unit")
        loaded = json.loads(path.read_text())
        assert [e["data"]["k"] for e in loaded["entries"]] == [2, 3]

    def test_excepthook_dumps_and_chains(self, tmp_path):
        recorder = FlightRecorder(capacity=8)
        recorder.enable()
        recorder.record("event", {"last": "pre-crash"})
        chained = []
        previous_hook = sys.excepthook
        sys.excepthook = lambda *exc_info: chained.append(exc_info)
        try:
            recorder.install(tmp_path, use_signal=False)
            try:
                raise RuntimeError("simulated crash")
            except RuntimeError:
                sys.excepthook(*sys.exc_info())
            recorder.uninstall()
            assert sys.excepthook is not previous_hook  # our lambda restored
        finally:
            sys.excepthook = previous_hook
        assert len(chained) == 1  # the previous hook still ran
        dumps = sorted(tmp_path.glob("flight-*.json"))
        assert len(dumps) == 1
        document = json.loads(dumps[0].read_text())
        assert document["reason"] == "excepthook:RuntimeError"
        kinds = [e["kind"] for e in document["entries"]]
        assert kinds == ["event", "crash"]
        assert "simulated crash" in document["entries"][-1]["data"]["exception"]

    def test_flight_recording_scopes_global_recorder(self):
        assert not flight.enabled
        with flight_recording(capacity=4) as recorder:
            assert recorder is flight
            assert flight.enabled
            flight.record("event", {"k": 1})
        assert not flight.enabled
        # Entries survive the block for post-hoc dumping.
        assert [e["data"]["k"] for e in flight.entries()] == [1]
        flight.reset()

    def test_taps_from_metrics_and_events_and_spans(self):
        with flight_recording(capacity=16):
            with collecting() as registry:
                registry.record_time("t", 0.5)
                registry.observe("h", 2.0)
                registry.incr("c")  # counters deliberately do NOT tap
            with span_tracing():
                with span("s") as handle:
                    handle.add_event("Rejection", task="T1")
            entries = flight.entries()
        # Decisions reach the ring inside the span that carries them.
        assert [e["kind"] for e in entries] == ["timer", "histogram", "span"]
        assert entries[-1]["data"]["events"][0]["name"] == "Rejection"
        flight.reset()


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------


class TestPrometheus:
    def test_counter_timer_histogram_exposition(self):
        registry = MetricsRegistry(enabled=True)
        registry.incr("dbf_star_evaluations", 3)
        registry.record_time("online.admit_seconds", 0.5)
        registry.record_time("online.admit_seconds", 0.25)
        registry.observe("probes", 0.0)
        text = registry.to_prometheus()
        lines = text.splitlines()
        assert "# TYPE dbf_star_evaluations counter" in lines
        assert "dbf_star_evaluations_total 3" in lines
        assert "# TYPE online_admit_seconds summary" in lines
        assert "online_admit_seconds_sum 0.75" in lines
        assert "online_admit_seconds_count 2" in lines
        assert "online_admit_seconds_max 0.5" in lines
        assert "online_admit_seconds_min 0.25" in lines
        assert "# TYPE online_admit_seconds_hist histogram" in lines
        assert 'probes_hist_bucket{le="0"} 1' in lines
        assert 'probes_hist_bucket{le="+Inf"} 1' in lines
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry(enabled=True)
        for value in (0.1, 0.2, 0.4, 0.8, 1.6):
            registry.observe("lat", value)
        counts = []
        for line in registry.to_prometheus().splitlines():
            if line.startswith("lat_hist_bucket"):
                counts.append(int(line.rsplit(" ", 1)[1]))
        assert counts == sorted(counts)
        assert counts[-1] == 5  # the +Inf bucket equals the count

    def test_name_sanitization(self):
        registry = MetricsRegistry(enabled=True)
        registry.incr("2bad.name-x")
        assert "_2bad_name_x_total 1" in registry.to_prometheus()

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_to_prometheus_file(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        registry.incr("c")
        out = tmp_path / "metrics.prom"
        registry.to_prometheus_file(out)
        assert out.read_text() == registry.to_prometheus()


# ---------------------------------------------------------------------------
# parallel merge bit-identity
# ---------------------------------------------------------------------------


def _telemetry_evaluator(common, point, rng, point_index, sample_index):
    """Worker-side evaluator recording deterministic telemetry."""
    value = float(rng.uniform(0.001, 1.0))
    metrics.observe("telemetry.value", value)
    metrics.record_time("telemetry.seconds", value / 1000.0)
    return value


def _grid_telemetry(jobs: int, chunk_size: int | None) -> dict:
    spec = GridSpec(
        evaluator="test_telemetry:_telemetry_evaluator",
        exp_id="TEL",
        points=(1, 2),
        samples=5,
        root_seed=7,
    )
    with collecting() as registry:
        outcomes = run_grid(spec, jobs=jobs, chunk_size=chunk_size)
        snapshot = registry.snapshot()
    return {"outcomes": outcomes, "histograms": snapshot["histograms"]}


class TestParallelMergeIdentity:
    def test_histograms_bit_identical_across_worker_topologies(self):
        serial = _grid_telemetry(jobs=1, chunk_size=None)
        two = _grid_telemetry(jobs=2, chunk_size=1)
        three = _grid_telemetry(jobs=3, chunk_size=4)
        assert serial["outcomes"] == two["outcomes"] == three["outcomes"]
        for key in ("telemetry.value", "telemetry.seconds"):
            # Full dict equality, exact_sum included: the merged aggregate
            # is bit-identical no matter how samples map onto workers.
            assert serial["histograms"][key] == two["histograms"][key]
            assert serial["histograms"][key] == three["histograms"][key]


# ---------------------------------------------------------------------------
# fedcons-obs inspector
# ---------------------------------------------------------------------------


@pytest.fixture
def trace_jsonl(tmp_path):
    path = tmp_path / "trace.jsonl"
    with span_tracing() as tracer:
        with span("online.commit", op="admit"):
            with span("online.admit", task="T1") as admitting:
                admitting.add_event("MinprocsStep", task="T1", fits=True)
    tracer.to_jsonl(path)
    return path


class TestObsTool:
    def test_show_renders_tree(self, trace_jsonl, capsys):
        assert obs_main(["show", str(trace_jsonl)]) == 0
        out = capsys.readouterr().out
        assert "trace trace-1" in out
        assert "online.commit" in out
        assert "online.admit" in out
        assert "* MinprocsStep" in out
        assert "[fits=True task=T1]" in out
        assert "1 trace(s), 2 span(s)" in out

    def test_show_trace_id_filter(self, trace_jsonl, capsys):
        assert obs_main(["show", str(trace_jsonl), "--trace-id", "nope"]) == 1
        assert "no trace matching 'nope'" in capsys.readouterr().err

    def test_show_name_filter(self, trace_jsonl, capsys):
        assert (
            obs_main(["show", str(trace_jsonl), "--name", "online.commit"])
            == 0
        )
        out = capsys.readouterr().out
        assert "1 trace(s)" in out
        assert obs_main(["show", str(trace_jsonl), "--name", "nope"]) == 1
        assert "no trace matching 'nope'" in capsys.readouterr().err

    def test_show_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert obs_main(["show", str(empty)]) == 1
        assert "no spans" in capsys.readouterr().err

    def _snapshot_file(self, tmp_path, name, observations):
        registry = MetricsRegistry(enabled=True)
        for value in observations:
            registry.incr("runs")
            registry.record_time("t", value)
        path = tmp_path / name
        registry.to_json(path)
        return path, registry

    def test_diff(self, tmp_path, capsys):
        before, _ = self._snapshot_file(tmp_path, "before.json", [0.5])
        after, _ = self._snapshot_file(tmp_path, "after.json", [0.5, 0.6])
        assert obs_main(["diff", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert "counter runs: 1 -> 2 (+1)" in out
        assert "timer t: count 1 -> 2" in out
        assert "histogram t: count 1 -> 2" in out

    def test_merge_matches_in_process_merge(self, tmp_path, capsys):
        one, reg_one = self._snapshot_file(tmp_path, "w1.json", [0.5])
        two, reg_two = self._snapshot_file(tmp_path, "w2.json", [0.25, 0.75])
        out_path = tmp_path / "merged.json"
        assert obs_main(
            ["merge", str(one), str(two), "-o", str(out_path)]
        ) == 0
        merged = json.loads(out_path.read_text())
        reference = MetricsRegistry()
        reference.merge_snapshot(reg_one.snapshot())
        reference.merge_snapshot(reg_two.snapshot())
        assert merged == reference.snapshot()
        assert "merged 2 snapshot(s)" in capsys.readouterr().out

    def test_prom_from_stored_snapshot(self, tmp_path, capsys):
        snapshot, registry = self._snapshot_file(tmp_path, "snap.json", [0.5])
        assert obs_main(["prom", str(snapshot)]) == 0
        assert capsys.readouterr().out == registry.to_prometheus()

    def test_flight_summary(self, tmp_path, capsys):
        recorder = FlightRecorder(capacity=4)
        recorder.enable()
        recorder.record("timer", {"name": "t", "seconds": 0.5})
        with span_tracing() as tracer:
            with span("online.admit", task="T1") as admitting:
                admitting.set(accepted=True, seq=3)
        recorder.record("span", tracer.finished[0])
        dump = recorder.dump(tmp_path / "dump.json", reason="unit")
        assert obs_main(["flight", str(dump), "--tail", "1"]) == 0
        out = capsys.readouterr().out
        assert "reason=unit" in out
        assert "span: online.admit" in out
        assert "[task=T1 accepted=True seq=3]" in out
        assert "t=0.5" not in out  # --tail 1 hides the older timer entry


# ---------------------------------------------------------------------------
# fedcons-admit telemetry flags
# ---------------------------------------------------------------------------


@pytest.fixture(scope="class")
def small_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("telemetry") / "trace.jsonl"
    assert admit_main(
        ["generate", str(path), "--events", "30", "-m", "8", "--seed", "3"]
    ) == 0
    return path


class TestAdmitTelemetry:
    def test_replay_exports_all_three_artifacts(self, small_trace, tmp_path):
        journal = tmp_path / "j.jsonl"
        checkpoint = tmp_path / "c.json"
        metrics_out = tmp_path / "metrics.json"
        prom_out = tmp_path / "out.prom"
        trace_out = tmp_path / "spans.jsonl"
        rc = admit_main(
            [
                "replay", str(small_trace), "-m", "8",
                "--journal", str(journal), "--fsync", "off",
                "--checkpoint", str(checkpoint), "--checkpoint-every", "10",
                "--metrics", str(metrics_out),
                "--prom", str(prom_out),
                "--trace-out", str(trace_out),
            ]
        )
        assert rc == 0

        snapshot = json.loads(metrics_out.read_text())
        admit_hist = snapshot["histograms"]["online.admit_seconds"]
        assert admit_hist["count"] > 0
        assert admit_hist["p50"] <= admit_hist["p95"] <= admit_hist["p99"]
        assert (
            snapshot["timers"]["online.admit_seconds"]["min_seconds"] > 0.0
        )

        prom = prom_out.read_text()
        assert "online_admit_seconds_hist_bucket" in prom
        assert "online_journal_append_seconds_count" in prom

        spans = load_spans(trace_out)
        by_name = {}
        for entry in spans:
            by_name.setdefault(entry["name"], []).append(entry)
        # One end-to-end trace per admission: the durable commit is the
        # root, the admission decision and the journal append are inside.
        commits = by_name["online.commit"]
        assert all(s["parent_id"] is None for s in commits)
        commit_ids = {s["span_id"] for s in commits}
        assert any(
            s["parent_id"] in commit_ids for s in by_name["online.admit"]
        )
        assert any(
            s["parent_id"] in commit_ids
            for s in by_name["online.journal.append"]
        )
        admits = [
            s for s in by_name["online.admit"]
            if s["attributes"].get("accepted")
        ]
        assert admits and all("processors" in s["attributes"] for s in admits)

    def test_decisions_identical_with_and_without_telemetry(
        self, small_trace, tmp_path
    ):
        plain_csv = tmp_path / "plain.csv"
        telemetry_csv = tmp_path / "telemetry.csv"
        assert admit_main(
            ["replay", str(small_trace), "-m", "8", "--csv", str(plain_csv)]
        ) == 0
        assert admit_main(
            [
                "replay", str(small_trace), "-m", "8",
                "--csv", str(telemetry_csv),
                "--metrics", str(tmp_path / "m.json"),
                "--prom", str(tmp_path / "p.prom"),
                "--trace-out", str(tmp_path / "t.jsonl"),
                "--flight-dir", str(tmp_path / "flight"),
            ]
        ) == 0
        assert plain_csv.read_bytes() == telemetry_csv.read_bytes()

    def test_recover_metrics_flag(self, small_trace, tmp_path, capsys):
        journal = tmp_path / "j.jsonl"
        assert admit_main(
            [
                "replay", str(small_trace), "-m", "8",
                "--journal", str(journal), "--fsync", "off",
            ]
        ) == 0
        metrics_out = tmp_path / "recovery.json"
        rc = admit_main(
            ["recover", str(journal), "--metrics", str(metrics_out)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean replay latency" in out
        assert f"metrics written to {metrics_out}" in out
        snapshot = json.loads(metrics_out.read_text())
        replay_timer = snapshot["timers"]["online.recover.replay_seconds"]
        assert replay_timer["count"] > 0
        assert snapshot["histograms"]["online.recover.replay_seconds"][
            "count"
        ] == replay_timer["count"]
