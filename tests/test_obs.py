"""Tests for the observability layer: metrics registry, the decisions that
span traces carry, and the structured-logging behaviour of FEDCONS."""

from __future__ import annotations

import csv
import io
import json
import logging

import pytest

from repro.model import DAG, SporadicDAGTask, TaskSystem
from repro.core.fedcons import FailureReason, fedcons
from repro.obs import (
    SpanTracer,
    collecting,
    configure_logging,
    current_span,
    current_tracer,
    decision_events,
    get_logger,
    load_spans,
    metrics,
    rejection,
    span_tracing,
)
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_global_state():
    """Each test starts with tracing off and the global registry empty."""
    metrics.disable()
    metrics.reset()
    yield
    metrics.disable()
    metrics.reset()
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        if getattr(handler, "_repro_obs_managed", False):
            root.removeHandler(handler)
    root.setLevel(logging.NOTSET)


@pytest.fixture
def overloaded_high_density() -> TaskSystem:
    """One density-2 task plus a platform of one processor: MINPROCS fails."""
    hd = SporadicDAGTask(
        DAG.independent([4, 4, 4, 4]), deadline=8, period=10, name="hungry"
    )
    return TaskSystem([hd])


@pytest.fixture
def overloaded_low_density() -> TaskSystem:
    """Four low-density tasks that cannot all share one processor."""
    tasks = [
        SporadicDAGTask(DAG.chain([3]), deadline=4, period=10, name=f"t{i}")
        for i in range(4)
    ]
    return TaskSystem(tasks)


@pytest.fixture
def feasible_system() -> TaskSystem:
    hd = SporadicDAGTask(
        DAG.independent([4, 4, 4, 4]), deadline=8, period=10, name="high"
    )
    low = SporadicDAGTask(DAG.chain([1, 1]), deadline=6, period=12, name="low")
    return TaskSystem([hd, low])


class TestMetricsRegistry:
    def test_disabled_by_default_and_noop(self):
        registry = MetricsRegistry()
        registry.incr("x")
        registry.record_time("y", 1.0)
        assert registry.counter("x") == 0
        assert registry.snapshot() == {
            "counters": {}, "timers": {}, "histograms": {}
        }

    def test_counter_increments(self):
        registry = MetricsRegistry(enabled=True)
        registry.incr("calls")
        registry.incr("calls", 4)
        assert registry.counter("calls") == 5
        assert registry.snapshot()["counters"] == {"calls": 5}

    def test_timer_accumulates(self):
        registry = MetricsRegistry(enabled=True)
        registry.record_time("phase", 0.25)
        registry.record_time("phase", 0.75)
        stats = registry.timer("phase")
        assert stats.count == 2
        assert stats.total == pytest.approx(1.0)
        assert stats.mean == pytest.approx(0.5)
        assert stats.max == pytest.approx(0.75)

    def test_timed_context_manager(self):
        registry = MetricsRegistry(enabled=True)
        with registry.timed("block"):
            pass
        assert registry.timer("block").count == 1
        assert registry.timer("block").total >= 0.0

    def test_timed_noop_when_disabled(self):
        registry = MetricsRegistry()
        with registry.timed("block"):
            pass
        assert registry.timer("block").count == 0

    def test_reset(self):
        registry = MetricsRegistry(enabled=True)
        registry.incr("a")
        registry.record_time("b", 1.0)
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "timers": {}, "histograms": {}
        }
        assert registry.enabled  # reset does not change collection state

    def test_json_export(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        registry.incr("a", 3)
        registry.record_time("b", 0.5)
        path = tmp_path / "metrics.json"
        registry.to_json(path)
        data = json.loads(path.read_text())
        assert data["counters"] == {"a": 3}
        assert data["timers"]["b"]["count"] == 1
        assert data["timers"]["b"]["total_seconds"] == pytest.approx(0.5)

    def test_csv_export(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        registry.incr("a", 3)
        registry.record_time("b", 0.5)
        path = tmp_path / "metrics.csv"
        registry.to_csv(path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["kind", "name", "field", "value"]
        assert ["counter", "a", "value", "3"] in rows
        assert any(r[:3] == ["timer", "b", "total_seconds"] for r in rows)

    def test_collecting_scopes_global_registry(self, feasible_system):
        assert not metrics.enabled
        with collecting() as m:
            fedcons(feasible_system, 8)
            assert m is metrics
            assert m.counter("fedcons_invocations") == 1
        assert not metrics.enabled

    def test_hot_path_counters_flow(self, feasible_system):
        with collecting() as m:
            fedcons(feasible_system, 8)
        counters = m.snapshot()["counters"]
        assert counters["list_schedule_invocations"] >= 1
        assert counters["minprocs_ls_runs"] >= 1
        assert counters["partition_placement_attempts"] == 1
        timers = m.snapshot()["timers"]
        assert "fedcons.total_seconds" in timers
        assert "fedcons.minprocs_seconds" in timers
        assert "fedcons.partition_seconds" in timers


class TestDecisionTrace:
    """FEDCONS decisions ride on the span trace: one format, one tracer."""

    def test_no_context_by_default(self):
        assert current_tracer() is None
        assert current_span() is None

    def test_tracing_scopes_context(self):
        with span_tracing() as tracer:
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_tracing_accepts_existing_context(self, feasible_system):
        tracer = SpanTracer()
        with span_tracing(tracer):
            fedcons(feasible_system, 8)
        with span_tracing(tracer):
            fedcons(feasible_system, 8)
        # Two analyses accumulated into one trace file, one root each.
        assert len(decision_events(tracer, "PhaseComplete")) == 6
        assert [s.name for s in tracer.roots()] == ["fedcons", "fedcons"]

    def test_minprocs_rejection_names_task_phase_and_bound(
        self, overloaded_high_density
    ):
        with span_tracing() as tracer:
            result = fedcons(overloaded_high_density, 1)
        assert not result.success
        assert result.reason is FailureReason.HIGH_DENSITY_PHASE
        found = rejection(tracer)
        assert found is not None
        assert found["phase"] == "minprocs"
        assert found["reason"] == "high_density_phase"
        assert found["task"] == "hungry"
        # The violated bound: the task demands more than the 1 available.
        assert found["detail"]["available"] == 1
        assert found["detail"]["minimum_cluster"] > 1
        # Recorded once, on the analysis span the verdict belongs to.
        (root,) = tracer.roots()
        assert [e["name"] for e in root.events].count("Rejection") == 1
        assert root.attributes["reason"] == "high_density_phase"

    def test_partition_rejection_names_task_phase_and_bound(
        self, overloaded_low_density
    ):
        with span_tracing() as tracer:
            result = fedcons(overloaded_low_density, 1)
        assert not result.success
        assert result.reason is FailureReason.PARTITION_PHASE
        found = rejection(tracer)
        assert found is not None
        assert found["phase"] == "partition"
        assert found["reason"] == "no_processor_fits"
        assert found["task"] == result.failed_task.name
        # Demand condition violated on the only processor.
        assert found["detail"]["best_demand_slack"] < 0
        assert len(found["detail"]["per_processor"]) == 1
        (part,) = [s for s in tracer.finished if s.name == "fedcons.partition"]
        assert "Rejection" in [e["name"] for e in part.events]

    def test_structural_rejection(self):
        bad = TaskSystem(
            [SporadicDAGTask(DAG.chain([5, 5]), 8, 20, name="bad")]
        )
        with span_tracing() as tracer:
            result = fedcons(bad, 4)
        assert result.reason is FailureReason.STRUCTURALLY_INFEASIBLE
        found = rejection(tracer)
        assert found["phase"] == "validate"
        assert found["reason"] == "structurally_infeasible"
        assert found["task"] == "bad"
        assert found["detail"] == {"span": 10.0, "deadline": 8.0, "margin": -2.0}

    def test_success_has_no_rejection_but_full_phase_record(
        self, feasible_system
    ):
        with span_tracing() as tracer:
            result = fedcons(feasible_system, 8)
        assert result.success
        assert rejection(tracer) is None
        completions = decision_events(tracer, "PhaseComplete")
        assert [e["phase"] for e in completions] == [
            "validate", "minprocs", "partition"
        ]
        assert all(e["ok"] for e in completions)
        assert decision_events(tracer, "MinprocsStep")
        attempts = decision_events(tracer, "PartitionAttempt")
        assert attempts and all(a["admitted"] for a in attempts)

    def test_minprocs_steps_record_search(self, feasible_system):
        with span_tracing() as tracer:
            fedcons(feasible_system, 8)
        steps = decision_events(tracer, "MinprocsStep")
        assert all(s["task"] == "high" for s in steps)
        assert steps[-1]["fits"] is True  # the search ended on a fitting cluster
        assert all(s["deadline"] == 8 for s in steps)
        # The steps sit on the MINPROCS span they describe.
        (search,) = [s for s in tracer.finished if s.name == "minprocs"]
        assert len(search.events) == len(steps)

    def test_trace_is_json_serializable(self, overloaded_low_density, tmp_path):
        with span_tracing() as tracer:
            fedcons(overloaded_low_density, 1)
        path = tmp_path / "trace.jsonl"
        tracer.to_jsonl(path)
        spans = load_spans(path)
        found = rejection(spans)
        assert found["event"] == "Rejection"
        assert found["phase"] == "partition"
        assert found == rejection(tracer)
        assert any(
            e["event"] == "PartitionAttempt" for e in decision_events(spans)
        )

    def test_zero_cost_when_disabled(self, feasible_system):
        """No spans, and so no decision events, without an active tracer."""
        result = fedcons(feasible_system, 8)
        assert result.success
        assert current_tracer() is None


class TestLogging:
    def test_silent_by_default(self, feasible_system, capfd):
        """With no configuration nothing reaches stderr (NullHandler)."""
        fedcons(feasible_system, 8)
        captured = capfd.readouterr()
        assert captured.err == ""
        assert captured.out == ""

    def test_phase_boundary_records_at_info(self, feasible_system, caplog):
        with caplog.at_level(logging.INFO, logger="repro"):
            fedcons(feasible_system, 8)
        messages = [r.message for r in caplog.records]
        assert any("minprocs phase done" in m for m in messages)
        assert any("partition phase done" in m for m in messages)
        assert any("FEDCONS ACCEPTED" in m for m in messages)
        assert all(r.name.startswith("repro") for r in caplog.records)

    def test_rejection_logged_at_info(self, overloaded_low_density, caplog):
        with caplog.at_level(logging.INFO, logger="repro"):
            fedcons(overloaded_low_density, 1)
        messages = [r.message for r in caplog.records]
        assert any("PARTITION reject" in m for m in messages)
        assert any("FEDCONS REJECTED" in m for m in messages)

    def test_no_info_records_without_opt_in(self, feasible_system, caplog):
        """The library stays below the default WARNING threshold."""
        with caplog.at_level(logging.WARNING, logger="repro"):
            fedcons(feasible_system, 8)
        assert caplog.records == []

    def test_debug_shows_minprocs_search(self, feasible_system, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro"):
            fedcons(feasible_system, 8)
        assert any("MINPROCS" in r.message for r in caplog.records)

    def test_configure_logging_plain_and_idempotent(self, feasible_system):
        stream = io.StringIO()
        configure_logging("INFO", stream=stream)
        configure_logging("INFO", stream=stream)  # must not duplicate
        fedcons(feasible_system, 8)
        lines = stream.getvalue().splitlines()
        accepted = [ln for ln in lines if "FEDCONS ACCEPTED" in ln]
        assert len(accepted) == 1

    def test_configure_logging_json(self, feasible_system):
        stream = io.StringIO()
        configure_logging("INFO", json=True, stream=stream)
        fedcons(feasible_system, 8)
        lines = stream.getvalue().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert {"ts", "level", "logger", "message"} <= record.keys()
        assert any(
            "FEDCONS ACCEPTED" in json.loads(line)["message"] for line in lines
        )

    def test_configure_logging_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            configure_logging("LOUD")

    def test_get_logger_nests_under_repro(self):
        assert get_logger("myapp").name == "repro.myapp"
        assert get_logger("repro.core.fedcons").name == "repro.core.fedcons"


class TestSimulatorObservability:
    def test_sim_counters_and_miss_logging(self, caplog):
        from repro.sim.trace import Trace

        trace = Trace()
        with collecting() as m, caplog.at_level(
            logging.WARNING, logger="repro"
        ):
            trace.job_released("t")
            trace.job_completed("t", release=0.0, deadline=5.0, completion=7.0)
        assert m.counter("sim_jobs_released") == 1
        assert m.counter("sim_jobs_completed") == 1
        assert m.counter("sim_deadline_misses") == 1
        assert any("DEADLINE MISS" in r.message for r in caplog.records)

    def test_deployment_simulation_counts_events(self, feasible_system):
        from repro.sim.executor import simulate_deployment

        deployment = fedcons(feasible_system, 8)
        with collecting() as m:
            report = simulate_deployment(deployment, horizon=50.0, rng=1)
        assert report.ok
        counters = m.snapshot()["counters"]
        assert counters["sim_deployments"] == 1
        assert counters["sim_events_processed"] >= 1
        assert counters["sim_jobs_released"] == report.total_released
        assert "sim.deployment_seconds" in m.snapshot()["timers"]


class TestSweepObservability:
    def test_sweep_point_timing_and_progress(self, caplog):
        from repro.experiments.harness import acceptance_sweep
        from repro.generation.tasksets import SystemConfig

        config = SystemConfig(
            tasks=4, processors=4, normalized_utilization=0.4,
            min_vertices=4, max_vertices=8,
        )
        with collecting() as m, caplog.at_level(logging.INFO, logger="repro"):
            points = acceptance_sweep(
                config, [0.3, 0.5], ["FEDCONS"], samples=3, seed=1
            )
        assert len(points) == 2
        assert m.timer("sweep.total_seconds").count == 1
        assert m.counter("sweep_systems_generated") == 6
        progress = [r for r in caplog.records if "sweep point" in r.message]
        assert len(progress) == 2
        assert "FEDCONS" in progress[0].message


class TestCliObservability:
    @pytest.fixture
    def infeasible_partition_file(self, tmp_path):
        from repro.model import save_system

        system = TaskSystem(
            [
                SporadicDAGTask(
                    DAG.chain([3]), deadline=4, period=10, name=f"t{i}"
                )
                for i in range(4)
            ]
        )
        path = tmp_path / "overload.json"
        save_system(system, path)
        return str(path)

    def test_explain_writes_decision_trace(
        self, infeasible_partition_file, tmp_path, capsys
    ):
        from repro.cli import analyze_main

        out = tmp_path / "why.jsonl"
        code = analyze_main(
            [infeasible_partition_file, "-m", "1", "--explain", str(out)]
        )
        assert code == 1
        spans = load_spans(out)
        (root,) = [s for s in spans if s["parent_id"] is None]
        assert root["attributes"]["success"] is False
        assert root["attributes"]["reason"] == "partition_phase"
        found = rejection(spans)
        assert found["phase"] == "partition"
        assert found["task"].startswith("t")
        assert found["detail"]["best_demand_slack"] < 0
        assert "decision trace written" in capsys.readouterr().out

    def test_explain_on_accepted_system(self, tmp_path, capsys):
        from repro.cli import analyze_main
        from repro.model import save_system

        system = TaskSystem(
            [SporadicDAGTask(DAG.chain([1, 1]), 6, 12, name="low")]
        )
        path = tmp_path / "ok.json"
        save_system(system, path)
        out = tmp_path / "trace.jsonl"
        assert analyze_main([str(path), "-m", "2", "--explain", str(out)]) == 0
        spans = load_spans(out)
        (root,) = [s for s in spans if s["parent_id"] is None]
        assert root["attributes"]["success"] is True
        assert rejection(spans) is None
        assert [e["phase"] for e in decision_events(spans, "PhaseComplete")] \
            == ["validate", "minprocs", "partition"]

    @pytest.mark.parametrize(
        "phase, system, expected",
        [
            (
                "validate",
                [SporadicDAGTask(DAG.chain([5, 5]), 8, 20, name="bad")],
                {
                    "reason": "structurally_infeasible", "task": "bad",
                    "detail": {"span": 10.0, "deadline": 8.0, "margin": -2.0},
                },
            ),
            (
                "minprocs",
                [SporadicDAGTask(
                    DAG.independent([4, 4, 4, 4]), 8, 10, name="hungry"
                )],
                {
                    "reason": "high_density_phase", "task": "hungry",
                    "detail": {
                        "available": 1, "density": 2.0, "minimum_cluster": 2,
                        "span": 4.0, "deadline": 8.0,
                    },
                },
            ),
            (
                "partition",
                [
                    SporadicDAGTask(DAG.chain([3]), 4, 10, name=f"t{i}")
                    for i in range(4)
                ],
                {
                    "reason": "no_processor_fits", "task": "t1",
                    "detail": {
                        "deadline": 4.0, "wcet": 3.0, "utilization": 0.3,
                        "best_demand_slack": -2.0,
                        "best_rate_slack": 0.39999999999999997,
                        "per_processor": [{
                            "processor": 0, "demand_slack": -2.0,
                            "rate_slack": 0.39999999999999997,
                        }],
                    },
                },
            ),
        ],
    )
    def test_explain_rejection_reads_back_through_obs_show(
        self, phase, system, expected, tmp_path, capsys
    ):
        """Each phase's rejection, as the earlier JSON explain format held
        it, comes back from the span JSONL and from ``fedcons-obs show``."""
        from repro.cli import analyze_main
        from repro.model import save_system
        from repro.obs.tool import obs_main

        path = tmp_path / "system.json"
        save_system(TaskSystem(system), path)
        out = tmp_path / "why.jsonl"
        assert analyze_main([str(path), "-m", "1", "--explain", str(out)]) == 1
        assert rejection(load_spans(out)) == {
            "event": "Rejection", "phase": phase, **expected
        }
        capsys.readouterr()
        assert obs_main(["show", str(out)]) == 0
        (line,) = [
            ln for ln in capsys.readouterr().out.splitlines()
            if "* Rejection" in ln
        ]
        # The trace file stores keys sorted, nested dicts included.
        detail = json.loads(json.dumps(expected["detail"], sort_keys=True))
        assert f"detail={detail}" in line
        assert (
            f"phase={phase} reason={expected['reason']} "
            f"task={expected['task']}]"
        ) in line

    def test_simulate_metrics_export(self, tmp_path, capsys):
        from repro.cli import simulate_main
        from repro.model import save_system

        system = TaskSystem(
            [SporadicDAGTask(DAG.chain([1, 1]), 6, 12, name="low")]
        )
        path = tmp_path / "ok.json"
        save_system(system, path)
        out = tmp_path / "metrics.json"
        code = simulate_main(
            [str(path), "-m", "2", "--horizon", "60", "--metrics", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["counters"]["sim_deployments"] == 1
        assert doc["counters"]["fedcons_invocations"] == 1

    def test_runner_metrics_export(self, tmp_path, capsys):
        from repro.experiments.runner import main

        out = tmp_path / "metrics.json"
        code = main(
            ["--experiment", "FIG1", "--quick", "--metrics", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert any(
            name.startswith("experiment.FIG1") for name in doc["timers"]
        )

    def test_log_level_flag_emits_to_stderr(
        self, infeasible_partition_file, capfd
    ):
        from repro.cli import analyze_main

        analyze_main([infeasible_partition_file, "-m", "1", "--log-level", "INFO"])
        # The managed handler writes to the real stderr.
        assert "FEDCONS REJECTED" in capfd.readouterr().err

    def test_json_logs_flag(self, infeasible_partition_file, capfd):
        from repro.cli import analyze_main

        analyze_main([infeasible_partition_file, "-m", "1", "--json-logs"])
        err_lines = [
            ln for ln in capfd.readouterr().err.splitlines() if ln.strip()
        ]
        assert err_lines
        parsed = [json.loads(ln) for ln in err_lines]
        assert any("FEDCONS REJECTED" in p["message"] for p in parsed)
