"""Command-line tools operating on task-system JSON files.

Two entry points beyond the experiment runner:

``fedcons-analyze SYSTEM.json -m 8``
    run FEDCONS (and optionally every baseline) on a stored task system and
    print the deployment or failure diagnosis, platform sizing, and slack
    report.

``fedcons-simulate SYSTEM.json -m 8 --horizon 1000``
    deploy with FEDCONS and execute the deployment in the discrete-event
    simulator, printing per-task response statistics (and optionally an SVG
    trace).

Task-system files are produced by :func:`repro.model.save_system`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.analysis.sensitivity import bottleneck_task, minimum_platform
from repro.baselines.global_edf import gedf_any_test
from repro.baselines.partitioned_sequential import partitioned_sequential
from repro.core.fedcons import fedcons
from repro.generation.families import family_names, register_dax_family
from repro.model.serialization import load_system
from repro.obs import metrics, span_tracing
from repro.obs.cli import add_observability_arguments, configure_from_args
from repro.sim.executor import simulate_deployment
from repro.sim.workload import ExecutionTimeModel, ReleasePattern

__all__ = ["analyze_main", "simulate_main", "generate_main"]


def generate_main(argv: list[str] | None = None) -> int:
    """``fedcons-generate``: write a random task system to JSON.

    Exposes the evaluation workload generator for interactive use, so the
    other CLI tools have inputs without writing Python::

        fedcons-generate out.json -n 16 -m 8 --utilization 0.5 --seed 3
    """
    parser = argparse.ArgumentParser(
        prog="fedcons-generate",
        description="Generate a random constrained-deadline sporadic DAG "
        "task system (the evaluation generator) as JSON.",
    )
    parser.add_argument("output", help="destination JSON path")
    parser.add_argument("-n", "--tasks", type=int, default=10)
    parser.add_argument("-m", "--processors", type=int, default=8)
    parser.add_argument(
        "-u", "--utilization", type=float, default=0.5,
        help="target normalized utilization U_sum / m",
    )
    parser.add_argument(
        "--dag-kind",
        choices=list(family_names()),
        default="erdos_renyi",
        help="DAG structure family (any workload-zoo name)",
    )
    parser.add_argument(
        "--dax", type=Path, default=None, metavar="FILE.dax",
        help="import a Pegasus DAX workflow and use it as every task's "
        "structure (overrides --dag-kind)",
    )
    parser.add_argument("--edge-probability", type=float, default=0.2)
    parser.add_argument("--min-vertices", type=int, default=10)
    parser.add_argument("--max-vertices", type=int, default=30)
    parser.add_argument(
        "--deadline-ratio", type=float, nargs=2, default=(0.05, 1.0),
        metavar=("LO", "HI"),
        help="range of x in D = len + x * (T - len)",
    )
    parser.add_argument(
        "--utilization-method", choices=["uunifast", "randfixedsum"],
        default="uunifast",
    )
    parser.add_argument("--seed", type=int, default=0)
    add_observability_arguments(parser)
    args = parser.parse_args(argv)
    configure_from_args(args)

    from repro.errors import GenerationError
    from repro.generation.tasksets import SystemConfig, generate_system
    from repro.model.serialization import save_system

    try:
        dag_kind = args.dag_kind
        if args.dax is not None:
            dag_kind = register_dax_family(args.dax)
        config = SystemConfig(
            tasks=args.tasks,
            processors=args.processors,
            normalized_utilization=args.utilization,
            dag_kind=dag_kind,
            edge_probability=args.edge_probability,
            min_vertices=args.min_vertices,
            max_vertices=args.max_vertices,
            deadline_ratio=tuple(args.deadline_ratio),
            utilization_method=args.utilization_method,
        )
        system = generate_system(config, args.seed)
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    save_system(system, args.output)
    print(system.describe())
    print(f"\nwritten to {args.output}")
    return 0


def _load(path: str):
    try:
        return load_system(path)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _dax_system(
    path: str,
    period: float | None,
    deadline: float | None,
    default_runtime: float | None,
):
    """Wrap a DAX workflow file as a single-task system (analyze --dax)."""
    from repro.generation.dax import load_dax
    from repro.model.task import SporadicDAGTask
    from repro.model.taskset import TaskSystem

    if period is None:
        print("error: --dax requires --period", file=sys.stderr)
        raise SystemExit(2)
    try:
        dag = load_dax(path, default_runtime=default_runtime)
        task = SporadicDAGTask(
            dag=dag,
            deadline=deadline if deadline is not None else period,
            period=period,
            name=Path(path).stem,
        )
        return TaskSystem([task])
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _write_artifact(write, path: Path) -> None:
    """Run *write(path)*, turning OSError into a clean CLI failure."""
    try:
        write(path)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def analyze_main(argv: list[str] | None = None) -> int:
    """``fedcons-analyze``: schedulability analysis of a stored task system."""
    parser = argparse.ArgumentParser(
        prog="fedcons-analyze",
        description="FEDCONS schedulability analysis of a task-system JSON file.",
    )
    parser.add_argument(
        "system",
        help="task-system JSON (see repro.model.save_system), or a Pegasus "
        "DAX workflow file with --dax",
    )
    parser.add_argument("-m", "--processors", type=int, required=True)
    parser.add_argument(
        "--dax", action="store_true",
        help="treat SYSTEM as a Pegasus DAX workflow: import it as a single "
        "sporadic DAG task (requires --period)",
    )
    parser.add_argument(
        "--period", type=float, default=None,
        help="period of the imported DAX task (with --dax)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None,
        help="relative deadline of the imported DAX task (with --dax; "
        "default: the period)",
    )
    parser.add_argument(
        "--default-runtime", type=float, default=None,
        help="WCET for DAX jobs that carry no runtime (with --dax)",
    )
    parser.add_argument(
        "--baselines", action="store_true",
        help="also report the global-EDF and fully-partitioned verdicts",
    )
    parser.add_argument(
        "--size", action="store_true",
        help="report the smallest admitting platform",
    )
    parser.add_argument(
        "--slack", action="store_true",
        help="report per-task WCET slack factors (requires acceptance)",
    )
    parser.add_argument(
        "--responses", action="store_true",
        help="report per-task worst-case response-time bounds (requires "
        "acceptance)",
    )
    parser.add_argument(
        "--explain", type=Path, default=None, metavar="OUT.jsonl",
        help="write the span trace of the analysis with its decisions "
        "(every MINPROCS step, every PARTITION placement, and the decisive "
        "rejection) as JSONL (inspect with: fedcons-obs show OUT.jsonl)",
    )
    parser.add_argument(
        "--profile", type=Path, default=None, metavar="OUT.pstats",
        help="run the analysis under cProfile and write the stats "
        "(pstats format, loadable with `python -m pstats OUT.pstats`)",
    )
    add_observability_arguments(parser)
    args = parser.parse_args(argv)
    configure_from_args(args)

    if args.dax:
        system = _dax_system(
            args.system, args.period, args.deadline, args.default_runtime
        )
    else:
        system = _load(args.system)
    print(system.describe())
    print()
    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    if args.explain is not None:
        with span_tracing() as tracer:
            result = fedcons(system, args.processors)
        _write_artifact(tracer.to_jsonl, args.explain)
    else:
        result = fedcons(system, args.processors)
    print(result.describe())
    if args.explain is not None:
        print(f"decision trace written to {args.explain}")

    if args.baselines:
        print()
        print(f"global EDF (any test):  "
              f"{'ACCEPTED' if gedf_any_test(system, args.processors) else 'rejected'}")
        part = partitioned_sequential(system, args.processors)
        print(f"fully partitioned:      "
              f"{'ACCEPTED' if part.success else 'rejected'}")
    if args.size:
        smallest = minimum_platform(system)
        print()
        if smallest is None:
            print("no platform of any size admits this system")
        else:
            print(f"smallest admitting platform: {smallest} processors")
    if args.slack and result.success:
        print()
        print(bottleneck_task(system, args.processors).describe())
    if args.responses and result.success:
        from repro.analysis.response_time import deployment_response_bounds

        print()
        print(f"{'task':<16}{'WCRT bound':>12}{'deadline':>12}{'headroom':>10}")
        bounds = deployment_response_bounds(result)
        for i, task in enumerate(system):
            name = task.name or f"#{i}"
            bound = bounds.get(name)
            if bound is None:
                continue
            print(
                f"{name:<16}{bound:>12.3f}{task.deadline:>12.3f}"
                f"{100 * (1 - bound / task.deadline):>9.1f}%"
            )
    if profiler is not None:
        profiler.disable()
        from repro.io import write_pstats

        _write_artifact(lambda p: write_pstats(p, profiler), args.profile)
        print(f"profile written to {args.profile}")
    return 0 if result.success else 1


def simulate_main(argv: list[str] | None = None) -> int:
    """``fedcons-simulate``: deploy and execute a stored task system."""
    parser = argparse.ArgumentParser(
        prog="fedcons-simulate",
        description="Deploy with FEDCONS and execute in the discrete-event "
        "simulator.",
    )
    parser.add_argument("system", help="task-system JSON")
    parser.add_argument("-m", "--processors", type=int, required=True)
    parser.add_argument("--horizon", type=float, default=None,
                        help="simulated duration (default: 10 max periods)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--pattern", choices=[p.value for p in ReleasePattern],
        default=ReleasePattern.PERIODIC.value,
    )
    parser.add_argument(
        "--exec-model", choices=[m.value for m in ExecutionTimeModel],
        default=ExecutionTimeModel.WCET.value,
    )
    parser.add_argument("--svg", type=Path, default=None,
                        help="write an SVG Gantt trace to this path")
    parser.add_argument(
        "--metrics", type=Path, default=None, metavar="OUT.json",
        help="collect counters/timers (dbf evaluations, simulator events, "
        "phase durations) and write them as JSON",
    )
    add_observability_arguments(parser)
    args = parser.parse_args(argv)
    configure_from_args(args)

    if args.metrics is not None:
        metrics.reset()
        metrics.enable()
    system = _load(args.system)
    result = fedcons(system, args.processors)
    if not result.success:
        print(result.describe(), file=sys.stderr)
        if args.metrics is not None:
            _write_artifact(metrics.to_json, args.metrics)
        return 1
    horizon = args.horizon or 10.0 * max(t.period for t in system)
    report = simulate_deployment(
        result,
        horizon=horizon,
        rng=args.seed,
        pattern=ReleasePattern(args.pattern),
        exec_model=ExecutionTimeModel(args.exec_model),
        record_trace=args.svg is not None,
    )
    print(report.describe())
    if args.svg is not None:
        from repro.viz.svg import trace_to_svg, write_svg

        window_end = min(horizon, 4.0 * max(t.period for t in system))
        write_svg(
            trace_to_svg(
                report,
                args.processors,
                title=f"FEDCONS deployment on m={args.processors}",
                window=(0.0, window_end),
            ),
            args.svg,
        )
        print(f"trace written to {args.svg}")
    if args.metrics is not None:
        _write_artifact(metrics.to_json, args.metrics)
        print(f"metrics written to {args.metrics}")
    return 0 if report.ok else 1
