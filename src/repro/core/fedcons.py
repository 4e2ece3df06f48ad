"""Algorithm FEDCONS (Figure 2 of the paper).

FEDCONS performs federated scheduling of a constrained-deadline sporadic DAG
task system ``tau`` on ``m`` identical unit-speed preemptive processors:

1. For each **high-density** task (``delta_i >= 1``, in system order),
   MINPROCS computes the smallest dedicated cluster ``m_i`` on which Graham's
   List Scheduling meets ``D_i``, and stores the resulting template schedule
   ``sigma_i``; the cluster is removed from the remaining pool ``m_r``.
   FAILURE if ``m_i > m_r`` for some task.
2. The **low-density** tasks are collapsed to three-parameter sporadic tasks
   and PARTITIONed onto the remaining ``m_r`` processors (deadline-ordered
   first-fit with the ``DBF*`` admission test); each shared processor runs
   preemptive uniprocessor EDF at run time.  FAILURE if any task does not fit.

Theorem 1: if ``tau`` is schedulable by an *optimal* federated scheduler on
``m`` processors of some speed, FEDCONS succeeds on ``m`` processors that are
``3 - 1/m`` times as fast.

The returned :class:`FedConsResult` is a complete deployment description --
which physical processor indices each high-density task owns, its run-time
template, and the shared-pool partition -- and is directly executable by
:mod:`repro.sim`.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from repro.errors import AnalysisError
from repro.core.minprocs import MinProcsResult, minprocs
from repro.core.partition import (
    AdmissionTest,
    FitStrategy,
    PartitionResult,
    TaskOrder,
    partition,
)
from repro.core.schedule import Schedule
from repro.model.dag import VertexId
from repro.model.task import SporadicDAGTask
from repro.model.taskset import TaskSystem
from repro.obs.logging import get_logger
from repro.obs.metrics import metrics as _metrics
from repro.obs.spans import current_span as _current_span
from repro.obs.spans import span as _span

__all__ = [
    "FailureReason",
    "HighDensityAllocation",
    "FedConsResult",
    "fedcons",
]

_log = get_logger(__name__)


class FailureReason(Enum):
    """Why FEDCONS declared a system unschedulable."""

    STRUCTURALLY_INFEASIBLE = "structurally_infeasible"  # some len_i > D_i
    HIGH_DENSITY_PHASE = "high_density_phase"  # MINPROCS ran out of processors
    PARTITION_PHASE = "partition_phase"  # PARTITION returned FAILURE


@dataclass(frozen=True)
class HighDensityAllocation:
    """A high-density task's exclusive cluster and run-time template."""

    task: SporadicDAGTask
    processors: tuple[int, ...]  # physical processor indices, exclusive
    schedule: Schedule  # template sigma_i (relative to release)
    minprocs_attempts: int

    @property
    def cluster_size(self) -> int:
        """``m_i``: number of processors in the exclusive cluster."""
        return len(self.processors)


@dataclass(frozen=True)
class FedConsResult:
    """Outcome of FEDCONS: a full deployment or a diagnosed failure.

    Attributes
    ----------
    success:
        Whether the whole system was admitted.
    reason:
        On failure, which phase failed (``None`` on success).
    total_processors:
        The platform size ``m`` handed to FEDCONS.
    allocations:
        Per high-density task: its exclusive cluster and template, in the
        order the tasks were processed.  Populated as far as the algorithm
        got even on failure.
    shared_processors:
        Physical indices of the processors left to the shared EDF pool.
    partition:
        The PARTITION outcome over the shared pool (``None`` if the high-
        density phase already failed).
    failed_task:
        The first task that could not be accommodated (``None`` on success).
    """

    success: bool
    total_processors: int
    allocations: tuple[HighDensityAllocation, ...]
    shared_processors: tuple[int, ...]
    partition: PartitionResult | None
    reason: FailureReason | None = None
    failed_task: SporadicDAGTask | None = None

    @property
    def dedicated_processor_count(self) -> int:
        """Processors granted exclusively to high-density tasks."""
        return sum(a.cluster_size for a in self.allocations)

    @property
    def shared_processor_count(self) -> int:
        """Processors left to the shared EDF pool."""
        return len(self.shared_processors)

    def allocation_for(self, task: SporadicDAGTask) -> HighDensityAllocation:
        """The exclusive allocation of a high-density *task*."""
        for alloc in self.allocations:
            if alloc.task == task:
                return alloc
        raise AnalysisError(
            f"task {task.name or task!r} has no dedicated allocation"
        )

    def describe(self) -> str:
        """Human-readable deployment summary."""
        lines = [
            f"FEDCONS on m={self.total_processors}: "
            f"{'ACCEPTED' if self.success else 'REJECTED (' + self.reason.value + ')'}"
        ]
        for alloc in self.allocations:
            name = alloc.task.name or repr(alloc.task)
            lines.append(
                f"  high-density {name}: processors {list(alloc.processors)} "
                f"(makespan {alloc.schedule.makespan:g} <= D "
                f"{alloc.task.deadline:g})"
            )
        if self.partition is not None:
            for k, bucket in enumerate(self.partition.assignment):
                if not bucket:
                    continue
                phys = self.shared_processors[k]
                names = ", ".join(t.name or "?" for t in bucket)
                util = sum(t.utilization for t in bucket)
                lines.append(
                    f"  shared P{phys} (EDF): [{names}] utilization {util:.3f}"
                )
        if self.failed_task is not None:
            lines.append(
                f"  failed on task {self.failed_task.name or self.failed_task!r}"
            )
        return "\n".join(lines)


def fedcons(
    system: TaskSystem | Sequence[SporadicDAGTask],
    processors: int,
    ls_order: str | Sequence[VertexId] = "longest_path",
    partition_order: TaskOrder = TaskOrder.DEADLINE,
    partition_fit: FitStrategy = FitStrategy.FIRST_FIT,
    partition_admission: AdmissionTest = AdmissionTest.DBF_APPROX,
) -> FedConsResult:
    """Run FEDCONS(tau, m).

    Parameters
    ----------
    system:
        A constrained-deadline sporadic DAG task system.
    processors:
        Platform size ``m`` (``>= 1``).
    ls_order:
        Priority order for the List Scheduling templates (Lemma 1 holds for
        any order; the default is the critical-path heuristic).
    partition_order / partition_fit / partition_admission:
        PARTITION-phase knobs; defaults reproduce the paper's Figure 4, the
        alternatives drive the EXP-F ablation.

    Returns
    -------
    FedConsResult
        Accepted deployments carry the per-task templates and the shared-pool
        partition; rejections carry the failing phase and task.

    Raises
    ------
    AnalysisError
        If *processors* < 1.
    repro.errors.ModelError
        If the system is not constrained-deadline (``D_i > T_i`` somewhere);
        FEDCONS's per-dag-job template argument is invalid in that case.
    """
    if processors < 1:
        raise AnalysisError(f"platform must have >= 1 processor, got {processors}")
    if not isinstance(system, TaskSystem):
        system = TaskSystem(system)
    system.validate_constrained()
    with _span("fedcons", tasks=len(system), processors=processors) as sp:
        result = _fedcons(
            system, processors, ls_order, partition_order, partition_fit,
            partition_admission,
        )
        sp.set(
            success=result.success,
            reason=None if result.reason is None else result.reason.value,
        )
        return result


def _fedcons(
    system: TaskSystem,
    processors: int,
    ls_order: str | Sequence[VertexId],
    partition_order: TaskOrder,
    partition_fit: FitStrategy,
    partition_admission: AdmissionTest,
) -> FedConsResult:

    # The ``fedcons`` span (None while tracing is off) collects the
    # decision events: phase completions and the decisive rejection.
    active = _current_span()
    started = time.perf_counter()
    if _metrics.enabled:
        _metrics.incr("fedcons_invocations")
    _log.debug(
        "FEDCONS start: %d tasks (%d high-density) on m=%d",
        len(system), len(system.high_density_tasks), processors,
    )

    def _finish(result: FedConsResult) -> FedConsResult:
        _metrics.record_time("fedcons.total_seconds", time.perf_counter() - started)
        if result.success:
            _log.info(
                "FEDCONS ACCEPTED on m=%d: %d dedicated + %d shared processors",
                processors,
                result.dedicated_processor_count,
                result.shared_processor_count,
            )
        else:
            name = (
                result.failed_task.name or repr(result.failed_task)
                if result.failed_task is not None
                else "?"
            )
            _log.info(
                "FEDCONS REJECTED on m=%d: %s at task %s",
                processors, result.reason.value, name,
            )
        return result

    # A task whose critical path exceeds its deadline is infeasible on any
    # platform of any speed; report that distinctly from resource exhaustion.
    phase_start = time.perf_counter()
    for task in system:
        if task.span > task.deadline:
            if active is not None:
                active.add_event(
                    "Rejection",
                    phase="validate",
                    reason=FailureReason.STRUCTURALLY_INFEASIBLE.value,
                    task=task.name or repr(task),
                    detail={
                        "span": task.span,
                        "deadline": task.deadline,
                        "margin": task.deadline - task.span,
                    },
                )
            return _finish(
                FedConsResult(
                    success=False,
                    total_processors=processors,
                    allocations=(),
                    shared_processors=tuple(range(processors)),
                    partition=None,
                    reason=FailureReason.STRUCTURALLY_INFEASIBLE,
                    failed_task=task,
                )
            )
    if active is not None:
        active.add_event(
            "PhaseComplete",
            phase="validate",
            ok=True,
            duration=time.perf_counter() - phase_start,
            detail={"tasks": len(system)},
        )

    phase_start = time.perf_counter()
    remaining = processors  # m_r of the pseudo-code
    next_free = 0  # physical processors are granted left-to-right
    allocations: list[HighDensityAllocation] = []
    for task in system.high_density_tasks:
        result: MinProcsResult | None = minprocs(task, remaining, order=ls_order)
        if result is None:
            name = task.name or repr(task)
            if active is not None:
                active.add_event(
                    "Rejection",
                    phase="minprocs",
                    reason=FailureReason.HIGH_DENSITY_PHASE.value,
                    task=name,
                    detail={
                        "available": remaining,
                        "density": task.density,
                        "minimum_cluster": max(
                            1, math.ceil(task.density - 1e-12)
                        ),
                        "span": task.span,
                        "deadline": task.deadline,
                    },
                )
            _log.info(
                "MINPROCS reject: %s needs more than the %d remaining "
                "processors (density %.3f)",
                name, remaining, task.density,
            )
            _metrics.record_time(
                "fedcons.minprocs_seconds", time.perf_counter() - phase_start
            )
            return _finish(
                FedConsResult(
                    success=False,
                    total_processors=processors,
                    allocations=tuple(allocations),
                    shared_processors=tuple(range(next_free, processors)),
                    partition=None,
                    reason=FailureReason.HIGH_DENSITY_PHASE,
                    failed_task=task,
                )
            )
        cluster = tuple(range(next_free, next_free + result.processors))
        allocations.append(
            HighDensityAllocation(
                task=task,
                processors=cluster,
                schedule=result.schedule,
                minprocs_attempts=result.attempts,
            )
        )
        _log.debug(
            "MINPROCS grant: %s gets processors %s (makespan %g <= D %g)",
            task.name or repr(task), list(cluster),
            result.schedule.makespan, task.deadline,
        )
        next_free += result.processors
        remaining -= result.processors
    minprocs_elapsed = time.perf_counter() - phase_start
    _metrics.record_time("fedcons.minprocs_seconds", minprocs_elapsed)
    if active is not None:
        active.add_event(
            "PhaseComplete",
            phase="minprocs",
            ok=True,
            duration=minprocs_elapsed,
            detail={
                "clusters": {
                    a.task.name or repr(a.task): a.cluster_size
                    for a in allocations
                },
                "dedicated": next_free,
                "remaining": remaining,
            },
        )
    _log.info(
        "FEDCONS minprocs phase done: %d high-density tasks on %d "
        "dedicated processors, %d remaining",
        len(allocations), next_free, remaining,
    )

    phase_start = time.perf_counter()
    shared = tuple(range(next_free, processors))
    low = system.low_density_tasks
    with _span(
        "fedcons.partition", tasks=len(low), processors=remaining
    ) as part_span:
        part = partition(
            low,
            remaining,
            order=partition_order,
            fit=partition_fit,
            admission=partition_admission,
        )
        part_span.set(success=part.success)
    partition_elapsed = time.perf_counter() - phase_start
    _metrics.record_time("fedcons.partition_seconds", partition_elapsed)
    if active is not None:
        active.add_event(
            "PhaseComplete",
            phase="partition",
            ok=part.success,
            duration=partition_elapsed,
            detail={
                "tasks": len(low),
                "processors": remaining,
                "used_processors": part.used_processors,
            },
        )
    _log.info(
        "FEDCONS partition phase done: %d low-density tasks on %d shared "
        "processors -> %s",
        len(low), remaining, "placed" if part.success else "FAILURE",
    )
    if not part.success:
        failed_dag = None
        if part.failed_task is not None:
            failed_dag = part.dag_tasks.get(part.failed_task.name)
        return _finish(
            FedConsResult(
                success=False,
                total_processors=processors,
                allocations=tuple(allocations),
                shared_processors=shared,
                partition=part,
                reason=FailureReason.PARTITION_PHASE,
                failed_task=failed_dag,
            )
        )
    return _finish(
        FedConsResult(
            success=True,
            total_processors=processors,
            allocations=tuple(allocations),
            shared_processors=shared,
            partition=part,
        )
    )
