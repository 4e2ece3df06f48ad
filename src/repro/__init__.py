"""Federated scheduling of constrained-deadline sporadic DAG task systems.

A full reproduction of S. Baruah, "The federated scheduling of
constrained-deadline sporadic DAG task systems", DATE 2015.

Public API highlights
---------------------
Models
    :class:`~repro.model.DAG`, :class:`~repro.model.SporadicDAGTask`,
    :class:`~repro.model.SporadicTask`, :class:`~repro.model.TaskSystem`.
The algorithm
    :func:`~repro.core.fedcons` (with :func:`~repro.core.minprocs`,
    :func:`~repro.core.partition`, :func:`~repro.core.list_schedule`
    underneath).
Baselines
    :mod:`repro.baselines` -- implicit-deadline federated scheduling (Li et
    al.), global-EDF tests, fully-partitioned scheduling.
Validation
    :mod:`repro.sim` -- a discrete-event multiprocessor simulator executing
    FEDCONS deployments; :mod:`repro.analysis` -- feasibility bounds and
    speedup accounting.
Workloads & experiments
    :mod:`repro.generation` -- random DAG/task-system generators;
    :mod:`repro.experiments` -- the paper's evaluation harness.
Observability
    :mod:`repro.obs` -- structured logging (:func:`configure_logging`),
    span traces that carry every decision (:func:`~repro.obs.span_tracing`,
    :func:`~repro.obs.rejection`), and a metrics/timing registry
    (:data:`~repro.obs.metrics`, :func:`~repro.obs.collecting`).
"""

from repro import errors
from repro.core import (
    AdmissionTest,
    FailureReason,
    FedConsResult,
    FitStrategy,
    HighDensityAllocation,
    MinProcsResult,
    PartitionResult,
    Schedule,
    Slot,
    TaskOrder,
    edf_approx_test,
    edf_exact_test,
    fedcons,
    graham_makespan_bound,
    list_schedule,
    makespan_lower_bound,
    minprocs,
    partition,
)
from repro.model import (
    DAG,
    DeadlineModel,
    SporadicDAGTask,
    SporadicTask,
    TaskSystem,
    load_system,
    save_system,
)
from repro.obs import collecting, configure_logging, metrics, span_tracing

__version__ = "1.0.0"

__all__ = [
    "DAG",
    "SporadicDAGTask",
    "SporadicTask",
    "TaskSystem",
    "DeadlineModel",
    "Schedule",
    "Slot",
    "fedcons",
    "FedConsResult",
    "FailureReason",
    "HighDensityAllocation",
    "minprocs",
    "MinProcsResult",
    "partition",
    "PartitionResult",
    "FitStrategy",
    "TaskOrder",
    "AdmissionTest",
    "list_schedule",
    "graham_makespan_bound",
    "makespan_lower_bound",
    "edf_approx_test",
    "edf_exact_test",
    "save_system",
    "load_system",
    "errors",
    "configure_logging",
    "span_tracing",
    "collecting",
    "metrics",
    "__version__",
]
