"""Seeded workloads of the admission-service benchmark.

Each workload is a :class:`~repro.generation.traces.TraceConfig` shape plus
a trace length.  The seed passed on the command line is the only source of
randomness, and the server receives nothing but the generated request
lines, so the same ``(workload, seed)`` pair always sends the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.generation.adversarial import HARDNESS_GRADES, chen_gadget
from repro.generation.tasksets import SystemConfig
from repro.generation.traces import TraceConfig, generate_trace
from repro.model.serialization import task_to_dict
from repro.online.trace import TraceEvent
from repro.service.protocol import encode


#: Independent traces per run, each generated from ``(seed, segment)``
#: and sent to a fresh primary: averaging over several traces damps how
#: much one trace's work depends on its seed.
SEGMENTS = 4


@dataclass(frozen=True)
class Workload:
    """One traffic mix: the shape of its traces."""

    config: TraceConfig
    #: Share of arrivals replaced by a Chen lower-bound gadget task.
    gadget_share: float = 0.0


WORKLOADS: dict[str, Workload] = {
    # Admit-only growth of a large platform: per-request overhead plus
    # first-fit probe scans over a filling ledger, ending in full-scan
    # rejections.  Compaction never runs and MINPROCS is rare.
    "fill": Workload(
        config=TraceConfig(
            events=2000,
            processors=512,
            mean_lifetime=1e12,
            heavy_fraction=0.05,
            utilization_low=0.02,
            utilization_high=0.28,
        ),
    ),
    # Steady state with departures: each low-density departure replays the
    # first-fit suffix (departure compaction), the largest measured cost.
    "churn": Workload(
        config=TraceConfig(
            events=1000,
            processors=64,
            mean_lifetime=200.0,
            heavy_fraction=0.1,
        ),
    ),
    # Large high-density DAGs that grab, free and re-carve clusters, some
    # of them Chen gadget tasks: MINPROCS and the serialization of large
    # task payloads dominate; shard probes are rare.
    "heavy": Workload(
        config=TraceConfig(
            events=600,
            processors=256,
            mean_lifetime=60.0,
            heavy_fraction=0.8,
            shape=SystemConfig(
                min_vertices=40, max_vertices=80, deadline_ratio=(0.35, 1.0)
            ),
        ),
        gadget_share=0.15,
    ),
}


def _gadget_task(rng: np.random.Generator, name: str):
    """One Chen gadget task (arXiv 1510.07254) renamed to a unique trace id."""
    k = int(rng.integers(2, 9))
    grade = HARDNESS_GRADES[int(rng.integers(len(HARDNESS_GRADES)))]
    tasks = chen_gadget(k, hardness=grade).system.tasks
    return replace(tasks[int(rng.integers(len(tasks)))], name=name)


def make_trace(
    workload: Workload, seed: int, segment: int = 0
) -> list[TraceEvent]:
    """One trace of the workload: a pure function of its arguments."""
    events = generate_trace(
        workload.config, rng=np.random.default_rng([seed, segment])
    )
    if workload.gadget_share <= 0:
        return events
    rng = np.random.default_rng([seed, segment, 1510])
    out = []
    for event in events:
        if event.op == "admit" and rng.random() < workload.gadget_share:
            event = replace(event, task=_gadget_task(rng, event.task_id))
        out.append(event)
    return out


def request_line(event: TraceEvent) -> bytes:
    """The protocol line that sends *event* to the service."""
    if event.op == "admit":
        return encode({"op": "admit", "task": task_to_dict(event.task)})
    return encode({"op": "depart", "task_id": event.task_id})
