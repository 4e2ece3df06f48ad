"""Shared workload builders for the test suite.

Two families live here:

* **hypothesis strategies** (``dags``, ``sporadic_tasks``/``sporadic_sets``,
  ``constrained_tasks``/``constrained_sets``, ``dag_tasks``) -- previously
  duplicated across ``test_properties*.py`` and ``test_kernels.py``; any
  shrinkage tweak now applies to every property suite at once;
* **deterministic builders** (``random_sporadics``, ``parallel_task``,
  ``low_task``, ``high_task``) -- the hand-shaped online/persistence
  fixtures: a width-*w* fully-parallel DAG task has density
  ``w * wcet / deadline``, so ``high_task`` (density 3) forces a dedicated
  cluster while ``low_task`` (utilization knob) lands in the shared pool;
  ``malformed_genesis`` lists broken journal genesis records for every
  entry point that rebuilds a controller from one.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.model.dag import DAG
from repro.model.sporadic import SporadicTask
from repro.model.task import SporadicDAGTask

__all__ = [
    "wcets",
    "dags",
    "sporadic_tasks",
    "sporadic_sets",
    "constrained_tasks",
    "constrained_sets",
    "dag_tasks",
    "random_sporadics",
    "parallel_task",
    "low_task",
    "high_task",
    "GENESIS",
    "malformed_genesis",
]

wcets = st.integers(min_value=1, max_value=20)


@st.composite
def dags(draw, max_vertices: int = 10):
    """Random DAG: ordered vertices with forward edges chosen by index pairs."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    weights = {i: float(draw(wcets)) for i in range(n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, keep in zip(pairs, mask) if keep]
    return DAG(weights, edges)


@st.composite
def sporadic_tasks(draw):
    """Arbitrary three-parameter task (deadline may exceed the WCET or not)."""
    wcet = draw(st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
    deadline = draw(st.floats(min_value=0.5, max_value=20.0, allow_nan=False))
    period = draw(st.floats(min_value=deadline, max_value=40.0, allow_nan=False))
    return SporadicTask(wcet=wcet, deadline=deadline, period=period)


@st.composite
def sporadic_sets(draw, max_tasks: int = 5):
    n = draw(st.integers(min_value=1, max_value=max_tasks))
    return [draw(sporadic_tasks()) for _ in range(n)]


@st.composite
def constrained_tasks(draw):
    """Three-parameter task with ``D <= T`` guaranteed by construction."""
    wcet = draw(st.floats(min_value=0.1, max_value=4.0, allow_nan=False))
    period = draw(st.floats(min_value=1.0, max_value=30.0, allow_nan=False))
    deadline = draw(st.floats(min_value=0.5, max_value=period, allow_nan=False))
    return SporadicTask(wcet=wcet, deadline=deadline, period=period)


@st.composite
def constrained_sets(draw, max_tasks: int = 5):
    n = draw(st.integers(min_value=1, max_value=max_tasks))
    return [draw(constrained_tasks()) for _ in range(n)]


@st.composite
def dag_tasks(draw):
    """Structurally feasible constrained-deadline DAG task (span <= D <= T)."""
    dag = draw(dags(max_vertices=8))
    span = dag.longest_chain_length
    slack = draw(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    period_extra = draw(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    deadline = span * (1.0 + slack)
    period = deadline * (1.0 + period_extra)
    return SporadicDAGTask(dag, deadline, period)


def random_sporadics(rng: np.random.Generator, n: int) -> list[SporadicTask]:
    """*n* constrained sporadic tasks named ``s0..s{n-1}`` from *rng*."""
    tasks = []
    for i in range(n):
        wcet = float(rng.uniform(0.1, 3.0))
        deadline = wcet + float(rng.uniform(0.1, 10.0))
        period = deadline + float(rng.uniform(0.0, 10.0))
        tasks.append(
            SporadicTask(wcet=wcet, deadline=deadline, period=period, name=f"s{i}")
        )
    return tasks


def parallel_task(
    width: int, wcet: float, deadline: float, period: float, name: str
) -> SporadicDAGTask:
    """*width* independent vertices of the given wcet: span = wcet,
    volume = width * wcet, so density = width * wcet / deadline."""
    dag = DAG({i: wcet for i in range(width)}, [])
    return SporadicDAGTask(dag=dag, deadline=deadline, period=period, name=name)


def low_task(name: str, utilization: float = 0.2) -> SporadicDAGTask:
    """Density < 1 single-vertex task bound for the shared pool."""
    return parallel_task(1, 8.0 * utilization, 6.0, 8.0, name)


def high_task(name: str, width: int = 3) -> SporadicDAGTask:
    """Density-*width* task that needs a dedicated *width*-cluster."""
    return parallel_task(width, 2.0, 2.0, 10.0, name)


#: A well-formed journal genesis record (schema 1, four processors).
GENESIS = {
    "kind": "genesis", "journal_schema": 1, "processors": 4,
    "ls_order": "longest_path", "repack_on_departure": True,
}


def malformed_genesis() -> list[tuple[str, dict, str]]:
    """``(case id, genesis record, text the PersistenceError must carry)``."""
    def without(key: str) -> dict:
        return {k: v for k, v in GENESIS.items() if k != key}

    return [
        ("kind", {**GENESIS, "kind": "admit"}, "not genesis"),
        ("schema", {**GENESIS, "journal_schema": 9}, "journal_schema"),
        ("no-processors", without("processors"), "malformed genesis"),
        ("text", {**GENESIS, "processors": "x"}, "malformed genesis"),
        ("null", {**GENESIS, "processors": None}, "malformed genesis"),
        ("zero", {**GENESIS, "processors": 0}, "malformed genesis"),
        ("no-ls-order", without("ls_order"), "malformed genesis"),
        ("unknown-ls-order", {**GENESIS, "ls_order": "bogus"}, "malformed genesis"),
    ]
