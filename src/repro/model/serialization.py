"""JSON (de)serialisation of task models.

Round-trips :class:`~repro.model.dag.DAG`, :class:`~repro.model.task.SporadicDAGTask`
and :class:`~repro.model.taskset.TaskSystem` through plain JSON-compatible
dictionaries, so generated workloads and experiment inputs can be stored on
disk and reloaded bit-for-bit.

Vertex identifiers are stored as strings and restored as ``int`` when they
look like integers (the generators in this package always use integer ids).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import ModelError
from repro.model.dag import DAG, VertexId
from repro.model.task import SporadicDAGTask
from repro.model.taskset import TaskSystem

__all__ = [
    "dag_to_dict",
    "dag_from_dict",
    "task_to_dict",
    "task_from_dict",
    "system_to_dict",
    "system_from_dict",
    "save_system",
    "load_system",
    "encode_vertex",
    "decode_vertex",
]

_FORMAT_VERSION = 1


#: The vertex-id codec of every JSON format that stores vertex ids (task
#: dictionaries here, template snapshots in :mod:`repro.online.controller`):
#: an id is written as ``str(vertex)`` and read back by :func:`decode_vertex`.
encode_vertex = str


def decode_vertex(text: str) -> VertexId:
    """A stored vertex id: ``int`` when *text* parses as one, else *text*."""
    try:
        return int(text)
    except (TypeError, ValueError):
        return text


class _VertexIds(dict):
    """Raw ``wcets`` key -> decoded vertex id.

    An edge endpoint that is not a key verbatim (an ``int``, or ``"07"``
    beside a ``"7"`` key) decodes on its own, exactly as a key would.
    """

    __slots__ = ()

    def __missing__(self, raw: Any) -> VertexId:
        return decode_vertex(raw)


def dag_to_dict(dag: DAG) -> dict[str, Any]:
    """Encode a DAG as a JSON-compatible dictionary."""
    wcets = dag.wcets
    names = dict(zip(wcets, map(encode_vertex, wcets)))
    return {
        "wcets": dict(zip(names.values(), wcets.values())),
        "edges": [[names[u], names[v]] for u, v in dag.edges],
    }


def dag_from_dict(data: dict[str, Any]) -> DAG:
    """Decode a DAG from :func:`dag_to_dict` output.

    Each ``wcets`` key is decoded once; edge endpoints map through that
    table.  An unhashable endpoint raises :class:`ModelError`.
    """
    try:
        ids = _VertexIds()
        wcets: dict[VertexId, float] = {}
        for raw, w in data["wcets"].items():
            ids[raw] = vertex = decode_vertex(raw)
            wcets[vertex] = float(w)
        edges = [(ids[u], ids[v]) for u, v in data["edges"]]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ModelError(f"malformed DAG dictionary: {exc}") from exc
    return DAG(wcets, edges)


def task_to_dict(task: SporadicDAGTask) -> dict[str, Any]:
    """Encode a sporadic DAG task as a JSON-compatible dictionary."""
    return {
        "dag": dag_to_dict(task.dag),
        "deadline": task.deadline,
        "period": task.period,
        "name": task.name,
    }


def task_from_dict(data: dict[str, Any]) -> SporadicDAGTask:
    """Decode a task from :func:`task_to_dict` output."""
    try:
        return SporadicDAGTask(
            dag=dag_from_dict(data["dag"]),
            deadline=float(data["deadline"]),
            period=float(data["period"]),
            name=str(data.get("name", "")),
        )
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed task dictionary: {exc}") from exc


def system_to_dict(system: TaskSystem) -> dict[str, Any]:
    """Encode a task system as a JSON-compatible dictionary."""
    return {
        "format_version": _FORMAT_VERSION,
        "tasks": [task_to_dict(t) for t in system],
    }


def system_from_dict(data: dict[str, Any]) -> TaskSystem:
    """Decode a task system from :func:`system_to_dict` output."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ModelError(
            f"unsupported task-system format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    try:
        tasks = [task_from_dict(t) for t in data["tasks"]]
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed task-system dictionary: {exc}") from exc
    return TaskSystem(tasks)


def save_system(system: TaskSystem, path: str | Path) -> None:
    """Write *system* to *path* as pretty-printed JSON (atomic write)."""
    from repro.io import atomic_write_text

    atomic_write_text(path, json.dumps(system_to_dict(system), indent=2))


def load_system(path: str | Path) -> TaskSystem:
    """Load a task system previously written by :func:`save_system`."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}: not valid JSON: {exc}") from exc
    return system_from_dict(data)
