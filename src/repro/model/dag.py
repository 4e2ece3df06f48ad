"""Directed acyclic graphs of sequential jobs.

A :class:`DAG` is the graph component ``G_i = (V_i, E_i)`` of a sporadic DAG
task (Section II of the paper).  Each vertex denotes one sequential *job* and
carries a worst-case execution time (WCET); each directed edge ``(v, w)``
means the job ``v`` must complete before ``w`` may begin.

The two quantities the paper's analysis is built on are exposed directly:

``volume``
    ``vol_i`` -- the sum of all vertex WCETs, i.e. the total work of one
    dag-job (computable in time linear in ``|V|``).

``longest_chain_length``
    ``len_i`` -- the length of the longest chain (sum of WCETs along the
    chain), computed by a topological-order dynamic program in time linear in
    ``|V| + |E|`` exactly as the paper describes.

Vertices may be identified by any hashable object; examples and generators in
this package use small integers.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Hashable, Iterable, Mapping, Sequence
from typing import Any

from repro.errors import CycleError, ModelError

VertexId = Hashable

__all__ = ["DAG", "VertexId"]


def _check_wcet(vertex: VertexId, wcet: float) -> float:
    if isinstance(wcet, bool) or not isinstance(wcet, (int, float)):
        raise ModelError(f"WCET of vertex {vertex!r} must be a number, got {wcet!r}")
    if not math.isfinite(wcet) or wcet <= 0:
        raise ModelError(f"WCET of vertex {vertex!r} must be positive and finite, got {wcet!r}")
    return wcet


class DAG:
    """An immutable weighted directed acyclic graph of jobs.

    Parameters
    ----------
    wcets:
        Mapping from vertex identifier to that job's worst-case execution
        time.  Every WCET must be a positive finite number.
    edges:
        Iterable of ``(predecessor, successor)`` pairs.  Both endpoints must
        appear in *wcets*, self-loops are rejected, duplicate edges are
        collapsed, and the edge set must be acyclic.

    Raises
    ------
    ModelError
        If a WCET is invalid or an edge references an unknown vertex.
    CycleError
        If the edges contain a directed cycle.
    """

    __slots__ = (
        "_wcets",
        "_succ",
        "_pred",
        "_topo",
        "_volume",
        "_longest",
        "_hash",
        "_digest",
        "_compiled",
    )

    def __init__(
        self,
        wcets: Mapping[VertexId, float],
        edges: Iterable[tuple[VertexId, VertexId]] = (),
    ) -> None:
        if not wcets:
            raise ModelError("a DAG must contain at least one vertex")
        self._wcets: dict[VertexId, float] = {
            v: _check_wcet(v, w) for v, w in wcets.items()
        }
        self._succ: dict[VertexId, tuple[VertexId, ...]] = {}
        self._pred: dict[VertexId, tuple[VertexId, ...]] = {}
        succ_sets: dict[VertexId, list[VertexId]] = {v: [] for v in self._wcets}
        pred_sets: dict[VertexId, list[VertexId]] = {v: [] for v in self._wcets}
        seen: set[tuple[VertexId, VertexId]] = set()
        for u, v in edges:
            if u not in self._wcets:
                raise ModelError(f"edge ({u!r}, {v!r}) references unknown vertex {u!r}")
            if v not in self._wcets:
                raise ModelError(f"edge ({u!r}, {v!r}) references unknown vertex {v!r}")
            if u == v:
                raise CycleError(f"self-loop on vertex {u!r}")
            if (u, v) in seen:
                continue
            seen.add((u, v))
            succ_sets[u].append(v)
            pred_sets[v].append(u)
        self._succ = {v: tuple(ws) for v, ws in succ_sets.items()}
        self._pred = {v: tuple(ws) for v, ws in pred_sets.items()}
        self._topo = self._topological_sort()
        self._volume = float(sum(self._wcets.values()))
        self._longest = self._compute_longest_chain()
        self._hash: int | None = None
        self._digest: str | None = None
        # Lazily-populated CompiledDAG (repro.core.kernels); excluded from
        # pickling so worker processes and journals never carry it.
        self._compiled: Any = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def single_vertex(cls, wcet: float, vertex: VertexId = 0) -> "DAG":
        """A DAG consisting of one sequential job (no internal parallelism)."""
        return cls({vertex: wcet})

    @classmethod
    def chain(cls, wcets: Sequence[float]) -> "DAG":
        """A fully sequential chain ``0 -> 1 -> ... -> n-1``."""
        mapping = {i: w for i, w in enumerate(wcets)}
        edges = [(i, i + 1) for i in range(len(wcets) - 1)]
        return cls(mapping, edges)

    @classmethod
    def independent(cls, wcets: Sequence[float]) -> "DAG":
        """``n`` fully parallel jobs with no precedence constraints."""
        return cls({i: w for i, w in enumerate(wcets)})

    @classmethod
    def fork_join(cls, branch_wcets: Sequence[float], source_wcet: float = 1.0,
                  sink_wcet: float = 1.0) -> "DAG":
        """A source, ``len(branch_wcets)`` parallel branches, and a sink."""
        if not branch_wcets:
            raise ModelError("fork_join requires at least one branch")
        n = len(branch_wcets)
        wcets: dict[VertexId, float] = {0: source_wcet}
        for i, w in enumerate(branch_wcets):
            wcets[i + 1] = w
        wcets[n + 1] = sink_wcet
        edges = [(0, i + 1) for i in range(n)] + [(i + 1, n + 1) for i in range(n)]
        return cls(wcets, edges)

    @classmethod
    def from_networkx(cls, graph: Any, wcet_attr: str = "wcet") -> "DAG":
        """Build from a ``networkx.DiGraph`` whose nodes carry a WCET attribute."""
        wcets = {}
        for node, data in graph.nodes(data=True):
            if wcet_attr not in data:
                raise ModelError(f"node {node!r} lacks attribute {wcet_attr!r}")
            wcets[node] = data[wcet_attr]
        return cls(wcets, graph.edges())

    def to_networkx(self) -> Any:
        """Export as a ``networkx.DiGraph`` with a ``wcet`` node attribute."""
        import networkx as nx

        graph = nx.DiGraph()
        for v, w in self._wcets.items():
            graph.add_node(v, wcet=w)
        for u, vs in self._succ.items():
            for v in vs:
                graph.add_edge(u, v)
        return graph

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> tuple[VertexId, ...]:
        """Vertices in a fixed topological order."""
        return self._topo

    @property
    def edges(self) -> tuple[tuple[VertexId, VertexId], ...]:
        """All edges, grouped by source in topological order."""
        return tuple((u, v) for u in self._topo for v in self._succ[u])

    def wcet(self, vertex: VertexId) -> float:
        """The worst-case execution time of *vertex*."""
        try:
            return self._wcets[vertex]
        except KeyError:
            raise ModelError(f"unknown vertex {vertex!r}") from None

    @property
    def wcets(self) -> dict[VertexId, float]:
        """A copy of the vertex -> WCET mapping."""
        return dict(self._wcets)

    def successors(self, vertex: VertexId) -> tuple[VertexId, ...]:
        """Immediate successors of *vertex*."""
        try:
            return self._succ[vertex]
        except KeyError:
            raise ModelError(f"unknown vertex {vertex!r}") from None

    def predecessors(self, vertex: VertexId) -> tuple[VertexId, ...]:
        """Immediate predecessors of *vertex*."""
        try:
            return self._pred[vertex]
        except KeyError:
            raise ModelError(f"unknown vertex {vertex!r}") from None

    @property
    def sources(self) -> tuple[VertexId, ...]:
        """Vertices with no predecessors, in topological order."""
        return tuple(v for v in self._topo if not self._pred[v])

    @property
    def sinks(self) -> tuple[VertexId, ...]:
        """Vertices with no successors, in topological order."""
        return tuple(v for v in self._topo if not self._succ[v])

    def __len__(self) -> int:
        return len(self._wcets)

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._wcets

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DAG):
            return NotImplemented
        return self._wcets == other._wcets and {
            v: frozenset(s) for v, s in self._succ.items()
        } == {v: frozenset(s) for v, s in other._succ.items()}

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    frozenset(self._wcets.items()),
                    frozenset(
                        (u, v) for u, vs in self._succ.items() for v in vs
                    ),
                )
            )
        return self._hash

    def __repr__(self) -> str:
        return (
            f"DAG(|V|={len(self._wcets)}, |E|={sum(len(s) for s in self._succ.values())}, "
            f"vol={self._volume:g}, len={self._longest:g})"
        )

    def __getstate__(self) -> dict:
        """Pickle every slot except the per-instance compiled-kernel artifact."""
        return {
            slot: getattr(self, slot)
            for slot in DAG.__slots__
            if slot != "_compiled"
        }

    def __setstate__(self, state: dict) -> None:
        """Restore slots; the compiled artifact is rebuilt lazily on demand."""
        for slot, value in state.items():
            setattr(self, slot, value)
        self._compiled = None

    def digest(self) -> str:
        """A canonical content digest of this DAG (hex string).

        Equal DAGs (same vertex identifiers, WCETs and edge set, regardless
        of construction order) produce equal digests, so the digest is usable
        as a stable cache key for per-DAG analysis results -- unlike
        ``hash()``, it does not vary between interpreter runs under hash
        randomisation.  Vertices are canonicalised through ``repr``; distinct
        vertex objects with identical reprs would collide, which never occurs
        for the int/str identifiers this package uses.
        """
        if self._digest is None:
            hasher = hashlib.blake2b(digest_size=16)
            for v, w in sorted(
                self._wcets.items(), key=lambda item: repr(item[0])
            ):
                hasher.update(f"v{v!r}:{w!r};".encode())
            for u, v in sorted(
                ((u, v) for u, vs in self._succ.items() for v in vs),
                key=lambda edge: (repr(edge[0]), repr(edge[1])),
            ):
                hasher.update(f"e{u!r}>{v!r};".encode())
            self._digest = hasher.hexdigest()
        return self._digest

    # ------------------------------------------------------------------
    # structural computations
    # ------------------------------------------------------------------
    def _topological_sort(self) -> tuple[VertexId, ...]:
        succ = self._succ
        indegree = {v: len(ws) for v, ws in self._pred.items()}
        # Deterministic order: fall back on insertion order of the mapping.
        # ``order`` doubles as the FIFO queue: its unread tail is the ready set.
        order: list[VertexId] = [v for v, d in indegree.items() if d == 0]
        for v in order:
            for w in succ[v]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    order.append(w)
        if len(order) != len(self._wcets):
            remaining = sorted(
                (repr(v) for v in self._wcets if v not in set(order))
            )
            raise CycleError(f"edges contain a cycle through {', '.join(remaining)}")
        return tuple(order)

    def _compute_longest_chain(self) -> float:
        # Chain lengths are positive, so starting each maximum at 0.0 gives
        # the same float as ``max(..., default=0.0)``.
        pred = self._pred
        wcets = self._wcets
        finish: dict[VertexId, float] = {}
        longest = 0.0
        for v in self._topo:
            best = 0.0
            for p in pred[v]:
                if finish[p] > best:
                    best = finish[p]
            end = finish[v] = best + wcets[v]
            if end > longest:
                longest = end
        return longest

    @property
    def volume(self) -> float:
        """``vol_i``: the cumulative WCET of one dag-job."""
        return self._volume

    @property
    def longest_chain_length(self) -> float:
        """``len_i``: the length of the longest chain (critical path)."""
        return self._longest

    def longest_chain(self) -> tuple[VertexId, ...]:
        """One maximum-length chain, as a vertex sequence in execution order."""
        finish: dict[VertexId, float] = {}
        choice: dict[VertexId, VertexId | None] = {}
        for v in self._topo:
            best: VertexId | None = None
            best_f = 0.0
            for p in self._pred[v]:
                if finish[p] > best_f:
                    best_f = finish[p]
                    best = p
            finish[v] = best_f + self._wcets[v]
            choice[v] = best
        end = max(finish, key=lambda v: finish[v])
        chain: list[VertexId] = []
        cur: VertexId | None = end
        while cur is not None:
            chain.append(cur)
            cur = choice[cur]
        chain.reverse()
        return tuple(chain)

    def earliest_start_times(self) -> dict[VertexId, float]:
        """Earliest possible start of each job given unlimited processors."""
        start: dict[VertexId, float] = {}
        for v in self._topo:
            start[v] = max(
                (start[p] + self._wcets[p] for p in self._pred[v]), default=0.0
            )
        return start

    def latest_start_times(self, deadline: float) -> dict[VertexId, float]:
        """Latest start of each job so that every chain fits within *deadline*.

        Raises
        ------
        ModelError
            If *deadline* is smaller than the longest chain length (the DAG
            cannot possibly complete in time, even on infinitely many
            processors).
        """
        if deadline < self._longest:
            raise ModelError(
                f"deadline {deadline:g} is below the critical path length "
                f"{self._longest:g}"
            )
        latest: dict[VertexId, float] = {}
        for v in reversed(self._topo):
            tail = min(
                (latest[s] for s in self._succ[v]), default=deadline
            )
            latest[v] = tail - self._wcets[v]
        return latest

    def ancestors(self, vertex: VertexId) -> frozenset[VertexId]:
        """All (transitive) predecessors of *vertex*."""
        if vertex not in self._wcets:
            raise ModelError(f"unknown vertex {vertex!r}")
        out: set[VertexId] = set()
        stack = list(self._pred[vertex])
        while stack:
            v = stack.pop()
            if v not in out:
                out.add(v)
                stack.extend(self._pred[v])
        return frozenset(out)

    def descendants(self, vertex: VertexId) -> frozenset[VertexId]:
        """All (transitive) successors of *vertex*."""
        if vertex not in self._wcets:
            raise ModelError(f"unknown vertex {vertex!r}")
        out: set[VertexId] = set()
        stack = list(self._succ[vertex])
        while stack:
            v = stack.pop()
            if v not in out:
                out.add(v)
                stack.extend(self._succ[v])
        return frozenset(out)

    def chain_length(self, chain: Sequence[VertexId]) -> float:
        """The length (sum of WCETs) of *chain*; validates it is a real chain."""
        if not chain:
            return 0.0
        for a, b in zip(chain, chain[1:]):
            if b not in self._succ.get(a, ()):
                raise ModelError(f"({a!r}, {b!r}) is not an edge of this DAG")
        return float(sum(self.wcet(v) for v in chain))

    def scaled(self, speed: float) -> "DAG":
        """This DAG as seen by processors of the given *speed*.

        A job with WCET ``e`` occupies a speed-``s`` processor for ``e / s``
        time units, so speeding the platform up by ``s`` is modelled by
        dividing every WCET by ``s``.
        """
        if speed <= 0:
            raise ModelError(f"speed must be positive, got {speed!r}")
        return DAG(
            {v: w / speed for v, w in self._wcets.items()},
            [(u, v) for u, vs in self._succ.items() for v in vs],
        )

    def parallelism_profile(self) -> list[tuple[float, int]]:
        """Degree of parallelism over time of the greedy unlimited-processor run.

        Returns a list of ``(time, active_jobs)`` breakpoints for the schedule
        in which every job starts at its earliest start time.  Useful for
        visualising how parallel a DAG actually is.
        """
        start = self.earliest_start_times()
        events: dict[float, int] = {}
        for v, s in start.items():
            events[s] = events.get(s, 0) + 1
            end = s + self._wcets[v]
            events[end] = events.get(end, 0) - 1
        profile: list[tuple[float, int]] = []
        active = 0
        for t in sorted(events):
            active += events[t]
            profile.append((t, active))
        return profile

    @property
    def max_parallelism(self) -> int:
        """Peak number of simultaneously runnable jobs (greedy ASAP profile)."""
        return max((n for _, n in self.parallelism_profile()), default=1)
