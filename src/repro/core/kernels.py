"""Compiled analysis kernels: flat-array LS and QPA.

Two analysis hot loops -- Graham List Scheduling inside the MINPROCS
mu-search (Fig. 3) and the exact processor-demand oracle -- are pure
functions that the experiment sweeps and the online controller call millions
of times.  This module provides faster *drop-in* implementations of each,
with one hard contract:

    **every kernel is bit-identical to the plain-Python path it replaces** --
    same schedules, same makespans, same partition assignments, same
    accept/reject verdicts, down to the last float.

The repo's determinism, golden-CSV and replay tests depend on that contract;
:mod:`tests.test_kernels` enforces it property-by-property with Hypothesis.

Two kernels live here:

:class:`CompiledDAG`
    an int-indexed flat view of a :class:`~repro.model.dag.DAG` (WCET vector,
    CSR successor/predecessor adjacency, indegree template, upward ranks,
    per-named-order priority permutations), compiled once per DAG and
    memoized on the DAG instance (plus the digest-keyed ``compiled`` LRU when
    the analysis caches are on).  :func:`ls_run` then executes Graham LS as
    an index-based heap loop with no ``repr`` churn, no per-call priority
    re-sort, no ``dict(dag.wcets)`` copy, and no dict-keyed heaps --
    MINPROCS reuses one artifact across all its mu attempts.

:func:`qpa_exact_test`
    Quick Processor-demand Analysis (Zhang & Burns, IEEE TC 2009): instead
    of scanning *every* absolute deadline in the testing interval, iterate
    ``t <- largest breakpoint < h(t) - tol`` backwards from the end of the
    interval.  See the function docstring for the equivalence argument with
    the repo's toleranced breakpoint scan.

Kernels are **enabled by default** and can be switched off globally
(``disable_kernels()``, or ``REPRO_KERNELS=0`` in the environment) or per
block (``with use_kernels(False): ...``) -- the equivalence tests run both
sides of every comparison this way.
"""

from __future__ import annotations

import heapq
import math
import os
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager

from repro.errors import AnalysisError
from repro.core.cache import MISSING, caches as _caches
from repro.core.schedule import Schedule, Slot
from repro.model.dag import DAG
from repro.model.sporadic import SporadicTask

__all__ = [
    "CompiledDAG",
    "compile_dag",
    "ls_run",
    "build_schedule",
    "latest_breakpoint",
    "qpa_exact_test",
    "flags",
    "kernels_enabled",
    "enable_kernels",
    "disable_kernels",
    "use_kernels",
    "kernel_backend",
]


class KernelFlags:
    """The process-wide kernel switch (one attribute read on the hot path).

    ``REPRO_KERNELS`` set to ``0``/``off``/``false``/``no`` falls back to the
    pure-Python reference paths; any other value (or none) turns the
    kernels on.
    """

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        raw = os.environ.get("REPRO_KERNELS", "1").lower()
        self.enabled = raw not in ("0", "off", "false", "no")


#: Global switch consulted by every routed hot path.
flags = KernelFlags()


def kernels_enabled() -> bool:
    """Whether the compiled kernels are currently active."""
    return flags.enabled


def enable_kernels() -> None:
    """Route the analysis hot paths through the compiled kernels (default)."""
    flags.enabled = True


def disable_kernels() -> None:
    """Fall back to the plain-Python reference implementations."""
    flags.enabled = False


@contextmanager
def use_kernels(enabled: bool = True) -> Iterator[None]:
    """Scoped kernel switch; restores the previous state afterwards."""
    previous = flags.enabled
    flags.enabled = enabled
    try:
        yield
    finally:
        flags.enabled = previous


def kernel_backend() -> str:
    """The active analysis path: ``"numpy"`` (kernels on) or ``"python"``."""
    return "numpy" if flags.enabled else "python"


# ---------------------------------------------------------------------------
# CompiledDAG: the flat, int-indexed List-Scheduling artifact
# ---------------------------------------------------------------------------

class CompiledDAG:
    """Flat int-indexed structures of one DAG, shared across many LS runs.

    Vertex ``i`` is the ``i``-th vertex of ``dag.vertices`` (the DAG's
    canonical topological order); the artifact holds no reference back to the
    DAG, so it can live in the digest-keyed analysis cache without pinning
    model objects.
    """

    __slots__ = (
        "vertices",
        "index",
        "wcet",
        "succ_indptr",
        "succ_indices",
        "pred_indptr",
        "pred_indices",
        "indegree",
        "_upward",
        "_priority",
    )

    def __init__(self, dag: DAG) -> None:
        verts = dag.vertices
        index = {v: i for i, v in enumerate(verts)}
        #: Vertices in topological order (``vertices[i]`` names index ``i``).
        self.vertices = verts
        #: Vertex identifier -> flat index.
        self.index = index
        # Read the DAG's own adjacency tables directly: one dict lookup per
        # vertex instead of a checked accessor call per vertex.
        wcets, succ, pred = dag._wcets, dag._succ, dag._pred
        #: ``wcet[i]`` -- execution time of vertex ``i``.
        self.wcet = [wcets[v] for v in verts]
        succ_indptr = [0]
        succ_indices: list[int] = []
        pred_indptr = [0]
        pred_indices: list[int] = []
        lookup = index.__getitem__
        for v in verts:
            succ_indices.extend(map(lookup, succ[v]))
            succ_indptr.append(len(succ_indices))
            pred_indices.extend(map(lookup, pred[v]))
            pred_indptr.append(len(pred_indices))
        #: CSR adjacency: successors of ``i`` are
        #: ``succ_indices[succ_indptr[i]:succ_indptr[i + 1]]``.
        self.succ_indptr = succ_indptr
        self.succ_indices = succ_indices
        #: CSR adjacency of immediate predecessors (same layout).
        self.pred_indptr = pred_indptr
        self.pred_indices = pred_indices
        #: Indegree template; :func:`ls_run` copies it per run.
        self.indegree = [pred_indptr[i + 1] - pred_indptr[i] for i in range(len(verts))]
        self._upward: list[float] | None = None
        self._priority: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return len(self.wcet)

    def upward_rank(self) -> list[float]:
        """Longest-chain length starting at each vertex (inclusive), by index.

        Float-identical to ``list_scheduling._upward_rank``: same reverse
        topological sweep, same ``wcet + max(successor ranks)`` expression
        (ranks are positive, so a running maximum from 0.0 is that max).
        """
        rank = self._upward
        if rank is None:
            n = len(self.wcet)
            rank = [0.0] * n
            wcet = self.wcet
            indptr = self.succ_indptr
            succ = self.succ_indices
            for i in range(n - 1, -1, -1):
                tail = 0.0
                for k in range(indptr[i], indptr[i + 1]):
                    if rank[succ[k]] > tail:
                        tail = rank[succ[k]]
                rank[i] = wcet[i] + tail
            self._upward = rank
        return rank

    def priority(self, order: str) -> list[int]:
        """Priority ranks by vertex index for a *named* order, memoized.

        ``priority(order)[i]`` equals the rank of vertex ``i`` in
        ``priority_list(dag, order)``; the tie-breaks (topological position)
        match ``list_scheduling._order_*`` exactly, so the LS heap pops in
        the identical sequence.
        """
        prio = self._priority.get(order)
        if prio is not None:
            return prio
        n = len(self.wcet)
        if order == "topological":
            perm = list(range(n))
        elif order == "longest_path":
            rank = self.upward_rank()
            perm = sorted(range(n), key=lambda i: (-rank[i], i))
        elif order == "largest_wcet":
            wcet = self.wcet
            perm = sorted(range(n), key=lambda i: (-wcet[i], i))
        elif order == "smallest_wcet":
            wcet = self.wcet
            perm = sorted(range(n), key=lambda i: (wcet[i], i))
        else:
            # Same message as priority_list's unknown-order error.
            raise AnalysisError(
                f"unknown priority order {order!r}; available: "
                f"{sorted(('topological', 'longest_path', 'largest_wcet', 'smallest_wcet'))}"
            )
        prio = [0] * n
        for rank_position, i in enumerate(perm):
            prio[i] = rank_position
        self._priority[order] = prio
        return prio


def compile_dag(dag: DAG) -> CompiledDAG:
    """The (memoized) compiled artifact of *dag*.

    Compiled once per DAG instance; when the analysis caches are enabled the
    artifact is additionally shared across digest-equal DAG instances via
    ``caches.compiled``.
    """
    compiled = dag._compiled
    if compiled is not None:
        return compiled
    if _caches.enabled:
        key = dag.digest()
        hit = _caches.compiled.get(key)
        if hit is not MISSING:
            dag._compiled = hit
            return hit
        compiled = CompiledDAG(dag)
        _caches.compiled.put(key, compiled)
    else:
        compiled = CompiledDAG(dag)
    dag._compiled = compiled
    return compiled


def ls_run(
    compiled: CompiledDAG, processors: int, prio: Sequence[int]
) -> tuple[float, list[tuple[int, float, float, int]]]:
    """One Graham LS pass over a compiled DAG.

    Returns ``(makespan, raw)`` where ``raw`` lists
    ``(vertex_index, start, end, processor)`` in assignment order --
    exactly the slots :func:`repro.core.list_scheduling.list_schedule`
    produces, by construction: priority ranks are unique ints, so every heap
    comparison resolves on the first tuple element and the pop order is
    identical to the dict-keyed reference loop; start/end times are the same
    ``now + wcet`` float expressions.
    """
    n = len(compiled.wcet)
    wcet = compiled.wcet
    indptr = compiled.succ_indptr
    succ = compiled.succ_indices
    indegree = list(compiled.indegree)

    ready = [(prio[i], i) for i in range(n) if indegree[i] == 0]
    heapq.heapify(ready)
    tie = 0
    running: list[tuple[float, int, int]] = []
    idle = processors
    now = 0.0
    raw: list[tuple[int, float, float, int]] = []
    assigned = [0] * n
    free_procs = list(range(processors - 1, -1, -1))
    makespan = 0.0

    scheduled = 0
    while scheduled < n:
        while ready and idle > 0:
            _, i = heapq.heappop(ready)
            proc = free_procs.pop()
            assigned[i] = proc
            end = now + wcet[i]
            raw.append((i, now, end, proc))
            if end > makespan:
                makespan = end
            heapq.heappush(running, (end, tie, i))
            tie += 1
            idle -= 1
            scheduled += 1
        if scheduled >= n:
            break
        if not running:
            raise AnalysisError(
                "LS deadlocked: no running job but unscheduled vertices remain"
            )
        now = running[0][0]
        while running and running[0][0] <= now:
            _, _, done = heapq.heappop(running)
            free_procs.append(assigned[done])
            idle += 1
            for k in range(indptr[done], indptr[done + 1]):
                j = succ[k]
                indegree[j] -= 1
                if indegree[j] == 0:
                    heapq.heappush(ready, (prio[j], j))
    return makespan, raw


def build_schedule(
    dag: DAG,
    compiled: CompiledDAG,
    processors: int,
    raw: Sequence[tuple[int, float, float, int]],
) -> Schedule:
    """Materialize an :func:`ls_run` result as a full :class:`Schedule`.

    MINPROCS probes many mu values but only the first fitting one needs Slot
    objects and validation; this is the deferred expensive half.
    """
    vertices = compiled.vertices
    slots = [
        Slot(start=start, end=end, processor=proc, vertex=vertices[i])
        for i, start, end, proc in raw
    ]
    return Schedule(dag, slots, processors)


# ---------------------------------------------------------------------------
# QPA: Quick Processor-demand Analysis (Zhang & Burns 2009)
# ---------------------------------------------------------------------------

def latest_breakpoint(
    tasks: Sequence[SporadicTask], x: float, strict: bool = False
) -> float | None:
    """The largest demand breakpoint ``k * T_i + D_i`` at most (below) *x*.

    Breakpoints are the absolute deadlines of the synchronous arrival
    pattern, the exact points ``demand_breakpoints`` enumerates; each
    candidate is computed with the same ``k * period + deadline`` float
    expression as ``SporadicTask.deadlines_in`` (integer ``k``), with a
    guarded +-1 adjustment so float rounding in the initial
    ``floor((x - D) / T)`` estimate can never select the wrong neighbour.

    With ``strict=True`` returns the largest breakpoint strictly below *x*;
    ``None`` when no breakpoint qualifies.
    """
    best: float | None = None
    for task in tasks:
        deadline = task.deadline
        period = task.period
        if deadline >= x if strict else deadline > x:
            continue
        k = math.floor((x - deadline) / period)
        if strict:
            while k >= 0 and k * period + deadline >= x:
                k -= 1
            while (k + 1) * period + deadline < x:
                k += 1
        else:
            while k >= 0 and k * period + deadline > x:
                k -= 1
            while (k + 1) * period + deadline <= x:
                k += 1
        if k < 0:
            continue
        candidate = k * period + deadline
        if best is None or candidate > best:
            best = candidate
    return best


def qpa_exact_test(
    tasks: Sequence[SporadicTask],
    bound: float,
    total_demand: Callable[[Sequence[SporadicTask], float], float],
    tol: float,
) -> bool:
    """Exact EDF processor-demand test via backward fixed-point iteration.

    Decision-equivalent to scanning every breakpoint ``d`` in ``(0, bound]``
    for ``h(d) > d + tol`` (``h`` = *total_demand*, the exact aggregate
    ``dbf``), but visits only a short chain of points:

    1. start at ``t`` = the largest breakpoint ``<= bound``;
    2. if ``h(t) > t + tol`` -- a genuine violation at a breakpoint -- fail;
    3. otherwise no breakpoint in ``[h(t) - tol, t]`` can violate (any
       violating ``d`` satisfies ``d < h(d) - tol <= h(t) - tol`` because
       ``h`` is non-decreasing), so jump to the largest breakpoint strictly
       below ``h(t) - tol`` and repeat; pass when none remains.

    Termination: ``h(t) - tol <= t`` whenever step 2 passes, so ``t``
    strictly decreases over the finite breakpoint set.  Soundness: step 3's
    jump never skips a violating breakpoint, and step 2 only fails on points
    the scan would also fail on -- hence bit-identical verdicts.
    """
    t = latest_breakpoint(tasks, bound, strict=False)
    while t is not None:
        demand = total_demand(tasks, t)
        if demand > t + tol:
            return False
        t = latest_breakpoint(tasks, demand - tol, strict=True)
    return True
