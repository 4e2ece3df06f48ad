"""Procedure MINPROCS (Figure 3 of the paper).

For a high-density constrained-deadline sporadic DAG task ``tau_i``, MINPROCS
finds the minimum number of dedicated processors ``mu`` such that Graham's
List Scheduling produces a template schedule of ``G_i`` with makespan no
larger than ``D_i``.  Since ``D_i <= T_i``, consecutive dag-jobs never
overlap, so a per-dag-job template suffices (Section IV-A).

The search starts at ``ceil(delta_i)`` -- fewer processors cannot possibly
carry a density-``delta_i`` task -- and stops at the number of remaining
processors ``m_r``; if no ``mu <= m_r`` works, the task is unschedulable on
the remaining platform and ``None`` is returned (the paper's ``infinity``).

Search strategy
---------------
There is one reference path and one fast path.  With the kernels off
(``REPRO_KERNELS=0``) the search is the paper's Figure 3 read literally: a
linear scan of ``mu`` over :func:`~repro.core.list_scheduling.list_schedule`.
With the kernels on, the LS runs use the compiled flat-array loop and the
search, because the LS makespan over a fixed priority list is (almost
always) non-increasing in the processor count, brackets the first fitting
``mu`` with a galloping probe sequence and then bisects -- O(log range) LS
runs instead of O(range).  Graham's anomalies mean monotonicity is not a
theorem, so every bracketed search re-checks the makespans it actually
observed: any non-monotone pair triggers a transparent fallback to the full
linear scan (probe results are reused), guaranteeing the returned
:attr:`MinProcsResult.processors` matches Figure 3 whenever an anomaly
manifests among the probed points.  Either way the reported ``attempts``
stays the canonical ``mu* - start + 1`` so results are bit-identical
between the two paths, while ``ls_runs`` records what the search really
paid.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.core import kernels as _kernels
from repro.core.cache import MISSING, caches as _caches
from repro.core.kernels import flags as _kernel_flags
from repro.core.list_scheduling import compiled_priority, list_schedule, prepare_ls
from repro.core.schedule import Schedule
from repro.model.dag import VertexId
from repro.model.task import SporadicDAGTask
from repro.obs.logging import get_logger
from repro.obs.metrics import metrics as _metrics
from repro.obs.spans import current_span as _current_span
from repro.obs.spans import span as _span

__all__ = ["MinProcsResult", "minprocs", "minprocs_unbounded"]

_log = get_logger(__name__)

#: Below this many candidate processor counts the bracketed search cannot
#: beat the linear scan (the gallop alone probes ~log2(range) points), so
#: small searches stay on the legacy loop.
BISECT_MIN_RANGE = 8


@dataclass(frozen=True)
class MinProcsResult:
    """Outcome of a successful MINPROCS call.

    Attributes
    ----------
    processors:
        ``m_i`` -- the number of dedicated processors granted to the task.
    schedule:
        The template schedule ``sigma_i`` replayed at run time.
    attempts:
        The canonical Figure 3 attempt count ``mu* - ceil(delta) + 1`` (how
        many LS runs the paper's linear scan performs).  Identical with the
        kernels on or off and on cache hits -- complexity experiments and
        bit-identity checks key off this.
    ls_runs:
        How many LS runs the search actually performed: equals ``attempts``
        for the linear scan, O(log range) for the bracketed search, ``0``
        when answered from the analysis cache, ``None`` only for legacy
        constructors that never measured it.
    """

    processors: int
    schedule: Schedule
    attempts: int
    ls_runs: int | None = None


def minprocs(
    task: SporadicDAGTask,
    available: int,
    order: str | Sequence[VertexId] = "longest_path",
) -> MinProcsResult | None:
    """Run MINPROCS(tau_i, m_r): smallest LS cluster meeting the deadline.

    Parameters
    ----------
    task:
        A constrained-deadline sporadic DAG task.  (The procedure is also
        well-defined for low-density tasks; FEDCONS only calls it for
        high-density ones.)
    available:
        ``m_r`` -- the number of processors still unallocated.
    order:
        LS priority order (see :mod:`repro.core.list_scheduling`).  The
        paper leaves the list order open; any order preserves Lemma 1.

    Returns
    -------
    MinProcsResult | None
        ``None`` when no cluster of at most *available* processors yields an
        LS makespan within the deadline (the paper's ``return infinity``).

    Raises
    ------
    AnalysisError
        If the task is not constrained-deadline (the per-dag-job template
        argument breaks down when ``D_i > T_i``), or *available* < 0.
    """
    if available < 0:
        raise AnalysisError(f"available processor count must be >= 0, got {available}")
    if not task.is_constrained_deadline:
        raise AnalysisError(
            f"MINPROCS requires a constrained-deadline task; "
            f"{task.name or task!r} has D > T"
        )
    if task.span > task.deadline:
        # No processor count can beat the critical path.
        return None
    with _span("minprocs", task=task.name or None, available=available) as sp:
        if _caches.enabled:
            result = _minprocs_cached(task, available, order)
        else:
            result = _minprocs_search(task, available, order)
        sp.set(
            fitted=result is not None,
            processors=None if result is None else result.processors,
        )
        return result


def _minprocs_search(
    task: SporadicDAGTask,
    available: int,
    order: str | Sequence[VertexId],
    *,
    linear: bool = False,
) -> MinProcsResult | None:
    """The uncached MINPROCS search (validation already done).

    With kernels disabled this is the literal Figure 3 scan over
    :func:`list_schedule` (the priority list and indegree template are
    computed once via :func:`prepare_ls` instead of once per attempt).  With
    kernels enabled, one :class:`~repro.core.kernels.CompiledDAG` (and its
    priority permutation) backs every attempt, only the *fitting* attempt
    materializes Slot objects, and the bracketed search runs unless
    *linear* pins the compiled linear scan (tests and benchmarks compare
    the two this way).

    Probe results are memoized per ``mu`` so the anomaly fallback re-uses
    rather than re-runs them; ``minprocs_ls_runs``/``list_schedule_*``
    counters record actual LS work (``ls_runs``), while the returned
    ``attempts`` always reports the canonical linear-scan count.
    """
    active = _current_span()  # receives one MinprocsStep event per LS run
    name = task.name or repr(task)
    start = max(1, math.ceil(task.density - 1e-12))
    # Matches Schedule.meets_deadline's tolerance.
    deadline_tol = task.deadline + 1e-9
    use_kernel = _kernel_flags.enabled
    # One clock pair for the whole mu-search and bulk counter updates on the
    # way out: per-attempt clock reads would cost a large fraction of one
    # compiled LS run and break the telemetry overhead budget.
    timing = _metrics.enabled
    search_started = time.perf_counter() if timing else 0.0
    if use_kernel:
        compiled = _kernels.compile_dag(task.dag)
        prio_ranks = compiled_priority(compiled, task.dag, order)
        prepared = None
    else:
        compiled = None
        prepared = prepare_ls(task.dag, order)

    probes: dict[int, tuple[float, bool, object]] = {}
    ls_runs = 0
    last_step_mu = -1

    def _probe(mu: int) -> tuple[float, bool, object]:
        nonlocal ls_runs, last_step_mu
        entry = probes.get(mu)
        if entry is not None:
            return entry
        ls_runs += 1
        payload: object
        if use_kernel:
            makespan, payload = _kernels.ls_run(compiled, mu, prio_ranks)
            fits = makespan <= deadline_tol
        else:
            payload = list_schedule(task.dag, mu, prepared=prepared)
            makespan = payload.makespan
            fits = payload.meets_deadline(task.deadline)
        if active is not None:
            active.add_event(
                "MinprocsStep",
                task=name,
                processors=mu,
                makespan=makespan,
                deadline=task.deadline,
                fits=fits,
            )
        last_step_mu = mu
        _log.debug(
            "MINPROCS %s: mu=%d makespan=%g deadline=%g -> %s",
            name, mu, makespan, task.deadline,
            "fits" if fits else "too long",
        )
        entry = (makespan, fits, payload)
        probes[mu] = entry
        return entry

    def _monotone() -> bool:
        """Makespan non-increasing over every *observed* probe pair."""
        mus = sorted(probes)
        for a, b in zip(mus, mus[1:]):
            if probes[a][0] < probes[b][0]:
                return False
        return True

    def _record_search() -> None:
        _metrics.incr("minprocs_ls_runs", ls_runs)
        if use_kernel:
            _metrics.incr("list_schedule_invocations", ls_runs)
            _metrics.incr("list_schedule_vertices", ls_runs * len(task.dag))
        _metrics.record_time(
            "minprocs.search_seconds", time.perf_counter() - search_started
        )

    def _finish(mu: int) -> MinProcsResult:
        if timing:
            _record_search()
        makespan, _fits, payload = _probe(mu)
        if active is not None and last_step_mu != mu:
            # The bracketed search's last probe may be a non-fitting lower
            # bound; re-emit the winning cluster so traces still end on a
            # fitting step (no extra LS run -- the probe is memoized).
            active.add_event(
                "MinprocsStep",
                task=name,
                processors=mu,
                makespan=makespan,
                deadline=task.deadline,
                fits=True,
            )
        if use_kernel:
            schedule = _kernels.build_schedule(task.dag, compiled, mu, payload)
            schedule.validate()
        else:
            schedule = payload
        return MinProcsResult(
            processors=mu,
            schedule=schedule,
            attempts=mu - start + 1,
            ls_runs=ls_runs,
        )

    def _reject() -> None:
        if timing:
            _record_search()
        _log.debug(
            "MINPROCS %s: no cluster of <= %d processors meets deadline %g",
            name, available, task.deadline,
        )
        return None

    def _linear() -> MinProcsResult | None:
        for mu in range(start, available + 1):
            if _probe(mu)[1]:
                return _finish(mu)
        return _reject()

    if not use_kernel or linear or available - start + 1 < BISECT_MIN_RANGE:
        return _linear()

    # Gallop from `start` with doubling stride to bracket the first fit.
    if _probe(start)[1]:
        return _finish(start)
    lo = start  # largest mu known not to fit
    hi = -1  # smallest mu known to fit
    step = 1
    while hi < 0:
        nxt = min(lo + step, available)
        if _probe(nxt)[1]:
            hi = nxt
        elif nxt == available:
            break
        else:
            lo = nxt
            step *= 2
    if not _monotone():
        # Graham anomaly among the observed makespans: the bracket cannot be
        # trusted.  Replay Figure 3 verbatim (memoized probes are free).
        _metrics.incr("minprocs_anomaly_fallbacks")
        return _linear()
    if hi < 0:
        return _reject()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _probe(mid)[1]:
            hi = mid
        else:
            lo = mid
    if not _monotone():
        _metrics.incr("minprocs_anomaly_fallbacks")
        return _linear()
    return _finish(hi)


def _minprocs_cached(
    task: SporadicDAGTask,
    available: int,
    order: str | Sequence[VertexId],
) -> MinProcsResult | None:
    """MINPROCS answered from the analysis cache where possible.

    The cache key is ``(DAG digest, deadline, order)`` -- deliberately *not*
    the processor budget.  The search scans ``mu = start, start+1, ...`` and
    stops at the first fitting cluster, so the minimal fitting ``mu*`` is a
    property of the task alone: any budget ``>= mu*`` yields the same result
    and any smaller budget yields ``None``.  A cached failure records the
    largest budget searched; larger budgets re-run the search and upgrade
    the entry.

    Cached answers skip the per-``mu`` ``MinprocsStep`` span events and
    ``minprocs_ls_runs`` counter updates (no List Scheduling actually runs);
    the returned result is identical to the uncached one, including the
    reconstructed ``attempts`` count.
    """
    key = (
        task.dag.digest(),
        task.deadline,
        order if isinstance(order, str) else tuple(order),
    )
    start = max(1, math.ceil(task.density - 1e-12))
    entry = _caches.minprocs.get(key)
    if entry is not MISSING:
        fitted, payload = entry
        if fitted:
            mu, schedule = payload
            if mu <= available:
                return MinProcsResult(
                    processors=mu,
                    schedule=schedule,
                    attempts=mu - start + 1,
                    ls_runs=0,
                )
            return None
        if available <= payload:  # searched this far before: nothing fits
            return None
    result = _minprocs_search(task, available, order)
    if result is not None:
        _caches.minprocs.put(key, (True, (result.processors, result.schedule)))
    else:
        _caches.minprocs.put(key, (False, available))
    return result


def minprocs_unbounded(
    task: SporadicDAGTask,
    order: str | Sequence[VertexId] = "longest_path",
) -> MinProcsResult | None:
    """MINPROCS with no cap on the cluster size.

    Useful for analysis experiments (Lemma 1 validation): the search always
    terminates by ``mu = |V_i|`` when the task is structurally feasible
    (``len_i <= D_i``) -- with one processor per job every available job
    starts the instant its predecessors finish, so the LS makespan equals the
    critical path length ``len_i``.
    """
    if task.span > task.deadline:
        return None
    return minprocs(task, len(task.dag), order=order)
